"""Start ``repro worker`` or ``repro serve`` with span wrappers installed.

Usage (the benchmark starts it; it is not a user-facing tool)::

    python3 perfbench/launch.py SPANS.json worker --connect HOST:PORT
    python3 perfbench/launch.py SPANS.json serve --port 0 --cache-dir DIR \
        --cache-entries N

It installs the wrappers from :mod:`tracing`, then calls the same entry
point the CLI would (:func:`repro.simulation.remote.run_worker` or
:func:`repro.service.serve`) and writes its spans to ``SPANS.json`` when
that call returns: a worker returns when its coordinator goes away, the
server on SIGINT.
"""

from __future__ import annotations

import argparse
import sys

import common
import tracing


def main(argv: list) -> int:
    spans_path, command, rest = argv[0], argv[1], argv[2:]
    common.use_source_tree()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    parser = argparse.ArgumentParser(prog=f"launch {command}")
    try:
        if command == "worker":
            from repro.simulation.remote import run_worker

            parser.add_argument("--connect", required=True)
            parser.add_argument("--max-reconnects", type=int, default=0)
            args = parser.parse_args(rest)
            print(f"launch: worker connecting to {args.connect}", flush=True)
            run_worker(args.connect, max_reconnects=args.max_reconnects)
        elif command == "serve":
            from repro.service import serve

            parser.add_argument("--port", type=int, default=0)
            parser.add_argument("--cache-dir", required=True)
            parser.add_argument("--cache-entries", type=int, required=True)
            args = parser.parse_args(rest)
            serve(
                port=args.port,
                cache_dir=args.cache_dir,
                max_entries=args.cache_entries,
            )
        else:
            parser.error(f"unknown command {command!r}")
    finally:
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
