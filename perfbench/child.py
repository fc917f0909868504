"""One benchmark process: set up a workload, measure it, check it.

Started by ``run.py`` (never by hand); prints one JSON document as its
last line.  Set-up time is measured from ``--t0``, a ``time.monotonic()``
reading the parent took just before starting this process, so it covers
interpreter start, imports, warm-up, starting the worker or server and
cache priming.  With ``--setup-only`` the process stops after set-up (the
parent takes several set-up samples per run).  With ``--traced`` the span
wrappers are installed before anything of the program runs.
"""

from __future__ import annotations

import argparse
import sys
import time

import common
import probe
import tracing


def make_workload(name: str, seed: int, workdir: str, tracer):
    if name == "serve_mix":
        from serve import ServeMix

        return ServeMix(name, seed, workdir, tracer)
    from fleet import Fleet

    return Fleet(name, seed, workdir, tracer)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    common.use_source_tree()
    tracer = None
    if args.traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = make_workload(args.workload, args.seed, args.workdir, tracer)
    document: dict = {}
    try:
        workload.setup()
        document["setup_raw"] = time.monotonic() - args.t0 - workload.setup_probes.spent
        document["setup_probes"] = workload.setup_probes.samples
        document["idle_before"] = probe.burst()
        if not args.setup_only:
            measured = workload.measure(args.seconds)
            document["idle_after"] = probe.burst()
            document["measured"] = measured
            document["probes"] = workload.probes.samples
    finally:
        workload.teardown()
    if tracer is not None and "measured" in document:
        document["layers"] = workload.layers(document["measured"])
    document["problems"] = workload.problems
    common.emit(document)
    return 0


if __name__ == "__main__":
    sys.exit(main())
