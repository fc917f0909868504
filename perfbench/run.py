"""Speed-normalized benchmark of fleet runs and the query service.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fleet_serial --seed 1 --seconds 10 --trace 0

Workloads: ``fleet_serial``, ``fleet_pool``, ``fleet_remote`` (see
``fleet.py``) and ``serve_mix`` (see ``serve.py``).  ``README.md`` in this
directory says why each was chosen and records how steady the figures are.

``--trace 0`` takes :data:`SETUP_SAMPLES` set-up samples (each in a fresh
process) and one timed window, and reports every end-to-end metric.
``--trace 1`` runs the workload twice, untraced and then with span
wrappers installed, and reports the per-layer metrics of the traced run,
its self-time split and the tracing overhead on each end-to-end metric.

Every time-based end-to-end metric is normalized by a machine-speed probe
interleaved with the work (``probe.py``): each timed piece of work is
divided by the speed factor of the probes taken while it ran.  Raw values
and the window's mean speed factor are printed beside the normalized ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when an output check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import common
import probe

WORKLOADS = ("fleet_serial", "fleet_pool", "fleet_remote", "serve_mix")
#: Set-up samples per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Wall-clock budget of one invocation; a run that would overrun it fails.
BUDGET_S = 170.0


def catalogue() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def spawn(args, deadline: float, workdir: str, *flags: str) -> dict:
    """Run one child process; return its document and its set-up factor."""
    os.makedirs(workdir, exist_ok=True)
    before = probe.burst()
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [
            sys.executable,
            os.path.join(common.HERE, "child.py"),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--t0",
            repr(t0),
            "--workdir",
            workdir,
            *flags,
        ],
        cwd=common.ROOT,
        env=common.child_env(workdir),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"benchmark process {flags} overran the {BUDGET_S:g} s budget")
    finally:
        common.reap_group(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process {flags} exited with {proc.returncode}")
    document = json.loads(out.strip().splitlines()[-1])
    document["setup_factor"] = probe.speed_factor(
        before + document["setup_probes"] + document["idle_before"]
    )
    return document


def end_to_end(document: dict, setup_samples: List[dict]) -> Dict[str, Dict[str, float]]:
    """Normalized and raw end-to-end values of one timed window."""
    measured = document["measured"]
    out = {
        name: {"value": measured["normalized"][name], "raw": value}
        for name, value in measured["raw"].items()
    }
    raw_setup = [s["setup_raw"] for s in setup_samples]
    out["setup_s"] = {
        "value": probe.median([s["setup_raw"] / s["setup_factor"] for s in setup_samples]),
        "raw": probe.median(raw_setup),
    }
    return out


def describe_window(document: dict) -> List[str]:
    probes = document["probes"]
    idle = document["idle_before"] + document["idle_after"]
    measured = document["measured"]
    lines = [
        f"  window: {measured['detail']}; {measured['attempted']} operations, "
        f"{measured['failed']} failed",
        f"  speed factor {probe.speed_factor(probes):.4f} (in-run probe mean "
        f"{statistics.fmean(probes) * 1e3:.4f} ms over {len(probes)} probes); "
        f"probe self-check: in-run/idle median = "
        f"{probe.median(probes) / probe.median(idle):.4f} "
        f"(idle median {probe.median(idle) * 1e3:.4f} ms)",
    ]
    for kind, values in measured["latencies_ms"].items():
        t = probe.tail(values)
        if t is None:
            lines.append(f"  {kind} tail: fewer than 11 samples ({len(values)})")
        else:
            lines.append(
                f"  {kind} tail (not gated): p{t['percentile']:g} = {t['value']:.4f} ms "
                f"normalized, {t['samples']} samples"
            )
    return lines


def run_untraced(args, spec: dict, workdir: str, deadline: float) -> int:
    samples = [
        spawn(args, deadline, os.path.join(workdir, f"setup{i}"), "--setup-only")
        for i in range(SETUP_SAMPLES - 1)
    ]
    full = spawn(args, deadline, os.path.join(workdir, "run"))
    samples.append(full)
    values = end_to_end(full, samples)
    print(f"perfbench {args.workload} seed {args.seed} ({args.seconds:g} s window)")
    print(*describe_window(full), sep="\n")
    print(
        "  set-up samples: "
        + ", ".join(f"{s['setup_raw']:.4f} s raw / factor {s['setup_factor']:.4f}" for s in samples)
    )
    print(f"  {'metric':<16} {'unit':<10} {'normalized':>14} {'raw':>14}")
    metrics = {}
    for entry in spec["end_to_end"]:
        name = entry["name"]
        value = values[name]
        print(f"  {name:<16} {entry['unit']:<10} {value['value']:>14.4f} {value['raw']:>14.4f}")
        metrics[name] = {"value": value["value"], "unit": entry["unit"]}
    problems = full["problems"] + [p for s in samples[:-1] for p in s["problems"]]
    return finish(problems, full["measured"]["attempted"], full["measured"]["failed"], metrics)


def run_traced(args, spec: dict, workdir: str, deadline: float) -> int:
    plain = spawn(args, deadline, os.path.join(workdir, "untraced"))
    traced = spawn(args, deadline, os.path.join(workdir, "traced"), "--traced")
    plain_values = end_to_end(plain, [plain])
    traced_values = end_to_end(traced, [traced])
    print(f"perfbench {args.workload} seed {args.seed}: traced run ({args.seconds:g} s window)")
    print(*describe_window(traced), sep="\n")
    print("  tracing overhead on end-to-end metrics (traced vs untraced, normalized):")
    for entry in spec["end_to_end"]:
        name = entry["name"]
        a, b = plain_values[name]["value"], traced_values[name]["value"]
        change = (b - a) / a if a else 0.0
        print(f"    {name:<16} {a:>14.4f} -> {b:>14.4f} {entry['unit']:<10} ({change:+.2%})")
    layers = traced["layers"]
    print("  self time by layer, as a share of the timed window:")
    for layer, share in sorted(layers["self_share"].items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<44} {share:8.2%}")
    print(f"  {'per-layer metric':<40} {'unit':<14} {'value':>14}")
    values = dict(layers["metrics"])
    for key, share in layers["self_share"].items():
        module = key.split(": ")[-1]
        if module.startswith("repro."):
            short = "self_share." + module.rsplit(".", 1)[-1]
            values[short] = values.get(short, 0.0) + share
    metrics = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        value = float(values.get(name, 0.0))
        print(f"  {name:<40} {entry['unit']:<14} {value:>14.4f}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    problems = plain["problems"] + traced["problems"]
    attempted = plain["measured"]["attempted"] + traced["measured"]["attempted"]
    failed = plain["measured"]["failed"] + traced["measured"]["failed"]
    return finish(problems, attempted, failed, metrics)


def finish(problems: List[str], attempted: int, failed: int, metrics: dict) -> int:
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    common.emit(
        {
            "correct": not problems,
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not common.program_present():
        print(f"perfbench: no program to measure under {common.SRC}", file=sys.stderr)
        return 2
    # Build: byte-compile the program and the benchmark once, so set-up
    # samples time imports, not compilation.
    compileall.compile_dir(common.SRC, quiet=1)
    compileall.compile_dir(common.HERE, quiet=1)
    deadline = time.monotonic() + BUDGET_S
    spec = catalogue()
    workdir = os.path.join(common.WORK_ROOT, str(os.getpid()))
    try:
        if args.trace:
            return run_traced(args, spec, workdir, deadline)
        return run_untraced(args, spec, workdir, deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(common.WORK_ROOT)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
