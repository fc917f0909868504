"""Engine benchmark harness with a machine-tolerant regression bar.

Times the Table 2 base case through each execution path and emits a
machine-readable ``BENCH_<date>.json``::

    PYTHONPATH=src python benchmarks/bench.py --out BENCH_$(date +%F).json

Cases (all seed 0):

* ``event_1000``   — reference per-group event loop, 1,000 groups.  This
  is the **anchor**: every other case is compared *relative to it*, so a
  slower or faster machine rescales all cases together and the
  regression check stays meaningful across hardware.
* ``batch_1000``   — vectorized lockstep kernel, 1,000 groups.
* ``batch_5000``   — the kernel at fleet scale (the ISSUE's 1.5x bar).
* ``stream_5000``  — streaming runner + pipelined executor,
  ``n_jobs = min(4, cpus)``.
* ``stream_remote_5000`` — streaming runner over the TCP remote-worker
  backend: a loopback hub plus two real ``repro worker`` subprocesses,
  no local pool.  Skipped (with a stderr line) on machines with fewer
  than 2 CPUs, where the loopback workers would just contend.

``--case NAME`` (repeatable) re-measures just the named case(s) —
handy for iterating on one kernel without the full suite.  The anchor
is skipped like any other case, so regression comparison needs an
unfiltered run.  Every row records ``engine_backend`` (``python`` /
``numpy``).  Only cases present in both files are compared, so a
baseline with cases this harness no longer measures stays comparable.

Regression check (``--baseline BENCH_x.json``): for each non-anchor case
present in both files, compare ``groups_per_s / anchor_groups_per_s``
against the baseline's same ratio and fail when it degraded by more than
``--max-slowdown`` (default 0.30).  ``ddf_count`` must match the
baseline exactly — the engines are deterministic for a fixed seed, so
any drift means a semantic change, not noise.  The bar is only
*enforced* on machines with at least :data:`MIN_CORES_FOR_BAR` CPUs
(mirroring ``smoke_engines.py``); below that the comparison is still
printed, annotated, and reported as passing unless ``--enforce``.

``--handicap FACTOR`` divides the measured throughput of the *batch*
cases only, simulating a kernel regression — used to prove the harness
actually fails (an all-case handicap would cancel in the anchor ratio).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.simulation import MonteCarloRunner, RaidGroupConfig, simulate_raid_groups

#: The case every other case is normalized by for cross-machine comparison.
ANCHOR_CASE = "event_1000"

#: Relative (anchor-normalized) slowdown tolerated before failing.
DEFAULT_MAX_SLOWDOWN = 0.30

#: Cores needed before the regression bar is enforced rather than
#: recorded (same convention as ``smoke_engines.py``).
MIN_CORES_FOR_BAR = 4

SEED = 0


def _time_best(repeats, fn):
    """(best wall seconds, last result) over ``repeats`` calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_cases(
    handicap: float = 1.0, only: Optional[List[str]] = None
) -> List[Dict[str, object]]:
    """Measure the benchmark cases; returns schema-shaped result rows.

    ``only`` restricts the run to the named cases (``--case`` on the
    command line); ``None`` means all cases available on this machine.
    """
    config = RaidGroupConfig.paper_base_case()
    cpus = os.cpu_count() or 1
    rows: List[Dict[str, object]] = []

    def wanted(case):
        return only is None or case in only

    def add(case, n_groups, engine, backend, wall_s, ddf_count, handicapped):
        gps = n_groups / wall_s if wall_s > 0 else 0.0
        if handicapped:
            gps /= handicap
        rows.append(
            {
                "case": case,
                "n_groups": n_groups,
                "engine": engine,
                "engine_backend": backend,
                "wall_s": round(wall_s, 4),
                "groups_per_s": round(gps, 1),
                "ddf_count": int(ddf_count),
            }
        )

    # Warm NumPy/import state so the first timed case is not penalized.
    simulate_raid_groups(config, n_groups=64, seed=SEED, engine="batch")

    if wanted("event_1000"):
        wall, result = _time_best(
            2,
            lambda: simulate_raid_groups(config, n_groups=1000, seed=SEED, engine="event"),
        )
        add("event_1000", 1000, "event", "python", wall, result.summary()["total_ddfs"], False)

    for n in (1000, 5000):
        if not wanted(f"batch_{n}"):
            continue
        wall, result = _time_best(
            3,
            lambda n=n: simulate_raid_groups(config, n_groups=n, seed=SEED, engine="batch"),
        )
        add(f"batch_{n}", n, "batch", "numpy", wall, result.summary()["total_ddfs"], True)

    jobs = min(4, cpus)
    if wanted("stream_5000"):
        runner = MonteCarloRunner(
            config, n_groups=5000, seed=SEED, engine="batch", n_jobs=jobs
        )
        wall, streaming = _time_best(2, lambda: runner.run_streaming())
        add(
            "stream_5000",
            5000,
            f"streaming+batch/j{jobs}",
            "numpy",
            wall,
            streaming.accumulator.total_ddfs,
            True,
        )

    if wanted("stream_remote_5000"):
        if cpus < 2:
            print(
                "bench: stream_remote_5000 skipped — needs >= 2 CPUs for "
                "loopback workers",
                file=sys.stderr,
            )
        else:
            wall, ddf_count = _measure_stream_remote(config)
            add(
                "stream_remote_5000",
                5000,
                "streaming+batch/remote2",
                "numpy",
                wall,
                ddf_count,
                True,
            )

    return rows


def _measure_stream_remote(config, n_workers: int = 2):
    """(best wall seconds, ddf count) for a 5,000-group remote-only run.

    Opens a loopback hub and dials ``n_workers`` real ``repro worker``
    subprocesses into it; the timed run uses ``n_jobs=0`` so every shard
    travels the wire.
    """
    import subprocess

    import repro
    from repro.simulation.remote import RemoteWorkerHub

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    hub = RemoteWorkerHub()
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--connect", hub.address],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for _ in range(n_workers)
    ]
    try:
        if not hub.wait_for_workers(n_workers, timeout=60.0):
            raise RuntimeError("remote bench workers failed to connect")
        runner = MonteCarloRunner(
            config, n_groups=5000, seed=SEED, engine="batch", n_jobs=0
        )
        wall, streaming = _time_best(2, lambda: runner.run_streaming(workers=hub))
        return wall, streaming.accumulator.total_ddfs
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.wait(timeout=30.0)
        hub.close()


def bench_document(rows: List[Dict[str, object]]) -> Dict[str, object]:
    """The full ``BENCH_<date>.json`` document."""
    return {
        "format": "repro-bench/1",
        "date": datetime.date.today().isoformat(),
        "machine": {
            "cpus": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "config": "Table 2 base case (paper_base_case), seed 0",
        "results": rows,
    }


def compare(
    current: Dict[str, object],
    baseline: Dict[str, object],
    max_slowdown: float = DEFAULT_MAX_SLOWDOWN,
) -> List[str]:
    """Regression failures of ``current`` vs ``baseline`` (empty = pass)."""
    cur = {r["case"]: r for r in current["results"]}
    base = {r["case"]: r for r in baseline["results"]}
    failures: List[str] = []
    if ANCHOR_CASE not in cur or ANCHOR_CASE not in base:
        return [f"anchor case {ANCHOR_CASE!r} missing; cannot compare"]
    cur_anchor = float(cur[ANCHOR_CASE]["groups_per_s"])
    base_anchor = float(base[ANCHOR_CASE]["groups_per_s"])
    for case in sorted(set(cur) & set(base)):
        if int(cur[case]["ddf_count"]) != int(base[case]["ddf_count"]):
            failures.append(
                f"{case}: ddf_count {cur[case]['ddf_count']} != baseline "
                f"{base[case]['ddf_count']} — determinism broken"
            )
        if case == ANCHOR_CASE:
            continue
        rel_cur = float(cur[case]["groups_per_s"]) / cur_anchor
        rel_base = float(base[case]["groups_per_s"]) / base_anchor
        floor = (1.0 - max_slowdown) * rel_base
        if rel_cur < floor:
            failures.append(
                f"{case}: anchor-relative throughput {rel_cur:.2f}x fell below "
                f"{floor:.2f}x (baseline {rel_base:.2f}x, tolerance "
                f"{max_slowdown:.0%})"
            )
    return failures


def _report(doc: Dict[str, object], baseline: Optional[Dict[str, object]]) -> None:
    print(f"repro bench — {doc['date']} — {doc['machine']['cpus']} CPU(s)")
    anchor = next(
        (r for r in doc["results"] if r["case"] == ANCHOR_CASE), None
    )
    for r in doc["results"]:
        rel = (
            f"  ({float(r['groups_per_s']) / float(anchor['groups_per_s']):6.2f}x anchor)"
            if anchor and float(anchor["groups_per_s"]) > 0
            else ""
        )
        print(
            f"  {r['case']:<20} {r['engine']:<20} "
            f"[{r.get('engine_backend', '?')}] {r['wall_s']:>8.3f}s "
            f"{float(r['groups_per_s']):>10.1f} groups/s  "
            f"ddfs={r['ddf_count']}{rel}"
        )
    if baseline is not None:
        print(f"baseline: {baseline['date']} on {baseline['machine']['cpus']} CPU(s)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="PATH",
        help="write the BENCH json here (default BENCH_<today>.json in CWD)",
    )
    parser.add_argument(
        "--baseline",
        type=str,
        default=None,
        metavar="PATH",
        help="committed BENCH json to enforce the regression bar against",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=DEFAULT_MAX_SLOWDOWN,
        help="tolerated anchor-relative slowdown (default 0.30)",
    )
    parser.add_argument(
        "--handicap",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="divide batch-case throughput by FACTOR (harness self-test)",
    )
    parser.add_argument(
        "--enforce",
        action="store_true",
        help=f"enforce the bar even on < {MIN_CORES_FOR_BAR} CPUs",
    )
    parser.add_argument(
        "--case",
        action="append",
        default=None,
        metavar="NAME",
        dest="cases",
        help="measure only this case (repeatable); default: all cases",
    )
    args = parser.parse_args(argv)

    rows = run_cases(handicap=args.handicap, only=args.cases)
    doc = bench_document(rows)
    out = args.out or f"BENCH_{doc['date']}.json"
    Path(out).write_text(json.dumps(doc, indent=2) + "\n")

    baseline = None
    if args.baseline is not None:
        baseline = json.loads(Path(args.baseline).read_text())
    _report(doc, baseline)
    print(f"wrote {out}")

    if baseline is None:
        return 0
    failures = compare(doc, baseline, max_slowdown=args.max_slowdown)
    cpus = os.cpu_count() or 1
    enforced = args.enforce or cpus >= MIN_CORES_FOR_BAR
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures and not enforced:
        print(
            f"bar not enforced: only {cpus} CPU(s) "
            f"(< {MIN_CORES_FOR_BAR}; timings too noisy)",
            file=sys.stderr,
        )
        return 0
    if not failures:
        print("regression bar: PASS")
    return 1 if (failures and enforced) else 0


if __name__ == "__main__":
    sys.exit(main())
