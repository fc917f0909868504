"""Smoke benchmark: engine speedups and streaming ``n_jobs`` scaling.

Two measurements on the Table 2 base case, recorded under
``benchmarks/results/``:

* event-vs-batch engine speedup (1,000 groups, single process), checked
  against its >= 5x acceptance bar in ``engine_speedup.txt``;
* streaming-runner shard-parallel scaling (4,000 groups, batch engine,
  ``n_jobs`` 1 vs 4) in ``streaming_jobs.txt``.  The >= 1.8x bar for
  4 jobs is only *enforced* on machines with at least 4 CPUs — on
  smaller boxes the measurement is still recorded, annotated with the
  machine context, because worker spawn cost dominates there.  Either
  way the two runs' accumulators must match bit-for-bit.

Intended as a fast CI step::

    PYTHONPATH=src python benchmarks/smoke_engines.py

Exit status is non-zero when an enforced bar is missed or the parallel
run diverges from the serial one.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.simulation import MonteCarloRunner, RaidGroupConfig, simulate_raid_groups

RESULTS_DIR = Path(__file__).parent / "results"
N_GROUPS = 1000
SEED = 0
MIN_SPEEDUP = 5.0

#: Streaming-scaling workload: large enough that shard compute outweighs
#: per-worker spawn cost on a multi-core machine.
STREAM_GROUPS = 4000
STREAM_SHARD = 500
STREAM_JOBS = 4
MIN_JOBS_SPEEDUP = 1.8
#: Cores needed before the n_jobs bar is enforced rather than recorded.
MIN_CORES_FOR_BAR = 4


def time_engine(engine: str, n_groups: int = N_GROUPS, seed: int = SEED) -> float:
    """Best-of-three wall-clock seconds for one engine."""
    config = RaidGroupConfig.paper_base_case()
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = simulate_raid_groups(config, n_groups=n_groups, seed=seed, engine=engine)
        best = min(best, time.perf_counter() - start)
        assert result.n_groups == n_groups
    return best


def time_streaming(n_jobs: int):
    """Best-of-two (seconds, canonical accumulator JSON) for one n_jobs."""
    config = RaidGroupConfig.paper_base_case()
    best = float("inf")
    canonical = None
    for _ in range(2):
        runner = MonteCarloRunner(
            config, n_groups=STREAM_GROUPS, seed=SEED, engine="batch", n_jobs=n_jobs
        )
        start = time.perf_counter()
        streaming = runner.run_streaming(shard_size=STREAM_SHARD)
        best = min(best, time.perf_counter() - start)
        canonical = json.dumps(streaming.accumulator.to_dict(), sort_keys=True)
    return best, canonical


def engine_smoke() -> tuple[str, bool]:
    t_event = time_engine("event")
    t_batch = time_engine("batch")
    speedup = t_event / t_batch
    lines = [
        "Engine smoke benchmark: Table 2 base case, "
        f"{N_GROUPS} groups, seed {SEED}, single process (best of 3)",
        f"event engine : {t_event * 1000.0:8.1f} ms",
        f"batch engine : {t_batch * 1000.0:8.1f} ms",
        f"speedup      : {speedup:8.1f}x  (acceptance bar: >= {MIN_SPEEDUP:.0f}x)",
    ]
    report = "\n".join(lines)
    (RESULTS_DIR / "engine_speedup.txt").write_text(report + "\n")
    ok = speedup >= MIN_SPEEDUP
    if not ok:
        print(f"FAIL: speedup {speedup:.1f}x below the {MIN_SPEEDUP:.0f}x bar", file=sys.stderr)
    return report, ok


def streaming_smoke() -> tuple[str, bool]:
    cores = os.cpu_count() or 1
    t_serial, acc_serial = time_streaming(1)
    t_parallel, acc_parallel = time_streaming(STREAM_JOBS)
    speedup = t_serial / t_parallel
    enforced = cores >= MIN_CORES_FOR_BAR
    bar = (
        f"(acceptance bar: >= {MIN_JOBS_SPEEDUP}x)"
        if enforced
        else f"(bar >= {MIN_JOBS_SPEEDUP}x not enforced: only {cores} CPU(s); "
        "spawn cost dominates)"
    )
    lines = [
        "Streaming n_jobs scaling smoke: Table 2 base case, "
        f"{STREAM_GROUPS} groups in shards of {STREAM_SHARD}, batch engine, "
        f"seed {SEED}, {cores} CPU(s) (best of 2)",
        f"n_jobs=1           : {t_serial * 1000.0:8.1f} ms",
        f"n_jobs={STREAM_JOBS}           : {t_parallel * 1000.0:8.1f} ms",
        f"speedup            : {speedup:8.2f}x  {bar}",
        f"bit-identical      : {acc_serial == acc_parallel}",
    ]
    report = "\n".join(lines)
    (RESULTS_DIR / "streaming_jobs.txt").write_text(report + "\n")
    ok = True
    if acc_serial != acc_parallel:
        print("FAIL: n_jobs=4 accumulator diverged from n_jobs=1", file=sys.stderr)
        ok = False
    if enforced and speedup < MIN_JOBS_SPEEDUP:
        print(
            f"FAIL: n_jobs={STREAM_JOBS} speedup {speedup:.2f}x below the "
            f"{MIN_JOBS_SPEEDUP}x bar on a {cores}-CPU machine",
            file=sys.stderr,
        )
        ok = False
    return report, ok


def main() -> int:
    RESULTS_DIR.mkdir(exist_ok=True)
    engine_report, engine_ok = engine_smoke()
    streaming_report, streaming_ok = streaming_smoke()
    print(engine_report)
    print()
    print(streaming_report)
    return 0 if (engine_ok and streaming_ok) else 1


if __name__ == "__main__":
    sys.exit(main())
