"""Service latency/throughput benchmark (and nightly chaos driver).

Boots the full ``repro serve`` stack in-process (HTTP server on a
background thread, real sockets, real clients) and drives it with the
duplicate-heavy mix the service is designed for, reporting a
``repro-bench/1`` document::

    PYTHONPATH=src python benchmarks/bench_serve.py --out SERVE_BENCH.json
    PYTHONPATH=src python benchmarks/bench_serve.py --duration 60 --chaos

Phases (fixed seed; every row carries latency percentiles):

* ``serve_solver_hot``   — memoised analytical answers under a client
  storm; the tier the <10 ms acceptance bar applies to.
* ``serve_mc_cold``      — one cold Monte Carlo refinement per distinct
  config (the price of a cache miss).
* ``serve_mc_cached``    — the same queries again: pure cache hits.
* ``serve_mixed_burst``  — sustained duplicate-heavy mixed waves for the
  remaining ``--duration`` budget.

``--chaos`` swaps in a shard worker that kills its process once
mid-refinement (the executor must retry and the ledgers must stay
clean); the run exits non-zero if any request errors, any simulation
fails, or no worker kill was actually observed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

import numpy as np

try:
    import requests
except ImportError:  # pragma: no cover - bench requires a client
    print("bench_serve requires the 'requests' package", file=sys.stderr)
    sys.exit(2)

from repro.distributions import Weibull
from repro.service import ReliabilityService, ResultCache, ServiceThread
from repro.simulation.config import RaidGroupConfig
from repro.simulation.executor import simulate_shard
from repro.validation import config_to_dict

SEED = 20_260_808
SHARD = 64

CRASH_DIR_ENV = "REPRO_SERVE_CRASH_DIR"
CRASH_INDEX_ENV = "REPRO_SERVE_CRASH_INDEX"


def crash_once_worker(config, root_state, engine, task):
    """Kill the worker process on the victim shard's first attempt."""
    if task.index == int(os.environ.get(CRASH_INDEX_ENV, "1")):
        crash_dir = os.environ[CRASH_DIR_ENV]
        attempts = len(os.listdir(crash_dir))
        if attempts < 1:
            open(os.path.join(crash_dir, f"attempt{attempts}"), "w").close()
            os._exit(1)
    return simulate_shard(config, root_state, engine, task)


def solver_payloads() -> List[dict]:
    return [
        {
            "config": config_to_dict(
                RaidGroupConfig.paper_base_case(
                    scrub_characteristic_hours=s, mission_hours=8_760.0
                )
            )
        }
        for s in (12.0, 48.0, 168.0, 336.0)
    ]


def mc_payloads(max_groups: int) -> List[dict]:
    payloads = []
    for op_scale in (200_000.0, 150_000.0, 120_000.0):
        config = RaidGroupConfig(
            n_data=7,
            time_to_op=Weibull(shape=2.0, scale=op_scale),
            time_to_restore=Weibull(shape=2.0, scale=12.0, location=6.0),
            time_to_latent=Weibull(shape=1.0, scale=9_259.0),
            time_to_scrub=Weibull(shape=3.0, scale=168.0, location=6.0),
            mission_hours=8_760.0,
        )
        payloads.append(
            {
                "config": config_to_dict(config),
                "precision": {
                    "rel_ci_width": 1e-9,
                    "min_groups": SHARD,
                    "max_groups": max_groups,
                },
            }
        )
    return payloads


class Phase:
    """Client-side latency ledger for one benchmark phase."""

    def __init__(self, case: str) -> None:
        self.case = case
        self.latencies: List[float] = []
        self.wall_s = 0.0

    def row(self) -> Dict[str, object]:
        n = len(self.latencies)
        ordered = sorted(self.latencies)

        def pct(p: float) -> float:
            if not ordered:
                return 0.0
            return ordered[min(n - 1, int(p * n))]

        return {
            "case": self.case,
            "n_groups": n,  # schema slot: queries answered this phase
            "engine": "service",
            "wall_s": round(self.wall_s, 4),
            "groups_per_s": round(n / self.wall_s, 1) if self.wall_s > 0 else 0.0,
            "ddf_count": 0,  # not a simulation row; kept for schema shape
            "latency_ms": {
                "p50": round(pct(0.50) * 1e3, 3),
                "p95": round(pct(0.95) * 1e3, 3),
                "p99": round(pct(0.99) * 1e3, 3),
                "max": round((ordered[-1] if ordered else 0.0) * 1e3, 3),
                "mean": round(
                    (statistics.fmean(ordered) if ordered else 0.0) * 1e3, 3
                ),
            },
        }


def drive(
    handle: ServiceThread,
    phase: Phase,
    payloads: List[dict],
    n_clients: int,
) -> List[dict]:
    """Fire ``payloads`` concurrently, recording client-side latency."""
    url = handle.url("/query")
    session_local = threading.local()

    def post(payload: dict) -> dict:
        client = getattr(session_local, "s", None)
        if client is None:
            client = session_local.s = requests.Session()
        start = time.perf_counter()
        response = client.post(url, json=payload)
        phase.latencies.append(time.perf_counter() - start)
        response.raise_for_status()
        return response.json()

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=n_clients) as pool:
        results = list(pool.map(post, payloads))
    phase.wall_s += time.perf_counter() - start
    return results


def run_bench(
    duration: float, clients: int, chaos: bool, mc_cap: int
) -> Dict[str, object]:
    rng = random.Random(SEED)
    kwargs: Dict[str, object] = dict(
        max_workers=3,
        engine="batch",
        seed=SEED,
        shard_size=SHARD,
        max_groups=65_536,
    )
    crash_dir: Optional[str] = None
    if chaos:
        crash_dir = tempfile.mkdtemp(prefix="repro-serve-chaos-")
        os.environ[CRASH_DIR_ENV] = crash_dir
        os.environ.setdefault(CRASH_INDEX_ENV, "1")
        kwargs.update(n_jobs=2, shard_worker=crash_once_worker)
    service = ReliabilityService(cache=ResultCache(), **kwargs)

    solver = solver_payloads()
    mc = mc_payloads(mc_cap)
    phases = {
        name: Phase(name)
        for name in (
            "serve_solver_hot",
            "serve_mc_cold",
            "serve_mc_cached",
            "serve_mixed_burst",
        )
    }

    with ServiceThread(service) as handle:
        for payload in solver:  # prime the memo (unmeasured)
            requests.post(handle.url("/query"), json=payload)

        drive(handle, phases["serve_solver_hot"], solver * 100, clients)
        drive(handle, phases["serve_mc_cold"], mc, n_clients=len(mc))
        drive(handle, phases["serve_mc_cached"], mc * 20, clients)

        deadline = time.monotonic() + duration
        burst = phases["serve_mixed_burst"]
        while time.monotonic() < deadline:
            wave = solver * 10 + mc * 10
            rng.shuffle(wave)
            drive(handle, burst, wave, clients)

        stats = requests.get(handle.url("/stats")).json()

    document = {
        "format": "repro-bench/1",
        "date": datetime.date.today().isoformat(),
        "machine": {
            "cpus": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "config": (
            f"repro serve in-process; {clients} clients, seed {SEED}, "
            f"mc_cap {mc_cap}, chaos={'on' if chaos else 'off'}"
        ),
        "results": [phase.row() for phase in phases.values()],
        "service_stats": stats,
    }

    failures: List[str] = []
    if stats["service"]["errors"]:
        failures.append(f"service reported {stats['service']['errors']} errors")
    if stats["jobs"]["simulations_failed"]:
        failures.append(
            f"{stats['jobs']['simulations_failed']} simulations failed"
        )
    if stats["jobs"]["simulations_started"] != len(mc):
        failures.append(
            "coalescing leak: "
            f"{stats['jobs']['simulations_started']} simulations for "
            f"{len(mc)} distinct Monte Carlo specs"
        )
    if chaos:
        if not stats["jobs"]["pool_breaks"]:
            failures.append("chaos run observed no worker-pool break")
        if crash_dir is not None and not os.listdir(crash_dir):
            failures.append("chaos worker never fired")
    document["failures"] = failures
    return document


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--duration",
        type=float,
        default=10.0,
        help="seconds of sustained mixed-burst load (default 10)",
    )
    parser.add_argument(
        "--clients", type=int, default=16, help="concurrent clients (default 16)"
    )
    parser.add_argument(
        "--mc-cap",
        type=int,
        default=512,
        help="Monte Carlo fleet cap per query (default 512)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="inject a worker-process kill mid-refinement (requires retry to pass)",
    )
    parser.add_argument(
        "--out", type=str, default=None, metavar="PATH", help="write the JSON document"
    )
    args = parser.parse_args(argv)

    document = run_bench(args.duration, args.clients, args.chaos, args.mc_cap)
    for row in document["results"]:
        latency = row["latency_ms"]
        print(
            f"{row['case']:>18}: {row['n_groups']:>5} queries "
            f"{row['groups_per_s']:>8.1f}/s  "
            f"p50 {latency['p50']:.2f} ms  p95 {latency['p95']:.2f} ms  "
            f"p99 {latency['p99']:.2f} ms  max {latency['max']:.2f} ms"
        )
    jobs = document["service_stats"]["jobs"]
    print(
        f"  simulations: {jobs['simulations_started']} started, "
        f"{jobs['coalesced']} coalesced, {jobs['shard_retries']} shard retries, "
        f"{jobs['pool_breaks']} pool breaks"
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    if document["failures"]:
        for failure in document["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
