"""Fleet workloads: the Table 2 base case through ``run_streaming``.

Every fleet workload answers two kinds of query for the length of the
timed window:

* a **refinement** is one ``repro simulate``-shaped fleet run of
  :data:`FLEET_GROUPS` groups on the batch engine (a fresh seed per run),
  executed serially with a checkpoint after every shard
  (``fleet_serial``), through the spawn pool with ``n_jobs=2``
  (``fleet_pool``), or over one ``repro worker`` subprocess dialled into a
  loopback :class:`~repro.simulation.remote.RemoteWorkerHub`
  (``fleet_remote``);
* a **read** answers a finished run from its checkpoint without
  simulating (``run_streaming(resume_from=...)`` on a complete
  checkpoint, i.e. ``repro simulate --resume`` of a finished run).  Reads
  run from the refinement's observer every :data:`READ_EVERY` shards;
  their time, like the probes', is left out of the refinement's.

Pool start-up and the hub's per-run handshake are inside each
refinement, because users pay them on every run.
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Dict, List, Optional

import common
import probe
import tracing

#: Groups per refinement (128 shards of 512).
FLEET_GROUPS = 65_536
#: Shards of run 0 simulated serially at set-up: the warm-up, the
#: reference the parallel runs must match, and the checkpoint reads use.
PREFIX_SHARDS = 16
#: Refinements in a window, however slow the machine: with one, the
#: window's median refinement is a single sample.
MIN_RUNS = 2
#: A read every this many committed shards, from the run observer, so the
#: reads sample the whole window rather than a few moments of it.
READ_EVERY = 4

#: Table 2 base case, 1,048,576 groups, batch engine, seed 424242 (a seed
#: no workload uses): DDFs per 1,000 groups over the 10-year mission, its
#: standard error, and the DDF counts by pathway.
REFERENCE_RATE = 136.34109497070312
REFERENCE_RATE_SE = 0.3599286993933189
REFERENCE_DDFS = 142_964
REFERENCE_DOUBLE_OP = 230
#: Standard errors a run may stray from the reference before it fails.
MAX_Z = 5.0

MODES = {
    "fleet_serial": {"n_jobs": 1, "remote": False, "checkpoint": True},
    "fleet_pool": {"n_jobs": 2, "remote": False, "checkpoint": False},
    "fleet_remote": {"n_jobs": 0, "remote": True, "checkpoint": False},
}


def run_seed(seed: int, index: int) -> int:
    return seed * 1_000 + index


def check_statistics(accumulator) -> List[str]:
    """DDF rate and pathway split against the reference, in standard errors."""
    from repro.simulation.raid_simulator import DDFType

    problems = []
    rate = accumulator.ddfs_per_thousand()
    se = math.hypot(accumulator.ddf_moments.stderr() * 1000.0, REFERENCE_RATE_SE)
    if abs(rate - REFERENCE_RATE) > MAX_Z * se:
        problems.append(
            f"DDFs per 1000 groups {rate:.3f} is more than {MAX_Z:g} SE "
            f"({se:.3f}) from the reference {REFERENCE_RATE:.3f}"
        )
    total = accumulator.total_ddfs
    double = accumulator.pathway[DDFType.DOUBLE_OP]
    latent = accumulator.pathway[DDFType.LATENT_THEN_OP]
    if double + latent != total:
        problems.append(f"pathways {double}+{latent} do not add up to {total} DDFs")
    p = REFERENCE_DOUBLE_OP / REFERENCE_DDFS
    expected = p * total
    spread = math.sqrt(total * p * (1 - p) + (total / REFERENCE_DDFS) ** 2 * REFERENCE_DOUBLE_OP)
    if abs(double - expected) > MAX_Z * spread + 1.0:
        problems.append(
            f"DOUBLE_OP count {double} of {total} DDFs is more than {MAX_Z:g} SE "
            f"from the reference share {p:.5f}"
        )
    return problems


class Fleet:
    """One fleet workload: set-up, timed window, checks, teardown."""

    def __init__(self, name: str, seed: int, workdir: str, tracer: Optional[tracing.Tracer]):
        self.mode = MODES[name]
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.worker_spans = os.path.join(workdir, "worker-spans.json") if tracer else None
        self.hub = None
        self.worker = None
        self.setup_probes = probe.Sampler()
        self.probes = probe.Sampler(tracer)
        self.problems: List[str] = []

    # -- set-up -------------------------------------------------------
    def setup(self) -> None:
        from repro.simulation import RaidGroupConfig
        from repro.simulation.monte_carlo import MonteCarloRunner

        if self.mode["remote"]:
            from repro.simulation.remote import RemoteWorkerHub

            # The worker boots on the other CPU during the set-up run below.
            self.hub = RemoteWorkerHub(bind="127.0.0.1:0")
            self.worker = common.start_program(
                ["worker", "--connect", self.hub.address, "--max-reconnects", "0"],
                self.workdir,
                self.worker_spans,
            )
        self.config = RaidGroupConfig.paper_base_case()
        self.read_path = os.path.join(self.workdir, "setup.ckpt")
        events: list = []

        def observe(event):
            events.append(event)
            self.setup_probes.take()

        prefix = MonteCarloRunner(
            self.config, n_groups=FLEET_GROUPS, seed=run_seed(self.seed, 0), engine="batch"
        ).run_streaming(
            checkpoint_path=self.read_path,
            stop_after_shards=PREFIX_SHARDS,
            observers=(observe,),
        )
        self.prefix_ddfs = [e.total_ddfs for e in events]
        self.read_runner = MonteCarloRunner(
            self.config,
            n_groups=prefix.groups,
            seed=run_seed(self.seed, 0),
            engine="batch",
        )
        self.read_answer = self._answer(prefix)
        if self.hub is not None:
            deadline = time.monotonic() + 60.0
            while not self.hub.wait_for_workers(1, timeout=0.05):
                if time.monotonic() > deadline or self.worker.poll() is not None:
                    raise RuntimeError("the repro worker did not connect within 60 s")
                # The pause between probes leaves the hub's threads the
                # interpreter lock for the handshake.
                self.setup_probes.take(overlapped=True)
            # Warm the worker up, so the window's first refinement does not
            # pay its first-shard costs.
            MonteCarloRunner(
                self.config,
                n_groups=2 * 512,
                seed=run_seed(self.seed, 999),
                n_jobs=0,
                engine="batch",
            ).run_streaming(workers=self.hub)

    @staticmethod
    def _answer(streaming) -> str:
        return json.dumps(
            {"summary": streaming.summary(), "ci": streaming.ddfs_per_thousand_ci()},
            sort_keys=True,
        )

    # -- timed window -------------------------------------------------
    def measure(self, seconds: float) -> Dict[str, object]:
        from repro.simulation.monte_carlo import MonteCarloRunner

        common.reset_peak_rss()
        window_start = self.window_start = time.perf_counter()
        self.runs: List[dict] = []
        self.read_walls: List[float] = []
        self.read_spans: List[tuple] = []
        child_rss = 0
        checkpoint = os.path.join(self.workdir, "run.ckpt") if self.mode["checkpoint"] else None
        deadline = time.perf_counter() + seconds
        while True:
            index = len(self.runs)
            runner = MonteCarloRunner(
                self.config,
                n_groups=FLEET_GROUPS,
                seed=run_seed(self.seed, index),
                n_jobs=self.mode["n_jobs"],
                engine="batch",
            )
            events: list = []
            arrivals: List[float] = []
            paused = [0.0]

            def observe(event, events=events, arrivals=arrivals, paused=paused):
                nonlocal child_rss
                arrivals.append(time.perf_counter())
                events.append(event)
                if event.done:
                    kids = common.descendants(os.getpid())
                    child_rss = max(child_rss, sum(common.peak_rss_kib(p) for p in kids))
                if event.shards_completed % READ_EVERY == 0:
                    paused[0] += self._read()
                paused[0] += self.probes.take()

            start = time.perf_counter()
            streaming = runner.run_streaming(
                checkpoint_path=checkpoint,
                observers=(observe,),
                workers=self.hub,
            )
            end = time.perf_counter()
            wall = end - start - paused[0]
            self._check_run(index, streaming, events)
            self.runs.append(
                {
                    "wall": wall,
                    "start": start,
                    "end": end,
                    "groups": streaming.groups,
                    "events": events,
                    "arrivals": arrivals,
                    "executor": streaming.executor_stats or {},
                }
            )
            if len(self.runs) >= MIN_RUNS and deadline - time.perf_counter() < wall / 2:
                break
        runs = self.runs
        groups = sum(r["groups"] for r in runs)
        shards = sum(len(r["events"]) for r in runs)
        retries = sum(e.shard_retries for r in runs for e in r["events"])
        breaks = sum(int(r["executor"].get("pool_breaks", 0)) for r in runs)
        run_walls = [r["wall"] for r in runs]
        # Each refinement is normalized by the probes taken during it, and
        # each read by the probes of the shards around it.
        run_factors = self.probes.local_factors([(r["start"], r["end"]) for r in runs])
        read_factors = self.probes.local_factors(self.read_spans)
        norm_runs = [w / f for w, f in zip(run_walls, run_factors)]
        norm_reads = [w / f for w, f in zip(self.read_walls, read_factors)]
        queries = len(runs) + len(self.read_walls)

        def values(refines: List[float], reads: List[float]) -> Dict[str, float]:
            return {
                "groups_per_s": groups / sum(refines),
                "queries_per_s": queries / (sum(refines) + sum(reads)),
                "read_p50_ms": probe.median(reads) * 1e3,
                "refine_p50_ms": probe.median(refines) * 1e3,
                "peak_rss_mb": (common.peak_rss_kib(os.getpid()) + child_rss) / 1024.0,
            }

        return {
            "raw": values(run_walls, self.read_walls),
            "normalized": values(norm_runs, norm_reads),
            "latencies_ms": {
                "read": [w * 1e3 for w in norm_reads],
                "refine": [w * 1e3 for w in norm_runs],
            },
            "attempted": shards + len(self.read_walls),
            "failed": retries + breaks,
            "elapsed_s": time.perf_counter() - window_start,
            "detail": f"{len(runs)} runs x {FLEET_GROUPS} groups, {len(self.read_walls)} reads",
        }

    def _read(self) -> float:
        """Answer the set-up run from its checkpoint; return the time taken."""
        record = self.tracer.open("bench.read") if self.tracer else None
        start = time.perf_counter()
        answer = self._answer(self.read_runner.run_streaming(resume_from=self.read_path))
        end = time.perf_counter()
        if record is not None:
            self.tracer.close(record)
        self.read_walls.append(end - start)
        self.read_spans.append((start, end))
        if answer != self.read_answer:
            self.problems.append("a checkpoint read returned a different answer")
        return end - start

    def _check_run(self, index: int, streaming, events: list) -> None:
        label = f"run {index}"
        if streaming.stop_reason != "fixed" or streaming.groups != FLEET_GROUPS:
            self.problems.append(
                f"{label} stopped with {streaming.stop_reason!r} at {streaming.groups} groups"
            )
        self.problems.extend(f"{label}: {p}" for p in check_statistics(streaming.accumulator))
        if index == 0:
            seen = [e.total_ddfs for e in events[: len(self.prefix_ddfs)]]
            if seen != self.prefix_ddfs:
                self.problems.append(
                    f"{label} diverged from the serial run of the same seed on the "
                    f"first {len(self.prefix_ddfs)} shards: {seen} != {self.prefix_ddfs}"
                )

    # -- teardown -----------------------------------------------------
    def teardown(self) -> None:
        if self.hub is not None:
            self.hub.close()  # the worker exits once its coordinator is gone
        if self.worker is not None:
            common.stop_program(self.worker)

    # -- traced run ---------------------------------------------------
    def layers(self, measured: Dict[str, object]) -> Dict[str, object]:
        """Per-layer metrics from this process's spans and the worker's.

        Only spans that start inside a refinement and outside the reads
        made from its observer count towards the simulation layers.
        """
        runs = self.runs
        intervals = [(r["start"], r["end"]) for r in runs]

        def in_runs(spans: List[list]) -> List[int]:
            reads = tracing.inside(spans, "bench.read")
            return [
                i
                for i, s in enumerate(spans)
                if not reads[i] and any(a <= s[1] <= b for a, b in intervals)
            ]

        spans = self.tracer.spans
        worker = tracing.load(self.worker_spans) if self.mode["remote"] else []
        own, worker_own = tracing.self_times(spans), tracing.self_times(worker)
        picked = in_runs(spans)
        worker_picked = in_runs(worker)
        chosen = [spans[i] for i in picked] + [worker[i] for i in worker_picked]
        chosen_own = [own[i] for i in picked] + [worker_own[i] for i in worker_picked]
        coordinator = [spans[i] for i in picked]
        events = [e for r in runs for e in r["events"]]
        shards = len(events)
        groups = sum(r["groups"] for r in runs)
        run_time = sum(r["wall"] for r in runs)
        worker_seconds = sum(e.shard_seconds for e in events)
        remote = self.mode["remote"]
        starts = [r["arrivals"][0] - r["start"] - r["events"][0].shard_seconds for r in runs]
        rtt_over = [
            row["mean_rtt_seconds"] - row["wall_seconds"] / row["shards_committed"]
            for r in runs
            for row in r["executor"].get("workers", {}).values()
            if row["shards_committed"] and row["mean_rtt_seconds"]
        ]
        frames = [
            s for s in (worker[i] for i in worker_picked) if s[0] == "send_frame" and s[4][0] == "result"
        ]
        encode = sum(
            worker_own[i] for i in worker_picked if worker[i][0] == "chronology_to_dict"
        ) + sum(s[2] - s[1] for s in frames)
        per_shard = 1e3 / shards
        metrics = tracing.simulation_metrics(chosen, chosen_own, groups, shards)
        metrics.update(
            {
                "executor.pool_start_s": probe.median(starts) if self.mode["n_jobs"] > 1 else 0.0,
                "executor.worker_ms_per_shard": worker_seconds * per_shard,
                "executor.worker_busy_share": (
                    0.0 if remote else worker_seconds / (self.mode["n_jobs"] * run_time)
                ),
                "executor.commit_lag_ms": sum(e.commit_lag_seconds for e in events) * per_shard,
                "executor.queue_depth_mean": sum(e.queue_depth for e in events) / shards,
                "executor.shard_retries": float(sum(e.shard_retries for e in events)),
                "remote.encode_ms_per_shard": encode * per_shard,
                "remote.decode_ms_per_shard": sum(
                    s[2] - s[1] for s in coordinator if s[0] == "chronology_from_dict"
                )
                * per_shard,
                "remote.frame_kb_per_shard": (
                    sum(s[4][1] for s in frames) / len(frames) / 1024.0 if frames else 0.0
                ),
                "remote.rtt_overhead_ms_per_shard": (
                    sum(rtt_over) / len(rtt_over) * 1e3 if rtt_over else 0.0
                ),
                "remote.worker_busy_share": worker_seconds / run_time if remote else 0.0,
            }
        )
        elapsed = measured["elapsed_s"]
        shares: Dict[str, float] = {}
        for label, rows, seconds in (("", spans, own), ("worker: ", worker, worker_own)):
            window = [i for i, s in enumerate(rows) if s[1] >= self.window_start]
            picked_rows = [rows[i] for i in window]
            picked_own = [seconds[i] for i in window]
            for layer, value in tracing.layer_self_seconds(picked_rows, picked_own).items():
                shares[label + layer] = value / elapsed
        return {"metrics": metrics, "self_share": shares}
