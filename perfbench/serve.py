"""``serve_mix``: a read-heavy query mix against ``repro serve`` over HTTP.

The server runs as a subprocess (``repro serve --port 0 --cache-dir DIR
--cache-entries CACHE_ENTRIES``, every other setting at its default).
Two closed-loop clients in this process stand in for sweep tools that
wait for each answer before asking the next.

Reads (answered without simulating):

* solver-tier configs, answered from the solver memo;
* Monte Carlo cache hits at the precision they were stored at;
* the same entries at another confidence (cross-confidence rescaled hits).

The read key universe (:data:`READ_CONFIGS` x :data:`HORIZONS`) is three
times the in-memory cache bound, so about two reads in three load their
entry from disk.

Writes (simulate, then persist the entry to disk):

* cold refinements of configs the server has never seen;
* extends of a cached entry to a larger fleet (resume from the entry).

Writes are 4% of queries but, at ~40 ms against ~3 ms for a read, take
over 40% of the server's time, and they share the server's interpreter
lock with the reads.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import re
import signal
import statistics
import threading
import time
from typing import Dict, List, Optional, Tuple

import common
import probe
import tracing

#: In-memory cache bound given to the server.
CACHE_ENTRIES = 16
#: Monte Carlo read keys: configs x horizons (3 x CACHE_ENTRIES).
READ_CONFIGS = 16
HORIZONS = (8_760.0, 4_380.0, 2_190.0)
#: Groups stored per read entry, and simulated by one cold refinement.
READ_GROUPS = 256
COLD_GROUPS = 1_024
#: Groups one extend adds to its entry (as many as a cold refinement
#: simulates, so the two kinds of write take about as long).
EXTEND_STEP = 1_024
#: Entries each client extends (its own, so extends stay sequential).
EXTEND_KEYS_PER_CLIENT = 2
CLIENTS = 2
#: Query mix per block of 50 queries, shuffled within the block, so every
#: window sees the same proportions.  Writes are the last two (4%).
MIX = (("solver", 17), ("hit", 17), ("rescaled", 14), ("cold", 1), ("extend", 1))
READ_KINDS = ("solver", "hit", "rescaled")
EXPECTED_SOURCE = {
    "solver": "solver-cache",
    "hit": "cache",
    "rescaled": "cache-rescaled",
    "cold": "simulated",
    "extend": "cache-extend",
}


def _mc_config(op_scale: float):
    from repro.distributions import Weibull
    from repro.simulation.config import RaidGroupConfig

    return RaidGroupConfig(
        n_data=7,
        time_to_op=Weibull(shape=2.0, scale=op_scale),
        time_to_restore=Weibull(shape=2.0, scale=12.0, location=6.0),
        time_to_latent=Weibull(shape=1.0, scale=9_259.0),
        time_to_scrub=Weibull(shape=3.0, scale=168.0, location=6.0),
        mission_hours=8_760.0,
    )


def _solver_configs():
    from repro.distributions import Exponential
    from repro.simulation.config import RaidGroupConfig

    configs = [
        RaidGroupConfig.paper_base_case(scrub_characteristic_hours=s, mission_hours=8_760.0)
        for s in (12.0, 48.0, 168.0, 336.0)
    ]
    for mttf in (300_000.0, 500_000.0, 800_000.0, 1_200_000.0):
        configs.append(
            RaidGroupConfig(
                n_data=7,
                time_to_op=Exponential(mean=mttf),
                time_to_restore=Exponential(mean=12.0),
                mission_hours=8_760.0,
            )
        )
    return configs


def _precision(groups: int, confidence: float = 0.95) -> dict:
    # An unreachable width, so every run stops at exactly ``groups``.
    return {"rel_ci_width": 1e-9, "confidence": confidence, "max_groups": groups}


class _Client(threading.Thread):
    """One closed-loop client: query, wait for the answer, probe, repeat."""

    def __init__(self, bench: "ServeMix", index: int) -> None:
        super().__init__(name=f"perfbench-client-{index}", daemon=True)
        self.bench = bench
        self.index = index
        self.rng = random.Random(f"{bench.seed}:{index}")
        self.records: List[dict] = []
        self.probe_time = 0.0
        self.wall = 0.0
        self.fresh = 0
        self.extend_groups = {k: READ_GROUPS for k in bench.extend_keys[index]}
        self.deck: List[str] = []

    def next_query(self) -> Tuple[str, dict, Optional[str]]:
        bench = self.bench
        if not self.deck:
            self.deck = [kind for kind, count in MIX for _ in range(count)]
            self.rng.shuffle(self.deck)
        kind = self.deck.pop()
        if kind == "solver":
            i = self.rng.randrange(len(bench.solver_payloads))
            return kind, {"config": bench.solver_payloads[i]}, f"solver:{i}"
        if kind in ("hit", "rescaled"):
            config, horizon = self.rng.choice(bench.read_keys)
            confidence = 0.95 if kind == "hit" else 0.9
            payload = {
                "config": bench.read_payloads[config],
                "horizon_hours": horizon,
                "precision": _precision(READ_GROUPS, confidence),
            }
            return kind, payload, f"mc:{config}:{horizon}:{confidence}"
        if kind == "cold":
            self.fresh += 1
            scale = 150_000.0 + 1_000.0 * self.index + 0.5 * self.fresh + bench.seed % 997
            payload = {
                "config": bench.serialize(_mc_config(scale)),
                "precision": _precision(COLD_GROUPS),
            }
            return kind, payload, None
        key = self.rng.choice(sorted(self.extend_groups))
        self.extend_groups[key] += EXTEND_STEP
        payload = {
            "config": bench.extend_payloads[key],
            "precision": _precision(self.extend_groups[key]),
        }
        return kind, payload, None

    def run(self) -> None:
        bench = self.bench
        start = time.perf_counter()
        n = 0
        while not bench.stop.is_set():
            kind, payload, answer_key = self.next_query()
            n += 1
            payload["request_id"] = f"c{self.index}-{n}"
            sent = time.perf_counter()
            status, document = bench.post(payload)
            latency = time.perf_counter() - sent
            self.records.append(
                {
                    "kind": kind,
                    "latency": latency,
                    "sent": sent,
                    "status": status,
                    "document": document,
                    "answer_key": answer_key,
                    "groups": payload.get("precision", {}).get("max_groups"),
                }
            )
            self.probe_time += bench.probes.take()
        self.wall = time.perf_counter() - start


class ServeMix:
    """The ``serve_mix`` workload: set-up, timed window, checks, teardown."""

    def __init__(self, name: str, seed: int, workdir: str, tracer: Optional[tracing.Tracer]):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.server_spans = os.path.join(workdir, "server-spans.json") if tracer else None
        self.server = None
        self.port = 0
        self.setup_probes = probe.Sampler()
        self.probes = probe.Sampler()
        self.problems: List[str] = []
        self.answers: Dict[str, str] = {}
        self.refine_specs = 0
        self.stop = threading.Event()

    # -- plumbing -----------------------------------------------------
    def post(self, payload: dict) -> Tuple[int, dict]:
        body = json.dumps(payload).encode("utf-8")
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(
                "POST", "/query", body=body, headers={"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def get_stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    # -- set-up -------------------------------------------------------
    def setup(self) -> None:
        from repro.validation import config_to_dict

        self.serialize = config_to_dict
        self.solver_payloads = [config_to_dict(c) for c in _solver_configs()]
        self.read_payloads = [
            config_to_dict(_mc_config(100_000.0 + 5_000.0 * i)) for i in range(READ_CONFIGS)
        ]
        self.read_keys = [(i, h) for i in range(READ_CONFIGS) for h in HORIZONS]
        extend_configs = [
            config_to_dict(_mc_config(300_000.0 + 5_000.0 * i))
            for i in range(CLIENTS * EXTEND_KEYS_PER_CLIENT)
        ]
        self.extend_payloads = dict(enumerate(extend_configs))
        self.extend_keys = [
            list(range(c * EXTEND_KEYS_PER_CLIENT, (c + 1) * EXTEND_KEYS_PER_CLIENT))
            for c in range(CLIENTS)
        ]
        cache_dir = os.path.join(self.workdir, "cache")
        self.server = common.start_program(
            [
                "serve",
                "--port",
                "0",
                "--cache-dir",
                cache_dir,
                "--cache-entries",
                str(CACHE_ENTRIES),
            ],
            self.workdir,
            self.server_spans,
        )
        line = self.server.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"repro serve did not report its port: {line!r}")
        self.port = int(match.group(1))
        # Prime: every solver answer into the memo, every Monte Carlo read
        # and extend key into the disk cache.
        for i, config in enumerate(self.solver_payloads):
            self._prime({"config": config}, "solver", f"solver:{i}")
        for config, horizon in self.read_keys:
            payload = {
                "config": self.read_payloads[config],
                "horizon_hours": horizon,
                "precision": _precision(READ_GROUPS),
            }
            self._prime(payload, "simulated", f"mc:{config}:{horizon}:0.95")
        for config in extend_configs:
            self._prime({"config": config, "precision": _precision(READ_GROUPS)}, "simulated", None)

    def _prime(self, payload: dict, source: str, answer_key: Optional[str]) -> None:
        status, document = self.post(payload)
        if status != 200 or document.get("status") != "complete":
            raise RuntimeError(f"priming query failed: {status} {document}")
        if document.get("source") != source:
            raise RuntimeError(f"priming query answered by {document.get('source')!r}")
        if source == "simulated":
            self.refine_specs += 1
        self.setup_probes.take()
        if answer_key is not None:
            # A simulated answer also says how the run stopped; a cached
            # one does not.  The statistics must match byte for byte.
            answer = {
                k: v for k, v in document["answer"].items() if k not in ("converged", "stop_reason")
            }
            self.answers[answer_key] = json.dumps(answer, sort_keys=True)

    # -- timed window -------------------------------------------------
    def measure(self, seconds: float) -> Dict[str, object]:
        before = self.get_stats()
        clients = [_Client(self, i) for i in range(CLIENTS)]
        self.window_start = time.perf_counter()
        for client in clients:
            client.start()
        time.sleep(seconds)
        self.stop.set()
        for client in clients:
            client.join(timeout=150.0)
            if client.is_alive():
                raise RuntimeError(f"{client.name} did not finish its last query")
        self.window_end = time.perf_counter()
        after = self.get_stats()
        self.clients = clients
        self.stats = (before, after)
        self.server_rss = sum(
            common.peak_rss_kib(p) for p in [self.server.pid, *common.descendants(self.server.pid)]
        )

        records = [r for c in clients for r in c.records]
        self.records = records
        failed = self._check(records, after)
        answered = [r for r in records if r["status"] == 200]
        # Each query is normalized by the probes within a quarter second of
        # it; the busy time by the latency-weighted mean of those factors.
        factors = self.probes.local_factors(
            [(r["sent"] - 0.25, r["sent"] + r["latency"] + 0.25) for r in answered]
        )
        raw_total = sum(r["latency"] for r in answered)
        norm_total = sum(r["latency"] / f for r, f in zip(answered, factors))
        busy = sum(c.wall - c.probe_time for c in clients) / len(clients)
        simulated = after["jobs"]["groups_simulated"] - before["jobs"]["groups_simulated"]
        if not any(r["kind"] not in READ_KINDS for r in answered):
            self.problems.append("no refinement was answered in the window")

        def values(scale: List[float], busy: float) -> Dict[str, float]:
            reads = [r["latency"] / f for r, f in zip(answered, scale) if r["kind"] in READ_KINDS]
            refines = [
                r["latency"] / f for r, f in zip(answered, scale) if r["kind"] not in READ_KINDS
            ]
            return {
                "groups_per_s": simulated / busy,
                "queries_per_s": len(records) / busy,
                "read_p50_ms": probe.median(reads) * 1e3,
                "refine_p50_ms": probe.median(refines) * 1e3,
                "peak_rss_mb": self.server_rss / 1024.0,
                "latencies": {"read": reads, "refine": refines},
            }

        raw = values([1.0] * len(answered), busy)
        normalized = values(factors, busy * norm_total / raw_total)
        latencies = normalized.pop("latencies")
        raw.pop("latencies")
        return {
            "raw": raw,
            "normalized": normalized,
            "latencies_ms": {kind: [x * 1e3 for x in v] for kind, v in latencies.items()},
            "attempted": len(records),
            "failed": failed,
            "elapsed_s": self.window_end - self.window_start,
            "detail": (
                f"{len(latencies['read'])} reads, {len(latencies['refine'])} refinements, "
                f"{CLIENTS} clients"
            ),
        }

    def _check(self, records: List[dict], stats: dict) -> int:
        failed = 0
        for r in records:
            document = r["document"]
            if r["status"] != 200 or document.get("status") != "complete":
                failed += 1
                continue
            source = document.get("source")
            if source != EXPECTED_SOURCE[r["kind"]]:
                self.problems.append(f"a {r['kind']} query was answered by {source!r}")
            if r["kind"] in ("cold", "extend"):
                self.refine_specs += 1
                if document["answer"]["groups"] != r["groups"]:
                    self.problems.append(
                        f"a {r['kind']} refinement stopped at {document['answer']['groups']} "
                        f"groups, not {r['groups']}"
                    )
            key = r["answer_key"]
            if key is not None:
                answer = json.dumps(document["answer"], sort_keys=True)
                if key not in self.answers and r["kind"] == "rescaled":
                    self._check_rescaled(key, document["answer"])
                first = self.answers.setdefault(key, answer)
                if answer != first:
                    self.problems.append(f"repeated read {key} returned a different answer")
        if failed:
            self.problems.append(f"{failed} queries failed (non-200 or not complete)")
        jobs = stats["jobs"]
        if jobs["simulations_started"] != self.refine_specs:
            self.problems.append(
                f"/stats simulations_started={jobs['simulations_started']} but "
                f"{self.refine_specs} distinct refinement specs were sent"
            )
        if stats["service"]["errors"] or jobs["simulations_failed"]:
            self.problems.append(
                f"/stats errors={stats['service']['errors']} "
                f"simulations_failed={jobs['simulations_failed']}"
            )
        return failed

    def _check_rescaled(self, key: str, answer: dict) -> None:
        """A rescaled hit is the stored entry re-expressed at 90% confidence."""
        stored = json.loads(self.answers[key.rsplit(":", 1)[0] + ":0.95"])
        z = statistics.NormalDist().inv_cdf
        expected = z(0.95) / z(0.975)
        widths = [a["ddfs_per_1000_ci"][1] - a["ddfs_per_1000_ci"][0] for a in (answer, stored)]
        same = all(
            answer[k] == stored[k]
            for k in ("groups", "total_ddfs", "ddfs_per_1000_mission", "curve_ddfs_per_1000")
        )
        scaled = math.isclose(widths[0], expected * widths[1], rel_tol=1e-9, abs_tol=1e-12)
        if not (same and scaled and answer["confidence"] == 0.9):
            self.problems.append(f"rescaled read {key} is not the stored entry at 90% confidence")

    # -- teardown -----------------------------------------------------
    def teardown(self) -> None:
        self.stop.set()
        if self.server is not None:
            common.stop_program(self.server, signal_first=signal.SIGINT)

    # -- traced run ---------------------------------------------------
    def layers(self, measured: Dict[str, object]) -> Dict[str, object]:
        """Per-layer metrics from the server's spans, responses and /stats."""
        t0, t1 = self.window_start, self.window_end
        spans = tracing.load(self.server_spans)
        own = tracing.self_times(spans)
        inside = [i for i, s in enumerate(spans) if t0 <= s[1] <= t1]
        window = [spans[i] for i in inside]
        before, after = self.stats
        records = [r for r in self.records if r["status"] == 200]
        reads = [r for r in records if r["kind"] in READ_KINDS]
        refines = [r for r in records if r["kind"] not in READ_KINDS]

        def server_ms(rows):
            return probe.median([r["document"]["server_seconds"] * 1e3 for r in rows]) if rows else 0.0

        sources = [r["document"]["source"] for r in records]
        solver_answers = sum(s in ("solver", "solver-cache") for s in sources)
        lookups = tracing.by_name(window, "ResultCache.lookup")
        disk_loads = after["cache"]["disk_loads"] - before["cache"]["disk_loads"]
        submits = tracing.by_name(window, "JobManager.submit")
        submitted_at = {s[4][0]: s[2] for s in submits if s[4]}
        waits = [
            s[1] - submitted_at[s[4]]
            for s in tracing.by_name(window, "JobManager.run_simulation")
            if s[4] in submitted_at
        ]
        completed = after["jobs"]["simulations_completed"] - before["jobs"]["simulations_completed"]
        simulated = after["jobs"]["groups_simulated"] - before["jobs"]["groups_simulated"]
        puts = tracing.by_name(window, "ResultCache.put")
        writes = tracing.by_name(window, "atomic_write_text")
        shards = len(tracing.by_name(window, "simulate_groups_batch"))
        metrics = tracing.simulation_metrics(window, [own[i] for i in inside], simulated, shards)
        metrics.update(
            {
                "server.http_ms": probe.median(
                    [(r["latency"] - r["document"]["server_seconds"]) * 1e3 for r in records]
                ),
                "server.read_server_ms": server_ms(reads),
                "server.refine_server_ms": server_ms(refines),
                "server.solver_memo_hit_share": (
                    sources.count("solver-cache") / solver_answers if solver_answers else 0.0
                ),
                "validation.fingerprint_ms": tracing.mean_duration(window, "fingerprint") * 1e3,
                "solver.classify_ms": tracing.mean_duration(window, "classify") * 1e3,
                "cache.lookup_ms": tracing.mean_duration(window, "ResultCache.lookup") * 1e3,
                "cache.rebuild_ms": tracing.mean_duration(window, "RunCheckpoint.accumulator") * 1e3,
                "cache.disk_load_share": disk_loads / len(lookups) if lookups else 0.0,
                "cache.hit_share": (
                    sum(s[4] in ("hit", "hit_rescaled") for s in lookups) / len(lookups)
                    if lookups
                    else 0.0
                ),
                "cache.put_ms": tracing.mean_duration(window, "ResultCache.put") * 1e3,
                "cache.persist_kb": (
                    sum(s[4] for s in writes) / len(writes) / 1024.0 if writes and puts else 0.0
                ),
                "jobs.queue_wait_ms": (sum(waits) / len(waits) * 1e3) if waits else 0.0,
                "jobs.simulate_ms": tracing.mean_duration(window, "JobManager.run_simulation") * 1e3,
                "jobs.coalesced_share": (
                    sum(bool(s[4] and s[4][1]) for s in submits) / len(submits) if submits else 0.0
                ),
                "jobs.groups_per_refine": simulated / completed if completed else 0.0,
            }
        )
        elapsed = measured["elapsed_s"]
        shares: Dict[str, float] = {}
        for i in inside:
            layer = tracing.LAYER_OF.get(spans[i][0], spans[i][0])
            shares["server: " + layer] = shares.get("server: " + layer, 0.0) + own[i] / elapsed
        return {"metrics": metrics, "self_share": shares}
