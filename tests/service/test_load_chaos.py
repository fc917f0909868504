"""Chaos/load harness for the query service.

Three fault axes, all deterministic under the fixed service seed:

* **Worker kills** — a shard worker process is ``os._exit(1)``-killed
  mid-refinement; the shard executor reseeds the lost shard from its
  index and retries, so the query completes with statistics
  bit-identical to an unkilled run (and ``/stats`` shows the break).
* **Bursty storms** — waves of concurrent duplicate-heavy queries; the
  coalescing and cache counters must account for every request, with
  exactly one simulation per distinct Monte Carlo query spec.
* **Sustained duplicate-heavy load** (slow tier) — a larger mixed storm
  driven the way ``benchmarks/bench_serve.py`` drives it nightly.
"""

import functools
import json
import os
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

requests = pytest.importorskip("requests")

from repro.distributions import Weibull
from repro.service import ReliabilityService, ResultCache, ServiceThread
from repro.simulation.config import RaidGroupConfig
from repro.simulation.executor import _run_shard_task
from repro.validation import config_to_dict

SHARD = 32
SEED = 20_260_808


def crash_once_worker(crash_dir, victim, task):
    """Kill the worker process on shard ``victim``'s first attempt.

    ``crash_dir`` counts attempts across worker processes.  Bind both
    with :func:`functools.partial`: a warm pool's workers were spawned
    before the test, so they never see environment variables it sets.
    """
    if task.index == victim:
        attempts = len(os.listdir(crash_dir))
        if attempts < 1:
            open(os.path.join(crash_dir, f"attempt{attempts}"), "w").close()
            os._exit(1)
    return _run_shard_task(task)


def mc_config(op_scale: float = 200_000.0) -> RaidGroupConfig:
    return RaidGroupConfig(
        n_data=7,
        time_to_op=Weibull(shape=2.0, scale=op_scale),
        time_to_restore=Weibull(shape=2.0, scale=12.0, location=6.0),
        time_to_latent=Weibull(shape=1.0, scale=9_259.0),
        time_to_scrub=Weibull(shape=3.0, scale=168.0, location=6.0),
        mission_hours=8_760.0,
    )


def mc_query(config: RaidGroupConfig, max_groups: int, **extra) -> dict:
    query = {
        "config": config_to_dict(config),
        "precision": {
            "rel_ci_width": 1e-9,
            "min_groups": SHARD,
            "max_groups": max_groups,
        },
    }
    query.update(extra)
    return query


def make_service(**overrides) -> ReliabilityService:
    kwargs = dict(
        max_workers=2,
        engine="batch",
        n_jobs=1,
        seed=SEED,
        shard_size=SHARD,
        max_groups=4_096,
    )
    kwargs.update(overrides)
    return ReliabilityService(cache=ResultCache(), **kwargs)


def statistics(answer: dict) -> str:
    return json.dumps(
        {k: v for k, v in answer.items() if k not in ("converged", "stop_reason")},
        sort_keys=True,
    )


class TestWorkerKills:
    """Acceptance (d): injected worker kills complete via retry."""

    def reference_answer(self, query: dict) -> dict:
        with ServiceThread(make_service(n_jobs=2)) as h:
            return requests.post(h.url("/query"), json=query).json()

    def test_kill_during_cold_refinement(self, tmp_path):
        crash_dir = tmp_path / "crashes"
        crash_dir.mkdir()
        query = mc_query(mc_config(), max_groups=4 * SHARD)
        reference = self.reference_answer(query)

        service = make_service(
            n_jobs=2,
            shard_worker=functools.partial(crash_once_worker, str(crash_dir), 1),
        )
        with ServiceThread(service) as h:
            survived = requests.post(h.url("/query"), json=query).json()
            stats = requests.get(h.url("/stats")).json()

        assert survived["status"] == "complete"
        assert statistics(survived["answer"]) == statistics(reference["answer"])
        assert stats["jobs"]["pool_breaks"] >= 1
        assert stats["jobs"]["shard_retries"] >= 1
        assert stats["jobs"]["simulations_failed"] == 0
        assert len(os.listdir(crash_dir)) == 1  # crashed exactly once

    def test_kill_mid_extension(self, tmp_path):
        """The worker dies on a shard only the cache *extension* runs;
        the extension still lands bit-identical to an unkilled cold run
        of the full fleet."""
        crash_dir = tmp_path / "crashes"
        crash_dir.mkdir()
        cold = mc_query(mc_config(), max_groups=2 * SHARD)  # shards 0..1
        upgrade = mc_query(mc_config(), max_groups=6 * SHARD)  # extends 2..5
        reference = self.reference_answer(upgrade)

        # Shard 3 of 0..5: only the extension runs it.
        service = make_service(
            n_jobs=2,
            shard_worker=functools.partial(crash_once_worker, str(crash_dir), 3),
        )
        with ServiceThread(service) as h:
            first = requests.post(h.url("/query"), json=cold).json()
            assert first["source"] == "simulated"
            second = requests.post(h.url("/query"), json=upgrade).json()
            stats = requests.get(h.url("/stats")).json()

        assert second["source"] == "cache-extend"
        assert second["answer"]["groups"] == 6 * SHARD
        assert statistics(second["answer"]) == statistics(reference["answer"])
        assert stats["jobs"]["pool_breaks"] >= 1
        assert stats["jobs"]["simulations_failed"] == 0
        assert len(os.listdir(crash_dir)) == 1


class TestBurstyStorm:
    def storm(self, handle, payloads, n_clients: int):
        session_local = threading.local()

        def post(payload):
            client = getattr(session_local, "s", None)
            if client is None:
                client = session_local.s = requests.Session()
            r = client.post(handle.url("/query"), json=payload)
            assert r.status_code == 200
            return r.json()

        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            return list(pool.map(post, payloads))

    def test_waves_of_duplicates_coalesce(self):
        """Three back-to-back waves: every request is answered, the
        counters account for all of them, and exactly one simulation ran
        per distinct Monte Carlo spec."""
        service = make_service()
        solver_payload = {
            "config": config_to_dict(
                RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
            )
        }
        mc_a = mc_query(mc_config(200_000.0), max_groups=8 * SHARD)
        mc_b = mc_query(mc_config(150_000.0), max_groups=8 * SHARD)
        mc_c = mc_query(mc_config(120_000.0), max_groups=8 * SHARD)
        rng = random.Random(7)

        with ServiceThread(service) as h:
            wave1 = [solver_payload] * 20 + [mc_a] * 15 + [mc_b] * 15
            rng.shuffle(wave1)
            responses = self.storm(h, wave1, n_clients=25)

            # Second wave fires while nothing is in flight anymore plus a
            # cold config; duplicates of a/b must be pure cache hits now.
            wave2 = [mc_a] * 10 + [mc_b] * 10 + [mc_c] * 10 + [solver_payload] * 10
            rng.shuffle(wave2)
            responses += self.storm(h, wave2, n_clients=20)

            # Non-blocking probes never error and never start new work.
            wave3 = [dict(mc_a, wait=False)] * 10
            responses += self.storm(h, wave3, n_clients=10)
            stats = requests.get(h.url("/stats")).json()

        assert len(responses) == 100
        assert all(
            r["status"] in ("complete", "refining", "pending") for r in responses
        )
        assert stats["service"]["errors"] == 0
        assert stats["service"]["requests"] == 100
        # One simulation per distinct MC spec, ever.
        assert stats["jobs"]["simulations_started"] == 3
        assert stats["jobs"]["simulations_completed"] == 3
        assert stats["jobs"]["simulations_failed"] == 0
        assert stats["jobs"]["groups_simulated"] == 3 * 8 * SHARD
        # Every request is attributed to exactly one source.
        by_source = stats["service"]["by_source"]
        assert sum(slot["count"] for slot in by_source.values()) == 100
        assert by_source["simulated"]["count"] == 3
        # Wave-2/3 duplicates came from the cache, not new jobs.
        assert by_source["cache"]["count"] >= 20

    @pytest.mark.slow
    def test_sustained_storm_with_worker_kills(self, tmp_path):
        """The nightly shape: hundreds of mixed queries across several
        waves with a worker kill injected mid-run; no errors, ledgers
        balance, all Monte Carlo work coalesces."""
        crash_dir = tmp_path / "crashes"
        crash_dir.mkdir()
        service = make_service(
            n_jobs=2,
            shard_worker=functools.partial(crash_once_worker, str(crash_dir), 2),
            max_workers=3,
        )
        solver_payloads = [
            {
                "config": config_to_dict(
                    RaidGroupConfig.paper_base_case(
                        scrub_characteristic_hours=s, mission_hours=8_760.0
                    )
                )
            }
            for s in (12.0, 48.0, 168.0, 336.0)
        ]
        mc_payloads = [
            mc_query(mc_config(scale), max_groups=8 * SHARD)
            for scale in (200_000.0, 150_000.0, 120_000.0, 100_000.0)
        ]
        rng = random.Random(99)
        total = 0
        with ServiceThread(service) as h:
            for payload in solver_payloads:
                requests.post(h.url("/query"), json=payload)
                total += 1
            for _ in range(4):
                wave = []
                for payload in solver_payloads:
                    wave += [payload] * 15
                for payload in mc_payloads:
                    wave += [payload] * 10
                rng.shuffle(wave)
                responses = self.storm(h, wave, n_clients=32)
                total += len(wave)
                assert all(r["status"] == "complete" for r in responses)
            stats = requests.get(h.url("/stats")).json()

        assert stats["service"]["errors"] == 0
        assert stats["service"]["requests"] == total
        assert stats["jobs"]["simulations_started"] == len(mc_payloads)
        assert stats["jobs"]["simulations_failed"] == 0
        assert stats["jobs"]["pool_breaks"] >= 1
        by_source = stats["service"]["by_source"]
        assert sum(slot["count"] for slot in by_source.values()) == total
