"""Mergeable result cache: extend ≡ cold, and integrity at the disk edge.

The cache's load-bearing promise is that *extending* a cached
accumulator checkpoint to a tighter precision is indistinguishable from
having run the tighter fleet cold — bit-identical statistics, both
engines.  The property tests pin that through the service's own
simulation path (derived seed, canonical time grid, shard cursor).

The disk edge gets the adversarial treatment: a checkpoint file that was
moved, renamed, or hand-edited must be rejected with an actionable error
and treated as a miss, never merged into the wrong design's statistics.
"""

import dataclasses
import json
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import Weibull
from repro.exceptions import SimulationError
from repro.service import (
    CacheEntry,
    CacheKey,
    JobManager,
    QuerySpec,
    ReliabilityService,
    ResultCache,
)
from repro.service.jobs import derive_seed, service_time_grid
from repro.simulation.checkpoint import (
    config_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from repro.simulation.config import RaidGroupConfig
from repro.simulation.streaming import Precision, normal_two_sided_z
from repro.validation import config_to_dict, fingerprint

SHARD = 16


def mc_config(mission_hours: float = 8_760.0) -> RaidGroupConfig:
    """A config the classifier routes to Monte Carlo (strong wear-out:
    Weibull shape 2 puts the hazard-variation ratio far over the
    transition-matrix gate) that both engines support."""
    return RaidGroupConfig(
        n_data=7,
        time_to_op=Weibull(shape=2.0, scale=200_000.0),
        time_to_restore=Weibull(shape=2.0, scale=12.0, location=6.0),
        time_to_latent=Weibull(shape=1.0, scale=9_259.0),
        time_to_scrub=Weibull(shape=3.0, scale=168.0, location=6.0),
        mission_hours=mission_hours,
    )


CONFIG = mc_config()

#: The key a JobManager with seed 0, the auto engine and SHARD-group
#: shards stores CONFIG's runs under.
KEY = CacheKey(
    fingerprint(CONFIG),
    CONFIG.mission_hours,
    "batch",
    derive_seed(0, fingerprint(CONFIG)),
    SHARD,
)


def make_spec(total_groups: int, jobs: JobManager) -> QuerySpec:
    precision = Precision(
        rel_ci_width=1e-9,  # unattainable: the run always fills max_groups
        confidence=0.95,
        max_groups=total_groups,
        min_groups=SHARD,
    )
    return QuerySpec(CONFIG, fingerprint(CONFIG), CONFIG.mission_hours, precision)


def canonical(accumulator) -> str:
    return json.dumps(accumulator.to_dict(), sort_keys=True)


class TestExtendEqualsCold:
    @pytest.mark.parametrize("engine", ["batch", "event"])
    @given(
        k=st.integers(min_value=1, max_value=3),
        extra=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=8, deadline=None)
    def test_cache_extend_is_bit_identical_to_cold_run(self, engine, k, extra, seed):
        """Resume a k-shard cache entry to m total shards == cold m-shard
        run: identical serialized accumulators, identical cursors."""
        m = k + extra
        jobs = JobManager(
            ResultCache(), max_workers=1, engine=engine, seed=seed, shard_size=SHARD
        )
        try:
            # Cold run truncated at k shards becomes the cache entry.
            partial_spec = make_spec(m * SHARD, jobs)
            partial = jobs.run_simulation(partial_spec, stop_after_shards=k)
            entry = jobs.entry_from_result(partial_spec, partial)
            assert entry.groups == k * SHARD

            extended = jobs.run_simulation(
                partial_spec, resume_checkpoint=entry.checkpoint
            )
            cold = jobs.run_simulation(make_spec(m * SHARD, jobs))

            assert extended.groups == cold.groups == m * SHARD
            assert extended.shards_run == cold.shards_run
            assert canonical(extended.accumulator) == canonical(cold.accumulator)
        finally:
            jobs.shutdown()

    def test_derived_seed_is_stable_and_config_sensitive(self):
        fp = fingerprint(CONFIG)
        assert derive_seed(7, fp) == derive_seed(7, fp)
        assert derive_seed(7, fp) != derive_seed(8, fp)
        assert derive_seed(7, fp) != derive_seed(7, fingerprint(CONFIG.as_raid6()))

    def test_time_grid_is_a_pure_function_of_horizon(self):
        a = service_time_grid(8_760.0)
        b = service_time_grid(8_760.0)
        assert a.tolist() == b.tolist()
        assert a[0] > 0.0 and a[-1] == 8_760.0
        assert service_time_grid(17_520.0).tolist() != a.tolist()


class TestLookupSemantics:
    def entry(self, groups: int, width: float, confidence: float = 0.95) -> CacheEntry:
        jobs = JobManager(ResultCache(), max_workers=1, seed=0, shard_size=SHARD)
        try:
            spec = make_spec(groups, jobs)
            streaming = jobs.run_simulation(spec)
            built = jobs.entry_from_result(spec, streaming)
        finally:
            jobs.shutdown()
        built.confidence = confidence
        built.achieved_rel_ci_width = width
        return built

    def test_hit_extend_miss(self):
        cache = ResultCache()
        key = KEY
        loose = Precision(rel_ci_width=0.5, max_groups=10_000)
        tight = Precision(rel_ci_width=0.05, max_groups=10_000)

        assert cache.lookup(key, loose) == ("miss", None)
        cache.put(self.entry(SHARD, width=0.3))
        status, entry = cache.lookup(key, loose)
        assert status == "hit" and entry is not None
        status, entry = cache.lookup(key, tight)
        assert status == "extend" and entry is not None

    def test_capped_entry_hits_instead_of_noop_extending(self):
        cache = ResultCache()
        key = KEY
        cache.put(self.entry(2 * SHARD, width=float("inf")))
        capped = Precision(rel_ci_width=0.05, max_groups=2 * SHARD)
        status, _ = cache.lookup(key, capped)
        assert status == "hit"

    def test_put_never_loosens(self):
        cache = ResultCache()
        big = self.entry(2 * SHARD, width=0.2)
        small = self.entry(SHARD, width=0.9)
        cache.put(big)
        cache.put(small)  # racing smaller run must not clobber
        _, entry = cache.lookup(big.key, Precision(rel_ci_width=1e-9))
        assert entry is not None and entry.groups == 2 * SHARD

    def test_rescaled_width_is_the_exact_z_ratio(self):
        entry = self.entry(SHARD, width=0.3, confidence=0.99)
        expected = 0.3 * (
            normal_two_sided_z(0.95) / normal_two_sided_z(0.99)
        )
        assert entry.rescaled_width(0.95) == pytest.approx(expected, rel=1e-12)
        # Rescaling to the entry's own confidence is the identity.
        assert entry.rescaled_width(0.99) == pytest.approx(0.3, rel=1e-12)

    def test_cross_confidence_lookup_is_a_rescaled_hit(self):
        """A 99%-confidence entry answers a looser 95% query without
        resimulation: its width shrinks under the smaller z."""
        cache = ResultCache()
        key = KEY
        cache.put(self.entry(SHARD, width=0.3, confidence=0.99))

        fits = Precision(rel_ci_width=0.25, confidence=0.95, max_groups=10_000)
        status, entry = cache.lookup(key, fits)
        assert status == "hit_rescaled" and entry is not None

        too_tight = Precision(
            rel_ci_width=0.05, confidence=0.95, max_groups=10_000
        )
        status, entry = cache.lookup(key, too_tight)
        assert status == "extend" and entry is not None

    def test_raising_confidence_extends(self):
        """The rescale cuts both ways: a 90% entry queried at 99% grows
        wider and must extend, not serve a loosened interval."""
        cache = ResultCache()
        key = KEY
        cache.put(self.entry(SHARD, width=0.3, confidence=0.90))
        query = Precision(rel_ci_width=0.3, confidence=0.99, max_groups=10_000)
        status, _ = cache.lookup(key, query)
        assert status == "extend"

    def test_same_confidence_stays_a_plain_hit(self):
        cache = ResultCache()
        key = KEY
        cache.put(self.entry(SHARD, width=0.3, confidence=0.95))
        loose = Precision(rel_ci_width=0.5, confidence=0.95, max_groups=10_000)
        status, _ = cache.lookup(key, loose)
        assert status == "hit"

    def test_capped_cross_confidence_entry_is_a_rescaled_hit(self):
        """Regression: a ``max_groups``-capped entry computed at a
        *different* confidence must be served as ``hit_rescaled``, never
        as a plain ``hit`` — the stored interval carries the wrong ``z``
        and would hand the caller a 99% interval labelled 95%."""
        cache = ResultCache()
        key = KEY
        cache.put(self.entry(2 * SHARD, width=float("inf"), confidence=0.99))
        capped = Precision(
            rel_ci_width=0.05, confidence=0.95, max_groups=2 * SHARD
        )
        status, entry = cache.lookup(key, capped)
        assert status == "hit_rescaled" and entry is not None
        # Raising max_groups removes the cap: an infinite width cannot
        # rescale into any target, so the query goes back to simulation.
        uncapped = Precision(
            rel_ci_width=0.05, confidence=0.95, max_groups=10_000
        )
        status, _ = cache.lookup(key, uncapped)
        assert status == "extend"

    def test_lru_eviction_is_bounded(self):
        cache = ResultCache(max_entries=2)
        for horizon in (1_000.0, 2_000.0, 3_000.0):
            entry = self.entry(SHARD, width=0.5)
            entry.key = dataclasses.replace(entry.key, horizon_hours=horizon)
            cache.put(entry)
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1

    def test_persist_lock_registration_survives_eviction(self, tmp_path):
        """Regression: eviction used to drop ``_persist_locks`` /
        ``_persisted_groups`` for the evicted key, so a put that had
        fetched the key's lock (under the main lock) but not yet acquired
        it could race a later put that minted a *fresh* lock for the same
        key — two ``_persist`` calls serializing on different locks, with
        no high-water record, re-opening the smaller-run-clobbers-disk
        race for keys near the LRU boundary.  The registration must
        outlive the LRU entry."""
        cache = ResultCache(max_entries=1, cache_dir=str(tmp_path))
        first = self.entry(SHARD, width=0.5)
        first.key = dataclasses.replace(first.key, horizon_hours=1_000.0)
        cache.put(first)
        lock = cache._persist_locks[first.key]
        high_water = cache._persisted_groups[first.key]

        second = self.entry(SHARD, width=0.5)
        second.key = dataclasses.replace(second.key, horizon_hours=2_000.0)
        cache.put(second)  # evicts `first` from the LRU map

        assert len(cache) == 1
        assert cache.stats()["evictions"] == 1
        assert cache._persist_locks.get(first.key) is lock
        assert cache._persisted_groups.get(first.key) == high_water


class TestDiskIntegrity:
    """Satellite: the checkpoint ➜ cache-entry path must reject files
    whose fingerprint does not match what the caller expects."""

    def make_entry(self, tmp_path) -> CacheEntry:
        cache = ResultCache(cache_dir=str(tmp_path))
        jobs = JobManager(cache, max_workers=1, seed=3, shard_size=SHARD)
        try:
            spec = make_spec(SHARD, jobs)
            entry = jobs.entry_from_result(spec, jobs.run_simulation(spec))
            cache.put(entry)
        finally:
            jobs.shutdown()
        return entry

    def test_load_checkpoint_rejects_foreign_fingerprint(self, tmp_path):
        entry = self.make_entry(tmp_path)
        path = os.path.join(str(tmp_path), entry.key.filename())
        other = config_fingerprint(CONFIG.as_raid6())
        with pytest.raises(SimulationError) as excinfo:
            load_checkpoint(path, expected_fingerprint=other)
        message = str(excinfo.value)
        assert "different configuration" in message
        assert "moved" in message and "delete" in message

    def test_load_checkpoint_accepts_matching_fingerprint(self, tmp_path):
        entry = self.make_entry(tmp_path)
        path = os.path.join(str(tmp_path), entry.key.filename())
        loaded = load_checkpoint(
            path, expected_fingerprint=config_fingerprint(CONFIG)
        )
        assert loaded.groups_completed == entry.groups

    def test_cache_counts_rejection_as_miss(self, tmp_path):
        entry = self.make_entry(tmp_path)
        # A fresh cache over the same directory simulates a restart; the
        # caller expects a *different* design at this key (the file was
        # hand-edited or swapped underneath the service).
        reopened = ResultCache(cache_dir=str(tmp_path))
        status, found = reopened.lookup(
            entry.key,
            Precision(rel_ci_width=0.5),
            expected_run_fingerprint=config_fingerprint(CONFIG.as_raid6()),
        )
        assert (status, found) == ("miss", None)
        assert reopened.stats()["integrity_rejections"] == 1
        assert reopened.stats()["disk_loads"] == 0

    def test_cache_rejects_renamed_entry_file(self, tmp_path):
        entry = self.make_entry(tmp_path)
        src = os.path.join(str(tmp_path), entry.key.filename())
        foreign_key = dataclasses.replace(
            entry.key, fingerprint=fingerprint(CONFIG.as_raid6())
        )
        os.rename(src, os.path.join(str(tmp_path), foreign_key.filename()))
        reopened = ResultCache(cache_dir=str(tmp_path))
        status, found = reopened.lookup(foreign_key, Precision(rel_ci_width=0.5))
        assert (status, found) == ("miss", None)
        assert reopened.stats()["integrity_rejections"] == 1

    def test_cache_rejects_entry_filed_under_other_coordinates(self, tmp_path):
        """A file moved to the name of the same design under another shard
        size holds a checkpoint that key's runs would refuse to resume:
        it is rejected, never offered for ``extend``."""
        entry = self.make_entry(tmp_path)
        src = os.path.join(str(tmp_path), entry.key.filename())
        other = dataclasses.replace(entry.key, shard_size=2 * SHARD)
        os.rename(src, os.path.join(str(tmp_path), other.filename()))
        reopened = ResultCache(cache_dir=str(tmp_path))
        status, found = reopened.lookup(
            other,
            Precision(rel_ci_width=0.5),
            expected_run_fingerprint=config_fingerprint(CONFIG),
        )
        assert (status, found) == ("miss", None)
        assert reopened.stats()["integrity_rejections"] == 1

    def test_racing_puts_restart_keeps_larger_run_on_disk(
        self, tmp_path, monkeypatch
    ):
        """Regression: ``put`` used to persist *outside* the cache lock,
        so a slow write of a smaller (looser) run could land after the
        larger run's write and a restart resurrected the loser of the
        race.  Pin the fix by stalling the small entry's disk write until
        after the large entry's put has run end to end."""
        import repro.service.cache as cache_module

        def build(groups: int, width: float) -> CacheEntry:
            jobs = JobManager(
                ResultCache(), max_workers=1, seed=0, shard_size=SHARD
            )
            try:
                spec = make_spec(groups, jobs)
                built = jobs.entry_from_result(spec, jobs.run_simulation(spec))
            finally:
                jobs.shutdown()
            built.achieved_rel_ci_width = width
            return built

        small = build(SHARD, width=0.9)
        big = build(2 * SHARD, width=0.2)
        assert small.key == big.key

        real_write = cache_module.atomic_write_text
        small_write_started = threading.Event()
        release_small_write = threading.Event()

        def stalled_write(path: str, text: str) -> None:
            if json.loads(text)["groups_completed"] == small.groups:
                small_write_started.set()
                assert release_small_write.wait(timeout=30.0)
            real_write(path, text)

        monkeypatch.setattr(cache_module, "atomic_write_text", stalled_write)

        cache = ResultCache(cache_dir=str(tmp_path))
        small_put = threading.Thread(target=cache.put, args=(small,))
        big_put = threading.Thread(target=cache.put, args=(big,))
        small_put.start()
        assert small_write_started.wait(timeout=30.0)
        big_put.start()  # races the in-flight small write
        release_small_write.set()
        small_put.join(timeout=30.0)
        big_put.join(timeout=30.0)
        assert not small_put.is_alive() and not big_put.is_alive()

        path = os.path.join(str(tmp_path), big.key.filename())
        with open(path) as handle:
            assert json.load(handle)["groups_completed"] == 2 * SHARD

        reopened = ResultCache(cache_dir=str(tmp_path))
        status, found = reopened.lookup(
            big.key,
            Precision(rel_ci_width=1e-9, max_groups=10_000),
            expected_run_fingerprint=config_fingerprint(CONFIG),
        )
        assert status == "extend" and found is not None
        assert found.groups == 2 * SHARD

    def test_disk_backed_put_never_loosens_across_restart(self, tmp_path):
        """The never-loosen rule holds even when the high-water record
        was lost to a restart: a smaller racing run arriving at a fresh
        cache must not clobber the larger run already on disk."""
        jobs = JobManager(ResultCache(), max_workers=1, seed=0, shard_size=SHARD)
        try:
            spec = make_spec(2 * SHARD, jobs)
            big = jobs.entry_from_result(spec, jobs.run_simulation(spec))
            small_spec = make_spec(SHARD, jobs)
            small = jobs.entry_from_result(
                small_spec, jobs.run_simulation(small_spec)
            )
        finally:
            jobs.shutdown()
        ResultCache(cache_dir=str(tmp_path)).put(big)

        fresh = ResultCache(cache_dir=str(tmp_path))  # no in-memory record
        fresh.put(small)
        path = os.path.join(str(tmp_path), big.key.filename())
        with open(path) as handle:
            assert json.load(handle)["groups_completed"] == 2 * SHARD

    def test_disk_loads_respect_the_lru_bound(self, tmp_path):
        """Regression: ``_load_from_disk`` used to grow the in-memory map
        without eviction, so a restart scanning many persisted keys blew
        past ``max_entries``.  Loads now count against the bound exactly
        like puts."""
        writer = ResultCache(cache_dir=str(tmp_path))
        jobs = JobManager(ResultCache(), max_workers=1, seed=0, shard_size=SHARD)
        try:
            spec = make_spec(SHARD, jobs)
            streaming = jobs.run_simulation(spec)
            keys = []
            for horizon in (1_000.0, 2_000.0, 3_000.0):
                entry = jobs.entry_from_result(spec, streaming)
                entry.key = dataclasses.replace(entry.key, horizon_hours=horizon)
                writer.put(entry)
                keys.append(entry.key)
        finally:
            jobs.shutdown()

        reopened = ResultCache(max_entries=2, cache_dir=str(tmp_path))
        for key in keys:
            status, found = reopened.lookup(key, Precision(rel_ci_width=1e-9))
            assert status == "extend" and found is not None
        stats = reopened.stats()
        assert stats["disk_loads"] == 3
        assert len(reopened) == 2
        assert stats["evictions"] == 1

    def test_cache_survives_restart_and_extends_from_disk(self, tmp_path):
        entry = self.make_entry(tmp_path)
        reopened = ResultCache(cache_dir=str(tmp_path))
        status, found = reopened.lookup(
            entry.key,
            Precision(rel_ci_width=1e-9, max_groups=10_000),
            expected_run_fingerprint=config_fingerprint(CONFIG),
        )
        assert status == "extend" and found is not None
        assert found.groups == entry.groups
        assert json.dumps(found.checkpoint.to_dict(), sort_keys=True) == json.dumps(
            entry.checkpoint.to_dict(), sort_keys=True
        )
        assert reopened.stats()["disk_loads"] == 1


def answer(service: ReliabilityService, query: dict) -> dict:
    """One query answered end to end, waiting for its refinement."""
    response, job, ctx = service.begin(query)
    if job is not None:
        response = service.finish(ctx, job.future.result(timeout=120))
    return response


class TestResumeCoordinates:
    """Regression: entries were keyed by design and horizon alone, so a
    service restarted over the same ``cache_dir`` with another engine,
    seed or shard size was offered the old entry to extend, and its run
    refused the checkpoint (``SimulationError``) on every retry."""

    @pytest.mark.parametrize(
        "restart", [{"engine": "batch"}, {"seed": 1}, {"shard_size": 128}]
    )
    def test_restart_under_other_coordinates_refines(self, tmp_path, restart):
        def service(**coordinates) -> ReliabilityService:
            return ReliabilityService(
                cache=ResultCache(cache_dir=str(tmp_path)),
                max_workers=1,
                max_groups=4_096,
                **coordinates,
            )

        def query(max_groups: int) -> dict:
            return {
                "config": config_to_dict(CONFIG),
                "precision": {
                    "rel_ci_width": 1e-9,  # unattainable: fills max_groups
                    "min_groups": 128,
                    "max_groups": max_groups,
                },
            }

        first = {"engine": "event", "seed": 0, "shard_size": 256}
        writer = service(**first)
        try:
            assert answer(writer, query(256))["source"] == "simulated"
        finally:
            writer.close()

        coordinates = {**first, **restart}
        restarted = service(**coordinates)
        try:
            response = answer(restarted, query(512))
        finally:
            restarted.close()
        assert response["source"] == "simulated"
        assert response["answer"]["groups"] == 512

        # The entry it left is served to a later service that runs under
        # the same coordinates.
        later = service(**coordinates)
        try:
            response = answer(later, query(512))
        finally:
            later.close()
        assert response["source"] == "cache"
        assert response["answer"]["groups"] == 512
