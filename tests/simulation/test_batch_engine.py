"""Unit tests for the vectorized batch engine and engine selection.

The scripted-scenario tests mirror ``test_simulator_semantics.py``: a
single group driven through exact failure/repair times must realise the
identical Fig. 4/5 DDF rules on the batch engine as on the event engine.
Statistical agreement over random configurations is covered separately
in ``test_cross_engine_stats.py``.
"""

from typing import List, Optional

import numpy as np
import pytest

from repro.distributions import Exponential
from repro.exceptions import ParameterError, SimulationError
from repro.simulation import (
    BATCH_SHARD_SIZE,
    DDFType,
    MonteCarloRunner,
    RaidGroupConfig,
    SparePoolConfig,
    simulate_groups_batch,
    simulate_raid_groups,
)
from repro.simulation.batch import shard_sizes

from .test_simulator_semantics import BIG, Scripted


def run_batch_scenario(
    n_data: int,
    ttop: List[float],
    ttr: List[float],
    ttld: Optional[List[float]] = None,
    ttscrub: Optional[List[float]] = None,
    mission: float = 1_000.0,
    n_parity: int = 1,
):
    """One scripted group through the batch engine (cf. ``run_scenario``)."""
    config = RaidGroupConfig(
        n_data=n_data,
        n_parity=n_parity,
        time_to_op=Scripted(ttop),
        time_to_restore=Scripted(ttr, default=100.0),
        time_to_latent=Scripted(ttld) if ttld is not None else None,
        time_to_scrub=Scripted(ttscrub) if ttscrub is not None else None,
        mission_hours=mission,
    )
    return simulate_groups_batch(config, 1, np.random.default_rng(0))[0]


class TestBatchScriptedSemantics:
    """The event engine's scripted DDF scenarios, replayed on the batch engine."""

    def test_overlapping_failures_are_a_ddf(self):
        chrono = run_batch_scenario(n_data=1, ttop=[100.0, 150.0], ttr=[100.0, 100.0])
        assert chrono.ddf_times == [150.0]
        assert chrono.ddf_types == [DDFType.DOUBLE_OP]

    def test_non_overlapping_failures_are_not(self):
        chrono = run_batch_scenario(n_data=1, ttop=[100.0, 300.0], ttr=[50.0, 50.0])
        assert chrono.n_ddfs == 0
        assert chrono.n_op_failures == 2

    def test_boundary_restore_completion_is_not_overlap(self):
        # Restore completions take priority over failures at equal times,
        # matching the event engine's strict-inequality overlap rule.
        chrono = run_batch_scenario(n_data=1, ttop=[100.0, 200.0], ttr=[100.0, 100.0])
        assert chrono.n_ddfs == 0

    def test_ddf_window_suppresses_third_failure(self):
        chrono = run_batch_scenario(
            n_data=2, ttop=[100.0, 150.0, 180.0], ttr=[100.0, 100.0, 100.0]
        )
        assert chrono.n_ddfs == 1
        assert chrono.n_op_failures == 3

    def test_latent_before_op_is_a_ddf(self):
        chrono = run_batch_scenario(
            n_data=1, ttop=[BIG, 200.0], ttr=[50.0], ttld=[100.0, BIG]
        )
        assert chrono.ddf_times == [200.0]
        assert chrono.ddf_types == [DDFType.LATENT_THEN_OP]

    def test_latent_during_reconstruction_is_not_a_ddf(self):
        # Op failure at 100 (restore until 200); latent arrives at 150 on
        # the surviving drive: op-before-latent, not a DDF.
        chrono = run_batch_scenario(
            n_data=1, ttop=[100.0, BIG], ttr=[100.0], ttld=[BIG, 150.0]
        )
        assert chrono.n_ddfs == 0
        assert chrono.n_latent_defects == 1

    def test_coexisting_latent_defects_are_not_a_ddf(self):
        chrono = run_batch_scenario(
            n_data=2, ttop=[BIG, BIG, BIG], ttr=[], ttld=[100.0, 150.0, 200.0]
        )
        assert chrono.n_ddfs == 0
        assert chrono.n_latent_defects == 3

    def test_ddf_restore_clears_the_latent_defect(self):
        # Latent at 100 (slot 0), op failure at 200 (slot 1) -> DDF; the
        # defect shares the concomitant restore (until 250).  A second op
        # failure at 300 must NOT find slot 0 still exposed.
        chrono = run_batch_scenario(
            n_data=1,
            ttop=[BIG, 200.0, 300.0],
            ttr=[50.0, 50.0],
            ttld=[100.0, BIG, BIG],
            mission=10_000.0,
        )
        assert chrono.ddf_types == [DDFType.LATENT_THEN_OP]
        assert chrono.n_op_failures == 2

    def test_replacement_resets_latent_state(self):
        # Slot 0: latent at 100, own op failure at 150 (the corruption
        # leaves with the drive), restored at 200.  Slot 1 fails at 300:
        # no exposed defect anywhere -> no DDF.
        chrono = run_batch_scenario(
            n_data=1,
            ttop=[150.0, BIG, BIG, 300.0],
            ttr=[50.0, 50.0],
            ttld=[100.0, BIG, BIG],
            mission=10_000.0,
        )
        assert chrono.n_ddfs == 0
        assert chrono.n_latent_defects == 1

    def test_raid6_requires_three_coincident_problems(self):
        # Two overlapping op failures on a double-parity group: survivable.
        chrono = run_batch_scenario(
            n_data=1, n_parity=2, ttop=[100.0, 150.0, BIG], ttr=[100.0, 100.0]
        )
        assert chrono.n_ddfs == 0
        # A third overlapping failure is a DDF.
        chrono = run_batch_scenario(
            n_data=1,
            n_parity=2,
            ttop=[100.0, 120.0, 140.0],
            ttr=[100.0, 100.0, 100.0],
        )
        assert chrono.ddf_times == [140.0]
        assert chrono.ddf_types == [DDFType.DOUBLE_OP]


@pytest.fixture
def hot_config():
    """High failure rates so small fleets produce events quickly."""
    return RaidGroupConfig(
        n_data=3,
        time_to_op=Exponential(2_000.0),
        time_to_restore=Exponential(50.0),
        time_to_latent=Exponential(1_500.0),
        time_to_scrub=Exponential(100.0),
        mission_hours=8_760.0,
    )


class TestBatchRunner:
    def test_engine_recorded_on_result(self, hot_config):
        result = simulate_raid_groups(hot_config, n_groups=10, seed=0, engine="batch")
        assert result.engine == "batch"
        assert simulate_raid_groups(hot_config, n_groups=10, seed=0).engine == "event"

    def test_batch_reproducible(self, hot_config):
        a = simulate_raid_groups(hot_config, n_groups=100, seed=5, engine="batch")
        b = simulate_raid_groups(hot_config, n_groups=100, seed=5, engine="batch")
        assert [c.ddf_times for c in a.chronologies] == [
            c.ddf_times for c in b.chronologies
        ]

    def test_batch_seeds_differ(self, hot_config):
        a = simulate_raid_groups(hot_config, n_groups=100, seed=1, engine="batch")
        b = simulate_raid_groups(hot_config, n_groups=100, seed=2, engine="batch")
        assert [c.n_op_failures for c in a.chronologies] != [
            c.n_op_failures for c in b.chronologies
        ]

    def test_shard_prefix_stability(self, hot_config):
        # Whole leading shards are seed-stable when the fleet grows.
        small = simulate_raid_groups(
            hot_config, n_groups=BATCH_SHARD_SIZE, seed=7, engine="batch"
        )
        large = simulate_raid_groups(
            hot_config, n_groups=BATCH_SHARD_SIZE + 40, seed=7, engine="batch"
        )
        assert [c.ddf_times for c in small.chronologies] == [
            c.ddf_times for c in large.chronologies[:BATCH_SHARD_SIZE]
        ]

    def test_batch_parallel_matches_serial(self, hot_config):
        n = BATCH_SHARD_SIZE + 60  # two shards, so the pool has real work
        serial = simulate_raid_groups(hot_config, n_groups=n, seed=9, engine="batch")
        parallel = simulate_raid_groups(
            hot_config, n_groups=n, seed=9, engine="batch", n_jobs=2
        )
        assert [c.ddf_times for c in serial.chronologies] == [
            c.ddf_times for c in parallel.chronologies
        ]

    @pytest.mark.parametrize("engine", ["warp", "compiled"])
    def test_unknown_engine_rejected(self, hot_config, engine):
        with pytest.raises(ParameterError):
            MonteCarloRunner(config=hot_config, engine=engine)

    def test_batch_rejects_unsupported_config(self, hot_config):
        import dataclasses

        pooled = dataclasses.replace(
            hot_config, spare_pool=SparePoolConfig(n_spares=1, replenishment_hours=24.0)
        )
        with pytest.raises(ParameterError):
            MonteCarloRunner(config=pooled, engine="batch")
        with pytest.raises(SimulationError):
            simulate_groups_batch(pooled, 1, np.random.default_rng(0))

    def test_auto_resolution(self, hot_config):
        import dataclasses

        assert MonteCarloRunner(config=hot_config, engine="auto").resolve_engine() == "batch"
        pooled = dataclasses.replace(
            hot_config, spare_pool=SparePoolConfig(n_spares=1, replenishment_hours=24.0)
        )
        assert MonteCarloRunner(config=pooled, engine="auto").resolve_engine() == "event"
        anchored = dataclasses.replace(hot_config, latent_age_anchored=True)
        assert (
            MonteCarloRunner(config=anchored, engine="auto").resolve_engine() == "event"
        )

    def test_auto_runs_and_tags_result(self, hot_config):
        result = simulate_raid_groups(hot_config, n_groups=20, seed=4, engine="auto")
        assert result.engine == "batch"
        assert result.n_groups == 20

    def test_chronology_invariants(self, hot_config):
        result = simulate_raid_groups(hot_config, n_groups=200, seed=11, engine="batch")
        for chrono in result.chronologies:
            assert chrono.ddf_times == sorted(chrono.ddf_times)
            assert all(0.0 <= t <= hot_config.mission_hours for t in chrono.ddf_times)
            assert 0 <= chrono.n_restores <= chrono.n_op_failures
            assert chrono.n_op_failures - chrono.n_restores <= hot_config.n_drives
            assert chrono.n_ddfs <= chrono.n_op_failures
            assert chrono.n_scrub_repairs <= chrono.n_latent_defects


class TestShardSizes:
    def test_exact_multiple(self):
        assert shard_sizes(1024, 512) == [512, 512]

    def test_remainder(self):
        assert shard_sizes(1000, 512) == [512, 488]

    def test_small_fleet_single_shard(self):
        assert shard_sizes(3, 512) == [3]

    def test_invalid(self):
        with pytest.raises(SimulationError):
            shard_sizes(0)
