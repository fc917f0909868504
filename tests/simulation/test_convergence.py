"""Convergence-based stopping: the runner stops exactly when it should.

A fake ``_shard_worker`` feeds synthetic chronologies with known
statistics, so every stopping decision — first shard meeting the
precision target, the ``min_groups`` guard, the ``max_groups`` cap —
can be asserted against a hand-replayed reference.  A slow-marked test
checks the CIs actually achieve near-nominal coverage.
"""

import numpy as np
import pytest

from repro.simulation import FleetAccumulator, Precision, RaidGroupConfig
from repro.simulation.monte_carlo import MonteCarloRunner
from repro.simulation.raid_simulator import DDFType, GroupChronology

MISSION = 8_760.0


def chronology(n_ddfs: int) -> GroupChronology:
    times = [100.0 + 10.0 * i for i in range(n_ddfs)]
    return GroupChronology(
        ddf_times=times,
        ddf_types=[DDFType.DOUBLE_OP] * n_ddfs,
        n_op_failures=2 * n_ddfs,
        n_latent_defects=0,
        n_scrub_repairs=0,
        n_restores=0,
        mission_hours=MISSION,
    )


def fake_worker_from_counts(counts_for_shard):
    """A ``_shard_worker`` whose chronologies for a shard have the DDF
    counts ``counts_for_shard(shard_index, n)``."""

    def run_shard(config, root_state, engine, task):
        return [chronology(k) for k in counts_for_shard(task.index, task.n_groups)]

    return run_shard


def make_runner(n_groups: int = 100_000) -> MonteCarloRunner:
    config = RaidGroupConfig.paper_base_case(mission_hours=MISSION)
    return MonteCarloRunner(config, n_groups=n_groups, seed=0, engine="event")


class TestStoppingRule:
    def test_stops_on_first_shard_with_zero_variance(self):
        # Every group has exactly one DDF: the CI collapses to a point,
        # so the run converges on the first shard past min_groups.
        runner = make_runner()
        streaming = runner.run_streaming(
            until=Precision(rel_ci_width=0.5, min_groups=64),
            shard_size=64,
            _shard_worker=fake_worker_from_counts(lambda i, n: [1] * n),
        )
        assert streaming.converged
        assert streaming.stop_reason == "converged"
        assert streaming.groups == 64
        assert streaming.shards_run == 1

    def test_min_groups_guard_delays_stopping(self):
        runner = make_runner()
        streaming = runner.run_streaming(
            until=Precision(rel_ci_width=0.5, min_groups=192),
            shard_size=64,
            _shard_worker=fake_worker_from_counts(lambda i, n: [1] * n),
        )
        assert streaming.converged
        assert streaming.groups == 192  # precision was met at 64, but held
        assert streaming.shards_run == 3

    def test_max_groups_cap_when_never_converging(self):
        # All-zero DDF counts: the relative width stays infinite forever.
        runner = make_runner()
        streaming = runner.run_streaming(
            until=Precision(rel_ci_width=0.01, min_groups=64, max_groups=320),
            shard_size=64,
            _shard_worker=fake_worker_from_counts(lambda i, n: [0] * n),
        )
        assert not streaming.converged
        assert streaming.stop_reason == "max_groups"
        assert streaming.groups == 320
        assert streaming.shards_run == 5

    def test_cap_defaults_to_runner_fleet_size(self):
        runner = make_runner(n_groups=200)
        streaming = runner.run_streaming(
            until=0.01,  # bare float: normalized with the runner's cap
            shard_size=64,
            _shard_worker=fake_worker_from_counts(lambda i, n: [0] * n),
        )
        assert streaming.stop_reason == "max_groups"
        assert streaming.groups == 200  # last shard truncated to the cap

    def test_stops_at_first_satisfying_shard_boundary(self):
        # Deterministic but non-trivial counts; replay them through an
        # accumulator to find the first shard boundary where the target
        # is met, then assert the runner stopped exactly there.
        rng = np.random.default_rng(1234)
        counts = rng.poisson(2.0, size=10_000).tolist()

        def counts_for_shard(shard_index, n):
            start = shard_index * 64
            return counts[start : start + n]

        precision = Precision(rel_ci_width=0.15, min_groups=128)
        reference = FleetAccumulator(mission_hours=MISSION)
        expected_groups = None
        for boundary in range(0, len(counts), 64):
            reference.add_shard(
                chronology(k) for k in counts[boundary : boundary + 64]
            )
            if precision.satisfied_by(reference):
                expected_groups = reference.n_groups
                break
        assert expected_groups is not None, "test data never converges"

        runner = make_runner()
        streaming = runner.run_streaming(
            until=precision,
            shard_size=64,
            _shard_worker=fake_worker_from_counts(counts_for_shard),
        )
        assert streaming.converged
        assert streaming.groups == expected_groups

    def test_converged_run_is_reproducible_from_manifest(self):
        # (config, seed, shards_run) fully determines the estimate: a
        # fixed run of the converged size reproduces it bitwise.
        import json

        config = RaidGroupConfig.paper_base_case(mission_hours=MISSION)
        runner = MonteCarloRunner(config, n_groups=5_000, seed=9, engine="event")
        converged = runner.run_streaming(
            until=Precision(rel_ci_width=0.9, min_groups=256), shard_size=256
        )
        replay = MonteCarloRunner(
            config, n_groups=converged.groups, seed=9, engine="event"
        ).run_streaming(shard_size=256)
        assert json.dumps(
            replay.accumulator.to_dict(), sort_keys=True
        ) == json.dumps(converged.accumulator.to_dict(), sort_keys=True)


class TestObservability:
    def test_observer_sees_every_shard_and_final_event(self):
        runner = make_runner()
        events = []
        streaming = runner.run_streaming(
            until=Precision(rel_ci_width=0.5, min_groups=64, max_groups=192),
            shard_size=64,
            observers=(events.append,),
            _shard_worker=fake_worker_from_counts(lambda i, n: [1] * n),
        )
        assert len(events) == streaming.shards_run
        assert [e.groups_completed for e in events] == [64]
        assert events[-1].done


class TestCoverage:
    @pytest.mark.slow
    def test_ci_coverage_near_nominal(self):
        # Poisson(0.8) DDF counts with a known mean: across many
        # converged runs, the 95% CI should cover the truth at a rate
        # near nominal (normal-theory intervals on 2k+ samples).
        rate = 0.8
        precision = Precision(
            rel_ci_width=0.1, confidence=0.95, min_groups=512, max_groups=50_000
        )
        hits = 0
        n_runs = 100
        for run_index in range(n_runs):
            rng = np.random.default_rng(10_000 + run_index)

            def counts_for_shard(shard_index, n):
                return rng.poisson(rate, size=n).tolist()

            streaming = make_runner().run_streaming(
                until=precision,
                shard_size=512,
                _shard_worker=fake_worker_from_counts(counts_for_shard),
            )
            assert streaming.converged
            _, lo, hi = streaming.ddfs_per_thousand_ci()
            if lo <= rate * 1000.0 <= hi:
                hits += 1
        assert hits / n_runs >= 0.85
