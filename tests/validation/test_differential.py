"""Tests for the differential fuzzer: planted mutations must be caught,
shrunk, and written as replayable repro bundles."""

import dataclasses
import json

from repro.distributions import Exponential, Weibull
from repro.simulation.config import RaidGroupConfig
from repro.simulation.raid_simulator import DDFType
from repro.validation import (
    ConfigSampler,
    DifferentialFuzzer,
    load_bundle,
    run_batch_engine,
    run_event_engine,
    run_fuzz_campaign,
)

#: A latent-pathway-hot configuration: slow scrubbing keeps drives exposed,
#: so most DDFs are LATENT_THEN_OP and dropping that pathway is a gross,
#: statistically unmissable semantic mutation.  The restore location makes
#: it anchor-ineligible — its latent rates sit far outside the CTMC's
#: modest-rate validity regime, and these tests isolate the cross-engine
#: comparison anyway.
HOT = RaidGroupConfig(
    n_data=6,
    n_parity=1,
    mission_hours=50_000.0,
    time_to_op=Exponential(mean=60_000.0),
    time_to_restore=Exponential(mean=24.0, location=1.0),
    time_to_latent=Exponential(mean=5_000.0),
    time_to_scrub=Exponential(mean=2_000.0),
)


def drop_latent_ddfs(config, n_groups, seed):
    """Planted semantic mutation: the batch engine 'forgets' the
    latent-then-op DDF pathway (chronology counters stay self-consistent,
    so only the cross-engine comparison can catch it)."""
    out = []
    for chrono in run_batch_engine(config, n_groups, seed):
        kept = [
            (t, k)
            for t, k in zip(chrono.ddf_times, chrono.ddf_types)
            if k is not DDFType.LATENT_THEN_OP
        ]
        out.append(
            dataclasses.replace(
                chrono,
                ddf_times=[t for t, _ in kept],
                ddf_types=[k for _, k in kept],
            )
        )
    return out


def corrupt_chronologies(config, n_groups, seed):
    """Planted invariant violation: a DDF recorded past the mission end."""
    out = []
    for chrono in run_batch_engine(config, n_groups, seed):
        out.append(
            dataclasses.replace(
                chrono,
                ddf_times=chrono.ddf_times + [config.mission_hours + 1.0],
                ddf_types=chrono.ddf_types + [DDFType.DOUBLE_OP],
            )
        )
    return out


class TestPlantedMutation:
    def test_dropped_pathway_is_caught_shrunk_and_bundled(self, tmp_path):
        fuzzer = DifferentialFuzzer(
            n_groups=128, n_traces=4, batch_runner=drop_latent_ddfs
        )
        result = fuzzer.run_case(HOT, seed=20, index=3)

        assert result.status == "divergence"
        assert result.mode == "differential"
        assert result.comparison is not None
        assert result.comparison.suspect(fuzzer.p_floor, fuzzer.z_ceiling)

        # Greedy shrinking found a simpler configuration that still fails.
        assert result.shrunk_config is not None
        assert result.shrink_evaluations > 0
        assert result.shrunk_config.models_latent_defects  # the mutation needs it
        simpler = (
            result.shrunk_config.mission_hours < HOT.mission_hours
            or result.shrunk_config.n_data < HOT.n_data
            or result.shrunk_config.time_to_scrub is None
        )
        assert simpler

        # The bundle round-trips and replays to the shrunk config.
        path = fuzzer.write_bundle(result, str(tmp_path))
        assert result.bundle_path == path
        config, seed, n_groups, raw = load_bundle(path)
        assert repr(config) == repr(result.shrunk_config)
        assert seed == 20
        assert n_groups == 128
        assert raw["status"] == "divergence"
        assert raw["format"] == "repro-fuzz-bundle/1"

        # The replayed (shrunk) case still fails under the same mutation.
        replay = fuzzer.run_case(config, seed, shrink=False)
        assert replay.status == "divergence"

    def test_clean_engines_do_not_diverge_on_the_hot_config(self):
        fuzzer = DifferentialFuzzer(n_groups=128, n_traces=4)
        result = fuzzer.run_case(HOT, seed=20, index=3)
        assert result.status == "ok"
        assert not result.failed

    def test_corrupted_batch_chronology_is_an_invariant_violation(self):
        fuzzer = DifferentialFuzzer(
            n_groups=16, n_traces=2, batch_runner=corrupt_chronologies
        )
        result = fuzzer.run_case(HOT, seed=4, shrink=False)
        assert result.status == "invariant-violation"
        assert result.violations
        assert result.detail.startswith("batch engine")


#: A transition-matrix-routed hot configuration: near-exponential Weibull
#: lives barely longer than the mission make DDFs common, while the
#: non-exponential TTOp keeps it out of the closed-form anchor regime —
#: so the hybrid solver is the only absolute-rate oracle covering it.
SOLVER_HOT = RaidGroupConfig(
    n_data=7,
    mission_hours=40_000.0,
    time_to_op=Weibull(shape=1.05, scale=33_000.0),
    time_to_restore=Exponential(mean=24.0),
)


def slow_restores(runner):
    """Planted absolute-rate bug: both engines silently simulate a 10x
    slower rebuild.  The engines stay in perfect mutual agreement and
    every per-trace invariant holds, so the statistical battery and the
    oracle are blind to it — only an independent absolute-rate model
    (the solver) can notice the fleet is losing data 8x too often."""

    def run(config, n_groups, seed):
        slowed = dataclasses.replace(
            config,
            time_to_restore=Exponential(mean=config.time_to_restore.mean() * 10.0),
        )
        return runner(slowed, n_groups, seed)

    return run


class TestSolverEnginePair:
    def test_clean_engines_pass_the_solver_check(self):
        fuzzer = DifferentialFuzzer(n_groups=128, n_traces=4)
        result = fuzzer.run_case(SOLVER_HOT, seed=20, index=0)
        assert result.status == "ok"
        assert result.solver is not None
        assert result.solver.ok
        assert result.solver.method == "transition-matrix"

    def test_consistent_rate_bug_is_caught_only_by_the_solver(self, tmp_path):
        fuzzer = DifferentialFuzzer(
            n_groups=128,
            n_traces=4,
            event_runner=slow_restores(run_event_engine),
            batch_runner=slow_restores(run_batch_engine),
        )
        result = fuzzer.run_case(SOLVER_HOT, seed=20, index=1)

        assert result.status == "solver-divergence"
        # The engines agreed with each other — the cross-engine battery
        # did not flag — and the case is anchor-ineligible; the solver
        # comparison (confirmed on an independent larger fleet) is what
        # failed.
        assert result.comparison is not None
        assert not result.comparison.suspect(fuzzer.p_floor, fuzzer.z_ceiling)
        assert result.anchor is None
        assert result.solver is not None
        assert not result.solver.ok
        assert result.solver.observed_mean > result.solver.expected

        path = fuzzer.write_bundle(result, str(tmp_path))
        with open(path, "r", encoding="utf-8") as fh:
            bundle = json.load(fh)
        assert bundle["status"] == "solver-divergence"
        assert bundle["solver"]["method"] == "transition-matrix"
        assert bundle["solver"]["ok"] is False

        config, seed, _, _ = load_bundle(path)
        replay = fuzzer.run_case(config, seed, shrink=False)
        assert replay.status == "solver-divergence"

    def test_solver_check_can_be_disabled(self):
        fuzzer = DifferentialFuzzer(
            n_groups=128,
            n_traces=4,
            event_runner=slow_restores(run_event_engine),
            batch_runner=slow_restores(run_batch_engine),
            solver_check=False,
        )
        result = fuzzer.run_case(SOLVER_HOT, seed=20, index=1, shrink=False)
        # Without stage 4 the consistent bug sails through: that is the
        # coverage gap the solver pair exists to close.
        assert result.status == "ok"
        assert result.solver is None

    def test_monte_carlo_routed_configs_skip_the_solver_stage(self):
        fuzzer = DifferentialFuzzer(n_groups=64, n_traces=2)
        infant = dataclasses.replace(
            SOLVER_HOT, time_to_op=Weibull(shape=0.55, scale=33_000.0)
        )
        result = fuzzer.run_case(infant, seed=5, shrink=False)
        assert result.solver is None
        assert result.status == "ok"


class TestCampaign:
    def small_fuzzer(self, **kwargs):
        return DifferentialFuzzer(n_groups=32, n_traces=2, **kwargs)

    def test_campaign_is_deterministic_for_a_seed(self):
        reports = [
            run_fuzz_campaign(
                seed=5,
                budget_seconds=0.0,
                min_cases=6,
                max_cases=6,
                fuzzer=self.small_fuzzer(),
            )
            for _ in range(2)
        ]
        a, b = reports
        assert a.n_cases == b.n_cases == 6
        assert [repr(c.config) for c in a.cases] == [repr(c.config) for c in b.cases]
        assert [c.seed for c in a.cases] == [c.seed for c in b.cases]
        assert [c.status for c in a.cases] == [c.status for c in b.cases]

    def test_campaign_mixes_anchor_cases_and_reports_cleanly(self):
        seen = []
        report = run_fuzz_campaign(
            seed=5,
            budget_seconds=0.0,
            min_cases=10,
            max_cases=10,
            fuzzer=self.small_fuzzer(),
            anchor_every=5,
            progress=seen.append,
        )
        assert report.ok
        assert len(seen) == 10
        # Cases 4 and 9 are drawn from the all-exponential anchor regime.
        assert report.cases[4].anchor is not None
        assert report.cases[9].anchor is not None
        assert "10 cases" in report.summary()
        payload = report.to_dict()
        assert payload["n_cases"] == 10
        assert payload["n_failures"] == 0

    def test_kn_biased_campaign_is_clean(self):
        """A fully k-of-n-biased campaign — wide groups, tolerance up to
        the codec bound, half the cases with checker/repairer policies —
        runs the whole battery without a failure."""
        report = run_fuzz_campaign(
            seed=7,
            budget_seconds=0.0,
            min_cases=12,
            max_cases=12,
            fuzzer=DifferentialFuzzer(
                n_groups=32, n_traces=2, sampler=ConfigSampler(kn_bias=1.0)
            ),
            anchor_every=4,
        )
        assert report.ok, report.summary()
        assert report.n_cases == 12
        assert any(c.config.fault_tolerance >= 3 for c in report.cases)
        assert any(c.config.repair_policy is not None for c in report.cases)

    def test_shrinker_strips_the_repair_policy(self):
        """A failure on a policy config must offer a policy-free shrink
        candidate (the smaller config reproduces a corrupt-batch bug)."""
        from repro.simulation.config import RepairPolicyConfig

        config = RaidGroupConfig.k_of_n(
            3,
            8,
            time_to_op=Exponential(mean=20_000.0),
            time_to_restore=Exponential(mean=100.0),
            repair_policy=RepairPolicyConfig(
                check_interval_hours=1_000.0, repair_threshold=6
            ),
            mission_hours=50_000.0,
        )
        fuzzer = self.small_fuzzer(batch_runner=corrupt_chronologies)
        result = fuzzer.run_case(config, seed=3)
        assert result.failed
        assert result.shrunk_config is not None
        assert result.shrunk_config.repair_policy is None

    def test_failing_campaign_writes_replayable_bundles(self, tmp_path):
        report = run_fuzz_campaign(
            seed=2,
            budget_seconds=0.0,
            min_cases=4,
            max_cases=4,
            bundle_dir=str(tmp_path),
            fuzzer=self.small_fuzzer(batch_runner=corrupt_chronologies),
        )
        failures = report.failures
        assert failures  # differential cases all fail under the corruption
        assert not report.ok
        bundles = sorted(tmp_path.glob("bundle-*.json"))
        assert len(bundles) == len(failures)
        for case, path in zip(failures, bundles):
            assert case.bundle_path == str(path)
            data = json.loads(path.read_text())
            assert data["status"] == "invariant-violation"
            config, seed, _, _ = load_bundle(str(path))
            assert seed == case.seed
        assert "failure(s)" in report.summary()
