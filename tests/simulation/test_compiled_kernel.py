"""The compiled (Numba-JIT) kernel and its statistical-equivalence contract.

``engine="compiled"`` promises *statistical*, not byte, equivalence with
the other engines: it realises the same stochastic process as the batch
kernel through a different random-stream interleaving, so the two are
compared in distribution (the promoted :mod:`repro.validation.stats`
battery), exactly like event-vs-batch.  What IS byte-pinned:

* the compiled engine against *itself* — fixed ``(config, n_groups,
  seed)`` is reproducible, whole leading shards are seed-stable, and
  parallel / streaming / checkpoint-resumed runs are bit-identical to
  serial, because the engine shares the batch engine's shard partition
  and per-shard seed fan-out;
* scripted single-group scenarios — with at most one group there is no
  cross-group stream interleaving left to differ, so the compiled
  kernel must reproduce the batch engine's Fig. 4/5 decisions exactly.

Everything here runs without numba: the ``compiled_enabled`` fixture
forces the kernel's pure-Python escape hatch
(``REPRO_COMPILED_PUREPY=1``) when numba is absent, so the same tests
exercise the real JIT on machines that have the ``[speed]`` extra.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.distributions import Exponential, Weibull
from repro.exceptions import SimulationError
from repro.simulation import (
    BATCH_SHARD_SIZE,
    DDFType,
    MonteCarloRunner,
    RaidGroupConfig,
    RepairPolicyConfig,
    SparePoolConfig,
    compiled_engine_unsupported_reason,
    numba_available,
    simulate_groups_batch,
    simulate_groups_compiled,
    simulate_raid_groups,
)
from repro.simulation import compiled as compiled_mod
from repro.validation.stats import compare_fleets

from .goldens import hot_config
from .test_simulator_semantics import BIG, Scripted

#: Deterministic thresholds for the fixed-seed statistical assertions
#: (the same battery the differential fuzzer runs at scale nightly).
P_FLOOR = 5e-4
Z_CEILING = 5.0


@pytest.fixture
def compiled_enabled(monkeypatch):
    """Make the compiled kernel runnable: real numba, or the pure escape."""
    if not numba_available():
        monkeypatch.setenv(compiled_mod.PURE_PYTHON_ENV, "1")


@pytest.fixture
def no_kernel(monkeypatch):
    """Simulate a numba-free install even if numba is importable here."""
    monkeypatch.delenv(compiled_mod.PURE_PYTHON_ENV, raising=False)
    monkeypatch.setattr(compiled_mod, "_numba_checked", True)
    monkeypatch.setattr(compiled_mod, "_numba_ok", False)


class TestAvailabilityGates:
    def test_config_gate_mirrors_batch(self):
        pooled = dataclasses.replace(
            hot_config(),
            spare_pool=SparePoolConfig(n_spares=1, replenishment_hours=24.0),
        )
        reason = compiled_engine_unsupported_reason(pooled)
        assert reason == pooled.batch_engine_unsupported_reason

    def test_supported_config_with_kernel(self, compiled_enabled):
        assert compiled_engine_unsupported_reason(hot_config()) is None

    def test_supported_config_without_kernel(self, no_kernel):
        reason = compiled_engine_unsupported_reason(hot_config())
        assert reason is not None and "numba" in reason

    def test_runner_error_names_the_extra(self, no_kernel):
        with pytest.raises(SimulationError, match=r"repro\[speed\]"):
            MonteCarloRunner(config=hot_config(), engine="compiled")

    def test_direct_kernel_error_names_the_extra(self, no_kernel):
        with pytest.raises(SimulationError, match=r"repro\[speed\]"):
            simulate_groups_compiled(hot_config(), 1, np.random.default_rng(0))

    def test_unsupported_config_rejected_even_with_kernel(self, compiled_enabled):
        pooled = dataclasses.replace(
            hot_config(),
            spare_pool=SparePoolConfig(n_spares=1, replenishment_hours=24.0),
        )
        with pytest.raises(SimulationError):
            simulate_groups_compiled(pooled, 1, np.random.default_rng(0))


class TestAutoDispatch:
    def test_auto_prefers_compiled_when_available(self, monkeypatch):
        monkeypatch.setattr(
            "repro.simulation.monte_carlo.compiled_kernel_available", lambda: True
        )
        runner = MonteCarloRunner(config=hot_config(), engine="auto")
        assert runner.resolve_engine() == "compiled"

    def test_auto_falls_back_to_batch_silently(self, monkeypatch):
        # No numba: engine="auto" must keep working on the NumPy kernel
        # without a warning or an error — the extra is strictly optional.
        monkeypatch.setattr(
            "repro.simulation.monte_carlo.compiled_kernel_available", lambda: False
        )
        runner = MonteCarloRunner(config=hot_config(), engine="auto")
        assert runner.resolve_engine() == "batch"
        result = simulate_raid_groups(hot_config(), n_groups=8, seed=0, engine="auto")
        assert result.engine == "batch"

    def test_auto_still_routes_unsupported_configs_to_event(self, monkeypatch):
        monkeypatch.setattr(
            "repro.simulation.monte_carlo.compiled_kernel_available", lambda: True
        )
        pooled = dataclasses.replace(
            hot_config(),
            spare_pool=SparePoolConfig(n_spares=1, replenishment_hours=24.0),
        )
        assert MonteCarloRunner(config=pooled, engine="auto").resolve_engine() == "event"

    def test_auto_runs_compiled_end_to_end(self, compiled_enabled):
        result = simulate_raid_groups(hot_config(), n_groups=16, seed=3, engine="auto")
        assert result.engine == "compiled"
        assert result.n_groups == 16


#: The batch engine's scripted Fig. 4/5 scenarios (cf.
#: ``test_batch_engine.py``), replayed on the compiled kernel.  Each
#: entry: (n_data, n_parity, ttop, ttr, ttld, ttscrub, mission).
SCRIPTED_SCENARIOS = {
    "overlap-ddf": (1, 1, [100.0, 150.0], [100.0, 100.0], None, None, 1_000.0),
    "no-overlap": (1, 1, [100.0, 300.0], [50.0, 50.0], None, None, 1_000.0),
    "boundary-restore": (1, 1, [100.0, 200.0], [100.0, 100.0], None, None, 1_000.0),
    "ddf-window": (
        2,
        1,
        [100.0, 150.0, 180.0],
        [100.0, 100.0, 100.0],
        None,
        None,
        1_000.0,
    ),
    "latent-then-op": (1, 1, [BIG, 200.0], [50.0], [100.0, BIG], None, 1_000.0),
    "op-then-latent": (1, 1, [100.0, BIG], [100.0], [BIG, 150.0], None, 1_000.0),
    "coexisting-latents": (
        2,
        1,
        [BIG, BIG, BIG],
        [],
        [100.0, 150.0, 200.0],
        None,
        1_000.0,
    ),
    "ddf-clears-latent": (
        1,
        1,
        [BIG, 200.0, 300.0],
        [50.0, 50.0],
        [100.0, BIG, BIG],
        None,
        10_000.0,
    ),
    "replacement-resets": (
        1,
        1,
        [150.0, BIG, BIG, 300.0],
        [50.0, 50.0],
        [100.0, BIG, BIG],
        None,
        10_000.0,
    ),
    "raid6-two-survive": (1, 2, [100.0, 150.0, BIG], [100.0, 100.0], None, None, 1_000.0),
    "raid6-three-ddf": (
        1,
        2,
        [100.0, 120.0, 140.0],
        [100.0, 100.0, 100.0],
        None,
        None,
        1_000.0,
    ),
}


class TestScriptedSemantics:
    """Single scripted groups: compiled must equal batch *exactly*.

    ``Scripted`` is stateful (it pops its list in draw order), so each
    engine gets a freshly built config.
    """

    @pytest.mark.parametrize("name", sorted(SCRIPTED_SCENARIOS))
    def test_scenario_matches_batch(self, compiled_enabled, name):
        n_data, n_parity, ttop, ttr, ttld, ttscrub, mission = SCRIPTED_SCENARIOS[name]

        def build():
            return RaidGroupConfig(
                n_data=n_data,
                n_parity=n_parity,
                time_to_op=Scripted(list(ttop)),
                time_to_restore=Scripted(list(ttr), default=100.0),
                time_to_latent=Scripted(list(ttld)) if ttld is not None else None,
                time_to_scrub=Scripted(list(ttscrub)) if ttscrub is not None else None,
                mission_hours=mission,
            )

        batch = simulate_groups_batch(build(), 1, np.random.default_rng(0))[0]
        compiled = simulate_groups_compiled(build(), 1, np.random.default_rng(0))[0]
        assert compiled == batch

    def test_overlap_scenario_is_a_ddf(self, compiled_enabled):
        # One absolute anchor so a shared batch/compiled regression
        # cannot hide behind the equality above.
        config = RaidGroupConfig(
            n_data=1,
            time_to_op=Scripted([100.0, 150.0]),
            time_to_restore=Scripted([100.0, 100.0], default=100.0),
            mission_hours=1_000.0,
        )
        chrono = simulate_groups_compiled(config, 1, np.random.default_rng(0))[0]
        assert chrono.ddf_times == [150.0]
        assert chrono.ddf_types == [DDFType.DOUBLE_OP]


def canonical(streaming) -> str:
    return json.dumps(streaming.accumulator.to_dict(), sort_keys=True)


class TestCompiledRunner:
    def test_engine_recorded_on_result(self, compiled_enabled):
        result = simulate_raid_groups(hot_config(), n_groups=10, seed=0, engine="compiled")
        assert result.engine == "compiled"

    def test_reproducible(self, compiled_enabled):
        a = simulate_raid_groups(hot_config(), n_groups=100, seed=5, engine="compiled")
        b = simulate_raid_groups(hot_config(), n_groups=100, seed=5, engine="compiled")
        assert [c.ddf_times for c in a.chronologies] == [
            c.ddf_times for c in b.chronologies
        ]

    def test_seeds_differ(self, compiled_enabled):
        a = simulate_raid_groups(hot_config(), n_groups=100, seed=1, engine="compiled")
        b = simulate_raid_groups(hot_config(), n_groups=100, seed=2, engine="compiled")
        assert [c.n_op_failures for c in a.chronologies] != [
            c.n_op_failures for c in b.chronologies
        ]

    def test_shard_prefix_stability(self, compiled_enabled):
        # The compiled engine shares the batch engine's shard partition
        # and per-shard seed fan-out, so whole leading shards are
        # seed-stable when the fleet grows.
        small = simulate_raid_groups(
            hot_config(), n_groups=BATCH_SHARD_SIZE, seed=7, engine="compiled"
        )
        large = simulate_raid_groups(
            hot_config(), n_groups=BATCH_SHARD_SIZE + 40, seed=7, engine="compiled"
        )
        assert [c.ddf_times for c in small.chronologies] == [
            c.ddf_times for c in large.chronologies[:BATCH_SHARD_SIZE]
        ]

    def test_parallel_matches_serial(self, compiled_enabled):
        n = BATCH_SHARD_SIZE + 60  # two shards, so the pool has real work
        serial = simulate_raid_groups(hot_config(), n_groups=n, seed=9, engine="compiled")
        parallel = simulate_raid_groups(
            hot_config(), n_groups=n, seed=9, engine="compiled", n_jobs=2
        )
        assert [c.ddf_times for c in serial.chronologies] == [
            c.ddf_times for c in parallel.chronologies
        ]

    def test_streaming_parallel_bit_identical(self, compiled_enabled):
        n = BATCH_SHARD_SIZE + 60
        serial = MonteCarloRunner(
            hot_config(), n_groups=n, seed=13, engine="compiled"
        ).run_streaming(shard_size=128)
        parallel = MonteCarloRunner(
            hot_config(), n_groups=n, seed=13, engine="compiled", n_jobs=2
        ).run_streaming(shard_size=128)
        assert canonical(serial) == canonical(parallel)

    def test_streaming_matches_run_totals(self, compiled_enabled):
        # At the default shard size the stream partition is the one
        # run() uses, so the totals must agree exactly.  (A custom
        # shard_size legitimately re-partitions the random streams.)
        runner = MonteCarloRunner(hot_config(), n_groups=300, seed=17, engine="compiled")
        assert runner.run_streaming().accumulator.total_ddfs == runner.run().total_ddfs

    def test_checkpoint_resume_bit_identical(self, compiled_enabled, tmp_path):
        path = str(tmp_path / "run.ckpt")
        runner = MonteCarloRunner(hot_config(), n_groups=400, seed=11, engine="compiled")
        uninterrupted = runner.run_streaming(shard_size=128)

        interrupted = runner.run_streaming(
            shard_size=128, checkpoint_path=path, stop_after_shards=1
        )
        assert interrupted.stop_reason == "interrupted"
        resumed = runner.run_streaming(shard_size=128, resume_from=path)
        assert resumed.stop_reason == "fixed"
        assert canonical(resumed) == canonical(uninterrupted)

    def test_chronology_invariants(self, compiled_enabled):
        config = hot_config()
        result = simulate_raid_groups(config, n_groups=200, seed=11, engine="compiled")
        for chrono in result.chronologies:
            assert chrono.ddf_times == sorted(chrono.ddf_times)
            assert all(0.0 <= t <= config.mission_hours for t in chrono.ddf_times)
            assert 0 <= chrono.n_restores <= chrono.n_op_failures
            assert chrono.n_op_failures - chrono.n_restores <= config.n_drives
            assert chrono.n_ddfs <= chrono.n_op_failures
            assert chrono.n_scrub_repairs <= chrono.n_latent_defects


#: Cross-engine corpus: (config, n_groups) per scenario, sized so the
#: pure-Python escape keeps the fast tier fast while each fleet still
#: produces enough DDFs for the battery to bite.
STATS_CORPUS = {
    # The Table 2 base case's distribution family (Weibull op/restore/
    # scrub, exponential-shaped latent) with the op and latent rates
    # cranked so a 400-group, 2-year fleet yields ~200 DDFs; the true
    # cold base case runs in the slow tier below.
    "base-case-hot": (
        RaidGroupConfig(
            n_data=7,
            time_to_op=Weibull(shape=1.12, scale=120_000.0),
            time_to_restore=Weibull(shape=2.0, scale=12.0, location=6.0),
            time_to_latent=Exponential(1_200.0),
            time_to_scrub=Weibull(shape=3.0, scale=168.0, location=6.0),
            mission_hours=17_520.0,
        ),
        400,
    ),
    "raid6-hot": (
        RaidGroupConfig(
            n_data=7,
            n_parity=2,
            time_to_op=Exponential(3_000.0),
            time_to_restore=Weibull(shape=2.0, scale=100.0, location=6.0),
            time_to_latent=Exponential(800.0),
            time_to_scrub=Weibull(shape=3.0, scale=60.0, location=6.0),
            mission_hours=8_760.0,
        ),
        300,
    ),
    "kofn-policy": (
        RaidGroupConfig.k_of_n(
            3,
            6,
            time_to_op=Exponential(1_500.0),
            time_to_restore=Weibull(shape=2.0, scale=48.0, location=1.0),
            repair_policy=RepairPolicyConfig(
                check_interval_hours=168.0, repair_threshold=5
            ),
            mission_hours=8_760.0,
        ),
        300,
    ),
}


class TestCrossEngineStats:
    """Batch-vs-compiled in distribution: the equivalence contract itself."""

    @pytest.fixture(scope="class", params=sorted(STATS_CORPUS))
    def comparison(self, request):
        if not numba_available():
            # Class-scoped, so the function-scoped monkeypatch fixture
            # cannot be used here; patch the environment directly.
            import os

            os.environ[compiled_mod.PURE_PYTHON_ENV] = "1"
            request.addfinalizer(
                lambda: os.environ.pop(compiled_mod.PURE_PYTHON_ENV, None)
            )
        name = request.param
        config, n_groups = STATS_CORPUS[name]
        batch = simulate_raid_groups(config, n_groups=n_groups, seed=1234, engine="batch")
        compiled = simulate_raid_groups(
            config, n_groups=n_groups, seed=1234, engine="compiled"
        )
        return name, batch, compiled

    def test_fleets_produce_ddfs(self, comparison):
        name, batch, compiled = comparison
        assert batch.total_ddfs >= 50, name
        assert compiled.total_ddfs >= 50, name

    def test_not_suspect(self, comparison):
        name, batch, compiled = comparison
        result = compare_fleets(batch.chronologies, compiled.chronologies)
        assert not result.suspect(P_FLOOR, Z_CEILING), (
            f"{name}: worst outcome {result.worst()} "
            f"(min_p={result.min_p:.4g}, max_abs_z={result.max_abs_z:.3g})"
        )

    def test_policy_counters_flow_through(self, comparison):
        name, batch, compiled = comparison
        if name != "kofn-policy":
            pytest.skip("policy counters only exist on the k-of-n scenario")
        assert sum(c.n_checks for c in compiled.chronologies) > 0
        assert sum(c.n_policy_repairs for c in compiled.chronologies) > 0


@pytest.mark.slow
class TestBaseCaseStatsSlow:
    """The true (cold) Table 2 base case over the full 10-year mission."""

    def test_base_case_not_suspect(self, compiled_enabled):
        config = RaidGroupConfig.paper_base_case()
        batch = simulate_raid_groups(config, n_groups=800, seed=1234, engine="batch")
        compiled = simulate_raid_groups(
            config, n_groups=800, seed=1234, engine="compiled"
        )
        assert batch.total_ddfs >= 50
        assert compiled.total_ddfs >= 50
        result = compare_fleets(batch.chronologies, compiled.chronologies)
        assert not result.suspect(P_FLOOR, Z_CEILING), (
            f"worst outcome {result.worst()} "
            f"(min_p={result.min_p:.4g}, max_abs_z={result.max_abs_z:.3g})"
        )
