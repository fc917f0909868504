"""Kernel-level tests for the batch engine's perf machinery.

The contracts of the compaction/fused-reduction kernel and of its
callers (``DESIGN.md`` §4f):

* ``_BlockSampler`` — the refill **draw schedule** is fixed (it pins how
  the shard's one random stream is interleaved between distributions)
  while the backing storage may grow adaptively;
* active-set compaction — byte-identical chronologies no matter how
  aggressively (or whether) the kernel compacts;
* throughput observability — per-shard monotonic groups/s surfaced on
  :class:`ProgressEvent` and in the run manifest;
* several seed shards per kernel call — the in-process runner hands the
  kernel ``KERNEL_ROWS`` rows at a time, yet commits, checkpoints,
  reports and stops shard by shard exactly as with one shard per call.
"""

import dataclasses
import json
import types

import numpy as np
import pytest

import repro.simulation.batch as batch_module
import repro.simulation.monte_carlo as monte_carlo
from repro.distributions import Exponential, Weibull
from repro.exceptions import SimulationError
from repro.simulation import (
    Precision,
    RaidGroupConfig,
    load_checkpoint,
    simulate_raid_groups,
)
from repro.simulation.batch import _BlockSampler, simulate_groups_batch
from repro.simulation.monte_carlo import KERNEL_ROWS, MonteCarloRunner


class TestBlockSampler:
    def test_take_partition_is_invariant(self):
        # Splitting requests differently must not change the values
        # delivered: both consume the same fixed-size refill draws.
        a = _BlockSampler(Exponential(100.0), np.random.default_rng(3))
        b = _BlockSampler(Exponential(100.0), np.random.default_rng(3))
        split = np.concatenate([a.take(k).copy() for k in (1, 5, 17, 100, 3)])
        assert np.array_equal(split, b.take(126))

    def test_refill_boundary_keeps_leftover_samples(self):
        # block=8: the second take crosses a refill boundary; the 3
        # unread samples of the first draw must be delivered before any
        # fresh ones, in stream order.
        sampler = _BlockSampler(Exponential(100.0), np.random.default_rng(7), block=8)
        first = sampler.take(5).copy()
        second = sampler.take(5).copy()
        reference = np.random.default_rng(7)
        draw1 = Exponential(100.0).sample(reference, 8)
        draw2 = Exponential(100.0).sample(reference, 8)
        assert np.array_equal(first, draw1[:5])
        assert np.array_equal(second, np.concatenate([draw1[5:], draw2[:2]]))

    def test_oversized_take_draws_exactly_k(self):
        # A take larger than the block draws max(block, k) = k samples —
        # the fixed schedule — and the storage grows to hold them.
        sampler = _BlockSampler(Exponential(100.0), np.random.default_rng(11), block=8)
        reference = np.random.default_rng(11)
        assert np.array_equal(
            sampler.take(100), Exponential(100.0).sample(reference, 100)
        )
        assert sampler._storage.size >= 100

    def test_storage_grows_geometrically(self):
        # Growth at least doubles capacity, so alternating big/small
        # takes cannot force a reallocation per refill.
        sampler = _BlockSampler(Exponential(100.0), np.random.default_rng(0), block=4)
        sampler.take(4)
        size_after_first = sampler._storage.size
        sampler.take(9)  # forces a refill larger than the current storage
        assert sampler._storage.size >= 2 * size_after_first

    def test_zero_take_consumes_nothing(self):
        sampler = _BlockSampler(Exponential(100.0), np.random.default_rng(1), block=8)
        assert sampler.take(0).size == 0
        assert np.array_equal(
            sampler.take(3), Exponential(100.0).sample(np.random.default_rng(1), 8)[:3]
        )


@pytest.fixture
def kernel_configs():
    """Batch-compatible configs spanning the kernel's branch space."""
    full = RaidGroupConfig(
        n_data=3,
        time_to_op=Exponential(2_000.0),
        time_to_restore=Exponential(50.0),
        time_to_latent=Exponential(1_500.0),
        time_to_scrub=Exponential(100.0),
        mission_hours=8_760.0,
    )
    weibull = RaidGroupConfig(
        n_data=5,
        time_to_op=Weibull(shape=1.2, scale=5_000.0),
        time_to_restore=Weibull(shape=2.0, scale=24.0, location=6.0),
        time_to_latent=Weibull(shape=0.9, scale=4_000.0),
        time_to_scrub=Weibull(shape=3.0, scale=168.0),
        mission_hours=17_520.0,
    )
    return {
        "latent+scrub": full,
        "weibull": weibull,
        "no-scrub": dataclasses.replace(full, time_to_scrub=None),
        "no-latent": dataclasses.replace(full, time_to_latent=None, time_to_scrub=None),
        "raid6": dataclasses.replace(full, n_parity=2),
    }


def chronology_payload(chronologies):
    """Everything a chronology reports, as a comparable structure."""
    return [
        (
            c.ddf_times,
            c.ddf_types,
            c.n_op_failures,
            c.n_latent_defects,
            c.n_scrub_repairs,
            c.n_restores,
        )
        for c in chronologies
    ]


def kernel_arguments(layout, seed):
    """``(n_groups, rng)`` for 160 groups as one shard or three uneven ones."""
    if layout == "one-shard":
        return 160, np.random.default_rng(seed)
    children = np.random.SeedSequence(seed).spawn(3)
    return [70, 1, 89], [np.random.default_rng(c) for c in children]


class TestCompactionByteIdentity:
    """Compaction policy must be invisible in the results."""

    @pytest.mark.parametrize("name", ["latent+scrub", "weibull", "no-scrub", "no-latent", "raid6"])
    @pytest.mark.parametrize("seed", [0, 13])
    def test_aggressive_equals_never(self, kernel_configs, monkeypatch, name, seed):
        # Also for three uneven shards in one call, where every compaction
        # remaps the shard row bounds the draws are split at.
        config = kernel_configs[name]
        for layout in ("one-shard", "three-shards"):
            monkeypatch.setattr(batch_module, "COMPACT_RATIO", 1.0)
            monkeypatch.setattr(batch_module, "COMPACT_MIN_ROWS", 1)
            compacted = simulate_groups_batch(config, *kernel_arguments(layout, seed))
            monkeypatch.setattr(batch_module, "COMPACT_MIN_ROWS", 10**9)
            untouched = simulate_groups_batch(config, *kernel_arguments(layout, seed))
            assert chronology_payload(compacted) == chronology_payload(untouched), layout

    def test_default_policy_matches_never(self, kernel_configs, monkeypatch):
        config = kernel_configs["latent+scrub"]
        default = simulate_groups_batch(config, 300, np.random.default_rng(5))
        monkeypatch.setattr(batch_module, "COMPACT_MIN_ROWS", 10**9)
        untouched = simulate_groups_batch(config, 300, np.random.default_rng(5))
        assert chronology_payload(default) == chronology_payload(untouched)


class TestThroughputObservability:
    def test_progress_event_reports_shard_throughput(self):
        events = []
        runner = MonteCarloRunner(
            RaidGroupConfig.paper_base_case(), n_groups=600, seed=0, engine="batch"
        )
        runner.run_streaming(observers=(events.append,))
        assert len(events) == 2  # shards of 512 and 88 at the default size
        previous_groups = 0
        for event in events:
            shard_groups = event.groups_completed - previous_groups
            previous_groups = event.groups_completed
            # Shard throughput derives from the worker's own monotonic
            # clock (shard_seconds), not observer-side wall-clock deltas.
            assert event.shard_seconds > 0
            assert event.shard_groups_per_second == pytest.approx(
                shard_groups / event.shard_seconds, rel=1e-9
            )

    def test_manifest_carries_throughput(self):
        runner = MonteCarloRunner(
            RaidGroupConfig.paper_base_case(), n_groups=300, seed=0, engine="batch"
        )
        manifest = runner.run_streaming().to_manifest()
        assert manifest["groups_per_second"] > 0
        executor = manifest["executor"]
        assert executor["groups_committed"] == 300
        assert executor["groups_per_second"] > 0

    def test_reporter_shows_shard_rate(self):
        import io

        from repro.simulation import StderrProgressReporter
        from repro.simulation.streaming import ProgressEvent

        stream = io.StringIO()
        event = ProgressEvent(
            shards_completed=1,
            groups_completed=512,
            total_ddfs=3,
            ddfs_per_1000=5.9,
            ci_lo=1.0,
            ci_hi=10.0,
            rel_ci_width=float("inf"),
            elapsed_seconds=1.0,
            groups_per_second=512.0,
            converged=False,
            done=True,
            shard_seconds=0.25,
            shard_groups_per_second=2048.0,
        )
        StderrProgressReporter(stream=stream)(event)
        assert "[shard 2048/s]" in stream.getvalue()


@pytest.fixture
def kernel_calls(monkeypatch):
    """The ``n_groups`` argument of every batch-kernel call the runner makes."""
    calls = []
    real = monte_carlo.simulate_groups_batch

    def spy(config, n_groups, rng):
        calls.append(n_groups)
        return real(config, n_groups, rng)

    monkeypatch.setattr(monte_carlo, "simulate_groups_batch", spy)
    return calls


def canonical(streaming) -> str:
    return json.dumps(streaming.accumulator.to_dict(), sort_keys=True)


ONE_YEAR = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
#: A shard size that puts four shards in every fixed-size kernel call.
QUARTER = KERNEL_ROWS // 4


class TestSeveralShardsPerCall:
    def test_kernel_rejects_mismatched_shards(self):
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        with pytest.raises(SimulationError):
            simulate_groups_batch(ONE_YEAR, [10, 10, 10], rngs)
        with pytest.raises(SimulationError):
            simulate_groups_batch(ONE_YEAR, 10, rngs)
        with pytest.raises(SimulationError):
            simulate_groups_batch(ONE_YEAR, [10, 0], rngs)

    def test_interrupt_and_resume_across_a_call(self, kernel_calls, tmp_path):
        runner = MonteCarloRunner(
            ONE_YEAR, n_groups=6 * QUARTER + 100, seed=21, engine="batch"
        )
        reference = canonical(runner.run_streaming(shard_size=QUARTER))
        assert kernel_calls == [[QUARTER] * 4, [QUARTER, QUARTER, 100]]

        del kernel_calls[:]
        path = str(tmp_path / "run.ckpt")
        interrupted = runner.run_streaming(
            shard_size=QUARTER, checkpoint_path=path, stop_after_shards=3
        )
        assert interrupted.stop_reason == "interrupted"
        assert interrupted.shards_run == 3
        resumed = runner.run_streaming(shard_size=QUARTER, resume_from=path)
        # The interruption cuts the plan: nothing past shard 3 is
        # simulated until the resume picks up at shard 4.
        assert kernel_calls == [[QUARTER] * 3, [QUARTER] * 3 + [100]]
        assert resumed.stop_reason == "fixed"
        assert canonical(resumed) == reference

    def test_checkpoint_follows_every_shard(self, kernel_calls, tmp_path):
        path = str(tmp_path / "run.ckpt")
        seen = []

        def observer(event):
            checkpoint = load_checkpoint(path)
            assert checkpoint.shards_completed == event.shards_completed
            seen.append((checkpoint.shards_completed, checkpoint.groups_completed))

        runner = MonteCarloRunner(ONE_YEAR, n_groups=5 * QUARTER, seed=22, engine="batch")
        runner.run_streaming(
            shard_size=QUARTER, checkpoint_path=path, observers=(observer,)
        )
        assert len(kernel_calls) == 2
        assert seen == [(k, k * QUARTER) for k in range(1, 6)]

    def test_precision_target_runs_one_shard_per_call(self, kernel_calls):
        shard = 128
        config = RaidGroupConfig.paper_base_case()
        precision = Precision(rel_ci_width=0.3)
        runner = MonteCarloRunner(config, n_groups=32 * shard, seed=23, engine="batch")
        converged = runner.run_streaming(until=precision, shard_size=shard)
        assert converged.stop_reason == "converged"
        stop = converged.shards_run
        # One call per shard, and none past the stopping shard.
        assert kernel_calls == [shard] * stop

        # It stops at the first shard whose accumulator meets the target,
        # and equals the fixed run of that many shards.
        def fixed(n_shards):
            return MonteCarloRunner(
                config, n_groups=n_shards * shard, seed=23, engine="batch"
            ).run_streaming(shard_size=shard)

        assert canonical(fixed(stop)) == canonical(converged)
        assert not precision.satisfied_by(fixed(stop - 1).accumulator)

    def test_service_shard_size_runs_eight_shards_per_call(self, kernel_calls):
        runner = MonteCarloRunner(ONE_YEAR, n_groups=9 * 256, seed=24, engine="batch")
        assert runner.run_streaming(shard_size=256).shards_run == 9
        assert kernel_calls == [[256] * 8, 256]

    def test_materialized_run_matches_streaming(self, kernel_calls):
        runner = MonteCarloRunner(
            ONE_YEAR, n_groups=5 * 512 + 7, seed=25, engine="batch"
        )
        materialized = runner.run()
        assert kernel_calls == [[512] * 4, [512, 7]]
        assert canonical(runner.run_streaming()) == json.dumps(
            materialized.to_accumulator().to_dict(), sort_keys=True
        )

    def test_shard_times_split_the_call_time_by_groups(self, monkeypatch):
        # A clock that moves only inside kernel calls, 1 s per call.
        clock = [0.0]
        real = monte_carlo.simulate_groups_batch

        def timed_kernel(config, n_groups, rng):
            clock[0] += 1.0
            return real(config, n_groups, rng)

        monkeypatch.setattr(monte_carlo, "simulate_groups_batch", timed_kernel)
        monkeypatch.setattr(
            monte_carlo, "time", types.SimpleNamespace(perf_counter=lambda: clock[0])
        )
        events = []
        total = 3 * QUARTER + 40  # one call: three full shards and a short one
        runner = MonteCarloRunner(ONE_YEAR, n_groups=total, seed=26, engine="batch")
        streaming = runner.run_streaming(shard_size=QUARTER, observers=(events.append,))
        shares = [QUARTER / total] * 3 + [40 / total]
        assert [e.shard_seconds for e in events] == pytest.approx(shares, rel=1e-12)
        assert sum(e.shard_seconds for e in events) == pytest.approx(1.0, rel=1e-12)
        for event in events:
            assert event.shard_groups_per_second == pytest.approx(total, rel=1e-12)
        # The manifest's rate stays groups over summed shard time.
        executor = streaming.to_manifest()["executor"]
        assert executor["groups_per_second"] == pytest.approx(total, rel=1e-12)
