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
  reports and stops shard by shard exactly as with one shard per call;
  a precision target sizes each run from its estimate and drops what it
  simulated past the stopping shard;
* the seven golden fingerprints (:mod:`.goldens`) pin the NumPy kernel
  byte for byte;
* per-shard summaries — a run that keeps no chronologies summarizes each
  shard from the kernel's per-group arrays without building one, into
  the bytes ``FleetAccumulator.add_shard`` gives over the chronologies.
"""

import dataclasses
import json
import math
import types

import numpy as np
import pytest

import repro.simulation.batch as batch_module
import repro.simulation.executor as executor_module
import repro.simulation.monte_carlo as monte_carlo
from repro.distributions import Exponential, Weibull
from repro.exceptions import SimulationError
from repro.simulation import (
    FleetAccumulator,
    Precision,
    RaidGroupConfig,
    load_checkpoint,
    simulate_raid_groups,
)
from repro.simulation.batch import _BlockSampler, simulate_groups_batch
from repro.simulation.monte_carlo import KERNEL_ROWS, MonteCarloRunner
from repro.simulation.raid_simulator import GroupChronology

from .goldens import (
    GOLDEN_BATCH_FINGERPRINTS,
    chronology_fingerprint,
    golden_batch_cases,
    hot_config,
)


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
    """The ``n_groups`` argument of every in-process batch-kernel call."""
    calls = []
    real = executor_module.simulate_groups_batch

    def spy(config, n_groups, rng, **kwargs):
        calls.append(n_groups)
        return real(config, n_groups, rng, **kwargs)

    monkeypatch.setattr(executor_module, "simulate_groups_batch", spy)
    return calls


def canonical(streaming) -> str:
    return json.dumps(streaming.accumulator.to_dict(), sort_keys=True)


def without_clock(path) -> dict:
    """A checkpoint's contents minus its wall clock."""
    state = load_checkpoint(path).to_dict()
    del state["elapsed_seconds"]
    return state


def estimated_runs(widths, precision, shard, n_shards):
    """``(runs, stop)`` of a serial precision run over equal shards.

    ``widths[i]`` is the relative CI width after shard ``i + 1``.  Each
    run is sized when it starts: the groups still missing to
    ``min_groups``, then ``n * (w / target)**2 - n``, within one kernel
    call and the rest of the plan.  ``runs`` ends with the run holding
    ``stop``, the first shard that meets the target (``None`` if none).
    """
    runs, done = [], 0
    while done < n_shards:
        n = done * shard
        if n < precision.min_groups:
            needed = precision.min_groups - n
        elif math.isinf(widths[done - 1]):
            needed = math.inf
        else:
            ratio = widths[done - 1] / precision.rel_ci_width
            needed = n * ratio * ratio - n
        wanted = math.ceil(min(needed / shard, n_shards))
        runs.append(max(1, min(KERNEL_ROWS // shard, wanted, n_shards - done)))
        for k in range(done + 1, done + runs[-1] + 1):
            met = widths[k - 1] <= precision.rel_ci_width
            if met and k * shard >= precision.min_groups:
                return runs, k
        done += runs[-1]
    return runs, None


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

    def test_checkpoint_follows_every_run(self, kernel_calls, tmp_path):
        # Every event finds the file at the end of its own run, or at the
        # stop: never behind the event, and never past its run.
        path = str(tmp_path / "run.ckpt")
        seen = []

        def observer(event):
            checkpoint = load_checkpoint(path)
            seen.append(
                (
                    event.shards_completed,
                    checkpoint.shards_completed,
                    checkpoint.groups_completed,
                )
            )

        runner = MonteCarloRunner(ONE_YEAR, n_groups=5 * QUARTER, seed=22, engine="batch")
        runner.run_streaming(
            shard_size=QUARTER, checkpoint_path=path, observers=(observer,)
        )
        assert kernel_calls == [[QUARTER] * 4, QUARTER]
        assert seen == [(k, 4, 4 * QUARTER) for k in range(1, 5)] + [
            (5, 5, 5 * QUARTER)
        ]

        # A precision target met at shard 9, the 7th of the second run
        # (shards 3-10): shards 3-9 find the file at the stop.
        del kernel_calls[:], seen[:]
        shard = 128
        runner = MonteCarloRunner(
            RaidGroupConfig.paper_base_case(), n_groups=32 * shard, seed=29, engine="batch"
        )
        converged = runner.run_streaming(
            until=Precision(rel_ci_width=0.3),
            shard_size=shard,
            checkpoint_path=path,
            observers=(observer,),
        )
        assert converged.stop_reason == "converged"
        assert kernel_calls == [[shard] * 2, [shard] * 8]
        assert seen == [(k, 2, 2 * shard) for k in (1, 2)] + [
            (k, 9, 9 * shard) for k in range(3, 10)
        ]

    def test_precision_target_runs_follow_the_estimate(self, kernel_calls):
        # An unreachable target simulates the groups still missing to
        # min_groups, then is cut like the fixed run of its cap.
        runner = MonteCarloRunner(ONE_YEAR, n_groups=9 * 256, seed=24, engine="batch")
        capped = runner.run_streaming(
            until=Precision(rel_ci_width=1e-9), shard_size=256
        )
        assert capped.stop_reason == "max_groups"
        assert kernel_calls == [256, [256] * 8]

        del kernel_calls[:]
        shard = 128
        config = RaidGroupConfig.paper_base_case()
        precision = Precision(rel_ci_width=0.2)
        runner = MonteCarloRunner(config, n_groups=32 * shard, seed=23, engine="batch")
        events = []
        converged = runner.run_streaming(
            until=precision, shard_size=shard, observers=(events.append,)
        )
        assert converged.stop_reason == "converged"
        stop = converged.shards_run
        runs = [len(call) if isinstance(call, list) else 1 for call in kernel_calls]
        widths = [event.rel_ci_width for event in events]
        assert (runs, stop) == estimated_runs(widths, precision, shard, 32)
        assert runs[0] == precision.min_groups // shard
        assert len(runs) > 2
        assert converged.executor_stats["discarded_in_flight"] == sum(runs) - stop

        # It stops at the first shard whose accumulator meets the target,
        # and equals the fixed run of that many shards.
        def fixed(n_shards):
            return MonteCarloRunner(
                config, n_groups=n_shards * shard, seed=23, engine="batch"
            ).run_streaming(shard_size=shard)

        assert canonical(fixed(stop)) == canonical(converged)
        assert not precision.satisfied_by(fixed(stop - 1).accumulator)

    def test_precision_stop_inside_a_run_drops_the_rest(self, kernel_calls, tmp_path):
        # Two shards reach min_groups; the estimate then asks for 8 more,
        # but the target is met at shard 9, the 7th of that call: shard 10
        # never reaches the accumulator, the checkpoint or an observer.
        shard = 128
        precision = Precision(rel_ci_width=0.3)
        config = RaidGroupConfig.paper_base_case()
        runner = MonteCarloRunner(config, n_groups=32 * shard, seed=29, engine="batch")
        path = str(tmp_path / "run.ckpt")
        events = []
        converged = runner.run_streaming(
            until=precision,
            shard_size=shard,
            checkpoint_path=path,
            observers=(events.append,),
        )
        assert kernel_calls == [[shard] * 2, [shard] * 8]
        assert converged.shards_run == 9
        assert [e.shards_completed for e in events] == list(range(1, 10))
        assert load_checkpoint(path).shards_completed == 9
        # Serially, less than one run is dropped per stop.
        discarded = converged.executor_stats["discarded_in_flight"]
        assert discarded == 1 <= KERNEL_ROWS // shard - 1

    def test_interrupted_precision_run_resumes_identically(
        self, kernel_calls, tmp_path
    ):
        shard = 64
        precision = Precision(rel_ci_width=0.5, min_groups=64)
        config = RaidGroupConfig.paper_base_case()
        runner = MonteCarloRunner(config, n_groups=100 * shard, seed=3, engine="batch")
        reference_path = str(tmp_path / "reference.ckpt")
        reference = runner.run_streaming(
            until=precision, shard_size=shard, checkpoint_path=reference_path
        )
        assert reference.stop_reason == "converged"
        # Shards 2-15 share one call, so the interruption at 4 cuts a run.
        assert kernel_calls == [shard, [shard] * 14]

        del kernel_calls[:]
        path = str(tmp_path / "run.ckpt")
        interrupted = runner.run_streaming(
            until=precision, shard_size=shard, checkpoint_path=path, stop_after_shards=4
        )
        assert interrupted.stop_reason == "interrupted"
        assert interrupted.executor_stats["discarded_in_flight"] == 0
        assert kernel_calls == [shard, [shard] * 3]
        resumed = runner.run_streaming(
            until=precision, shard_size=shard, checkpoint_path=path, resume_from=path
        )
        assert resumed.stop_reason == "converged"
        assert resumed.shards_run == reference.shards_run
        assert canonical(resumed) == canonical(reference)
        assert without_clock(path) == without_clock(reference_path)

    def test_materialized_precision_run_keeps_committed_shards(self, kernel_calls):
        # Default 512-group shards: one reaches min_groups, the estimate
        # asks for three more, and the target is met at the second.
        config = hot_config()
        precision = Precision(rel_ci_width=0.055)
        runner = MonteCarloRunner(config, n_groups=8 * 512, seed=7, engine="batch")
        result = runner.run(until=precision)
        assert kernel_calls == [512, [512] * 3]
        assert result.streaming.stop_reason == "converged"
        assert result.streaming.shards_run == 3
        assert result.streaming.executor_stats["discarded_in_flight"] == 1
        assert result.n_groups == result.streaming.groups == 1536
        fixed = MonteCarloRunner(config, n_groups=1536, seed=7, engine="batch").run()
        assert chronology_payload(result.chronologies) == chronology_payload(
            fixed.chronologies
        )

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
        real = executor_module.simulate_groups_batch

        def timed_kernel(config, n_groups, rng, **kwargs):
            clock[0] += 1.0
            return real(config, n_groups, rng, **kwargs)

        monkeypatch.setattr(executor_module, "simulate_groups_batch", timed_kernel)
        # The serial loop times its runs in the executor's run function.
        monkeypatch.setattr(
            executor_module, "time", types.SimpleNamespace(perf_counter=lambda: clock[0])
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


class TestGoldenBatchFingerprints:
    def test_corpus_is_seven(self):
        assert len(GOLDEN_BATCH_FINGERPRINTS) == 7
        assert set(golden_batch_cases()) == set(GOLDEN_BATCH_FINGERPRINTS)

    @pytest.mark.parametrize("name", sorted(GOLDEN_BATCH_FINGERPRINTS))
    def test_numpy_batch_path_is_byte_stable(self, name):
        config, n_groups, seed = golden_batch_cases()[name]
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        chronos = simulate_groups_batch(config, n_groups, rng)
        assert chronology_fingerprint(chronos) == GOLDEN_BATCH_FINGERPRINTS[name], (
            f"{name}: the NumPy batch path moved — if this is a deliberate "
            "semantic change, regenerate the fingerprint in this commit"
        )

    @pytest.mark.parametrize("name", sorted(GOLDEN_BATCH_FINGERPRINTS))
    def test_multi_shard_call_equals_per_shard_calls(self, name):
        # Uneven shards with a 1-group one in the middle: it drains long
        # before its neighbours, so every later draw is split around an
        # empty part and compaction remaps the shard bounds.
        config, n_groups, seed = golden_batch_cases()[name]
        sizes = [n_groups // 3, 1, n_groups - n_groups // 3 - 1]
        children = np.random.SeedSequence(seed).spawn(len(sizes))

        def generators():
            return [np.random.Generator(np.random.PCG64(c)) for c in children]

        per_shard = [
            chrono
            for n, rng in zip(sizes, generators())
            for chrono in simulate_groups_batch(config, n, rng)
        ]
        together = simulate_groups_batch(config, sizes, generators())
        assert chronology_fingerprint(together) == chronology_fingerprint(per_shard)


def summary_bytes(summary) -> str:
    return json.dumps(summary.to_dict(), sort_keys=True)


class TestKernelSummaries:
    """The kernel's per-group arrays summarize each shard into the bytes
    ``add_shard`` gives over the shard's chronologies, on every golden
    case, with and without a time grid."""

    @staticmethod
    def grid_for(config, chronologies, with_grid):
        """None, or curve ages that include some of the fleet's DDF times,
        so DDFs fall on grid points."""
        if not with_grid:
            return None
        times = sorted(t for c in chronologies for t in c.ddf_times)[:3]
        ages = np.linspace(0.0, config.mission_hours, 9).tolist()
        return sorted(set(ages + [min(config.mission_hours, 8_760.0)] + times))

    @pytest.mark.parametrize("with_grid", [False, True], ids=["no-grid", "grid"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_BATCH_FINGERPRINTS))
    def test_arrays_summarize_like_add_shard(self, name, with_grid):
        config, n_groups, seed = golden_batch_cases()[name]
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        groups = simulate_groups_batch(config, n_groups, rng, as_arrays=True)
        chronologies = groups.chronologies()
        assert chronology_fingerprint(chronologies) == GOLDEN_BATCH_FINGERPRINTS[name]
        grid = self.grid_for(config, chronologies, with_grid)
        [summary] = groups.summaries([n_groups], grid)
        expected = FleetAccumulator(config.mission_hours, time_grid=grid)
        expected.add_shard(chronologies)
        assert summary_bytes(summary) == summary_bytes(expected)

        # Cut into uneven shards with a 1-group one, each summary is its
        # own shard's, and they merge back into the whole.
        sizes = [n_groups // 3, 1, n_groups - n_groups // 3 - 1]
        children = np.random.SeedSequence(seed).spawn(len(sizes))
        rngs = [np.random.Generator(np.random.PCG64(c)) for c in children]
        groups = simulate_groups_batch(config, sizes, rngs, as_arrays=True)
        chronologies = groups.chronologies()
        merged = FleetAccumulator(config.mission_hours, time_grid=grid)
        start = 0
        for n, part in zip(sizes, groups.summaries(sizes, grid)):
            expected = FleetAccumulator(config.mission_hours, time_grid=grid)
            expected.add_shard(chronologies[start : start + n])
            assert summary_bytes(part) == summary_bytes(expected)
            merged.merge(part)
            start += n
        whole = FleetAccumulator(config.mission_hours, time_grid=grid)
        whole.add_shard(chronologies)
        assert summary_bytes(merged) == summary_bytes(whole)

    def test_serial_summary_run_builds_no_chronology(self, monkeypatch):
        built = []
        init = GroupChronology.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GroupChronology, "__init__", counting_init)
        base = RaidGroupConfig.paper_base_case()
        runner = MonteCarloRunner(base, n_groups=5 * 512 + 7, seed=27, engine="batch")
        grid = [0.0, 8_760.0, 43_800.0, 87_600.0]
        streaming = runner.run_streaming(time_grid=grid)
        assert streaming.groups == 5 * 512 + 7
        assert streaming.accumulator.total_ddfs > 0
        assert built == []
        # The counter sees chronologies where they are built.
        kept = runner.run_streaming(time_grid=grid, keep_chronologies=True)
        assert len(built) == 5 * 512 + 7
        assert canonical(kept) == canonical(streaming)


def target_met_inside_a_run(widths, shard):
    """``(precision, runs, k)``: a target first met at shard ``k``, inside
    a serial run that simulates past it (see :func:`estimated_runs`).

    Candidate targets lie midway between a record-low width and the
    lowest one before it (twice the width when none before is finite),
    at ``min_groups`` 1 and 256; the median candidate that stops inside
    a run is taken.
    """
    targets, best = [], math.inf
    for width in widths[:-1]:
        if width < best:
            targets.append((width + best) / 2.0 if math.isfinite(best) else 2.0 * width)
            best = width
    inside = []
    for min_groups in (1, 256):
        for target in targets:
            precision = Precision(rel_ci_width=target, min_groups=min_groups)
            runs, k = estimated_runs(widths, precision, shard, len(widths))
            if k is not None and sum(runs) > k:
                inside.append((precision, runs, k))
    assert inside, f"no target stops inside a run for widths {widths}"
    return inside[len(inside) // 2]


class TestGoldenPrecisionRuns:
    """Grouped precision runs against one-shard-per-call runs, per golden."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_BATCH_FINGERPRINTS))
    def test_grouped_run_equals_one_shard_per_call(self, name, tmp_path, monkeypatch):
        config, _, seed = golden_batch_cases()[name]
        # 32 shards; the rare-DDF no-latent case needs a larger fleet
        # before its width is defined.
        n_groups = 8192 if name == "no-latent" else 2048
        shard = n_groups // 32
        runner = MonteCarloRunner(config, n_groups=n_groups, seed=seed, engine="batch")
        events = []
        runner.run_streaming(shard_size=shard, observers=(events.append,))
        widths = [event.rel_ci_width for event in events]
        precision, runs, k = target_met_inside_a_run(widths, shard)

        grouped_path = str(tmp_path / "grouped.ckpt")
        grouped = runner.run_streaming(
            until=precision, shard_size=shard, checkpoint_path=grouped_path
        )
        # One shard per kernel call: a kernel as wide as one shard.
        monkeypatch.setattr(monte_carlo, "KERNEL_ROWS", shard)
        single_path = str(tmp_path / "single.ckpt")
        single = runner.run_streaming(
            until=precision, shard_size=shard, checkpoint_path=single_path
        )
        fixed = MonteCarloRunner(
            config, n_groups=k * shard, seed=seed, engine="batch"
        ).run_streaming(shard_size=shard)
        # The target was met inside a multi-shard run.
        assert grouped.executor_stats["discarded_in_flight"] == sum(runs) - k > 0
        assert single.executor_stats["discarded_in_flight"] == 0
        assert grouped.stop_reason == single.stop_reason == "converged"
        assert grouped.shards_run == single.shards_run == k
        assert canonical(grouped) == canonical(single) == canonical(fixed)
        assert without_clock(grouped_path) == without_clock(single_path)
