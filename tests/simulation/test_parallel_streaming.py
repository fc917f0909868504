"""Pipelined parallel shard executor: determinism, resume, fault tolerance.

The executor's contract is that ``n_jobs`` never changes numbers, only
wall-clock: a streaming or materialized run with ``n_jobs>1`` must be
bit-identical to ``n_jobs=1`` on every engine — for fixed-size and
convergence-stopped fleets, through checkpoint/resume, and across worker
crashes (a lost run of shards is reseeded from its indices and retried) —
however the plan is cut into runs of shards.
"""

import functools
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro
from repro.exceptions import SimulationError
from repro.simulation import Precision, RaidGroupConfig
from repro.simulation.executor import (
    _POOLS,
    PipelinedShardExecutor,
    ShardTask,
    _child_seed,
    _run_shard_task,
    shard_plan,
    simulate_shards,
)
from repro.simulation.monte_carlo import (
    BATCH_SHARD_SIZE,
    KERNEL_ROWS,
    MonteCarloRunner,
    _seed_state,
    _shards_per_run,
)

from .test_batch_kernel import without_clock

SHARD = 32
N_GROUPS = 160

CRASH_SHARD = 1


def crash_once_worker(crash_dir, task):
    """Kill the worker on shard CRASH_SHARD's first attempt, then succeed.

    ``crash_dir`` counts attempts across worker processes.  Bind it with
    :func:`functools.partial`: a warm pool's workers were spawned before
    the test, so they never see environment variables it sets.
    """
    if task.index == CRASH_SHARD:
        attempts = len(os.listdir(crash_dir))
        if attempts < 1:
            open(os.path.join(crash_dir, f"attempt{attempts}"), "w").close()
            os._exit(1)
    return _run_shard_task(task)


def always_crash_worker(task):
    """Kill the worker on every attempt at shard CRASH_SHARD."""
    if task.index == CRASH_SHARD:
        os._exit(1)
    return _run_shard_task(task)


def canonical(streaming) -> str:
    return json.dumps(streaming.accumulator.to_dict(), sort_keys=True)


def make_runner(engine: str, **overrides) -> MonteCarloRunner:
    config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
    kwargs = dict(n_groups=N_GROUPS, seed=11, engine=engine)
    kwargs.update(overrides)
    return MonteCarloRunner(config, **kwargs)


class TestShardPlan:
    def test_plan_covers_target(self):
        plan = shard_plan(0, 0, 100, 32)
        assert [t.n_groups for t in plan] == [32, 32, 32, 4]
        assert [t.index for t in plan] == [0, 1, 2, 3]
        assert [t.group_offset for t in plan] == [0, 32, 64, 96]

    def test_resumed_plan_is_a_suffix(self):
        whole = shard_plan(0, 0, 100, 32)
        resumed = shard_plan(2, 64, 100, 32)
        assert resumed == whole[2:]

    def test_complete_cursor_yields_empty_plan(self):
        assert shard_plan(4, 100, 100, 32) == []

    def test_plan_prefix_stable_under_larger_target(self):
        small = shard_plan(0, 0, 64, 32)
        large = shard_plan(0, 0, 1000, 32)
        assert large[: len(small)] == small


class TestRunLength:
    def test_batch_runs_fill_the_kernel_width(self):
        # 128 shards of 512 over 2 workers: 2,048-row runs.
        assert _shards_per_run("batch", 512, 128, 2) == 4
        assert _shards_per_run("batch", 256, 100, 1) == 8

    def test_small_plan_reaches_every_worker(self):
        # 5 shards at n_jobs=3: runs of 2, 2 and 1.
        assert _shards_per_run("batch", 512, 5, 3) == 2
        assert _shards_per_run("batch", SHARD, 5, 2) == 3
        assert _shards_per_run("batch", 512, 2, 4) == 1

    def test_wide_shards_and_other_engines_go_one_at_a_time(self):
        assert _shards_per_run("batch", 4096, 10, 1) == 1
        assert _shards_per_run("event", 512, 128, 2) == 1


class TestChildSeedReconstruction:
    def test_matches_sequential_spawn(self):
        root = np.random.SeedSequence(1234)
        state = _seed_state(root)
        children = np.random.SeedSequence(1234).spawn(6)
        for index, child in enumerate(children):
            rebuilt = _child_seed(state, index)
            assert (
                rebuilt.generate_state(8) == child.generate_state(8)
            ).all(), f"child {index} diverged"


class TestParallelDeterminism:
    """Acceptance: n_jobs>1 is bit-identical to n_jobs=1, both engines."""

    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_fixed_size_bit_identical(self, engine, tmp_path):
        serial_ckpt = str(tmp_path / "serial.ckpt")
        parallel_ckpt = str(tmp_path / "parallel.ckpt")
        serial = make_runner(engine).run_streaming(
            shard_size=SHARD, checkpoint_path=serial_ckpt
        )
        events = []
        parallel = make_runner(engine, n_jobs=3).run_streaming(
            shard_size=SHARD, checkpoint_path=parallel_ckpt, observers=(events.append,)
        )
        assert canonical(parallel) == canonical(serial)
        assert parallel.groups == serial.groups == N_GROUPS
        assert parallel.executor_stats["mode"] == "pipelined"
        assert serial.executor_stats["mode"] == "serial"
        # Checkpoints agree on everything but wall clock.
        assert without_clock(serial_ckpt) == without_clock(parallel_ckpt)
        # Executor telemetry rides on the progress events.
        assert events and events[-1].done
        assert all(event.shard_seconds > 0.0 for event in events)
        assert all(event.queue_depth >= 0 for event in events)
        # In flight: the rest of the shard's run plus at most three runs.
        per_run = _shards_per_run(engine, SHARD, N_GROUPS // SHARD, 3)
        assert max(event.queue_depth for event in events) <= per_run - 1 + 3 * per_run
        assert events[-1].queue_depth == 0

    def test_precision_run_bit_identical_and_discards_speculation(self):
        until = Precision(rel_ci_width=2.0, min_groups=64)
        serial = make_runner("batch", n_groups=512, seed=5).run_streaming(
            until=until, shard_size=64
        )
        parallel = make_runner("batch", n_groups=512, seed=5, n_jobs=3).run_streaming(
            until=until, shard_size=64
        )
        assert serial.stop_reason == parallel.stop_reason == "converged"
        assert serial.groups == parallel.groups
        assert canonical(parallel) == canonical(serial)
        # The run converged before the plan was exhausted, so the executor
        # had speculative shards in flight that were thrown away.
        assert parallel.executor_stats["discarded_in_flight"] > 0

    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_grouped_precision_run_bit_identical_and_bounded(self, n_jobs, tmp_path):
        # 200 shards in runs of up to 64: two reach min_groups, the rest
        # are sized from the estimate; the target is met at shard 160,
        # inside a run, on both paths.
        until = Precision(rel_ci_width=0.5, min_groups=64)
        serial_ckpt = str(tmp_path / "serial.ckpt")
        parallel_ckpt = str(tmp_path / "parallel.ckpt")
        serial = make_runner("batch", n_groups=200 * SHARD).run_streaming(
            until=until, shard_size=SHARD, checkpoint_path=serial_ckpt
        )
        pooled = make_runner("batch", n_groups=200 * SHARD, n_jobs=n_jobs)
        parallel = pooled.run_streaming(
            until=until, shard_size=SHARD, checkpoint_path=parallel_ckpt
        )
        assert serial.stop_reason == parallel.stop_reason == "converged"
        assert serial.shards_run == parallel.shards_run == 160
        assert canonical(parallel) == canonical(serial)
        assert without_clock(serial_ckpt) == without_clock(parallel_ckpt)
        # Dropped past the stop: less than one run serially; the rest of
        # the stopping shard's run plus at most n_jobs runs on the pool.
        per_run = KERNEL_ROWS // SHARD
        assert 0 < serial.executor_stats["discarded_in_flight"] <= per_run - 1
        dropped = parallel.executor_stats["discarded_in_flight"]
        assert 0 < dropped <= per_run - 1 + n_jobs * per_run

    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_interrupt_resume_parallel_bit_identical(self, engine, tmp_path):
        reference = canonical(make_runner(engine).run_streaming(shard_size=SHARD))
        path = str(tmp_path / "run.ckpt")
        interrupted = make_runner(engine, n_jobs=3).run_streaming(
            shard_size=SHARD, checkpoint_path=path, stop_after_shards=2
        )
        assert interrupted.stop_reason == "interrupted"
        # The interruption cuts the plan: nothing past it was simulated.
        assert interrupted.executor_stats["discarded_in_flight"] == 0
        resumed = make_runner(engine, n_jobs=3).run_streaming(
            shard_size=SHARD, checkpoint_path=path, resume_from=path
        )
        assert resumed.stop_reason == "fixed"
        assert resumed.groups == N_GROUPS
        assert canonical(resumed) == reference

    def test_keep_chronologies_matches_serial(self):
        serial = make_runner("event", n_groups=64).run_streaming(
            shard_size=SHARD, keep_chronologies=True
        )
        parallel = make_runner("event", n_groups=64, n_jobs=2).run_streaming(
            shard_size=SHARD, keep_chronologies=True
        )
        assert parallel.result is not None
        assert parallel.result.summary() == serial.result.summary()
        assert len(parallel.result.chronologies) == 64

    def test_kernel_width_runs_bit_identical(self, tmp_path):
        # 10 shards of 512 over 2 workers: pool runs of 4, 4 and 2 shards,
        # each one 2,048-row kernel call at most.
        n_groups = 9 * BATCH_SHARD_SIZE + 37
        assert _shards_per_run("batch", BATCH_SHARD_SIZE, 10, 2) == 4
        serial = make_runner("batch", n_groups=n_groups).run_streaming()
        events = []
        parallel = make_runner("batch", n_groups=n_groups, n_jobs=2).run_streaming(
            observers=(events.append,)
        )
        assert canonical(parallel) == canonical(serial)
        assert [event.shards_completed for event in events] == list(range(1, 11))
        assert parallel.executor_stats["n_jobs"] == 2
        # In flight: the rest of a run of four plus at most two such runs.
        assert max(event.queue_depth for event in events) <= 3 + 8

    def test_materialized_batch_run_matches_serial(self):
        # Six shards, the last one short: pool runs of 3 and 3 shards,
        # in-process runs of 4 and 2.
        n_groups = 5 * BATCH_SHARD_SIZE + 100
        serial = make_runner("batch", n_groups=n_groups).run()
        parallel = make_runner("batch", n_groups=n_groups, n_jobs=2).run()
        assert parallel.n_groups == n_groups
        assert [c.ddf_times for c in parallel.chronologies] == [
            c.ddf_times for c in serial.chronologies
        ]
        assert json.dumps(
            parallel.to_accumulator().to_dict(), sort_keys=True
        ) == json.dumps(serial.to_accumulator().to_dict(), sort_keys=True)


class TestWorkerFaultTolerance:
    def test_crashed_shard_is_reseeded_and_retried(self, tmp_path):
        """The hook kills the worker at shard 1, the middle of the first
        pool run (shards 0-2): the whole run is lost, reseeded and
        re-run once, so every shard of it shows one retry."""
        crash_dir = tmp_path / "crashes"
        crash_dir.mkdir()
        assert _shards_per_run("batch", SHARD, N_GROUPS // SHARD, 2) == 3
        reference = canonical(make_runner("batch").run_streaming(shard_size=SHARD))
        events = []
        streaming = make_runner("batch", n_jobs=2).run_streaming(
            shard_size=SHARD,
            observers=(events.append,),
            _shard_worker=functools.partial(crash_once_worker, str(crash_dir)),
        )
        assert canonical(streaming) == reference
        assert streaming.executor_stats["pool_breaks"] == 1
        assert streaming.executor_stats["shard_retries"] >= 3
        assert [event.shard_retries for event in events[:3]] == [1, 1, 1]
        assert len(os.listdir(crash_dir)) == 1  # crashed exactly once

    def test_retries_exhausted_raises(self):
        with pytest.raises(SimulationError, match="dying worker"):
            make_runner("batch", n_jobs=2).run_streaming(
                shard_size=SHARD,
                max_shard_retries=1,
                _shard_worker=always_crash_worker,
            )

    def test_break_surfacing_at_submit_is_recovered(self):
        """A worker death can surface at ``submit()`` instead of
        ``result()`` when it lands between the last consumed result and
        the next submission; the executor must recover there too instead
        of letting BrokenProcessPool escape the run."""
        config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        root_state = _seed_state(np.random.SeedSequence(11))
        # Four runs of two shards: the third submission is the refill
        # right after the first run's result is taken.
        plan = shard_plan(0, 0, 8 * SHARD, SHARD)

        clean = PipelinedShardExecutor(
            config, root_state, "batch", n_jobs=2, shards_per_run=lambda: 2
        )
        reference = [outcome.chronologies for outcome in clean.outcomes(plan)]

        broken = _SubmitBreakExecutor(
            config,
            root_state,
            "batch",
            n_jobs=2,
            shards_per_run=lambda: 2,
            break_at_submit=3,
        )
        outcomes = list(broken.outcomes(plan))
        assert [outcome.task.index for outcome in outcomes] == list(range(8))
        assert broken.pool_breaks == 1
        assert [outcome.chronologies for outcome in outcomes] == reference

    def test_double_break_inside_recover_is_recovered(self):
        """A second ``BrokenProcessPool`` raised at the lost run's
        resubmission — the freshly rebuilt pool dying before the run
        lands — must feed back into the retry accounting (another pool
        break, another charged retry per lost shard), not escape the run
        as a raw BrokenProcessPool.  Scripted per-attempt so pool timing
        cannot change which shard is in flight: shard 1's first attempt
        dies in its result, its resubmission dies at ``_submit_run`` on
        the replacement pool, its third attempt completes.  Shard 1
        shares its run with shard 0, so both are lost and charged
        together."""
        config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        root_state = _seed_state(np.random.SeedSequence(11))
        plan = shard_plan(0, 0, 4 * SHARD, SHARD)

        clean = _ScriptedBreakExecutor(
            config, root_state, "batch", n_jobs=2, shards_per_run=lambda: 2
        )
        reference = [outcome.chronologies for outcome in clean.outcomes(plan)]

        broken = _ScriptedBreakExecutor(
            config,
            root_state,
            "batch",
            n_jobs=2,
            shards_per_run=lambda: 2,
            script={(1, 0): "break-result", (1, 1): "break-submit"},
        )
        outcomes = list(broken.outcomes(plan))
        assert [outcome.task.index for outcome in outcomes] == [0, 1, 2, 3]
        assert broken.pool_breaks == 2
        assert [outcome.chronologies for outcome in outcomes] == reference
        # Each break charged every shard of the lost run one retry.
        assert [outcome.retries for outcome in outcomes] == [2, 2, 0, 0]

    def test_double_break_inside_recover_still_charges_max_retries(self):
        """The second break's retry charge counts toward ``max_retries``:
        with a budget of one retry, two consecutive breaks exhaust it."""
        config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        root_state = _seed_state(np.random.SeedSequence(11))
        plan = shard_plan(0, 0, 4 * SHARD, SHARD)
        broken = _ScriptedBreakExecutor(
            config,
            root_state,
            "batch",
            n_jobs=2,
            shards_per_run=lambda: 2,
            script={(1, 0): "break-result", (1, 1): "break-submit"},
            max_retries=1,
        )
        with pytest.raises(SimulationError, match="dying worker"):
            list(broken.outcomes(plan))

    def test_stale_break_callback_after_recovery_is_ignored(self):
        """A pool break fails every pending run of the pool, one callback
        at a time, on the pool's manager thread.  The consumer may recover
        (replace the pool, requeue the lost runs) between two of those
        callbacks; the later one belongs to a run already given up and
        must not flag the replacement pool as broken.  Scripted: both
        first-pool runs fail on a stand-in manager thread, and the second
        failure's callback is held until the recovery has run."""
        config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        root_state = _seed_state(np.random.SeedSequence(11))
        plan = shard_plan(0, 0, 4 * SHARD, SHARD)
        clean = _ScriptedBreakExecutor(
            config, root_state, "batch", n_jobs=2, shards_per_run=lambda: 2
        )
        reference = [outcome.chronologies for outcome in clean.outcomes(plan)]

        executor = _StaleCallbackExecutor(
            config, root_state, "batch", n_jobs=2, shards_per_run=lambda: 2
        )
        outcomes = list(executor.outcomes(plan))
        executor.manager.join(timeout=10.0)
        assert not executor.manager.is_alive()
        assert executor.recovered.is_set()
        assert executor.pool_breaks == 1
        assert [outcome.chronologies for outcome in outcomes] == reference
        assert [outcome.retries for outcome in outcomes] == [1, 1, 1, 1]

    def test_next_run_is_submitted_before_a_run_is_delivered(self):
        """The refill happens as soon as a run's result is taken, so the
        workers keep simulating while the consumer commits; with a
        precision target that bounds the waste at the rest of the
        stopping shard's run plus ``n_jobs`` runs."""
        config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        root_state = _seed_state(np.random.SeedSequence(11))
        plan = shard_plan(0, 0, 4 * SHARD, SHARD)
        executor = _ScriptedBreakExecutor(config, root_state, "batch", n_jobs=2)
        outcomes = executor.outcomes(plan)
        first = next(outcomes)
        assert first.task.index == 0
        assert sorted(executor._attempts) == [0, 1, 2]
        assert first.queue_depth == 2
        outcomes.close()

    def test_run_time_is_split_over_its_shards_by_groups(self):
        """The shards of one pool run share the run's worker time in
        proportion to their group counts, adding up to the whole."""
        config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        root_state = _seed_state(np.random.SeedSequence(11))
        total = 3 * SHARD + 8
        plan = shard_plan(0, 0, total, SHARD)
        executor = _ScriptedBreakExecutor(
            config,
            root_state,
            "batch",
            n_jobs=1,
            shards_per_run=lambda: 4,
            run_seconds=2.0,
        )
        outcomes = list(executor.outcomes(plan))
        shares = [SHARD / total] * 3 + [8 / total]
        assert [o.wall_seconds for o in outcomes] == pytest.approx(
            [2.0 * share for share in shares], rel=1e-12
        )
        assert sum(o.wall_seconds for o in outcomes) == pytest.approx(2.0, rel=1e-12)

    def test_deterministic_worker_exception_not_retried(self):
        def failing_runner(shard_index, n):
            raise ValueError("boom")

        # Injected serial runners bypass the pool; exercise the executor's
        # exception wrapping directly instead.
        config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        root_state = _seed_state(np.random.SeedSequence(0))
        executor = PipelinedShardExecutor(
            config, root_state, "batch", n_jobs=2, worker=_raise_value_error
        )
        with pytest.raises(SimulationError, match="raised in its worker"):
            list(executor.outcomes([ShardTask(index=0, group_offset=0, n_groups=8)]))


def _raise_value_error(task):
    raise ValueError("deterministic failure")


class _SubmitBreakExecutor(PipelinedShardExecutor):
    """Real pool, but the break surfaces at the Nth ``_submit_run`` call —
    the window a worker death opens when the pool's broken flag is set
    between a consumed result and the next submission."""

    def __init__(self, *args, break_at_submit, **kwargs):
        super().__init__(*args, **kwargs)
        self._submit_calls = 0
        self._break_at = break_at_submit

    def _submit_run(self, run):
        self._submit_calls += 1
        if self._submit_calls == self._break_at:
            raise BrokenProcessPool("worker died before this submit")
        return super()._submit_run(run)


class _FakePool:
    """Stand-in for the process pool of a scripted executor."""

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _ScriptedBreakExecutor(PipelinedShardExecutor):
    """No real pool: run submissions simulate synchronously in-process and
    a ``script`` mapping ``(shard index, attempt) -> "break-submit" |
    "break-result"`` dictates exactly where ``BrokenProcessPool``
    surfaces for the run holding that shard (attempts count per run,
    keyed by the run's first shard).  Worker timing cannot influence the
    schedule, so recovery paths — including a rebuilt pool breaking
    again at the lost run's resubmission — are pinned deterministically.
    ``run_seconds``, when given, is reported as every run's worker
    time."""

    def __init__(self, *args, script=None, run_seconds=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._script = dict(script or {})
        self._run_seconds = run_seconds
        self._attempts = {}

    def _take_pool(self):
        return _FakePool()

    def _give_back_pool(self, in_flight):
        pass

    def _submit_run(self, run):
        first = run[0].index
        attempt = self._attempts.get(first, 0)
        self._attempts[first] = attempt + 1
        actions = [self._script.get((task.index, attempt)) for task in run]
        if "break-submit" in actions:
            raise BrokenProcessPool("worker died before this submit")
        future = Future()
        if "break-result" in actions:
            future.set_exception(BrokenProcessPool("worker died mid-run"))
        else:
            start = time.perf_counter()
            per_shard = simulate_shards(self.config, self.root_state, self.engine, run)
            seconds = self._run_seconds
            if seconds is None:
                seconds = time.perf_counter() - start
            future.set_result((per_shard, seconds))
        return future


class _HeldFuture(Future):
    """A future whose done-callback, on the thread that completes it, is
    held inside ``exception()`` until ``release`` is set (when given);
    ``entered`` tells when it got there.  Other threads read the outcome
    at once."""

    def __init__(self, release=None):
        super().__init__()
        self.release = release
        self.completer = None
        self.armed = threading.Event()
        self.entered = threading.Event()

    def add_done_callback(self, fn):
        super().add_done_callback(fn)
        self.armed.set()

    def exception(self, timeout=None):
        if self.release is not None and threading.current_thread() is self.completer:
            self.entered.set()
            self.release.wait(10.0)
        return super().exception(timeout)


class _StaleCallbackExecutor(_ScriptedBreakExecutor):
    """Both runs of the first pool stay pending until a stand-in manager
    thread fails them with ``BrokenProcessPool``, one after the other.
    The consumer's first recovery starts once the second failure's
    callback is under way and ends once it has returned, while that
    callback is held until the recovery is done; later submissions
    simulate synchronously."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recovered = threading.Event()
        self._callback_returned = threading.Event()
        self._first_pool = []
        self.manager = threading.Thread(target=self._break_first_pool, daemon=True)

    def _submit_run(self, run):
        if len(self._first_pool) < 2:
            held = _HeldFuture(self.recovered) if self._first_pool else _HeldFuture()
            held.completer = self.manager
            self._first_pool.append(held)
            if len(self._first_pool) == 2:
                self.manager.start()
            return held
        return super()._submit_run(run)

    def _break_first_pool(self):
        for future in self._first_pool:
            future.armed.wait(10.0)
        for future in self._first_pool:
            future.set_exception(BrokenProcessPool("worker died mid-run"))
        self._callback_returned.set()

    def _replace_pool(self, failed):
        first = not self.recovered.is_set()
        if first:
            self._first_pool[1].entered.wait(10.0)
        super()._replace_pool(failed)
        if first:
            self.recovered.set()
            self._callback_returned.wait(10.0)


def sleepy_worker(after, seconds, task):
    """Take ``seconds`` longer over every shard past shard ``after``."""
    if task.index > after:
        time.sleep(seconds)
    return _run_shard_task(task)


@pytest.fixture
def cold_pools():
    """No idle pool to lease: earlier tests leave theirs on the free list."""
    _POOLS.close()
    yield
    _POOLS.close()


class TestWarmPool:
    """A run leases an idle pool from the process's free list, and gives
    it back when it ends, without any run seeing another's workers fail
    or another's results."""

    def test_second_run_starts_no_worker(self, cold_pools):
        reference = canonical(make_runner("batch").run_streaming(shard_size=SHARD))
        runs = [
            make_runner("batch", n_jobs=2).run_streaming(shard_size=SHARD)
            for _ in range(2)
        ]
        assert [run.executor_stats["workers_started"] for run in runs] == [2, 0]
        manifests = [run.to_manifest()["executor"] for run in runs]
        assert [manifest["workers_started"] for manifest in manifests] == [2, 0]
        assert [canonical(run) for run in runs] == [reference, reference]

    def test_worker_death_charges_only_the_run_that_leased_the_pool(self, tmp_path):
        """Two runs at once hold two pools: the one whose hook kills a
        worker recovers, and the other never sees the break."""
        crash_dir = tmp_path / "crashes"
        crash_dir.mkdir()
        reference = canonical(make_runner("batch").run_streaming(shard_size=SHARD))
        both_running = threading.Barrier(2, timeout=120)
        results = {}

        def meet(event):
            # Each run waits at its first commit for the other's, so both
            # hold a pool at once.
            if event.shards_completed == 1:
                both_running.wait()

        def run(name, worker):
            results[name] = make_runner("batch", n_jobs=2).run_streaming(
                shard_size=SHARD, observers=(meet,), _shard_worker=worker
            )

        threads = [
            threading.Thread(target=run, args=("clean", None)),
            threading.Thread(
                target=run,
                args=("crashed", functools.partial(crash_once_worker, str(crash_dir))),
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads)
        clean, crashed = results["clean"], results["crashed"]
        assert clean.executor_stats["shard_retries"] == 0
        assert clean.executor_stats["pool_breaks"] == 0
        assert crashed.executor_stats["pool_breaks"] == 1
        assert crashed.executor_stats["shard_retries"] >= 3
        assert canonical(clean) == canonical(crashed) == reference
        assert len(os.listdir(crash_dir)) == 1

    def test_worker_killed_while_its_pool_is_idle(self, cold_pools):
        """The next run leases a fresh pool instead of the broken one,
        and is charged neither a retry nor a break."""
        reference = canonical(make_runner("batch").run_streaming(shard_size=SHARD))
        make_runner("batch", n_jobs=2).run_streaming(shard_size=SHARD)
        [pool] = _POOLS._idle
        next(iter(pool._processes.values())).kill()
        deadline = time.monotonic() + 60
        while not pool.broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool.broken
        after = make_runner("batch", n_jobs=2).run_streaming(shard_size=SHARD)
        assert canonical(after) == reference
        assert after.executor_stats["shard_retries"] == 0
        assert after.executor_stats["pool_breaks"] == 0
        assert after.executor_stats["workers_started"] == 2
        assert all(idle is not pool for idle in _POOLS._idle)

    def test_fixed_run_after_a_precision_run_that_stopped_early(self, cold_pools):
        """The precision run stops with slow runs still in its pool; the
        pool comes back only when they end, so the next run meanwhile
        starts its own, and each run gets its own results."""
        until = Precision(rel_ci_width=2.0, min_groups=64)
        serial = make_runner("batch", n_groups=512, seed=5).run_streaming(
            until=until, shard_size=64
        )
        stopped = make_runner("batch", n_groups=512, seed=5, n_jobs=2).run_streaming(
            until=until,
            shard_size=64,
            _shard_worker=functools.partial(sleepy_worker, serial.shards_run - 1, 1.0),
        )
        assert stopped.executor_stats["discarded_in_flight"] > 0
        assert canonical(stopped) == canonical(serial)
        fixed = make_runner("batch", n_jobs=2).run_streaming(shard_size=SHARD)
        assert fixed.executor_stats["workers_started"] == 2
        assert canonical(fixed) == canonical(make_runner("batch").run_streaming(shard_size=SHARD))

    def test_fresh_interpreter_exits_cleanly_after_a_pooled_run(self):
        """The idle pool left at exit shuts down with the interpreter,
        promptly and without a warning under development mode."""
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        code = (
            "import time\n"
            "from repro.simulation import RaidGroupConfig\n"
            "from repro.simulation.monte_carlo import MonteCarloRunner\n"
            "config = RaidGroupConfig.paper_base_case(mission_hours=8760.0)\n"
            "runner = MonteCarloRunner(config, n_groups=160, seed=11, n_jobs=2, "
            "engine='batch')\n"
            "stats = runner.run_streaming(shard_size=32).executor_stats\n"
            "assert stats['workers_started'] == 2, stats\n"
            "print(time.time())\n"
        )
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        exited_at = time.time()
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert exited_at - float(result.stdout) < 5.0
