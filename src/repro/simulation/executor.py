"""Pipelined parallel shard execution for streaming fleet runs.

``MonteCarloRunner.run_streaming`` advances a fleet in seeded shards and
commits each shard's chronologies into a
:class:`~repro.simulation.streaming.FleetAccumulator` **strictly in shard
order** — that ordering is what makes checkpoint/resume bit-identical and
a converged run replayable.  Nothing about the *simulation* of a shard is
order-dependent, though: every shard's random streams are a pure function
of its index (one spawned :class:`~numpy.random.SeedSequence` child per
shard for the batch engine, one per group for the event engine), so
shards may be computed out of order, on any process, and the results are
byte-identical as long as they are *committed* in order.

:class:`PipelinedShardExecutor` exploits exactly that split:

* the plan is cut into *runs* of consecutive shards, each sized when it
  is submitted; each pool task advances one run, and a batch-engine run
  is a single :func:`~repro.simulation.batch.simulate_groups_batch` call
  of up to :data:`~repro.simulation.monte_carlo.KERNEL_ROWS` rows (the
  in-process path groups shards the same way),
* a ``spawn``-context :class:`~concurrent.futures.ProcessPoolExecutor`
  keeps up to ``n_jobs`` runs in flight ahead of the commit cursor, and
  submits the next run as soon as it takes a run's result — *before*
  that run is committed, so no worker idles while the consumer commits,
  checkpoints and notifies observers,
* the pool outlives the run: this module keeps the process's idle pools
  on a free list, a run leases one (or spawns one if none is idle) and
  hands it back when it ends, so the runs after the first in a process
  (a sweep, or ``repro serve --jobs N`` refining one fleet after
  another) start on warm workers.  Each task carries its run's
  constants (config, root seed state, engine), so nothing of one run
  reaches the next; a pool serves one run at a time and comes back only
  once every task its run left in it has finished; a broken pool never
  comes back.  Workers see the environment of the moment their pool was
  spawned,
* the main process consumes results **in shard order**, one shard at a
  time, and folds them into the accumulator, so convergence stopping,
  checkpoints, and observers behave exactly as in a serial run,
* shards simulated or in flight past the one a precision target stops
  at are simply never committed — discarded as if they had never been
  simulated: the rest of the stopping shard's run plus at most
  ``n_jobs`` runs,
* a crashed or killed worker breaks the pool; the executor rebuilds it,
  **reseeds every lost run from its shard indices**, and retries each
  run up to ``max_retries`` times before raising
  :class:`~repro.exceptions.SimulationError` (completed-but-uncommitted
  results survive a pool break untouched), and
* every committed shard carries observability — worker-side wall time,
  speculation queue depth, and commit lag (how long a finished shard
  waited for its turn at the accumulator) — surfaced on
  :class:`~repro.simulation.streaming.ProgressEvent` and summarized in
  the run manifest.

No module of this package imports scipy at import time, so a spawned
worker loads only numpy and the simulator.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError
from .batch import next_shard_size, simulate_groups_batch
from .config import RaidGroupConfig
from .raid_simulator import GroupChronology, RaidGroupSimulator

#: Times a shard whose worker died is re-run before the run gives up.
DEFAULT_MAX_SHARD_RETRIES = 2


@dataclasses.dataclass(frozen=True)
class ShardTask:
    """One schedulable unit of a streaming run.

    ``index`` is the global shard index (counting resumed-from shards),
    ``group_offset`` the global index of the shard's first group; both
    fully determine the shard's random streams, so a task can be executed
    anywhere, any number of times, with identical results.
    """

    index: int
    group_offset: int
    n_groups: int


@dataclasses.dataclass
class ShardOutcome:
    """A simulated shard delivered to the commit loop, plus telemetry.

    Attributes
    ----------
    task:
        The shard that was simulated.
    chronologies:
        Its per-group chronologies, in group order.
    wall_seconds:
        Worker-side simulation wall time (queue wait excluded).  Shards
        simulated together in one run (one kernel call, in process or
        in a pool task) split the run's wall time by their shares of its
        groups.
    queue_depth:
        Shards simulated or in flight and not yet delivered when this
        one was: the rest of its run, plus every shard submitted to the
        pool (or claimed by a worker) and not yet taken back.  On the
        last shard a run commits, it is the number of shards discarded.
    commit_lag_seconds:
        Time from when this shard's run finished until the shard was
        delivered to the commit loop (0 for serial execution).
    retries:
        Times this shard was re-run after a worker death (every shard of
        a lost run is charged).
    worker:
        Which worker simulated the committed copy — ``"local"`` for the
        in-process pool, ``host:pid`` for a remote worker.
    rtt_seconds:
        Coordinator-side round trip for remote workers; 0 for local
        execution.  A run's round trip (task sent → its last shard's
        frame received) is split over its shards as their frames
        arrive: each is charged the time since the previous frame of its
        run, the first since the task was sent, so a run's shards add up
        to its round trip.
    """

    task: ShardTask
    chronologies: List[GroupChronology]
    wall_seconds: float
    queue_depth: int = 0
    commit_lag_seconds: float = 0.0
    retries: int = 0
    worker: str = "local"
    rtt_seconds: float = 0.0


def shard_plan(
    shards_done: int, groups_done: int, target_groups: int, shard_size: int
) -> List[ShardTask]:
    """The remaining shard tasks toward a target fleet.

    Pure function of the cursor and target: full shards until the
    remainder (see :func:`~repro.simulation.batch.next_shard_size`), so
    the plan actually executed is always a prefix of the plan for any
    larger target and per-shard seeding never depends on when a run
    stops or resumes.
    """
    tasks: List[ShardTask] = []
    index, offset = shards_done, groups_done
    while True:
        n = next_shard_size(offset, target_groups, shard_size)
        if n == 0:
            return tasks
        tasks.append(ShardTask(index=index, group_offset=offset, n_groups=n))
        index += 1
        offset += n


# ----------------------------------------------------------------------
# Worker side.  Every pool task carries its run's constants, so a warm
# worker serves one run after another and nothing of one reaches the next.

#: The running pool task's (config, root seed state, engine), for
#: :func:`_run_shard_task`; None between tasks.
_task_constants: Optional[Tuple[RaidGroupConfig, dict, str]] = None


def _child_seed(root_state: dict, index: int) -> np.random.SeedSequence:
    """The root's ``index``-th spawned child, rebuilt without spawning.

    ``SeedSequence.spawn`` hands child *k* the spawn key
    ``root.spawn_key + (k,)``; reconstructing from the index alone is what
    lets shards execute out of order yet consume identical streams.
    """
    return np.random.SeedSequence(
        entropy=root_state["entropy"],
        spawn_key=tuple(root_state["spawn_key"]) + (index,),
        pool_size=root_state["pool_size"],
    )


def simulate_shard(
    config: RaidGroupConfig,
    root_state: dict,
    engine: str,
    task: ShardTask,
) -> List[GroupChronology]:
    """Simulate one shard from its indices alone (pure, order-free).

    Batch engine: one root child per shard (child ``task.index``).
    Event engine: one root child per group (children
    ``task.group_offset`` through ``task.group_offset + task.n_groups -
    1``).  Both match the root's sequential ``spawn`` order exactly.
    """
    if engine == "batch":
        rng = np.random.Generator(np.random.PCG64(_child_seed(root_state, task.index)))
        return simulate_groups_batch(config, task.n_groups, rng)
    simulator = RaidGroupSimulator(config)
    return [
        simulator.run(
            np.random.Generator(
                np.random.PCG64(_child_seed(root_state, task.group_offset + i))
            )
        )
        for i in range(task.n_groups)
    ]


def simulate_shards(
    config: RaidGroupConfig,
    root_state: dict,
    engine: str,
    run: Sequence[ShardTask],
) -> List[List[GroupChronology]]:
    """Simulate a run of consecutive shards; one chronology list per shard.

    Batch shards share one kernel call, each drawing from its own shard's
    generator, so the result equals :func:`simulate_shard` per shard;
    event shards run one after another.
    """
    if engine != "batch" or len(run) == 1:
        return [simulate_shard(config, root_state, engine, task) for task in run]
    sizes = [task.n_groups for task in run]
    fleet = simulate_groups_batch(
        config,
        sizes,
        [
            np.random.Generator(np.random.PCG64(_child_seed(root_state, task.index)))
            for task in run
        ],
    )
    ends = np.cumsum(sizes).tolist()
    return [fleet[end - n : end] for n, end in zip(sizes, ends)]


def split_run(
    run: Sequence[ShardTask],
    per_shard: Sequence[List[GroupChronology]],
    wall_seconds: float,
) -> Iterator[Tuple[ShardTask, List[GroupChronology], float]]:
    """A run's shards with their chronologies and shares of its wall time.

    Each shard is charged the run's wall time times its share of the
    run's groups, so per-shard times add up to the run's.
    """
    groups = sum(task.n_groups for task in run)
    for task, chronologies in zip(run, per_shard):
        yield task, chronologies, wall_seconds * (task.n_groups / groups)


def _run_shard_task(task: ShardTask) -> "Tuple[List[GroupChronology], float]":
    """One-shard worker: simulate one shard, timing the simulation.

    The body of a ``_shard_worker`` hook that only adds a failure to it;
    pool tasks otherwise run whole runs (:func:`_run_shard_run`).
    """
    config, root_state, engine = _task_constants
    start = time.perf_counter()
    chronologies = simulate_shard(config, root_state, engine, task)
    return chronologies, time.perf_counter() - start


#: Worker signature: ShardTask -> (chronologies, wall_seconds).
ShardWorker = Callable[[ShardTask], "Tuple[List[GroupChronology], float]"]


def _run_shard_run(
    config: RaidGroupConfig,
    root_state: dict,
    engine: str,
    run: Sequence[ShardTask],
    worker: Optional[ShardWorker],
) -> "Tuple[List[List[GroupChronology]], float]":
    """Pool task: simulate a run of shards, timing the whole run.

    The run is one :func:`simulate_shards` call, unless a ``worker`` hook
    is injected: that is called once per shard, so a hook that kills its
    process loses the whole run.
    """
    global _task_constants
    start = time.perf_counter()
    if worker is None:
        per_shard = simulate_shards(config, root_state, engine, run)
    else:
        _task_constants = (config, root_state, engine)
        try:
            per_shard = [worker(task)[0] for task in run]
        finally:
            _task_constants = None
    return per_shard, time.perf_counter() - start


# ----------------------------------------------------------------------
# Pool lifetime.
class _WorkerPool(ProcessPoolExecutor):
    """A spawn pool that knows its size and whether a worker died."""

    def __init__(self, size: int) -> None:
        super().__init__(max_workers=size, mp_context=get_context("spawn"))
        self.size = size

    @property
    def broken(self) -> bool:
        # Set by the pool's manager thread when a worker dies; there is
        # no public accessor.
        return bool(self._broken)


class _WorkerPools:
    """The process's spawn pools, each leased to one run at a time.

    :meth:`take` leases an idle pool with at least the workers a run
    needs, or spawns one; :meth:`give_back` ends the lease.  A pool
    returns to the free list only once every task its run left in it has
    finished, so it never serves two runs at once: a discarded task can
    neither delay the next run's results nor charge it a retry by
    killing its worker.  A broken pool never returns.  Spawning replaces
    an idle smaller pool, so idle pools never outnumber the most pools
    leased at once.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: List[_WorkerPool] = []  # most recently returned last

    def take(self, n_jobs: int) -> Tuple[_WorkerPool, int]:
        """A pool of at least ``n_jobs`` workers, and the processes its
        lease spawned: ``n_jobs`` for a new pool, 0 for an idle one."""
        with self._lock:
            dropped = [pool for pool in self._idle if pool.broken]
            live = [pool for pool in self._idle if not pool.broken]
            fits = [pool for pool in live if pool.size >= n_jobs]
            if fits:
                taken: Optional[_WorkerPool] = fits[-1]
            else:
                # Every live idle pool is too small: the new pool
                # replaces one of them.
                taken = None
                dropped += live[:1]
            self._idle = [
                pool for pool in live if pool is not taken and pool not in dropped
            ]
        for pool in dropped:
            pool.shutdown(wait=False, cancel_futures=True)
        if taken is not None:
            return taken, 0
        return _WorkerPool(n_jobs), n_jobs

    def give_back(self, pool: _WorkerPool, in_flight: Iterable[Future]) -> None:
        """End a run's lease: cancel its tasks that have not started, and
        return the pool to the free list once the others have finished."""
        if pool.broken:
            pool.shutdown(wait=False, cancel_futures=True)
            return
        running = [f for f in in_flight if not f.cancel() and not f.done()]
        left = len(running)

        def finished(_future: Future) -> None:
            # Runs on the pool's manager thread.  A pool broken by then is
            # being torn down by that thread, so it is dropped, not shut
            # down from inside it.
            nonlocal left
            with self._lock:
                left -= 1
                if left == 0 and not pool.broken:
                    self._idle.append(pool)

        if not running:
            with self._lock:
                self._idle.append(pool)
        for future in running:
            future.add_done_callback(finished)

    def close(self) -> None:
        """Shut down every idle pool and wait for its workers to exit."""
        with self._lock:
            idle, self._idle = self._idle, []
        for pool in idle:
            pool.shutdown(wait=True)


#: The free list every pooled run of this process leases from.
_POOLS = _WorkerPools()


# ----------------------------------------------------------------------
class PipelinedShardExecutor:
    """Out-of-order speculative shard execution with in-order delivery.

    :meth:`outcomes` yields one :class:`ShardOutcome` per planned shard,
    in plan order.  The plan is cut lazily into runs of consecutive
    shards, one pool task each, and a pool leased from the process's
    free list keeps up to ``n_jobs`` runs in flight ahead of the
    consumer.  ``shards_per_run()`` gives each run's length when that
    run is submitted.  The next run is submitted as soon as a run's
    result is taken, before its shards are delivered, so past the shard
    the consumer stops at at most the rest of its run and ``n_jobs``
    more runs are simulated.  Closing the generator (e.g. breaking out
    of the loop once a precision target converges) cancels and discards
    everything still in flight.  ``workers_started`` counts the worker
    processes the run spawned: ``n_jobs`` for each pool it could not
    lease idle (on a cold start, and after each break).
    """

    def __init__(
        self,
        config: RaidGroupConfig,
        root_state: dict,
        engine: str,
        n_jobs: int,
        *,
        shards_per_run: Callable[[], int] = lambda: 1,
        max_retries: int = DEFAULT_MAX_SHARD_RETRIES,
        worker: Optional[ShardWorker] = None,
    ) -> None:
        if n_jobs < 1:
            raise SimulationError(f"n_jobs must be >= 1, got {n_jobs!r}")
        if max_retries < 0:
            raise SimulationError(f"max_retries must be >= 0, got {max_retries!r}")
        self.config = config
        self.root_state = root_state
        self.engine = engine
        self.n_jobs = n_jobs
        self.shards_per_run = shards_per_run
        self.max_retries = max_retries
        self.pool_breaks = 0
        self.workers_started = 0
        self._worker = worker
        self._pool: Optional[ProcessPoolExecutor] = None
        self._done_at: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def _take_pool(self) -> ProcessPoolExecutor:
        """Lease a pool for this run from the process's free list."""
        pool, started = _POOLS.take(self.n_jobs)
        self.workers_started += started
        return pool

    def _give_back_pool(self, in_flight: Iterable[Future]) -> None:
        """End this run's lease, discarding the runs still in flight."""
        _POOLS.give_back(self._pool, in_flight)

    def _submit_run(self, number: int, run: Tuple[ShardTask, ...]) -> Future:
        """Hand run ``number`` of the plan to the pool."""
        assert self._pool is not None
        future = self._pool.submit(
            _run_shard_run, self.config, self.root_state, self.engine, run, self._worker
        )
        future.add_done_callback(
            lambda _f: self._done_at.setdefault(number, time.perf_counter())
        )
        return future

    # ------------------------------------------------------------------
    def outcomes(self, plan: Iterable[ShardTask]) -> Iterator[ShardOutcome]:
        """Yield every planned shard's outcome, in order.

        The pool is leased on first use and given back when the plan is
        exhausted, the consumer closes the generator, or an error
        escapes.
        """
        tasks = list(plan)
        if not tasks:
            return
        runs: List[Tuple[ShardTask, ...]] = []  # every run cut so far, in order
        pending: Dict[int, Future] = {}
        retries: Dict[int, int] = {}
        self._pool = self._take_pool()
        try:
            cut = self._top_up(tasks, runs, pending, retries, 0)
            number = 0
            while number < len(runs):
                run = runs[number]
                while True:
                    try:
                        per_shard, wall_seconds = pending[number].result()
                        break
                    except BrokenProcessPool:
                        self._recover(runs, pending, retries)
                    except SimulationError:
                        raise
                    except Exception as exc:
                        raise SimulationError(
                            f"run of {_describe(run)} raised in its worker: {exc!r}"
                        ) from exc
                finished_at = self._done_at.pop(number, time.perf_counter())
                del pending[number]
                # Refill before delivering: the workers simulate the next
                # runs while the consumer commits this one.
                cut = self._top_up(tasks, runs, pending, retries, cut)
                in_flight = sum(len(runs[queued]) for queued in pending)
                for delivered, (task, chronologies, seconds) in enumerate(
                    split_run(run, per_shard, wall_seconds), 1
                ):
                    yield ShardOutcome(
                        task=task,
                        chronologies=chronologies,
                        wall_seconds=seconds,
                        queue_depth=in_flight + len(run) - delivered,
                        commit_lag_seconds=max(0.0, time.perf_counter() - finished_at),
                        retries=retries.get(number, 0),
                    )
                number += 1
        finally:
            self._give_back_pool(pending.values())
            self._pool = None

    def _top_up(
        self,
        tasks: List[ShardTask],
        runs: List[Tuple[ShardTask, ...]],
        pending: Dict[int, Future],
        retries: Dict[int, int],
        cut: int,
    ) -> int:
        """Cut and submit runs until ``n_jobs`` are in flight.

        Each run takes the next ``shards_per_run()`` shards of ``tasks``
        from index ``cut``, sized as it is cut; returns the new cut.
        """
        while cut < len(tasks) and len(pending) < self.n_jobs:
            length = self.shards_per_run()
            if length < 1:
                raise SimulationError(f"shards_per_run() must be >= 1, got {length!r}")
            run = tuple(tasks[cut : cut + length])
            number = len(runs)
            runs.append(run)
            cut += len(run)
            while True:
                try:
                    pending[number] = self._submit_run(number, run)
                    break
                except BrokenProcessPool:
                    # A worker died after the last result was taken, so
                    # the break surfaces here instead of in result();
                    # recover and retry on the new pool.
                    self._recover(runs, pending, retries)
        return cut

    def _recover(
        self,
        runs: List[Tuple[ShardTask, ...]],
        pending: Dict[int, Future],
        retries: Dict[int, int],
    ) -> None:
        """Replace the pool after a worker death and resubmit lost runs.

        A pool break kills every worker process, so any in-flight run
        without a completed result is lost and must be reseeded from its
        shard indices; results that finished before the break are kept
        as-is.  Each lost run — every shard in it — is charged one retry;
        a run that keeps killing its workers exhausts ``max_retries`` and
        fails the run.  The broken pool is shut down, never handed back,
        and the replacement is leased like the first pool.

        The resubmission itself can hit a *second* break (the freshly
        rebuilt pool dying before the first resubmit lands), so the
        rebuild-and-resubmit step loops: every break charges the still-
        lost runs another retry, and a run that keeps breaking pools
        exhausts ``max_retries`` here like anywhere else.
        """
        while True:
            self.pool_breaks += 1
            lost = [
                number for number, future in pending.items() if not _future_ok(future)
            ]
            for number in lost:
                count = retries.get(number, 0) + 1
                retries[number] = count
                if count > self.max_retries:
                    raise SimulationError(
                        f"run of {_describe(runs[number])} was lost to a dying worker "
                        f"process {count} times (max_retries={self.max_retries}); "
                        "giving up"
                    )
                self._done_at.pop(number, None)
            assert self._pool is not None
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = self._take_pool()
            try:
                for number in sorted(lost):
                    pending[number] = self._submit_run(number, runs[number])
            except BrokenProcessPool:
                continue
            return


def _future_ok(future: Future) -> bool:
    """Did this future finish cleanly (e.g. before a pool break)?"""
    return future.done() and not future.cancelled() and future.exception() is None


def _describe(run: Sequence[ShardTask]) -> str:
    """``shard 3`` or ``shards 4-7``, for error messages."""
    first, last = run[0].index, run[-1].index
    return f"shard {first}" if first == last else f"shards {first}-{last}"
