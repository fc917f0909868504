"""Pipelined shard execution for streaming fleet runs, local and remote.

``MonteCarloRunner.run_streaming`` advances a fleet in seeded shards and
commits each shard into a
:class:`~repro.simulation.streaming.FleetAccumulator` **strictly in shard
order**, so convergence stopping, checkpoints and observers see exactly
the shards a serial run would.  Nothing about the *simulation* of a shard
is order-dependent, though: every shard's random streams are a pure
function of its index (one spawned :class:`~numpy.random.SeedSequence`
child per shard for the batch engine, one per group for the event
engine), so shards may be computed out of order, on any process, and the
results are byte-identical.

The unit of work, from claim to publish, is a *run* of consecutive
shards.  Every claimant simulates a run with one local run function
(:func:`_run_shard_run`: one
:func:`~repro.simulation.batch.simulate_groups_batch` call of up to
:data:`~repro.simulation.monte_carlo.KERNEL_ROWS` rows for the batch
engine) and hands it back whole: one small summary per shard (a
``FleetAccumulator`` over the shard, built where it was simulated;
:func:`summarize_shards`), plus its chronologies only when the run keeps
them, and the run's wall time.  One :meth:`PipelinedShardExecutor.complete`
call publishes the run, and each shard's commit is one exact merge.

:class:`PipelinedShardExecutor` exploits exactly that split:

* the plan's shards wait in one queue, from which every *claimant* takes
  runs, each sized when it is claimed,
* the claimants are a ``spawn``-context
  :class:`~concurrent.futures.ProcessPoolExecutor` of ``n_jobs`` workers
  and, for a distributed run, the links of a
  :class:`~repro.simulation.remote.RemoteWorkerHub`.  The consumer drives
  the pool from its own thread: it keeps up to ``n_jobs`` runs ahead of
  the commit cursor and claims the next run as soon as it reaches one —
  *before* delivering it, so no worker idles while the consumer commits,
  checkpoints and notifies observers.  Finished runs that wait on a
  link's shard do not count, so a slow link never idles the pool.  A
  finished run's done-callback publishes it with one ``complete`` call,
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
* the consumer takes results **in shard order**, one shard at a time,
  and merges each summary into the accumulator, so convergence stopping,
  checkpoints, and observers behave exactly as in a serial run; each
  run's last shard carries an end-of-run mark, at which the consumer
  writes its checkpoint,
* shards simulated or in flight past the one a precision target stops
  at are simply never committed — discarded as if they had never been
  simulated: the rest of the stopping shard's run plus at most
  ``n_jobs`` local runs, and what remote links hold or the pool finished
  while the commit waited on them,
* a crashed worker breaks the pool, and a dropped link loses its runs;
  either way every lost run goes back to the queue, **is reseeded from
  its shard indices**, and each shard is retried up to ``max_retries``
  times before the run raises :class:`~repro.exceptions.SimulationError`
  (published results survive untouched), and
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
import heapq
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
from .streaming import FleetAccumulator

#: Times a shard whose worker died is re-run before the run gives up.
DEFAULT_MAX_SHARD_RETRIES = 2

#: Poll quantum for condition waits (and the hub's socket reads).  Every
#: change a waiter waits for also notifies it; the quantum only bounds
#: the cost of a missed wake-up.
_POLL_SECONDS = 0.25


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
    summary:
        The shard's statistics: a
        :class:`~repro.simulation.streaming.FleetAccumulator` over its
        groups, built where the shard was simulated.  The commit merges
        it into the run's accumulator.
    wall_seconds:
        Worker-side simulation wall time (queue wait excluded): the
        run's wall time times the shard's share of the run's groups
        (:func:`split_run`).
    run_end:
        Whether this shard is the last of the run that delivered it (a
        serial or pool task's run, or a remote worker's).  The commit
        loop writes its checkpoint once per run, at this mark.
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
        execution.  A run's round trip (task sent → its result frame
        received) is split over its shards like its wall time, so a
        run's shards add up to its round trip.
    chronologies:
        Its per-group chronologies, in group order, when the run keeps
        them (``keep_chronologies``); otherwise None, and none was built
        for a batch shard.
    """

    task: ShardTask
    summary: FleetAccumulator
    wall_seconds: float
    run_end: bool
    queue_depth: int = 0
    commit_lag_seconds: float = 0.0
    retries: int = 0
    worker: str = "local"
    rtt_seconds: float = 0.0
    chronologies: Optional[List[GroupChronology]] = None


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
# Simulating a run, wherever it runs: the serial loop, pool tasks and
# remote workers all call _run_shard_run.  Every pool task carries its
# run's constants, so a warm worker serves one run after another and
# nothing of one reaches the next.
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


def _generator(root_state: dict, index: int) -> np.random.Generator:
    """The generator of the root's ``index``-th child."""
    return np.random.Generator(np.random.PCG64(_child_seed(root_state, index)))


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
        return _kernel(config, root_state, [task])
    simulator = RaidGroupSimulator(config)
    return [
        simulator.run(_generator(root_state, task.group_offset + i))
        for i in range(task.n_groups)
    ]


def _kernel(
    config: RaidGroupConfig, root_state: dict, run: Sequence[ShardTask], **kwargs
):
    """One batch-kernel call over a run, each shard on its own generator;
    a one-shard run is the plain one-shard call."""
    sizes = [task.n_groups for task in run]
    rngs = [_generator(root_state, task.index) for task in run]
    if len(run) == 1:
        return simulate_groups_batch(config, sizes[0], rngs[0], **kwargs)
    return simulate_groups_batch(config, sizes, rngs, **kwargs)


#: One shard's result: its summary, and its chronologies if the run keeps them.
ShardResult = Tuple[FleetAccumulator, Optional[List[GroupChronology]]]


def shard_result(
    config: RaidGroupConfig,
    chronologies: List[GroupChronology],
    time_grid: Optional[Sequence[float]] = None,
    keep_chronologies: bool = False,
) -> ShardResult:
    """One shard's result from its chronologies: their summary (by
    :meth:`~repro.simulation.streaming.FleetAccumulator.add_shard`), and
    the chronologies themselves if kept."""
    summary = FleetAccumulator(config.mission_hours, time_grid=time_grid)
    summary.add_shard(chronologies)
    return summary, chronologies if keep_chronologies else None


def summarize_shards(
    config: RaidGroupConfig,
    root_state: dict,
    engine: str,
    run: Sequence[ShardTask],
    time_grid: Optional[Sequence[float]] = None,
    keep_chronologies: bool = False,
) -> List[ShardResult]:
    """Simulate a run of consecutive shards; one :data:`ShardResult` each.

    A batch run is one kernel call that returns its groups as arrays
    (:class:`~repro.simulation.batch.GroupArrays`); each shard's summary
    is built from them without any chronology, and chronologies are
    built only when kept.  Event shards are summarized from their
    chronologies by :func:`shard_result`.  Both give the same bytes.
    """
    if engine != "batch":
        return [
            shard_result(
                config,
                simulate_shard(config, root_state, engine, task),
                time_grid,
                keep_chronologies,
            )
            for task in run
        ]
    sizes = [task.n_groups for task in run]
    groups = _kernel(config, root_state, run, as_arrays=True)
    summaries = groups.summaries(sizes, time_grid)
    if not keep_chronologies:
        return [(summary, None) for summary in summaries]
    chronologies = groups.chronologies()
    ends = np.cumsum(sizes).tolist()
    return [
        (summary, chronologies[end - n : end])
        for summary, n, end in zip(summaries, sizes, ends)
    ]


def split_run(run: Sequence[ShardTask], seconds: float) -> List[float]:
    """Each shard's share of a run's time (wall time or round trip): the
    run's ``seconds`` times the shard's share of the run's groups, so the
    shares add up to the run's."""
    groups = sum(task.n_groups for task in run)
    return [seconds * (task.n_groups / groups) for task in run]


def _check_run(
    run: Sequence[ShardTask], per_shard: Sequence[ShardResult], worker: str
) -> None:
    """Raise :class:`~repro.exceptions.SimulationError` unless
    ``per_shard`` holds one result per shard of ``run``, each summary
    (and any kept chronologies) of exactly its shard's groups."""
    if len(per_shard) != len(run):
        raise SimulationError(
            f"{_describe(run)} came back from {worker} with {len(per_shard)} results"
        )
    for task, (summary, chronologies) in zip(run, per_shard):
        sizes = [summary.n_groups]
        if chronologies is not None:
            sizes.append(len(chronologies))
        if any(size != task.n_groups for size in sizes):
            raise SimulationError(
                f"shard {task.index} of {task.n_groups} groups came back from "
                f"{worker} with {' and '.join(map(str, sizes))}"
            )


#: Test hook, with :func:`simulate_shard`'s signature:
#: (config, root seed state, engine, task) -> the shard's chronologies.
ShardWorker = Callable[[RaidGroupConfig, dict, str, ShardTask], List[GroupChronology]]


def _run_shard_run(
    config: RaidGroupConfig,
    root_state: dict,
    engine: str,
    run: Sequence[ShardTask],
    worker: Optional[ShardWorker],
    time_grid: Optional[Sequence[float]],
    keep_chronologies: bool,
) -> "Tuple[List[ShardResult], float]":
    """Simulate a run of shards, timing the whole run.

    The run is one :func:`summarize_shards` call, unless a ``worker``
    hook is given: that is called once per shard in place of
    :func:`simulate_shard`, so a hook that kills its process loses the
    whole run, and its chronologies are summarized by
    :func:`shard_result`.
    """
    start = time.perf_counter()
    if worker is None:
        per_shard = summarize_shards(
            config, root_state, engine, run, time_grid, keep_chronologies
        )
    else:
        per_shard = [
            shard_result(
                config,
                worker(config, root_state, engine, task),
                time_grid,
                keep_chronologies,
            )
            for task in run
        ]
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
    """Out-of-order shard execution with in-order delivery.

    :meth:`outcomes` yields one :class:`ShardOutcome` per planned shard,
    in plan order.  Claimants take runs from the plan's queue
    (:meth:`claim`: the lowest unclaimed shard and the consecutive ones
    after it, as many as ``shards_per_run()`` last said), publish each
    run whole (:meth:`complete`), and give a lost run's shards back, each
    charged one retry (:meth:`abandon`).  The local pool of ``n_jobs``
    workers is one claimant, driven from the consumer's thread: it holds
    at most ``n_jobs`` runs the consumer has not reached (see
    :meth:`_may_claim`).  With a ``hub``, every connected remote worker
    is another, and ``n_jobs`` may be 0.  Every claimant sends back each
    shard's summary over ``time_grid``, and its chronologies only when
    ``keep_chronologies``.  Pool tasks call the ``worker`` hook once per
    shard (:func:`_run_shard_run`); remote workers never do.

    ``shards_per_run()`` is evaluated on the consumer's thread, before
    the first claim and after each committed shard, so the callable may
    read the consumer's state unlocked.  Closing the generator discards
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
        hub: "Optional[RemoteWorkerHub]" = None,
        shards_per_run: Callable[[], int] = lambda: 1,
        max_retries: int = DEFAULT_MAX_SHARD_RETRIES,
        worker: Optional[ShardWorker] = None,
        time_grid: Optional[Sequence[float]] = None,
        keep_chronologies: bool = False,
    ) -> None:
        least = 1 if hub is None else 0
        if n_jobs < least:
            raise SimulationError(f"n_jobs must be >= {least}, got {n_jobs!r}")
        if max_retries < 0:
            raise SimulationError(f"max_retries must be >= 0, got {max_retries!r}")
        self.config = config
        self.root_state = root_state
        self.engine = engine
        self.n_jobs = n_jobs
        self.hub = hub
        self.shards_per_run = shards_per_run
        self.max_retries = max_retries
        self.time_grid = None if time_grid is None else [float(t) for t in time_grid]
        self.keep_chronologies = keep_chronologies
        self.pool_breaks = 0
        self.workers_started = 0
        self._worker = worker
        # The consumer, the hub's link threads and the pool's callbacks
        # share the state below behind one condition variable.  Only the
        # consumer's thread replaces the pool.
        self._cond = threading.Condition()
        self._queue: List[int] = []  # heap of unclaimed shard indices
        self._by_index: Dict[int, ShardTask] = {}
        self._claimed: Dict[int, str] = {}
        # Published shards: (result, wall seconds, worker, round trip,
        # when published, whether the shard ended its run).
        self._results: Dict[
            int, Tuple[ShardResult, float, str, float, float, bool]
        ] = {}
        self._retries: Dict[int, int] = {}
        self._run_length = 1
        self._error: Optional[BaseException] = None
        self._stopped = False
        self._pool: Optional[ProcessPoolExecutor] = None
        # The pool's runs the consumer has not reached, by future.
        self._local: Dict[Future, Tuple[ShardTask, ...]] = {}
        self._broken = False

    # ------------------------------------------------------------------
    # Shared-queue API (called from hub link threads, pool callbacks and
    # the consumer).
    def accepting(self) -> bool:
        with self._cond:
            return not self._stopped and self._error is None and bool(self._by_index)

    def claim(
        self, claimant: str, timeout: float = 0.0
    ) -> Optional[Tuple[ShardTask, ...]]:
        """Pop the next run, or None if nothing is claimable within timeout.

        A run is the lowest unclaimed shard and the consecutive unclaimed
        shards after it, up to the current run length.
        """
        with self._cond:
            if not self._queue and timeout > 0:
                self._cond.wait(timeout)
            if self._stopped or self._error is not None or not self._queue:
                return None
            run = [heapq.heappop(self._queue)]
            while (
                self._queue
                and len(run) < self._run_length
                and self._queue[0] == run[-1] + 1
            ):
                run.append(heapq.heappop(self._queue))
            for index in run:
                self._claimed[index] = claimant
            return tuple(self._by_index[index] for index in run)

    def complete(
        self,
        run: Sequence[ShardTask],
        per_shard: Sequence[ShardResult],
        wall_seconds: float,
        *,
        worker: str,
        rtt_seconds: float = 0.0,
    ) -> None:
        """Publish a claimed run: one result per shard, in run order.

        Raises :class:`~repro.exceptions.SimulationError`, publishing
        nothing, unless every summary (and any kept chronologies) covers
        exactly its shard's groups.  The run's wall time and round trip
        are split over its shards by :func:`split_run`, and its last shard
        carries the end-of-run mark (:attr:`ShardOutcome.run_end`).  A
        shard already published or no longer planned is a stale duplicate
        (e.g. completed after a reassignment) and is skipped.
        """
        _check_run(run, per_shard, worker)
        walls, rtts = split_run(run, wall_seconds), split_run(run, rtt_seconds)
        last = run[-1].index
        with self._cond:
            now = time.perf_counter()
            for task, result, wall, rtt in zip(run, per_shard, walls, rtts):
                if task.index in self._by_index and task.index not in self._results:
                    self._claimed.pop(task.index, None)
                    self._results[task.index] = (
                        result, wall, worker, rtt, now, task.index == last
                    )
            self._cond.notify_all()

    def abandon(
        self, tasks: Iterable[ShardTask], reason: str, *, charge: bool = True
    ) -> None:
        """Return claimed shards to the queue after their worker was lost.

        Each is charged one retry (unless ``charge=False``, for
        convergence drains); a shard lost more than ``max_retries`` times
        fails the run.
        """
        with self._cond:
            for task in tasks:
                if task.index not in self._by_index or task.index in self._results:
                    continue
                self._claimed.pop(task.index, None)
                if self._stopped or self._error is not None:
                    continue
                if charge:
                    count = self._retries.get(task.index, 0) + 1
                    self._retries[task.index] = count
                    if count > self.max_retries:
                        self._error = SimulationError(
                            f"shard {task.index} was lost {count} times "
                            f"(last: {reason}; max_retries={self.max_retries}); "
                            "giving up on this run"
                        )
                        continue
                heapq.heappush(self._queue, task.index)
            self._cond.notify_all()

    def fail(self, error: BaseException) -> None:
        with self._cond:
            if self._error is None:
                self._error = error
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def outcomes(self, plan: Iterable[ShardTask]) -> Iterator[ShardOutcome]:
        """Yield every planned shard's outcome, in order.

        The queue is loaded before the hub sees the run, so idle links
        start at once.  The pool is leased on first use and given back
        when the plan is exhausted, the consumer closes the generator, or
        an error escapes.
        """
        tasks = list(plan)
        if not tasks:
            return
        length = self.shards_per_run()
        with self._cond:
            self._stopped = False
            self._error = None
            self._broken = False
            self._by_index = {task.index: task for task in tasks}
            self._queue = sorted(self._by_index)  # sorted is a heap
            self._results.clear()
            self._claimed.clear()
            self._retries.clear()
            self._run_length = length
        if self.hub is not None:
            self.hub.register(self)
        try:
            if self.n_jobs > 0:
                self._pool = self._take_pool()
            for task in tasks:
                yield self._next(task)
                # The shard is committed: size the next runs from the
                # state it left.
                length = self.shards_per_run()
                with self._cond:
                    self._run_length = length
        finally:
            with self._cond:
                self._stopped = True
                self._by_index.clear()
                self._queue.clear()
                in_flight, self._local = list(self._local), {}
                self._cond.notify_all()
            if self._pool is not None:
                self._give_back_pool(in_flight)
                self._pool = None
            if self.hub is not None:
                self.hub.unregister(self)

    def _next(self, task: ShardTask) -> ShardOutcome:
        """Take ``task``'s shard once published, driving the pool meanwhile."""
        index = task.index
        while True:
            with self._cond:
                if self._error is not None:
                    raise self._error
                ready = index in self._results
                if ready:
                    # The consumer has reached the run holding this shard,
                    # so that run no longer counts against the pool's bound.
                    self._local = {
                        future: run
                        for future, run in self._local.items()
                        if run[0].index > index
                    }
                elif not self._broken and not self._may_claim():
                    self._cond.wait(_POLL_SECONDS)
                    continue
            # Refill before delivering: the workers simulate the next runs
            # while the consumer commits this one.
            self._drive_pool()
            if ready:
                break
        with self._cond:
            result, wall_seconds, worker, rtt_seconds, finished_at, run_end = (
                self._results.pop(index)
            )
            del self._by_index[index]
            retries = self._retries.get(index, 0)
            in_flight = len(self._claimed) + len(self._results)
        summary, chronologies = result
        return ShardOutcome(
            task=task,
            summary=summary,
            chronologies=chronologies,
            wall_seconds=wall_seconds,
            queue_depth=in_flight,
            commit_lag_seconds=max(0.0, time.perf_counter() - finished_at),
            retries=retries,
            worker=worker,
            rtt_seconds=rtt_seconds,
            run_end=run_end,
        )

    # ------------------------------------------------------------------
    # The local pool, driven from the consumer's thread.  No pool call is
    # made while the lock is held, and callbacks never touch a pool.
    def _may_claim(self) -> bool:
        """Whether the pool may claim a run now (lock held).

        It holds at most ``n_jobs`` runs the consumer has not reached,
        finished or not, however slowly the consumer commits.  Finished
        runs past a shard a link holds, or one back in the queue, do not
        count: they wait on that shard, not on the commit.  So a slow
        link never idles the pool, and one lost while holding the shard
        the consumer waits for leaves the pool free to claim it.
        """
        if self._pool is None or not self._queue:
            return False
        waiting = min(
            [self._queue[0]]
            + [index for index, who in self._claimed.items() if who != "local"]
        )
        held = sum(
            1
            for future, run in self._local.items()
            if not future.done() or run[0].index < waiting
        )
        return held < self.n_jobs

    def _drive_pool(self) -> None:
        """Replace a broken pool, then claim and submit runs while allowed."""
        while True:
            with self._cond:
                if self._error is not None:
                    return  # the consumer raises it
                broken = self._broken
                run = None if broken or not self._may_claim() else self.claim("local")
            if broken:
                self._replace_pool(())
                continue
            if run is None:
                return
            try:
                future = self._submit_run(run)
            except BrokenProcessPool:
                # A worker died after the last callback ran, so the break
                # surfaces here instead.
                self._replace_pool(run)
                continue
            with self._cond:
                self._local[future] = run
            future.add_done_callback(self._finished)

    def _finished(self, future: Future) -> None:
        """A local run's done-callback, usually on the pool's manager thread.

        Publishes the run with one :meth:`complete` call; flags a pool
        break for the consumer to recover from; or fails the run with the
        worker's error.  A run given up meanwhile is ignored.
        """
        if future.cancelled():
            return
        error = future.exception()
        with self._cond:
            # One step with the flag: a run the consumer already gave up
            # in a recovery must not flag the replacement pool as broken.
            run = self._local.get(future)
            if run is None:
                return
            if isinstance(error, BrokenProcessPool):
                self._broken = True
                self._cond.notify_all()
                return
        if error is None:
            per_shard, wall_seconds = future.result()
            try:
                self.complete(run, per_shard, wall_seconds, worker="local")
            except SimulationError as exc:
                self.fail(exc)
        elif isinstance(error, SimulationError):
            self.fail(error)
        else:
            failure = SimulationError(
                f"run of {_describe(run)} raised in its worker: {error!r}"
            )
            failure.__cause__ = error
            self.fail(failure)

    def _replace_pool(self, failed: Sequence[ShardTask]) -> None:
        """Recover from a pool break.

        A break kills every worker of the pool, so each local run without
        a finished result, and ``failed`` (the run whose submit broke),
        goes back to the queue with one retry charged to every shard.
        Finished runs keep their results.  The broken pool is shut down,
        never handed back, and the replacement is leased like the first,
        unless the run has failed.
        """
        with self._cond:
            self.pool_breaks += 1
            self._broken = False
            lost = list(failed)
            for future, run in list(self._local.items()):
                if not _future_ok(future):
                    del self._local[future]
                    lost.extend(run)
        self.abandon(lost, "a dying worker process broke the local pool")
        assert self._pool is not None
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None if self._error is not None else self._take_pool()

    def _take_pool(self) -> ProcessPoolExecutor:
        """Lease a pool for this run from the process's free list."""
        pool, started = _POOLS.take(self.n_jobs)
        self.workers_started += started
        return pool

    def _give_back_pool(self, in_flight: Iterable[Future]) -> None:
        """End this run's lease, discarding the runs still in flight."""
        _POOLS.give_back(self._pool, in_flight)

    def _submit_run(self, run: Tuple[ShardTask, ...]) -> Future:
        """Hand one claimed run to the pool."""
        assert self._pool is not None
        return self._pool.submit(
            _run_shard_run,
            self.config,
            self.root_state,
            self.engine,
            run,
            self._worker,
            self.time_grid,
            self.keep_chronologies,
        )


def _future_ok(future: Future) -> bool:
    """Did this future finish cleanly (e.g. before a pool break)?"""
    return future.done() and not future.cancelled() and future.exception() is None


def _describe(run: Sequence[ShardTask]) -> str:
    """``shard 3`` or ``shards 4-7``, for error messages."""
    first, last = run[0].index, run[-1].index
    return f"shard {first}" if first == last else f"shards {first}-{last}"
