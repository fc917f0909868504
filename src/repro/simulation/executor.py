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

* a persistent ``spawn``-context :class:`~concurrent.futures.ProcessPoolExecutor`
  speculatively simulates up to ``n_jobs`` shards ahead of the commit
  cursor (workers stay warm across shards — no per-shard pool churn),
* the main process consumes results **in shard order** and folds them
  into the accumulator, so convergence stopping, checkpoints, and
  observers behave exactly as in a serial run,
* shards in flight when a precision target stops the run are simply
  never committed — discarded as if they had never been simulated,
* a crashed or killed worker breaks the pool; the executor rebuilds it,
  **reseeds every lost shard from its index**, and retries each shard up
  to ``max_retries`` times before raising
  :class:`~repro.exceptions.SimulationError` (completed-but-uncommitted
  results survive a pool break untouched), and
* every committed shard carries observability — worker-side wall time,
  speculation queue depth, and commit lag (how long a finished shard
  waited for its turn at the accumulator) — surfaced on
  :class:`~repro.simulation.streaming.ProgressEvent` and summarized in
  the run manifest.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..exceptions import SimulationError
from .batch import next_shard_size, simulate_groups_batch
from .compiled import simulate_groups_compiled
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
        simulated together in one in-process kernel call split the
        call's wall time by their shares of its groups.
    queue_depth:
        Shards still in flight after this one was delivered.
    commit_lag_seconds:
        Time this shard's finished result waited before the commit
        cursor reached it (0 for serial execution).
    retries:
        Times this shard was re-run after a worker death.
    worker:
        Which worker simulated the committed copy — ``"local"`` for the
        in-process pool, ``host:pid`` for a remote worker.
    rtt_seconds:
        Coordinator-side round trip (send task → receive result) for
        remote workers; 0 for local execution.
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
# Worker side.  The pool initializer pins the per-run constants once per
# worker process; task submissions then carry only the (tiny) ShardTask.
_worker_config: Optional[RaidGroupConfig] = None
_worker_root_state: Optional[dict] = None
_worker_engine: str = "event"


def _init_shard_worker(config: RaidGroupConfig, root_state: dict, engine: str) -> None:
    """Pool initializer: stash the run constants in the worker process."""
    global _worker_config, _worker_root_state, _worker_engine
    _worker_config = config
    _worker_root_state = root_state
    _worker_engine = engine


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

    Batch/compiled engines: one root child per shard (child
    ``task.index``).  Event engine: one root child per group (children
    ``task.group_offset`` through ``task.group_offset + task.n_groups -
    1``).  All match the serial streaming path's sequential ``spawn``
    cursor exactly.
    """
    if engine in ("batch", "compiled"):
        rng = np.random.Generator(np.random.PCG64(_child_seed(root_state, task.index)))
        kernel = (
            simulate_groups_compiled if engine == "compiled" else simulate_groups_batch
        )
        return kernel(config, task.n_groups, rng)
    simulator = RaidGroupSimulator(config)
    return [
        simulator.run(
            np.random.Generator(
                np.random.PCG64(_child_seed(root_state, task.group_offset + i))
            )
        )
        for i in range(task.n_groups)
    ]


def _run_shard_task(task: ShardTask) -> "Tuple[List[GroupChronology], float]":
    """Default pool worker: simulate one shard, timing the simulation."""
    start = time.perf_counter()
    chronologies = simulate_shard(
        _worker_config, _worker_root_state, _worker_engine, task
    )
    return chronologies, time.perf_counter() - start


#: Worker signature: ShardTask -> (chronologies, wall_seconds).
ShardWorker = Callable[[ShardTask], "Tuple[List[GroupChronology], float]"]


# ----------------------------------------------------------------------
class PipelinedShardExecutor:
    """Out-of-order speculative shard execution with in-order delivery.

    :meth:`outcomes` yields one :class:`ShardOutcome` per planned shard,
    in plan order, while a persistent worker pool keeps up to ``n_jobs``
    shards in flight ahead of the consumer.  Closing the generator (e.g.
    breaking out of the loop once a precision target converges) cancels
    and discards everything still in flight.
    """

    def __init__(
        self,
        config: RaidGroupConfig,
        root_state: dict,
        engine: str,
        n_jobs: int,
        *,
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
        self.max_retries = max_retries
        self.pool_breaks = 0
        self._worker: ShardWorker = worker if worker is not None else _run_shard_task
        self._pool: Optional[ProcessPoolExecutor] = None
        self._done_at: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.n_jobs,
            mp_context=get_context("spawn"),
            initializer=_init_shard_worker,
            initargs=(self.config, self.root_state, self.engine),
        )

    def _submit(self, task: ShardTask) -> Future:
        assert self._pool is not None
        future = self._pool.submit(self._worker, task)
        future.add_done_callback(
            lambda _f, i=task.index: self._done_at.setdefault(i, time.perf_counter())
        )
        return future

    def close(self) -> None:
        """Tear down the pool, discarding anything still in flight."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # ------------------------------------------------------------------
    def outcomes(self, plan: Iterable[ShardTask]) -> Iterator[ShardOutcome]:
        """Yield every planned shard's outcome, in order.

        The pool is created on first use and torn down when the plan is
        exhausted, the consumer closes the generator, or an error
        escapes.
        """
        tasks = list(plan)
        if not tasks:
            return
        pending: Dict[int, Future] = {}
        retries: Dict[int, int] = {}
        next_submit = 0
        self._pool = self._make_pool()
        try:
            for task in tasks:
                while next_submit < len(tasks) and len(pending) < self.n_jobs:
                    queued = tasks[next_submit]
                    try:
                        pending[queued.index] = self._submit(queued)
                    except BrokenProcessPool:
                        # A worker died between the last result and this
                        # submit, so the break surfaces here instead of
                        # in result(); recover and retry on the new pool.
                        self._recover(tasks, pending, retries)
                        continue
                    next_submit += 1
                while True:
                    try:
                        chronologies, wall_seconds = pending[task.index].result()
                        break
                    except BrokenProcessPool:
                        self._recover(tasks, pending, retries)
                    except SimulationError:
                        raise
                    except Exception as exc:
                        raise SimulationError(
                            f"shard {task.index} raised in its worker: {exc!r}"
                        ) from exc
                committed_at = time.perf_counter()
                finished_at = self._done_at.pop(task.index, committed_at)
                del pending[task.index]
                yield ShardOutcome(
                    task=task,
                    chronologies=chronologies,
                    wall_seconds=wall_seconds,
                    queue_depth=len(pending),
                    commit_lag_seconds=max(0.0, committed_at - finished_at),
                    retries=retries.get(task.index, 0),
                )
        finally:
            self.close()

    def _recover(
        self,
        tasks: List[ShardTask],
        pending: Dict[int, Future],
        retries: Dict[int, int],
    ) -> None:
        """Rebuild the pool after a worker death and resubmit lost shards.

        A pool break kills every worker process, so any in-flight shard
        without a completed result is lost and must be reseeded from its
        index; results that finished before the break are kept as-is.
        Each lost shard is charged one retry — a shard that keeps killing
        its workers exhausts ``max_retries`` and fails the run.

        The resubmission itself can hit a *second* break (the freshly
        rebuilt pool dying before the first resubmit lands), so the
        rebuild-and-resubmit step loops: every break charges the still-
        lost shards another retry, and a shard that keeps breaking pools
        exhausts ``max_retries`` here like anywhere else.
        """
        by_index = {task.index: task for task in tasks}
        while True:
            self.pool_breaks += 1
            lost: List[int] = []
            for index, future in pending.items():
                if (
                    future.done()
                    and not future.cancelled()
                    and future.exception() is None
                ):
                    continue  # finished before the crash; its result survives
                lost.append(index)
            for index in lost:
                count = retries.get(index, 0) + 1
                retries[index] = count
                if count > self.max_retries:
                    raise SimulationError(
                        f"shard {index} was lost to a dying worker process "
                        f"{count} times (max_retries={self.max_retries}); "
                        "giving up on this run"
                    )
                self._done_at.pop(index, None)
            assert self._pool is not None
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = self._make_pool()
            try:
                for index in sorted(lost):
                    pending[index] = self._submit(by_index[index])
            except BrokenProcessPool:
                continue
            return
