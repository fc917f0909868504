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

* the plan is cut into *runs* of consecutive shards; each pool task
  advances one run, and a batch-engine run is a single
  :func:`~repro.simulation.batch.simulate_groups_batch` call of up to
  :data:`~repro.simulation.monte_carlo.KERNEL_ROWS` rows (the in-process
  path groups shards the same way),
* a persistent ``spawn``-context :class:`~concurrent.futures.ProcessPoolExecutor`
  keeps up to ``n_jobs`` runs in flight ahead of the commit cursor, and
  submits the next run as soon as it takes a run's result — *before*
  that run is committed, so no worker idles while the consumer commits,
  checkpoints and notifies observers,
* the main process consumes results **in shard order**, one shard at a
  time, and folds them into the accumulator, so convergence stopping,
  checkpoints, and observers behave exactly as in a serial run,
* shards in flight when a precision target stops the run are simply
  never committed — discarded as if they had never been simulated,
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
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
        simulated together in one run (one kernel call, in process or
        in a pool task) split the run's wall time by their shares of its
        groups.
    queue_depth:
        Shards still in flight after this one was delivered: submitted
        to the pool (or claimed by a worker) and not yet taken back.
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
# worker process; task submissions then carry only the (tiny) ShardTasks.
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
    1``).  All match the root's sequential ``spawn`` order exactly.
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


def simulate_shards(
    config: RaidGroupConfig,
    root_state: dict,
    engine: str,
    run: Sequence[ShardTask],
) -> List[List[GroupChronology]]:
    """Simulate a run of consecutive shards; one chronology list per shard.

    Batch shards share one kernel call, each drawing from its own shard's
    generator, so the result equals :func:`simulate_shard` per shard;
    compiled and event shards run one after another.
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

    The distributed executor's local pool runs it per claimed shard.
    """
    start = time.perf_counter()
    chronologies = simulate_shard(
        _worker_config, _worker_root_state, _worker_engine, task
    )
    return chronologies, time.perf_counter() - start


#: Worker signature: ShardTask -> (chronologies, wall_seconds).
ShardWorker = Callable[[ShardTask], "Tuple[List[GroupChronology], float]"]


def _run_shard_run(
    run: Sequence[ShardTask], worker: Optional[ShardWorker]
) -> "Tuple[List[List[GroupChronology]], float]":
    """Pool task: simulate a run of shards, timing the whole run.

    The run is one :func:`simulate_shards` call, unless a ``worker`` hook
    is injected: that is called once per shard, so a hook that kills its
    process loses the whole run.
    """
    start = time.perf_counter()
    if worker is None:
        per_shard = simulate_shards(
            _worker_config, _worker_root_state, _worker_engine, run
        )
    else:
        per_shard = [worker(task)[0] for task in run]
    return per_shard, time.perf_counter() - start


# ----------------------------------------------------------------------
class PipelinedShardExecutor:
    """Out-of-order speculative shard execution with in-order delivery.

    :meth:`outcomes` yields one :class:`ShardOutcome` per planned shard,
    in plan order.  The plan is cut into runs of ``shards_per_run``
    consecutive shards, one pool task each, and a persistent worker pool
    keeps up to ``n_jobs`` runs in flight ahead of the consumer.  The
    next run is submitted as soon as a run's result is taken, before its
    shards are delivered, so at most ``n_jobs`` runs are simulated past
    the shard the consumer stops at.  Closing the generator (e.g.
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
        shards_per_run: int = 1,
        max_retries: int = DEFAULT_MAX_SHARD_RETRIES,
        worker: Optional[ShardWorker] = None,
    ) -> None:
        if n_jobs < 1:
            raise SimulationError(f"n_jobs must be >= 1, got {n_jobs!r}")
        if shards_per_run < 1:
            raise SimulationError(
                f"shards_per_run must be >= 1, got {shards_per_run!r}"
            )
        if max_retries < 0:
            raise SimulationError(f"max_retries must be >= 0, got {max_retries!r}")
        self.config = config
        self.root_state = root_state
        self.engine = engine
        self.n_jobs = n_jobs
        self.shards_per_run = shards_per_run
        self.max_retries = max_retries
        self.pool_breaks = 0
        self._worker = worker
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

    def _submit_run(self, number: int, run: Tuple[ShardTask, ...]) -> Future:
        """Hand run ``number`` of the plan to the pool."""
        assert self._pool is not None
        future = self._pool.submit(_run_shard_run, run, self._worker)
        future.add_done_callback(
            lambda _f: self._done_at.setdefault(number, time.perf_counter())
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
        step = self.shards_per_run
        runs = [tuple(tasks[i : i + step]) for i in range(0, len(tasks), step)]
        pending: Dict[int, Future] = {}
        retries: Dict[int, int] = {}
        self._pool = self._make_pool()
        try:
            submitted = self._top_up(runs, pending, retries, 0)
            for number, run in enumerate(runs):
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
                submitted = self._top_up(runs, pending, retries, submitted)
                in_flight = sum(len(runs[queued]) for queued in pending)
                for task, chronologies, seconds in split_run(
                    run, per_shard, wall_seconds
                ):
                    yield ShardOutcome(
                        task=task,
                        chronologies=chronologies,
                        wall_seconds=seconds,
                        queue_depth=in_flight,
                        commit_lag_seconds=max(0.0, time.perf_counter() - finished_at),
                        retries=retries.get(number, 0),
                    )
        finally:
            self.close()

    def _top_up(
        self,
        runs: List[Tuple[ShardTask, ...]],
        pending: Dict[int, Future],
        retries: Dict[int, int],
        submitted: int,
    ) -> int:
        """Submit runs until ``n_jobs`` are in flight; return the next to submit."""
        while submitted < len(runs) and len(pending) < self.n_jobs:
            try:
                pending[submitted] = self._submit_run(submitted, runs[submitted])
            except BrokenProcessPool:
                # A worker died after the last result was taken, so the
                # break surfaces here instead of in result(); recover and
                # retry on the new pool.
                self._recover(runs, pending, retries)
                continue
            submitted += 1
        return submitted

    def _recover(
        self,
        runs: List[Tuple[ShardTask, ...]],
        pending: Dict[int, Future],
        retries: Dict[int, int],
    ) -> None:
        """Rebuild the pool after a worker death and resubmit lost runs.

        A pool break kills every worker process, so any in-flight run
        without a completed result is lost and must be reseeded from its
        shard indices; results that finished before the break are kept
        as-is.  Each lost run — every shard in it — is charged one retry;
        a run that keeps killing its workers exhausts ``max_retries`` and
        fails the run.

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
            self._pool = self._make_pool()
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
