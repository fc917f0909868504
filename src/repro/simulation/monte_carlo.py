"""Fleet-level Monte Carlo runner.

Simulating 1,000 RAID groups for 10 years, as the paper does, is 1,000
independent replications of the group simulator.  The runner fans a single
seed out to per-replication streams, optionally across processes, and
aggregates chronologies into a :class:`~repro.simulation.results.SimulationResult`.

Two engines realise the replication (see ``DESIGN.md`` §"Simulation
engines"):

``"event"``
    The reference per-group Python event loop
    (:class:`~repro.simulation.raid_simulator.RaidGroupSimulator`).  One
    spawned seed per group; results are byte-identical for a fixed
    ``(config, n_groups, seed)`` regardless of ``n_jobs``.
``"batch"``
    The NumPy-vectorized lockstep engine
    (:mod:`~repro.simulation.batch`), advancing fixed-size shards of the
    fleet together.  One spawned seed per shard; results are
    byte-identical for a fixed ``(config, n_groups, seed)`` regardless of
    ``n_jobs``, but the engines' random streams differ, so the two
    engines agree in distribution rather than sample for sample.
``"auto"``
    ``"batch"`` when the configuration supports it
    (:attr:`~repro.simulation.config.RaidGroupConfig.supports_batch_engine`),
    else ``"event"`` — decided from the configuration alone, so a query
    gives the same bytes on every host.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import require_int
from ..exceptions import ParameterError
# simulate_groups_batch is looked up here by perfbench's tracer, which
# wraps the kernel in this module and in the executor that calls it.
from .batch import BATCH_SHARD_SIZE, simulate_groups_batch  # noqa: F401
from .checkpoint import (
    RunCheckpoint,
    ShardSizes,
    add_shard,
    config_fingerprint,
    cursor_counts,
    load_checkpoint,
    save_checkpoint,
)
from .config import RaidGroupConfig
from .executor import (
    DEFAULT_MAX_SHARD_RETRIES,
    PipelinedShardExecutor,
    ShardOutcome,
    ShardTask,
    ShardWorker,
    _check_run,
    _run_shard_run,
    shard_plan,
    split_run,
)
from .raid_simulator import GroupChronology
from .results import SimulationResult
from .rng import make_seed_sequence
from .streaming import (
    FleetAccumulator,
    Precision,
    ProgressEvent,
    RunObserver,
    StreamingResult,
)

#: Engine names accepted by :class:`MonteCarloRunner`.
ENGINES = ("event", "batch", "auto")

#: Rows per batch-kernel call: a run hands the kernel up to
#: ``KERNEL_ROWS // shard_size`` consecutive seed shards at once, in
#: process and in each pool task alike (each shard on its own stream,
#: so results do not change).  The width balances the kernel's fixed
#: per-iteration numpy dispatch overhead against its temporary memory,
#: which grows with width.  On a 2-vCPU machine (Table 2 base case, one
#: shard per call, CPU time, best of 3) the kernel ran 85k groups/s at
#: 512 rows, 121k at 1,024, 168k at 2,048, 155k at 4,096 and 184k at
#: 8,192: past 2,048 rows the gain is small and the memory keeps
#: growing.
KERNEL_ROWS = 2048


def _shards_per_run(engine: str, shard_size: int, n_shards: int, n_jobs: int) -> int:
    """Consecutive seed shards one task advances in one kernel call.

    Batch runs take up to :data:`KERNEL_ROWS` rows, but no more than an
    even split of ``n_shards`` over ``n_jobs`` claimants (pool workers,
    or a distributed run's local jobs and connected remote workers), so
    a small plan still reaches every one; event shards go one at a time.
    ``n_shards`` is the plan length, or for a precision target the
    shards it is estimated to still need.
    """
    if engine != "batch":
        return 1
    return max(1, min(KERNEL_ROWS // shard_size, -(-n_shards // max(1, n_jobs))))


def _seed_state(seq: np.random.SeedSequence) -> dict:
    """Picklable reconstruction kwargs for a SeedSequence."""
    return {
        "entropy": seq.entropy,
        "spawn_key": seq.spawn_key,
        "pool_size": seq.pool_size,
    }


@dataclasses.dataclass
class _ExecutorStats:
    """Aggregated shard-executor telemetry for the run manifest."""

    mode: str
    n_jobs: int
    shards: int = 0
    groups_total: int = 0
    shard_seconds_total: float = 0.0
    shard_seconds_max: float = 0.0
    commit_lag_total: float = 0.0
    commit_lag_max: float = 0.0
    queue_depth_max: int = 0
    retries_total: int = 0
    pool_breaks: int = 0
    workers_started: int = 0
    last_queue_depth: int = 0
    workers: Dict[str, Dict[str, float]] = dataclasses.field(default_factory=dict)

    def observe(self, outcome: ShardOutcome) -> None:
        """Fold one committed shard's telemetry in.

        The last committed shard's queue depth counts what was simulated
        or in flight past it, which the run then discards.
        """
        self.shards += 1
        self.groups_total += outcome.task.n_groups
        self.shard_seconds_total += outcome.wall_seconds
        self.shard_seconds_max = max(self.shard_seconds_max, outcome.wall_seconds)
        self.commit_lag_total += outcome.commit_lag_seconds
        self.commit_lag_max = max(self.commit_lag_max, outcome.commit_lag_seconds)
        self.queue_depth_max = max(self.queue_depth_max, outcome.queue_depth)
        self.retries_total += outcome.retries
        self.last_queue_depth = outcome.queue_depth
        per = self.workers.setdefault(
            outcome.worker,
            {"shards": 0, "groups": 0, "wall_seconds": 0.0, "rtt_seconds": 0.0},
        )
        per["shards"] += 1
        per["groups"] += outcome.task.n_groups
        per["wall_seconds"] += outcome.wall_seconds
        per["rtt_seconds"] += outcome.rtt_seconds

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe summary (the manifest's ``executor`` section)."""
        shards = max(self.shards, 1)
        return {
            "mode": self.mode,
            "n_jobs": self.n_jobs,
            "shards_committed": self.shards,
            "groups_committed": self.groups_total,
            # Per-worker kernel throughput from the workers' own monotonic
            # clocks (sum of shard wall times), not wall-clock deltas in
            # this process — so it stays honest under pipelining, where
            # n_jobs shards run concurrently.
            "groups_per_second": (
                self.groups_total / self.shard_seconds_total
                if self.shard_seconds_total > 0
                else 0.0
            ),
            "shard_seconds_mean": self.shard_seconds_total / shards,
            "shard_seconds_max": self.shard_seconds_max,
            "commit_lag_seconds_mean": self.commit_lag_total / shards,
            "commit_lag_seconds_max": self.commit_lag_max,
            "queue_depth_max": self.queue_depth_max,
            "discarded_in_flight": self.last_queue_depth,
            "shard_retries": self.retries_total,
            "pool_breaks": self.pool_breaks,
            # Worker processes this run spawned: 0 when it leased an idle
            # pool, n_jobs for each pool it had to start.
            "workers_started": self.workers_started,
            # Per-worker breakdown (one "local" row for in-process work;
            # one host:pid row per remote worker that committed shards).
            "workers": {
                name: {
                    "shards_committed": int(per["shards"]),
                    "groups_committed": int(per["groups"]),
                    "wall_seconds": per["wall_seconds"],
                    "mean_rtt_seconds": (
                        per["rtt_seconds"] / per["shards"] if per["shards"] else 0.0
                    ),
                }
                for name, per in sorted(self.workers.items())
            },
        }


@dataclasses.dataclass
class MonteCarloRunner:
    """Configured fleet simulation.

    Attributes
    ----------
    config:
        The RAID group design under study.
    n_groups:
        Fleet size (the paper uses 1,000; estimates scale accordingly).
    seed:
        Root seed; identical (config, n_groups, seed, engine) tuples
        reproduce byte-identical results.
    n_jobs:
        Worker processes; 1 (default) runs in-process.  Never changes
        numeric results, only wall-clock.  Both :meth:`run` and
        :meth:`run_streaming` execute shards through a pipelined
        speculative pool (:mod:`~repro.simulation.executor`) that keeps
        up to ``n_jobs`` runs of consecutive shards in flight on every
        engine; fixed-size batch runs are up to :data:`KERNEL_ROWS`
        rows, cut shorter so every worker gets one.  0 is
        allowed only for distributed streaming runs
        (``run_streaming(workers=...)``) and means "no local shard
        pool": every shard is simulated by a remote worker.
    engine:
        ``"event"`` (default, the reference per-group event loop),
        ``"batch"`` (the vectorized lockstep engine), or ``"auto"``
        (``"batch"`` when the config supports it, else ``"event"``).
    """

    config: RaidGroupConfig
    n_groups: int = 1000
    seed: Optional[int] = 0
    n_jobs: int = 1
    engine: str = "event"

    def __post_init__(self) -> None:
        require_int("n_groups", self.n_groups, minimum=1)
        # 0 = remote-only streaming (no local shard pool); validated
        # against non-distributed use at run time.
        require_int("n_jobs", self.n_jobs, minimum=0)
        if self.engine not in ENGINES:
            raise ParameterError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.engine == "batch":
            reason = self.config.batch_engine_unsupported_reason
            if reason is not None:
                raise ParameterError(
                    f"engine={self.engine!r} cannot run this config: {reason}"
                )

    # ------------------------------------------------------------------
    def resolve_engine(self) -> str:
        """The concrete engine a :meth:`run` call will use."""
        if self.engine == "auto":
            return "batch" if self.config.supports_batch_engine else "event"
        return self.engine

    def run(self, until: "Union[Precision, float, None]" = None) -> SimulationResult:
        """Simulate the fleet and aggregate.

        A :meth:`run_streaming` run that keeps its chronologies; the
        returned result carries that run's statistics on
        :attr:`~repro.simulation.results.SimulationResult.streaming`.

        Parameters
        ----------
        until:
            Optional convergence target (a
            :class:`~repro.simulation.streaming.Precision` or a bare
            relative CI width).  When given, the fleet grows in seeded
            shards until the mission-DDF-rate CI is tight enough, with
            :attr:`n_groups` as the hard cap; otherwise the fleet is
            exactly :attr:`n_groups` groups.
        """
        streaming = self.run_streaming(until=until, keep_chronologies=True)
        # The result holds the run but not the reverse: a link back would
        # be a cycle that keeps every chronology alive until the cyclic
        # garbage collector runs.
        result, streaming.result = streaming.result, None
        result.streaming = streaming
        return result

    # ------------------------------------------------------------------
    def run_streaming(
        self,
        until: "Union[Precision, float, None]" = None,
        *,
        checkpoint_path: Optional[str] = None,
        resume_from: "Union[str, RunCheckpoint, None]" = None,
        observers: Sequence[RunObserver] = (),
        keep_chronologies: bool = False,
        shard_size: int = BATCH_SHARD_SIZE,
        time_grid: Optional[Sequence[float]] = None,
        stop_after_shards: Optional[int] = None,
        max_shard_retries: int = DEFAULT_MAX_SHARD_RETRIES,
        workers: "Union[str, RemoteWorkerHub, None]" = None,
        _shard_worker: Optional[ShardWorker] = None,
    ) -> StreamingResult:
        """Simulate shard-by-shard through streaming accumulators.

        The fleet is advanced in seeded shards of ``shard_size`` groups
        (the last shard truncated to the target).  Wherever a shard is
        simulated (here, in a pool worker or on a remote worker), it is
        summarized there into a small
        :class:`~repro.simulation.streaming.FleetAccumulator`, and this
        process merges the summaries into the run's accumulator in shard
        order.  Merging is exact, so the result is the same bytes
        however the shards were simulated.  A batch shard's summary is
        built from the kernel's per-group arrays without any
        :class:`~repro.simulation.raid_simulator.GroupChronology`; only
        ``keep_chronologies`` builds and returns them.  Shard seeding matches
        the materialized :meth:`run` path exactly — one spawned
        :class:`~numpy.random.SeedSequence` child per group (event
        engine) or per shard (batch engine) — so a fixed-size streaming
        run reproduces :meth:`run` and a converged run is reproducible
        from ``(config, seed, engine, shards_run)``.

        With ``n_jobs > 1`` the shards are executed by a
        :class:`~repro.simulation.executor.PipelinedShardExecutor`: a
        ``spawn``-context worker pool, leased from the process's idle
        pools (a later run reuses its workers), speculatively simulates
        up to ``n_jobs`` runs of consecutive shards ahead (each shard's
        streams are a pure function of its index) while this process
        commits results strictly in shard order — so parallel runs are
        **bit-identical** to serial ones on every engine, including
        checkpoints, resume, and convergence stopping (in-flight shards
        past the stopping shard are discarded as if never run).  A batch
        run hands each worker up to :data:`KERNEL_ROWS` rows of shards per
        kernel call, like the serial path.  Under a precision target each
        run is sized from the groups still missing to ``min_groups``, then
        from the current CI width
        (:meth:`~repro.simulation.streaming.Precision.groups_needed`), but
        the stopping rule is still tested after every committed shard, so
        the run stops at the same shard with the same bytes; whatever was
        simulated past it is dropped.  Serially that is less than one run
        (at most ``KERNEL_ROWS // shard_size - 1`` shards); with the pool,
        the rest of the stopping shard's run plus at most ``n_jobs`` runs.
        A distributed run (``workers=``) cuts its runs by the same rule,
        split over its ``n_jobs`` local jobs plus the connected remote
        workers.  When every claimant keeps pace with the commits it
        drops the rest of the stopping shard's run, plus one run per
        remote link (the one queued behind the run arriving), plus
        ``n_jobs`` local runs.  However slowly the commit itself goes,
        the pool holds at most ``n_jobs`` runs past it.  Nothing holds
        back a claimant whose runs wait on a slower link's shard: a link
        still receiving a run past the stop has two out, and a link or
        the pool that finished later runs while the commit waited on a
        slower link drops those too.

        Parameters
        ----------
        until:
            Convergence target; ``None`` runs exactly :attr:`n_groups`
            groups.  A target without ``max_groups`` is capped at
            :attr:`n_groups`.
        checkpoint_path:
            When given, an atomically rewritten JSON checkpoint once per
            committed run and at every stop (requires an integer
            :attr:`seed`).  The shards of a run are merged one by one and
            the stopping rule is tested after each; the checkpoint is
            written at the run's last shard, or at the shard the run stops
            at.  So an exception inside a run (a worker failure, or Ctrl-C
            in the kernel) loses at most that run's committed shards from
            the file, and a resume re-simulates them with the same bytes.
        resume_from:
            Path to (or loaded) checkpoint to continue from; the
            accumulator and shard cursor are restored and simulation
            continues with the next shard, bit-identically to an
            uninterrupted run.  A resume with nothing left to simulate
            answers from the checkpoint alone: it builds no seed state,
            executor or outcome generator.
        observers:
            Callables receiving a
            :class:`~repro.simulation.streaming.ProgressEvent` for each
            committed shard (``done=True`` on the last).  A run's events
            are delivered in a burst, in order, once the run is committed
            and its checkpoint written, so an exception raised from an
            observer leaves a checkpoint at or past every event
            delivered.
        keep_chronologies:
            Also materialize every chronology and attach a
            :class:`~repro.simulation.results.SimulationResult`, without
            a link back to this result (incompatible with
            ``resume_from``, whose earlier shards are no longer
            materializable).
        shard_size:
            Groups per shard; the default matches the batch engine's
            kernel shards so streaming and materialized batch runs
            consume identical random streams.
        time_grid:
            Optional ages (hours) at which the accumulator tracks the
            cumulative fleet DDF curve.
        stop_after_shards:
            Stop (with ``stop_reason="interrupted"``) after this many
            shards *in this call* — the programmatic analogue of an
            interruption, used with ``checkpoint_path``/``resume_from``.
        max_shard_retries:
            Under the parallel executor, how many times a shard whose
            worker process died is reseeded from its index and re-run
            before the run raises
            :class:`~repro.exceptions.SimulationError`.
        workers:
            Distribute shards over remote TCP workers as well: either an
            already-listening :class:`~repro.simulation.remote.RemoteWorkerHub`
            (e.g. the one ``repro serve`` owns) or a ``"host:port"``
            bind address, in which case an ephemeral hub is opened for
            this run and closed with it.  ``repro worker --connect``
            processes that dial the hub pull runs of shards alongside the
            local pool; because every shard is reseeded from its index and
            commits stay in shard order, the distributed run is
            bit-identical to the serial one.
        """
        require_int("shard_size", shard_size, minimum=1)
        if stop_after_shards is not None:
            require_int("stop_after_shards", stop_after_shards, minimum=1)
        engine = self.resolve_engine()
        precision = (
            Precision.normalize(until, default_max_groups=self.n_groups)
            if until is not None
            else None
        )
        fixed_target = self.n_groups if precision is None else None
        cap = precision.max_groups if precision is not None else self.n_groups
        if (checkpoint_path is not None or resume_from is not None) and not isinstance(
            self.seed, int
        ):
            raise ParameterError(
                "checkpoint/resume requires an integer seed; an entropy-seeded "
                "run cannot be reproduced after an interruption"
            )
        if keep_chronologies and resume_from is not None:
            raise ParameterError(
                "keep_chronologies cannot be combined with resume_from: the "
                "checkpointed shards' chronologies were not retained"
            )

        if resume_from is None:
            accumulator = FleetAccumulator(self.config.mission_hours, time_grid=time_grid)
            sizes: ShardSizes = []
            prior_elapsed = 0.0
        else:
            checkpoint = (
                resume_from
                if isinstance(resume_from, RunCheckpoint)
                else load_checkpoint(resume_from)
            )
            checkpoint.validate_against(self.config, self.seed, engine, shard_size)
            accumulator = checkpoint.accumulator()
            if time_grid is not None and (
                accumulator.time_grid is None
                or not np.array_equal(
                    accumulator.time_grid, np.asarray(list(time_grid), dtype=float)
                )
            ):
                raise ParameterError(
                    "time_grid does not match the checkpointed accumulator"
                )
            # Copied: the commit loop extends it, and a cache entry's
            # checkpoint is shared.
            sizes = [list(pair) for pair in checkpoint.shard_sizes]
            prior_elapsed = checkpoint.elapsed_seconds
        shards_done, groups_done = cursor_counts(sizes)

        # A resumed accumulator may already meet the target; then there
        # is nothing to simulate.
        converged = precision is not None and precision.satisfied_by(accumulator)
        # The shard plan toward the cap is a pure function of the cursor,
        # so it is fixed up front; stopping merely truncates it, and an
        # interruption cuts it before anything past it is simulated.
        target = fixed_target if fixed_target is not None else cap
        plan = (
            []
            if converged
            else shard_plan(shards_done, groups_done, target, shard_size)[
                :stop_after_shards
            ]
        )
        if not plan:
            # Nothing left to simulate, which only a resume of a finished
            # or converged run (never one that keeps chronologies) meets:
            # answer from the checkpoint alone, without seed state, an
            # executor or an outcome generator.
            return self._result(
                accumulator,
                engine,
                shard_size,
                sizes,
                converged,
                (
                    "converged"
                    if converged
                    else "fixed" if fixed_target is not None else "max_groups"
                ),
                precision,
                prior_elapsed,
                _ExecutorStats(mode="serial", n_jobs=1),
                None,
            )

        root_state = _seed_state(make_seed_sequence(self.seed))
        hub: "Optional[RemoteWorkerHub]" = None
        owned_hub = False
        if workers is not None:
            from .remote import RemoteWorkerHub

            if isinstance(workers, RemoteWorkerHub):
                hub = workers
            else:
                hub = RemoteWorkerHub(bind=workers)
                owned_hub = True
        if self.n_jobs == 0 and hub is None:
            raise ParameterError(
                "n_jobs=0 (no local shard pool) requires workers= — there "
                "would be nobody to simulate the shards"
            )

        def run_length(claimants: int) -> int:
            # One rule for every executor, read on this thread whenever a
            # run is sized: the groups still needed (a fixed-size run
            # needs its whole plan) split over the claimants counted then.
            # Clamped as a float: the estimate may be inf or astronomical.
            needed = (
                math.inf if precision is None else precision.groups_needed(accumulator)
            )
            shards = min(needed / shard_size, len(plan))
            return _shards_per_run(engine, shard_size, math.ceil(shards), claimants)

        # Every shard is summarized over the accumulator's grid, which a
        # resumed run takes from its checkpoint.
        grid = None if accumulator.time_grid is None else accumulator.time_grid.tolist()
        if hub is not None:
            from .remote import DistributedShardExecutor

            executor = DistributedShardExecutor(
                self.config,
                root_state,
                engine,
                self.n_jobs,
                hub=hub,
                shards_per_run=lambda: run_length(self.n_jobs + hub.n_workers()),
                max_retries=max_shard_retries,
                worker=_shard_worker,
                time_grid=grid,
                keep_chronologies=keep_chronologies,
            )
            source = executor.outcomes(plan)
        else:
            executor, source = self._local_outcomes(
                plan,
                engine,
                root_state,
                run_length,
                max_retries=max_shard_retries,
                worker=_shard_worker,
                time_grid=grid,
                keep_chronologies=keep_chronologies,
            )
        parallel = executor is not None

        kept: List[GroupChronology] = []
        # The events of the run being committed, delivered once it is.
        pending: List[ProgressEvent] = []
        start = time.perf_counter()
        shards_this_call = 0
        groups_at_start = groups_done
        stop_reason: Optional[str] = None
        stats = _ExecutorStats(
            mode=(
                "distributed"
                if hub is not None
                else "pipelined" if parallel else "serial"
            ),
            n_jobs=executor.n_jobs if executor is not None else 1,
        )
        try:
            for outcome in source:
                accumulator.merge(outcome.summary)
                if keep_chronologies:
                    kept.extend(outcome.chronologies)
                add_shard(sizes, outcome.task.n_groups)
                shards_done += 1
                shards_this_call += 1
                groups_done += outcome.task.n_groups
                stats.observe(outcome)

                converged = precision is not None and precision.satisfied_by(accumulator)
                if converged:
                    stop_reason = "converged"
                elif fixed_target is not None and groups_done >= fixed_target:
                    stop_reason = "fixed"
                elif precision is not None and groups_done >= cap:
                    stop_reason = "max_groups"
                elif (
                    stop_after_shards is not None
                    and shards_this_call >= stop_after_shards
                ):
                    stop_reason = "interrupted"

                elapsed = prior_elapsed + (time.perf_counter() - start)
                if observers:
                    pending.append(
                        self._progress_event(
                            accumulator,
                            precision,
                            shards_done,
                            groups_done,
                            groups_at_start,
                            elapsed,
                            prior_elapsed,
                            converged,
                            done=stop_reason is not None,
                            outcome=outcome,
                        )
                    )
                if not outcome.run_end and stop_reason is None:
                    continue
                # The run is committed, or stops at this shard: write the
                # checkpoint once, then deliver the run's events.
                if checkpoint_path is not None:
                    save_checkpoint(
                        checkpoint_path,
                        RunCheckpoint(
                            fingerprint=config_fingerprint(self.config),
                            seed=self.seed,
                            engine=engine,
                            shard_size=shard_size,
                            shard_sizes=sizes,
                            accumulator_state=accumulator.to_dict(),
                            elapsed_seconds=elapsed,
                        ),
                    )
                for event in pending:
                    for observer in observers:
                        observer(event)
                pending.clear()
                if stop_reason is not None:
                    break
        finally:
            source.close()
            if owned_hub and hub is not None:
                hub.close()
        if executor is not None:
            stats.pool_breaks = executor.pool_breaks
            stats.workers_started = executor.workers_started
        return self._result(
            accumulator,
            engine,
            shard_size,
            sizes,
            converged,
            stop_reason or "interrupted",
            precision,
            prior_elapsed + (time.perf_counter() - start),
            stats,
            kept if keep_chronologies else None,
        )

    def _result(
        self,
        accumulator: FleetAccumulator,
        engine: str,
        shard_size: int,
        sizes: ShardSizes,
        converged: bool,
        stop_reason: str,
        precision: Optional[Precision],
        elapsed: float,
        stats: _ExecutorStats,
        kept: Optional[List[GroupChronology]],
    ) -> StreamingResult:
        """The run's :class:`~repro.simulation.streaming.StreamingResult`,
        with its materialized result attached when ``kept`` holds the
        chronologies."""
        seed = self.seed if isinstance(self.seed, int) else None
        shards, groups = cursor_counts(sizes)
        streaming = StreamingResult(
            accumulator=accumulator,
            seed=seed,
            engine=engine,
            shard_size=shard_size,
            shards_run=shards,
            groups=groups,
            converged=converged,
            stop_reason=stop_reason,
            shard_sizes=sizes,
            precision=precision,
            elapsed_seconds=elapsed,
            executor_stats=stats.to_dict(),
        )
        if kept is not None:
            # No link back to the run: a reference cycle would keep every
            # chronology alive until the cyclic garbage collector runs.
            streaming.result = SimulationResult(
                config=self.config, chronologies=kept, seed=seed, engine=engine
            )
        return streaming

    @staticmethod
    def _progress_event(
        accumulator: FleetAccumulator,
        precision: Optional[Precision],
        shards_done: int,
        groups_done: int,
        groups_at_start: int,
        elapsed: float,
        prior_elapsed: float,
        converged: bool,
        done: bool,
        outcome: ShardOutcome,
    ) -> ProgressEvent:
        """The progress event of one committed shard."""
        confidence = precision.confidence if precision is not None else 0.95
        estimate, lo, hi = accumulator.ddfs_per_thousand_ci(confidence)
        call_elapsed = max(elapsed - prior_elapsed, 1e-9)
        return ProgressEvent(
            shards_completed=shards_done,
            groups_completed=groups_done,
            total_ddfs=accumulator.total_ddfs,
            ddfs_per_1000=estimate,
            ci_lo=lo,
            ci_hi=hi,
            rel_ci_width=accumulator.relative_ci_width(confidence),
            elapsed_seconds=elapsed,
            groups_per_second=(groups_done - groups_at_start) / call_elapsed,
            converged=converged,
            done=done,
            shard_seconds=outcome.wall_seconds,
            queue_depth=outcome.queue_depth,
            commit_lag_seconds=outcome.commit_lag_seconds,
            shard_retries=outcome.retries,
            shard_groups_per_second=(
                outcome.task.n_groups / outcome.wall_seconds
                if outcome.wall_seconds > 0
                else 0.0
            ),
            shard_worker=outcome.worker,
        )

    def _local_outcomes(
        self,
        plan: Sequence[ShardTask],
        engine: str,
        root_state: dict,
        run_length: Callable[[int], int],
        *,
        max_retries: int = DEFAULT_MAX_SHARD_RETRIES,
        worker: Optional[ShardWorker] = None,
        time_grid: Optional[Sequence[float]] = None,
        keep_chronologies: bool = False,
    ) -> "Tuple[Optional[PipelinedShardExecutor], Iterator[ShardOutcome]]":
        """The plan's outcomes, in order, from the spawn pool or in process.

        ``n_jobs > 1`` runs the plan through a
        :class:`~repro.simulation.executor.PipelinedShardExecutor`
        (returned alongside, for its telemetry); ``n_jobs=1`` runs it
        here.  Either way the plan is cut into runs of
        ``run_length(jobs)`` shards, each sized when it starts and
        simulated by the same run function, which calls the ``worker``
        hook once per shard; every outcome carries its shard's summary
        over ``time_grid`` (and its chronologies when
        ``keep_chronologies``).
        """
        if self.n_jobs <= 1:
            return None, self._serial_outcomes(
                plan,
                engine,
                root_state,
                worker,
                lambda: run_length(1),
                time_grid,
                keep_chronologies,
            )
        executor = PipelinedShardExecutor(
            self.config,
            root_state,
            engine,
            min(self.n_jobs, -(-len(plan) // run_length(self.n_jobs))),
            shards_per_run=lambda: run_length(self.n_jobs),
            max_retries=max_retries,
            worker=worker,
            time_grid=time_grid,
            keep_chronologies=keep_chronologies,
        )
        return executor, executor.outcomes(plan)

    def _serial_outcomes(
        self,
        plan: Sequence[ShardTask],
        engine: str,
        root_state: dict,
        worker: Optional[ShardWorker],
        run_length: Callable[[], int],
        time_grid: Optional[Sequence[float]] = None,
        keep_chronologies: bool = False,
    ) -> Iterator[ShardOutcome]:
        """In-process shard execution (``n_jobs=1``).

        Consecutive shards are simulated ``run_length()`` at a time, sized
        when the run starts (after the previous run's shards were taken),
        by the run function a pool task calls
        (:func:`~repro.simulation.executor._run_shard_run`, with the same
        ``worker`` hook), and checked as a pool run is.  They are still
        delivered one by one, each timed at its share of the run's wall
        time, and the run's last carries the end-of-run mark.
        """
        first = 0
        while first < len(plan):
            run = plan[first : first + run_length()]
            first += len(run)
            per_shard, wall = _run_shard_run(
                self.config, root_state, engine, run, worker, time_grid, keep_chronologies
            )
            _check_run(run, per_shard, "local")
            for delivered, (task, (summary, chronologies), seconds) in enumerate(
                zip(run, per_shard, split_run(run, wall)), 1
            ):
                yield ShardOutcome(
                    task=task,
                    summary=summary,
                    chronologies=chronologies,
                    wall_seconds=seconds,
                    queue_depth=len(run) - delivered,
                    run_end=delivered == len(run),
                )


def simulate_raid_groups(
    config: RaidGroupConfig,
    n_groups: int = 1000,
    seed: Optional[int] = 0,
    n_jobs: int = 1,
    engine: str = "event",
    until: "Union[Precision, float, None]" = None,
) -> SimulationResult:
    """One-call fleet simulation.

    With ``until`` (a :class:`~repro.simulation.streaming.Precision` or a
    bare relative CI width), ``n_groups`` becomes the fleet-size cap and
    the run stops as soon as the DDF-rate CI is tight enough.

    Examples
    --------
    >>> from repro.simulation import RaidGroupConfig
    >>> result = simulate_raid_groups(
    ...     RaidGroupConfig.paper_base_case(), n_groups=50, seed=1)
    >>> result.n_groups
    50
    """
    return MonteCarloRunner(
        config=config, n_groups=n_groups, seed=seed, n_jobs=n_jobs, engine=engine
    ).run(until=until)
