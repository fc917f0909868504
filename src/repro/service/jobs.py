"""Background refinement jobs: coalescing, bounded workers, partial answers.

The Monte Carlo tier of the query service runs
:meth:`~repro.simulation.monte_carlo.MonteCarloRunner.run_streaming`
``until=Precision(...)`` on a bounded thread pool (each run in turn fans
shards across the pipelined process-pool shard executor when
``n_jobs > 1``).  This module owns everything around those runs:

* **Query identity** (:class:`QuerySpec`): the canonical fingerprint,
  horizon, and normalised precision target; its :attr:`QuerySpec.job_key`
  is the coalescing key, so byte-identical in-flight queries await one
  simulation instead of spawning duplicates.
* **Deterministic seeding** (:func:`derive_seed`): each configuration's
  fleet seed is a pure function of ``(service seed, fingerprint)``, so a
  cache-extended run is bit-identical to a cold run of the same length,
  across service restarts and machines.
* **Mid-flight answers** (:class:`RefinementJob`): the run's progress
  observer publishes a snapshot after every committed shard, so a
  non-blocking query can read the current estimate and confidence
  interval while refinement continues.  A run commits the shards of
  one kernel call together, so snapshots advance a run at a time.
* **Fault tolerance**: worker kills inside the shard executor are
  retried there (shards reseeded from their index); the job completes
  with identical statistics, and the retry count is surfaced in
  telemetry.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ParameterError
from ..simulation.checkpoint import RunCheckpoint, config_fingerprint
from ..simulation.config import RaidGroupConfig
from ..simulation.executor import DEFAULT_MAX_SHARD_RETRIES, ShardWorker
from ..simulation.monte_carlo import MonteCarloRunner
from ..simulation.remote import RemoteWorkerHub
from ..simulation.streaming import (
    Precision,
    ProgressEvent,
    RunObserver,
    StreamingResult,
)
from .cache import CacheEntry, CacheKey, ResultCache

#: Points on the cached data-loss curve grid (a pure function of the
#: horizon, so accumulators for one cache key always merge).
CURVE_GRID_POINTS = 32

#: Default per-query fleet-size cap.
DEFAULT_MAX_GROUPS = 100_000

#: Default precision target when a query names none.
DEFAULT_REL_CI_WIDTH = 0.2


def service_time_grid(horizon_hours: float) -> "np.ndarray":
    """The canonical data-loss curve grid for a horizon.

    Strictly positive, ending exactly at the horizon; identical for
    every run against the same cache key, which is what lets a cached
    accumulator extend instead of restarting.
    """
    if horizon_hours <= 0:
        raise ParameterError(f"horizon_hours must be > 0, got {horizon_hours!r}")
    return np.linspace(0.0, float(horizon_hours), CURVE_GRID_POINTS + 1)[1:]


def derive_seed(service_seed: int, fingerprint: str) -> int:
    """Per-configuration fleet seed: pure function of service seed + design.

    Stable across processes (the fingerprint already is), so cache
    entries written by one service process resume bit-identically in
    another.
    """
    return (int(fingerprint[:16], 16) ^ (service_seed * 0x9E3779B97F4A7C15)) % (
        2**63
    )


@dataclasses.dataclass(frozen=True)
class QuerySpec:
    """One normalised reliability query (the coalescing unit)."""

    config: RaidGroupConfig
    fingerprint: str  #: canonical fingerprint (repro.validation.fingerprint)
    horizon_hours: float
    precision: Precision

    @property
    def job_key(self) -> Tuple[str, float, float, float, Optional[int], int]:
        """Identity of the simulation this query needs; equal keys coalesce."""
        p = self.precision
        return (
            self.fingerprint,
            self.horizon_hours,
            p.rel_ci_width,
            p.confidence,
            p.max_groups,
            p.min_groups,
        )


class RefinementJob:
    """One background streaming run, shared by every coalesced waiter."""

    def __init__(self, spec: QuerySpec, started_from_groups: int, source: str) -> None:
        self.spec = spec
        self.started_from_groups = started_from_groups
        self.source = source  #: "cold" or "extend"
        self.future: "Future[StreamingResult]" = Future()
        self.waiters = 0
        self._snapshot: Optional[ProgressEvent] = None
        self._lock = threading.Lock()

    # -- mid-flight visibility -----------------------------------------
    def observe(self, event: ProgressEvent) -> None:
        """Progress observer: publish the latest (frozen) event."""
        with self._lock:
            self._snapshot = event

    def snapshot(self) -> Optional[ProgressEvent]:
        """The most recent progress event (``None`` before any shard)."""
        with self._lock:
            return self._snapshot


class JobManager:
    """Bounded simulation workers with request coalescing.

    ``submit`` is the only entry point: it returns the in-flight job for
    the query's :attr:`~QuerySpec.job_key` if one exists (coalesced), or
    starts a new one — resuming from a cache entry when the cache holds
    a looser result for the same key.  Completed jobs write their
    refreshed accumulator checkpoint back into the cache before
    resolving their future, so every waiter (and every later query)
    observes the cached state.
    """

    def __init__(
        self,
        cache: ResultCache,
        *,
        max_workers: int = 2,
        engine: str = "auto",
        n_jobs: int = 1,
        seed: int = 0,
        shard_size: int = 256,
        max_groups: int = DEFAULT_MAX_GROUPS,
        max_shard_retries: int = DEFAULT_MAX_SHARD_RETRIES,
        shard_worker: Optional[ShardWorker] = None,
        workers: "Optional[RemoteWorkerHub]" = None,
        extra_observers: Sequence[RunObserver] = (),
    ) -> None:
        if max_workers < 1:
            raise ParameterError(f"max_workers must be >= 1, got {max_workers!r}")
        self.cache = cache
        self.engine = engine
        self.n_jobs = n_jobs
        self.seed = seed
        self.shard_size = shard_size
        self.max_groups = max_groups
        self.max_shard_retries = max_shard_retries
        self.max_workers = max_workers
        self._shard_worker = shard_worker
        self.workers = workers
        self._extra_observers = tuple(extra_observers)
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._inflight: Dict[Tuple, RefinementJob] = {}
        self._lock = threading.Lock()
        # telemetry
        self.simulations_started = 0
        self.simulations_completed = 0
        self.simulations_failed = 0
        self.coalesced_total = 0
        self.shard_retries_total = 0
        self.pool_breaks_total = 0
        self.groups_simulated_total = 0
        self.max_in_flight = 0

    # ------------------------------------------------------------------
    def normalize_precision(
        self,
        rel_ci_width: Optional[float],
        confidence: Optional[float],
        min_groups: Optional[int],
        max_groups: Optional[int],
    ) -> Precision:
        """A query's precision target, clamped to the service's cap."""
        cap = self.max_groups if max_groups is None else min(max_groups, self.max_groups)
        return Precision(
            rel_ci_width=(
                DEFAULT_REL_CI_WIDTH if rel_ci_width is None else float(rel_ci_width)
            ),
            confidence=0.95 if confidence is None else float(confidence),
            max_groups=cap,
            min_groups=256 if min_groups is None else int(min_groups),
        )

    def submit(
        self, spec: QuerySpec, resume_entry: Optional[CacheEntry]
    ) -> "Tuple[RefinementJob, bool]":
        """Coalesce onto an in-flight job or start a new one.

        Returns ``(job, coalesced)``.  ``resume_entry`` is the cache's
        extendable entry for this key (``None`` for a cold start); it is
        re-validated against the run's reproducibility coordinates by
        ``run_streaming`` itself.
        """
        key = spec.job_key
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                existing.waiters += 1
                self.coalesced_total += 1
                return existing, True
            source = "extend" if resume_entry is not None else "cold"
            job = RefinementJob(
                spec,
                started_from_groups=(resume_entry.groups if resume_entry else 0),
                source=source,
            )
            job.waiters = 1
            self._inflight[key] = job
            self.simulations_started += 1
            self.max_in_flight = max(self.max_in_flight, len(self._inflight))
        self._executor.submit(self._run, job, resume_entry)
        return job, False

    # ------------------------------------------------------------------
    def _runner(self, spec: QuerySpec) -> MonteCarloRunner:
        """The runner this manager refines ``spec`` with."""
        return MonteCarloRunner(
            spec.config,
            n_groups=spec.precision.max_groups or self.max_groups,
            seed=derive_seed(self.seed, spec.fingerprint),
            n_jobs=self.n_jobs,
            engine=self.engine,
        )

    def cache_key(self, spec: QuerySpec) -> CacheKey:
        """``spec``'s cache key under this manager's resume coordinates."""
        runner = self._runner(spec)
        return CacheKey(
            spec.fingerprint,
            spec.horizon_hours,
            runner.resolve_engine(),
            runner.seed,
            self.shard_size,
        )

    def run_simulation(
        self,
        spec: QuerySpec,
        resume_checkpoint: Optional[RunCheckpoint] = None,
        observers: Sequence[RunObserver] = (),
        stop_after_shards: Optional[int] = None,
    ) -> StreamingResult:
        """One streaming run for a query, cold or resumed.

        This is the deterministic core the cache-merge property tests
        pin: for a fixed spec, resuming a ``k``-shard checkpoint and
        running to ``m`` total shards is bit-identical to a cold
        ``m``-shard run.
        """
        return self._runner(spec).run_streaming(
            until=spec.precision,
            resume_from=resume_checkpoint,
            observers=tuple(observers) + self._extra_observers,
            shard_size=self.shard_size,
            time_grid=service_time_grid(spec.horizon_hours),
            stop_after_shards=stop_after_shards,
            max_shard_retries=self.max_shard_retries,
            workers=self.workers,
            _shard_worker=self._shard_worker,
        )

    def entry_from_result(
        self, spec: QuerySpec, streaming: StreamingResult
    ) -> CacheEntry:
        """Package a finished run as a mergeable cache entry."""
        checkpoint = RunCheckpoint(
            fingerprint=config_fingerprint(spec.config),
            seed=streaming.seed,
            engine=streaming.engine,
            shard_size=streaming.shard_size,
            shard_sizes=streaming.shard_sizes,
            accumulator_state=streaming.accumulator.to_dict(),
            elapsed_seconds=streaming.elapsed_seconds,
        )
        return CacheEntry(
            key=self.cache_key(spec),
            checkpoint=checkpoint,
            confidence=spec.precision.confidence,
            achieved_rel_ci_width=streaming.accumulator.relative_ci_width(
                spec.precision.confidence
            ),
        )

    def _run(
        self, job: RefinementJob, resume_entry: Optional[CacheEntry]
    ) -> None:
        """Worker-thread body: simulate, cache, resolve."""
        try:
            streaming = self.run_simulation(
                job.spec,
                resume_checkpoint=(
                    resume_entry.checkpoint if resume_entry is not None else None
                ),
                observers=(job.observe,),
            )
            self.cache.put(self.entry_from_result(job.spec, streaming))
        except BaseException as exc:
            with self._lock:
                self._inflight.pop(job.spec.job_key, None)
                self.simulations_failed += 1
            job.future.set_exception(exc)
            return
        stats = streaming.executor_stats or {}
        with self._lock:
            self._inflight.pop(job.spec.job_key, None)
            self.simulations_completed += 1
            self.groups_simulated_total += streaming.groups - job.started_from_groups
            self.shard_retries_total += int(stats.get("shard_retries", 0))
            self.pool_breaks_total += int(stats.get("pool_breaks", 0))
        job.future.set_result(streaming)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """JSON-safe job telemetry for ``/stats``."""
        with self._lock:
            in_flight = len(self._inflight)
            return {
                "max_workers": self.max_workers,
                "in_flight": in_flight,
                "queue_depth": max(0, in_flight - self.max_workers),
                "max_in_flight": self.max_in_flight,
                "simulations_started": self.simulations_started,
                "simulations_completed": self.simulations_completed,
                "simulations_failed": self.simulations_failed,
                "coalesced": self.coalesced_total,
                "groups_simulated": self.groups_simulated_total,
                "shard_retries": self.shard_retries_total,
                "pool_breaks": self.pool_breaks_total,
                "remote_workers": (
                    self.workers.stats() if self.workers is not None else None
                ),
            }

    def shutdown(self) -> None:
        """Stop accepting work and release the worker threads."""
        self._executor.shutdown(wait=False, cancel_futures=True)
