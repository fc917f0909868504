"""Reliability-as-a-service query layer (``repro serve``).

Tiered answering over a mergeable result cache:

* :mod:`repro.service.server` — the tier-selection brain
  (:class:`~repro.service.server.ReliabilityService`), the stdlib
  ``asyncio`` HTTP front-end, and embedding helpers;
* :mod:`repro.service.cache` — the ``(fingerprint, horizon)``-keyed LRU
  of accumulator checkpoints with hit/extend/miss semantics;
* :mod:`repro.service.jobs` — coalescing background refinement jobs on
  bounded workers, with deterministic per-config seeding and mid-flight
  partial answers.
"""

from .cache import DEFAULT_MAX_ENTRIES, CacheEntry, CacheKey, ResultCache
from .jobs import (
    CURVE_GRID_POINTS,
    DEFAULT_MAX_GROUPS,
    DEFAULT_REL_CI_WIDTH,
    JobManager,
    QuerySpec,
    RefinementJob,
    derive_seed,
    service_time_grid,
)
from .server import (
    QueryError,
    ReliabilityServer,
    ReliabilityService,
    ServiceThread,
    serve,
)

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "CacheEntry",
    "CacheKey",
    "ResultCache",
    "CURVE_GRID_POINTS",
    "DEFAULT_MAX_GROUPS",
    "DEFAULT_REL_CI_WIDTH",
    "JobManager",
    "QuerySpec",
    "RefinementJob",
    "derive_seed",
    "service_time_grid",
    "QueryError",
    "ReliabilityServer",
    "ReliabilityService",
    "ServiceThread",
    "serve",
]
