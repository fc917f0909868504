"""Mergeable result cache for the reliability query service.

Entries are **accumulator checkpoints**, not final numbers: a cached
result for ``(fingerprint, horizon)`` carries the full serialized
:class:`~repro.simulation.streaming.FleetAccumulator` plus the shard
cursor (``RunCheckpoint``), so a query arriving with a *tighter*
precision target than the entry achieved does not recompute from
scratch — it **resumes** the cached run (the accumulator keeps folding
shards in exactly where it stopped, the FleetAccumulator merge
semantics) and the refreshed entry replaces the stale one.

Lookup semantics for a query at precision ``P``:

``hit``
    An entry exists and its achieved relative CI width already meets
    ``P`` (at the same confidence) — serve it directly.
``hit_rescaled``
    An entry computed at a *different* confidence level still meets
    ``P`` once its achieved width is re-expressed at the request's
    confidence.  The CI is ``mean ± z·se`` throughout, so the width
    scales exactly by the ratio of two-sided normal quantiles — the
    stored moments are served at the query's confidence with no
    resimulation.
``extend``
    An entry exists but is looser than ``P`` — hand its checkpoint to
    the simulation tier as the resume point.
``miss``
    Nothing cached — simulate cold.

Entries are keyed by the **canonical config fingerprint**
(:func:`repro.validation.fingerprint`), the query horizon and the run's
resume coordinates (resolved engine, seed, shard size), so a lookup
never offers a checkpoint its run would refuse to resume; the
precision axis of the conceptual ``(fingerprint, horizon, precision)``
key is resolved by the achieved-width comparison above, which is what
makes entries mergeable rather than duplicated per precision level.

With a ``cache_dir``, every entry is also persisted as an atomic JSON
checkpoint file and survives a service restart.  Disk entries are loaded
through :func:`repro.simulation.checkpoint.load_checkpoint` with the
query's expected fingerprint, so a moved, renamed, or hand-edited
checkpoint is rejected with an actionable error instead of silently
merging into the wrong design's statistics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import os
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..exceptions import SimulationError
from ..simulation.checkpoint import (
    RunCheckpoint,
    atomic_write_text,
    load_checkpoint,
)
from ..simulation.streaming import Precision, normal_two_sided_z

logger = logging.getLogger("repro.service")

#: Default in-memory entry bound (LRU eviction beyond it).
DEFAULT_MAX_ENTRIES = 1024


@dataclasses.dataclass(frozen=True)
class CacheKey:
    """Identity of one cacheable query: which design, over which window,
    resumable under which coordinates.

    ``fingerprint`` is the canonical config fingerprint
    (:func:`repro.validation.fingerprint`); ``horizon_hours`` is part of
    the key because the accumulator's data-loss time grid is a pure
    function of the horizon and accumulators over different grids do not
    merge.  ``engine`` (resolved, never ``"auto"``), ``seed`` and
    ``shard_size`` are the coordinates
    :meth:`~repro.simulation.checkpoint.RunCheckpoint.validate_against`
    checks before a run resumes a checkpoint, so a service restarted
    with another engine, seed or shard size keeps entries of its own.
    """

    fingerprint: str
    horizon_hours: float
    engine: str
    seed: Optional[int]
    shard_size: int

    def filename(self) -> str:
        """Stable on-disk name for this key's persisted checkpoint."""
        digest = hashlib.sha256(
            f"{self.fingerprint}:{self.horizon_hours!r}:{self.engine}:"
            f"{self.seed!r}:{self.shard_size}".encode("utf-8")
        ).hexdigest()
        return f"cache-{digest[:32]}.json"


@dataclasses.dataclass
class CacheEntry:
    """One cached run: its resume point plus the precision it achieved."""

    key: CacheKey
    checkpoint: RunCheckpoint
    confidence: float
    achieved_rel_ci_width: float

    @property
    def groups(self) -> int:
        """Groups accumulated into this entry so far."""
        return self.checkpoint.groups_completed

    def rescaled_width(self, confidence: float) -> float:
        """Achieved relative CI width re-expressed at another confidence.

        The accumulator's interval is ``mean ± z·se``, so the relative
        width is proportional to the two-sided normal quantile and the
        rescaling is exact — no approximation, no resimulation.
        """
        return self.achieved_rel_ci_width * (
            normal_two_sided_z(confidence) / normal_two_sided_z(self.confidence)
        )

    def satisfies(self, precision: Precision) -> bool:
        """Whether this entry already meets a requested precision as-is.

        Strict on the confidence axis: the achieved width is compared —
        and the ``max_groups``-capped short-circuit granted — only at
        the confidence level the entry was computed at.  A capped entry
        at a *different* confidence is not servable verbatim (its stored
        interval is the wrong ``z``); it goes through
        :meth:`satisfies_rescaled` instead, so the answer is re-expressed
        at the query's confidence before being served.
        """
        if self.confidence != precision.confidence:
            return False
        if self.achieved_rel_ci_width <= precision.rel_ci_width:
            return True
        return precision.max_groups is not None and self.groups >= precision.max_groups

    def satisfies_rescaled(self, precision: Precision) -> bool:
        """Whether this entry meets the target after exact z-rescaling.

        Covers the cross-confidence cases :meth:`satisfies` refuses: an
        entry achieved at e.g. 99% confidence whose width, rescaled to
        the query's 95% ``z``, already fits the requested width — and a
        cross-confidence entry that already reached the request's
        ``max_groups`` cap, for which no further shard could be
        simulated, so the only correct answer is the stored moments
        served at the query's confidence.
        """
        if self.rescaled_width(precision.confidence) <= precision.rel_ci_width:
            return True
        return precision.max_groups is not None and self.groups >= precision.max_groups


class ResultCache:
    """Bounded LRU of mergeable accumulator checkpoints, optionally on disk.

    Thread-safe: the service's request handlers and simulation worker
    threads share one instance.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        cache_dir: Optional[str] = None,
    ) -> None:
        if max_entries < 1:
            raise SimulationError(f"max_entries must be >= 1, got {max_entries!r}")
        self.max_entries = max_entries
        self.cache_dir = cache_dir
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        # Per-key write ordering for disk persistence: _persist runs
        # outside the main lock (it does file I/O), so racing puts for
        # the same key serialize on the key's own lock and consult
        # _persisted_groups to guarantee the file never regresses to a
        # smaller (looser) run than it already holds.
        self._persist_locks: Dict[CacheKey, threading.Lock] = {}
        self._persisted_groups: Dict[CacheKey, int] = {}
        self.evictions = 0
        self.disk_loads = 0
        self.integrity_rejections = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def lookup(
        self,
        key: CacheKey,
        precision: Precision,
        expected_run_fingerprint: Optional[str] = None,
    ) -> "Tuple[str, Optional[CacheEntry]]":
        """Resolve a query against the cache.

        Returns ``("hit", entry)``, ``("hit_rescaled", entry)``,
        ``("extend", entry)`` or ``("miss", None)``.  Disk entries (when
        a ``cache_dir`` is configured) back the in-memory map
        transparently.

        ``expected_run_fingerprint`` is the repr-based
        :func:`~repro.simulation.checkpoint.config_fingerprint` of the
        query's configuration, known to the caller: a persisted
        checkpoint whose recorded fingerprint disagrees — the file was
        moved, renamed, or hand-edited — is rejected by
        :func:`~repro.simulation.checkpoint.load_checkpoint`, counted in
        :attr:`integrity_rejections`, logged with the actionable error,
        and treated as a miss (so the service recomputes rather than
        merging into the wrong design's statistics).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            entry = self._load_from_disk(key, expected_run_fingerprint)
        if entry is None:
            return "miss", None
        if entry.satisfies(precision):
            return "hit", entry
        if entry.satisfies_rescaled(precision):
            return "hit_rescaled", entry
        return "extend", entry

    def put(self, entry: CacheEntry) -> None:
        """Insert or refresh an entry (and persist it when configured).

        An extension never *loosens* an entry: a stored entry with more
        accumulated groups than the incoming one is kept (two coalesced
        misses racing to store resolve to the larger run), and the same
        ordering holds on disk — persistence happens under a per-key
        lock that skips the write when the file already holds a larger
        run, so a restart can never resurrect the loosened loser of a
        race.
        """
        with self._lock:
            existing = self._entries.get(entry.key)
            if existing is not None and existing.groups > entry.groups:
                return
            self._entries[entry.key] = entry
            self._entries.move_to_end(entry.key)
            self._evict_locked()
            persist_lock = self._persist_locks.setdefault(
                entry.key, threading.Lock()
            )
        with persist_lock:
            if self._disk_would_regress(entry):
                return
            self._persist(entry)
            with self._lock:
                recorded = self._persisted_groups.get(entry.key, -1)
                self._persisted_groups[entry.key] = max(recorded, entry.groups)

    def _evict_locked(self) -> None:
        """Enforce the LRU bound (caller holds the main lock).

        ``_persist_locks`` and ``_persisted_groups`` are deliberately
        retained for evicted keys: a racing put may already hold a
        reference to the key's lock (fetched under the main lock,
        acquired after releasing it), and dropping the registration here
        would let a later put for the same key mint a second lock — two
        ``_persist`` calls for one key serializing on different locks,
        re-opening the smaller-run-clobbers-larger disk race for keys
        near the LRU boundary.  Both maps cost a few dozen bytes per key
        ever cached, bounded by the query universe, not the LRU size.
        """
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def _disk_would_regress(self, entry: CacheEntry) -> bool:
        """Whether persisting ``entry`` would shrink the on-disk run.

        Consults the in-memory high-water mark first; with no record
        (fresh start, or the key was evicted) it reads the existing
        file's cursor, so the never-loosen rule survives restarts too.
        """
        path = self._entry_path(entry.key)
        if path is None:
            return True  # nothing to persist to
        with self._lock:
            recorded = self._persisted_groups.get(entry.key)
        if recorded is not None:
            return recorded > entry.groups
        if not os.path.exists(path):
            return False
        import json

        try:
            with open(path) as handle:
                on_disk = int(json.load(handle).get("groups_completed", 0))
        except (OSError, ValueError):
            return False  # unreadable file: overwrite it
        return on_disk > entry.groups

    # ------------------------------------------------------------------
    def _entry_path(self, key: CacheKey) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, key.filename())

    def _persist(self, entry: CacheEntry) -> None:
        path = self._entry_path(entry.key)
        if path is None:
            return
        # The file is a plain run checkpoint plus a service envelope; the
        # envelope keys are ignored by RunCheckpoint.from_dict, so the
        # file round-trips through load_checkpoint unchanged.
        payload = entry.checkpoint.to_dict()
        payload["service"] = {
            "key_fingerprint": entry.key.fingerprint,
            "horizon_hours": entry.key.horizon_hours,
            "confidence": entry.confidence,
            "achieved_rel_ci_width": entry.achieved_rel_ci_width,
        }
        import json

        atomic_write_text(path, json.dumps(payload, sort_keys=True))

    def _load_from_disk(
        self, key: CacheKey, expected_run_fingerprint: Optional[str]
    ) -> Optional[CacheEntry]:
        path = self._entry_path(key)
        if path is None or not os.path.exists(path):
            return None
        import json

        try:
            checkpoint = load_checkpoint(
                path, expected_fingerprint=expected_run_fingerprint
            )
            with open(path) as handle:
                envelope = json.load(handle).get("service", {})
        except SimulationError as exc:
            with self._lock:
                self.integrity_rejections += 1
            logger.warning("rejecting cache entry %s: %s", path, exc)
            return None
        if envelope.get("key_fingerprint") != key.fingerprint:
            with self._lock:
                self.integrity_rejections += 1
            logger.warning(
                "rejecting cache entry %s: envelope fingerprint %r does not "
                "match cache key %r (file moved or hand-edited)",
                path,
                str(envelope.get("key_fingerprint"))[:12],
                key.fingerprint[:12],
            )
            return None
        coordinates = (checkpoint.engine, checkpoint.seed, checkpoint.shard_size)
        if coordinates != (key.engine, key.seed, key.shard_size):
            with self._lock:
                self.integrity_rejections += 1
            logger.warning(
                "rejecting cache entry %s: its (engine, seed, shard_size) %r "
                "are not its cache key's (file moved or hand-edited)",
                path,
                coordinates,
            )
            return None
        entry = CacheEntry(
            key=key,
            checkpoint=checkpoint,
            confidence=float(envelope.get("confidence", 0.95)),
            achieved_rel_ci_width=float(
                envelope.get("achieved_rel_ci_width", float("inf"))
            ),
        )
        with self._lock:
            self.disk_loads += 1
            existing = self._entries.get(key)
            if existing is None or existing.groups < entry.groups:
                self._entries[key] = entry
            else:
                entry = existing  # a racing put landed a larger run
            self._entries.move_to_end(key)
            # Disk loads obey the same LRU bound as puts — a cold
            # restart scanning thousands of persisted keys must not grow
            # the in-memory map without bound.
            self._evict_locked()
            recorded = self._persisted_groups.get(key, -1)
            self._persisted_groups[key] = max(recorded, entry.groups)
        return entry

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """JSON-safe cache telemetry for ``/stats``."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "evictions": self.evictions,
                "disk_loads": self.disk_loads,
                "integrity_rejections": self.integrity_rejections,
                "persistent": self.cache_dir is not None,
            }
