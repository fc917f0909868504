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

With a ``cache_dir``, entries also survive a restart.  Each key owns a
directory, ``<cache_dir>/<key digest>/``, and each persisted run is one
file in it named by its groups count, ``<groups_completed>.json``,
written once with :func:`~repro.simulation.checkpoint.atomic_write_text`.
A smaller run persisted late lands beside a larger one, never over it,
and a lookup that misses memory loads the largest of the key's files
that passes the integrity check, so the disk never regresses and no lock
is held around file I/O; ``put`` then deletes the key's smaller files,
best effort.  The check reads and parses a file once and rejects it
(counts, logs, and falls back to the next largest) unless its
configuration fingerprint is the query's, its envelope and resume
coordinates are its key's, its groups count is its name's, and all of it
decodes: a moved, renamed, hand-edited or torn file is never merged into
the wrong design's statistics and never fails a request.  A file of
another checkpoint format is also deleted, best effort: no checkout of
this version reads it, and a large one would otherwise outlive the
key's smaller files and be refused again on every lookup.  Other names,
such as ``atomic_write_text``'s temp files, are ignored.

The key directories are bounded too (``max_disk_keys``): beyond the
bound, the least recently used key's directory is deleted, best effort
and outside the lock.  The cache lists its directory once, when it
opens, and orders the key directories it finds there by modification
time; from then on the order lives in memory, and every lookup or put of
a key moves it to the most recent end without a system call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import re
import shutil
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..exceptions import ReproError, SimulationError
from ..simulation.checkpoint import (
    CheckpointFormatError,
    RunCheckpoint,
    atomic_write_text,
)
from ..simulation.streaming import Precision, normal_two_sided_z

logger = logging.getLogger("repro.service")

#: Default in-memory entry bound (LRU eviction beyond it).
DEFAULT_MAX_ENTRIES = 1024

#: Default bound on key directories in a ``cache_dir`` (LRU deletion
#: beyond it).  A persisted base-case run is about 1 KiB.
DEFAULT_MAX_DISK_KEYS = 4096

#: A persisted run's file name: its groups count.
_ENTRY_NAME = re.compile(r"([0-9]+)\.json")

#: A key directory's name (:meth:`CacheKey.dirname`).
_KEY_DIRNAME = re.compile(r"[0-9a-f]{32}")

#: What reading or decoding a torn or hand-edited file can raise.
_DECODE_ERRORS = (
    OSError, AttributeError, LookupError, TypeError, ValueError, ArithmeticError,
    ReproError,
)


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

    def dirname(self) -> str:
        """Stable name of the directory holding this key's persisted runs."""
        digest = hashlib.sha256(
            f"{self.fingerprint}:{self.horizon_hours!r}:{self.engine}:"
            f"{self.seed!r}:{self.shard_size}".encode("utf-8")
        ).hexdigest()
        return digest[:32]


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
    threads share one instance.  The lock guards the in-memory map, the
    order of the key directories on disk and the counters only; file I/O
    runs outside it.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        cache_dir: Optional[str] = None,
        max_disk_keys: int = DEFAULT_MAX_DISK_KEYS,
    ) -> None:
        if max_entries < 1:
            raise SimulationError(f"max_entries must be >= 1, got {max_entries!r}")
        if max_disk_keys < 1:
            raise SimulationError(f"max_disk_keys must be >= 1, got {max_disk_keys!r}")
        self.max_entries = max_entries
        self.max_disk_keys = max_disk_keys
        self.cache_dir = cache_dir
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        # Key directory names on disk, least recently used first.
        self._disk_keys: "OrderedDict[str, None]" = OrderedDict()
        self._lock = threading.Lock()
        self.evictions = 0
        self.disk_evictions = 0
        self.disk_loads = 0
        self.integrity_rejections = 0
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)
            for name in _key_dirs_by_mtime(cache_dir):
                self._disk_keys[name] = None
            with self._lock:
                evicted = self._evict_disk_locked()
            self._delete_key_dirs(cache_dir, evicted)

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
        query's configuration, known to the caller.  A persisted file
        whose recorded fingerprint disagrees, or that fails any other
        part of the integrity check, is counted in
        :attr:`integrity_rejections`, logged with the reason, and
        skipped for the key's next largest file; with none left the
        lookup is a miss, so the service recomputes rather than merging
        into the wrong design's statistics.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._touch_disk_locked(key)
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
        misses racing to store resolve to the larger run).  On disk the
        run becomes a file of its own, named by its groups count, and
        lookups load a key's largest intact file, so a smaller run
        persisted late cannot hide a larger one, across restarts too.
        """
        with self._lock:
            existing = self._entries.get(entry.key)
            if existing is not None and existing.groups > entry.groups:
                return
            self._entries[entry.key] = entry
            self._entries.move_to_end(entry.key)
            self._evict_locked()
            if self.cache_dir is None:
                return
            # Registered before the write, so the key itself is the most
            # recently used and never among the directories evicted.
            name = entry.key.dirname()
            self._disk_keys[name] = None
            self._disk_keys.move_to_end(name)
            evicted = self._evict_disk_locked()
        self._persist(self.cache_dir, entry)
        self._delete_key_dirs(self.cache_dir, evicted)

    def _evict_locked(self) -> None:
        """Enforce the LRU bound (caller holds the lock)."""
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def _touch_disk_locked(self, key: CacheKey) -> None:
        """Mark ``key``'s directory, if on disk, most recently used
        (caller holds the lock)."""
        if self.cache_dir is not None:
            name = key.dirname()
            if name in self._disk_keys:
                self._disk_keys.move_to_end(name)

    def _evict_disk_locked(self) -> List[str]:
        """Take the key directories beyond the disk bound off the order,
        least recently used first, and count them (caller holds the
        lock).  The caller deletes them once the lock is released."""
        evicted = []
        while len(self._disk_keys) > self.max_disk_keys:
            evicted.append(self._disk_keys.popitem(last=False)[0])
        self.disk_evictions += len(evicted)
        return evicted

    @staticmethod
    def _delete_key_dirs(cache_dir: str, names: List[str]) -> None:
        """Delete evicted key directories, best effort: one left behind
        is found again when the cache next opens."""
        for name in names:
            shutil.rmtree(os.path.join(cache_dir, name), ignore_errors=True)

    # ------------------------------------------------------------------
    @staticmethod
    def _persist(cache_dir: str, entry: CacheEntry) -> None:
        """Write ``entry`` as a new file of its key, then prune smaller ones."""
        directory = os.path.join(cache_dir, entry.key.dirname())
        os.makedirs(directory, exist_ok=True)
        # A plain run checkpoint plus a service envelope, which
        # RunCheckpoint.from_dict ignores.
        payload = entry.checkpoint.to_dict()
        payload["service"] = {
            "key_fingerprint": entry.key.fingerprint,
            "horizon_hours": entry.key.horizon_hours,
            "confidence": entry.confidence,
            "achieved_rel_ci_width": entry.achieved_rel_ci_width,
        }
        atomic_write_text(
            os.path.join(directory, f"{entry.groups}.json"),
            json.dumps(payload, sort_keys=True),
        )
        for groups, name in _entry_files(directory):
            if groups < entry.groups:
                try:
                    os.remove(os.path.join(directory, name))
                except OSError:
                    pass  # a smaller file left behind is never loaded first

    def _load_from_disk(
        self, key: CacheKey, expected_run_fingerprint: Optional[str]
    ) -> Optional[CacheEntry]:
        """Admit the key's largest persisted run that passes the check."""
        if self.cache_dir is None:
            return None
        directory = os.path.join(self.cache_dir, key.dirname())
        for groups, name in sorted(_entry_files(directory), reverse=True):
            path = os.path.join(directory, name)
            try:
                with open(path) as handle:
                    text = handle.read()
                entry = _decode_entry(key, groups, text, expected_run_fingerprint)
            except FileNotFoundError:
                continue  # pruned since the listing
            except _DECODE_ERRORS as exc:
                with self._lock:
                    self.integrity_rejections += 1
                logger.warning(
                    "rejecting cache entry %s: %s: %s", path, type(exc).__name__, exc
                )
                if isinstance(exc, CheckpointFormatError):
                    # No checkout of this version will ever read it, and it
                    # may outlive the key's smaller files: delete it so it
                    # is not refused again on every lookup.
                    try:
                        os.remove(path)
                    except OSError:
                        pass
                continue
            with self._lock:
                self.disk_loads += 1
                existing = self._entries.get(key)
                if existing is None or existing.groups < entry.groups:
                    self._entries[key] = entry
                else:
                    entry = existing  # a racing put landed a larger run
                self._entries.move_to_end(key)
                # Disk loads obey the same LRU bound as puts: a cold
                # restart scanning thousands of persisted keys must not
                # grow the in-memory map without bound.
                self._evict_locked()
                self._touch_disk_locked(key)
            return entry
        return None

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """JSON-safe cache telemetry for ``/stats``."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "evictions": self.evictions,
                "disk_keys": len(self._disk_keys),
                "disk_evictions": self.disk_evictions,
                "disk_loads": self.disk_loads,
                "integrity_rejections": self.integrity_rejections,
                "persistent": self.cache_dir is not None,
            }


def _key_dirs_by_mtime(cache_dir: str) -> List[str]:
    """The key directories in ``cache_dir``, least recently written first."""
    found = []
    with os.scandir(cache_dir) as entries:
        for entry in entries:
            if _KEY_DIRNAME.fullmatch(entry.name) is None:
                continue
            try:
                if entry.is_dir(follow_symlinks=False):
                    found.append((entry.stat().st_mtime_ns, entry.name))
            except OSError:
                continue  # removed since the listing
    return [name for _, name in sorted(found)]


def _entry_files(directory: str) -> List[Tuple[int, str]]:
    """``(groups, file name)`` of every run persisted in a key's directory."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    matches = (_ENTRY_NAME.fullmatch(name) for name in names)
    return [(int(m.group(1)), m.group(0)) for m in matches if m is not None]


def _decode_entry(
    key: CacheKey, groups: int, text: str, expected_run_fingerprint: Optional[str]
) -> CacheEntry:
    """The entry in the text of ``key``'s file named for ``groups``.

    Raises one of :data:`_DECODE_ERRORS` when the file is torn, was
    moved or renamed, or was edited into something that does not decode.
    """
    state = json.loads(text)
    checkpoint = RunCheckpoint.from_dict(state)
    if (
        expected_run_fingerprint is not None
        and checkpoint.fingerprint != expected_run_fingerprint
    ):
        raise SimulationError(
            f"its configuration fingerprint {checkpoint.fingerprint[:12]}… is "
            f"not the query's {expected_run_fingerprint[:12]}… (file moved or "
            "hand-edited)"
        )
    envelope = state["service"]
    filed = CacheKey(
        envelope["key_fingerprint"],
        envelope["horizon_hours"],
        checkpoint.engine,
        checkpoint.seed,
        checkpoint.shard_size,
    )
    if (filed, checkpoint.groups_completed) != (key, groups):
        raise SimulationError(
            f"it holds {checkpoint.groups_completed} groups of {filed}, not the "
            f"{groups} of {key} its path names (file moved, renamed or hand-edited)"
        )
    confidence = float(envelope["confidence"])
    if not 0.0 < confidence < 1.0:
        raise SimulationError(f"its confidence {confidence!r} is not in (0, 1)")
    checkpoint.accumulator()  # decodes the whole state, or raises
    return CacheEntry(
        key, checkpoint, confidence, float(envelope["achieved_rel_ci_width"])
    )
