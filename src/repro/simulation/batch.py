"""NumPy-vectorized batch simulation engine.

The event engine (:mod:`~repro.simulation.raid_simulator`) walks one
Python event loop per RAID group; for fleet-scale studies (thousands of
groups, sensitivity sweeps) the interpreter overhead of that loop
dominates total runtime.  This module advances **all groups of a fleet
in lockstep**: per-(group, slot) state lives in dense arrays, transition
samples are drawn in blocks through the distributions' vectorized
``sample(size=...)`` paths, and each iteration resolves exactly one
*operational* event per still-active group with masked array
operations: a restore completion, a DDF defect clear, a policy check or
an operational failure.

Latent defects never take a lockstep iteration of their own.  Under the
Fig. 4/5 rules a drive's latent cycle — a defect's arrival, then the
scrub that repairs it — matters to the rest of the group only at the
instant of an operational failure, so each up slot keeps its current
cycle as two times, ``lat_arrival`` and ``lat_scrub``.  A group's cycles
are completed in bulk, in vectorized rounds, up to the moment they are
needed: its next operational failure, or the mission end when it leaves
the kernel.  Each completion counts one defect and one scrub and draws
the slot's next cycle.  In the Table 2 base case latent arrivals and
scrubs are about 98% of a group's events, so a 2,048-row call makes
about 15 lockstep iterations, where one per event would take about 215.

Two structural optimisations keep the per-iteration cost proportional to
the number of *still-active* groups rather than the shard size (see
``DESIGN.md`` §4f):

* **Fused next-event reduction** — the per-(group, slot) next-event
  times of the operational event kinds live in one contiguous
  ``(rows, _N_KINDS * n_slots [+ 1])`` buffer whose kind-major column
  blocks double as the state arrays themselves, so the per-iteration
  earliest event is a single ``argmin`` over that buffer: no stacked
  candidate build, no transposed copy, and the argmin's flat index
  order *is* the simultaneous-event tie-break.
* **Active-set compaction** — once the active rows fall to
  :data:`COMPACT_RATIO` of a kernel's rows (and the kernel is still at
  least :data:`COMPACT_MIN_ROWS` rows), every state array is gathered
  down to the unfinished groups.  A row-to-original-group index map keeps the
  per-group tallies and DDF records addressed by their original fleet
  positions, so compaction is invisible outside the kernel.

The two engines realise the same stochastic process — the Fig. 4/5 DDF
semantics (overlapping restores, latent-then-op ordering, no DDF while a
DDF restore is pending, renewal at replacement) are reproduced rule for
rule — but they consume random streams in different orders, so their
outputs agree *in distribution*, not sample for sample.  The
cross-engine harness in ``tests/simulation/test_cross_engine_stats.py``
asserts that equivalence with two-sample statistical tests.

Determinism contract: for a fixed ``(config, n_groups, seed)`` the batch
engine is byte-reproducible, independent of ``n_jobs`` — the fleet is
partitioned into fixed-size shards (:data:`BATCH_SHARD_SIZE`), each
seeded by one child of the root :class:`~numpy.random.SeedSequence`, and
process fan-out only changes *which worker* computes a shard.  The same
property is what lets the streaming runner's pipelined executor
(:mod:`~repro.simulation.executor`) simulate shards speculatively out of
order: :func:`next_shard_size` fixes the partition as a pure function of
the target, so any shard's streams follow from its index alone.

The shard size is only the seed partition, not the kernel's vector
width: one call may advance several consecutive shards in lockstep
(rows laid out shard after shard).  Each shard then keeps its own
samplers on its own generator, and every draw for a row selection is
split at the shard boundaries, each part taken from its own shard's
sampler.  Every shard therefore consumes exactly the random stream a
call of its own would, and the result is the concatenation of the
per-shard calls; the runner picks the width for in-process and pool
runs alike (:data:`~repro.simulation.monte_carlo.KERNEL_ROWS`).

Compaction and the fused reduction preserve that contract exactly: the
same events fire in the same order with the same sampled values whether
or not (and whenever) the kernel compacts, because gathering rows never
reorders groups and never changes which samples are consumed.  A group
leaving the kernel completes its latent cycles in the iteration it
leaves, never at a compaction, for the same reason.  The
:class:`_BlockSampler` refill schedule is part of the contract too — all
samplers of a shard share the shard's generator, so the *sizes* of their
refill draws determine how the single random stream is interleaved
between distributions and must stay fixed (see the class docstring).

Simultaneous events within a group (possible only with discrete-support
distributions such as :class:`~repro.distributions.Deterministic`) are
resolved by the event engine's recoveries-before-failures rule
(:data:`~repro.simulation.events.KIND_PRIORITY`; see the tie-break
section of :mod:`~repro.simulation.raid_simulator`): restore
completions first, then DDF-restore defect clears, policy checks and
operational failures last, and a scrub completing or a defect arriving
at a failure's instant resolves before the failure — a slot is exposed
at ``t`` iff its current defect arrived at or before ``t`` and its scrub
lies after ``t``.  So the engines agree even on the exact boundaries
deterministic delays can hit.

Unsupported configurations (see :func:`batch_engine_unsupported_reason`):
age-anchored latent processes need per-slot conditional draws, and spare
pools serialise failures through shelf state; both fall back to the
event engine under ``engine="auto"``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Union

import numpy as np

from ..exceptions import SimulationError
from .config import RaidGroupConfig
from .predicate import loss_predicate_for
from .raid_simulator import DDFType, GroupChronology
from .streaming import FleetAccumulator

#: Groups per seed shard: each shard draws from one spawned child of the
#: root seed.  Fixed (rather than derived from ``n_jobs``) so batch-engine
#: results depend only on ``(config, n_groups, seed)``; multiprocessing
#: distributes whole shards.  This is only the seed partition — a kernel
#: call may advance several shards at once — so changing it changes every
#: batch result.
BATCH_SHARD_SIZE = 512

#: Compact the kernel's state arrays once the active-group count falls to
#: this fraction of the current row count (or lower).  Each compaction
#: shrinks the rows at least geometrically, so all compactions together
#: cost a bounded number of full-size iterations; 3/4 won empirically
#: over 1/2 on the Table 2 base case (earlier shrinking beats the extra
#: gathers).
COMPACT_RATIO = 0.75

#: Never compact a kernel below this many rows: for tiny remnants the
#: gather overhead exceeds the lockstep waste it removes.
COMPACT_MIN_ROWS = 64

# Column-block order of the fused state buffer == tie-break priority at
# equal event times (argmin returns the lowest flat index).  With a
# repair policy a single group-wide CHECK column sits between the clear
# and op blocks — checks after recoveries, before failures, matching
# EventKind.CHECK's rank in KIND_PRIORITY — and the OP block shifts
# right by one.
_K_RESTORE = 0
_K_CLEAR = 1
_K_OP = 2
_N_KINDS = 3
#: Sentinel kind code for the policy CHECK column (not a slot block).
_K_CHECK = 3

_INF = float("inf")

_EMPTY = np.empty(0, dtype=float)


def batch_engine_unsupported_reason(config: RaidGroupConfig) -> Optional[str]:
    """Why this configuration cannot run on the batch engine (``None`` if it can)."""
    return config.batch_engine_unsupported_reason


class _BlockSampler:
    """Array-valued sampling with block refills.

    The kernel asks for ``k`` fresh samples per masked update; this buffer
    amortises the per-call overhead of the distribution's
    ``sample(size=...)`` path over large blocks — the vectorized analogue
    of :class:`~repro.simulation.rng.SampleBuffer`.

    The backing storage grows adaptively (it is sized to whatever the
    largest refill so far needed and reused in place, so steady-state
    refills allocate nothing), but the **refill draw schedule is fixed**:
    a refill always draws exactly ``max(block, k)`` samples.  Every
    sampler of a shard shares the shard's generator, so the sequence of
    refill sizes across samplers determines how the one random stream is
    partitioned between distributions — growing the draw size adaptively
    would re-interleave that stream and silently change every result.
    Byte-identity of the batch engine therefore pins ``block`` and the
    ``max(block, k)`` rule; only the storage behind them may adapt.
    """

    __slots__ = ("_distribution", "_rng", "_block", "_storage", "_index", "_size")

    def __init__(self, distribution, rng: np.random.Generator, block: int = 4096) -> None:
        self._distribution = distribution
        self._rng = rng
        self._block = block
        self._storage = _EMPTY
        self._index = 0  # next unread position in the storage
        self._size = 0  # valid prefix length of the storage

    def take(self, k: int) -> np.ndarray:
        """The next ``k`` samples as a float array (a view; do not mutate)."""
        if k == 0:
            return _EMPTY
        if self._size - self._index < k:
            self._refill(k)
        out = self._storage[self._index : self._index + k]
        self._index += k
        return out

    def _refill(self, k: int) -> None:
        """Draw the next block, keeping any unread leftover samples first."""
        leftover = self._storage[self._index : self._size]
        n_left = leftover.size
        if n_left:
            leftover = leftover.copy()
        fresh = np.atleast_1d(
            np.asarray(
                # Fixed schedule — see the class docstring before touching.
                self._distribution.sample(self._rng, max(self._block, k)),
                dtype=float,
            )
        )
        needed = n_left + fresh.size
        if self._storage.size < needed:
            # Adaptive capacity growth: at least double so a demand spike
            # (one huge take) does not trigger per-refill reallocation.
            self._storage = np.empty(max(needed, 2 * self._storage.size), dtype=float)
        if n_left:
            self._storage[:n_left] = leftover
        self._storage[n_left:needed] = fresh
        self._index = 0
        self._size = needed


class _ShardSamplers:
    """One :class:`_BlockSampler` per shard for a multi-shard kernel call.

    :meth:`take` receives the cut positions of a sorted row selection at
    the shard row bounds (``cuts[j]:cuts[j + 1]`` is shard *j*'s part) and
    returns each part's samples from its own shard's sampler, in row
    order — so every shard sees exactly the ``take`` sizes a call of its
    own would make, and the pinned ``max(block, k)`` refill rule applies
    per shard to that shard's ``k``.
    """

    __slots__ = ("_samplers",)

    def __init__(self, distribution, rngs: Sequence[np.random.Generator]) -> None:
        self._samplers = [_BlockSampler(distribution, rng) for rng in rngs]

    def take(self, cuts: List[int]) -> np.ndarray:
        """Samples for a non-empty selection (may be a view; do not mutate)."""
        parts = [
            sampler.take(hi - lo)
            for sampler, lo, hi in zip(self._samplers, cuts, cuts[1:])
            if hi > lo
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


@dataclasses.dataclass(frozen=True, eq=False)
class GroupArrays:
    """A kernel call's groups as per-group arrays, in fleet order.

    The counters hold one entry per group.  The three DDF columns list
    every DDF of the call, grouped by group in fleet order and each
    group's in time order: ``ddf_group`` (the group's fleet position),
    ``ddf_times`` and ``ddf_double`` (``True`` for
    :attr:`~repro.simulation.raid_simulator.DDFType.DOUBLE_OP`, else
    ``LATENT_THEN_OP``).
    """

    mission_hours: float
    n_op_failures: np.ndarray
    n_latent_defects: np.ndarray
    n_scrub_repairs: np.ndarray
    n_restores: np.ndarray
    n_checks: np.ndarray
    n_policy_repairs: np.ndarray
    ddf_group: np.ndarray
    ddf_times: np.ndarray
    ddf_double: np.ndarray

    def chronologies(self) -> List[GroupChronology]:
        """One :class:`GroupChronology` per group, in fleet order."""
        n_groups = self.n_op_failures.size
        ddf_times: List[List[float]] = [[] for _ in range(n_groups)]
        ddf_types: List[List[DDFType]] = [[] for _ in range(n_groups)]
        for group, time, double in zip(
            self.ddf_group.tolist(), self.ddf_times.tolist(), self.ddf_double.tolist()
        ):
            ddf_times[group].append(time)
            ddf_types[group].append(
                DDFType.DOUBLE_OP if double else DDFType.LATENT_THEN_OP
            )
        return [
            GroupChronology(
                ddf_times=times,
                ddf_types=types,
                n_op_failures=ops,
                n_latent_defects=lds,
                n_scrub_repairs=scrubs,
                n_restores=restores,
                mission_hours=self.mission_hours,
                n_checks=checks,
                n_policy_repairs=repairs,
            )
            for times, types, ops, lds, scrubs, restores, checks, repairs in zip(
                ddf_times,
                ddf_types,
                self.n_op_failures.tolist(),
                self.n_latent_defects.tolist(),
                self.n_scrub_repairs.tolist(),
                self.n_restores.tolist(),
                self.n_checks.tolist(),
                self.n_policy_repairs.tolist(),
            )
        ]

    def summaries(
        self, sizes: Sequence[int], time_grid: Optional[Sequence[float]] = None
    ) -> List[FleetAccumulator]:
        """One summary per consecutive shard of ``sizes`` groups.

        Each equals, byte for byte, a :class:`FleetAccumulator` fed the
        shard's chronologies, but no chronology is built.
        """
        bounds = np.cumsum([0, *sizes]).tolist()
        cuts = self.ddf_group.searchsorted(bounds).tolist()
        return [
            FleetAccumulator.from_ddfs(
                self.mission_hours,
                hi - lo,
                self.ddf_group[first:last] - lo,
                self.ddf_times[first:last],
                self.ddf_double[first:last],
                n_op_failures=int(self.n_op_failures[lo:hi].sum()),
                n_latent_defects=int(self.n_latent_defects[lo:hi].sum()),
                n_scrub_repairs=int(self.n_scrub_repairs[lo:hi].sum()),
                n_restores=int(self.n_restores[lo:hi].sum()),
                time_grid=time_grid,
            )
            for lo, hi, first, last in zip(bounds, bounds[1:], cuts, cuts[1:])
        ]


def simulate_groups_batch(
    config: RaidGroupConfig,
    n_groups: Union[int, Sequence[int]],
    rng: Union[np.random.Generator, Sequence[np.random.Generator]],
    *,
    as_arrays: bool = False,
) -> Union[List[GroupChronology], GroupArrays]:
    """Simulate missions in lockstep; one chronology per group.

    Parameters
    ----------
    config:
        The group design; must be batch-compatible
        (:func:`batch_engine_unsupported_reason` returns ``None``).
    n_groups:
        Replications advanced together in this kernel invocation: one
        shard's size, or the sizes of several consecutive shards.
    rng:
        The shard's generator, feeding every block draw of the shard, or
        one generator per shard (as many as ``n_groups`` has sizes).
    as_arrays:
        Return the groups as one :class:`GroupArrays` instead of
        chronologies, for runs that keep only per-shard summaries.

    With several shards the chronologies come back in fleet order and
    equal the per-shard calls concatenated, byte for byte: each shard
    draws only from its own generator, in the order a call of its own
    would.

    Raises
    ------
    SimulationError:
        If the configuration needs the event engine, or the shard sizes
        and generators do not match.
    """
    reason = batch_engine_unsupported_reason(config)
    if reason is not None:
        raise SimulationError(f"batch engine cannot simulate this config: {reason}")
    if isinstance(rng, np.random.Generator):
        sizes, rngs = [n_groups], [rng]
    elif np.ndim(n_groups) == 1 and len(n_groups) == len(rng) > 0:
        sizes, rngs = list(n_groups), list(rng)
    else:
        raise SimulationError(
            "simulate_groups_batch takes one shard size with one generator, "
            "or equally long sequences of shard sizes and generators"
        )
    for n in sizes:
        if n < 1:
            raise SimulationError(f"n_groups must be >= 1, got {n!r}")
    n_groups = sum(sizes)
    n_shards = len(sizes)

    n_slots = config.n_drives
    mission = config.mission_hours
    predicate = loss_predicate_for(config)
    policy = config.repair_policy
    has_check = policy is not None
    # The OP block starts past the CHECK column when present.
    check_flat = 2 * n_slots
    shift = 1 if has_check else 0
    op_start = _K_OP * n_slots + shift

    # Every draw below is ``sampler.take(split(rows))`` for a sorted row
    # selection.  One shard: ``split`` is ``len`` and the samplers are
    # plain block samplers.  Several: ``split`` cuts the selection at the
    # shard row bounds (remapped on every compaction) for _ShardSamplers.
    if n_shards == 1:
        split = len

        def sampler(distribution) -> _BlockSampler:
            return _BlockSampler(distribution, rngs[0])

    else:
        bounds = np.cumsum([0, *sizes])

        def split(rows: np.ndarray) -> List[int]:
            return rows.searchsorted(bounds).tolist()

        def sampler(distribution) -> _ShardSamplers:
            return _ShardSamplers(distribution, rngs)

    ttop = sampler(config.time_to_op)
    ttr = sampler(config.time_to_restore)
    latent = config.models_latent_defects
    ttld = sampler(config.time_to_latent) if latent else None
    ttscrub = sampler(config.time_to_scrub) if config.scrubbing_enabled else None

    # Fused state/candidate buffer: column block k holds kind k's
    # per-(group, slot) next-event time (inf when none is pending), so the
    # per-group earliest operational event is one argmin over axis 1 and
    # the flat index order is exactly the kind-then-slot tie-break.  The
    # per-kind "arrays" below are views into this buffer; every state
    # update writes straight into the next argmin's input.
    state = np.full((n_groups, _N_KINDS * n_slots + shift), _INF)

    def _views(buf: np.ndarray):
        return (
            buf[:, 0:n_slots],  # restore
            buf[:, n_slots : 2 * n_slots],  # clear
            buf[:, op_start : op_start + n_slots],  # operational failure
            buf[:, check_flat : check_flat + shift],  # check (empty w/o policy)
        )

    def _kinds(flat: np.ndarray) -> np.ndarray:
        """Kind codes for flat argmin indices (the no-policy fast path is
        the plain kind-major division)."""
        if not has_check:
            return flat // n_slots
        kinds = (flat - (flat > check_flat)) // n_slots
        kinds[flat == check_flat] = _K_CHECK
        return kinds

    t_restore, t_clear, t_op, t_check = _views(state)
    op_up = np.ones((n_groups, n_slots), dtype=bool)
    # Each shard's initial fills are n_j * n_slots samples of its own
    # op, then arrival, then scrub draws, exactly as in a call of its own.
    whole = (
        n_groups * n_slots
        if n_shards == 1
        else [b * n_slots for b in bounds.tolist()]
    )
    t_op[:] = ttop.take(whole).reshape(n_groups, n_slots)
    if latent:
        # Each up slot's current latent cycle: the defect's arrival and
        # the scrub that repairs it (inf without scrubbing).  Both are inf
        # while the slot is down or its defect awaits a DDF clear.
        lat_arrival = ttld.take(whole).reshape(n_groups, n_slots).copy()
        lat_scrub = np.full((n_groups, n_slots), _INF)
        if ttscrub is not None:
            lat_scrub[:] = lat_arrival + ttscrub.take(whole).reshape(n_groups, n_slots)
    if has_check:
        t_check[:] = policy.check_interval_hours

    # Per-group rolling state (compacted alongside the fused buffer).
    ddf_until = np.full(n_groups, -_INF)
    active = np.ones(n_groups, dtype=bool)
    #: Row -> original fleet position; identity until the first compaction.
    orig = np.arange(n_groups)

    # Per-group outputs, always indexed by original fleet position.
    n_op_failures = np.zeros(n_groups, dtype=np.int64)
    n_latent_defects = np.zeros(n_groups, dtype=np.int64)
    n_scrub_repairs = np.zeros(n_groups, dtype=np.int64)
    n_restores = np.zeros(n_groups, dtype=np.int64)
    n_checks = np.zeros(n_groups, dtype=np.int64)
    n_policy_repairs = np.zeros(n_groups, dtype=np.int64)
    # Every DDF as it fires: fleet position, time, pathway.  A group has
    # at most one event per iteration, so each group's fire in time order.
    ddf_group: List[np.ndarray] = []
    ddf_times: List[np.ndarray] = []
    ddf_double: List[np.ndarray] = []

    def _start_cycles(g: np.ndarray, s: np.ndarray, t: np.ndarray, cuts) -> None:
        """Fresh latent cycles for slots ``s`` of rows ``g`` from ``t``."""
        arrival = t + ttld.take(cuts)
        lat_arrival[g, s] = arrival
        if ttscrub is not None:
            lat_scrub[g, s] = arrival + ttscrub.take(cuts)

    def _advance(g: np.ndarray, until: np.ndarray) -> None:
        """Complete every latent cycle of rows ``g`` whose scrub lands by
        the row's ``until``.

        Rounds over the (row, slot) pairs still due, in row order: each
        completion counts a defect and a scrub, and the pair draws its
        next cycle (arrival, then scrub).  The rounds work on copies of
        the rows' cycles, written back once after the last round, and
        every temporary is bounded by the rows due.
        """
        scrub = lat_scrub[g]
        pending = (scrub <= until[:, None]).reshape(-1).nonzero()[0]
        if pending.size == 0:
            return
        arrival = lat_arrival[g]
        flat_arrival, flat_scrub = arrival.reshape(-1), scrub.reshape(-1)
        done = np.zeros(g.size, dtype=np.int64)
        while pending.size:
            row = pending // n_slots
            cuts = split(g[row])
            done += np.bincount(row, minlength=g.size)
            cycle = flat_scrub[pending]
            cycle += ttld.take(cuts)
            flat_arrival[pending] = cycle
            cycle += ttscrub.take(cuts)
            flat_scrub[pending] = cycle
            pending = pending[cycle <= until[row]]
        lat_arrival[g] = arrival
        lat_scrub[g] = scrub
        go = orig[g]
        n_latent_defects[go] += done
        n_scrub_repairs[go] += done

    rows = n_groups
    # Preallocated scratch reused every iteration (prefix-sliced to the
    # current row count; compaction only ever shrinks it).
    row_ix_all = np.arange(n_groups)
    flat_ix_all = np.empty(n_groups, dtype=np.intp)

    while True:
        flat_ix = state.argmin(axis=1, out=flat_ix_all[:rows])
        row_ix = row_ix_all[:rows]
        t_next = state[row_ix, flat_ix]
        kind = _kinds(flat_ix)
        live = t_next <= mission
        leaving = active & ~live
        active &= live
        if latent:
            # Bring the latent cycles up to the moment they matter: a row
            # failing operationally to its failure instant, a row leaving
            # (next operational event past the mission) to the mission
            # end, where a pending defect counts.  Leaving rows are
            # settled in the iteration they leave, never at compaction,
            # so compaction stays draw-neutral.
            if ttscrub is not None:
                g = (leaving | (active & (kind == _K_OP))).nonzero()[0]
                if g.size:
                    _advance(g, np.minimum(t_next[g], mission))
            g = leaving.nonzero()[0]
            if g.size:
                n_latent_defects[orig[g]] += np.count_nonzero(
                    lat_arrival[g] <= mission, axis=1
                )
        n_active = np.count_nonzero(active)
        if n_active == 0:
            break
        if n_active <= rows * COMPACT_RATIO and rows >= COMPACT_MIN_ROWS:
            # Gather every state array down to the active rows.  Row
            # order (and therefore group order inside every event batch
            # below) is preserved, so the samplers consume the exact
            # streams the uncompacted kernel would.
            keep = active.nonzero()[0]
            if n_shards > 1:
                bounds = keep.searchsorted(bounds)
            state = np.ascontiguousarray(state[keep])
            t_restore, t_clear, t_op, t_check = _views(state)
            op_up = op_up[keep]
            if latent:
                lat_arrival = lat_arrival[keep]
                lat_scrub = lat_scrub[keep]
            ddf_until = ddf_until[keep]
            orig = orig[keep]
            flat_ix = flat_ix[keep]
            t_next = t_next[keep]
            rows = n_active
            active = np.ones(rows, dtype=bool)
            g_act = row_ix_all[:rows]
            kind_act = kind[keep]
        elif n_active == rows:
            g_act = row_ix
            kind_act = kind
        else:
            g_act = active.nonzero()[0]
            kind_act = kind[g_act]

        # ----------------------------------------------------- OP_FAIL
        g = g_act[kind_act == _K_OP]
        if g.size:
            s = flat_ix[g] - op_start
            t = t_next[g]
            k = g.size
            go = orig[g]
            n_op_failures[go] += 1
            if policy is None:
                completion = t + ttr.take(split(g))
            else:
                # Deferred repair: the missing share waits for the
                # periodic checker; only data losses draw a TTR below.
                completion = np.full(k, _INF)

            eligible = t >= ddf_until[g]
            # Other drives still inside their restore window (the failing
            # slot is up, so it never counts itself).  Checker-deferred
            # failures (restore time inf) always overlap.
            overlap = ~op_up[g] & (t_restore[g] > t[:, None])
            n_failed_others = overlap.sum(axis=1)
            if latent:
                # The cycles are current to t: a slot is exposed iff its
                # defect has arrived (a scrub at t resolved first, an
                # arrival at t landed first).  Exposure is only looked at
                # here, so a defect arriving while another drive is down
                # is no DDF (operational failure *before* latent defect).
                # The failing drive's own defect leaves with it and
                # counts now.
                exposed_others = lat_arrival[g] <= t[:, None]
                own = row_ix_all[:k], s
                n_latent_defects[go] += exposed_others[own]
                exposed_others[own] = False
                lat_arrival[g, s] = _INF
                lat_scrub[g, s] = _INF

            # The shared data-loss predicate (repro.simulation.predicate):
            # one rule for RAID N+m and k-of-n groups.
            is_double = eligible & predicate.direct_loss(n_failed_others)
            is_ddf = is_double
            if latent:
                is_latent = (
                    eligible
                    & ~is_double
                    & predicate.exposure_boundary(n_failed_others)
                    & exposed_others.any(axis=1)
                )
                is_ddf = is_double | is_latent
            if is_ddf.any():
                g_ddf = g[is_ddf]
                if policy is not None:
                    # Emergency repair at data loss: TTR draws for the
                    # DDF rows only, in row order (the draw schedule is
                    # deterministic for a fixed (config, n_groups, seed)).
                    ddf_rows = is_ddf.nonzero()[0]
                    completion[ddf_rows] = t[ddf_rows] + ttr.take(split(g_ddf))
                # The group returns to service when the *latest* involved
                # restoration completes; every overlapping restore (and
                # this failure's own) is extended to that instant.
                # Pending (inf) restores take the shared completion
                # rather than extending it.
                other_max = np.where(
                    overlap & (t_restore[g] < _INF), t_restore[g], -_INF
                ).max(axis=1)
                window_end = np.maximum(completion, other_max)
                completion = np.where(is_ddf, window_end, completion)
                rws, cols = (overlap & is_ddf[:, None]).nonzero()
                t_restore[g[rws], cols] = window_end[rws]
                ddf_until[g_ddf] = window_end[is_ddf]
                if latent:
                    # Latent pathway: the exposed drives' defects count
                    # now and are repaired by the shared DDF restoration;
                    # their cycles end until the clear at the window end.
                    exposed_ddf = exposed_others & is_latent[:, None]
                    n_latent_defects[go] += exposed_ddf.sum(axis=1)
                    rws, cols = exposed_ddf.nonzero()
                    t_clear[g[rws], cols] = window_end[rws]
                    lat_arrival[g[rws], cols] = _INF
                    lat_scrub[g[rws], cols] = _INF
                ddf_group.append(go[is_ddf])
                ddf_times.append(t[is_ddf])
                ddf_double.append(is_double[is_ddf])

            # The failed drive leaves; all its pending processes are
            # invalidated until the replacement comes up.
            op_up[g, s] = False
            t_op[g, s] = _INF
            t_restore[g, s] = completion
            t_clear[g, s] = _INF

        # ------------------------------------------------- OP_RESTORED
        g = g_act[kind_act == _K_RESTORE]
        if g.size:
            s = flat_ix[g] - _K_RESTORE * n_slots
            t = t_next[g]
            n_restores[orig[g]] += 1
            op_up[g, s] = True
            t_restore[g, s] = _INF
            cuts = split(g)
            t_op[g, s] = t + ttop.take(cuts)
            if latent:
                # Fresh drive: fresh latent process.
                _start_cycles(g, s, t, cuts)

        # --------------------------------------------------- LD_CLEARED
        g = g_act[kind_act == _K_CLEAR]
        if g.size:
            s = flat_ix[g] - _K_CLEAR * n_slots
            t_clear[g, s] = _INF
            # An operational failure before the window end invalidates the
            # clear (t_clear reset to inf above), so the slot is up here.
            _start_cycles(g, s, t_next[g], split(g))

        # -------------------------------------------------------- CHECK
        if has_check:
            g = g_act[kind_act == _K_CHECK]
            if g.size:
                t = t_next[g]
                n_checks[orig[g]] += 1
                # Shares awaiting repair: down with no restore scheduled.
                pending = ~op_up[g] & np.isinf(t_restore[g])
                surviving = op_up[g].sum(axis=1)
                trigger = (surviving < policy.repair_threshold) & pending.any(
                    axis=1
                )
                rows_t = trigger.nonzero()[0]
                if rows_t.size:
                    g_rep = g[rows_t]
                    n_policy_repairs[orig[g_rep]] += 1
                    # One shared TTR draw per triggered repair pass.
                    repair_completion = t[rows_t] + ttr.take(split(g_rep))
                    rws, cols = pending[rows_t].nonzero()
                    t_restore[g_rep[rws], cols] = repair_completion[rws]
                t_check[g, 0] = t + policy.check_interval_hours

    if ddf_group:
        group = np.concatenate(ddf_group)
        # A stable sort by group keeps each group's DDFs in time order.
        order = np.argsort(group, kind="stable")
        columns = (
            group[order],
            np.concatenate(ddf_times)[order],
            np.concatenate(ddf_double)[order],
        )
    else:
        columns = (np.empty(0, dtype=np.int64), _EMPTY, np.empty(0, dtype=bool))
    groups = GroupArrays(
        mission,
        n_op_failures,
        n_latent_defects,
        n_scrub_repairs,
        n_restores,
        n_checks,
        n_policy_repairs,
        *columns,
    )
    return groups if as_arrays else groups.chronologies()


def next_shard_size(groups_done: int, target_groups: int, shard_size: int) -> int:
    """Size of the next shard toward a target fleet (0 when complete).

    The single shard-planning rule shared by the materialized partition
    (:func:`shard_sizes`) and the streaming loop
    (:meth:`~repro.simulation.monte_carlo.MonteCarloRunner.run_streaming`):
    full shards until the remainder, so the partition actually run is
    always a prefix of ``shard_sizes(final_total, shard_size)`` and
    per-shard seeding stays independent of when the run stops.
    """
    return max(0, min(shard_size, target_groups - groups_done))


def shard_sizes(n_groups: int, shard_size: int = BATCH_SHARD_SIZE) -> List[int]:
    """Deterministic shard partition of a fleet (pure function of inputs)."""
    if n_groups < 1:
        raise SimulationError(f"n_groups must be >= 1, got {n_groups!r}")
    sizes: List[int] = []
    done = 0
    while done < n_groups:
        size = next_shard_size(done, n_groups, shard_size)
        sizes.append(size)
        done += size
    return sizes
