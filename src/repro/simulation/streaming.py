"""Streaming fleet statistics: incremental, mergeable, checkpointable.

The materialized path (:class:`~repro.simulation.results.SimulationResult`)
keeps every per-group chronology in memory; fine for thousands of groups,
hostile to production-scale fleets and to runs whose size is not known in
advance.  This module provides the streaming counterpart: **accumulators**
that consume chronologies shard-by-shard and keep only sufficient
statistics, so a fleet run can

* grow until a **precision target** is met (:class:`Precision`) instead of
  running a fixed ``n_groups`` blind,
* be **checkpointed and resumed** bit-identically
  (:mod:`~repro.simulation.checkpoint`), because every accumulator
  serializes its full state to JSON-safe dictionaries, and
* report progress while it runs (:class:`ProgressEvent`,
  :class:`StderrProgressReporter`).

All accumulators are *mergeable*: ``a.merge(b)`` folds another
accumulator's state in, and merging is associative (to floating-point
tolerance for the moment statistics, exactly for the integer tallies), so
shards may be combined in any grouping.  Updates are applied
shard-by-shard in shard order, which makes an interrupted-then-resumed
run perform the *same sequence of floating-point operations* as an
uninterrupted one — the checkpoint/resume bit-identity guarantee.

The mean/variance accumulator uses Welford's online algorithm; merging
uses the parallel (Chan et al.) update.  Sampled time-to-first-DDF values
are kept in a deterministic bounded reservoir so quantiles of the
first-failure distribution stay available without storing every group.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from .._validation import require_int
from ..exceptions import ParameterError, SimulationError
from .raid_simulator import DDFType, GroupChronology

#: Hours in the paper's first-year reporting window (Table 3).
FIRST_YEAR_HOURS = 8_760.0

#: Default capacity of the time-to-first-DDF reservoir.
DEFAULT_RESERVOIR_CAPACITY = 1_024

#: Fixed seed of the reservoir's internal (non-physical) RNG.  The
#: reservoir only *subsamples* already-simulated values, so this stream is
#: deliberately independent of the simulation seed; a constant keeps
#: accumulator state a pure function of the chronologies fed in.
_RESERVOIR_SEED = 0x5EED_D1CE


def normal_two_sided_z(confidence: float) -> float:
    """Two-sided standard-normal quantile for a confidence level.

    ``normal_two_sided_z(0.95)`` is the familiar 1.95996...
    """
    if not 0.0 < confidence < 1.0:
        raise ParameterError(f"confidence must be in (0, 1), got {confidence!r}")
    from scipy.special import erfinv

    return math.sqrt(2.0) * float(erfinv(confidence))


# ----------------------------------------------------------------------
class StreamingMoments:
    """Welford online mean/variance over a stream of scalars.

    Exact in count and mean-of-stream semantics; numerically stable in
    one pass.  :meth:`merge` applies the parallel-variance update, so
    moments computed per shard combine into the whole-fleet moments.
    """

    __slots__ = ("count", "mean", "_m2")

    def __init__(self, count: int = 0, mean: float = 0.0, m2: float = 0.0) -> None:
        self.count = int(count)
        self.mean = float(mean)
        self._m2 = float(m2)

    def add(self, value: float) -> None:
        """Fold one observation in."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    def add_many(self, values: Iterable[float]) -> None:
        """Fold a sequence in, one observation at a time (stream order)."""
        for value in values:
            self.add(float(value))

    def merge(self, other: "StreamingMoments") -> None:
        """Fold another accumulator's state in (Chan et al. update)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self._m2 = other.count, other.mean, other._m2
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean += delta * other.count / total
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.count = total

    # ------------------------------------------------------------------
    def variance(self, ddof: int = 1) -> float:
        """Sample variance (``ddof=1``) of the stream so far."""
        if self.count <= ddof:
            return 0.0
        return self._m2 / (self.count - ddof)

    def std(self, ddof: int = 1) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance(ddof))

    def stderr(self) -> float:
        """Standard error of the stream mean."""
        if self.count < 2:
            return float("inf") if self.count else float("nan")
        return self.std() / math.sqrt(self.count)

    def confidence_interval(self, confidence: float = 0.95) -> "tuple[float, float]":
        """Normal-theory two-sided CI for the stream mean."""
        z = normal_two_sided_z(confidence)
        half = z * self.stderr() if self.count >= 2 else float("inf")
        return self.mean - half, self.mean + half

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe full state."""
        return {"count": self.count, "mean": self.mean, "m2": self._m2}

    @classmethod
    def from_dict(cls, state: Dict[str, object]) -> "StreamingMoments":
        """Inverse of :meth:`to_dict`."""
        return cls(
            count=int(state["count"]),  # type: ignore[arg-type]
            mean=float(state["mean"]),  # type: ignore[arg-type]
            m2=float(state["m2"]),  # type: ignore[arg-type]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamingMoments(count={self.count}, mean={self.mean:g})"


# ----------------------------------------------------------------------
class FirstDDFReservoir:
    """Bounded uniform sample of per-group time-to-first-DDF values.

    Algorithm R with a dedicated deterministic RNG: feeding the same
    values in the same order always keeps the same sample, and the RNG
    state serializes with the reservoir, so checkpoint/resume replays
    identically.  Groups that never suffer a DDF contribute to
    ``groups_offered`` only through :attr:`n_censored`.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_RESERVOIR_CAPACITY,
        seed: int = _RESERVOIR_SEED,
    ) -> None:
        require_int("capacity", capacity, minimum=1)
        self.capacity = capacity
        self.values: List[float] = []
        self.n_seen = 0
        self.n_censored = 0
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def offer_first_ddf(self, time_hours: float) -> None:
        """Offer one group's first-DDF instant."""
        self.n_seen += 1
        if len(self.values) < self.capacity:
            self.values.append(float(time_hours))
            return
        slot = int(self._rng.integers(0, self.n_seen))
        if slot < self.capacity:
            self.values[slot] = float(time_hours)

    def offer_censored(self) -> None:
        """Record a group whose mission ended with no DDF."""
        self.n_censored += 1

    def merge(self, other: "FirstDDFReservoir") -> None:
        """Fold another reservoir in (weighted source selection)."""
        self.n_censored += other.n_censored
        if not other.n_seen:
            return
        if not self.n_seen:
            self.values = list(other.values)
            self.n_seen = other.n_seen
            return
        mine = list(self.values)
        theirs = list(other.values)
        self._rng.shuffle(mine)  # type: ignore[arg-type]
        self._rng.shuffle(theirs)  # type: ignore[arg-type]
        total = self.n_seen + other.n_seen
        weight_self = self.n_seen / total
        merged: List[float] = []
        while len(merged) < self.capacity and (mine or theirs):
            take_mine = mine and (
                not theirs or float(self._rng.random()) < weight_self
            )
            merged.append(mine.pop() if take_mine else theirs.pop())
        self.values = merged
        self.n_seen = total

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Empirical quantile of the sampled first-DDF times."""
        if not self.values:
            return float("nan")
        return float(np.quantile(np.asarray(self.values), q))

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe full state, including the RNG cursor."""
        return {
            "capacity": self.capacity,
            "values": list(self.values),
            "n_seen": self.n_seen,
            "n_censored": self.n_censored,
            "rng_state": self._rng.bit_generator.state,
        }

    @classmethod
    def from_dict(cls, state: Dict[str, object]) -> "FirstDDFReservoir":
        """Inverse of :meth:`to_dict`."""
        out = cls(capacity=int(state["capacity"]))  # type: ignore[arg-type]
        out.values = [float(v) for v in state["values"]]  # type: ignore[union-attr]
        out.n_seen = int(state["n_seen"])  # type: ignore[arg-type]
        out.n_censored = int(state["n_censored"])  # type: ignore[arg-type]
        out._rng.bit_generator.state = state["rng_state"]
        return out


# ----------------------------------------------------------------------
class FleetAccumulator:
    """Sufficient statistics of a fleet, fed chronology-by-chronology.

    Tracks everything :meth:`SimulationResult.summary
    <repro.simulation.results.SimulationResult.summary>` reports — DDF
    totals, pathway mix, event counters — plus per-group DDF-count
    moments (for confidence intervals), first-year counts, a
    time-to-first-DDF reservoir, and an optional cumulative-DDF count on
    a fixed time grid (the Figs 6-10 curves).
    """

    def __init__(
        self,
        mission_hours: float,
        time_grid: Optional[Sequence[float]] = None,
        reservoir_capacity: int = DEFAULT_RESERVOIR_CAPACITY,
    ) -> None:
        if mission_hours <= 0:
            raise ParameterError(f"mission_hours must be > 0, got {mission_hours!r}")
        self.mission_hours = float(mission_hours)
        self.n_groups = 0
        self.total_ddfs = 0
        self.total_first_year_ddfs = 0
        self.ddf_moments = StreamingMoments()
        self.first_year_moments = StreamingMoments()
        self.pathway: Dict[DDFType, int] = {kind: 0 for kind in DDFType}
        self.n_op_failures = 0
        self.n_latent_defects = 0
        self.n_scrub_repairs = 0
        self.n_restores = 0
        self.n_spare_waits = 0
        self.spare_wait_hours = 0.0
        self.first_ddf = FirstDDFReservoir(capacity=reservoir_capacity)
        if time_grid is not None:
            grid = np.asarray(list(time_grid), dtype=float)
            if grid.ndim != 1 or grid.size == 0:
                raise ParameterError("time_grid must be a non-empty 1-D sequence")
            self.time_grid: Optional[np.ndarray] = grid
            self.grid_counts: Optional[np.ndarray] = np.zeros(grid.size, dtype=np.int64)
        else:
            self.time_grid = None
            self.grid_counts = None

    # ------------------------------------------------------------------
    @property
    def first_year_horizon(self) -> float:
        """The first-year window, clipped to the mission."""
        return min(FIRST_YEAR_HOURS, self.mission_hours)

    def add_chronology(self, chrono: GroupChronology) -> None:
        """Fold one group's mission in."""
        self.n_groups += 1
        self.total_ddfs += chrono.n_ddfs
        self.ddf_moments.add(float(chrono.n_ddfs))
        first_year = chrono.ddfs_before(self.first_year_horizon)
        self.total_first_year_ddfs += first_year
        self.first_year_moments.add(float(first_year))
        for kind in chrono.ddf_types:
            self.pathway[kind] += 1
        self.n_op_failures += chrono.n_op_failures
        self.n_latent_defects += chrono.n_latent_defects
        self.n_scrub_repairs += chrono.n_scrub_repairs
        self.n_restores += chrono.n_restores
        self.n_spare_waits += chrono.n_spare_waits
        self.spare_wait_hours += chrono.spare_wait_hours
        if chrono.ddf_times:
            self.first_ddf.offer_first_ddf(chrono.ddf_times[0])
        else:
            self.first_ddf.offer_censored()
        if self.time_grid is not None:
            assert self.grid_counts is not None
            times = np.asarray(chrono.ddf_times, dtype=float)
            if times.size:
                self.grid_counts += np.searchsorted(
                    times, self.time_grid, side="right"
                ).astype(np.int64)

    def add_shard(self, chronologies: Iterable[GroupChronology]) -> None:
        """Fold a whole shard in, in order."""
        for chrono in chronologies:
            self.add_chronology(chrono)

    def merge(self, other: "FleetAccumulator") -> None:
        """Fold another accumulator in (associative across shards)."""
        if other.mission_hours != self.mission_hours:
            raise SimulationError(
                "cannot merge accumulators over different missions "
                f"({self.mission_hours} vs {other.mission_hours} hours)"
            )
        self.n_groups += other.n_groups
        self.total_ddfs += other.total_ddfs
        self.total_first_year_ddfs += other.total_first_year_ddfs
        self.ddf_moments.merge(other.ddf_moments)
        self.first_year_moments.merge(other.first_year_moments)
        for kind in DDFType:
            self.pathway[kind] += other.pathway[kind]
        self.n_op_failures += other.n_op_failures
        self.n_latent_defects += other.n_latent_defects
        self.n_scrub_repairs += other.n_scrub_repairs
        self.n_restores += other.n_restores
        self.n_spare_waits += other.n_spare_waits
        self.spare_wait_hours += other.spare_wait_hours
        self.first_ddf.merge(other.first_ddf)
        if (self.time_grid is None) != (other.time_grid is None):
            raise SimulationError("cannot merge accumulators with mismatched time grids")
        if self.time_grid is not None:
            assert other.time_grid is not None
            if not np.array_equal(self.time_grid, other.time_grid):
                raise SimulationError("cannot merge accumulators with mismatched time grids")
            assert self.grid_counts is not None and other.grid_counts is not None
            self.grid_counts += other.grid_counts

    # ------------------------------------------------------------------
    def ddfs_per_thousand(self) -> float:
        """Whole-mission DDFs per 1,000 groups (the paper's headline unit)."""
        if not self.n_groups:
            return float("nan")
        return self.total_ddfs * 1000.0 / self.n_groups

    def ddfs_per_thousand_ci(
        self, confidence: float = 0.95
    ) -> "tuple[float, float, float]":
        """(estimate, lo, hi) mission DDFs per 1,000 groups."""
        lo, hi = self.ddf_moments.confidence_interval(confidence)
        return (self.ddf_moments.mean * 1000.0, lo * 1000.0, hi * 1000.0)

    def relative_ci_width(self, confidence: float = 0.95) -> float:
        """Full CI width over the mean of the per-group DDF rate.

        ``inf`` while the estimate is zero or fewer than two groups have
        been seen — relative precision is undefined there.
        """
        if self.ddf_moments.count < 2 or self.ddf_moments.mean <= 0.0:
            return float("inf")
        lo, hi = self.ddf_moments.confidence_interval(confidence)
        return (hi - lo) / self.ddf_moments.mean

    def pathway_mix(self) -> Dict[str, float]:
        """Fraction of DDFs per pathway (zeros when no DDFs yet)."""
        total = self.total_ddfs
        return {
            kind.name.lower(): (self.pathway[kind] / total if total else 0.0)
            for kind in DDFType
        }

    def grid_per_thousand(self) -> "tuple[np.ndarray, np.ndarray]":
        """(times, cumulative DDFs per 1,000 groups) on the configured grid."""
        if self.time_grid is None or self.grid_counts is None:
            raise SimulationError("this accumulator was built without a time grid")
        if not self.n_groups:
            raise SimulationError("no groups accumulated yet")
        return self.time_grid, self.grid_counts * (1000.0 / self.n_groups)

    def first_year_ddfs_per_thousand(self) -> float:
        """First-year DDFs per 1,000 groups (Table 3's row basis)."""
        if not self.n_groups:
            return float("nan")
        return self.total_first_year_ddfs * 1000.0 / self.n_groups

    def summary(self) -> Dict[str, float]:
        """Headline numbers, key-compatible with ``SimulationResult.summary``."""
        return {
            "n_groups": float(self.n_groups),
            "mission_hours": self.mission_hours,
            "total_ddfs": float(self.total_ddfs),
            "ddfs_per_1000_mission": self.ddfs_per_thousand(),
            "ddfs_per_1000_first_year": self.first_year_ddfs_per_thousand(),
            "ddf_double_op": float(self.pathway[DDFType.DOUBLE_OP]),
            "ddf_latent_then_op": float(self.pathway[DDFType.LATENT_THEN_OP]),
            "op_failures": float(self.n_op_failures),
            "latent_defects": float(self.n_latent_defects),
            "scrub_repairs": float(self.n_scrub_repairs),
            "restores": float(self.n_restores),
        }

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe full state (checkpoint payload)."""
        return {
            "mission_hours": self.mission_hours,
            "n_groups": self.n_groups,
            "total_ddfs": self.total_ddfs,
            "total_first_year_ddfs": self.total_first_year_ddfs,
            "ddf_moments": self.ddf_moments.to_dict(),
            "first_year_moments": self.first_year_moments.to_dict(),
            "pathway": {kind.name: self.pathway[kind] for kind in DDFType},
            "n_op_failures": self.n_op_failures,
            "n_latent_defects": self.n_latent_defects,
            "n_scrub_repairs": self.n_scrub_repairs,
            "n_restores": self.n_restores,
            "n_spare_waits": self.n_spare_waits,
            "spare_wait_hours": self.spare_wait_hours,
            "first_ddf": self.first_ddf.to_dict(),
            "time_grid": None if self.time_grid is None else list(self.time_grid),
            "grid_counts": (
                None if self.grid_counts is None else [int(c) for c in self.grid_counts]
            ),
        }

    @classmethod
    def from_dict(cls, state: Dict[str, object]) -> "FleetAccumulator":
        """Inverse of :meth:`to_dict`."""
        out = cls(
            mission_hours=float(state["mission_hours"]),  # type: ignore[arg-type]
            time_grid=state["time_grid"],  # type: ignore[arg-type]
        )
        out.n_groups = int(state["n_groups"])  # type: ignore[arg-type]
        out.total_ddfs = int(state["total_ddfs"])  # type: ignore[arg-type]
        out.total_first_year_ddfs = int(state["total_first_year_ddfs"])  # type: ignore[arg-type]
        out.ddf_moments = StreamingMoments.from_dict(state["ddf_moments"])  # type: ignore[arg-type]
        out.first_year_moments = StreamingMoments.from_dict(
            state["first_year_moments"]  # type: ignore[arg-type]
        )
        out.pathway = {
            kind: int(state["pathway"][kind.name])  # type: ignore[index]
            for kind in DDFType
        }
        out.n_op_failures = int(state["n_op_failures"])  # type: ignore[arg-type]
        out.n_latent_defects = int(state["n_latent_defects"])  # type: ignore[arg-type]
        out.n_scrub_repairs = int(state["n_scrub_repairs"])  # type: ignore[arg-type]
        out.n_restores = int(state["n_restores"])  # type: ignore[arg-type]
        out.n_spare_waits = int(state["n_spare_waits"])  # type: ignore[arg-type]
        out.spare_wait_hours = float(state["spare_wait_hours"])  # type: ignore[arg-type]
        out.first_ddf = FirstDDFReservoir.from_dict(state["first_ddf"])  # type: ignore[arg-type]
        if state["grid_counts"] is not None:
            out.grid_counts = np.asarray(state["grid_counts"], dtype=np.int64)
        return out


# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Precision:
    """Convergence target for an adaptively sized fleet run.

    The run stops once the two-sided normal CI of the per-group DDF rate
    is narrower than ``rel_ci_width`` times the current estimate — i.e.
    ``rel_ci_width=0.05`` asks for the DDF rate known to ±2.5% at the
    stated confidence.

    Attributes
    ----------
    rel_ci_width:
        Full CI width as a fraction of the estimate.
    confidence:
        CI confidence level.
    max_groups:
        Hard fleet-size cap; ``None`` defers to the runner's ``n_groups``
        (so a precision run can never grow without bound).
    min_groups:
        Groups to simulate before the stopping rule is consulted; guards
        against lucky early shards passing on a degenerate variance
        estimate.
    """

    rel_ci_width: float = 0.05
    confidence: float = 0.95
    max_groups: Optional[int] = None
    min_groups: int = 256

    def __post_init__(self) -> None:
        if not self.rel_ci_width > 0.0:
            raise ParameterError(
                f"rel_ci_width must be > 0, got {self.rel_ci_width!r}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ParameterError(
                f"confidence must be in (0, 1), got {self.confidence!r}"
            )
        require_int("min_groups", self.min_groups, minimum=1)
        if self.max_groups is not None:
            require_int("max_groups", self.max_groups, minimum=1)

    @classmethod
    def normalize(
        cls,
        spec: "Union[Precision, float]",
        default_max_groups: Optional[int] = None,
    ) -> "Precision":
        """Coerce a bare relative width into a full :class:`Precision`.

        ``default_max_groups`` fills in :attr:`max_groups` when the spec
        leaves it unset.
        """
        if isinstance(spec, Precision):
            precision = spec
        elif isinstance(spec, (int, float)) and not isinstance(spec, bool):
            precision = cls(rel_ci_width=float(spec))
        else:
            raise ParameterError(
                f"until must be a Precision or a relative CI width, got {spec!r}"
            )
        if precision.max_groups is None and default_max_groups is not None:
            precision = dataclasses.replace(precision, max_groups=default_max_groups)
        return precision

    def satisfied_by(self, accumulator: FleetAccumulator) -> bool:
        """Whether the accumulated fleet meets this target."""
        if accumulator.n_groups < self.min_groups:
            return False
        return accumulator.relative_ci_width(self.confidence) <= self.rel_ci_width


# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ProgressEvent:
    """One observation of a running (or just-finished) fleet simulation.

    Attributes
    ----------
    shards_completed, groups_completed:
        Cumulative progress, including any resumed-from checkpoint.
    total_ddfs:
        DDFs accumulated so far.
    ddfs_per_1000, ci_lo, ci_hi:
        Current mission-DDF estimate with its CI, per 1,000 groups.
    rel_ci_width:
        Current relative CI width (``inf`` until estimable).
    elapsed_seconds:
        Wall clock including checkpointed prior segments.
    groups_per_second:
        Throughput of the *current* process (resumed work excluded).
    converged:
        Whether a precision target has been met.
    done:
        ``True`` on the final event of a run.
    shard_seconds:
        Worker-side wall time of the shard just committed (its
        simulation time, excluding queue wait; 0 when unavailable).
        When one run (in process or in a pool task) simulated several
        shards, each gets the run's wall time times its share of the
        run's groups.
    shard_groups_per_second:
        Throughput of the shard just committed, from the worker's own
        monotonic clock (``task.n_groups / shard_seconds``) — the
        undistorted kernel speed, unlike :attr:`groups_per_second`
        which folds in queueing, commit ordering and observer overhead
        (0 when unavailable).
    queue_depth:
        Shards speculatively in flight behind this commit (0 for serial
        execution).
    commit_lag_seconds:
        How long the committed shard's finished result waited for the
        in-order commit cursor (0 for serial execution).
    shard_retries:
        Times the committed shard was re-run after a worker death.
    shard_worker:
        Which worker simulated the committed shard — ``"local"`` for
        in-process execution, ``host:pid`` for a remote TCP worker.
    """

    shards_completed: int
    groups_completed: int
    total_ddfs: int
    ddfs_per_1000: float
    ci_lo: float
    ci_hi: float
    rel_ci_width: float
    elapsed_seconds: float
    groups_per_second: float
    converged: bool
    done: bool
    shard_seconds: float = 0.0
    queue_depth: int = 0
    commit_lag_seconds: float = 0.0
    shard_retries: int = 0
    shard_groups_per_second: float = 0.0
    shard_worker: str = "local"


#: Observer signature: called after every shard and once more when done.
RunObserver = Callable[[ProgressEvent], None]


class StderrProgressReporter:
    """Single-line stderr progress display for interactive runs.

    Rewrites one line with ``\\r``; because successive lines can shrink
    (e.g. the CI column switching from ``(CI pending)`` to a finite
    width), every write is padded to the previous line's length so no
    stale characters survive the rewrite.  The ``done`` event bypasses
    the throttle and always (re)writes the full line before appending
    the final status, so a suppressed last regular line can never leave
    the status dangling after stale text.
    """

    def __init__(self, stream=None, min_interval_seconds: float = 0.0) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._min_interval = float(min_interval_seconds)
        self._last_emit = -math.inf
        self._last_len = 0

    def __call__(self, event: ProgressEvent) -> None:
        now = time.monotonic()
        if not event.done and now - self._last_emit < self._min_interval:
            return
        self._last_emit = now
        if math.isfinite(event.rel_ci_width):
            ci = (
                f"{event.ddfs_per_1000:.3f} "
                f"[{event.ci_lo:.3f}, {event.ci_hi:.3f}]/1000 "
                f"(±{100.0 * event.rel_ci_width / 2.0:.1f}%)"
            )
        else:
            ci = f"{event.ddfs_per_1000:.3f}/1000 (CI pending)"
        visible = (
            f"[shard {event.shards_completed:>4}] "
            f"{event.groups_completed:>8} groups  "
            f"{event.groups_per_second:8.1f} groups/s  DDFs {ci}"
        )
        if event.shard_groups_per_second:
            # The committed shard's own monotonic-clock throughput: the
            # kernel's real speed, free of queue wait and commit ordering.
            visible += f"  [shard {event.shard_groups_per_second:.0f}/s]"
        if event.shard_worker != "local":
            visible += f"  [{event.shard_worker}]"
        if event.queue_depth:
            visible += f"  [{event.queue_depth} in flight]"
        if event.done:
            status = "converged" if event.converged else "finished"
            visible += f"  — {status} in {event.elapsed_seconds:.1f}s"
        padding = " " * max(0, self._last_len - len(visible))
        self._stream.write("\r" + visible + padding)
        if event.done:
            self._stream.write("\n")
            self._last_len = 0
        else:
            self._last_len = len(visible)
        self._stream.flush()


# ----------------------------------------------------------------------
@dataclasses.dataclass
class StreamingResult:
    """Outcome of a streaming fleet run.

    Attributes
    ----------
    accumulator:
        The merged fleet statistics.
    seed, engine, shard_size:
        Reproducibility coordinates: re-running the same
        ``(config, seed, engine, shard_size)`` for the same number of
        shards reproduces this state bit-for-bit.
    shards_run, groups:
        Total progress including any resumed segments.
    converged:
        Whether a precision target stopped the run.
    stop_reason:
        ``"fixed"`` (ran the requested fleet), ``"converged"``,
        ``"max_groups"``, or ``"interrupted"``.
    precision:
        The target, when one was given.
    elapsed_seconds:
        Wall clock across all segments.
    result:
        Materialized :class:`~repro.simulation.results.SimulationResult`
        when the run kept chronologies (``keep_chronologies=True``);
        ``None`` for pure-streaming runs.
    executor_stats:
        Shard-executor telemetry for this call — execution mode
        (``serial``/``pipelined``), job count, per-shard wall-time
        aggregates, speculation queue depth, commit lag, retries, and
        worker-pool breaks; ``None`` for results built before the run
        finished.
    """

    accumulator: FleetAccumulator
    seed: Optional[int]
    engine: str
    shard_size: int
    shards_run: int
    groups: int
    converged: bool
    stop_reason: str
    precision: Optional[Precision] = None
    elapsed_seconds: float = 0.0
    result: Optional[object] = None  # SimulationResult, kept untyped to avoid a cycle
    executor_stats: Optional[Dict[str, object]] = None

    def summary(self) -> Dict[str, float]:
        """Headline numbers (see :meth:`FleetAccumulator.summary`)."""
        return self.accumulator.summary()

    def ddfs_per_thousand_ci(
        self, confidence: Optional[float] = None
    ) -> "tuple[float, float, float]":
        """(estimate, lo, hi) mission DDFs per 1,000 groups."""
        level = (
            confidence
            if confidence is not None
            else (self.precision.confidence if self.precision else 0.95)
        )
        return self.accumulator.ddfs_per_thousand_ci(level)

    def to_manifest(self) -> Dict[str, object]:
        """Machine-readable run manifest (JSON-safe)."""
        confidence = self.precision.confidence if self.precision else 0.95
        estimate, lo, hi = self.ddfs_per_thousand_ci(confidence)
        manifest: Dict[str, object] = {
            "format": "repro-run-manifest/1",
            "seed": self.seed,
            "engine": self.engine,
            "shard_size": self.shard_size,
            "shards_run": self.shards_run,
            "groups": self.groups,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "elapsed_seconds": self.elapsed_seconds,
            "groups_per_second": (
                self.groups / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0
            ),
            "confidence": confidence,
            "ddfs_per_1000_mission": estimate,
            "ddfs_per_1000_ci": [lo, hi],
            "rel_ci_width": self.accumulator.relative_ci_width(confidence),
            "ddfs_per_1000_first_year": self.accumulator.first_year_ddfs_per_thousand(),
            "pathway_mix": self.accumulator.pathway_mix(),
            "summary": self.summary(),
        }
        if self.executor_stats is not None:
            manifest["executor"] = dict(self.executor_stats)
        if self.precision is not None:
            manifest["precision"] = {
                "rel_ci_width": self.precision.rel_ci_width,
                "confidence": self.precision.confidence,
                "max_groups": self.precision.max_groups,
                "min_groups": self.precision.min_groups,
            }
        return manifest
