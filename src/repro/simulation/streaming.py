"""Streaming fleet statistics: incremental, exactly mergeable, checkpointable.

The materialized path (:class:`~repro.simulation.results.SimulationResult`)
keeps every per-group chronology in memory; fine for thousands of groups,
hostile to production-scale fleets and to runs whose size is not known in
advance.  This module provides the streaming counterpart: **accumulators**
that keep only sufficient statistics of the groups fed in, so a fleet run
can

* grow until a **precision target** is met (:class:`Precision`) instead of
  running a fixed ``n_groups`` blind,
* be **checkpointed and resumed** bit-identically
  (:mod:`~repro.simulation.checkpoint`), because every accumulator
  serializes its full state to JSON-safe dictionaries, and
* report progress while it runs (:class:`ProgressEvent`,
  :class:`StderrProgressReporter`).

All accumulators are *exactly* mergeable: ``a.merge(b)`` folds another
accumulator's state in, and the merged state is the same bytes however
the groups were cut into shards, and in whatever order and tree shape
the shards were merged.  So each shard of a run is summarized where it
was simulated (in process, in a pool worker or on a remote worker) into
one small :class:`FleetAccumulator`, and the run commits it with one
merge; serial, pooled, distributed and interrupted-then-resumed runs
agree byte for byte because there is nothing order-dependent left to
disagree on.  Two choices make that so:

* :class:`StreamingMoments` keeps the count, Σx and Σx² exactly, as
  Python ints for integral values (the per-group DDF counts) and as
  :class:`fractions.Fraction` otherwise (every finite float is a dyadic
  rational); the mean and variance are rounded once from the exact
  ratios;
* everything else is an integer tally, and the spare-wait hours are
  summed as an exact :class:`~fractions.Fraction`.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from .._validation import require_int
from ..exceptions import ParameterError, SimulationError
from .raid_simulator import DDFType, GroupChronology

#: Hours in the paper's first-year reporting window (Table 3).
FIRST_YEAR_HOURS = 8_760.0

#: An exact sum: an int, or a Fraction once a non-integral value is in it.
Exact = Union[int, Fraction]


def normal_two_sided_z(confidence: float) -> float:
    """Two-sided standard-normal quantile for a confidence level.

    ``normal_two_sided_z(0.95)`` is the familiar 1.95996...
    """
    if not 0.0 < confidence < 1.0:
        raise ParameterError(f"confidence must be in (0, 1), got {confidence!r}")
    from scipy.special import erfinv

    return math.sqrt(2.0) * float(erfinv(confidence))


# ----------------------------------------------------------------------
# Exact rationals.
def _exact(value: float) -> Exact:
    """A finite number as an exact rational: an int when it is integral."""
    if isinstance(value, int):
        return value
    value = float(value)
    if value.is_integer():
        return int(value)
    if not math.isfinite(value):
        raise ParameterError(f"cannot accumulate a non-finite value: {value!r}")
    return Fraction(value)


def _ratio(numerator: Exact, denominator: int) -> float:
    """``numerator / denominator``, rounded once to the nearest float."""
    # Both divisions round correctly: int / int is a correctly rounded
    # true division, and a Fraction converts by one such division.
    if isinstance(numerator, int):
        return numerator / denominator
    return float(numerator / denominator)


def _exact_to_json(value: Exact) -> List[int]:
    """``[numerator, denominator]`` of an exact value (JSON ints are exact)."""
    value = Fraction(value)
    return [value.numerator, value.denominator]


def _exact_from_json(state: object) -> Exact:
    """Inverse of :func:`_exact_to_json`; rejects anything but two ints."""
    numerator, denominator = state  # type: ignore[misc]
    numerator, denominator = operator.index(numerator), operator.index(denominator)
    # Integral sums (the DDF counts') stay ints, whose arithmetic is fastest;
    # those written as such skip building a Fraction on every load.
    if denominator == 1:
        return numerator
    value = Fraction(numerator, denominator)
    return value.numerator if value.denominator == 1 else value


# ----------------------------------------------------------------------
class StreamingMoments:
    """Exact count, mean and variance of a stream of scalars.

    The state is the count and the exact sums Σx and Σx² (ints while
    every value is integral, Fractions otherwise), so :meth:`add` and
    :meth:`merge` commute and associate exactly: any partition of a
    stream, merged in any order, gives the same state.  :attr:`mean` and
    :meth:`variance` are the exact ratios rounded once.  Values must be
    finite.
    """

    __slots__ = ("count", "_sum", "_sum_sq")

    def __init__(self, count: int = 0, total: Exact = 0, total_sq: Exact = 0) -> None:
        self.count = int(count)
        self._sum = total
        self._sum_sq = total_sq

    def add(self, value: float) -> None:
        """Fold one observation in."""
        x = _exact(value)
        self.count += 1
        self._sum += x
        self._sum_sq += x * x

    def add_many(self, values: Iterable[float]) -> None:
        """Fold a sequence in, one observation at a time."""
        for value in values:
            self.add(value)

    def merge(self, other: "StreamingMoments") -> None:
        """Fold another accumulator's state in (exact sums add)."""
        self.count += other.count
        self._sum += other._sum
        self._sum_sq += other._sum_sq

    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        """Mean of the stream so far (0.0 while empty)."""
        return _ratio(self._sum, self.count) if self.count else 0.0

    def variance(self, ddof: int = 1) -> float:
        """Sample variance (``ddof=1``) of the stream so far."""
        if self.count <= ddof:
            return 0.0
        # Σ(x - mean)² = (n·Σx² - (Σx)²) / n, exactly.
        spread = self.count * self._sum_sq - self._sum * self._sum
        return _ratio(spread, self.count * (self.count - ddof))

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
        mean = self.mean
        return mean - half, mean + half

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe full state; the sums as ``[numerator, denominator]``."""
        return {
            "count": self.count,
            "sum": _exact_to_json(self._sum),
            "sum_sq": _exact_to_json(self._sum_sq),
        }

    @classmethod
    def from_dict(cls, state: Dict[str, object]) -> "StreamingMoments":
        """Inverse of :meth:`to_dict`."""
        return cls(
            count=operator.index(state["count"]),  # type: ignore[arg-type]
            total=_exact_from_json(state["sum"]),
            total_sq=_exact_from_json(state["sum_sq"]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamingMoments(count={self.count}, mean={self.mean:g})"


# ----------------------------------------------------------------------
class FleetAccumulator:
    """Sufficient statistics of a fleet, fed chronology by chronology or
    merged shard summary by shard summary.

    Tracks everything :meth:`SimulationResult.summary
    <repro.simulation.results.SimulationResult.summary>` reports — DDF
    totals, pathway mix, event counters — plus per-group DDF-count
    moments (for confidence intervals), first-year counts and an
    optional cumulative-DDF count on a fixed time grid (the Figs 6-10
    curves).  Every part is exact, so :meth:`merge` gives the same state
    for any partition of the groups and any merge order (see the module
    docstring).
    """

    def __init__(
        self,
        mission_hours: float,
        time_grid: Optional[Sequence[float]] = None,
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
        self._spare_wait_hours = Fraction(0)
        if time_grid is not None:
            grid = np.asarray(list(time_grid), dtype=float)
            if grid.ndim != 1 or grid.size == 0:
                raise ParameterError("time_grid must be a non-empty 1-D sequence")
            self.time_grid: Optional[np.ndarray] = grid
            self.grid_counts: Optional[np.ndarray] = np.zeros(grid.size, dtype=np.int64)
        else:
            self.time_grid = None
            self.grid_counts = None

    @classmethod
    def from_ddfs(
        cls,
        mission_hours: float,
        n_groups: int,
        ddf_group: np.ndarray,
        ddf_times: np.ndarray,
        ddf_double: np.ndarray,
        *,
        n_op_failures: int = 0,
        n_latent_defects: int = 0,
        n_scrub_repairs: int = 0,
        n_restores: int = 0,
        time_grid: Optional[Sequence[float]] = None,
    ) -> "FleetAccumulator":
        """The summary of ``n_groups`` groups given by their DDFs as arrays.

        ``ddf_group`` (each DDF's group, 0 to ``n_groups - 1``,
        ascending), ``ddf_times`` (each group's DDFs in time order) and
        ``ddf_double`` (``True`` for :attr:`DDFType.DOUBLE_OP`) list every
        DDF; the counters are the groups' totals, and no group waited for
        a spare.  The state equals, byte for byte, :meth:`add_shard` over
        the chronologies these arrays describe — without building them.
        """
        out = cls(mission_hours, time_grid=time_grid)
        ddf_group = np.asarray(ddf_group, dtype=np.int64)
        ddf_times = np.asarray(ddf_times, dtype=float)
        per_group = np.bincount(ddf_group, minlength=n_groups)
        first_year = np.bincount(
            ddf_group[ddf_times <= out.first_year_horizon], minlength=n_groups
        )
        out.n_groups = int(n_groups)
        out.total_ddfs = int(ddf_times.size)
        out.total_first_year_ddfs = int(first_year.sum())
        out.ddf_moments = StreamingMoments(
            n_groups, out.total_ddfs, int(per_group @ per_group)
        )
        out.first_year_moments = StreamingMoments(
            n_groups, out.total_first_year_ddfs, int(first_year @ first_year)
        )
        double = int(np.count_nonzero(ddf_double))
        out.pathway[DDFType.DOUBLE_OP] = double
        out.pathway[DDFType.LATENT_THEN_OP] = out.total_ddfs - double
        out.n_op_failures = int(n_op_failures)
        out.n_latent_defects = int(n_latent_defects)
        out.n_scrub_repairs = int(n_scrub_repairs)
        out.n_restores = int(n_restores)
        if out.grid_counts is not None:
            out.grid_counts = np.searchsorted(
                np.sort(ddf_times), out.time_grid, side="right"
            ).astype(np.int64)
        return out

    # ------------------------------------------------------------------
    @property
    def first_year_horizon(self) -> float:
        """The first-year window, clipped to the mission."""
        return min(FIRST_YEAR_HOURS, self.mission_hours)

    @property
    def spare_wait_hours(self) -> float:
        """Hours failures spent waiting for a spare (summed exactly)."""
        return float(self._spare_wait_hours)

    def add_chronology(self, chrono: GroupChronology) -> None:
        """Fold one group's mission in."""
        n_ddfs = chrono.n_ddfs
        self.n_groups += 1
        self.total_ddfs += n_ddfs
        self.ddf_moments.add(n_ddfs)
        first_year = chrono.ddfs_before(self.first_year_horizon) if n_ddfs else 0
        self.total_first_year_ddfs += first_year
        self.first_year_moments.add(first_year)
        for kind in chrono.ddf_types:
            self.pathway[kind] += 1
        self.n_op_failures += chrono.n_op_failures
        self.n_latent_defects += chrono.n_latent_defects
        self.n_scrub_repairs += chrono.n_scrub_repairs
        self.n_restores += chrono.n_restores
        self.n_spare_waits += chrono.n_spare_waits
        if chrono.spare_wait_hours:
            self._spare_wait_hours += Fraction(chrono.spare_wait_hours)
        if n_ddfs and self.grid_counts is not None:
            # Most groups see no DDF, so they skip the curve update.
            self.grid_counts += np.searchsorted(
                np.asarray(chrono.ddf_times, dtype=float), self.time_grid, side="right"
            ).astype(np.int64)

    def add_shard(self, chronologies: Iterable[GroupChronology]) -> None:
        """Fold a whole shard in."""
        for chrono in chronologies:
            self.add_chronology(chrono)

    def merge(self, other: "FleetAccumulator") -> None:
        """Fold another accumulator in, exactly (see the class docstring).

        Everything that could refuse the merge is checked first, so a
        merge that raises leaves this accumulator as it was.
        """
        if other.mission_hours != self.mission_hours:
            raise SimulationError(
                "cannot merge accumulators over different missions "
                f"({self.mission_hours} vs {other.mission_hours} hours)"
            )
        if (self.time_grid is None) != (other.time_grid is None) or (
            self.time_grid is not None
            and not np.array_equal(self.time_grid, other.time_grid)
        ):
            raise SimulationError("cannot merge accumulators with mismatched time grids")
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
        self._spare_wait_hours += other._spare_wait_hours
        if self.grid_counts is not None:
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
        mean = self.ddf_moments.mean
        if self.ddf_moments.count < 2 or mean <= 0.0:
            return float("inf")
        lo, hi = self.ddf_moments.confidence_interval(confidence)
        return (hi - lo) / mean

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
            "spare_wait_hours": _exact_to_json(self._spare_wait_hours),
            "time_grid": None if self.time_grid is None else self.time_grid.tolist(),
            "grid_counts": (
                None if self.grid_counts is None else self.grid_counts.tolist()
            ),
        }

    @classmethod
    def from_dict(cls, state: Dict[str, object]) -> "FleetAccumulator":
        """Inverse of :meth:`to_dict`."""
        out = cls(
            mission_hours=float(state["mission_hours"]),  # type: ignore[arg-type]
            time_grid=state["time_grid"],  # type: ignore[arg-type]
        )
        out.n_groups = operator.index(state["n_groups"])  # type: ignore[arg-type]
        out.total_ddfs = operator.index(state["total_ddfs"])  # type: ignore[arg-type]
        out.total_first_year_ddfs = operator.index(state["total_first_year_ddfs"])  # type: ignore[arg-type]
        out.ddf_moments = StreamingMoments.from_dict(state["ddf_moments"])  # type: ignore[arg-type]
        out.first_year_moments = StreamingMoments.from_dict(
            state["first_year_moments"]  # type: ignore[arg-type]
        )
        out.pathway = {
            kind: operator.index(state["pathway"][kind.name])  # type: ignore[index]
            for kind in DDFType
        }
        out.n_op_failures = operator.index(state["n_op_failures"])  # type: ignore[arg-type]
        out.n_latent_defects = operator.index(state["n_latent_defects"])  # type: ignore[arg-type]
        out.n_scrub_repairs = operator.index(state["n_scrub_repairs"])  # type: ignore[arg-type]
        out.n_restores = operator.index(state["n_restores"])  # type: ignore[arg-type]
        out.n_spare_waits = operator.index(state["n_spare_waits"])  # type: ignore[arg-type]
        out._spare_wait_hours = Fraction(_exact_from_json(state["spare_wait_hours"]))
        if out.time_grid is not None:
            counts = np.asarray(state["grid_counts"], dtype=np.int64)
            if counts.shape != out.time_grid.shape:
                raise ParameterError("grid_counts does not match the time grid")
            out.grid_counts = counts
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

    def groups_needed(self, accumulator: FleetAccumulator) -> float:
        """Rough count of further groups until this target is met.

        Below :attr:`min_groups` it is exactly the groups still missing
        to it, which the target needs whatever the width.  From there the
        CI width shrinks like ``1/sqrt(n)``, so at width ``w`` after ``n``
        groups about ``n * (w / rel_ci_width)**2 - n`` remain.  It is
        ``inf`` while the width is undefined (no DDF yet), and may be
        ``inf`` or far past any fleet cap for an unreachable width, so
        callers clamp it as a float.  It sizes how far a run simulates
        ahead; the stopping rule stays :meth:`satisfied_by`.
        """
        n = accumulator.n_groups
        if n < self.min_groups:
            return float(self.min_groups - n)
        width = accumulator.relative_ci_width(self.confidence)
        if math.isinf(width):
            return math.inf
        # Products overflow to inf where ``** 2`` would raise.
        ratio = width / self.rel_ci_width
        return n * ratio * ratio - n


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
        Shards simulated or in flight behind this commit and not yet
        committed: the rest of this shard's run, plus, on a pool or
        remote workers, every shard submitted and not yet taken back.
        On the final event it is the number of shards the run dropped.
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


#: Observer signature: called with every committed shard's event, a run's
#: events in a burst once the run is committed (``done`` on the last).
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
            visible += f"  [{event.queue_depth} uncommitted]"
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
    shard_sizes:
        The sizes of those shards, in order and run-length encoded: the
        cursor a :class:`~repro.simulation.checkpoint.RunCheckpoint` of
        this state records.
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
    shard_sizes: List[List[int]] = dataclasses.field(default_factory=list)
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
