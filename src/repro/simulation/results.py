"""Fleet-level simulation results and the paper's reporting quantities.

The paper reports everything as **DDFs per 1,000 RAID groups versus
time** (Figs 6, 7, 9, 10) and the **ROCOF** — DDFs per fixed time interval
(Fig. 8).  Both are estimated here from the per-group chronologies via the
mean-cumulative-function machinery of
:mod:`repro.distributions.fitting.mcf`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._validation import as_float_array, require_int, require_positive
from ..distributions.fitting import MCFEstimate, mean_cumulative_function
from ..exceptions import SimulationError
from .config import RaidGroupConfig
from .raid_simulator import DDFType, GroupChronology
from .streaming import FleetAccumulator, normal_two_sided_z

if TYPE_CHECKING:  # pragma: no cover - typing-only import, avoids a cycle
    from .streaming import StreamingResult


@dataclasses.dataclass(frozen=True)
class DDFEvent:
    """One double-disk failure in the fleet."""

    group: int
    time: float
    ddf_type: DDFType


@dataclasses.dataclass
class SimulationResult:
    """Aggregated outcome of simulating a fleet of identical RAID groups.

    Attributes
    ----------
    config:
        The simulated configuration.
    chronologies:
        One :class:`~repro.simulation.raid_simulator.GroupChronology` per
        group.
    seed:
        The user seed that reproduces this result.
    engine:
        Which simulation engine produced the chronologies (``"event"``,
        the reference per-group event loop, or ``"batch"``, the
        vectorized lockstep engine).  Results from the two engines agree
        in distribution, not sample for sample.
    streaming:
        The :class:`~repro.simulation.streaming.StreamingResult` of the
        run that produced this fleet: ``MonteCarloRunner.run``, with or
        without ``until``, sets it after clearing its ``result``, so the
        two form no reference cycle.  ``None`` when the result was built
        from chronologies directly, and on the ``result`` of a
        ``run_streaming(keep_chronologies=True)`` run.  It describes the
        run, not the fleet, so it takes no part in equality.
    """

    config: RaidGroupConfig
    chronologies: List[GroupChronology]
    seed: "int | None" = None
    engine: str = "event"
    streaming: "Optional[StreamingResult]" = dataclasses.field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        if not self.chronologies:
            raise SimulationError("a SimulationResult needs at least one group")

    # ------------------------------------------------------------------
    @property
    def n_groups(self) -> int:
        """Fleet size."""
        return len(self.chronologies)

    @property
    def mission_hours(self) -> float:
        """Mission length common to all groups."""
        return self.config.mission_hours

    @property
    def ddf_events(self) -> List[DDFEvent]:
        """Every DDF in the fleet, ordered by time."""
        events = [
            DDFEvent(group=g, time=t, ddf_type=k)
            for g, chrono in enumerate(self.chronologies)
            for t, k in zip(chrono.ddf_times, chrono.ddf_types)
        ]
        events.sort(key=lambda e: e.time)
        return events

    @property
    def total_ddfs(self) -> int:
        """Total DDF count across the fleet and mission."""
        return sum(c.n_ddfs for c in self.chronologies)

    def ddfs_by_type(self) -> Dict[DDFType, int]:
        """DDF counts split by pathway."""
        counts = {kind: 0 for kind in DDFType}
        for chrono in self.chronologies:
            for kind in chrono.ddf_types:
                counts[kind] += 1
        return counts

    # ------------------------------------------------------------------
    def ddfs_within(self, hours: float) -> int:
        """Fleet DDFs at or before ``hours``."""
        require_positive("hours", hours)
        return sum(c.ddfs_before(hours) for c in self.chronologies)

    def ddfs_per_thousand(self, times: Sequence[float]) -> np.ndarray:
        """The paper's y-axis: cumulative DDFs per 1,000 RAID groups.

        Parameters
        ----------
        times:
            Ages (hours) at which to evaluate the cumulative curve.
        """
        times_arr = as_float_array("times", times)
        counts = np.array([self.ddfs_within(t) if t > 0 else 0 for t in times_arr])
        return counts * (1000.0 / self.n_groups)

    def first_year_ddfs_per_thousand(self) -> float:
        """DDFs per 1,000 groups in the first 8,760 hours (Table 3's row basis)."""
        return float(self.ddfs_within(8760.0) * 1000.0 / self.n_groups)

    def to_mcf(self) -> MCFEstimate:
        """Nonparametric mean cumulative function of DDFs per group."""
        return mean_cumulative_function(
            [c.ddf_times for c in self.chronologies],
            [self.mission_hours] * self.n_groups,
        )

    def rocof(self, bin_width_hours: float) -> Tuple[np.ndarray, np.ndarray]:
        """Rate of occurrence of failures: DDFs per group-hour per bin.

        This is the paper's Fig. 8 quantity (they plot DDFs per 1,000
        groups per interval; multiply by ``1000 * bin_width`` for that
        scaling, or use :meth:`rocof_per_thousand_per_interval`).
        """
        require_positive("bin_width_hours", bin_width_hours)
        edges = np.arange(0.0, self.mission_hours + bin_width_hours, bin_width_hours)
        all_times = np.concatenate(
            [np.asarray(c.ddf_times, dtype=float) for c in self.chronologies]
        ) if self.total_ddfs else np.empty(0)
        counts, _ = np.histogram(all_times, bins=edges)
        centres = 0.5 * (edges[:-1] + edges[1:])
        rates = counts / (self.n_groups * bin_width_hours)
        return centres, rates

    def rocof_per_thousand_per_interval(
        self, bin_width_hours: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fig. 8's exact scaling: DDFs per 1,000 groups per interval."""
        centres, rates = self.rocof(bin_width_hours)
        return centres, rates * 1000.0 * bin_width_hours

    # ------------------------------------------------------------------
    def ddf_count_confidence_interval(
        self, hours: "float | None" = None, confidence: float = 0.95
    ) -> Tuple[float, float, float]:
        """(mean, lo, hi) DDFs per 1,000 groups with a normal-theory CI.

        The per-group DDF counts are i.i.d., so the fleet mean has
        standard error ``s / sqrt(n_groups)``.
        """
        if not 0.0 < confidence < 1.0:
            raise SimulationError(f"confidence must be in (0, 1), got {confidence!r}")
        horizon = self.mission_hours if hours is None else hours
        per_group = np.array(
            [c.ddfs_before(horizon) for c in self.chronologies], dtype=float
        )
        mean = float(per_group.mean())
        if self.n_groups > 1:
            stderr = float(per_group.std(ddof=1)) / math.sqrt(self.n_groups)
        else:
            stderr = 0.0
        z = normal_two_sided_z(confidence)
        return (mean * 1000.0, (mean - z * stderr) * 1000.0, (mean + z * stderr) * 1000.0)

    # ------------------------------------------------------------------
    def to_accumulator(
        self, time_grid: "Sequence[float] | None" = None
    ) -> FleetAccumulator:
        """Fold this materialized fleet into a fresh streaming accumulator.

        The bridge between the two representations: feeding a
        fixed-``n_groups`` result through here produces exactly the state
        a streaming run of the same fleet would have accumulated.
        """
        accumulator = FleetAccumulator(self.mission_hours, time_grid=time_grid)
        accumulator.add_shard(self.chronologies)
        return accumulator

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Headline numbers for reporting."""
        by_type = self.ddfs_by_type()
        return {
            "n_groups": float(self.n_groups),
            "mission_hours": self.mission_hours,
            "total_ddfs": float(self.total_ddfs),
            "ddfs_per_1000_mission": self.total_ddfs * 1000.0 / self.n_groups,
            "ddfs_per_1000_first_year": self.first_year_ddfs_per_thousand(),
            "ddf_double_op": float(by_type[DDFType.DOUBLE_OP]),
            "ddf_latent_then_op": float(by_type[DDFType.LATENT_THEN_OP]),
            "op_failures": float(sum(c.n_op_failures for c in self.chronologies)),
            "latent_defects": float(sum(c.n_latent_defects for c in self.chronologies)),
            "scrub_repairs": float(sum(c.n_scrub_repairs for c in self.chronologies)),
            "restores": float(sum(c.n_restores for c in self.chronologies)),
        }

    def curve(self, n_points: int = 20) -> Tuple[np.ndarray, np.ndarray]:
        """Evenly spaced (times, DDFs-per-1000) pairs over the mission."""
        require_int("n_points", n_points, minimum=2)
        times = np.linspace(0.0, self.mission_hours, n_points + 1)[1:]
        return times, self.ddfs_per_thousand(times)
