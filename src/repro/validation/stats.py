"""Cross-engine statistical comparison (the promoted KS/chi-square harness).

The event and batch engines realise the same stochastic process through
different random-stream orderings, so their outputs are compared *in
distribution*: a two-sample Kolmogorov–Smirnov test on time-to-first-DDF,
chi-square homogeneity tests on per-group event counts, a z-test on the
mean mission DDF rate, and a homogeneity test on the DDF pathway mix.

This module began life inside ``tests/simulation/test_cross_engine_stats.py``
and was promoted so the differential fuzzer (:mod:`repro.validation`) and
the test suite share one implementation.  All statistics are deterministic
for fixed seeds; a caller chooses the p-value floor appropriate to its
multiplicity (a handful of curated scenarios can afford 0.02; a fuzzing
campaign running hundreds of cases needs a much smaller floor plus
confirmation on an independent seed — see
:class:`~repro.validation.differential.DifferentialFuzzer`).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from ..simulation.raid_simulator import GroupChronology

#: Default cap on the per-group DDF-count contingency table (counts above
#: are merged into the last bin, keeping expected cell counts healthy).
DEFAULT_MAX_DDF_BIN = 3

#: Default cap for the per-group operational-failure count table.
DEFAULT_MAX_OP_BIN = 8


def first_ddf_times(chronologies: Sequence[GroupChronology]) -> np.ndarray:
    """Time of each group's first DDF (groups without DDFs are dropped)."""
    return np.array([c.ddf_times[0] for c in chronologies if c.ddf_times])


def count_table(a: np.ndarray, b: np.ndarray, max_bin: int) -> np.ndarray:
    """2 x K contingency table of per-group counts.

    Counts are shifted by the pooled minimum before clipping at
    ``max_bin`` — a hot scenario whose every group exceeds ``max_bin``
    events would otherwise collapse into a single degenerate column and
    silently carry no evidence.  Columns empty in both samples are
    dropped so chi-square expected frequencies stay positive.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    offset = int(min(a.min(), b.min()))
    rows = [
        np.bincount(np.minimum(x - offset, max_bin), minlength=max_bin + 1)
        for x in (a, b)
    ]
    table = np.vstack(rows)
    return table[:, table.sum(axis=0) > 0]


def count_homogeneity_pvalue(
    a: np.ndarray, b: np.ndarray, max_bin: int
) -> Optional[float]:
    """Chi-square homogeneity p-value for two per-group count samples.

    ``None`` when the pooled distribution is degenerate (every group has
    the same clipped count in both samples) — identical degenerate
    distributions carry no evidence either way.
    """
    table = count_table(a, b, max_bin)
    if table.shape[1] < 2:
        return None
    from scipy.stats import chi2_contingency

    _, p, _, _ = chi2_contingency(table)
    return float(p)


def ks_pvalue(a: np.ndarray, b: np.ndarray) -> "tuple[float, float]":
    """Two-sample KS statistic and p-value (location/shape probe)."""
    from scipy.stats import ks_2samp

    stat, p = ks_2samp(a, b)
    return float(stat), float(p)


def mean_z_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """z-statistic for the difference of sample means (Welch-style SE).

    Returns 0.0 when both samples are constant (no variance, identical
    means carry no evidence; differing constant means give ``inf``).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    se = float(
        np.hypot(a.std(ddof=1) / np.sqrt(a.size), b.std(ddof=1) / np.sqrt(b.size))
    )
    diff = float(a.mean() - b.mean())
    if se == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / se


def pathway_mix_pvalue(
    a: Sequence[GroupChronology], b: Sequence[GroupChronology]
) -> Optional[float]:
    """Homogeneity p-value of the double-op vs latent-then-op DDF split.

    ``None`` when fewer than two pathways appear across both fleets (a
    one-pathway mix is degenerate and carries no evidence).
    """
    keys = sorted(
        {kind for fleet in (a, b) for chrono in fleet for kind in chrono.ddf_types},
        key=lambda kind: kind.value,
    )
    if len(keys) < 2:
        return None

    def mix(fleet: Sequence[GroupChronology]) -> List[int]:
        counts = {kind: 0 for kind in keys}
        for chrono in fleet:
            for kind in chrono.ddf_types:
                counts[kind] += 1
        return [counts[kind] for kind in keys]

    table = np.array([mix(a), mix(b)])
    table = table[:, table.sum(axis=0) > 0]
    if table.shape[1] < 2 or not table.sum(axis=1).all():
        # One fleet has no DDFs at all: the mix carries no evidence (the
        # count tests capture the asymmetry itself).
        return None
    from scipy.stats import chi2_contingency

    _, p, _, _ = chi2_contingency(table)
    return float(p)


@dataclasses.dataclass(frozen=True)
class TestOutcome:
    """One statistical comparison between the two fleets.

    ``p_value`` is ``None`` for z-type outcomes (``statistic`` is then the
    z-score) and for degenerate comparisons that carry no evidence.
    """

    name: str
    statistic: float
    p_value: Optional[float]

    def to_dict(self) -> dict:
        return {"name": self.name, "statistic": self.statistic, "p_value": self.p_value}


@dataclasses.dataclass
class FleetComparison:
    """Full cross-engine comparison of two fleets of chronologies.

    Attributes
    ----------
    outcomes:
        Every statistical test that could be evaluated.
    min_p:
        Smallest p-value among the evaluated tests (1.0 if none applied).
    max_abs_z:
        Largest absolute z-score among the z-type tests.
    """

    outcomes: List[TestOutcome]
    min_p: float
    max_abs_z: float

    def suspect(self, p_floor: float, z_ceiling: float) -> bool:
        """Whether any statistic crosses the caller's thresholds."""
        return self.min_p < p_floor or self.max_abs_z > z_ceiling

    def worst(self) -> Optional[TestOutcome]:
        """The most extreme outcome (smallest p, then largest |z|)."""
        if not self.outcomes:
            return None
        p_tests = [o for o in self.outcomes if o.p_value is not None]
        z_tests = [o for o in self.outcomes if o.p_value is None]
        best_p = min(p_tests, key=lambda o: o.p_value, default=None)
        best_z = max(z_tests, key=lambda o: abs(o.statistic), default=None)
        if best_p is not None and (best_p.p_value < 0.5 or best_z is None):
            return best_p
        return best_z

    def to_dict(self) -> dict:
        return {
            "min_p": self.min_p,
            "max_abs_z": self.max_abs_z,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


def compare_fleets(
    a: Sequence[GroupChronology],
    b: Sequence[GroupChronology],
    max_ddf_bin: int = DEFAULT_MAX_DDF_BIN,
    max_op_bin: int = DEFAULT_MAX_OP_BIN,
    min_first_ddf_samples: int = 10,
) -> FleetComparison:
    """Run the full cross-engine battery on two fleets.

    Parameters
    ----------
    a, b:
        Chronologies from each engine (same config, coupled seeds).
    max_ddf_bin, max_op_bin:
        Clipping bins for the count homogeneity tables.
    min_first_ddf_samples:
        Minimum per-fleet first-DDF sample size for the KS test to be
        meaningful; below it the test is skipped.
    """
    outcomes: List[TestOutcome] = []

    ev_first, ba_first = first_ddf_times(a), first_ddf_times(b)
    if ev_first.size >= min_first_ddf_samples and ba_first.size >= min_first_ddf_samples:
        stat, p = ks_pvalue(ev_first, ba_first)
        outcomes.append(TestOutcome("first_ddf_ks", stat, p))

    ev_ddfs = np.array([c.n_ddfs for c in a])
    ba_ddfs = np.array([c.n_ddfs for c in b])
    p = count_homogeneity_pvalue(ev_ddfs, ba_ddfs, max_ddf_bin)
    if p is not None:
        outcomes.append(TestOutcome("ddf_count_chi2", 0.0, p))

    ev_ops = np.array([c.n_op_failures for c in a])
    ba_ops = np.array([c.n_op_failures for c in b])
    p = count_homogeneity_pvalue(ev_ops, ba_ops, max_op_bin)
    if p is not None:
        outcomes.append(TestOutcome("op_count_chi2", 0.0, p))

    ev_lds = np.array([float(c.n_latent_defects) for c in a])
    ba_lds = np.array([float(c.n_latent_defects) for c in b])
    if ev_lds.max(initial=0.0) > 0 or ba_lds.max(initial=0.0) > 0:
        stat, p = ks_pvalue(ev_lds, ba_lds)
        outcomes.append(TestOutcome("latent_count_ks", stat, p))

    outcomes.append(
        TestOutcome("ddf_mean_z", mean_z_statistic(ev_ddfs, ba_ddfs), None)
    )
    p = pathway_mix_pvalue(a, b)
    if p is not None:
        outcomes.append(TestOutcome("pathway_mix_chi2", 0.0, p))

    p_values = [o.p_value for o in outcomes if o.p_value is not None]
    z_values = [abs(o.statistic) for o in outcomes if o.p_value is None]
    return FleetComparison(
        outcomes=outcomes,
        min_p=min(p_values, default=1.0),
        max_abs_z=max(z_values, default=0.0),
    )
