"""Continuous-time Markov chains for RAID reliability (the prior art).

Section 4.1: "Researchers have attempted to improve RAID reliability
models, but the primary change has been to introduce Markov models ...
Ultimately, all past work is based on the assumption of constant failure
and repair rates."  This module builds exactly those models so the
simulator can be compared against them:

* :func:`raid5_ctmc` — the two-live-state chain behind eq. 1;
* :func:`raid5_latent_ctmc` — the Fig. 4 state diagram (fully functional /
  degraded-latent / one-op-failure / DDF states) with every transition
  forced to a constant rate.

The generic :class:`ContinuousTimeMarkovChain` solves the transient state
probabilities and, crucially, the **expected number of entries** into a set
of states over time — the quantity comparable to the simulator's DDF
counts.  (The paper's ref. 21 point: the rate of failure is the density,
not the hazard; counting transits is the correct bridge.)

The chain *topologies* (which states exist and which physical process
drives each transition) are factored out as :class:`ChainSpec` so that
consumers needing more than constant rates can reuse them: the discrete-
time solver in :mod:`repro.analytical.transition_matrix` attaches
time-varying hazards to the same transitions, and
:func:`ChainSpec.chain` with ``absorbing=True`` turns any of them into a
first-passage chain whose DDF-state occupancy is the probability of *at
least one* data loss by ``t`` (the solver front-end's "DDF probability").
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .._validation import require_int, require_positive
from ..exceptions import ParameterError


class ContinuousTimeMarkovChain:
    """A finite-state CTMC defined by transition rates.

    Parameters
    ----------
    n_states:
        Number of states, labelled ``0 .. n_states - 1``.
    rates:
        Mapping ``(i, j) -> rate`` for ``i != j``; absent pairs have rate 0.
    state_names:
        Optional labels for reporting.
    """

    def __init__(
        self,
        n_states: int,
        rates: Dict[Tuple[int, int], float],
        state_names: "Sequence[str] | None" = None,
    ) -> None:
        require_int("n_states", n_states, minimum=1)
        self.n_states = n_states
        self.generator = np.zeros((n_states, n_states), dtype=float)
        for (i, j), rate in rates.items():
            if not (0 <= i < n_states and 0 <= j < n_states):
                raise ParameterError(f"transition ({i}, {j}) out of range")
            if i == j:
                raise ParameterError("self-transitions are not allowed")
            if rate < 0:
                raise ParameterError(f"rate for ({i}, {j}) must be >= 0, got {rate!r}")
            self.generator[i, j] = rate
        np.fill_diagonal(self.generator, -self.generator.sum(axis=1))
        if state_names is not None:
            if len(state_names) != n_states:
                raise ParameterError("state_names length must equal n_states")
            self.state_names = list(state_names)
        else:
            self.state_names = [f"state_{i}" for i in range(n_states)]

    # ------------------------------------------------------------------
    def transient_probabilities(
        self, times: np.ndarray, initial_state: int = 0
    ) -> np.ndarray:
        """State occupancy P(t) at each requested time.

        Solves the Kolmogorov forward equations ``dP/dt = P Q`` with an
        adaptive ODE integrator (robust for the stiff rate ratios of
        reliability models, where mu/lambda ~ 1e5).
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if np.any(times < 0):
            raise ParameterError("times must be >= 0")
        require_int("initial_state", initial_state, minimum=0)
        if initial_state >= self.n_states:
            raise ParameterError(f"initial_state {initial_state} out of range")

        p0 = np.zeros(self.n_states)
        p0[initial_state] = 1.0
        order = np.argsort(times)
        sorted_times = times[order]
        horizon = float(sorted_times[-1]) if sorted_times[-1] > 0 else 1.0
        from scipy import integrate

        sol = integrate.solve_ivp(
            lambda _t, p: p @ self.generator,
            t_span=(0.0, horizon),
            y0=p0,
            t_eval=np.clip(sorted_times, 0.0, horizon),
            method="LSODA",
            rtol=1e-9,
            atol=1e-12,
        )
        if not sol.success:  # pragma: no cover - LSODA failure is exotic
            raise ParameterError(f"ODE solver failed: {sol.message}")
        out = np.empty((times.size, self.n_states))
        out[order] = sol.y.T
        return out

    def expected_entries(
        self,
        target_states: Sequence[int],
        times: np.ndarray,
        initial_state: int = 0,
    ) -> np.ndarray:
        """Expected cumulative entries into ``target_states`` by each time.

        Integrates the instantaneous entry flux
        ``sum_{i not in D, j in D} P_i(s) q_ij`` alongside the forward
        equations — the CTMC analogue of the simulator's cumulative DDF
        count (and of eq. 3 when the chain is the two-state HPP).
        """
        targets = set(int(s) for s in target_states)
        for s in targets:
            if not 0 <= s < self.n_states:
                raise ParameterError(f"target state {s} out of range")
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if np.any(times < 0):
            raise ParameterError("times must be >= 0")

        flux_matrix = np.zeros_like(self.generator)
        for i in range(self.n_states):
            if i in targets:
                continue
            for j in targets:
                flux_matrix[i, j] = self.generator[i, j]
        flux_in = flux_matrix.sum(axis=1)  # entry rate from each source state

        p0 = np.zeros(self.n_states + 1)
        p0[initial_state] = 1.0

        def rhs(_t: float, y: np.ndarray) -> np.ndarray:
            p = y[:-1]
            return np.concatenate([p @ self.generator, [p @ flux_in]])

        order = np.argsort(times)
        sorted_times = times[order]
        horizon = float(sorted_times[-1]) if sorted_times[-1] > 0 else 1.0
        from scipy import integrate

        sol = integrate.solve_ivp(
            rhs,
            t_span=(0.0, horizon),
            y0=p0,
            t_eval=np.clip(sorted_times, 0.0, horizon),
            method="LSODA",
            rtol=1e-9,
            atol=1e-12,
        )
        if not sol.success:  # pragma: no cover
            raise ParameterError(f"ODE solver failed: {sol.message}")
        out = np.empty(times.size)
        out[order] = sol.y[-1, :]
        return out

    def stationary_distribution(self) -> np.ndarray:
        """Long-run occupancy (for irreducible chains)."""
        a = np.vstack([self.generator.T, np.ones(self.n_states)])
        b = np.zeros(self.n_states + 1)
        b[-1] = 1.0
        solution, *_ = np.linalg.lstsq(a, b, rcond=None)
        return solution


# ---------------------------------------------------------------------------
# Chain topologies, factored out of the constant-rate builders.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ChainTransition:
    """One chain edge tied to a physical process.

    ``multiplicity`` scales the per-drive rate (e.g. ``n_total`` drives
    racing to fail from the fully-functional state); ``process`` names
    which of the four Fig. 4 transition processes drives the edge
    (``"op"``, ``"latent"``, ``"restore"`` or ``"scrub"``).
    """

    source: int
    target: int
    process: str
    multiplicity: float = 1.0


@dataclasses.dataclass(frozen=True)
class ChainSpec:
    """A DDF chain topology independent of any rate assumption.

    The same spec backs three consumers: the constant-rate CTMC builders
    below (exact closed forms for all-exponential configurations), the
    discrete-time transition-matrix solver (time-varying hazards on the
    same edges), and the absorbing first-passage variants used for
    DDF-probability answers.
    """

    n_states: int
    state_names: Tuple[str, ...]
    ddf_states: Tuple[int, ...]
    transitions: Tuple[ChainTransition, ...]

    def rates(
        self, process_rates: Dict[str, float], absorbing: bool = False
    ) -> Dict[Tuple[int, int], float]:
        """Constant transition rates from per-process rates.

        With ``absorbing=True`` every transition *out of* a DDF state is
        dropped, turning entry into the DDF set into first passage.
        """
        out: Dict[Tuple[int, int], float] = {}
        for tr in self.transitions:
            if absorbing and tr.source in self.ddf_states:
                continue
            if tr.process not in process_rates:
                raise ParameterError(
                    f"chain needs a rate for process {tr.process!r}; "
                    f"got {sorted(process_rates)}"
                )
            out[(tr.source, tr.target)] = tr.multiplicity * process_rates[tr.process]
        return out

    def chain(
        self, process_rates: Dict[str, float], absorbing: bool = False
    ) -> ContinuousTimeMarkovChain:
        """Build the constant-rate CTMC for this topology."""
        return ContinuousTimeMarkovChain(
            self.n_states,
            self.rates(process_rates, absorbing=absorbing),
            state_names=list(self.state_names),
        )

    def rate_functions(
        self, process_hazards: Dict[str, Callable[[np.ndarray], np.ndarray]]
    ) -> Dict[Tuple[int, int], Callable[[np.ndarray], np.ndarray]]:
        """Time-varying transition rates from per-process hazard functions.

        Used by the discrete-time solver
        (:mod:`repro.analytical.transition_matrix`): each edge's rate at
        time ``t`` is ``multiplicity * hazard(t)``.
        """
        out: Dict[Tuple[int, int], Callable[[np.ndarray], np.ndarray]] = {}
        for tr in self.transitions:
            if tr.process not in process_hazards:
                raise ParameterError(
                    f"chain needs a hazard for process {tr.process!r}; "
                    f"got {sorted(process_hazards)}"
                )
            hazard = process_hazards[tr.process]
            mult = tr.multiplicity

            def rate(t: np.ndarray, _h=hazard, _m=mult) -> np.ndarray:
                return _m * np.asarray(_h(t), dtype=float)

            out[(tr.source, tr.target)] = rate
        return out


def ddf_chain_spec(
    n_data: int,
    fault_tolerance: int,
    models_latent: bool = False,
    scrubbing: bool = False,
) -> ChainSpec:
    """The chain topology matching a RAID group shape, if one exists.

    Supported shapes (raises :class:`~repro.exceptions.ParameterError`
    otherwise, mirroring the eligibility rules of
    :func:`repro.validation.anchors.anchor_ineligibility`):

    * tolerance 1, no latent defects — the classic 3-state (N+1) chain;
    * tolerance 1 with latent defects *and* scrubbing — the Fig. 4
      5-state diagram;
    * tolerance 2, no latent defects — the 4-state double-parity chain;
    * tolerance >= 3, no latent defects — the k-of-n birth-death chain
      (:func:`kofn_chain_spec`).

    The tolerance-1/-2 topologies are kept verbatim (single-rate repair,
    the prior-art convention the closed-form comparisons and goldens
    pin); the k-of-n chain models per-drive repair clocks faithfully
    (``j`` drives down repair at ``j * mu``), which matters once several
    repairs can be in flight.
    """
    require_int("n_data", n_data, minimum=1)
    require_int("fault_tolerance", fault_tolerance, minimum=1)
    if models_latent and not scrubbing:
        raise ParameterError(
            "no chain topology for the no-scrub latent model (defects persist "
            "until drive replacement, which the state aggregation cannot express)"
        )
    if fault_tolerance == 1 and not models_latent:
        n_total = n_data + 1
        return ChainSpec(
            n_states=3,
            state_names=("fully_functional", "degraded_op", "ddf"),
            ddf_states=(2,),
            transitions=(
                ChainTransition(0, 1, "op", n_total),
                ChainTransition(1, 0, "restore"),
                ChainTransition(1, 2, "op", n_data),
                ChainTransition(2, 0, "restore"),
            ),
        )
    if fault_tolerance == 1 and models_latent:
        n_total = n_data + 1
        return ChainSpec(
            n_states=5,
            state_names=(
                "fully_functional",
                "degraded_latent",
                "degraded_op",
                "ddf_latent_op",
                "ddf_op_op",
            ),
            ddf_states=(3, 4),
            transitions=(
                ChainTransition(0, 1, "latent", n_total),
                ChainTransition(0, 2, "op", n_total),
                ChainTransition(1, 0, "scrub"),
                ChainTransition(1, 3, "op", n_data),
                ChainTransition(2, 0, "restore"),
                ChainTransition(2, 4, "op", n_data),
                ChainTransition(3, 0, "restore"),
                ChainTransition(4, 0, "restore"),
            ),
        )
    if fault_tolerance == 2 and not models_latent:
        n_total = n_data + 2
        return ChainSpec(
            n_states=4,
            state_names=("all_good", "one_failed", "two_failed", "data_loss"),
            ddf_states=(3,),
            transitions=(
                ChainTransition(0, 1, "op", n_total),
                ChainTransition(1, 0, "restore"),
                ChainTransition(1, 2, "op", n_total - 1),
                ChainTransition(2, 1, "restore"),
                ChainTransition(2, 3, "op", n_total - 2),
                ChainTransition(3, 0, "restore"),
            ),
        )
    if fault_tolerance >= 3 and not models_latent:
        return kofn_chain_spec(n_data, fault_tolerance)
    raise ParameterError(
        f"no chain topology for fault tolerance {fault_tolerance} with "
        f"models_latent={models_latent}"
    )


def kofn_chain_spec(n_data: int, fault_tolerance: int) -> ChainSpec:
    """Birth-death chain for a k-of-n group with immediate repair.

    State ``j`` (``0 <= j <= m`` with ``m = fault_tolerance``) holds
    ``j`` drives simultaneously dead; the failure that would make
    ``m + 1`` enters the absorbing-or-renewing ``data_loss`` state.
    Failures arrive at ``(n_total - j) * lambda`` (each surviving drive
    fails independently); repairs complete at ``j * mu`` — every dead
    drive runs its own exponential restore clock, matching both
    simulation engines' immediate-repair semantics, where the first of
    ``j`` in-flight restores finishes at the ``j``-fold rate.  The
    data-loss state renews at ``mu`` (the shared DDF window: one
    concluding restoration returns the whole group to service, and no
    further DDF is counted inside the window).

    This is the closed-form anchor family for the fuzzer's k-of-n
    campaigns and the Markov tier for high-tolerance configurations;
    only the periodic-checker policy has no CTMC counterpart (its check
    clock is deterministic, not exponential).
    """
    require_int("n_data", n_data, minimum=1)
    require_int("fault_tolerance", fault_tolerance, minimum=1)
    m = fault_tolerance
    n_total = n_data + m
    names = tuple(f"{j}_failed" for j in range(m + 1)) + ("data_loss",)
    transitions = []
    for j in range(m):
        transitions.append(ChainTransition(j, j + 1, "op", n_total - j))
    transitions.append(ChainTransition(m, m + 1, "op", n_total - m))
    for j in range(1, m + 1):
        transitions.append(ChainTransition(j, j - 1, "restore", j))
    transitions.append(ChainTransition(m + 1, 0, "restore"))
    return ChainSpec(
        n_states=m + 2,
        state_names=names,
        ddf_states=(m + 1,),
        transitions=tuple(transitions),
    )


def raid5_ctmc(
    n_data: int, mtbf_hours: float, mttr_hours: float
) -> ContinuousTimeMarkovChain:
    """The classic (N+1) RAID chain with a renewing DDF state.

    States: 0 = fully functional, 1 = one drive failed (rebuilding),
    2 = DDF (data loss being restored).  With constant rates this chain's
    expected DDF entries reproduce eq. 3 to within the (negligible)
    probability mass transiently parked in states 1-2.
    """
    spec = ddf_chain_spec(n_data, 1, models_latent=False)
    return spec.chain(
        {
            "op": 1.0 / require_positive("mtbf_hours", mtbf_hours),
            "restore": 1.0 / require_positive("mttr_hours", mttr_hours),
        }
    )


def raid6_ctmc(
    n_data: int, mtbf_hours: float, mttr_hours: float
) -> ContinuousTimeMarkovChain:
    """Double-parity (N+2) chain with a renewing data-loss state.

    States: 0 = all drives good, 1 = one failed, 2 = two failed,
    3 = data loss (three coincident failures), restoring back to 0.
    The constant-rate baseline for the paper's "RAID 6 will eventually be
    required" conclusion.
    """
    spec = ddf_chain_spec(n_data, 2, models_latent=False)
    return spec.chain(
        {
            "op": 1.0 / require_positive("mtbf_hours", mtbf_hours),
            "restore": 1.0 / require_positive("mttr_hours", mttr_hours),
        }
    )


def raid5_latent_ctmc(
    n_data: int,
    op_mtbf_hours: float,
    latent_mtbf_hours: float,
    restore_hours: float,
    scrub_hours: float,
) -> ContinuousTimeMarkovChain:
    """The Fig. 4 state diagram with constant rates (Markov-ised).

    States (paper numbering in parentheses):

    * 0 — fully functional (1)
    * 1 — one or more latent defects, no op failure (2)
    * 2 — one op failure, no latent defect (4)
    * 3 — DDF: latent defect then op failure (3)
    * 4 — DDF: two op failures (5)

    This is what a "previous model" author would build after reading the
    paper's Section 4.2 but keeping the HPP assumption; the difference
    between its DDF counts and the simulator's isolates the effect of the
    *distributional* corrections from the effect of merely adding latent
    defects.
    """
    spec = ddf_chain_spec(n_data, 1, models_latent=True, scrubbing=True)
    return spec.chain(
        {
            "op": 1.0 / require_positive("op_mtbf_hours", op_mtbf_hours),
            "latent": 1.0 / require_positive("latent_mtbf_hours", latent_mtbf_hours),
            "restore": 1.0 / require_positive("restore_hours", restore_hours),
            "scrub": 1.0 / require_positive("scrub_hours", scrub_hours),
        }
    )
