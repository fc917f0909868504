"""Differential config-fuzzing: both engines, one oracle, minimal repros.

The :class:`DifferentialFuzzer` drives one fuzzed configuration through
the validation battery:

1. the **event engine** runs the fleet, with the first few groups traced
   and replayed through the Fig. 4/5 invariant oracle
   (:mod:`repro.validation.oracle`);
2. the **batch engine** (when the config supports it) runs the same fleet
   size under a coupled seed and the two chronology samples are compared
   in distribution (:mod:`repro.validation.stats`); a suspect comparison
   is *confirmed* on an independent derived seed at a larger fleet before
   it counts as a divergence — fuzzing runs hundreds of cases, so the
   per-case false-positive probability must be tiny;
3. all-exponential configurations are additionally pinned to the
   closed-form Markov anchors (:mod:`repro.validation.anchors`);
4. configurations the hybrid solver front-end classifies as analytically
   eligible (:mod:`repro.solver`) are solved through it and the answer is
   compared against the batch fleet's mean DDF count — the solver's own
   error bound plus the statistical allowance sets the tolerance, and a
   suspect comparison is confirmed on a larger independent fleet before
   it counts (``solver-divergence``).  Monte-Carlo-routed configurations
   skip this stage: that route *is* the pair of engines already under
   test.

A failing case is greedily shrunk to a minimal still-failing
configuration and written as a JSON repro bundle
(``repro-fuzz-bundle/1``) containing the config, the seed, and the first
divergence — everything needed to replay it with ``repro fuzz --replay``.

Both engine runners are injectable, which is how the test suite plants a
deliberate semantic mutation in one engine and asserts the campaign
catches and shrinks it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..distributions import Mixture
from ..simulation.checkpoint import atomic_write_text, config_fingerprint
from ..simulation.config import RaidGroupConfig
from ..simulation.monte_carlo import MonteCarloRunner
from ..simulation.raid_simulator import GroupChronology, RaidGroupSimulator
from ..simulation.rng import make_seed_sequence
from ..simulation.trace import TimelineRecorder
from .anchors import AnchorResult, anchor_ineligibility, check_anchor
from .generator import ConfigSampler, config_from_dict, config_to_dict
from .oracle import InvariantViolation, check_chronology, check_trace
from .stats import FleetComparison, compare_fleets

BUNDLE_FORMAT = "repro-fuzz-bundle/1"

#: p-value floor for a *single* fuzz case (before confirmation).  Far
#: below the curated test suite's 0.02: a campaign runs hundreds of cases
#: times several tests each, and a suspect still has to fail confirmation
#: on an independent seed before it counts.
DEFAULT_P_FLOOR = 5e-4

#: |z| ceiling for the mean-DDF z comparison.
DEFAULT_Z_CEILING = 5.0

#: A suspect comparison is re-run at this many times its fleet, on
#: :func:`confirmation_seed`, before it counts.
DEFAULT_CONFIRM_FACTOR = 4

Runner = Callable[[RaidGroupConfig, int, int], List[GroupChronology]]

#: Statistical allowance for the solver-vs-batch comparison, in standard
#: errors of the simulated mean (on top of the solver's own error bound).
SOLVER_Z_ALLOWANCE = 5.0

#: Discretization resolution for the fuzzer's transition-matrix solves —
#: half the interactive default; the coarser step error simply widens the
#: reported bound, which the comparison honours.
SOLVER_N_STEPS = 512


@dataclasses.dataclass(frozen=True)
class SolverComparison:
    """Solver answer vs batch-fleet mean DDF count for one fuzz case.

    ``allowance`` is the solver's claimed error bound plus
    ``SOLVER_Z_ALLOWANCE`` standard errors of the simulated mean (with
    the same Poisson floor the anchors use).
    """

    method: str
    expected: float
    bound: float
    observed_mean: float
    standard_error: float
    allowance: float
    ok: bool

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def compare_solver_answer(
    answer, chronologies: Sequence[GroupChronology]
) -> SolverComparison:
    """Compare a :class:`~repro.solver.answer.SolverAnswer` against a
    simulated fleet's mean DDF count."""
    counts = np.array([c.n_ddfs for c in chronologies], dtype=float)
    observed = float(counts.mean())
    sample_se = (
        float(counts.std(ddof=1) / np.sqrt(counts.size)) if counts.size > 1 else 0.0
    )
    poisson_se = float(np.sqrt(max(answer.expected_ddfs, 0.0) / max(counts.size, 1)))
    se = max(sample_se, poisson_se)
    allowance = answer.error.bound + SOLVER_Z_ALLOWANCE * se
    return SolverComparison(
        method=answer.method,
        expected=answer.expected_ddfs,
        bound=answer.error.bound,
        observed_mean=observed,
        standard_error=se,
        allowance=allowance,
        ok=abs(observed - answer.expected_ddfs) <= allowance,
    )


def run_event_engine(
    config: RaidGroupConfig, n_groups: int, seed: int
) -> List[GroupChronology]:
    """Serial event-engine fleet with the runner's per-group seed spawning."""
    chronologies, _ = run_event_engine_traced(config, n_groups, seed, n_traces=0)
    return chronologies


def run_event_engine_traced(
    config: RaidGroupConfig, n_groups: int, seed: int, n_traces: int
) -> "tuple[List[GroupChronology], List[InvariantViolation]]":
    """Event-engine fleet; the first ``n_traces`` groups are recorded and
    replayed through the trace oracle.

    Recording does not touch the RNG, so traced and untraced groups are
    numerically identical.
    """
    children = make_seed_sequence(seed).spawn(n_groups)
    simulator = RaidGroupSimulator(config)
    chronologies: List[GroupChronology] = []
    violations: List[InvariantViolation] = []
    for idx, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        recorder = TimelineRecorder() if idx < n_traces else None
        chrono = simulator.run(rng, recorder=recorder)
        chronologies.append(chrono)
        if recorder is not None:
            violations.extend(check_trace(config, chrono, recorder))
        else:
            violations.extend(check_chronology(config, chrono))
    return chronologies, violations


def run_batch_engine(
    config: RaidGroupConfig, n_groups: int, seed: int
) -> List[GroupChronology]:
    """Serial batch-engine fleet, exactly as the runner simulates it."""
    runner = MonteCarloRunner(config, n_groups=n_groups, seed=seed, engine="batch")
    return runner.run().chronologies


# ---------------------------------------------------------------------------
# Case results, reports, bundles.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class CaseResult:
    """Outcome of one fuzzed configuration."""

    index: int
    config: RaidGroupConfig
    seed: int
    n_groups: int
    mode: str  # "differential" | "oracle-only"
    # "ok" | "invariant-violation" | "divergence" | "anchor-mismatch"
    # | "solver-divergence"
    status: str
    detail: str = ""
    violations: List[InvariantViolation] = dataclasses.field(default_factory=list)
    comparison: Optional[FleetComparison] = None
    anchor: Optional[AnchorResult] = None
    solver: Optional[SolverComparison] = None
    shrunk_config: Optional[RaidGroupConfig] = None
    shrink_evaluations: int = 0
    bundle_path: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    def to_bundle(self) -> dict:
        """JSON repro bundle (``repro-fuzz-bundle/1``)."""
        return {
            "format": BUNDLE_FORMAT,
            "case_index": self.index,
            "status": self.status,
            "detail": self.detail,
            "config": config_to_dict(self.config),
            "config_fingerprint": config_fingerprint(self.config),
            "seed": self.seed,
            "n_groups": self.n_groups,
            "mode": self.mode,
            "violations": [v.to_dict() for v in self.violations[:20]],
            "comparison": self.comparison.to_dict() if self.comparison else None,
            "anchor": self.anchor.to_dict() if self.anchor else None,
            "solver": self.solver.to_dict() if self.solver else None,
            "shrunk_config": (
                config_to_dict(self.shrunk_config) if self.shrunk_config else None
            ),
            "shrink_evaluations": self.shrink_evaluations,
        }


def load_bundle(path: str) -> "tuple[RaidGroupConfig, int, int, dict]":
    """Read a repro bundle back as (config, seed, n_groups, raw dict).

    Prefers the shrunk configuration when the bundle carries one.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("format") != BUNDLE_FORMAT:
        raise ValueError(f"{path}: not a {BUNDLE_FORMAT} bundle")
    config_data = data.get("shrunk_config") or data["config"]
    return (
        config_from_dict(config_data),
        int(data["seed"]),
        int(data["n_groups"]),
        data,
    )


@dataclasses.dataclass
class FuzzReport:
    """Aggregate outcome of one fuzz campaign."""

    seed: int
    cases: List[CaseResult]
    elapsed_seconds: float

    @property
    def n_cases(self) -> int:
        return len(self.cases)

    @property
    def failures(self) -> List[CaseResult]:
        return [c for c in self.cases if c.failed]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz campaign: {self.n_cases} cases in {self.elapsed_seconds:.1f}s "
            f"(seed {self.seed}), {len(self.failures)} failure(s)"
        ]
        for case in self.failures:
            lines.append(
                f"  case {case.index}: {case.status} — {case.detail}"
                + (f" [bundle: {case.bundle_path}]" if case.bundle_path else "")
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_cases": self.n_cases,
            "n_failures": len(self.failures),
            "elapsed_seconds": self.elapsed_seconds,
            "failures": [c.to_bundle() for c in self.failures],
        }


# ---------------------------------------------------------------------------
# The fuzzer.
# ---------------------------------------------------------------------------


class DifferentialFuzzer:
    """Runs fuzz cases through the full validation battery.

    Parameters
    ----------
    sampler:
        Configuration generator (default :class:`ConfigSampler`).
    n_groups:
        Fleet size per engine per case.
    n_traces:
        Event-engine groups replayed through the trace oracle per case.
    p_floor, z_ceiling:
        Suspicion thresholds for the statistical comparison.
    confirm_factor:
        Fleet-size multiplier for the confirmation re-run of a suspect
        comparison (independent derived seed).
    event_runner, batch_runner:
        Injectable engine runners ``(config, n_groups, seed) ->
        chronologies`` — the test suite substitutes a mutated runner to
        verify the battery catches planted semantic bugs.  The event
        runner replaces only the *untraced* comparison fleet; oracle
        traces always come from the real event engine.
    max_shrink_evaluations:
        Budget for the greedy shrinker (each evaluation re-runs the
        battery on a candidate configuration).
    solver_check:
        Run the solver-vs-batch comparison on analytically eligible
        configurations (stage 4).
    solver_n_steps:
        Discretization resolution for the transition-matrix tier during
        fuzzing.
    """

    def __init__(
        self,
        sampler: Optional[ConfigSampler] = None,
        n_groups: int = 128,
        n_traces: int = 12,
        p_floor: float = DEFAULT_P_FLOOR,
        z_ceiling: float = DEFAULT_Z_CEILING,
        confirm_factor: int = DEFAULT_CONFIRM_FACTOR,
        event_runner: Optional[Runner] = None,
        batch_runner: Optional[Runner] = None,
        max_shrink_evaluations: int = 24,
        solver_check: bool = True,
        solver_n_steps: int = SOLVER_N_STEPS,
    ) -> None:
        self.sampler = sampler or ConfigSampler()
        self.n_groups = n_groups
        self.n_traces = n_traces
        self.p_floor = p_floor
        self.z_ceiling = z_ceiling
        self.confirm_factor = confirm_factor
        self.event_runner = event_runner or run_event_engine
        self.batch_runner = batch_runner or run_batch_engine
        self.max_shrink_evaluations = max_shrink_evaluations
        self.solver_check = solver_check
        self.solver_n_steps = solver_n_steps

    # -- one case ------------------------------------------------------
    def run_case(
        self, config: RaidGroupConfig, seed: int, index: int = 0, shrink: bool = True
    ) -> CaseResult:
        """Run the full battery on one configuration."""
        result = self._evaluate(config, seed, index, self.n_groups)
        if result.failed and shrink:
            shrunk, evaluations = self._shrink(result)
            result.shrunk_config = shrunk
            result.shrink_evaluations = evaluations
        return result

    def _evaluate(
        self, config: RaidGroupConfig, seed: int, index: int, n_groups: int
    ) -> CaseResult:
        mode = "differential" if config.supports_batch_engine else "oracle-only"
        result = CaseResult(
            index=index, config=config, seed=seed, n_groups=n_groups, mode=mode,
            status="ok",
        )

        # 1. Event engine + trace oracle (always runs).
        event, violations = run_event_engine_traced(
            config, n_groups, seed, min(self.n_traces, n_groups)
        )
        if self.event_runner is not run_event_engine:
            event = self.event_runner(config, n_groups, seed)
            violations = [
                v for chrono in event for v in check_chronology(config, chrono)
            ] + violations
        if violations:
            result.status = "invariant-violation"
            result.violations = violations
            first = violations[0]
            result.detail = (
                f"{first.invariant} at t={first.time:g}"
                + (f" slot {first.slot}" if first.slot is not None else "")
                + f": {first.detail}"
            )
            return result

        # 2. Cross-engine statistical comparison (batch-supported configs).
        if mode == "differential":
            batch = self.batch_runner(config, n_groups, seed)
            batch_violations = [
                v for chrono in batch for v in check_chronology(config, chrono)
            ]
            if batch_violations:
                result.status = "invariant-violation"
                result.violations = batch_violations
                result.detail = (
                    f"batch engine: {batch_violations[0].invariant}: "
                    f"{batch_violations[0].detail}"
                )
                return result
            comparison = compare_fleets(event, batch)
            result.comparison = comparison
            if comparison.suspect(self.p_floor, self.z_ceiling):
                confirmed = self._confirm(config, seed, n_groups)
                if confirmed is not None:
                    result.status = "divergence"
                    result.comparison = confirmed
                    worst = confirmed.worst()
                    result.detail = (
                        f"confirmed cross-engine divergence: {worst.name} "
                        f"(statistic {worst.statistic:.3g}, p {worst.p_value!r})"
                        if worst
                        else "confirmed cross-engine divergence"
                    )
                    return result

            # 3. Closed-form anchor (exponential-only configs).
            if anchor_ineligibility(config) is None:
                anchor = check_anchor(config, event + batch)
                result.anchor = anchor
                if not anchor.ok:
                    result.status = "anchor-mismatch"
                    result.detail = (
                        f"mean DDFs {anchor.observed_mean:.4g} vs closed-form "
                        f"{anchor.expected:.4g} (tolerance {anchor.tolerance:.4g})"
                    )
                    return result

            # 4. Hybrid solver vs batch (analytically eligible configs).
            if self.solver_check:
                solver_comparison = self._check_solver(config, batch, seed, n_groups)
                if solver_comparison is not None:
                    result.solver = solver_comparison
                    if not solver_comparison.ok:
                        result.status = "solver-divergence"
                        result.detail = (
                            f"solver ({solver_comparison.method}) expected "
                            f"{solver_comparison.expected:.4g} vs simulated mean "
                            f"{solver_comparison.observed_mean:.4g} "
                            f"(allowance {solver_comparison.allowance:.4g})"
                        )
                        return result
        return result

    def _check_solver(
        self,
        config: RaidGroupConfig,
        batch: List[GroupChronology],
        seed: int,
        n_groups: int,
    ) -> Optional[SolverComparison]:
        """Stage 4: solver-vs-batch on analytically eligible configs.

        Returns ``None`` for Monte-Carlo-routed configurations (nothing
        independent to compare: that route is the engines under test).
        A failing comparison is confirmed against a ``confirm_factor``×
        batch fleet on an independent derived seed before it stands —
        the analytical answer is deterministic, so only the simulated
        side is re-drawn.
        """
        # Imported lazily: repro.solver depends on repro.simulation, and
        # pulling it in at module level would cycle once the solver package
        # grows validation-aware features.
        from ..solver import classify, solve

        if not classify(config).is_analytical:
            return None
        answer = solve(config, n_steps=self.solver_n_steps)
        comparison = compare_solver_answer(answer, batch)
        if comparison.ok:
            return comparison
        confirm_seed = int(
            np.random.SeedSequence([seed, 0xA17]).generate_state(1)[0]
        )
        confirm_fleet = self.batch_runner(
            config, n_groups * self.confirm_factor, confirm_seed
        )
        confirmed = compare_solver_answer(answer, confirm_fleet)
        return confirmed

    def _confirm(
        self, config: RaidGroupConfig, seed: int, n_groups: int
    ) -> Optional[FleetComparison]:
        """Re-run a suspect comparison on an independent derived seed.

        Returns the confirmation comparison when it is also suspect,
        ``None`` when the suspicion evaporates (statistical fluke).
        """
        confirm_seed = confirmation_seed(seed)
        n_confirm = n_groups * self.confirm_factor
        event = self.event_runner(config, n_confirm, confirm_seed)
        batch = self.batch_runner(config, n_confirm, confirm_seed)
        comparison = compare_fleets(event, batch)
        return comparison if comparison.suspect(self.p_floor, self.z_ceiling) else None

    # -- shrinking -----------------------------------------------------
    def _shrink_candidates(self, config: RaidGroupConfig) -> List[RaidGroupConfig]:
        """Ordered simplifications, most aggressive first."""
        replace = dataclasses.replace
        candidates: List[RaidGroupConfig] = []
        if config.mission_hours > 10_000.0:
            candidates.append(replace(config, mission_hours=config.mission_hours / 2.0))
        if config.spare_pool is not None:
            candidates.append(replace(config, spare_pool=None))
        if config.repair_policy is not None:
            candidates.append(replace(config, repair_policy=None))
        if config.latent_age_anchored:
            candidates.append(replace(config, latent_age_anchored=False))
        if config.time_to_scrub is not None:
            candidates.append(replace(config, time_to_scrub=None))
        if config.time_to_latent is not None:
            candidates.append(
                replace(config, time_to_latent=None, time_to_scrub=None)
            )
        if config.n_parity > 1:
            candidates.append(replace(config, n_parity=config.n_parity - 1))
        if config.n_data > 2:
            candidates.append(replace(config, n_data=max(2, config.n_data // 2)))
        if isinstance(config.time_to_op, Mixture):
            heaviest = max(
                zip(config.time_to_op.weights, config.time_to_op.components),
                key=lambda pair: pair[0],
            )[1]
            candidates.append(replace(config, time_to_op=heaviest))
        return candidates

    def _shrink(self, failure: CaseResult) -> "tuple[Optional[RaidGroupConfig], int]":
        """Greedy descent: accept any simplification that still fails
        with the same status.  Returns (minimal config, evaluations); the
        config is ``None`` when no simplification preserved the failure.
        """
        current = failure.config
        evaluations = 0
        improved = True
        shrunk = False
        while improved and evaluations < self.max_shrink_evaluations:
            improved = False
            for candidate in self._shrink_candidates(current):
                if evaluations >= self.max_shrink_evaluations:
                    break
                evaluations += 1
                trial = self._evaluate(
                    candidate, failure.seed, failure.index, failure.n_groups
                )
                if trial.status == failure.status:
                    current = candidate
                    improved = True
                    shrunk = True
                    break
        return (current if shrunk else None), evaluations

    # -- bundles -------------------------------------------------------
    def write_bundle(self, case: CaseResult, bundle_dir: str) -> str:
        """Write a failing case's JSON repro bundle; returns its path."""
        os.makedirs(bundle_dir, exist_ok=True)
        name = (
            f"bundle-{case.index:04d}-"
            f"{config_fingerprint(case.config)[:12]}.json"
        )
        path = os.path.join(bundle_dir, name)
        atomic_write_text(path, json.dumps(case.to_bundle(), indent=2, sort_keys=True))
        case.bundle_path = path
        return path


# ---------------------------------------------------------------------------
# Campaigns.
# ---------------------------------------------------------------------------


def confirmation_seed(seed: int) -> int:
    """The independent seed a suspect engine comparison at ``seed`` is
    re-run on (at ``confirm_factor`` times its fleet) before it counts."""
    return int(np.random.SeedSequence([seed, 0x5EED]).generate_state(1)[0])


def case_seed(campaign_seed: int, index: int) -> int:
    """Deterministic per-case simulation seed."""
    return int(np.random.SeedSequence([campaign_seed, index, 2]).generate_state(1)[0])


def case_config_rng(campaign_seed: int, index: int) -> np.random.Generator:
    """Deterministic per-case configuration-draw generator."""
    return np.random.default_rng(np.random.SeedSequence([campaign_seed, index, 1]))


def run_fuzz_campaign(
    seed: int = 0,
    budget_seconds: float = 60.0,
    max_cases: Optional[int] = None,
    min_cases: int = 50,
    bundle_dir: Optional[str] = None,
    fuzzer: Optional[DifferentialFuzzer] = None,
    anchor_every: int = 5,
    progress: Optional[Callable[[CaseResult], None]] = None,
) -> FuzzReport:
    """Run a seeded, time-budgeted differential fuzz campaign.

    Cases are drawn until the wall-clock budget is spent, but never fewer
    than ``min_cases`` (the budget is advisory; the floor is the
    contract) and never more than ``max_cases``.  Every ``anchor_every``-th
    case is drawn from the all-exponential anchor regime so the
    closed-form cross-check exercises regularly.

    Failing cases are shrunk and, when ``bundle_dir`` is given, written
    as JSON repro bundles.
    """
    fuzzer = fuzzer or DifferentialFuzzer()
    start = time.monotonic()
    cases: List[CaseResult] = []
    index = 0
    while True:
        if max_cases is not None and index >= max_cases:
            break
        if index >= min_cases and time.monotonic() - start >= budget_seconds:
            break
        rng = case_config_rng(seed, index)
        if anchor_every and index % anchor_every == anchor_every - 1:
            config = fuzzer.sampler.sample_anchor(rng)
        else:
            config = fuzzer.sampler.sample(rng)
        result = fuzzer.run_case(config, case_seed(seed, index), index=index)
        if result.failed and bundle_dir is not None:
            fuzzer.write_bundle(result, bundle_dir)
        cases.append(result)
        if progress is not None:
            progress(result)
        index += 1
    return FuzzReport(
        seed=seed, cases=cases, elapsed_seconds=time.monotonic() - start
    )
