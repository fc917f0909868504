"""Differential config-fuzzing validation subsystem.

Three independent oracles guard the two simulation engines:

* :mod:`repro.validation.oracle` — a trace-replay oracle enforcing the
  Fig. 4/5 DDF rules as machine-checkable invariants;
* :mod:`repro.validation.stats` — the cross-engine statistical harness
  (KS / chi-square / z comparisons of coupled-seed fleets);
* :mod:`repro.validation.anchors` — closed-form Markov anchors for
  all-exponential configurations.

A fourth check, solver-vs-batch, holds the hybrid analytical front-end
(:mod:`repro.solver`) to the simulated truth on every analytically
eligible case — its own error bound plus a statistical allowance is the
tolerance.

:mod:`repro.validation.generator` draws seeded random configurations
spanning the supported feature space and
:mod:`repro.validation.differential` wires everything into a
time-budgeted campaign with greedy shrinking and JSON repro bundles
(``repro fuzz`` on the command line).
"""

from .anchors import (
    AnchorResult,
    anchor_ineligibility,
    check_anchor,
    expected_ddfs_per_group,
)
from .differential import (
    BUNDLE_FORMAT,
    CaseResult,
    DifferentialFuzzer,
    FuzzReport,
    SolverComparison,
    case_config_rng,
    case_seed,
    compare_solver_answer,
    load_bundle,
    run_batch_engine,
    run_event_engine,
    run_event_engine_traced,
    run_fuzz_campaign,
)
from .fingerprint import (
    FINGERPRINT_VERSION,
    canonical_config_dict,
    canonical_config_json,
    fingerprint,
)
from .generator import (
    ConfigSampler,
    config_from_dict,
    config_to_dict,
    distribution_from_dict,
    distribution_to_dict,
)
from .oracle import InvariantViolation, check_chronology, check_trace
from .stats import FleetComparison, TestOutcome, compare_fleets

__all__ = [
    "AnchorResult",
    "anchor_ineligibility",
    "check_anchor",
    "expected_ddfs_per_group",
    "BUNDLE_FORMAT",
    "CaseResult",
    "DifferentialFuzzer",
    "FuzzReport",
    "SolverComparison",
    "case_config_rng",
    "case_seed",
    "compare_solver_answer",
    "load_bundle",
    "run_batch_engine",
    "run_event_engine",
    "run_event_engine_traced",
    "run_fuzz_campaign",
    "FINGERPRINT_VERSION",
    "canonical_config_dict",
    "canonical_config_json",
    "fingerprint",
    "ConfigSampler",
    "config_from_dict",
    "config_to_dict",
    "distribution_from_dict",
    "distribution_to_dict",
    "InvariantViolation",
    "check_chronology",
    "check_trace",
    "FleetComparison",
    "TestOutcome",
    "compare_fleets",
]
