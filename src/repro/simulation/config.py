"""Simulation configuration: the four transition distributions + geometry.

A :class:`RaidGroupConfig` is the complete input of the paper's model: the
group shape (N+1), the mission, and the distributions ``d_Op``,
``d_Restore``, ``d_Ld``, ``d_Scrub`` of Fig. 4.  Omitting ``d_Ld`` models
an idealised drive with no data corruption (the Fig. 6 studies); omitting
``d_Scrub`` while keeping ``d_Ld`` models a system that never scrubs (the
Fig. 7 "no scrub" curve, the paper's "recipe for disaster").
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from typing import Optional

from .._validation import require_int, require_positive
from ..distributions import Weibull
from ..distributions.base import Distribution
from ..exceptions import ParameterError
from .spares import SparePoolConfig

#: The paper's mission: 87,600 hours = 10 years.
DEFAULT_MISSION_HOURS = 87_600.0

#: Hard ceiling on drive slots per group.  The general m-check erasure
#: codec (:class:`repro.raid.mcheck.MCheckCodec`) needs ``n_data +
#: n_parity`` distinct GF(2^8) points with one reserved, so a group a
#: codec cannot actually encode is rejected at configuration time rather
#: than simulated as if redundancy were free.
MAX_GROUP_DRIVES = 255

#: Highest fault tolerance the deterministic validation artifacts
#: exercise: the DDF boundary goldens
#: (``tests/simulation/test_ddf_boundaries.py``) pin hand-computed
#: chronologies up to this ``m``, and the fuzzer's general configuration
#: stream (:class:`repro.validation.generator.ConfigSampler`) samples
#: ``n_parity`` from ``1..EXERCISED_TOLERANCE_MAX``.  Both sides import
#: this constant so the sampled space and the golden-validated space can
#: never silently desync.
EXERCISED_TOLERANCE_MAX = 4


@dataclasses.dataclass(frozen=True)
class RepairPolicyConfig:
    """Tahoe-style checker/repairer policy for k-of-n share groups.

    The paper's model repairs every failure immediately (a failure's TTR
    clock starts at the failure); distributed k-of-n systems instead run
    a **checker** every ``check_interval_hours`` and trigger the
    **repairer** only when the check finds fewer than
    ``repair_threshold`` surviving shares — the ``R`` of Tahoe-LAFS's
    ``reliability.py`` model (SNIPPETS.md).  A triggered repair
    regenerates *all* missing shares in one pass: the pending failures
    share a single TTR draw, mirroring the shared-restore-completion
    rule of the DDF window.

    A data-loss event itself still repairs immediately (the operator
    notices data loss without a checker); between checks, ordinary
    failures simply accumulate as missing shares.
    """

    check_interval_hours: float
    repair_threshold: int

    def __post_init__(self) -> None:
        require_positive("check_interval_hours", self.check_interval_hours)
        require_int("repair_threshold", self.repair_threshold, minimum=1)


@dataclasses.dataclass(frozen=True)
class RaidGroupConfig:
    """Everything the simulator needs about one RAID group design.

    Attributes
    ----------
    n_data:
        N — data drives; the group has N+1 drives total.
    time_to_op:
        d_Op, per-drive time to operational failure (fresh-drive age).
    time_to_restore:
        d_Restore, drive replacement + reconstruction duration.
    time_to_latent:
        d_Ld, per-drive time to latent-defect arrival; ``None`` disables
        latent defects.
    time_to_scrub:
        d_Scrub, time from defect arrival until a scrub repairs it;
        ``None`` (with latent defects enabled) means defects persist until
        the drive itself is replaced.
    mission_hours:
        Simulated horizon per group.
    n_parity:
        Redundant drives per group.  1 (default) is the paper's (N+1)
        single-parity group; 2 models the double-parity RAID 6 the paper's
        conclusion recommends — data loss then requires a *third*
        coincident problem (see
        :class:`~repro.simulation.raid_simulator.RaidGroupSimulator` for
        the exact rule).
    latent_age_anchored:
        How the latent process renews after a scrub.  ``False`` (default,
        the paper's Fig. 5 discipline) draws each TTLd fresh — exact for
        the paper's constant-rate TTLd, where both conventions coincide.
        ``True`` samples the next arrival *conditional on current drive
        age*, which is required for age-anchored TTLd models such as the
        workload-profile hazards of :mod:`repro.hdd.workload` (otherwise
        every scrub would reset the drive into its first workload phase).
    spare_pool:
        Optional finite spare shelf
        (:class:`~repro.simulation.spares.SparePoolConfig`).  ``None``
        (the paper's implicit assumption) means a spare is always in
        hand; with a pool, a failure finding the shelf empty waits for
        the next replenishment before its TTR clock starts.
    repair_policy:
        Optional :class:`RepairPolicyConfig`.  ``None`` (the paper's
        model) repairs every failure immediately; with a policy, ordinary
        failures wait for the periodic checker to notice the group has
        dropped below the repair threshold (data-loss events still
        repair immediately).  Mutually exclusive with ``spare_pool`` —
        the shelf models *supply* delay on immediate repair, the policy
        models *detection* delay.
    """

    n_data: int
    time_to_op: Distribution
    time_to_restore: Distribution
    time_to_latent: Optional[Distribution] = None
    time_to_scrub: Optional[Distribution] = None
    mission_hours: float = DEFAULT_MISSION_HOURS
    n_parity: int = 1
    latent_age_anchored: bool = False
    spare_pool: Optional["SparePoolConfig"] = None
    repair_policy: Optional[RepairPolicyConfig] = None

    def __post_init__(self) -> None:
        require_int("n_data", self.n_data, minimum=1)
        require_int("n_parity", self.n_parity, minimum=1)
        require_positive("mission_hours", self.mission_hours)
        if self.n_data + self.n_parity > MAX_GROUP_DRIVES:
            raise ParameterError(
                f"n_data + n_parity = {self.n_data + self.n_parity} exceeds "
                f"{MAX_GROUP_DRIVES}, the largest group a GF(2^8) erasure "
                f"code can lay out"
            )
        if self.time_to_scrub is not None and self.time_to_latent is None:
            raise ParameterError(
                "time_to_scrub given without time_to_latent: nothing to scrub"
            )
        if self.repair_policy is not None:
            if self.spare_pool is not None:
                raise ParameterError(
                    "repair_policy and spare_pool are mutually exclusive: "
                    "deferred detection and deferred supply of the same "
                    "repair are not composable"
                )
            threshold = self.repair_policy.repair_threshold
            if not self.n_data <= threshold <= self.n_drives:
                raise ParameterError(
                    f"repair_threshold must lie in [n_data, n_drives] = "
                    f"[{self.n_data}, {self.n_drives}] so the repairer can "
                    f"trigger while the data is still recoverable; got "
                    f"{threshold}"
                )

    @functools.cached_property
    def repr_fingerprint(self) -> str:
        """SHA-256 of the dataclass ``repr``: the resume guard of
        :func:`~repro.simulation.checkpoint.config_fingerprint`.

        The ``repr`` fully determines the four transition distributions,
        geometry and mission, so two configs with the same fingerprint
        simulate identically.  It is hashed once per object: the config
        is frozen, and its distributions are treated as immutable too
        (:class:`~repro.distributions.Weibull` precomputes ``1/shape``
        when it is built), so the digest cannot go stale.
        ``dataclasses.replace`` makes a fresh object with a fresh cache.
        """
        return hashlib.sha256(repr(self).encode("utf-8")).hexdigest()

    @property
    def n_drives(self) -> int:
        """Total drive slots (N + n_parity; the paper's N + 1)."""
        return self.n_data + self.n_parity

    @property
    def fault_tolerance(self) -> int:
        """Simultaneous whole-drive failures survivable."""
        return self.n_parity

    @property
    def models_latent_defects(self) -> bool:
        """Whether the latent-defect process is active."""
        return self.time_to_latent is not None

    @property
    def scrubbing_enabled(self) -> bool:
        """Whether latent defects get repaired by scrubbing."""
        return self.time_to_scrub is not None

    @property
    def batch_engine_unsupported_reason(self) -> Optional[str]:
        """Why the vectorized batch engine cannot run this config (``None`` if it can).

        The batch engine (:mod:`repro.simulation.batch`) covers the
        paper's model space; the two extensions it does not vectorize
        fall back to the event engine under ``engine="auto"``.
        """
        if self.latent_age_anchored:
            return (
                "latent_age_anchored=True draws age-conditional latent "
                "arrivals per slot, which the batch engine does not vectorize"
            )
        if self.spare_pool is not None:
            return (
                "spare pools serialise failures through shelf state, which "
                "the batch engine does not vectorize"
            )
        return None

    @property
    def supports_batch_engine(self) -> bool:
        """Whether the vectorized batch engine can simulate this config."""
        return self.batch_engine_unsupported_reason is None

    # ------------------------------------------------------------------
    @classmethod
    def paper_base_case(
        cls,
        scrub_characteristic_hours: Optional[float] = 168.0,
        mission_hours: float = DEFAULT_MISSION_HOURS,
    ) -> "RaidGroupConfig":
        """The Table 2 base case: 8 drives, all-Weibull transitions.

        Parameters
        ----------
        scrub_characteristic_hours:
            d_Scrub characteristic life (the paper sweeps 12/48/168/336 in
            Fig. 9); ``None`` disables scrubbing (the Fig. 7 worst case).
        mission_hours:
            Defaults to the paper's 10-year mission.

        Notes
        -----
        Table 2 parameters: TTOp (0, 461386, 1.12); TTR (6, 12, 2);
        TTLd (0, 9259, 1); TTScrub (6, eta, 3).
        """
        scrub: Optional[Distribution]
        if scrub_characteristic_hours is None:
            scrub = None
        else:
            scrub = Weibull(
                shape=3.0,
                scale=require_positive(
                    "scrub_characteristic_hours", scrub_characteristic_hours
                ),
                location=6.0,
            )
        return cls(
            n_data=7,
            time_to_op=Weibull(shape=1.12, scale=461_386.0),
            time_to_restore=Weibull(shape=2.0, scale=12.0, location=6.0),
            time_to_latent=Weibull(shape=1.0, scale=9_259.0),
            time_to_scrub=scrub,
            mission_hours=mission_hours,
        )

    @classmethod
    def k_of_n(
        cls,
        k: int,
        n: int,
        time_to_op: Distribution,
        time_to_restore: Distribution,
        repair_policy: Optional[RepairPolicyConfig] = None,
        mission_hours: float = DEFAULT_MISSION_HOURS,
        **kwargs,
    ) -> "RaidGroupConfig":
        """A k-of-n erasure-coded share group (Tahoe's default is 3-of-10).

        ``k`` shares suffice to recover the data, so the group tolerates
        ``n - k`` simultaneous share losses — ``n_data = k``,
        ``n_parity = n - k`` in RAID terms.
        """
        require_int("k", k, minimum=1)
        require_int("n", n, minimum=2)
        if n <= k:
            raise ParameterError(f"k-of-n needs n > k, got k={k}, n={n}")
        return cls(
            n_data=k,
            n_parity=n - k,
            time_to_op=time_to_op,
            time_to_restore=time_to_restore,
            repair_policy=repair_policy,
            mission_hours=mission_hours,
            **kwargs,
        )

    def without_latent_defects(self) -> "RaidGroupConfig":
        """A copy with the latent-defect process disabled (Fig. 6 variants)."""
        return dataclasses.replace(self, time_to_latent=None, time_to_scrub=None)

    def as_raid6(self) -> "RaidGroupConfig":
        """A copy with a second parity drive (the paper's recommended fix).

        Same data drives; one extra slot; data loss now requires three
        coincident problems instead of two.
        """
        return dataclasses.replace(self, n_parity=2)

    def with_scrub(self, scrub: Optional[Distribution]) -> "RaidGroupConfig":
        """A copy with a different (or no) scrub distribution."""
        return dataclasses.replace(self, time_to_scrub=scrub)

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = [f"(N+1)={self.n_drives}", f"mission={self.mission_hours:g}h"]
        parts.append(f"TTOp={self.time_to_op!r}")
        parts.append(f"TTR={self.time_to_restore!r}")
        if self.time_to_latent is not None:
            parts.append(f"TTLd={self.time_to_latent!r}")
            parts.append(
                f"TTScrub={self.time_to_scrub!r}" if self.time_to_scrub else "no scrub"
            )
        else:
            parts.append("no latent defects")
        if self.repair_policy is not None:
            parts.append(
                f"check every {self.repair_policy.check_interval_hours:g}h, "
                f"repair below {self.repair_policy.repair_threshold} shares"
            )
        return ", ".join(parts)
