"""The NHPP latent-defect RAID group simulator (the paper's core model).

One :class:`RaidGroupSimulator` run simulates a single RAID group's
chronology over its mission, per the Fig. 4 state diagram and the Fig. 5
sampling discipline:

* each drive slot alternates through its **operational** process
  (up for a TTOp draw, then restoring for a TTR draw, then a fresh drive)
  and its **latent-defect** process (clean for a TTLd draw, then exposed
  until a TTScrub draw elapses);
* a **double-disk failure** (DDF) is recorded when an operational failure
  strikes while (a) another drive is still restoring — two simultaneous
  operational failures — or (b) another drive carries an unscrubbed
  latent defect — the latent-then-op pathway;
* order matters: a latent defect *arriving during* a reconstruction is
  **not** a DDF (write errors during reconstruction "do not constitute a
  DDF"), and multiple coexisting latent defects are not a DDF;
* once a DDF occurs, no further DDF is counted until its restoration
  completes; a latent-defect drive involved in a DDF shares the restore
  completion of the concomitant operational failure ("the TTR for the
  failure is the same as the concomitant operational failure time");
* when a drive is replaced, its latent-defect state is that of a fresh
  drive (any pending corruption left with the old drive).

Drives are renewed at replacement: the next TTOp draw measures fresh-drive
age, which is what makes non-exponential distributions meaningful.

Tie-break semantics (shared with the batch engine)
--------------------------------------------------
Simultaneous events are reachable only through discrete-support delay
distributions (e.g. :class:`~repro.distributions.Deterministic` TTR or
TTScrub); for continuous distributions every boundary below is
measure-zero.  Both engines resolve an instant ``t`` by the same rule —
**recoveries before failures** — so their chronologies agree even on the
boundaries:

* events at equal times resolve in the fixed kind order restore
  completion -> DDF defect clear -> scrub repair -> latent arrival ->
  operational failure (:data:`~repro.simulation.events.KIND_PRIORITY`
  here; the kind-major column order of the fused ``argmin`` in
  :mod:`~repro.simulation.batch`);
* consequently the group is treated as *already recovered* at a boundary
  instant: a failure at exactly another drive's restore completion is not
  an overlap (``restore_until > t`` is strict), a failure at exactly
  ``ddf_until`` falls outside the DDF window (the gate is
  ``t >= ddf_until``), and a failure at exactly a scrub completion sees
  the defect as repaired.

The trace-replay oracle (:mod:`repro.validation.oracle`) enforces these
rules on recorded chronologies, and the differential fuzzer
(:mod:`repro.validation`) cross-checks both engines over configurations
that hit the boundaries deliberately.
"""

from __future__ import annotations

import bisect
import dataclasses
import enum
from typing import List, Optional

import numpy as np

from ..exceptions import SimulationError
from .config import RaidGroupConfig
from .events import EventKind, EventQueue
from .predicate import loss_predicate_for
from .rng import SampleBuffer
from .spares import SparePool
from .trace import TimelineRecorder

_INF = float("inf")


class DDFType(enum.Enum):
    """Which pathway produced a double-disk failure."""

    #: Two overlapping operational failures (states 4 -> 5 in Fig. 4).
    DOUBLE_OP = "double_op"
    #: Operational failure while another drive held an unscrubbed latent
    #: defect (states 2 -> 3 in Fig. 4).
    LATENT_THEN_OP = "latent_then_op"


@dataclasses.dataclass
class GroupChronology:
    """Everything observed during one group's mission.

    Attributes
    ----------
    ddf_times:
        DDF instants, ascending.
    ddf_types:
        Pathway of each DDF (parallel to ``ddf_times``).
    n_op_failures:
        Operational failures over the mission.
    n_latent_defects:
        Latent-defect arrivals.
    n_scrub_repairs:
        Defects repaired by scrubbing.
    n_restores:
        Completed drive reconstructions.
    mission_hours:
        Observation window.
    n_spare_waits:
        Failures that found the spare shelf empty (0 without a pool).
    spare_wait_hours:
        Total hours failures spent waiting for replenishment.
    n_checks:
        Periodic checker inspections (0 without a repair policy).
    n_policy_repairs:
        Checker inspections that triggered the repairer.
    """

    ddf_times: List[float]
    ddf_types: List[DDFType]
    n_op_failures: int
    n_latent_defects: int
    n_scrub_repairs: int
    n_restores: int
    mission_hours: float
    n_spare_waits: int = 0
    spare_wait_hours: float = 0.0
    n_checks: int = 0
    n_policy_repairs: int = 0

    @property
    def n_ddfs(self) -> int:
        """DDF count over the mission."""
        return len(self.ddf_times)

    def ddfs_before(self, hours: float) -> int:
        """DDFs at or before a given age."""
        return bisect.bisect_right(self.ddf_times, hours)


class _Slot:
    """Mutable per-drive-slot state."""

    __slots__ = (
        "op_up",
        "restore_until",
        "latent_exposed",
        "latent_generation",
        "install_time",
    )

    def __init__(self) -> None:
        self.op_up = True
        self.restore_until = 0.0
        self.latent_exposed = False
        self.latent_generation = 0
        self.install_time = 0.0


class RaidGroupSimulator:
    """Chronological simulator for one RAID group configuration.

    Parameters
    ----------
    config:
        Group shape, mission and the four transition distributions.

    Examples
    --------
    >>> import numpy as np
    >>> sim = RaidGroupSimulator(RaidGroupConfig.paper_base_case())
    >>> chrono = sim.run(np.random.default_rng(0))
    >>> chrono.mission_hours
    87600.0
    """

    def __init__(self, config: RaidGroupConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def run(
        self,
        rng: np.random.Generator,
        recorder: Optional[TimelineRecorder] = None,
    ) -> GroupChronology:
        """Simulate one mission; returns the group's chronology.

        Parameters
        ----------
        rng:
            Replication-specific random generator.
        recorder:
            Optional :class:`~repro.simulation.trace.TimelineRecorder`
            capturing per-slot state changes (Fig. 5-style diagrams).
        """
        cfg = self.config
        n = cfg.n_drives
        mission = cfg.mission_hours

        ttop = SampleBuffer(cfg.time_to_op, rng)
        ttr = SampleBuffer(cfg.time_to_restore, rng)
        ttld = SampleBuffer(cfg.time_to_latent, rng) if cfg.models_latent_defects else None
        ttscrub = SampleBuffer(cfg.time_to_scrub, rng) if cfg.scrubbing_enabled else None

        slots = [_Slot() for _ in range(n)]
        queue = EventQueue()
        ddf_until = -1.0
        pool = SparePool(cfg.spare_pool) if cfg.spare_pool is not None else None
        policy = cfg.repair_policy
        predicate = loss_predicate_for(cfg)

        def next_latent_arrival(slot_state: "_Slot", now: float) -> float:
            """Absolute time of the slot's next latent-defect arrival.

            Fresh renewal (the paper's Fig. 5 discipline) by default;
            age-conditional when the configuration anchors the latent
            process to drive age (workload-profile hazards).  Returns
            ``inf`` when no further arrival is possible.
            """
            if not cfg.latent_age_anchored:
                return now + ttld.draw()
            age = now - slot_state.install_time
            if age <= 0.0:
                return now + ttld.draw()
            if np.isinf(float(cfg.time_to_latent.cumulative_hazard(age))):
                return float("inf")  # past the distribution's support
            return now + float(cfg.time_to_latent.sample_conditional(rng, age))

        def shared_window_end(completion: float, failed_others: List[int]) -> float:
            """Latest involved restore completion: the instant the whole
            group returns to service after a data loss.  Pending
            (checker-deferred, ``inf``) restores take the shared
            completion rather than extending it."""
            finite = [
                slots[j].restore_until
                for j in failed_others
                if slots[j].restore_until < _INF
            ]
            if finite:
                return max(completion, max(finite))
            return completion

        def align_restores(window_end: float, failed_others: List[int]) -> None:
            """Shift every involved restore to the shared window end
            (scheduling completions for checker-deferred slots that had
            none)."""
            for j in failed_others:
                if slots[j].restore_until >= _INF:
                    queue.push(window_end, EventKind.OP_RESTORED, j)
                slots[j].restore_until = window_end

        ddf_times: List[float] = []
        ddf_types: List[DDFType] = []
        n_op_failures = 0
        n_latent_defects = 0
        n_scrub_repairs = 0
        n_restores = 0
        n_checks = 0
        n_policy_repairs = 0

        for i in range(n):
            queue.push(ttop.draw(), EventKind.OP_FAIL, i)
            if ttld is not None:
                queue.push(ttld.draw(), EventKind.LD_ARRIVE, i, generation=0)
        if policy is not None:
            queue.push(policy.check_interval_hours, EventKind.CHECK, 0)

        while queue:
            event = queue.pop()
            t = event.time
            if t > mission:
                break
            slot = slots[event.slot]
            kind = event.kind

            if kind is EventKind.OP_FAIL:
                if not slot.op_up:  # pragma: no cover - defensive; cannot occur
                    raise SimulationError("operational failure on a failed slot")
                n_op_failures += 1
                if policy is None:
                    # Reconstruction cannot start before a spare is in hand.
                    spare_ready = pool.take_spare(t) if pool is not None else t
                    completion = spare_ready + ttr.draw()
                else:
                    # Deferred repair: the missing share waits for the
                    # periodic checker (or an immediate data-loss repair).
                    completion = _INF

                if t >= ddf_until:
                    # Overlap means failing strictly inside another drive's
                    # restore window; a failure landing exactly at a restore
                    # completion is not simultaneous (the boundary is
                    # measure-zero for continuous TTRs, but scripted tests
                    # and deterministic delays hit it).  A checker-deferred
                    # failure (restore_until = inf) is always an overlap.
                    failed_others = [
                        j
                        for j in range(n)
                        if j != event.slot
                        and not slots[j].op_up
                        and slots[j].restore_until > t
                    ]
                    # The data-loss predicate generalizes the paper's N+1
                    # rule to any MDS tolerance (RAID N+m or k-of-n): loss
                    # outright when the dead-drive count exceeds tolerance,
                    # loss through the latent pathway when redundancy is
                    # exactly exhausted while a defect sits on a survivor.
                    if predicate.direct_loss(len(failed_others)):
                        # Simultaneous operational failures beyond the
                        # code's tolerance.  Per the Fig. 5 discipline the
                        # group returns to service when the *later*
                        # restoration completes; shift the earlier drives'
                        # restarts to coincide.  Data loss is repaired
                        # immediately even under a checker policy.
                        if policy is not None:
                            completion = t + ttr.draw()
                        window_end = shared_window_end(completion, failed_others)
                        align_restores(window_end, failed_others)
                        completion = window_end
                        ddf_until = window_end
                        ddf_times.append(t)
                        ddf_types.append(DDFType.DOUBLE_OP)
                        if recorder is not None:
                            recorder.record_ddf(t, DDFType.DOUBLE_OP.value)
                    elif predicate.exposure_boundary(len(failed_others)):
                        exposed_others = [
                            j
                            for j in range(n)
                            if j != event.slot and slots[j].latent_exposed
                        ]
                        if exposed_others:
                            # Latent defect existed before this operational
                            # failure and redundancy is now exhausted: the
                            # data needed for reconstruction is corrupt ->
                            # DDF.  The exposed drives' defects are repaired
                            # as part of the DDF restoration, sharing the
                            # concomitant operational failure's TTR (the
                            # latest restore completion when several drives
                            # are down, i.e. tolerance >= 2).
                            if policy is not None:
                                completion = t + ttr.draw()
                            window_end = completion
                            if failed_others:
                                window_end = shared_window_end(
                                    completion, failed_others
                                )
                                align_restores(window_end, failed_others)
                                completion = window_end
                            ddf_until = window_end
                            ddf_times.append(t)
                            ddf_types.append(DDFType.LATENT_THEN_OP)
                            for j in exposed_others:
                                slots[j].latent_generation += 1
                                queue.push(
                                    window_end,
                                    EventKind.LD_CLEARED,
                                    j,
                                    generation=slots[j].latent_generation,
                                )
                            if recorder is not None:
                                recorder.record_ddf(t, DDFType.LATENT_THEN_OP.value)

                slot.op_up = False
                slot.restore_until = completion
                # The failed drive leaves with its corruption; invalidate
                # its pending latent events.
                slot.latent_exposed = False
                slot.latent_generation += 1
                if completion < _INF:
                    queue.push(completion, EventKind.OP_RESTORED, event.slot)
                if recorder is not None:
                    recorder.record_op_fail(event.slot, t)

            elif kind is EventKind.OP_RESTORED:
                if slot.op_up:
                    continue  # superseded restoration
                if slot.restore_until > t:
                    # A DDF extended this restoration; fire again at the
                    # shifted completion.
                    queue.push(slot.restore_until, EventKind.OP_RESTORED, event.slot)
                    continue
                n_restores += 1
                slot.op_up = True
                slot.install_time = t  # a fresh drive starts at age zero
                queue.push(t + ttop.draw(), EventKind.OP_FAIL, event.slot)
                if ttld is not None:
                    # Fresh drive: fresh latent process.
                    slot.latent_generation += 1
                    queue.push(
                        t + ttld.draw(),
                        EventKind.LD_ARRIVE,
                        event.slot,
                        generation=slot.latent_generation,
                    )
                if recorder is not None:
                    recorder.record_restore(event.slot, t)

            elif kind is EventKind.LD_ARRIVE:
                if event.generation != slot.latent_generation or not slot.op_up:
                    continue  # stale: the drive was replaced meanwhile
                if slot.latent_exposed:  # pragma: no cover - defensive
                    raise SimulationError("latent defect arrived on an exposed slot")
                slot.latent_exposed = True
                n_latent_defects += 1
                if ttscrub is not None:
                    queue.push(
                        t + ttscrub.draw(),
                        EventKind.SCRUB_DONE,
                        event.slot,
                        generation=slot.latent_generation,
                    )
                # NB: arriving during another drive's reconstruction is NOT
                # a DDF (operational failure *before* latent defect).
                if recorder is not None:
                    recorder.record_latent(event.slot, t)

            elif kind is EventKind.SCRUB_DONE:
                if event.generation != slot.latent_generation or not slot.latent_exposed:
                    continue
                slot.latent_exposed = False
                n_scrub_repairs += 1
                if ttld is not None:
                    arrival = next_latent_arrival(slot, t)
                    if arrival < float("inf"):
                        queue.push(
                            arrival,
                            EventKind.LD_ARRIVE,
                            event.slot,
                            generation=slot.latent_generation,
                        )
                if recorder is not None:
                    recorder.record_scrub(event.slot, t)

            elif kind is EventKind.LD_CLEARED:
                if event.generation != slot.latent_generation:
                    continue
                slot.latent_exposed = False
                if ttld is not None and slot.op_up:
                    arrival = next_latent_arrival(slot, t)
                    if arrival < float("inf"):
                        queue.push(
                            arrival,
                            EventKind.LD_ARRIVE,
                            event.slot,
                            generation=slot.latent_generation,
                        )
                if recorder is not None:
                    recorder.record_scrub(event.slot, t)

            elif kind is EventKind.CHECK:
                assert policy is not None
                n_checks += 1
                # The checker sees the instant's recovered state (CHECK
                # outranks same-time failures); repairs trigger only when
                # surviving shares have dropped below the threshold AND a
                # share is actually waiting (a DDF's emergency repair may
                # already cover every missing share).
                pending = [
                    j
                    for j in range(n)
                    if not slots[j].op_up and slots[j].restore_until >= _INF
                ]
                surviving = sum(1 for st in slots if st.op_up)
                if surviving < policy.repair_threshold and pending:
                    # One repair pass regenerates every missing share: all
                    # pending failures share a single TTR draw, like the
                    # DDF window's shared restore completion.
                    n_policy_repairs += 1
                    repair_completion = t + ttr.draw()
                    for j in pending:
                        slots[j].restore_until = repair_completion
                        queue.push(repair_completion, EventKind.OP_RESTORED, j)
                queue.push(t + policy.check_interval_hours, EventKind.CHECK, 0)

            else:  # pragma: no cover - exhaustive over EventKind
                raise SimulationError(f"unhandled event kind {kind!r}")

        return GroupChronology(
            ddf_times=ddf_times,
            ddf_types=ddf_types,
            n_op_failures=n_op_failures,
            n_latent_defects=n_latent_defects,
            n_scrub_repairs=n_scrub_repairs,
            n_restores=n_restores,
            mission_hours=mission,
            n_spare_waits=pool.n_waits if pool is not None else 0,
            spare_wait_hours=pool.total_wait_hours if pool is not None else 0.0,
            n_checks=n_checks,
            n_policy_repairs=n_policy_repairs,
        )
