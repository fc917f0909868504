"""Exposure boundaries past the first latent cycle, on both engines.

The batch kernel steps only operational events and completes each
slot's latent cycles (defect arrival, then the scrub that repairs it) in
bulk up to the instant they matter, so a slot's exposure at a failure is
derived from its current cycle's times rather than kept as a flag.
These scenarios pin that derivation where it can go wrong: after
several completed cycles, exactly on a later cycle's arrival and scrub,
at the mission end, and at the clear that ends a latent DDF.

Deterministic delays put every drive on the same instants.  With
``time_to_latent = 100`` and ``time_to_scrub = 50`` a drive's cycles
from a fresh start arrive at 100, 250, 400, … and are scrubbed at 150,
300, 450, ….  Each chronology is hand-computed in the test body and
asserted against the event engine, the batch engine on one group, and a
multi-shard batch call; the event-engine trace is replayed through the
Fig. 4/5 invariant oracle.
"""

import numpy as np
import pytest

from repro.distributions import Deterministic
from repro.simulation.batch import simulate_groups_batch
from repro.simulation.config import RaidGroupConfig, RepairPolicyConfig
from repro.simulation.raid_simulator import DDFType, RaidGroupSimulator

from .test_ddf_boundaries import (
    assert_chronologies_equal,
    assert_oracle_clean,
    run_both_engines,
)

LATENT = DDFType.LATENT_THEN_OP
DOUBLE = DDFType.DOUBLE_OP


def mirrored(op_hours: float, mission_hours: float) -> RaidGroupConfig:
    """Two mirrored drives (N+1 with N=1) on the 100 h / 50 h cycles."""
    return RaidGroupConfig(
        n_data=1,
        n_parity=1,
        mission_hours=mission_hours,
        time_to_op=Deterministic(op_hours),
        time_to_restore=Deterministic(10.0),
        time_to_latent=Deterministic(100.0),
        time_to_scrub=Deterministic(50.0),
    )


def assert_golden(config, ddf_times, ddf_types, **counts) -> None:
    """The event engine's chronology, then both engines agree with it."""
    chrono = RaidGroupSimulator(config).run(np.random.default_rng(0))
    assert chrono.ddf_times == ddf_times
    assert chrono.ddf_types == ddf_types
    for name, value in counts.items():
        assert getattr(chrono, name) == value, name
    event, batch = run_both_engines(config)
    assert_chronologies_equal(event, batch)
    assert (batch.n_checks, batch.n_policy_repairs) == (
        event.n_checks,
        event.n_policy_repairs,
    )
    # Eight groups over three shards in one call: the bulk advance and
    # its draws split at shard bounds must not change any group.
    fleet = simulate_groups_batch(
        config, [3, 1, 4], [np.random.default_rng(i) for i in range(3)]
    )
    for group in fleet:
        assert_chronologies_equal(event, group)
    assert_oracle_clean(config)


def test_failure_on_a_third_arrival_is_a_latent_ddf():
    """Both drives fail at t=400, the arrival of their third cycle.

    Two cycles each completed first (scrubs at 150 and 300).  The third
    defect lands before the failure at the same instant, so the first
    processed failure sees the other drive exposed: a latent-then-op DDF
    at 400, and the second failure falls inside its window.  Each
    drive's third defect counts (the failing drive's own at its failure,
    the other's at the DDF): 2 + 2 + 2 defects, 4 scrubs.  Both drives
    restore at 410, and their fresh cycles arrive at 510, past the 420 h
    mission.
    """
    assert_golden(
        mirrored(op_hours=400.0, mission_hours=420.0),
        [400.0],
        [LATENT],
        n_op_failures=2,
        n_latent_defects=6,
        n_scrub_repairs=4,
        n_restores=2,
    )


def test_failure_on_a_third_scrub_is_no_latent_ddf():
    """Both drives fail at t=450, the scrub of their third cycle.

    The scrubs resolve first, so three cycles completed on each drive
    and nothing is exposed: the first failure is no DDF, and the second
    is the plain double-op overlap.  6 defects, 6 scrubs; both drives
    restore at 460, and the fourth arrivals (550) lie past the mission.
    """
    assert_golden(
        mirrored(op_hours=450.0, mission_hours=470.0),
        [450.0],
        [DOUBLE],
        n_op_failures=2,
        n_latent_defects=6,
        n_scrub_repairs=6,
        n_restores=2,
    )


@pytest.mark.parametrize(
    "mission_hours, defects, scrubs",
    [
        (420.0, 3, 2),  # between the third arrival (400) and its scrub (450)
        (400.0, 3, 2),  # exactly on the third arrival: it counts
        (399.0, 2, 2),  # just before it
        (450.0, 3, 3),  # exactly on the third scrub: it counts too
    ],
)
def test_mission_end_counts_a_pending_defect(mission_hours, defects, scrubs):
    """No drive fails within the mission, so every cycle is completed at
    the mission end: an arrival by then counts one defect, a scrub by
    then one scrub, per drive."""
    assert_golden(
        mirrored(op_hours=10_000.0, mission_hours=mission_hours),
        [],
        [],
        n_op_failures=0,
        n_latent_defects=2 * defects,
        n_scrub_repairs=2 * scrubs,
        n_restores=0,
    )


def test_exposed_drive_starts_its_next_cycle_at_the_clear():
    """A latent DDF whose exposed drives survive it and restart at the clear.

    A 2-of-3 share group (tolerance 1) with ``time_to_op = 102``,
    ``time_to_restore = 4``, cycles of ``time_to_latent = 10`` and
    ``time_to_scrub = 5`` (arrivals at 10, 25, 40, … from a fresh
    start, each scrubbed 5 h later), and a checker every 132 h that
    repairs whenever a share is missing.  The checker staggers the
    drives' clocks:

    * t=102 — all three drives fail, each in its seventh cycle (arrival
      100, scrub 105) after six completed ones.  Drive 0's failure sees
      drives 1 and 2 exposed: a latent DDF, repaired at once (drive 0
      back at 106), and drives 1 and 2 fail inside its window, so they
      wait for the checker;
    * t=132 — the check repairs drives 1 and 2, back at 136;
    * t=208 — drive 0 fails again (106 + 102).  Since 106 it completed
      six cycles, drives 1 and 2 four since 136, and all three are in a
      cycle that arrived at 206: a second latent DDF, repaired by 212,
      and drives 1 and 2 do not fail until 238;
    * t=212 — drive 0 is restored and drives 1 and 2 are cleared.  All
      three start a cycle there: arrival 222, scrub 227;
    * the mission ends at 225 with those defects pending (no scrub).
      Had the clears restarted nothing, drives 1 and 2 would hold no
      defect; had they restarted at the DDF instant (208), the cycles
      would have been scrubbed at 223.

    Defects: 18 + 3 by t=102, 6 + 4 + 4 + 3 by t=208, 3 pending at the
    end (41); scrubs 18 + 14 (32).
    """
    config = RaidGroupConfig.k_of_n(
        2,
        3,
        time_to_op=Deterministic(102.0),
        time_to_restore=Deterministic(4.0),
        repair_policy=RepairPolicyConfig(check_interval_hours=132.0, repair_threshold=3),
        mission_hours=225.0,
        time_to_latent=Deterministic(10.0),
        time_to_scrub=Deterministic(5.0),
    )
    assert_golden(
        config,
        [102.0, 208.0],
        [LATENT, LATENT],
        n_op_failures=4,
        n_latent_defects=41,
        n_scrub_repairs=32,
        n_restores=4,
        n_checks=1,
        n_policy_repairs=1,
    )
