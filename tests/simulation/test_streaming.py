"""Streaming accumulators: merge laws, exactness, and engine equivalence.

The streaming layer's whole contract is that feeding a fleet shard by
shard is indistinguishable from materialising it: the exact moments must
match two-pass NumPy statistics, merges must give the same bytes for any
partition, order and tree shape, and a fixed-size ``run_streaming`` must
reproduce the materialized ``run`` exactly on both engines.
"""

import gc
import json
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError, SimulationError
from repro.simulation import (
    FleetAccumulator,
    Precision,
    RaidGroupConfig,
    StreamingMoments,
)
from repro.simulation.monte_carlo import MonteCarloRunner
from repro.simulation.raid_simulator import DDFType, GroupChronology
from repro.simulation.streaming import normal_two_sided_z

#: Hypothesis sample streams: modest floats so two-pass comparisons are
#: dominated by algorithmic differences, not catastrophic cancellation.
samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=0, max_size=60
)


def make_chronology(
    n_ddfs: int, mission_hours: float = 8_760.0, first_at: float = 100.0
) -> GroupChronology:
    """A synthetic chronology with ``n_ddfs`` double-op DDFs."""
    times = [first_at + 10.0 * i for i in range(n_ddfs)]
    return GroupChronology(
        ddf_times=times,
        ddf_types=[DDFType.DOUBLE_OP] * n_ddfs,
        n_op_failures=2 * n_ddfs + 1,
        n_latent_defects=n_ddfs,
        n_scrub_repairs=0,
        n_restores=1,
        mission_hours=mission_hours,
    )


class TestStreamingMoments:
    @given(samples)
    @settings(max_examples=200, deadline=None)
    def test_matches_two_pass_numpy(self, values):
        moments = StreamingMoments()
        moments.add_many(values)
        assert moments.count == len(values)
        if values:
            assert moments.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-9)
        if len(values) >= 2:
            assert moments.variance() == pytest.approx(
                np.var(values, ddof=1), rel=1e-8, abs=1e-8
            )

    @given(samples, samples, samples)
    @settings(max_examples=200, deadline=None)
    def test_merge_associative(self, a, b, c):
        def fold(*chunks):
            out = StreamingMoments()
            for chunk in chunks:
                part = StreamingMoments()
                part.add_many(chunk)
                out.merge(part)
            return out

        left = fold(a, b)
        left.merge(fold(c))
        right = fold(a)
        right.merge(fold(b, c))
        assert left.to_dict() == right.to_dict()
        assert left.mean == right.mean
        assert left.variance() == right.variance()

    @given(samples, samples)
    @settings(max_examples=200, deadline=None)
    def test_merge_equals_streaming_all_at_once(self, a, b):
        merged = StreamingMoments()
        merged.add_many(a)
        other = StreamingMoments()
        other.add_many(b)
        merged.merge(other)
        straight = StreamingMoments()
        straight.add_many(a + b)
        assert merged.to_dict() == straight.to_dict()
        assert merged.mean == straight.mean
        assert merged.variance() == straight.variance()

    @given(samples)
    @settings(max_examples=200, deadline=None)
    def test_mean_and_variance_are_the_exact_ratios_rounded_once(self, values):
        moments = StreamingMoments()
        moments.add_many(values)
        exact = [Fraction(v) for v in values]
        if values:
            assert moments.mean == float(sum(exact) / len(exact))
        if len(values) >= 2:
            mean = sum(exact) / len(exact)
            spread = sum((x - mean) ** 2 for x in exact)
            assert moments.variance() == float(spread / (len(exact) - 1))

    def test_integer_counts_stay_integers(self):
        moments = StreamingMoments()
        moments.add_many([0, 2.0, 1, 0, 3])
        assert moments.to_dict() == {"count": 5, "sum": [6, 1], "sum_sq": [14, 1]}
        assert moments.mean == 1.2

    def test_non_finite_value_rejected(self):
        with pytest.raises(ParameterError):
            StreamingMoments().add(float("nan"))

    def test_roundtrip(self):
        moments = StreamingMoments()
        moments.add_many([1.0, 4.0, 9.0])
        clone = StreamingMoments.from_dict(moments.to_dict())
        assert clone.to_dict() == moments.to_dict()

    def test_empty_has_infinite_interval(self):
        lo, hi = StreamingMoments().confidence_interval()
        assert lo == -math.inf and hi == math.inf


class TestNormalZ:
    def test_reference_values(self):
        assert normal_two_sided_z(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert normal_two_sided_z(0.99) == pytest.approx(2.575829, abs=1e-5)

    def test_invalid_confidence(self):
        with pytest.raises(ParameterError):
            normal_two_sided_z(1.0)
        with pytest.raises(ParameterError):
            normal_two_sided_z(0.0)


class TestFleetAccumulator:
    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=40), st.data())
    @settings(max_examples=100, deadline=None)
    def test_tallies_exact_under_any_partition(self, counts, data):
        chronologies = [make_chronology(k) for k in counts]
        whole = FleetAccumulator(mission_hours=8_760.0)
        whole.add_shard(chronologies)

        cut = data.draw(st.integers(min_value=0, max_value=len(chronologies)))
        left = FleetAccumulator(mission_hours=8_760.0)
        left.add_shard(chronologies[:cut])
        right = FleetAccumulator(mission_hours=8_760.0)
        right.add_shard(chronologies[cut:])
        left.merge(right)

        # Integer tallies are exactly associative, whatever the cut.
        assert left.n_groups == whole.n_groups == len(counts)
        assert left.total_ddfs == whole.total_ddfs == sum(counts)
        assert left.total_first_year_ddfs == whole.total_first_year_ddfs
        assert left.pathway == whole.pathway
        assert left.n_op_failures == whole.n_op_failures
        assert left.n_latent_defects == whole.n_latent_defects
        # And so is everything else: the whole state, byte for byte.
        assert json.dumps(left.to_dict(), sort_keys=True) == json.dumps(
            whole.to_dict(), sort_keys=True
        )

    def test_summary_matches_exact_statistics(self):
        counts = [0, 2, 1, 0, 0, 3]
        acc = FleetAccumulator(mission_hours=87_600.0)
        acc.add_shard([make_chronology(k, mission_hours=87_600.0) for k in counts])
        summary = acc.summary()
        assert summary["n_groups"] == len(counts)
        assert summary["total_ddfs"] == sum(counts)
        assert summary["ddfs_per_1000_mission"] == pytest.approx(
            sum(counts) * 1000.0 / len(counts)
        )
        assert acc.ddf_moments.mean == pytest.approx(np.mean(counts))
        assert acc.ddf_moments.variance() == pytest.approx(np.var(counts, ddof=1))

    def test_mission_mismatch_rejected(self):
        a = FleetAccumulator(mission_hours=8_760.0)
        b = FleetAccumulator(mission_hours=87_600.0)

        with pytest.raises(SimulationError):
            a.merge(b)

    @pytest.mark.parametrize(
        "other",
        [
            dict(mission_hours=87_600.0, time_grid=[100.0, 200.0]),
            dict(mission_hours=8_760.0),
            dict(mission_hours=8_760.0, time_grid=[100.0, 300.0]),
        ],
        ids=["mission", "grid-vs-none", "grid-values"],
    )
    def test_failed_merge_leaves_the_target_unchanged(self, other):
        """Regression: merge added every tally before it compared the
        time grids, so a refused merge left its target half-merged
        (n_groups 1 + 2 == 3)."""
        target = FleetAccumulator(mission_hours=8_760.0, time_grid=[100.0, 200.0])
        target.add_chronology(make_chronology(1))
        before = json.dumps(target.to_dict(), sort_keys=True)
        source = FleetAccumulator(**other)
        source.add_shard([make_chronology(2), make_chronology(0)])
        with pytest.raises(SimulationError):
            target.merge(source)
        assert json.dumps(target.to_dict(), sort_keys=True) == before
        assert target.n_groups == 1

    def test_relative_ci_width_undefined_when_empty_or_zero(self):
        acc = FleetAccumulator(mission_hours=8_760.0)
        assert acc.relative_ci_width() == math.inf
        acc.add_shard([make_chronology(0), make_chronology(0)])
        assert acc.relative_ci_width() == math.inf  # mean 0: undefined

    def test_ddf_exactly_on_a_boundary_counts(self):
        # A DDF at the first-year horizon is a first-year DDF, and one at
        # a grid age is on the curve at that age (both "at or before").
        def at(*times):
            chrono = make_chronology(len(times), mission_hours=87_600.0)
            chrono.ddf_times = list(times)
            return chrono

        acc = FleetAccumulator(
            mission_hours=87_600.0, time_grid=[100.0, 8_760.0, 9_000.0]
        )
        acc.add_shard([at(100.0, 8_760.0), at(), at(8_760.5), at(9_000.0)])
        assert acc.total_first_year_ddfs == 2
        assert acc.first_year_moments.count == 4
        assert acc.grid_counts.tolist() == [1, 2, 4]

    def test_roundtrip_bitwise(self):
        acc = FleetAccumulator(mission_hours=8_760.0, time_grid=[1000.0, 8000.0])
        acc.add_shard([make_chronology(k) for k in (0, 1, 3, 0, 2)])
        clone = FleetAccumulator.from_dict(acc.to_dict())
        assert json.dumps(clone.to_dict(), sort_keys=True) == json.dumps(
            acc.to_dict(), sort_keys=True
        )

    def test_summary_does_not_grow_with_the_fleet(self):
        """A summary holds tallies and exact sums only, so sixteen times
        the groups add a few digits to it, not a per-group sample."""

        def summary_bytes(n_groups):
            runner = MonteCarloRunner(
                RaidGroupConfig.paper_base_case(), n_groups=n_groups, seed=7, engine="batch"
            )
            return len(json.dumps(runner.run_streaming().accumulator.to_dict()))

        assert abs(summary_bytes(16_384) - summary_bytes(1_024)) < 64


#: Mission, first-year horizon and curve ages of the exactness property:
#: DDF times are drawn on these boundaries as well as between them.
EXACT_MISSION = 87_600.0
EXACT_GRID = [0.0, 100.0, 8_760.0, 20_000.0, EXACT_MISSION]
BOUNDARY_TIMES = [0.0, 100.0, 8_760.0, 8_760.0 - 2**-40, 8_760.0 + 2**-40, 20_000.0]


@st.composite
def chronologies(draw):
    """A group's mission: DDFs of both pathways (some on the first-year
    and grid boundaries, some sharing a time), and nonzero spare waits."""
    times = sorted(
        draw(
            st.lists(
                st.one_of(
                    st.sampled_from(BOUNDARY_TIMES),
                    st.floats(min_value=0.0, max_value=EXACT_MISSION),
                ),
                max_size=4,
            )
        )
    )
    waits = draw(st.integers(min_value=0, max_value=3))
    return GroupChronology(
        ddf_times=times,
        ddf_types=draw(
            st.lists(
                st.sampled_from(list(DDFType)), min_size=len(times), max_size=len(times)
            )
        ),
        n_op_failures=len(times) + draw(st.integers(min_value=0, max_value=5)),
        n_latent_defects=draw(st.integers(min_value=0, max_value=5)),
        n_scrub_repairs=draw(st.integers(min_value=0, max_value=5)),
        n_restores=draw(st.integers(min_value=0, max_value=5)),
        mission_hours=EXACT_MISSION,
        n_spare_waits=waits,
        spare_wait_hours=(
            draw(st.floats(min_value=0.0, max_value=5_000.0)) if waits else 0.0
        ),
    )


def dumps(accumulator) -> str:
    return json.dumps(accumulator.to_dict(), sort_keys=True)


class TestExactMerge:
    """Merging is exact: any partition of a fleet's groups into shards,
    merged in any order and tree shape, gives the bytes of folding the
    groups in one by one."""

    @given(st.lists(chronologies(), max_size=30), st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_partition_order_and_tree_shape(self, groups, data):
        def accumulator(part):
            out = FleetAccumulator(EXACT_MISSION, time_grid=EXACT_GRID)
            out.add_shard(part)
            return out

        whole = dumps(accumulator(groups))
        cut = st.integers(min_value=0, max_value=len(groups))
        cuts = sorted(data.draw(st.lists(cut, max_size=6)))
        bounds = [0, *cuts, len(groups)]
        shards = [accumulator(groups[a:b]) for a, b in zip(bounds, bounds[1:])]
        shards = data.draw(st.permutations(shards))
        while len(shards) > 1:
            # Any two of what is left: every order and tree shape.
            i, j = data.draw(
                st.sampled_from(
                    [(i, j) for i in range(len(shards)) for j in range(len(shards)) if i != j]
                )
            )
            shards[i].merge(shards[j])
            del shards[j]
        assert dumps(shards[0]) == whole

    def test_spare_waits_are_summed_exactly(self):
        acc = FleetAccumulator(EXACT_MISSION)
        for hours in (0.1, 0.2, 0.3):
            chrono = make_chronology(0, mission_hours=EXACT_MISSION)
            chrono.n_spare_waits, chrono.spare_wait_hours = 1, hours
            acc.add_chronology(chrono)
        exact = Fraction(0.1) + Fraction(0.2) + Fraction(0.3)
        assert acc.to_dict()["spare_wait_hours"] == [exact.numerator, exact.denominator]
        assert acc.spare_wait_hours == float(exact)
        assert FleetAccumulator.from_dict(acc.to_dict()).to_dict() == acc.to_dict()


class TestBaseCaseFleet:
    """The Table 2 base case, 8,192 groups, seed 7, batch engine."""

    @pytest.fixture(scope="class")
    def fleet(self):
        runner = MonteCarloRunner(
            RaidGroupConfig.paper_base_case(), n_groups=8_192, seed=7, engine="batch"
        )
        return runner.run_streaming()

    def test_mean_ddf_count_is_correctly_rounded(self, fleet):
        moments = fleet.accumulator.ddf_moments
        assert fleet.accumulator.total_ddfs == 1_106
        # 1106/8192 is a float, so the exact mean is that float; per-group
        # Welford updates would leave it at 0.13500976562500072.
        assert moments.mean == 1_106 / 8_192 == 0.135009765625


class TestPrecision:
    def test_normalize_float(self):
        precision = Precision.normalize(0.1, default_max_groups=5_000)
        assert precision.rel_ci_width == 0.1
        assert precision.confidence == 0.95
        assert precision.max_groups == 5_000

    def test_normalize_keeps_explicit_cap(self):
        precision = Precision.normalize(
            Precision(rel_ci_width=0.2, max_groups=123), default_max_groups=5_000
        )
        assert precision.max_groups == 123

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            Precision(rel_ci_width=0.0)
        with pytest.raises(ParameterError):
            Precision(rel_ci_width=0.1, confidence=1.0)

    def test_satisfied_by(self):
        precision = Precision(rel_ci_width=10.0, min_groups=4)
        acc = FleetAccumulator(mission_hours=8_760.0)
        acc.add_shard([make_chronology(1) for _ in range(3)])
        assert not precision.satisfied_by(acc)  # below min_groups
        acc.add_chronology(make_chronology(1))
        assert precision.satisfied_by(acc)  # zero variance: width 0


def make_event(**overrides):
    """A ProgressEvent with plausible defaults, overridable per test."""
    from repro.simulation import ProgressEvent

    values = dict(
        shards_completed=1,
        groups_completed=512,
        total_ddfs=3,
        ddfs_per_1000=5.86,
        ci_lo=1.2,
        ci_hi=10.5,
        rel_ci_width=float("inf"),
        elapsed_seconds=1.5,
        groups_per_second=341.3,
        converged=False,
        done=False,
    )
    values.update(overrides)
    return ProgressEvent(**values)


def render_terminal(written: str) -> str:
    """Final visible line of a ``\\r``-rewritten stream (no newlines)."""
    screen = ""
    cursor = 0
    for position, chunk in enumerate(written.split("\n")[-1].split("\r")):
        if position:  # every split boundary was a carriage return
            cursor = 0
        screen = screen[:cursor] + chunk + screen[cursor + len(chunk):]
        cursor += len(chunk)
    return screen


class TestStderrProgressReporter:
    def test_shorter_line_leaves_no_stale_characters(self):
        import io

        from repro.simulation import StderrProgressReporter

        stream = io.StringIO()
        reporter = StderrProgressReporter(stream=stream)
        # Long first line: infinite CI renders the wide "(CI pending)" tail.
        reporter(make_event(rel_ci_width=float("inf"), groups_completed=99_999_999))
        long_line = render_terminal(stream.getvalue())
        # Shorter second line: finite CI, small counts.
        reporter(make_event(rel_ci_width=0.25, groups_completed=5, shards_completed=2))
        final = render_terminal(stream.getvalue())
        assert len(final) >= len(long_line)  # padded over the old content
        assert final.rstrip() == final.rstrip(" ")
        tail = final[len(final.rstrip()):]
        assert set(tail) <= {" "}  # anything past the new text is blanks
        assert "(CI pending)" not in final

    def test_done_event_bypasses_throttle_and_terminates_line(self):
        import io

        from repro.simulation import StderrProgressReporter

        stream = io.StringIO()
        reporter = StderrProgressReporter(stream=stream, min_interval_seconds=3600.0)
        reporter(make_event())  # first write always lands
        reporter(make_event(shards_completed=2))  # throttled away
        reporter(make_event(shards_completed=3, done=True, converged=True))
        written = stream.getvalue()
        assert written.endswith("\n")
        final = render_terminal(written[: written.rindex("\n")])
        # The done event rewrote the whole line (shard 3, not the stale 1)
        # and appended the status on the same line.
        assert "[shard    3]" in final
        assert "converged" in final

    def test_queue_depth_annotated_when_parallel(self):
        import io

        from repro.simulation import StderrProgressReporter

        stream = io.StringIO()
        StderrProgressReporter(stream=stream)(make_event(queue_depth=3))
        assert "[3 uncommitted]" in stream.getvalue()


class TestStreamingMatchesMaterialized:
    """Acceptance: fixed-size streaming == materialized run, bitwise."""

    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_equivalence(self, engine):
        config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        runner = MonteCarloRunner(
            config, n_groups=700, seed=42, engine=engine
        )
        materialized = runner.run()
        # Default shard size: the batch engine's random streams depend on
        # the shard partition, and the materialized path uses the default.
        streaming = runner.run_streaming()
        assert streaming.stop_reason == "fixed"
        assert streaming.groups == 700
        bridged = materialized.to_accumulator()
        assert json.dumps(
            streaming.accumulator.to_dict(), sort_keys=True
        ) == json.dumps(bridged.to_dict(), sort_keys=True)
        assert streaming.summary() == materialized.summary()
        assert materialized.streaming.stop_reason == "fixed"
        assert materialized.streaming.groups == 700

    def test_event_engine_partition_independent(self):
        config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        runner = MonteCarloRunner(config, n_groups=300, seed=7, engine="event")
        coarse = runner.run_streaming(shard_size=300)
        fine = runner.run_streaming(shard_size=64)
        assert json.dumps(
            coarse.accumulator.to_dict(), sort_keys=True
        ) == json.dumps(fine.accumulator.to_dict(), sort_keys=True)

    def test_run_with_until_attaches_streaming(self):
        config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        runner = MonteCarloRunner(config, n_groups=600, seed=3, engine="batch")
        result = runner.run(
            until=Precision(rel_ci_width=0.8, min_groups=256)
        )
        assert result.streaming is not None
        assert result.n_groups == result.streaming.groups
        assert result.streaming.stop_reason in ("converged", "max_groups")
        # The chronologies the result holds are the ones accumulated.
        assert result.total_ddfs == result.streaming.accumulator.total_ddfs

    @pytest.mark.parametrize(
        "until",
        [None, Precision(rel_ci_width=0.8, min_groups=256)],
        ids=["fixed", "precision"],
    )
    def test_run_result_is_freed_by_reference_counting(self, until):
        """A result and its streaming statistics form no reference cycle,
        so a fleet's chronologies are freed as soon as the result is
        dropped, not at the next cyclic collection."""
        config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        runner = MonteCarloRunner(config, n_groups=600, seed=3, engine="batch")
        gc.disable()
        try:
            result = runner.run(until=until)
            assert result.streaming is not None
            chronology = weakref.ref(result.chronologies[0])
            del result
            assert chronology() is None
        finally:
            gc.enable()

    def test_streaming_result_is_freed_by_reference_counting(self):
        """Regression: ``run_streaming(keep_chronologies=True)`` linked its
        result back to itself, a cycle that kept every chronology alive
        after the streaming result was dropped, until the next cyclic
        collection."""
        config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        runner = MonteCarloRunner(config, n_groups=128, seed=3, engine="batch")
        gc.disable()
        try:
            streaming = runner.run_streaming(keep_chronologies=True)
            chronology = weakref.ref(streaming.result.chronologies[0])
            del streaming
            assert chronology() is None
        finally:
            gc.enable()
