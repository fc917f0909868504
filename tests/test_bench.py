"""Regression-bar logic of ``benchmarks/bench.py``.

The harness itself is exercised end-to-end by CI's perf-smoke job; these
tests pin the *comparison semantics* — anchor-relative ratios (machine
tolerance), the slowdown floor, and ddf-count determinism — without
running any timed simulation.
"""

import copy
import importlib.util
from pathlib import Path

BENCH_PATH = Path(__file__).parent.parent / "benchmarks" / "bench.py"

spec = importlib.util.spec_from_file_location("repro_bench", BENCH_PATH)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def make_doc(anchor_gps=1000.0, batch_gps=15000.0, stream_gps=14000.0):
    return {
        "format": "repro-bench/1",
        "date": "2026-01-01",
        "machine": {"cpus": 4, "platform": "test", "python": "3", "numpy": "2"},
        "config": "Table 2 base case (paper_base_case), seed 0",
        "results": [
            {
                "case": "event_1000",
                "n_groups": 1000,
                "engine": "event",
                "engine_backend": "python",
                "wall_s": 1.0,
                "groups_per_s": anchor_gps,
                "ddf_count": 142,
            },
            {
                "case": "batch_5000",
                "n_groups": 5000,
                "engine": "batch",
                "engine_backend": "numpy",
                "wall_s": 0.33,
                "groups_per_s": batch_gps,
                "ddf_count": 645,
            },
            {
                "case": "stream_5000",
                "n_groups": 5000,
                "engine": "streaming+batch/j4",
                "engine_backend": "numpy",
                "wall_s": 0.36,
                "groups_per_s": stream_gps,
                "ddf_count": 645,
            },
        ],
    }


class TestCompare:
    def test_identical_runs_pass(self):
        doc = make_doc()
        assert bench.compare(doc, copy.deepcopy(doc)) == []

    def test_uniform_machine_rescale_passes(self):
        # A machine half as fast scales every case together; the
        # anchor-relative ratios are unchanged, so no failure.
        slow_machine = make_doc(anchor_gps=500.0, batch_gps=7500.0, stream_gps=7000.0)
        assert bench.compare(slow_machine, make_doc()) == []

    def test_batch_regression_fails(self):
        regressed = make_doc(batch_gps=7500.0)  # 2x slower, anchor unchanged
        failures = bench.compare(regressed, make_doc())
        assert len(failures) == 1
        assert failures[0].startswith("batch_5000:")

    def test_slowdown_within_tolerance_passes(self):
        slightly_slow = make_doc(batch_gps=15000.0 * 0.75)  # -25% < 30% bar
        assert bench.compare(slightly_slow, make_doc()) == []

    def test_tolerance_is_configurable(self):
        slightly_slow = make_doc(batch_gps=15000.0 * 0.75)
        failures = bench.compare(slightly_slow, make_doc(), max_slowdown=0.10)
        assert any(f.startswith("batch_5000:") for f in failures)

    def test_speedup_never_fails(self):
        faster = make_doc(batch_gps=60000.0, stream_gps=50000.0)
        assert bench.compare(faster, make_doc()) == []

    def test_ddf_count_drift_fails_even_when_fast(self):
        drifted = make_doc()
        drifted["results"][1]["ddf_count"] = 646
        failures = bench.compare(drifted, make_doc())
        assert len(failures) == 1
        assert "determinism" in failures[0]

    def test_missing_anchor_is_an_error(self):
        doc = make_doc()
        headless = copy.deepcopy(doc)
        headless["results"] = doc["results"][1:]
        failures = bench.compare(headless, doc)
        assert failures and "anchor" in failures[0]

    def test_unknown_cases_are_ignored(self):
        # A baseline predating a new case must not fail the new run.
        extended = make_doc()
        extended["results"].append(
            {
                "case": "batch_20000",
                "n_groups": 20000,
                "engine": "batch",
                "wall_s": 1.0,
                "groups_per_s": 20000.0,
                "ddf_count": 2580,
            }
        )
        assert bench.compare(extended, make_doc()) == []


class TestDocumentSchema:
    def test_bench_document_shape(self):
        doc = bench.bench_document(make_doc()["results"])
        assert doc["format"] == "repro-bench/1"
        assert set(doc["machine"]) == {"cpus", "platform", "python", "numpy"}
        for row in doc["results"]:
            assert set(row) == {
                "case",
                "n_groups",
                "engine",
                "engine_backend",
                "wall_s",
                "groups_per_s",
                "ddf_count",
            }
