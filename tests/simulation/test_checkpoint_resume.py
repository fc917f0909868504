"""Checkpoint/resume: an interrupted run must finish bit-identically.

The contract under test: interrupt a streaming run after any shard,
resume from the JSON checkpoint, and the final accumulator is
byte-identical (as canonical JSON) to the uninterrupted run at the same
seed — on both engines.  Checkpoints also refuse to resume under a
different config, seed, engine, or shard partition.
"""

import dataclasses
import json
import os

import pytest

from repro.exceptions import ParameterError, SimulationError
from repro.simulation import (
    Precision,
    RaidGroupConfig,
    RunCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.simulation.checkpoint import config_fingerprint
from repro.simulation.monte_carlo import MonteCarloRunner

N_GROUPS = 400
SHARD = 128


def canonical(streaming) -> str:
    return json.dumps(streaming.accumulator.to_dict(), sort_keys=True)


def make_runner(engine: str, **overrides) -> MonteCarloRunner:
    config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
    kwargs = dict(n_groups=N_GROUPS, seed=11, engine=engine)
    kwargs.update(overrides)
    return MonteCarloRunner(config, **kwargs)


class TestInterruptResume:
    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_resume_is_byte_identical(self, engine, tmp_path):
        path = str(tmp_path / "run.ckpt")
        runner = make_runner(engine)
        uninterrupted = runner.run_streaming(shard_size=SHARD)

        interrupted = runner.run_streaming(
            shard_size=SHARD, checkpoint_path=path, stop_after_shards=1
        )
        assert interrupted.stop_reason == "interrupted"
        assert interrupted.groups == SHARD

        resumed = runner.run_streaming(
            shard_size=SHARD, checkpoint_path=path, resume_from=path
        )
        assert resumed.stop_reason == "fixed"
        assert resumed.groups == N_GROUPS
        assert canonical(resumed) == canonical(uninterrupted)

    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_resume_after_every_shard_boundary(self, engine, tmp_path):
        runner = make_runner(engine)
        reference = canonical(runner.run_streaming(shard_size=SHARD))
        n_shards = -(-N_GROUPS // SHARD)
        for stop_after in range(1, n_shards):
            path = str(tmp_path / f"run{stop_after}.ckpt")
            runner.run_streaming(
                shard_size=SHARD, checkpoint_path=path, stop_after_shards=stop_after
            )
            resumed = runner.run_streaming(shard_size=SHARD, resume_from=path)
            assert canonical(resumed) == reference, f"diverged at shard {stop_after}"

    def test_observer_exception_leaves_valid_checkpoint(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        runner = make_runner("event")
        reference = canonical(runner.run_streaming(shard_size=SHARD))

        class Interrupt(RuntimeError):
            pass

        def crashy_observer(event):
            raise Interrupt("simulated ctrl-C")

        with pytest.raises(Interrupt):
            runner.run_streaming(
                shard_size=SHARD, checkpoint_path=path, observers=(crashy_observer,)
            )
        # The checkpoint was written before the observer ran, so the
        # first shard survived the crash.
        checkpoint = load_checkpoint(path)
        assert checkpoint.shards_completed == 1
        assert checkpoint.groups_completed == SHARD

        resumed = runner.run_streaming(shard_size=SHARD, resume_from=path)
        assert canonical(resumed) == reference

    def test_resume_skips_completed_work(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        runner = make_runner("event")
        runner.run_streaming(shard_size=SHARD, checkpoint_path=path)
        done = load_checkpoint(path)
        assert done.groups_completed == N_GROUPS

        calls = []

        def counting_worker(config, root_state, engine, task):  # pragma: no cover - must not run
            calls.append((task.index, task.n_groups))
            return []

        resumed = runner.run_streaming(
            shard_size=SHARD, resume_from=path, _shard_worker=counting_worker
        )
        assert calls == []
        assert resumed.groups == N_GROUPS

    def test_resume_of_converged_run_simulates_nothing(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        until = Precision(rel_ci_width=0.5, min_groups=64)
        runner = MonteCarloRunner(
            RaidGroupConfig.paper_base_case(), n_groups=100_000, seed=3, engine="batch"
        )
        converged = runner.run_streaming(
            until=until, shard_size=64, checkpoint_path=path
        )
        assert converged.stop_reason == "converged"
        assert (converged.shards_run, converged.groups) == (9, 576)

        calls = []

        def counting_worker(config, root_state, engine, task):  # pragma: no cover - must not run
            calls.append((task.index, task.n_groups))
            return []

        resumed = runner.run_streaming(
            until=until, shard_size=64, resume_from=path, _shard_worker=counting_worker
        )
        assert calls == []
        assert resumed.converged
        assert resumed.stop_reason == "converged"
        assert (resumed.shards_run, resumed.groups) == (9, 576)
        assert resumed.accumulator.to_dict() == load_checkpoint(path).accumulator_state


class TestValidation:
    def test_requires_integer_seed(self, tmp_path):
        runner = make_runner("event", seed=None)
        with pytest.raises(ParameterError):
            runner.run_streaming(checkpoint_path=str(tmp_path / "x.ckpt"))

    def test_wrong_seed_rejected(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        make_runner("event").run_streaming(
            shard_size=SHARD, checkpoint_path=path, stop_after_shards=1
        )
        with pytest.raises(SimulationError, match="seed"):
            make_runner("event", seed=12).run_streaming(
                shard_size=SHARD, resume_from=path
            )

    def test_wrong_engine_rejected(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        make_runner("event").run_streaming(
            shard_size=SHARD, checkpoint_path=path, stop_after_shards=1
        )
        with pytest.raises(SimulationError, match="engine"):
            make_runner("batch").run_streaming(shard_size=SHARD, resume_from=path)

    def test_wrong_shard_size_rejected(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        make_runner("event").run_streaming(
            shard_size=SHARD, checkpoint_path=path, stop_after_shards=1
        )
        with pytest.raises(SimulationError, match="shard"):
            make_runner("event").run_streaming(shard_size=64, resume_from=path)

    def test_wrong_config_rejected(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        make_runner("event").run_streaming(
            shard_size=SHARD, checkpoint_path=path, stop_after_shards=1
        )
        other = RaidGroupConfig.paper_base_case(
            scrub_characteristic_hours=None, mission_hours=8_760.0
        )
        runner = MonteCarloRunner(other, n_groups=N_GROUPS, seed=11, engine="event")
        with pytest.raises(SimulationError, match="config"):
            runner.run_streaming(shard_size=SHARD, resume_from=path)

    def test_unknown_format_rejected(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        make_runner("event").run_streaming(
            shard_size=SHARD, checkpoint_path=path, stop_after_shards=1
        )
        payload = json.loads(open(path).read())
        payload["format"] = "repro-checkpoint/99"
        path2 = tmp_path / "bad.ckpt"
        path2.write_text(json.dumps(payload))
        with pytest.raises(SimulationError):
            load_checkpoint(str(path2))

    def test_cursor_past_the_accumulator_rejected(self, tmp_path):
        """Regression: a checkpoint whose cursor counted one shard more than
        its accumulator held resumed silently, and the run reported 2,048
        groups as ``fixed`` while it had simulated 1,536."""
        path = str(tmp_path / "run.ckpt")
        runner = MonteCarloRunner(
            RaidGroupConfig.paper_base_case(mission_hours=8_760.0),
            n_groups=2_048,
            seed=3,
            engine="batch",
        )
        runner.run_streaming(shard_size=512, checkpoint_path=path, stop_after_shards=2)
        with open(path) as handle:
            payload = json.load(handle)
        assert (payload["shards_completed"], payload["groups_completed"]) == (2, 1_024)
        payload["shards_completed"], payload["groups_completed"] = 3, 1_536
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(SimulationError, match="accumulator holds 1024"):
            load_checkpoint(path)
        with pytest.raises(SimulationError, match="accumulator holds 1024"):
            runner.run_streaming(shard_size=512, resume_from=path)


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        make_runner("event").run_streaming(
            shard_size=SHARD, checkpoint_path=path, stop_after_shards=2
        )
        checkpoint = load_checkpoint(path)
        assert checkpoint.shards_completed == 2
        assert checkpoint.groups_completed == 2 * SHARD
        again = str(tmp_path / "copy.ckpt")
        save_checkpoint(again, checkpoint)
        assert load_checkpoint(again).to_dict() == checkpoint.to_dict()

    def test_fingerprint_tracks_config(self):
        base = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        same = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        other = RaidGroupConfig.paper_base_case(mission_hours=87_600.0)
        assert config_fingerprint(base) == config_fingerprint(same)
        assert config_fingerprint(base) != config_fingerprint(other)

    def test_accumulator_state_is_live(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        make_runner("event").run_streaming(
            shard_size=SHARD, checkpoint_path=path, stop_after_shards=1
        )
        checkpoint = load_checkpoint(path)
        acc = checkpoint.accumulator()
        assert acc.n_groups == SHARD
        assert acc.mission_hours == 8_760.0

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        make_runner("event").run_streaming(
            shard_size=SHARD, checkpoint_path=path, stop_after_shards=2
        )
        leftovers = [name for name in os.listdir(tmp_path) if name != "run.ckpt"]
        assert leftovers == []

    def test_empty_checkpoint_reports_actionably(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_text("")
        with pytest.raises(SimulationError, match="empty"):
            load_checkpoint(str(path))

    def test_truncated_checkpoint_reports_actionably(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        make_runner("event").run_streaming(
            shard_size=SHARD, checkpoint_path=path, stop_after_shards=1
        )
        payload = open(path).read()
        truncated = tmp_path / "truncated.ckpt"
        truncated.write_text(payload[: len(payload) // 2])
        with pytest.raises(SimulationError, match="truncated or corrupt"):
            load_checkpoint(str(truncated))

    def test_interrupted_writer_preserves_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        # A crash before the payload is durably flushed (simulated by a
        # failing fsync) must leave the previous checkpoint byte-intact
        # and clean up the unique temp file.
        path = str(tmp_path / "run.ckpt")
        make_runner("event").run_streaming(
            shard_size=SHARD, checkpoint_path=path, stop_after_shards=1
        )
        before = open(path).read()
        checkpoint = load_checkpoint(path)

        import repro.simulation.checkpoint as checkpoint_module

        def failing_fsync(fd):
            raise OSError("simulated crash before durability")

        monkeypatch.setattr(checkpoint_module.os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            save_checkpoint(path, checkpoint)
        monkeypatch.undo()
        assert open(path).read() == before
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []
