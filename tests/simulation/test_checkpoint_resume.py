"""Checkpoint/resume: an interrupted run must finish bit-identically.

The contract under test: interrupt a streaming run after any shard,
resume from the JSON checkpoint, and the final accumulator is
byte-identical (as canonical JSON) to the uninterrupted run at the same
seed — on both engines.  Checkpoints also refuse to resume under a
different config, seed, engine, or shard partition.
"""

import dataclasses
import functools
import json
import os
import time

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
from repro.simulation.executor import ShardTask, simulate_shard, summarize_shards
from repro.simulation.monte_carlo import MonteCarloRunner, _seed_state
from repro.simulation.rng import make_seed_sequence
from repro.simulation.streaming import FleetAccumulator

N_GROUPS = 400
SHARD = 128


def canonical(streaming) -> str:
    return json.dumps(streaming.accumulator.to_dict(), sort_keys=True)


def fail_after_checkpoint(path, failing_index, config, root_state, engine, task):
    """A shard worker whose shard ``failing_index`` raises once ``path``
    exists (within 60 s); every other shard is simulated as usual."""
    if task.index == failing_index:
        deadline = time.monotonic() + 60.0
        while not os.path.exists(path) and time.monotonic() < deadline:
            time.sleep(0.01)
        raise SimulationError("the second run failed")
    return simulate_shard(config, root_state, engine, task)


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
        class Interrupt(RuntimeError):
            pass

        def crashy_observer(event):
            raise Interrupt("simulated ctrl-C")

        # Event runs are one shard each.  A batch run of 512-group shards
        # over 6 * 512 + 100 groups is two kernel calls, of 4 and 3 shards.
        for engine, shard, n_groups, first_run in (
            ("event", SHARD, N_GROUPS, 1),
            ("batch", 512, 6 * 512 + 100, 4),
        ):
            path = str(tmp_path / f"{engine}.ckpt")
            runner = make_runner(engine, n_groups=n_groups)
            reference = canonical(runner.run_streaming(shard_size=shard))
            with pytest.raises(Interrupt):
                runner.run_streaming(
                    shard_size=shard, checkpoint_path=path, observers=(crashy_observer,)
                )
            # The checkpoint was written once the first run was committed,
            # before its first event reached the observer, so the whole run
            # survived the crash.
            checkpoint = load_checkpoint(path)
            assert checkpoint.shards_completed == first_run, engine
            assert checkpoint.groups_completed == first_run * shard, engine

            resumed = runner.run_streaming(shard_size=shard, resume_from=path)
            assert canonical(resumed) == reference, engine

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_crash_between_runs_resumes_byte_for_byte(self, tmp_path, n_jobs):
        """A worker failure in the second run leaves the first run's
        checkpoint, and the resume equals the uninterrupted run."""
        path = str(tmp_path / "run.ckpt")
        runner = make_runner("batch", n_groups=8 * 512, n_jobs=n_jobs)
        reference = canonical(make_runner("batch", n_groups=8 * 512).run_streaming())
        # Both runs are 4 shards of 512 groups, serially and in the pool.
        # The fifth shard fails only once the first run's checkpoint
        # exists, so a pool run fails between the two runs too.
        with pytest.raises(SimulationError, match="second run failed"):
            runner.run_streaming(
                checkpoint_path=path,
                max_shard_retries=0,
                _shard_worker=functools.partial(fail_after_checkpoint, path, 4),
            )
        checkpoint = load_checkpoint(path)
        assert checkpoint.shard_sizes == [[512, 4]]
        resumed = runner.run_streaming(checkpoint_path=path, resume_from=path)
        assert resumed.stop_reason == "fixed"
        assert canonical(resumed) == reference
        assert load_checkpoint(path).shard_sizes == [[512, 8]]

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
        """Regressions: a checkpoint whose cursor counted one shard more
        than its accumulator held resumed silently, and the run reported
        2,048 groups as ``fixed`` while it had simulated 1,536; and one
        whose shard count alone was edited, from 2 to 3, resumed ``fixed``
        from the fourth seed instead of the third.  The cursor is now the
        list of shard sizes run, so both counts derive from one record,
        and a third shard means 512 more groups than the accumulator
        holds."""
        path = str(tmp_path / "run.ckpt")
        runner = MonteCarloRunner(
            RaidGroupConfig.paper_base_case(mission_hours=8_760.0),
            n_groups=2_048,
            seed=3,
            engine="batch",
        )
        reference = canonical(runner.run_streaming(shard_size=512))
        runner.run_streaming(shard_size=512, checkpoint_path=path, stop_after_shards=2)
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["shard_sizes"] == [[512, 2]]
        payload["shard_sizes"] = [[512, 3]]
        edited = str(tmp_path / "edited.ckpt")
        with open(edited, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(SimulationError, match="accumulator holds 1024"):
            load_checkpoint(edited)
        with pytest.raises(SimulationError) as refused:
            runner.run_streaming(shard_size=512, resume_from=edited)
        message = str(refused.value)
        assert "1536 groups in 3 shards but its accumulator holds 1024" in message
        assert "delete it and resume from an intact checkpoint" in message
        # The unedited file still resumes to the uninterrupted bytes.
        resumed = runner.run_streaming(shard_size=512, resume_from=path)
        assert canonical(resumed) == reference

    @pytest.mark.parametrize(
        "shard_sizes", [[[513, 1]], [[0, 2]], [[512, 0], [256, 4]], [[-256, -4]]]
    )
    def test_shard_outside_the_shard_size_is_refused(self, tmp_path, shard_sizes):
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
        payload["shard_sizes"] = shard_sizes
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(SimulationError, match="not shards of 1 to 512 groups"):
            load_checkpoint(path)

    def test_extend_after_a_short_shard_resumes_byte_for_byte(self, tmp_path):
        """Two 100-group extends at a 256-group shard size leave two short
        shards in a row, which ``ceil(groups / shard_size)`` miscounts:
        the cursor records them, round-trips them, and the next extend
        seeds its shards from indices 2 and 3."""
        config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)

        def runner(n_groups):
            return MonteCarloRunner(config, n_groups=n_groups, seed=5, engine="batch")

        path = str(tmp_path / "run.ckpt")
        runner(100).run_streaming(shard_size=256, checkpoint_path=path)
        extended = runner(200).run_streaming(
            shard_size=256, checkpoint_path=path, resume_from=path
        )
        assert extended.shard_sizes == [[100, 2]]
        checkpoint = load_checkpoint(path)
        assert checkpoint.shard_sizes == [[100, 2]]
        assert (checkpoint.shards_completed, checkpoint.groups_completed) == (2, 200)
        copy = str(tmp_path / "copy.ckpt")
        save_checkpoint(copy, checkpoint)
        with open(path) as handle, open(copy) as copied:
            assert json.load(copied) == json.load(handle)

        resumed = runner(700).run_streaming(shard_size=256, resume_from=copy)
        assert resumed.shard_sizes == [[100, 2], [256, 1], [244, 1]]
        tasks = [
            ShardTask(index=0, group_offset=0, n_groups=100),
            ShardTask(index=1, group_offset=100, n_groups=100),
            ShardTask(index=2, group_offset=200, n_groups=256),
            ShardTask(index=3, group_offset=456, n_groups=244),
        ]
        expected = FleetAccumulator(config.mission_hours)
        root_state = _seed_state(make_seed_sequence(5))
        for summary, _ in summarize_shards(config, root_state, "batch", tasks):
            expected.merge(summary)
        assert canonical(resumed) == json.dumps(expected.to_dict(), sort_keys=True)


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
        # Cached per object: a replaced copy of a fingerprinted config
        # gets its own.
        replaced = dataclasses.replace(base, mission_hours=87_600.0)
        assert config_fingerprint(replaced) == config_fingerprint(other)

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
