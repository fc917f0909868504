"""TCP remote-worker backend: framing, determinism, chaos, drain.

The distributed executor's contract mirrors the local pipelined one:
distributing shards over remote TCP workers never changes numbers, only
wall-clock.  A ``run_streaming`` fleet spread over loopback workers must
be bit-identical to the serial run — for fixed-size and convergence-
stopped fleets, through checkpoint/resume, and across worker loss (a
shard lost to a dropped connection is reseeded from its index and
retried, charged against ``max_retries`` exactly like a local pool
break).
"""

import functools
import hashlib
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro.simulation.executor as executor_module
import repro.simulation.remote as remote_module
from repro.exceptions import ParameterError, SimulationError
from repro.simulation import Precision, RaidGroupConfig
from repro.simulation.executor import (
    ShardTask,
    _run_shard_task,
    shard_plan,
    simulate_shard,
    simulate_shards,
    split_run,
)
from repro.simulation.monte_carlo import MonteCarloRunner, _seed_state
from repro.simulation.remote import (
    PROTOCOL_VERSION,
    DistributedShardExecutor,
    FrameReader,
    RemoteWorkerHub,
    chronology_from_dict,
    chronology_to_dict,
    parse_endpoint,
    run_worker,
    send_frame,
)

from .goldens import chronology_fingerprint, golden_batch_cases
from .test_parallel_streaming import crash_once_worker

SHARD = 32
N_GROUPS = 160


def canonical(streaming) -> str:
    return json.dumps(streaming.accumulator.to_dict(), sort_keys=True)


def make_runner(engine: str, **overrides) -> MonteCarloRunner:
    config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
    kwargs = dict(n_groups=N_GROUPS, seed=11, engine=engine)
    kwargs.update(overrides)
    return MonteCarloRunner(config, **kwargs)


@pytest.fixture
def hub():
    hub = RemoteWorkerHub(heartbeat_timeout=5.0)
    try:
        yield hub
    finally:
        hub.close()


def start_workers(hub, n, **kwargs):
    """``n`` in-thread workers dialed into ``hub``; returns their stop event."""
    stop = threading.Event()
    kwargs.setdefault("heartbeat_interval", 0.2)
    for _ in range(n):
        threading.Thread(
            target=run_worker, args=(hub.address,), kwargs={"stop": stop, **kwargs},
            daemon=True,
        ).start()
    assert hub.wait_for_workers(n, timeout=15.0)
    return stop


class TestWireFormat:
    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:8790") == ("127.0.0.1", 8790)
        with pytest.raises(ValueError):
            parse_endpoint("no-port")
        with pytest.raises(ValueError):
            parse_endpoint("host:not-a-number")

    def test_chronology_codec_roundtrips_bit_identically(self):
        """JSON floats round-trip exactly, so a shard's chronologies
        survive the wire byte-identical — the property the whole backend
        rests on.  The golden configs cover DDFs of both pathways, RAID 6,
        k-of-n repair policies and DDF-free groups."""
        ddfs = 0
        for name, (config, n_groups, seed) in golden_batch_cases().items():
            root_state = _seed_state(np.random.SeedSequence(seed))
            task = ShardTask(index=0, group_offset=0, n_groups=n_groups)
            originals = simulate_shard(config, root_state, "batch", task)
            wire = json.loads(json.dumps(chronology_to_dict(originals)))
            decoded = chronology_from_dict(wire)
            assert decoded == originals, name
            assert repr(decoded) == repr(originals), name
            assert chronology_fingerprint(decoded) == chronology_fingerprint(originals)
            ddfs += sum(len(c.ddf_times) for c in originals)
        assert ddfs > 0

    def test_frame_reader_handles_partial_and_coalesced_frames(self):
        left, right = socket.socketpair()
        try:
            lock = threading.Lock()
            reader = FrameReader(right)
            # Two frames in one send, the second split mid-payload.
            payload_a = json.dumps({"t": "a"}).encode()
            payload_b = json.dumps({"t": "b", "x": 1}).encode()
            blob = (
                struct.pack("!I", len(payload_a))
                + payload_a
                + struct.pack("!I", len(payload_b))
                + payload_b
            )
            left.sendall(blob[:-3])
            assert reader.read(timeout=2.0) == {"t": "a"}
            assert reader.read(timeout=0.05) is None  # frame b incomplete
            left.sendall(blob[-3:])
            assert reader.read(timeout=2.0) == {"t": "b", "x": 1}
            send_frame(left, lock, {"t": "c"})
            assert reader.read(timeout=2.0) == {"t": "c"}
            left.close()
            with pytest.raises(ConnectionError):
                reader.read(timeout=2.0)
        finally:
            right.close()

    def test_oversized_frame_is_rejected(self):
        left, right = socket.socketpair()
        try:
            reader = FrameReader(right)
            left.sendall(struct.pack("!I", 2**31))
            with pytest.raises(ConnectionError, match="exceeds cap"):
                reader.read(timeout=2.0)
        finally:
            left.close()
            right.close()


class TestDistributedDeterminism:
    """Acceptance: >=2 loopback TCP workers are bit-identical to serial."""

    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_fixed_size_bit_identical(self, engine, hub, tmp_path):
        serial_ckpt = str(tmp_path / "serial.ckpt")
        dist_ckpt = str(tmp_path / "dist.ckpt")
        serial = make_runner(engine).run_streaming(
            shard_size=SHARD, checkpoint_path=serial_ckpt
        )
        stop = start_workers(hub, 2)
        events = []
        distributed = make_runner(engine, n_jobs=1).run_streaming(
            shard_size=SHARD,
            checkpoint_path=dist_ckpt,
            workers=hub,
            observers=(events.append,),
        )
        stop.set()
        assert canonical(distributed) == canonical(serial)
        assert distributed.groups == serial.groups == N_GROUPS
        assert distributed.executor_stats["mode"] == "distributed"
        # Checkpoints agree on everything but wall clock.
        with open(serial_ckpt) as handle:
            a = json.load(handle)
        with open(dist_ckpt) as handle:
            b = json.load(handle)
        a.pop("elapsed_seconds"), b.pop("elapsed_seconds")
        assert a == b
        # Per-worker telemetry: every committed shard is attributed, and
        # the manifest carries a per-worker breakdown.
        workers = distributed.executor_stats["workers"]
        assert sum(w["shards_committed"] for w in workers.values()) == len(
            shard_plan(0, 0, N_GROUPS, SHARD)
        )
        assert all(event.shard_worker for event in events)

    def test_remote_workers_actually_commit_shards(self, hub):
        """With no local pool at all, every shard travels the wire."""
        serial = make_runner("batch").run_streaming(shard_size=SHARD)
        stop = start_workers(hub, 2)
        distributed = make_runner("batch", n_jobs=0).run_streaming(
            shard_size=SHARD, workers=hub
        )
        stop.set()
        assert canonical(distributed) == canonical(serial)
        workers = distributed.executor_stats["workers"]
        assert "local" not in workers
        assert sum(w["shards_committed"] for w in workers.values()) == 5
        assert all(w["mean_rtt_seconds"] > 0.0 for w in workers.values())

    def test_next_shard_is_sent_before_a_result_is_published(self, hub, monkeypatch):
        """A link sends its worker the next run as soon as the first
        frame of the current run arrives, before decoding and publishing
        it, so the worker does not wait for the consumer's commit."""
        published = []
        complete = DistributedShardExecutor.complete

        def recording_complete(self, task, *args, **kwargs):
            with self._cond:
                published.append((task.index, sorted(self._claimed)))
            return complete(self, task, *args, **kwargs)

        monkeypatch.setattr(DistributedShardExecutor, "complete", recording_complete)
        # Ten 512-group shards over one worker: runs of 4, 4 and 2.
        runner = dict(n_groups=10 * 512)
        serial = make_runner("batch", **runner).run_streaming()
        stop = start_workers(hub, 1)
        distributed = make_runner("batch", n_jobs=0, **runner).run_streaming(
            workers=hub
        )
        stop.set()
        assert canonical(distributed) == canonical(serial)
        # Every shard is published with the rest of its run still claimed
        # and, but in the last run, the whole next run claimed too.
        runs = [range(0, 4), range(4, 8), range(8, 10)]
        expected = []
        for number, run in enumerate(runs):
            following = list(runs[number + 1]) if number + 1 < len(runs) else []
            expected += [(i, [j for j in run if j >= i] + following) for i in run]
        assert published == expected

    def test_convergence_stop_drains_in_flight_remote_shards(self, hub):
        until = Precision(rel_ci_width=2.0, min_groups=64)
        serial = make_runner("batch", n_groups=512, seed=5).run_streaming(
            until=until, shard_size=64
        )
        stop = start_workers(hub, 2)
        distributed = make_runner(
            "batch", n_groups=512, seed=5, n_jobs=0
        ).run_streaming(until=until, shard_size=64, workers=hub)
        stop.set()
        assert serial.stop_reason == distributed.stop_reason == "converged"
        assert serial.groups == distributed.groups
        assert canonical(distributed) == canonical(serial)

    def test_more_links_than_cores_under_a_short_switch_interval(self, hub):
        """Shared-queue stress: more in-thread workers than CPUs, with the
        interpreter switching threads every 10 µs, claim runs and publish
        shards; every shard is committed exactly once and the result
        equals serial."""
        n_workers = min(8, (os.cpu_count() or 1) + 1)
        serial = make_runner("batch", n_groups=20 * SHARD).run_streaming(
            shard_size=SHARD
        )
        holder = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            stop = start_workers(hub, n_workers)
            run = threading.Thread(
                target=lambda: holder.setdefault(
                    "result",
                    make_runner("batch", n_groups=20 * SHARD, n_jobs=0).run_streaming(
                        shard_size=SHARD, workers=hub
                    ),
                ),
                daemon=True,
            )
            run.start()
            run.join(timeout=120.0)
            stop.set()
        finally:
            sys.setswitchinterval(interval)
        assert not run.is_alive(), "distributed run did not finish"
        distributed = holder["result"]
        assert canonical(distributed) == canonical(serial)
        workers = distributed.executor_stats["workers"]
        assert sum(w["shards_committed"] for w in workers.values()) == 20

    def test_remote_run_is_one_kernel_call(self, hub, monkeypatch):
        """A worker simulates a claimed run of consecutive shards in one
        batch-kernel call: four 512-group shards over one worker are one
        2,048-row run."""
        serial = make_runner("batch", n_groups=4 * 512).run_streaming()
        stop = start_workers(hub, 1)
        calls = []
        kernel = executor_module.simulate_groups_batch

        def counting_kernel(*args, **kwargs):
            calls.append(args[1])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(executor_module, "simulate_groups_batch", counting_kernel)
        distributed = make_runner("batch", n_groups=4 * 512, n_jobs=0).run_streaming(
            workers=hub
        )
        stop.set()
        assert canonical(distributed) == canonical(serial)
        assert calls == [[512] * 4]

    def test_precision_target_met_inside_a_run(self, hub):
        """The first run covers the groups missing to ``min_groups``
        (shards 0-3) and the second, claimed before any commit, has the
        same length (4-7).  The target is met at shard 4, inside the
        second run: the distributed run stops there with the serial
        bytes, and what it simulated past the stop — the rest of the run
        and the run claimed behind it — is counted as discarded."""
        until = Precision(rel_ci_width=2.0, min_groups=256)
        runner = dict(n_groups=4096, seed=5)
        serial = make_runner("batch", **runner).run_streaming(
            until=until, shard_size=64
        )
        stop = start_workers(hub, 1)
        events = []
        distributed = make_runner("batch", n_jobs=0, **runner).run_streaming(
            until=until, shard_size=64, workers=hub, observers=(events.append,)
        )
        stop.set()
        assert serial.stop_reason == distributed.stop_reason == "converged"
        assert serial.shards_run == distributed.shards_run == 5
        assert canonical(distributed) == canonical(serial)
        discarded = distributed.executor_stats["discarded_in_flight"]
        assert discarded == events[-1].queue_depth
        assert discarded >= 3 + 1

    def test_interrupt_resume_distributed_bit_identical(self, hub, tmp_path):
        reference = canonical(make_runner("batch").run_streaming(shard_size=SHARD))
        path = str(tmp_path / "run.ckpt")
        stop = start_workers(hub, 2)
        interrupted = make_runner("batch", n_jobs=1).run_streaming(
            shard_size=SHARD, checkpoint_path=path, stop_after_shards=2, workers=hub
        )
        assert interrupted.stop_reason == "interrupted"
        resumed = make_runner("batch", n_jobs=1).run_streaming(
            shard_size=SHARD, checkpoint_path=path, resume_from=path, workers=hub
        )
        stop.set()
        assert resumed.stop_reason == "fixed"
        assert resumed.groups == N_GROUPS
        assert canonical(resumed) == reference

    def test_ephemeral_hub_from_bind_string(self):
        """``workers="host:port"`` opens a run-owned hub; with nobody
        dialed in the local pool still completes the plan (and the hub is
        closed with the run)."""
        serial = make_runner("batch").run_streaming(shard_size=SHARD)
        distributed = make_runner("batch", n_jobs=1).run_streaming(
            shard_size=SHARD, workers="127.0.0.1:0"
        )
        assert canonical(distributed) == canonical(serial)
        assert distributed.executor_stats["mode"] == "distributed"
        assert list(distributed.executor_stats["workers"]) == ["local"]

    def test_local_pool_keeps_its_speculation_bound(self):
        """A distributed run's local pool holds at most ``n_jobs`` runs
        the consumer has not reached, as the pipelined pool does, however
        slowly the consumer commits.  With nobody dialed in and one event
        shard per run, no shard is delivered with more than ``n_jobs``
        shards simulated or in flight behind it."""
        n_groups = 12 * SHARD
        serial = make_runner("event", n_groups=n_groups).run_streaming(
            shard_size=SHARD
        )
        events = []

        def slow_commit(event):
            events.append(event)
            time.sleep(0.05)

        distributed = make_runner("event", n_groups=n_groups, n_jobs=2).run_streaming(
            shard_size=SHARD, workers="127.0.0.1:0", observers=(slow_commit,)
        )
        assert canonical(distributed) == canonical(serial)
        assert len(events) == 12
        assert max(event.queue_depth for event in events) <= 2


class TestChaos:
    def test_worker_killed_mid_shard_is_reseeded(self, hub):
        """A fake worker that accepts a task and dies: its shard is
        abandoned back to the queue, charged one retry, and completed by
        a surviving worker — result bit-identical.  The fake is the only
        connected worker when the run starts, so it is guaranteed to
        claim (and take down) the first shard."""
        reference = canonical(make_runner("batch").run_streaming(shard_size=SHARD))
        died = threading.Event()
        threading.Thread(
            target=_die_after_first_task, args=(hub.address, died), daemon=True
        ).start()
        assert hub.wait_for_workers(1, timeout=15.0)
        holder = {}

        def _run():
            holder["result"] = make_runner("batch", n_jobs=0).run_streaming(
                shard_size=SHARD, workers=hub
            )

        run_thread = threading.Thread(target=_run, daemon=True)
        run_thread.start()
        assert died.wait(timeout=15.0)  # the lone worker died holding a shard
        stop = start_workers(hub, 1)  # the survivor completes the plan
        run_thread.join(timeout=120.0)
        stop.set()
        assert not run_thread.is_alive()
        distributed = holder["result"]
        assert canonical(distributed) == reference
        assert distributed.executor_stats["shard_retries"] >= 1

    def test_coordinator_side_socket_drop_mid_run(self, hub, monkeypatch):
        """Chaos hook: the hub hard-closes a worker's socket mid-run; the
        worker's claimed shards are retried and the worker itself
        reconnects with backoff — completion stays bit-identical.  The
        workers start simulating only after the drop, so both hold a run
        when it happens, whatever the machine's speed."""
        reference = canonical(
            make_runner("batch", n_groups=320).run_streaming(shard_size=SHARD)
        )
        simulate = remote_module.simulate_shards
        started = threading.Semaphore(0)
        release = threading.Event()

        def held(config, root_state, engine, run):
            started.release()
            release.wait(timeout=30.0)
            return simulate(config, root_state, engine, run)

        monkeypatch.setattr(remote_module, "simulate_shards", held)
        stop = start_workers(hub, 2)
        dropped = threading.Event()

        def _drop_one_mid_run():
            # Wait until both workers hold a run, then sever one.
            if started.acquire(timeout=15.0) and started.acquire(timeout=15.0):
                if hub.drop(hub.stats()["workers"][0]["worker"]):
                    dropped.set()
            release.set()

        threading.Thread(target=_drop_one_mid_run, daemon=True).start()
        distributed = make_runner("batch", n_groups=320, n_jobs=0).run_streaming(
            shard_size=SHARD, workers=hub
        )
        stop.set()
        assert dropped.is_set()
        assert canonical(distributed) == reference
        assert distributed.executor_stats["shard_retries"] >= 1

    def test_local_pool_break_is_recovered(self, tmp_path):
        """The distributed executor's local pool recovers a dead worker
        like the pipelined pool does.  With nobody dialed in, the two
        local jobs take runs of 3 and 2 shards; the hook kills its worker
        at shard 1, so the first run is lost, reseeded and re-run once,
        and every shard of it shows one retry."""
        crash_dir = tmp_path / "crashes"
        crash_dir.mkdir()
        reference = canonical(make_runner("batch").run_streaming(shard_size=SHARD))
        events = []
        distributed = make_runner("batch", n_jobs=2).run_streaming(
            shard_size=SHARD,
            workers="127.0.0.1:0",
            observers=(events.append,),
            _shard_worker=functools.partial(crash_once_worker, str(crash_dir)),
        )
        assert canonical(distributed) == reference
        assert distributed.executor_stats["mode"] == "distributed"
        assert distributed.executor_stats["pool_breaks"] == 1
        assert [event.shard_retries for event in events[:3]] == [1, 1, 1]
        assert len(os.listdir(crash_dir)) == 1  # crashed exactly once

    def test_retries_exhausted_fails_the_run(self, hub):
        """Losing the same shard past ``max_retries`` raises
        SimulationError — the exact accounting local pool breaks get."""
        config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        root_state = _seed_state(np.random.SeedSequence(11))
        executor = DistributedShardExecutor(
            config, root_state, "batch", 0, hub=hub, max_retries=1
        )
        plan = shard_plan(0, 0, 2 * SHARD, SHARD)
        outcomes = executor.outcomes(plan)
        killer_done = threading.Event()

        def _keep_losing():
            # Wait for the (lazy) generator to open the session, then
            # claim shards and abandon them until the budget is exhausted.
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and not executor.accepting():
                time.sleep(0.01)
            while time.monotonic() < deadline and executor.accepting():
                task = executor.claim("chaos", timeout=0.1)
                if task is not None:
                    executor.abandon(task, "chaos monkey")
            killer_done.set()

        threading.Thread(target=_keep_losing, daemon=True).start()
        with pytest.raises(SimulationError, match="was lost"):
            list(outcomes)
        assert killer_done.wait(timeout=20.0)

    def test_drained_shard_is_discarded_not_committed(self, hub):
        """A remote shard still in flight when the consumer closes the
        generator is discarded — never folded into the accumulator."""
        config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        root_state = _seed_state(np.random.SeedSequence(11))
        executor = DistributedShardExecutor(
            config, root_state, "batch", 0, hub=hub, max_retries=2
        )
        stop = start_workers(hub, 1)
        plan = shard_plan(0, 0, 3 * SHARD, SHARD)
        outcomes = executor.outcomes(plan)
        first = next(outcomes)
        assert first.task.index == 0
        outcomes.close()  # convergence: drain, discard in-flight
        stop.set()
        assert not executor.accepting()


def crash_first_task_once(crash_dir, task):
    """Kill the worker on the first shard any pool task runs, once."""
    if not os.listdir(crash_dir):
        open(os.path.join(crash_dir, "crashed"), "w").close()
        os._exit(1)
    return _run_shard_task(task)


class _MixedRun:
    """Orders a run shared by one remote link and the local pool.

    The link claims the first run, and its worker's simulation waits for
    :attr:`release`; the pool leases its workers only once the link holds
    that run.  Records every claim and every shard the pool publishes.
    """

    def __init__(self, monkeypatch):
        self.claims = []
        self.local_published = []
        self.release = threading.Event()
        self.link_holds_a_run = threading.Semaphore(0)
        link_claimed = threading.Event()
        simulate = remote_module.simulate_shards
        claim = DistributedShardExecutor.claim
        complete = DistributedShardExecutor.complete
        take_pool = DistributedShardExecutor._take_pool

        def held(config, root_state, engine, run):
            self.link_holds_a_run.release()
            self.release.wait(timeout=60.0)
            return simulate(config, root_state, engine, run)

        def recording_claim(executor, claimant, *args, **kwargs):
            run = claim(executor, claimant, *args, **kwargs)
            if run is not None:
                self.claims.append((claimant, [task.index for task in run]))
                if claimant != "local":
                    link_claimed.set()
            return run

        def recording_complete(executor, task, *args, worker, **kwargs):
            if worker == "local":
                self.local_published.append(task.index)
            return complete(executor, task, *args, worker=worker, **kwargs)

        def take_pool_after_the_link(executor):
            assert link_claimed.wait(timeout=30.0)
            return take_pool(executor)

        monkeypatch.setattr(remote_module, "simulate_shards", held)
        monkeypatch.setattr(DistributedShardExecutor, "claim", recording_claim)
        monkeypatch.setattr(DistributedShardExecutor, "complete", recording_complete)
        monkeypatch.setattr(
            DistributedShardExecutor, "_take_pool", take_pool_after_the_link
        )

    def wait_for_local(self, indices, timeout=60.0):
        """Wait until the pool has published every shard in ``indices``."""
        deadline = time.monotonic() + timeout
        while not set(indices) <= set(self.local_published):
            assert time.monotonic() < deadline, self.local_published
            time.sleep(0.01)

    @staticmethod
    def run(runner, **kwargs):
        """``run_streaming`` on a thread, so a stalled run fails the test."""
        holder = {}
        events = []
        thread = threading.Thread(
            target=lambda: holder.setdefault(
                "result", runner.run_streaming(observers=(events.append,), **kwargs)
            ),
            daemon=True,
        )
        thread.start()
        return thread, holder, events


class TestMixedClaimants:
    """The local pool and a remote link hold runs at once, and one of
    them is lost."""

    def test_link_lost_at_the_cursor_is_picked_up_by_the_pool(
        self, hub, monkeypatch
    ):
        """The link holds the run at the commit cursor (shards 0-3) while
        the pool's two runs past it (4-7, 8-9) finish, so every pool slot
        holds a run the consumer has not reached.  The link is dropped:
        its shards go back to the queue, one retry each, and the pool
        must still claim them."""
        n_groups = 10 * SHARD
        reference = canonical(
            make_runner("batch", n_groups=n_groups).run_streaming(shard_size=SHARD)
        )
        order = _MixedRun(monkeypatch)
        stop = start_workers(hub, 1, max_reconnects=0)
        thread, holder, events = order.run(
            make_runner("batch", n_groups=n_groups, n_jobs=2),
            shard_size=SHARD,
            workers=hub,
        )
        try:
            assert order.link_holds_a_run.acquire(timeout=30.0)
            order.wait_for_local(range(4, 10))
            assert hub.drop(hub.stats()["workers"][0]["worker"])
        finally:
            order.release.set()
        thread.join(timeout=120.0)
        stop.set()
        assert not thread.is_alive(), "the pool never claimed the lost run"
        distributed = holder["result"]
        assert canonical(distributed) == reference
        assert order.claims[:3] == [
            (order.claims[0][0], [0, 1, 2, 3]),
            ("local", [4, 5, 6, 7]),
            ("local", [8, 9]),
        ]
        assert order.claims[3:] == [("local", [0, 1, 2, 3])]
        assert [event.shard_retries for event in events] == [1] * 4 + [0] * 6
        assert [event.shard_worker for event in events] == ["local"] * 10

    def test_slow_link_does_not_idle_the_pool(self, hub, monkeypatch):
        """The link holds the run at the commit cursor (shard 0) until the
        pool has published every other shard.  Finished local runs that
        wait on a link's shard do not count against the pool's ``n_jobs``
        runs, so the pool keeps claiming past them instead of idling."""
        n_groups = 8 * SHARD
        reference = canonical(
            make_runner("event", n_groups=n_groups).run_streaming(shard_size=SHARD)
        )
        order = _MixedRun(monkeypatch)
        stop = start_workers(hub, 1)
        thread, holder, events = order.run(
            make_runner("event", n_groups=n_groups, n_jobs=2),
            shard_size=SHARD,
            workers=hub,
        )
        try:
            assert order.link_holds_a_run.acquire(timeout=30.0)
            order.wait_for_local(range(1, 8), timeout=30.0)
        finally:
            order.release.set()
        thread.join(timeout=120.0)
        stop.set()
        assert not thread.is_alive()
        assert canonical(holder["result"]) == reference
        assert events[0].shard_worker != "local"
        assert [event.shard_worker for event in events][1:] == ["local"] * 7
        assert [event.shard_retries for event in events] == [0] * 8

    def test_claimants_share_the_queue_under_a_short_switch_interval(self, hub):
        """Stress: a pool of two and three in-thread links, more claimants
        than cores, share one queue of one-shard runs while the
        interpreter switches threads every microsecond.  Every shard is
        committed once, in order and unretried, and the run equals
        serial."""
        n_shards, shard = 48, 8
        reference = canonical(
            make_runner("event", n_groups=n_shards * shard).run_streaming(
                shard_size=shard
            )
        )
        stop = start_workers(hub, 3)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread, holder, events = _MixedRun.run(
                make_runner("event", n_groups=n_shards * shard, n_jobs=2),
                shard_size=shard,
                workers=hub,
            )
            thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(previous)
            stop.set()
        assert not thread.is_alive()
        assert canonical(holder["result"]) == reference
        assert [event.shards_completed for event in events] == list(
            range(1, n_shards + 1)
        )
        assert [event.shard_retries for event in events] == [0] * n_shards

    def test_pool_break_while_a_link_holds_a_run(self, hub, monkeypatch, tmp_path):
        """The pool's first task kills its worker while the link holds
        shards 0-4.  The pool is replaced and its lost run (5-9) re-run:
        only those shards are charged, and the run equals serial with one
        pool break."""
        crash_dir = tmp_path / "crashes"
        crash_dir.mkdir()
        n_groups = 10 * SHARD
        reference = canonical(
            make_runner("batch", n_groups=n_groups).run_streaming(shard_size=SHARD)
        )
        order = _MixedRun(monkeypatch)
        stop = start_workers(hub, 1)
        thread, holder, events = order.run(
            make_runner("batch", n_groups=n_groups, n_jobs=1),
            shard_size=SHARD,
            workers=hub,
            _shard_worker=functools.partial(crash_first_task_once, str(crash_dir)),
        )
        try:
            assert order.link_holds_a_run.acquire(timeout=30.0)
            order.wait_for_local(range(5, 10))
        finally:
            order.release.set()
        thread.join(timeout=120.0)
        stop.set()
        assert not thread.is_alive()
        distributed = holder["result"]
        assert canonical(distributed) == reference
        assert distributed.executor_stats["pool_breaks"] == 1
        assert len(os.listdir(crash_dir)) == 1
        assert [claimant for claimant, _ in order.claims[1:]] == ["local", "local"]
        assert [event.shard_retries for event in events] == [0] * 5 + [1] * 5
        assert [event.shard_worker for event in events][5:] == ["local"] * 5
        assert "local" not in [event.shard_worker for event in events][:5]


class TestWorkerRobustness:
    """Regressions: a worker must answer errors over the wire, not die."""

    @pytest.mark.parametrize("engine", ["compiled", "warp"])
    def test_unknown_engine_init_err(self, engine):
        """Regression: a worker told to run an engine it does not know
        (a removed one from an older coordinator, or a made-up name) must
        reply ``init_err``.  Running it on the event loop instead would
        commit chronologies from the wrong random streams."""
        from repro.validation.generator import config_to_dict

        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]
        stop = threading.Event()
        worker = threading.Thread(
            target=run_worker,
            args=(f"{host}:{port}",),
            kwargs={"stop": stop, "heartbeat_interval": 0.2},
            daemon=True,
        )
        worker.start()
        try:
            conn, _ = listener.accept()
            lock = threading.Lock()
            reader = FrameReader(conn)
            assert _read_tagged(reader, "hello")["v"] == PROTOCOL_VERSION
            config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
            constants = {
                "config": config_to_dict(config),
                "root_state": _seed_state(np.random.SeedSequence(7)),
            }
            send_frame(
                conn, lock,
                {"t": "init", "epoch": 1, "engine": engine, **constants},
            )
            err = _read_tagged(reader, "init_err")
            assert err["epoch"] == 1
            assert f"unknown engine {engine!r}" in err["reason"]
            # The rejection left the worker alive: the same connection
            # still accepts an engine this host *can* run and serves it.
            send_frame(
                conn, lock,
                {"t": "init", "epoch": 2, "engine": "batch", **constants},
            )
            assert _read_tagged(reader, "init_ok")["epoch"] == 2
            send_frame(
                conn, lock, {"t": "task", "epoch": 2, "shards": [[0, 0, 8]]}
            )
            result = _read_tagged(reader, "result")
            assert result["index"] == 0
            assert len(chronology_from_dict(result["columns"])) == 8
            conn.close()
        finally:
            stop.set()
            listener.close()
            worker.join(timeout=10.0)

    def test_shard_error_on_worker_fails_run_with_real_error(
        self, hub, monkeypatch
    ):
        """Regression: an exception from the simulation used to kill the
        worker; the coordinator saw only heartbeat timeouts and burned
        retries on a run that fails identically everywhere.  It now
        travels back as ``task_err`` and fails the run with the real
        cause — and the worker survives."""

        def explode(config, root_state, engine, run):
            raise RuntimeError("boom: bad shard")

        monkeypatch.setattr(remote_module, "simulate_shards", explode)
        stop = start_workers(hub, 1)
        with pytest.raises(SimulationError, match="boom: bad shard"):
            make_runner("batch", n_jobs=0).run_streaming(
                shard_size=SHARD, workers=hub
            )
        assert hub.n_workers() == 1  # still connected, not crash-looping
        stop.set()

    def test_heartbeating_worker_is_not_dropped_during_init(self):
        """Regression: the init-handshake wait used a fixed deadline that
        heartbeats did not extend, so a live worker still busy finishing
        a long stale shard was dropped with 'worker did not answer init'.
        A worker that heartbeats for 2.5× the timeout before answering
        init must complete the run, with no retries charged."""
        serial = make_runner("batch").run_streaming(shard_size=SHARD)
        hub = RemoteWorkerHub(heartbeat_timeout=1.0)
        stop = threading.Event()
        holder = {}
        try:
            threading.Thread(
                target=_slow_init_worker,
                args=(hub.address, 2.5, stop),
                daemon=True,
            ).start()
            assert hub.wait_for_workers(1, timeout=15.0)

            def _run():
                holder["result"] = make_runner("batch", n_jobs=0).run_streaming(
                    shard_size=SHARD, workers=hub
                )

            run_thread = threading.Thread(target=_run, daemon=True)
            run_thread.start()
            run_thread.join(timeout=120.0)
            assert not run_thread.is_alive(), "distributed run did not finish"
        finally:
            stop.set()
            hub.close()
        distributed = holder["result"]
        assert canonical(distributed) == canonical(serial)
        assert distributed.executor_stats["shard_retries"] == 0

    def test_idle_link_is_not_dropped_while_another_holds_the_last_shard(
        self, monkeypatch
    ):
        """Regression: a link with nothing to claim read its socket with a
        zero timeout, which returned before reading, so it never saw
        heartbeats and dropped a live worker after ``heartbeat_timeout``
        whenever another claimant held the last shards.  Shard 1 takes
        3 s, three times the timeout; neither worker may be dropped (a
        dropped one would not redial)."""
        simulate = remote_module.simulate_shards

        def hold_shard_1(config, root_state, engine, run):
            if any(task.index == 1 for task in run):
                time.sleep(3.0)
            return simulate(config, root_state, engine, run)

        monkeypatch.setattr(remote_module, "simulate_shards", hold_shard_1)
        serial = make_runner("batch", n_groups=2 * SHARD).run_streaming(
            shard_size=SHARD
        )
        hub = RemoteWorkerHub(heartbeat_timeout=1.0)
        try:
            stop = start_workers(hub, 2, max_reconnects=0)
            distributed = make_runner(
                "batch", n_groups=2 * SHARD, n_jobs=0
            ).run_streaming(shard_size=SHARD, workers=hub)
            assert hub.n_workers() == 2
            stop.set()
        finally:
            hub.close()
        assert canonical(distributed) == canonical(serial)

    def test_idle_links_start_a_new_run_at_once(self, monkeypatch):
        """Regression: an idle link waited in a socket read of one poll
        quantum, so a run registered meanwhile started only when that
        read timed out.  Idle links now wait on the hub's condition,
        which ``register()`` notifies.  With the quantum stretched to
        5 s and heartbeats rarer than that, two back-to-back runs must
        finish well inside one quantum."""
        hub = RemoteWorkerHub(heartbeat_timeout=60.0)
        monkeypatch.setattr(remote_module, "_POLL_SECONDS", 5.0)
        try:
            stop = start_workers(hub, 1, heartbeat_interval=30.0)
            time.sleep(0.2)  # let the link settle into its idle wait
            start = time.monotonic()
            for seed in (1, 2):
                make_runner(
                    "batch", n_groups=SHARD, seed=seed, n_jobs=0
                ).run_streaming(shard_size=SHARD, workers=hub)
            elapsed = time.monotonic() - start
            stop.set()
        finally:
            hub.close()
        assert elapsed < 2.5

    def test_close_does_not_wait_out_the_accept_poll(self, monkeypatch):
        """Regression: closing the listening socket did not wake the
        accept thread, so ``close()`` waited for its accept() to time
        out, one poll quantum.  With the quantum stretched to 5 s, it
        must return at once."""
        monkeypatch.setattr(remote_module, "_POLL_SECONDS", 5.0)
        hub = RemoteWorkerHub()
        time.sleep(0.2)  # let the accept thread block in accept()
        start = time.monotonic()
        hub.close()
        assert time.monotonic() - start < 1.0
        assert not hub._accept_thread.is_alive()

    def test_worker_counts_the_shards_of_a_session_the_coordinator_ended(self, hub):
        """Regression: a session ends when the coordinator hangs up, which
        raised out of the session loop and lost its count, so ``repro
        worker`` reported ``done (0 shards simulated)``."""
        holder = {}
        worker = threading.Thread(
            target=lambda: holder.setdefault(
                "shards", run_worker(hub.address, max_reconnects=0)
            ),
            daemon=True,
        )
        worker.start()
        assert hub.wait_for_workers(1, timeout=15.0)
        distributed = make_runner("batch", n_jobs=0).run_streaming(
            shard_size=SHARD, workers=hub
        )
        hub.close()
        worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert distributed.shards_run == 5
        assert holder["shards"] == 5

    def test_hello_from_another_protocol_version_is_refused(self, hub):
        """A worker speaking another protocol version — here protocol 1,
        whose tasks were single shards — is disconnected at its
        ``hello``: the hub sends it nothing, not even ``init``, and never
        counts it as a worker."""
        assert PROTOCOL_VERSION != 1
        sock = socket.create_connection((hub.host, hub.port), timeout=10.0)
        try:
            reader = FrameReader(sock)
            send_frame(
                sock, threading.Lock(), {"t": "hello", "v": 1, "host": "old", "pid": 1}
            )
            with pytest.raises(ConnectionError, match="closed"):
                reader.read(timeout=15.0)
        finally:
            sock.close()
        assert hub.n_workers() == 0


class TestNJobsZero:
    """``n_jobs=0`` means "no local shard pool" and is only meaningful
    when remote workers exist to do the simulating."""

    def test_materialized_run_rejects_n_jobs_zero(self):
        with pytest.raises(ParameterError, match="n_jobs=0"):
            make_runner("batch", n_jobs=0).run()

    def test_streaming_without_workers_rejects_n_jobs_zero(self):
        with pytest.raises(ParameterError, match="requires workers="):
            make_runner("batch", n_jobs=0).run_streaming(shard_size=SHARD)


class TestLoopbackSubprocesses:
    """The CI acceptance shape: two real ``repro worker`` OS processes
    dialed into a loopback hub, run digest == serial golden digest."""

    def test_distributed_digest_matches_serial_golden(self, hub, monkeypatch):
        import repro

        # Two connected workers split the five shards into runs of 3 and
        # 2.  Each link holds its first claimed run at a two-party
        # barrier, so both links hold a run before either worker can
        # finish one and claim the other: both workers commit shards.
        # Claims run in this process's hub threads.
        barrier = threading.Barrier(2)
        first_claims = set()
        claim = DistributedShardExecutor.claim

        def claim_in_step(self, claimant, *args, **kwargs):
            run = claim(self, claimant, *args, **kwargs)
            if run is not None and claimant not in first_claims:
                first_claims.add(claimant)
                try:
                    barrier.wait(timeout=60.0)
                except threading.BrokenBarrierError:
                    pass  # the worker count below reports it
            return run

        monkeypatch.setattr(DistributedShardExecutor, "claim", claim_in_step)
        serial = make_runner("batch").run_streaming(shard_size=SHARD)
        golden = hashlib.sha256(canonical(serial).encode()).hexdigest()

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        command = [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--connect",
            hub.address,
            "--heartbeat-interval",
            "0.2",
        ]
        procs = [
            subprocess.Popen(
                command, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            for _ in range(2)
        ]
        try:
            assert hub.wait_for_workers(2, timeout=60.0)
            distributed = make_runner("batch", n_jobs=0).run_streaming(
                shard_size=SHARD, workers=hub
            )
        finally:
            for proc in procs:
                proc.kill()
            for proc in procs:
                proc.wait(timeout=30.0)

        digest = hashlib.sha256(canonical(distributed).encode()).hexdigest()
        assert digest == golden
        workers = distributed.executor_stats["workers"]
        assert len(workers) == 2 and "local" not in workers


def _read_tagged(reader, tag, timeout=15.0):
    """Next frame with ``t == tag``, skipping heartbeats and other chatter."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        message = reader.read(timeout=0.25)
        if message is not None and message.get("t") == tag:
            return message
    raise AssertionError(f"no {tag!r} frame arrived within {timeout}s")


def _slow_init_worker(address, delay, stop):
    """Raw-socket worker that heartbeats through ``delay`` seconds before
    answering init (a worker busy finishing a stale shard), then serves
    tasks normally."""
    host, port = parse_endpoint(address)
    sock = socket.create_connection((host, port), timeout=10.0)
    lock = threading.Lock()
    reader = FrameReader(sock)
    from repro.validation.generator import config_from_dict

    config = root_state = None
    engine = "batch"
    epoch = -1
    try:
        send_frame(
            sock,
            lock,
            {"t": "hello", "v": PROTOCOL_VERSION, "host": "slow", "pid": os.getpid()},
        )
        while not stop.is_set():
            try:
                message = reader.read(timeout=0.25)
            except ConnectionError:
                return
            if message is None:
                continue
            kind = message.get("t")
            if kind == "init":
                deadline = time.monotonic() + delay
                while time.monotonic() < deadline:
                    send_frame(sock, lock, {"t": "hb"})
                    time.sleep(0.2)
                epoch = message["epoch"]
                engine = message["engine"]
                config = config_from_dict(message["config"])
                root_state = message["root_state"]
                send_frame(sock, lock, {"t": "init_ok", "epoch": epoch})
            elif kind == "task":
                run = [ShardTask(*shard) for shard in message["shards"]]
                per_shard = simulate_shards(config, root_state, engine, run)
                for task, chronologies, seconds in split_run(run, per_shard, 0.0):
                    send_frame(
                        sock,
                        lock,
                        {
                            "t": "result",
                            "epoch": epoch,
                            "index": task.index,
                            "wall_seconds": seconds,
                            "columns": chronology_to_dict(chronologies),
                        },
                    )
    except OSError:
        pass
    finally:
        sock.close()


def _die_after_first_task(address, died):
    """Raw-socket worker: handshake, init_ok, accept one task, vanish."""
    host, port = parse_endpoint(address)
    sock = socket.create_connection((host, port), timeout=10.0)
    lock = threading.Lock()
    reader = FrameReader(sock)
    try:
        send_frame(
            sock, lock, {"t": "hello", "v": PROTOCOL_VERSION, "host": "chaos", "pid": 1}
        )
        deadline = time.monotonic() + 15.0
        epoch = None
        while time.monotonic() < deadline:
            try:
                message = reader.read(timeout=0.25)
            except ConnectionError:
                return
            if message is None:
                continue
            if message.get("t") == "init":
                epoch = message["epoch"]
                send_frame(sock, lock, {"t": "init_ok", "epoch": epoch})
            elif message.get("t") == "task":
                return  # die with the run claimed
    finally:
        sock.close()
        died.set()
