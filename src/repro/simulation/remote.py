"""TCP remote-worker backend for the pipelined shard executor.

The spawn-key seed reconstruction (:func:`.executor._child_seed`) makes a
:class:`~repro.simulation.executor.ShardTask` a pure function of its
indices: any process on any host that knows the run constants (config,
root seed state, engine) can simulate any shard and produce byte-identical
chronologies.  This module exploits that to extend the shard executor past
one machine with *unchanged semantics*:

* :func:`run_worker` — the ``repro worker --connect HOST:PORT`` client
  loop.  It dials the coordinator, announces itself, receives the run
  constants, then pulls shard tasks one at a time (work stealing: a fast
  host simply asks more often), simulating each with its local engine via
  the very same :func:`~repro.simulation.executor.simulate_shard` the
  process pool uses, and streams back length-prefixed JSON chronology
  payloads.  A background thread heartbeats; a dropped connection triggers
  reconnect with exponential backoff.

* :class:`RemoteWorkerHub` — the coordinator side.  A listening socket
  plus one thread per connected worker.  Each worker thread drives the
  handshake, claims tasks from the active run's shared queue, and awaits
  results; heartbeat staleness or a socket error abandons the claimed
  shard back to the queue, *charged against* ``max_retries`` exactly like
  a local :class:`~concurrent.futures.process.BrokenProcessPool`.

* :class:`DistributedShardExecutor` — a drop-in for
  :class:`~repro.simulation.executor.PipelinedShardExecutor` whose
  ``outcomes()`` generator merges the local process pool and every
  connected remote worker behind the same in-order-commit contract.
  Because commits stay strictly in shard order and each shard is reseeded
  from its index, a distributed run is bit-identical to a serial one —
  through checkpoint/resume, convergence stopping (in-flight remote shards
  are drained and discarded), and mid-run worker loss.

Wire format (version 1): every frame is a 4-byte big-endian unsigned
length followed by that many bytes of UTF-8 JSON.  JSON round-trips
Python floats exactly (shortest-repr), so chronologies survive the wire
bit-identical.  Messages carry a ``t`` tag:

====================  =======================================================
coordinator → worker
====================  =======================================================
``init``              run constants: ``epoch``, ``engine``, ``config``,
                      ``root_state``
``task``              one shard: ``epoch``, ``index``, ``group_offset``,
                      ``n_groups``
``drain``             no work right now (convergence drain / between runs)
====================  =======================================================

====================  =======================================================
worker → coordinator
====================  =======================================================
``hello``             ``v`` (protocol version), ``host``, ``pid``
``init_ok``           worker accepted the run constants (``epoch``)
``init_err``          worker cannot run this engine/config (``epoch``,
                      ``reason``)
``result``            ``epoch``, ``index``, ``wall_seconds``,
                      ``chronologies``
``task_err``          the shard raised on the worker (``epoch``,
                      ``index``, ``error``) — fails the run with the
                      real error instead of burning retries
``hb``                heartbeat (also sent while a long shard simulates)
====================  =======================================================

The ``epoch`` stamps every task/result with the run it belongs to, so a
result that limps in after its run drained (or after the shard was
reassigned) is recognizably stale and discarded.
"""

from __future__ import annotations

import heapq
import json
import os
import socket
import struct
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..exceptions import SimulationError
from .config import RaidGroupConfig
from .executor import (
    DEFAULT_MAX_SHARD_RETRIES,
    PipelinedShardExecutor,
    ShardOutcome,
    ShardTask,
    ShardWorker,
    _future_ok,
    simulate_shard,
)
from .raid_simulator import DDFType, GroupChronology

PROTOCOL_VERSION = 1

#: Hard cap on a single frame — a 5k-group shard of pathological
#: chronologies is well under 64 MiB; anything larger is a corrupt or
#: hostile peer, not a payload.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Seconds between worker heartbeats.
DEFAULT_HEARTBEAT_INTERVAL = 1.0

#: Coordinator-side staleness bound: a worker silent this long is
#: presumed dead and its claimed shard is abandoned back to the queue.
DEFAULT_HEARTBEAT_TIMEOUT = 15.0

#: Internal poll quantum for socket reads and condition waits.
_POLL_SECONDS = 0.25

_LEN = struct.Struct("!I")


def parse_endpoint(spec: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)``, with validation."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint must be HOST:PORT, got {spec!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"endpoint port must be an integer, got {spec!r}") from None


# ----------------------------------------------------------------------
# Chronology wire codec.  JSON floats are exact (repr round-trip), enums
# travel by value — the decoded chronology is byte-identical to the
# original under the canonical json.dumps(..., sort_keys=True) test.
def chronology_to_dict(chrono: GroupChronology) -> dict:
    return {
        "ddf_times": list(chrono.ddf_times),
        "ddf_types": [t.value for t in chrono.ddf_types],
        "n_op_failures": chrono.n_op_failures,
        "n_latent_defects": chrono.n_latent_defects,
        "n_scrub_repairs": chrono.n_scrub_repairs,
        "n_restores": chrono.n_restores,
        "mission_hours": chrono.mission_hours,
        "n_spare_waits": chrono.n_spare_waits,
        "spare_wait_hours": chrono.spare_wait_hours,
        "n_checks": chrono.n_checks,
        "n_policy_repairs": chrono.n_policy_repairs,
    }


def chronology_from_dict(data: dict) -> GroupChronology:
    return GroupChronology(
        ddf_times=[float(t) for t in data["ddf_times"]],
        ddf_types=[DDFType(t) for t in data["ddf_types"]],
        n_op_failures=int(data["n_op_failures"]),
        n_latent_defects=int(data["n_latent_defects"]),
        n_scrub_repairs=int(data["n_scrub_repairs"]),
        n_restores=int(data["n_restores"]),
        mission_hours=float(data["mission_hours"]),
        n_spare_waits=int(data["n_spare_waits"]),
        spare_wait_hours=float(data["spare_wait_hours"]),
        n_checks=int(data["n_checks"]),
        n_policy_repairs=int(data["n_policy_repairs"]),
    )


# ----------------------------------------------------------------------
# Framing.
def send_frame(sock: socket.socket, lock: threading.Lock, message: dict) -> None:
    """Serialize and send one length-prefixed frame (thread-safe)."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise SimulationError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(cap {MAX_FRAME_BYTES}); message t={message.get('t')!r}"
        )
    with lock:
        sock.sendall(_LEN.pack(len(payload)) + payload)


class FrameReader:
    """Incremental length-prefixed JSON frame reader over a socket.

    ``read(timeout)`` returns the next decoded message, ``None`` if no
    complete frame arrived within the timeout, and raises
    :class:`ConnectionError` on EOF or a malformed frame.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = bytearray()

    def read(self, timeout: float) -> Optional[dict]:
        deadline = time.monotonic() + timeout
        while True:
            frame = self._pop_frame()
            if frame is not None:
                return frame
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(1 << 20)
            except socket.timeout:
                return None
            except OSError as exc:
                raise ConnectionError(f"socket read failed: {exc!r}") from exc
            if not chunk:
                raise ConnectionError("peer closed the connection")
            self._buffer.extend(chunk)

    def _pop_frame(self) -> Optional[dict]:
        if len(self._buffer) < _LEN.size:
            return None
        (length,) = _LEN.unpack_from(self._buffer)
        if length > MAX_FRAME_BYTES:
            raise ConnectionError(f"frame length {length} exceeds cap")
        if len(self._buffer) < _LEN.size + length:
            return None
        payload = bytes(self._buffer[_LEN.size : _LEN.size + length])
        del self._buffer[: _LEN.size + length]
        try:
            message = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConnectionError(f"malformed frame: {exc!r}") from exc
        if not isinstance(message, dict):
            raise ConnectionError("frame payload is not a JSON object")
        return message


# ----------------------------------------------------------------------
# Worker side.
def run_worker(
    address: str,
    *,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    max_reconnects: Optional[int] = None,
    backoff_cap: float = 30.0,
    stop: Optional[threading.Event] = None,
) -> int:
    """Connect to a coordinator and simulate shards until told to stop.

    Returns the number of shards this worker completed (useful for
    tests); runs forever across reconnects unless ``max_reconnects``
    consecutive failed dials are exhausted or ``stop`` is set.
    """
    host, port = parse_endpoint(address)
    stop = stop if stop is not None else threading.Event()
    completed = 0
    failures = 0
    while not stop.is_set():
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
        except OSError:
            failures += 1
            if max_reconnects is not None and failures > max_reconnects:
                return completed
            delay = min(backoff_cap, 0.1 * (2 ** min(failures, 10)))
            if stop.wait(delay):
                return completed
            continue
        failures = 0
        try:
            completed += _serve_connection(sock, heartbeat_interval, stop)
        except (ConnectionError, OSError):
            pass  # coordinator vanished; loop back and redial
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if max_reconnects is not None and max_reconnects == 0:
            return completed
    return completed


def _serve_connection(
    sock: socket.socket, heartbeat_interval: float, stop: threading.Event
) -> int:
    """One connected session: handshake, then the pull-simulate-push loop."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_lock = threading.Lock()
    reader = FrameReader(sock)
    send_frame(
        sock,
        send_lock,
        {
            "t": "hello",
            "v": PROTOCOL_VERSION,
            "host": socket.gethostname(),
            "pid": os.getpid(),
        },
    )

    hb_stop = threading.Event()

    def _heartbeat() -> None:
        while not hb_stop.wait(heartbeat_interval):
            try:
                send_frame(sock, send_lock, {"t": "hb"})
            except OSError:
                # Unblock the main recv loop by killing the socket.
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                return

    hb_thread = threading.Thread(target=_heartbeat, daemon=True)
    hb_thread.start()

    config: Optional[RaidGroupConfig] = None
    root_state: Optional[dict] = None
    engine = "event"
    epoch = -1
    completed = 0
    try:
        while not stop.is_set():
            message = reader.read(_POLL_SECONDS)
            if message is None:
                continue
            kind = message.get("t")
            if kind == "init":
                # Lazy import: validation imports simulation, so the
                # serializers cannot be imported at module load time.
                from ..validation.generator import config_from_dict

                epoch = int(message["epoch"])
                engine = str(message["engine"])
                # Parse the config before the capability check: engine
                # support is per-config (the compiled kernel gates on the
                # same structure the batch engine does), and a config this
                # host cannot even deserialize is an init_err, not a crash.
                try:
                    new_config = config_from_dict(message["config"])
                except Exception as exc:
                    send_frame(
                        sock,
                        send_lock,
                        {
                            "t": "init_err",
                            "epoch": epoch,
                            "reason": f"config rejected: {exc!r}",
                        },
                    )
                    config = root_state = None
                    continue
                reason = _engine_unavailable_reason(engine, new_config)
                if reason is not None:
                    send_frame(
                        sock,
                        send_lock,
                        {"t": "init_err", "epoch": epoch, "reason": reason},
                    )
                    config = root_state = None
                    continue
                config = new_config
                root_state = dict(message["root_state"])
                send_frame(sock, send_lock, {"t": "init_ok", "epoch": epoch})
            elif kind == "task":
                if config is None or int(message["epoch"]) != epoch:
                    continue  # stale task from a drained run
                task = ShardTask(
                    index=int(message["index"]),
                    group_offset=int(message["group_offset"]),
                    n_groups=int(message["n_groups"]),
                )
                start = time.perf_counter()
                try:
                    chronologies = simulate_shard(config, root_state, engine, task)
                except Exception as exc:
                    # A deterministic shard failure must reach the
                    # coordinator as an actionable error, not kill the
                    # worker (which would surface only as a heartbeat
                    # timeout and burn retries on a shard that will
                    # fail identically everywhere).
                    send_frame(
                        sock,
                        send_lock,
                        {
                            "t": "task_err",
                            "epoch": epoch,
                            "index": task.index,
                            "error": repr(exc),
                        },
                    )
                    continue
                send_frame(
                    sock,
                    send_lock,
                    {
                        "t": "result",
                        "epoch": epoch,
                        "index": task.index,
                        "wall_seconds": time.perf_counter() - start,
                        "chronologies": [chronology_to_dict(c) for c in chronologies],
                    },
                )
                completed += 1
            elif kind == "drain":
                continue  # nothing to do right now; keep listening
            # unknown tags are ignored for forward compatibility
    finally:
        hb_stop.set()
        hb_thread.join(timeout=2 * heartbeat_interval)
    return completed


def _engine_unavailable_reason(
    engine: str, config: RaidGroupConfig
) -> Optional[str]:
    """Why this host cannot run ``engine`` for ``config``, or None if it can."""
    if engine == "compiled":
        from .compiled import compiled_engine_unsupported_reason

        reason = compiled_engine_unsupported_reason(config)
        if reason is not None:
            return f"compiled engine unavailable on this host: {reason}"
    elif engine == "batch":
        reason = config.batch_engine_unsupported_reason
        if reason is not None:
            return f"batch engine cannot run this config: {reason}"
    return None


# ----------------------------------------------------------------------
# Coordinator side.
class _WorkerLink:
    """Coordinator-side state for one connected worker."""

    def __init__(self, sock: socket.socket, name: str) -> None:
        self.sock = sock
        self.name = name
        self.send_lock = threading.Lock()
        self.reader = FrameReader(sock)
        self.last_seen = time.monotonic()
        self.shards_committed = 0
        self.wall_seconds = 0.0
        self.rtt_total = 0.0
        self.rtt_count = 0
        # Sessions whose engine this worker rejected via init_err.
        self.rejected: Set[int] = set()

    def send(self, message: dict) -> None:
        send_frame(self.sock, self.send_lock, message)

    def stats(self) -> dict:
        return {
            "worker": self.name,
            "shards_committed": self.shards_committed,
            "wall_seconds": round(self.wall_seconds, 6),
            "mean_rtt_seconds": round(
                self.rtt_total / self.rtt_count if self.rtt_count else 0.0, 6
            ),
        }


class RemoteWorkerHub:
    """Accept `repro worker` connections and feed them the active run.

    The hub outlives individual runs: `repro serve` creates one hub and
    every cold job registers its :class:`DistributedShardExecutor` as the
    active *session*; between sessions connected workers idle on
    ``drain`` frames.  One hub thread accepts connections; one thread per
    worker alternates between idling and driving the active session's
    claim/await-result loop.
    """

    def __init__(
        self,
        bind: str = "127.0.0.1:0",
        *,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    ) -> None:
        host, port = parse_endpoint(bind)
        self.heartbeat_timeout = heartbeat_timeout
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(_POLL_SECONDS)
        self.host, self.port = self._listener.getsockname()[:2]
        self._lock = threading.Condition()
        self._links: Dict[str, _WorkerLink] = {}
        self._session: Optional["DistributedShardExecutor"] = None
        self._epoch = 0
        self._closed = threading.Event()
        self._threads: List[threading.Thread] = []
        self._dropped: Set[str] = set()
        self._seq = 0
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-hub-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def register(self, session: "DistributedShardExecutor") -> int:
        """Make ``session`` the active run; returns its epoch stamp.

        One distributed run owns the worker fleet at a time; concurrent
        runs (e.g. two service jobs) queue here until the active one
        unregisters.
        """
        with self._lock:
            while self._session is not None:
                if self._closed.is_set():
                    raise SimulationError("RemoteWorkerHub is closed")
                self._lock.wait(_POLL_SECONDS)
            self._epoch += 1
            self._session = session
            return self._epoch

    def unregister(self, session: "DistributedShardExecutor") -> None:
        with self._lock:
            if self._session is session:
                self._session = None
                self._lock.notify_all()

    def n_workers(self) -> int:
        with self._lock:
            return len(self._links)

    def wait_for_workers(self, n: int, timeout: float = 30.0) -> bool:
        """Block until ``n`` workers are connected (for tests/benches)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.n_workers() >= n:
                return True
            if self._closed.wait(0.02):
                return False
        return self.n_workers() >= n

    def drop(self, name: str) -> bool:
        """Chaos hook: hard-close a worker's socket mid-whatever."""
        with self._lock:
            link = self._links.get(name)
        if link is None:
            return False
        self._dropped.add(name)
        try:
            link.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            link.sock.close()
        except OSError:
            pass
        return True

    def stats(self) -> dict:
        with self._lock:
            links = list(self._links.values())
            active = self._session is not None
        return {
            "address": self.address,
            "active_session": active,
            "workers": [link.stats() for link in links],
        }

    def close(self) -> None:
        self._closed.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            self._lock.notify_all()
            links = list(self._links.values())
        for link in links:
            try:
                link.sock.close()
            except OSError:
                pass
        self._accept_thread.join(timeout=5.0)
        for thread in self._threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "RemoteWorkerHub":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                sock, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._seq += 1
                name = f"remote-{self._seq}@{addr[0]}"
            thread = threading.Thread(
                target=self._link_loop,
                args=(sock, name),
                name=f"repro-hub-{name}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _link_loop(self, sock: socket.socket, name: str) -> None:
        link = _WorkerLink(sock, name)
        try:
            hello = link.reader.read(timeout=10.0)
            if not hello or hello.get("t") != "hello":
                return
            if int(hello.get("v", -1)) != PROTOCOL_VERSION:
                return
            base = f"{hello.get('host', '?')}:{hello.get('pid', '?')}"
            link.last_seen = time.monotonic()
            with self._lock:
                # A reconnecting worker reuses its host:pid identity; two
                # *live* links with the same identity (threads sharing a
                # pid in tests) get a disambiguating suffix.
                name = base
                suffix = 1
                while name in self._links:
                    suffix += 1
                    name = f"{base}#{suffix}"
                link.name = name
                self._links[name] = link
            while not self._closed.is_set():
                with self._lock:
                    session = self._session
                    epoch = self._epoch
                if session is None or not session.accepting():
                    if not self._idle(link):
                        return
                    continue
                self._drive(link, session, epoch)
        except (ConnectionError, OSError):
            pass
        finally:
            with self._lock:
                if self._links.get(name) is link:
                    del self._links[name]
            self._dropped.discard(name)
            try:
                sock.close()
            except OSError:
                pass

    def _idle(self, link: _WorkerLink) -> bool:
        """No active session: drain frames, keep liveness fresh."""
        try:
            link.send({"t": "drain"})
            message = link.reader.read(_POLL_SECONDS)
        except (ConnectionError, OSError):
            return False
        if message is not None:
            link.last_seen = time.monotonic()
        return True

    def _drive(
        self, link: _WorkerLink, session: "DistributedShardExecutor", epoch: int
    ) -> None:
        """Run one worker against the active session until it ends.

        Any socket error or heartbeat staleness abandons the claimed
        shard back to the session's queue (charged one retry) and
        propagates as ConnectionError to drop the link.
        """
        from ..validation.generator import config_to_dict

        if epoch in link.rejected:
            # This worker can't run the session's engine; idle instead.
            if not self._idle(link):
                raise ConnectionError("idle send failed")
            return
        link.send(
            {
                "t": "init",
                "epoch": epoch,
                "engine": session.engine,
                "config": config_to_dict(session.config),
                "root_state": session.root_state,
            }
        )
        # Staleness-based, like _await_result: a worker still finishing a
        # long stale shard from a previous session heartbeats (and may
        # push a stale result) before it gets to the init frame — any
        # traffic proves it alive, so only true silence drops it.
        link.last_seen = time.monotonic()
        while True:
            message = link.reader.read(_POLL_SECONDS)
            if message is not None:
                link.last_seen = time.monotonic()
                kind = message.get("t")
                if kind == "init_ok" and int(message.get("epoch", -1)) == epoch:
                    break
                if kind == "init_err" and int(message.get("epoch", -1)) == epoch:
                    link.rejected.add(epoch)
                    return
            elif time.monotonic() - link.last_seen > self.heartbeat_timeout:
                raise ConnectionError("worker did not answer init")

        while session.accepting():
            task = session.claim(link.name, timeout=_POLL_SECONDS)
            if task is None:
                # Nothing claimable; keep the link warm and liveness fresh.
                try:
                    message = link.reader.read(0.0)
                except ConnectionError:
                    raise
                if message is not None:
                    link.last_seen = time.monotonic()
                elif time.monotonic() - link.last_seen > self.heartbeat_timeout:
                    raise ConnectionError("worker heartbeat timed out while idle")
                continue
            sent_at = time.perf_counter()
            try:
                link.send(
                    {
                        "t": "task",
                        "epoch": epoch,
                        "index": task.index,
                        "group_offset": task.group_offset,
                        "n_groups": task.n_groups,
                    }
                )
                result = self._await_result(link, session, epoch, task.index)
            except (ConnectionError, OSError) as exc:
                session.abandon(task, f"{link.name}: {exc}")
                raise ConnectionError(str(exc)) from exc
            if result is None:
                # Session stopped accepting while the shard was in
                # flight (convergence drain): discard, don't commit.
                session.abandon(task, "drained", charge=False)
                return
            if result.get("t") == "task_err":
                # The shard raised deterministically on the worker —
                # retrying it elsewhere would fail identically, so fail
                # the run with the real error (the local pool's
                # _harvest semantics) instead of burning retries.
                session.fail(
                    SimulationError(
                        f"shard {task.index} raised on {link.name}: "
                        f"{result.get('error')}"
                    )
                )
                return
            chronologies = [
                chronology_from_dict(c) for c in result["chronologies"]
            ]
            rtt = time.perf_counter() - sent_at
            link.shards_committed += 1
            link.wall_seconds += float(result["wall_seconds"])
            link.rtt_total += rtt
            link.rtt_count += 1
            session.complete(
                task,
                chronologies,
                float(result["wall_seconds"]),
                worker=link.name,
                rtt_seconds=rtt,
            )

    def _await_result(
        self,
        link: _WorkerLink,
        session: "DistributedShardExecutor",
        epoch: int,
        index: int,
    ) -> Optional[dict]:
        """Wait for shard ``index``'s result, policing heartbeats.

        Returns the ``result`` or ``task_err`` frame for the shard, or
        None if the session stops accepting first (drain).
        """
        while True:
            message = link.reader.read(_POLL_SECONDS)
            if message is not None:
                link.last_seen = time.monotonic()
                if (
                    message.get("t") in ("result", "task_err")
                    and int(message.get("epoch", -1)) == epoch
                    and int(message.get("index", -1)) == index
                ):
                    return message
                continue
            if time.monotonic() - link.last_seen > self.heartbeat_timeout:
                raise ConnectionError(
                    f"worker heartbeat timed out awaiting shard {index}"
                )
            if not session.accepting():
                return None


# ----------------------------------------------------------------------
class DistributedShardExecutor:
    """In-order shard delivery fed by the local pool *and* remote workers.

    Same contract as :class:`~repro.simulation.executor.PipelinedShardExecutor`
    (``outcomes(plan)`` yields in plan order; closing the generator drains
    in-flight work; lost shards are reseeded and charged retries), but the
    work queue is shared: local pool slots and connected remote workers
    both claim the lowest unclaimed shard index.  All cross-thread state
    lives behind one condition variable.
    """

    def __init__(
        self,
        config: RaidGroupConfig,
        root_state: dict,
        engine: str,
        n_jobs: int,
        *,
        hub: RemoteWorkerHub,
        max_retries: int = DEFAULT_MAX_SHARD_RETRIES,
        worker: Optional[ShardWorker] = None,
    ) -> None:
        if n_jobs < 0:
            raise SimulationError(f"n_jobs must be >= 0, got {n_jobs!r}")
        self.config = config
        self.root_state = root_state
        self.engine = engine
        self.n_jobs = n_jobs
        self.hub = hub
        self.max_retries = max_retries
        self.pool_breaks = 0
        self._worker = worker
        self._cond = threading.Condition()
        self._queue: List[int] = []  # heap of unclaimed shard indices
        self._by_index: Dict[int, ShardTask] = {}
        self._claimed: Dict[int, str] = {}
        self._results: Dict[int, Tuple[List[GroupChronology], float, str, float]] = {}
        self._retries: Dict[int, int] = {}
        self._done_at: Dict[int, float] = {}
        self._error: Optional[BaseException] = None
        self._stopped = False

    # ------------------------------------------------------------------
    # Shared-queue API (called from hub link threads and the local loop).
    def accepting(self) -> bool:
        with self._cond:
            return not self._stopped and self._error is None and bool(self._by_index)

    def claim(self, claimant: str, timeout: float = 0.0) -> Optional[ShardTask]:
        """Pop the lowest unclaimed shard, or None if none within timeout."""
        with self._cond:
            if not self._queue and timeout > 0:
                self._cond.wait(timeout)
            if self._stopped or self._error is not None or not self._queue:
                return None
            index = heapq.heappop(self._queue)
            self._claimed[index] = claimant
            return self._by_index[index]

    def complete(
        self,
        task: ShardTask,
        chronologies: List[GroupChronology],
        wall_seconds: float,
        *,
        worker: str,
        rtt_seconds: float = 0.0,
    ) -> None:
        with self._cond:
            if task.index not in self._by_index or task.index in self._results:
                return  # stale duplicate (e.g. completed after a reassignment)
            self._claimed.pop(task.index, None)
            self._results[task.index] = (chronologies, wall_seconds, worker, rtt_seconds)
            self._done_at.setdefault(task.index, time.perf_counter())
            self._cond.notify_all()

    def abandon(self, task: ShardTask, reason: str, *, charge: bool = True) -> None:
        """Return a claimed shard to the queue after its worker was lost.

        Charged one retry (unless ``charge=False``, for convergence
        drains) — exactly the local pool-break accounting.
        """
        with self._cond:
            if task.index not in self._by_index or task.index in self._results:
                return
            self._claimed.pop(task.index, None)
            self._done_at.pop(task.index, None)
            if self._stopped:
                return
            if charge:
                count = self._retries.get(task.index, 0) + 1
                self._retries[task.index] = count
                if count > self.max_retries:
                    self._error = SimulationError(
                        f"shard {task.index} was lost {count} times "
                        f"(last: {reason}; max_retries={self.max_retries}); "
                        "giving up on this run"
                    )
                    self._cond.notify_all()
                    return
            heapq.heappush(self._queue, task.index)
            self._cond.notify_all()

    def fail(self, error: BaseException) -> None:
        with self._cond:
            if self._error is None:
                self._error = error
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def outcomes(self, plan: Iterable[ShardTask]) -> Iterator[ShardOutcome]:
        tasks = list(plan)
        if not tasks:
            return
        with self._cond:
            self._stopped = False
            self._error = None
            self._by_index = {task.index: task for task in tasks}
            self._queue = sorted(self._by_index)
            heapq.heapify(self._queue)
            self._results.clear()
            self._claimed.clear()
            self._retries.clear()
        epoch = self.hub.register(self)
        local_thread: Optional[threading.Thread] = None
        if self.n_jobs > 0:
            local_thread = threading.Thread(
                target=self._local_loop, name="repro-dist-local", daemon=True
            )
            local_thread.start()
        try:
            for task in tasks:
                with self._cond:
                    while task.index not in self._results:
                        if self._error is not None:
                            raise self._error
                        self._cond.wait(_POLL_SECONDS)
                    chronologies, wall, worker, rtt = self._results.pop(task.index)
                    del self._by_index[task.index]
                    in_flight = len(self._claimed) + len(self._results)
                committed_at = time.perf_counter()
                finished_at = self._done_at.pop(task.index, committed_at)
                yield ShardOutcome(
                    task=task,
                    chronologies=chronologies,
                    wall_seconds=wall,
                    queue_depth=in_flight,
                    commit_lag_seconds=max(0.0, committed_at - finished_at),
                    retries=self._retries.get(task.index, 0),
                    worker=worker,
                    rtt_seconds=rtt,
                )
        finally:
            with self._cond:
                self._stopped = True
                self.discarded_in_flight = len(self._claimed) + len(self._results)
                self._by_index.clear()
                self._queue.clear()
                self._cond.notify_all()
            self.hub.unregister(self)
            if local_thread is not None:
                local_thread.join(timeout=30.0)
            del epoch

    # ------------------------------------------------------------------
    def _make_pool(self):
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        from .executor import _init_shard_worker

        return ProcessPoolExecutor(
            max_workers=self.n_jobs,
            mp_context=get_context("spawn"),
            initializer=_init_shard_worker,
            initargs=(self.config, self.root_state, self.engine),
        )

    def _local_loop(self) -> None:
        """Feed the local process pool from the shared queue.

        Mirrors :class:`PipelinedShardExecutor`'s fault tolerance: a
        ``BrokenProcessPool`` (at submit or result) abandons every
        in-flight local shard back to the queue (each charged one retry)
        and rebuilds the pool.
        """
        from .executor import _run_shard_task

        run_task = self._worker if self._worker is not None else _run_shard_task
        pool = None
        futures: Dict[Future, ShardTask] = {}
        try:
            pool = self._make_pool()
            while True:
                if not self.accepting():
                    if not futures:
                        return
                else:
                    while len(futures) < self.n_jobs:
                        task = self.claim("local", timeout=0.0)
                        if task is None:
                            break
                        try:
                            future = pool.submit(run_task, task)
                        except BrokenProcessPool:
                            self.pool_breaks += 1
                            self.abandon(task, "local pool broke at submit")
                            for lost_future, lost in list(futures.items()):
                                if _future_ok(lost_future):
                                    self._harvest(lost_future, futures.pop(lost_future))
                                else:
                                    futures.pop(lost_future)
                                    self.abandon(lost, "local pool broke")
                            pool.shutdown(wait=False, cancel_futures=True)
                            pool = self._make_pool()
                            break
                        futures[future] = task
                if not futures:
                    with self._cond:
                        if self._stopped or self._error is not None:
                            return
                        self._cond.wait(_POLL_SECONDS)
                    continue
                done, _ = wait(
                    set(futures), timeout=_POLL_SECONDS, return_when=FIRST_COMPLETED
                )
                broke = False
                for future in done:
                    task = futures.pop(future)
                    try:
                        self._harvest(future, task)
                    except BrokenProcessPool:
                        broke = True
                        self.abandon(task, "local pool broke")
                    except SimulationError as exc:
                        self.fail(exc)
                        return
                if broke:
                    self.pool_breaks += 1
                    for future, task in list(futures.items()):
                        if _future_ok(future):
                            try:
                                self._harvest(future, futures.pop(future))
                            except (BrokenProcessPool, SimulationError):
                                self.abandon(task, "local pool broke")
                        else:
                            futures.pop(future)
                            self.abandon(task, "local pool broke")
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = self._make_pool()
        except Exception as exc:  # pragma: no cover - defensive
            self.fail(exc)
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _harvest(self, future: Future, task: ShardTask) -> None:
        try:
            chronologies, wall_seconds = future.result()
        except BrokenProcessPool:
            raise
        except SimulationError:
            raise
        except Exception as exc:
            raise SimulationError(
                f"shard {task.index} raised in its worker: {exc!r}"
            ) from exc
        self.complete(task, chronologies, wall_seconds, worker="local")


__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "parse_endpoint",
    "chronology_to_dict",
    "chronology_from_dict",
    "send_frame",
    "FrameReader",
    "run_worker",
    "RemoteWorkerHub",
    "DistributedShardExecutor",
]
