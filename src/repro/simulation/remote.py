"""TCP remote-worker backend for the shard executor.

The spawn-key seed reconstruction (:func:`.executor._child_seed`) makes a
:class:`~repro.simulation.executor.ShardTask` a pure function of its
indices: any process on any host that knows the run constants (config,
root seed state, engine) can simulate any shard and produce byte-identical
chronologies.  This module exploits that to extend the shard executor past
one machine with *unchanged semantics*:

* :func:`run_worker` — the ``repro worker --connect HOST:PORT`` client
  loop.  It dials the coordinator, announces itself, receives the run
  constants, then pulls *runs* of consecutive shards (work stealing: a
  fast host simply asks more often).  It simulates each run with the
  local run function a pool task runs
  (:func:`~repro.simulation.executor._run_shard_run`) and answers with
  one length-prefixed JSON ``result`` frame per run
  (:func:`result_frame`): one summary per shard, plus the chronologies
  in columns when the run keeps them.  A background thread heartbeats;
  a dropped connection triggers reconnect with exponential backoff.

* :class:`RemoteWorkerHub` — the coordinator side.  A listening socket
  plus one thread per connected worker.  Each worker thread drives the
  handshake, claims runs from the active session's queue (the
  :class:`~repro.simulation.executor.PipelinedShardExecutor` whose
  ``hub`` this is, beside its local pool), and publishes each run with
  one ``complete`` call once its frame has arrived and decoded.  It
  sends the worker its next run as soon as the current run's frame
  arrives, so a link holds at most two runs.  Heartbeat staleness, a
  socket error or a frame that does not decode into exactly its run
  abandons every shard not yet published to the queue, each *charged*
  one retry against ``max_retries``, the same path a local pool break
  takes, and drops the link.  So does any frame but a heartbeat or the
  awaited run's answer while a link awaits a run.  An idle link waits on
  the hub's condition, which :meth:`RemoteWorkerHub.register` notifies,
  so a new run reaches idle workers at once.  Because commits stay
  strictly in shard order and each shard is reseeded from its index, a
  distributed run is bit-identical to a serial one — through
  checkpoint/resume, convergence stopping (in-flight remote shards are
  drained and discarded), and mid-run worker loss.

* :class:`DistributedShardExecutor` — the executor with its ``hub``
  required.

Wire format (version 5): every frame is a 4-byte big-endian unsigned
length followed by that many bytes of UTF-8 JSON.  JSON round-trips
Python floats and ints exactly, so summaries and chronologies survive
the wire bit-identical.  Messages carry a ``t`` tag:

====================  =======================================================
coordinator → worker
====================  =======================================================
``init``              run constants: ``epoch``, ``engine``, ``config``,
                      ``root_state``, ``time_grid`` (the summaries' curve
                      ages, or null) and ``keep_chronologies``
``task``              one run of consecutive shards: ``epoch``, ``shards``
                      (one ``[index, group_offset, n_groups]`` per shard)
``drain``             no work right now (convergence drain / between runs)
====================  =======================================================

====================  =======================================================
worker → coordinator
====================  =======================================================
``hello``             ``v`` (protocol version), ``host``, ``pid``
``init_ok``           worker accepted the run constants (``epoch``)
``init_err``          worker does not know the engine or cannot run it
                      for this config (``epoch``, ``reason``)
``result``            one whole run: ``epoch``, ``index`` (the run's first
                      shard), ``wall_seconds`` (the run's), ``summaries``
                      (one :class:`~repro.simulation.streaming.FleetAccumulator`
                      ``to_dict()`` per shard, in run order) and, only when
                      the run keeps chronologies, ``columns`` (one
                      :func:`chronology_to_dict` per shard)
``task_err``          the run raised on the worker (``epoch``, ``index``
                      of its first shard, ``error``) — fails the run with
                      the real error instead of burning retries
``hb``                heartbeat (also sent while a long run simulates)
====================  =======================================================

The ``epoch`` stamps every task/result with the run it belongs to.  A
worker answers frames in order on one thread, so every answer to an
earlier epoch (a result that limps in after its run drained) reaches the
hub before this epoch's ``init_ok``, and the hub's wait for that
``init_ok`` passes over them.  From then on, while a link awaits a run, it
accepts only ``hb`` and that run's ``result`` or ``task_err`` of this
epoch; a ``result`` must carry a finite ``wall_seconds`` >= 0 and, for
each of its shards, a summary (and kept columns) of exactly that shard's
groups, mission and time grid.  Any other frame is handled as a lost
connection.  A hub refuses a ``hello`` from another protocol version
before it sends anything.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import socket
import struct
import threading
import time
from collections import deque
from operator import attrgetter
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..exceptions import ReproError, SimulationError
from .config import RaidGroupConfig
from .executor import (
    _POLL_SECONDS,
    PipelinedShardExecutor,
    ShardResult,
    ShardTask,
    _describe,
    _run_shard_run,
)
from .raid_simulator import DDFType, GroupChronology
from .streaming import FleetAccumulator

PROTOCOL_VERSION = 6

#: Hard cap on a single frame — a kernel-width run of pathological
#: chronologies is well under 64 MiB; anything larger is a corrupt or
#: hostile peer, not a payload.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Seconds between worker heartbeats.
DEFAULT_HEARTBEAT_INTERVAL = 1.0

#: Coordinator-side staleness bound: a worker silent this long is
#: presumed dead and its unfinished shards are abandoned back to the queue.
DEFAULT_HEARTBEAT_TIMEOUT = 15.0

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
# Chronology wire codec.  One shard's chronologies travel as one dict of
# columns, one list per GroupChronology field in group order.  JSON
# floats are exact (repr round-trip) and enums travel by value, so the
# decoded chronologies equal the originals.

#: GroupChronology's scalar fields in declaration order; the two fields
#: before them are the DDF lists.
_SCALARS = tuple(field.name for field in dataclasses.fields(GroupChronology))[2:]


def chronology_to_dict(chronologies: Sequence[GroupChronology]) -> dict:
    """One shard's chronologies as columns, one list per field."""
    columns = {
        "ddf_times": [c.ddf_times for c in chronologies],
        "ddf_types": [[t.value for t in c.ddf_types] for c in chronologies],
    }
    for name in _SCALARS:
        columns[name] = list(map(attrgetter(name), chronologies))
    return columns


def chronology_from_dict(columns: dict) -> List[GroupChronology]:
    """The chronologies of one shard from :func:`chronology_to_dict`'s columns.

    Raises ValueError if the columns differ in length.
    """
    kinds = [[DDFType(v) for v in values] for values in columns["ddf_types"]]
    return [
        GroupChronology(times, types, *scalars)
        for times, types, *scalars in zip(
            columns["ddf_times"],
            kinds,
            *(columns[name] for name in _SCALARS),
            strict=True,
        )
    ]


def _int_field(message: dict, key: str) -> Optional[int]:
    """``message[key]`` when it is an int (not a bool), else None."""
    value = message.get(key)
    return value if isinstance(value, int) and not isinstance(value, bool) else None


def result_frame(
    epoch: int,
    run: Sequence[ShardTask],
    per_shard: Sequence[ShardResult],
    wall_seconds: float,
) -> dict:
    """The ``result`` frame answering one run: one summary per shard, in
    run order, and their chronologies as columns when the run keeps them."""
    frame = {
        "t": "result",
        "epoch": epoch,
        "index": run[0].index,
        "wall_seconds": wall_seconds,
        "summaries": [summary.to_dict() for summary, _ in per_shard],
    }
    if per_shard[0][1] is not None:
        frame["columns"] = [chronology_to_dict(kept) for _, kept in per_shard]
    return frame


def _decode_result(
    message: dict, run: Sequence[ShardTask], session: PipelinedShardExecutor
) -> Tuple[List[ShardResult], float]:
    """A result frame's per-shard results and the run's wall time.

    Raises ConnectionError, which the link handles as a lost socket,
    unless the frame decodes and describes exactly ``run``: a finite
    ``wall_seconds`` >= 0, one summary per shard of the shard's groups
    over the session's mission and time grid, and, when the session
    keeps chronologies, one column set per shard of that many groups.
    """
    try:
        wall_seconds = message["wall_seconds"]
        if isinstance(wall_seconds, bool) or not 0.0 <= wall_seconds < math.inf:
            raise ValueError(f"wall_seconds {wall_seconds!r} is not a finite time >= 0")
        summaries = [FleetAccumulator.from_dict(state) for state in message["summaries"]]
        kept = (
            [chronology_from_dict(columns) for columns in message["columns"]]
            if session.keep_chronologies
            else [None] * len(run)
        )
    except (KeyError, TypeError, ValueError, ArithmeticError, ReproError) as exc:
        # Everything a peer's JSON can make the decoders raise.
        raise ConnectionError(
            f"undecodable result frame for {_describe(run)}: {exc!r}"
        ) from exc
    for count, what in ((len(summaries), "summaries"), (len(kept), "column sets")):
        if count != len(run):
            raise ConnectionError(
                f"result frame for {_describe(run)} carries {count} {what}"
            )
    for task, summary, chronologies in zip(run, summaries, kept):
        grid = None if summary.time_grid is None else summary.time_grid.tolist()
        if summary.n_groups != task.n_groups:
            problem = f"a summary of {summary.n_groups} groups"
        elif summary.mission_hours != session.config.mission_hours:
            problem = f"a summary over a {summary.mission_hours}-hour mission"
        elif grid != session.time_grid:
            problem = "a summary over another time grid"
        elif chronologies is not None and len(chronologies) != task.n_groups:
            problem = f"{len(chronologies)} chronologies"
        else:
            continue
        raise ConnectionError(
            f"result frame for shard {task.index} of {task.n_groups} groups "
            f"carries {problem}"
        )
    return list(zip(summaries, kept)), float(wall_seconds)


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
    :class:`ConnectionError` on EOF or a malformed frame.  A zero timeout
    takes what the socket already holds without waiting.
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
            if remaining <= 0 and timeout > 0:
                return None
            self._sock.settimeout(max(remaining, 0.0))
            try:
                chunk = self._sock.recv(1 << 20)
            except (socket.timeout, BlockingIOError):
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

    Returns the number of shards this worker simulated and sent back over
    all its sessions; runs forever across reconnects unless
    ``max_reconnects`` consecutive failed dials are exhausted or ``stop``
    is set.
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
    """One connected session: handshake, then the pull-simulate-push loop.

    Returns the shards sent back, also when the coordinator hung up, which
    is how a session usually ends.
    """
    send_lock = threading.Lock()
    reader = FrameReader(sock)
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
    config: Optional[RaidGroupConfig] = None
    root_state: Optional[dict] = None
    time_grid: Optional[List[float]] = None
    keep_chronologies = False
    engine = "event"
    epoch = -1
    completed = 0
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
        hb_thread.start()
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
                # support is per-config (the batch engine cannot run some
                # structures), and a config this host cannot even
                # deserialize is an init_err, not a crash.  So is a time
                # grid no summary can be built over.
                try:
                    new_config = config_from_dict(message["config"])
                    time_grid = message.get("time_grid")
                    FleetAccumulator(new_config.mission_hours, time_grid=time_grid)
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
                keep_chronologies = bool(message.get("keep_chronologies"))
                send_frame(sock, send_lock, {"t": "init_ok", "epoch": epoch})
            elif kind == "task":
                if config is None or int(message["epoch"]) != epoch:
                    continue  # stale task from a drained run
                run = [
                    ShardTask(index=int(i), group_offset=int(o), n_groups=int(n))
                    for i, o, n in message["shards"]
                ]
                try:
                    per_shard, wall_seconds = _run_shard_run(
                        config, root_state, engine, run, None, time_grid, keep_chronologies
                    )
                except Exception as exc:
                    # A deterministic failure must reach the coordinator
                    # as an actionable error, not kill the worker (which
                    # would surface only as a heartbeat timeout and burn
                    # retries on a run that fails identically everywhere).
                    send_frame(
                        sock,
                        send_lock,
                        {
                            "t": "task_err",
                            "epoch": epoch,
                            "index": run[0].index,
                            "error": repr(exc),
                        },
                    )
                    continue
                send_frame(
                    sock, send_lock, result_frame(epoch, run, per_shard, wall_seconds)
                )
                completed += len(run)
            elif kind == "drain":
                continue  # nothing to do right now; keep listening
            # unknown tags are ignored for forward compatibility
    except (ConnectionError, OSError):
        pass  # the coordinator hung up; the caller redials
    finally:
        hb_stop.set()
        if hb_thread.is_alive():
            hb_thread.join(timeout=2 * heartbeat_interval)
    return completed


def _engine_unavailable_reason(
    engine: str, config: RaidGroupConfig
) -> Optional[str]:
    """Why this host cannot run ``engine`` for ``config``, or None if it can.

    An engine name this worker does not know is refused rather than run
    on the event loop, which would commit chronologies from the wrong
    random streams.
    """
    if engine == "batch":
        reason = config.batch_engine_unsupported_reason
        if reason is not None:
            return f"batch engine cannot run this config: {reason}"
    elif engine != "event":
        return f"unknown engine {engine!r}: this worker runs 'event' and 'batch'"
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
        # Sessions whose engine this worker rejected via init_err.
        self.rejected: Set[int] = set()

    def send(self, message: dict) -> None:
        send_frame(self.sock, self.send_lock, message)

    def poll(self) -> None:
        """Take every frame already received without waiting.

        Between runs only heartbeats and stale results arrive, so the
        frames are dropped; each proves the worker alive.
        """
        while self.reader.read(0.0) is not None:
            self.last_seen = time.monotonic()

    def stats(self) -> dict:
        return {
            "worker": self.name,
            "shards_committed": self.shards_committed,
            "wall_seconds": round(self.wall_seconds, 6),
            "mean_rtt_seconds": round(
                self.rtt_total / self.shards_committed if self.shards_committed else 0.0,
                6,
            ),
        }


class RemoteWorkerHub:
    """Accept `repro worker` connections and feed them the active run.

    The hub outlives individual runs: `repro serve` creates one hub and
    every cold job registers its executor as the active *session*;
    between sessions connected workers idle on ``drain`` frames.  One hub
    thread accepts connections; one thread per worker alternates between
    idling and driving the active session's claim/await-result loop.
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
        self._session: Optional[PipelinedShardExecutor] = None
        self._epoch = 0
        self._closed = threading.Event()
        self._threads: List[threading.Thread] = []
        self._seq = 0
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-hub-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def register(self, session: PipelinedShardExecutor) -> int:
        """Make ``session`` the active run; returns its epoch stamp.

        One distributed run owns the worker fleet at a time; concurrent
        runs (e.g. two service jobs) queue here until the active one
        unregisters.  Idle links wait on the hub's condition, so the
        notification starts them on the run at once.
        """
        with self._lock:
            while self._session is not None:
                if self._closed.is_set():
                    raise SimulationError("RemoteWorkerHub is closed")
                self._lock.wait(_POLL_SECONDS)
            self._epoch += 1
            self._session = session
            self._lock.notify_all()
            return self._epoch

    def unregister(self, session: PipelinedShardExecutor) -> None:
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
        # Closing a listening socket does not wake a thread blocked in its
        # accept(); shutting it down does, so close() need not wait out
        # the accept loop's poll timeout.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
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
            # Only live links' threads are kept, so a hub whose workers
            # redial does not grow the list for as long as it runs.
            self._threads = [t for t in self._threads if t.is_alive()] + [thread]
            thread.start()

    def _link_loop(self, sock: socket.socket, name: str) -> None:
        link = _WorkerLink(sock, name)
        try:
            hello = link.reader.read(timeout=10.0)
            if not hello or hello.get("t") != "hello":
                return
            if hello.get("v") != PROTOCOL_VERSION:
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
                if session is None or not session.accepting() or epoch in link.rejected:
                    if not self._idle(link, epoch):
                        return
                    continue
                self._drive(link, session, epoch)
        except (ConnectionError, OSError):
            pass
        finally:
            with self._lock:
                if self._links.get(name) is link:
                    del self._links[name]
            try:
                sock.close()
            except OSError:
                pass

    def _idle(self, link: _WorkerLink, epoch: int) -> bool:
        """Nothing to serve: drain frames, then wait for the next session.

        :meth:`register` notifies the wait, so a new session starts at
        once; the poll quantum only paces the ``drain`` frames whose send
        notices a dead socket.  False once the link is lost.
        """
        try:
            link.send({"t": "drain"})
            link.poll()
        except (ConnectionError, OSError):
            return False
        with self._lock:
            if self._epoch == epoch and not self._closed.is_set():
                self._lock.wait(_POLL_SECONDS)
        return True

    def _drive(
        self, link: _WorkerLink, session: PipelinedShardExecutor, epoch: int
    ) -> None:
        """Run one worker against the active session until it ends.

        The link sends the worker its next run as soon as the current
        run's frame arrives, so at most two runs are out at once, and
        publishes each run with one ``complete`` call once its frame is
        decoded.  A socket error, heartbeat staleness, a frame other
        than a heartbeat or the awaited run's answer, or a result frame
        that does not decode into exactly its run abandons every shard
        not yet published (charged one retry each) and propagates as
        ConnectionError to drop the link; a convergence drain abandons
        them uncharged.
        """
        from ..validation.generator import config_to_dict

        link.send(
            {
                "t": "init",
                "epoch": epoch,
                "engine": session.engine,
                "config": config_to_dict(session.config),
                "root_state": session.root_state,
                "time_grid": session.time_grid,
                "keep_chronologies": session.keep_chronologies,
            }
        )
        # Staleness-based, like _await_result: a worker still finishing a
        # long stale run from a previous session heartbeats (and may
        # push stale results) before it gets to the init frame — any
        # traffic proves it alive, so only true silence drops it.  A
        # worker answers frames in order on one thread, so every answer
        # to an earlier epoch arrives before this init_ok: this wait
        # passes over all of them, and _await_result sees none.
        link.last_seen = time.monotonic()
        while True:
            message = link.reader.read(_POLL_SECONDS)
            if message is not None:
                link.last_seen = time.monotonic()
                kind = message.get("t")
                if kind == "init_ok" and _int_field(message, "epoch") == epoch:
                    break
                if kind == "init_err" and _int_field(message, "epoch") == epoch:
                    link.rejected.add(epoch)
                    return
            elif time.monotonic() - link.last_seen > self.heartbeat_timeout:
                raise ConnectionError("worker did not answer init")

        # The runs sent to the worker and not yet published, oldest first,
        # each with when it was sent.  A run joins before it is sent, so a
        # failed send abandons it too.
        out: Deque[Tuple[Tuple[ShardTask, ...], float]] = deque()
        try:
            while True:
                if not out:
                    if not session.accepting():
                        return
                    run = session.claim(link.name, timeout=_POLL_SECONDS)
                    if run is None:
                        # Nothing claimable; keep liveness fresh.
                        link.poll()
                        if time.monotonic() - link.last_seen > self.heartbeat_timeout:
                            raise ConnectionError("worker heartbeat timed out while idle")
                        continue
                    out.append((run, time.perf_counter()))
                    self._send_run(link, epoch, run)
                run, sent_at = out[0]
                message = self._await_result(link, session, epoch, run[0].index)
                if message is None:
                    # The session stopped accepting while runs were out
                    # (convergence drain): discard them, uncharged.
                    session.abandon(
                        [task for sent, _ in out for task in sent], "drained", charge=False
                    )
                    return
                if message.get("t") == "task_err":
                    # The run raised deterministically on the worker —
                    # retrying it elsewhere would fail identically, so
                    # fail the run with the real error, as a local run
                    # that raises does, instead of burning retries.
                    session.fail(
                        SimulationError(
                            f"{_describe(run)} raised on {link.name}: "
                            f"{message.get('error')}"
                        )
                    )
                    return
                rtt = time.perf_counter() - sent_at
                # Send the next run before decoding this frame, so the
                # worker simulates while this process decodes and commits.
                # Sent after publishing, it would wait for the interpreter
                # lock that the woken consumer's commit holds, and the
                # worker would start up in the middle of the consumer's
                # own work.
                following = session.claim(link.name)
                lost: Optional[OSError] = None
                if following is not None:
                    out.append((following, time.perf_counter()))
                    try:
                        self._send_run(link, epoch, following)
                    except OSError as exc:
                        lost = exc
                per_shard, wall_seconds = _decode_result(message, run, session)
                try:
                    session.complete(
                        run, per_shard, wall_seconds, worker=link.name, rtt_seconds=rtt
                    )
                except SimulationError as exc:
                    raise ConnectionError(str(exc)) from exc
                out.popleft()
                link.shards_committed += len(run)
                link.wall_seconds += wall_seconds
                link.rtt_total += rtt
                if lost is not None:
                    raise lost
        except OSError as exc:
            # ConnectionError included: a bad frame drops the link too.
            session.abandon(
                [task for sent, _ in out for task in sent], f"{link.name}: {exc}"
            )
            raise ConnectionError(str(exc)) from exc

    @staticmethod
    def _send_run(link: _WorkerLink, epoch: int, run: Tuple[ShardTask, ...]) -> None:
        """Send one claimed run to the worker."""
        link.send(
            {
                "t": "task",
                "epoch": epoch,
                "shards": [[task.index, task.group_offset, task.n_groups] for task in run],
            }
        )

    def _await_result(
        self,
        link: _WorkerLink,
        session: PipelinedShardExecutor,
        epoch: int,
        index: int,
    ) -> Optional[dict]:
        """Wait for the result of the run starting at shard ``index``,
        policing heartbeats.

        Returns the run's ``result`` (or ``task_err``) frame, or None if
        the session stops accepting first (drain).  Heartbeats are the
        only other frames a worker sends now: it answers its runs in
        order, and its answers to earlier epochs all came before this
        epoch's ``init_ok``.  So any other frame, a stale or future epoch
        and another run's answer included, raises ConnectionError.
        """
        while True:
            message = link.reader.read(_POLL_SECONDS)
            if message is not None:
                link.last_seen = time.monotonic()
                kind = message.get("t")
                if kind == "hb":
                    continue
                got_epoch = _int_field(message, "epoch")
                got_index = _int_field(message, "index")
                if kind in ("result", "task_err") and (got_epoch, got_index) == (epoch, index):
                    return message
                raise ConnectionError(
                    f"{kind!r} frame of epoch {got_epoch} for the run at shard "
                    f"{got_index} while the run at shard {index} of epoch {epoch} "
                    "was due"
                )
            if time.monotonic() - link.last_seen > self.heartbeat_timeout:
                raise ConnectionError(
                    f"worker heartbeat timed out awaiting the run at shard {index}"
                )
            if not session.accepting():
                return None


# ----------------------------------------------------------------------
class DistributedShardExecutor(PipelinedShardExecutor):
    """A :class:`~repro.simulation.executor.PipelinedShardExecutor` whose
    ``hub`` is required: the local pool (``n_jobs`` may be 0) and every
    worker connected to the hub claim runs from one queue."""

    def __init__(self, *args: Any, hub: RemoteWorkerHub, **kwargs: Any) -> None:
        super().__init__(*args, hub=hub, **kwargs)


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
