"""Reliability-as-a-service: tiered query answering over HTTP.

:class:`ReliabilityService` is the transport-independent brain.  A query
(a JSON config payload plus horizon and precision target) is answered by
the cheapest trustworthy tier:

1. **Solver** — when the :mod:`repro.solver` classifier accepts the
   configuration, :func:`repro.solver.solve` answers in milliseconds;
   answers are memoised per ``(fingerprint, horizon)`` so repeats are
   sub-millisecond.
2. **Cache** — a fresh Monte Carlo result for the same canonical
   fingerprint and horizon whose achieved precision already meets the
   request is served directly.
3. **Cache-extend** — a cached but looser result *resumes* (the cached
   accumulator checkpoint is the starting point; shards keep folding in
   bit-identically) instead of recomputing from scratch.
4. **Simulate** — a cold background ``run_streaming(until=Precision)``
   job.  Identical in-flight queries coalesce onto one job; a
   non-blocking query gets the job's latest partial statistics.

:class:`ReliabilityServer` is a dependency-free ``asyncio`` HTTP/1.1
front-end (stdlib only — the container has no aiohttp); handlers await
job futures via :func:`asyncio.wrap_future`, so a thousand coalesced
waiters cost no threads.  :class:`ServiceThread` runs the whole thing on
a background thread for tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import threading
import time
from typing import Any, Dict, Mapping, Optional, Tuple

from ..exceptions import ReproError
from ..simulation.checkpoint import config_fingerprint
from ..simulation.config import RaidGroupConfig
from ..simulation.streaming import FleetAccumulator
from ..solver import classify, solve
from ..validation.fingerprint import fingerprint
from ..validation.generator import config_from_dict
from .cache import CacheEntry, ResultCache
from .jobs import JobManager, QuerySpec, RefinementJob

logger = logging.getLogger("repro.service")


class QueryError(ReproError):
    """A malformed query payload (HTTP 400)."""


def _finite_or_none(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def _accumulator_answer(
    accumulator: FleetAccumulator, confidence: float
) -> Dict[str, object]:
    """JSON-safe Monte Carlo answer from fleet statistics."""
    estimate, lo, hi = accumulator.ddfs_per_thousand_ci(confidence)
    times, curve = accumulator.grid_per_thousand()
    return {
        "groups": accumulator.n_groups,
        "total_ddfs": accumulator.total_ddfs,
        "ddfs_per_1000_mission": estimate,
        "ddfs_per_1000_ci": [lo, hi],
        "rel_ci_width": _finite_or_none(accumulator.relative_ci_width(confidence)),
        "confidence": confidence,
        "curve_times": [float(t) for t in times],
        "curve_ddfs_per_1000": [float(v) for v in curve],
    }


class _RequestContext:
    """Book-keeping for one query from parse to response."""

    __slots__ = ("spec", "source", "route", "reason", "started", "wait", "timeout")

    def __init__(
        self,
        spec: QuerySpec,
        source: str,
        route: str,
        reason: str,
        started: float,
        wait: bool,
        timeout: Optional[float],
    ) -> None:
        self.spec = spec
        self.source = source
        self.route = route
        self.reason = reason
        self.started = started
        self.wait = wait
        self.timeout = timeout


class ReliabilityService:
    """Tiered reliability query answering (transport-independent).

    The HTTP layer drives it in two phases: :meth:`begin` resolves the
    fast tiers synchronously and returns either a finished response or
    the :class:`~repro.service.jobs.RefinementJob` to await;
    :meth:`finish` (or :meth:`partial` on timeout / non-blocking
    queries) turns the job's outcome into the response.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        jobs: Optional[JobManager] = None,
        **job_kwargs: Any,
    ) -> None:
        self.cache = cache if cache is not None else ResultCache()
        self.jobs = (
            jobs if jobs is not None else JobManager(self.cache, **job_kwargs)
        )
        self._solver_memo: Dict[Tuple[str, float], Dict[str, object]] = {}
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self.requests = 0
        self.errors = 0
        self.cache_hits = 0
        self.cache_rescaled_hits = 0
        self._by_source: Dict[str, Dict[str, float]] = {}

    # -- observability -------------------------------------------------
    def _record(self, source: str, seconds: float) -> None:
        with self._lock:
            slot = self._by_source.setdefault(
                source, {"count": 0, "seconds_total": 0.0, "seconds_max": 0.0}
            )
            slot["count"] += 1
            slot["seconds_total"] += seconds
            slot["seconds_max"] = max(slot["seconds_max"], seconds)

    def stats(self) -> Dict[str, object]:
        """The ``/stats`` document: per-source counters + subsystem stats."""
        with self._lock:
            by_source = {k: dict(v) for k, v in self._by_source.items()}
            service = {
                "requests": self.requests,
                "errors": self.errors,
                "cache_hits": self.cache_hits,
                "cache_rescaled_hits": self.cache_rescaled_hits,
                "by_source": by_source,
                "solver_memo_entries": len(self._solver_memo),
                "uptime_seconds": time.monotonic() - self._started,
            }
        return {
            "service": service,
            "cache": self.cache.stats(),
            "jobs": self.jobs.stats(),
        }

    # -- query handling ------------------------------------------------
    def _parse(self, payload: Mapping) -> Tuple[RaidGroupConfig, float, bool]:
        if not isinstance(payload, Mapping):
            raise QueryError(f"query payload must be a JSON object, got {type(payload).__name__}")
        raw_config = payload.get("config")
        if not isinstance(raw_config, Mapping):
            raise QueryError('query payload must carry a "config" object')
        try:
            config = config_from_dict(dict(raw_config))
        except ReproError:
            raise
        except Exception as exc:
            raise QueryError(f"invalid configuration payload: {exc}") from exc
        horizon = payload.get("horizon_hours")
        horizon = config.mission_hours if horizon is None else float(horizon)
        if not 0.0 < horizon <= config.mission_hours:
            raise QueryError(
                f"horizon_hours must be in (0, mission_hours={config.mission_hours}]; "
                f"got {horizon}"
            )
        return config, horizon, bool(payload.get("force_simulation", False))

    def begin(
        self, payload: Mapping
    ) -> Tuple[Optional[Dict[str, object]], Optional[RefinementJob], _RequestContext]:
        """Resolve the fast tiers; hand back a job when simulation is needed.

        Returns ``(response, None, ctx)`` when a tier answered
        synchronously, else ``(None, job, ctx)`` — the caller awaits
        ``job.future`` (or not, for ``wait: false`` queries) and calls
        :meth:`finish` / :meth:`partial`.
        """
        started = time.perf_counter()
        with self._lock:
            self.requests += 1
        config, horizon, force_simulation = self._parse(payload)
        fp = fingerprint(config)
        classification = classify(config, horizon)
        wait = bool(payload.get("wait", True))
        timeout = payload.get("timeout_seconds")
        timeout = None if timeout is None else float(timeout)

        if classification.is_analytical and not force_simulation:
            response = self._solver_tier(config, fp, horizon, classification, started)
            ctx = _RequestContext(
                QuerySpec(config, fp, horizon, self.jobs.normalize_precision(None, None, None, None)),
                str(response["source"]),
                classification.route,
                classification.reason,
                started,
                wait,
                timeout,
            )
            return response, None, ctx

        raw_precision = payload.get("precision") or {}
        if not isinstance(raw_precision, Mapping):
            raise QueryError('"precision" must be a JSON object')
        precision = self.jobs.normalize_precision(
            raw_precision.get("rel_ci_width"),
            raw_precision.get("confidence"),
            raw_precision.get("min_groups"),
            raw_precision.get("max_groups"),
        )
        spec = QuerySpec(config, fp, horizon, precision)
        route = "monte-carlo" if not force_simulation else classification.route
        reason = (
            classification.reason
            if not force_simulation
            else "simulation forced by the query"
        )

        disposition, entry = self.cache.lookup(
            self.jobs.cache_key(spec),
            precision,
            expected_run_fingerprint=config_fingerprint(config),
        )
        if disposition in ("hit", "hit_rescaled"):
            assert entry is not None
            source = "cache" if disposition == "hit" else "cache-rescaled"
            ctx = _RequestContext(spec, source, route, reason, started, wait, timeout)
            with self._lock:
                if disposition == "hit":
                    self.cache_hits += 1
                else:
                    self.cache_rescaled_hits += 1
            return self._entry_response(ctx, entry), None, ctx

        job, coalesced = self.jobs.submit(
            spec, entry if disposition == "extend" else None
        )
        source = (
            "coalesced"
            if coalesced
            else ("cache-extend" if disposition == "extend" else "simulated")
        )
        ctx = _RequestContext(spec, source, route, reason, started, wait, timeout)
        return None, job, ctx

    def _solver_tier(
        self,
        config: RaidGroupConfig,
        fp: str,
        horizon: float,
        classification,
        started: float,
    ) -> Dict[str, object]:
        memo_key = (fp, horizon)
        with self._lock:
            answer = self._solver_memo.get(memo_key)
        if answer is not None:
            source = "solver-cache"
        else:
            source = "solver"
            answer = solve(config, horizon_hours=horizon).to_dict()
            with self._lock:
                self._solver_memo.setdefault(memo_key, answer)
        return self._respond(
            fp,
            horizon,
            status="complete",
            source=source,
            route=classification.route,
            reason=classification.reason,
            answer=answer,
            started=started,
        )

    def _entry_response(
        self, ctx: _RequestContext, entry: CacheEntry
    ) -> Dict[str, object]:
        # Answered at the *query's* confidence: the accumulator stores
        # full moments, so the interval at any level is exact — this is
        # what makes cross-confidence ("cache-rescaled") hits honest.
        accumulator = entry.checkpoint.accumulator()
        return self._respond(
            ctx.spec.fingerprint,
            ctx.spec.horizon_hours,
            status="complete",
            source=ctx.source,
            route=ctx.route,
            reason=ctx.reason,
            answer=_accumulator_answer(accumulator, ctx.spec.precision.confidence),
            started=ctx.started,
        )

    def finish(self, ctx: _RequestContext, streaming) -> Dict[str, object]:
        """Response for a query whose refinement job completed."""
        answer = _accumulator_answer(
            streaming.accumulator, ctx.spec.precision.confidence
        )
        answer["converged"] = streaming.converged
        answer["stop_reason"] = streaming.stop_reason
        return self._respond(
            ctx.spec.fingerprint,
            ctx.spec.horizon_hours,
            status="complete",
            source=ctx.source,
            route=ctx.route,
            reason=ctx.reason,
            answer=answer,
            started=ctx.started,
        )

    def partial(self, ctx: _RequestContext, job: RefinementJob) -> Dict[str, object]:
        """Response for a mid-flight query (``wait: false`` or timed out)."""
        snapshot = job.snapshot()
        if snapshot is None:
            answer: Dict[str, object] = {"groups": 0}
            status = "pending"
        else:
            status = "refining"
            answer = {
                "groups": snapshot.groups_completed,
                "total_ddfs": snapshot.total_ddfs,
                "ddfs_per_1000_mission": snapshot.ddfs_per_1000,
                "ddfs_per_1000_ci": [snapshot.ci_lo, snapshot.ci_hi],
                "rel_ci_width": _finite_or_none(snapshot.rel_ci_width),
                "confidence": ctx.spec.precision.confidence,
                "simulation_seconds": snapshot.elapsed_seconds,
            }
        return self._respond(
            ctx.spec.fingerprint,
            ctx.spec.horizon_hours,
            status=status,
            source="partial",
            route=ctx.route,
            reason=ctx.reason,
            answer=answer,
            started=ctx.started,
        )

    def _respond(
        self,
        fp: str,
        horizon: float,
        *,
        status: str,
        source: str,
        route: str,
        reason: str,
        answer: Dict[str, object],
        started: float,
    ) -> Dict[str, object]:
        seconds = time.perf_counter() - started
        self._record(source, seconds)
        return {
            "status": status,
            "source": source,
            "route": route,
            "reason": reason,
            "fingerprint": fp,
            "horizon_hours": horizon,
            "server_seconds": seconds,
            "answer": answer,
        }

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def close(self) -> None:
        self.jobs.shutdown()


# ----------------------------------------------------------------------
# HTTP front-end (stdlib asyncio only)
# ----------------------------------------------------------------------

_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found", 500: "Internal Server Error"}


class ReliabilityServer:
    """Minimal asyncio HTTP/1.1 server for :class:`ReliabilityService`.

    Routes: ``GET /healthz``, ``GET /stats``, ``POST /query``.  One
    request per connection (``Connection: close``) keeps the parser
    trivially correct; clients batch via concurrency, not keep-alive.
    """

    MAX_BODY_BYTES = 4 * 1024 * 1024

    def __init__(
        self,
        service: ReliabilityService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, document = await self._dispatch(reader)
        except QueryError as exc:
            self.service.record_error()
            status, document = 400, {"error": str(exc)}
        except ReproError as exc:
            self.service.record_error()
            status, document = 400, {"error": str(exc)}
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("unhandled error serving request")
            self.service.record_error()
            status, document = 500, {"error": f"{type(exc).__name__}: {exc}"}
        body = json.dumps(document).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Error')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _dispatch(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Dict[str, object]]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            raise QueryError(f"malformed request line {request_line!r}")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

        if method == "GET" and path == "/healthz":
            return 200, {"status": "ok"}
        if method == "GET" and path == "/stats":
            return 200, self.service.stats()
        if method == "POST" and path == "/query":
            length = int(headers.get("content-length", "0"))
            if length > self.MAX_BODY_BYTES:
                raise QueryError(f"request body too large ({length} bytes)")
            body = await reader.readexactly(length) if length else b""
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise QueryError(f"request body is not valid JSON: {exc}") from exc
            return 200, await self._query(payload)
        return 404, {"error": f"no route for {method} {path}"}

    async def _query(self, payload: Mapping) -> Dict[str, object]:
        response, job, ctx = self.service.begin(payload)
        if response is not None:
            return response
        assert job is not None
        if not ctx.wait:
            return self.service.partial(ctx, job)
        # Shield: a client hanging up must not cancel the shared job
        # other coalesced waiters (and the cache) depend on.
        waiter = asyncio.shield(asyncio.wrap_future(job.future))
        try:
            streaming = await asyncio.wait_for(waiter, ctx.timeout)
        except asyncio.TimeoutError:
            return self.service.partial(ctx, job)
        return self.service.finish(ctx, streaming)


# ----------------------------------------------------------------------
# Embedding helpers
# ----------------------------------------------------------------------


class ServiceThread:
    """Run a :class:`ReliabilityServer` on a background thread.

    The test suite and benchmark harness embed the full HTTP stack
    in-process::

        with ServiceThread(service) as handle:
            requests.post(handle.url("/query"), json=...)
    """

    def __init__(
        self,
        service: ReliabilityService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self._server = ReliabilityServer(service, host=host, port=port)
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Future] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-http", daemon=True
        )
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        return self._server.port

    def url(self, path: str = "/") -> str:
        return f"http://{self._server.host}:{self._server.port}{path}"

    def start(self) -> "ServiceThread":
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("service did not start within 30s")
        return self

    def stop(self) -> None:
        loop = self._loop
        if loop is not None and self._stop is not None:
            loop.call_soon_threadsafe(
                lambda: self._stop.set_result(None) if not self._stop.done() else None
            )
        self._thread.join(timeout=30.0)
        self.service.close()

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failure path
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = self._loop.create_future()
        await self._server.start()
        self._ready.set()
        try:
            await self._stop
        finally:
            await self._server.close()


def serve(
    host: str = "127.0.0.1",
    port: int = 8790,
    *,
    cache_dir: Optional[str] = None,
    max_entries: Optional[int] = None,
    remote_workers: Optional[str] = None,
    **job_kwargs: Any,
) -> None:
    """Blocking entry point behind ``repro serve``.

    ``remote_workers`` is a ``host:port`` bind address; when given, the
    service opens a :class:`~repro.simulation.remote.RemoteWorkerHub`
    there and every cold/extend simulation job fans its shards across
    whatever ``repro worker --connect`` processes have dialed in (plus
    the local shard pool), bit-identically to a local run.
    """
    from .cache import DEFAULT_MAX_ENTRIES

    cache = ResultCache(
        max_entries=max_entries if max_entries is not None else DEFAULT_MAX_ENTRIES,
        cache_dir=cache_dir,
    )
    hub = None
    if remote_workers is not None:
        from ..simulation.remote import RemoteWorkerHub

        hub = RemoteWorkerHub(bind=remote_workers)
        job_kwargs["workers"] = hub
    service = ReliabilityService(cache=cache, **job_kwargs)
    server = ReliabilityServer(service, host=host, port=port)

    async def _main() -> None:
        await server.start()
        print(
            f"repro serve: listening on http://{server.host}:{server.port} "
            f"(workers={service.jobs.max_workers}, engine={service.jobs.engine!r}, "
            f"cache={'disk:' + cache_dir if cache_dir else 'memory'}"
            + (f", remote workers on {hub.address}" if hub is not None else "")
            + ")",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("repro serve: shutting down", flush=True)
    finally:
        service.close()
        if hub is not None:
            hub.close()
