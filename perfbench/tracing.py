"""Span tracing from outside the program: wrappers, recorder, self time.

:func:`install` replaces public entry points of the program's layers with
wrappers that record one span per call: name, start, end, parent span
and a tag (run or request id, or a per-call size).  Spans stay in memory
in a :class:`Tracer`; a subprocess writes them out when it exits
(:meth:`Tracer.dump`).  Nothing under ``src/`` changes — the wrappers
are attribute replacements made before the workload starts, so an
untraced run executes the program exactly as shipped.

A layer's *self time* is the duration of its spans minus the part their
child spans cover (:func:`self_times`).  Parents are tracked per thread,
so every child interval lies inside its parent's.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Span name -> layer (module) it belongs to, for the self-time split.
LAYER_OF = {
    "Distribution.sample": "repro.distributions",
    "simulate_groups_batch": "repro.simulation.batch",
    "FleetAccumulator.add_shard": "repro.simulation.streaming",
    "save_checkpoint": "repro.simulation.checkpoint",
    "atomic_write_text": "repro.simulation.checkpoint",
    "MonteCarloRunner.run_streaming": "repro.simulation.monte_carlo",
    "executor.wait": "repro.simulation.executor",
    "chronology_to_dict": "repro.simulation.remote",
    "chronology_from_dict": "repro.simulation.remote",
    "send_frame": "repro.simulation.remote",
    "fingerprint": "repro.validation",
    "classify": "repro.solver",
    "solve": "repro.solver",
    "ResultCache.lookup": "repro.service.cache",
    "ResultCache.put": "repro.service.cache",
    "RunCheckpoint.accumulator": "repro.service.cache",
    "JobManager.submit": "repro.service.jobs",
    "JobManager.run_simulation": "repro.service.jobs",
    "ReliabilityService.begin": "repro.service.server",
    "bench.probe": "benchmark (probe)",
    "bench.read": "benchmark (reads)",
}


class Tracer:
    """Thread-safe in-memory span recorder.

    Each span is a list ``[name, start, end, parent, tag]``; ``parent``
    is the index of the enclosing span on the same thread (-1 at top
    level) and times are ``time.perf_counter()`` seconds.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, tag: Any = None) -> list:
        stack = self._stack()
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, tag]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        return record

    def close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack().pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        tag: Optional[Callable[..., Any]] = None,
        result_tag: Optional[Callable[[Any], Any]] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``tag(*args, **kwargs)`` labels the span from the arguments;
        ``result_tag(result)`` labels it from the return value instead.
        """

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            record = self.open(name, tag(*args, **kwargs) if tag else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(record)
            if result_tag is not None:
                record[4] = result_tag(result)
            return result

        return wrapper

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """Generator function ``fn`` with one span around every ``next()``."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            inner = fn(*args, **kwargs)

            def timed():
                try:
                    while True:
                        record = self.open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self.close(record)
                        yield item
                finally:
                    inner.close()

            return timed()

        return wrapper

    def dump(self, path: str) -> None:
        with self._lock:
            spans = [list(s) for s in self.spans]
        with open(path, "w") as handle:
            json.dump(spans, handle)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the program (once per process)."""
    import repro.distributions as distributions
    import repro.service.cache as cache_mod
    import repro.service.jobs as jobs_mod
    import repro.service.server as server_mod
    import repro.simulation.checkpoint as checkpoint_mod
    import repro.simulation.executor as executor_mod
    import repro.simulation.monte_carlo as mc_mod
    import repro.simulation.remote as remote_mod
    import repro.simulation.streaming as streaming_mod

    def classes(base: type) -> Iterable[type]:
        for sub in base.__subclasses__():
            yield sub
            yield from classes(sub)

    for cls in {distributions.Distribution, *classes(distributions.Distribution)}:
        if "sample" in vars(cls):
            cls.sample = tracer.wrap("Distribution.sample", vars(cls)["sample"])

    kernel = tracer.wrap(
        "simulate_groups_batch",
        mc_mod.simulate_groups_batch,
        tag=lambda *a, **k: a[1] if len(a) > 1 else k["n_groups"],
    )
    mc_mod.simulate_groups_batch = kernel
    executor_mod.simulate_groups_batch = kernel

    acc = streaming_mod.FleetAccumulator
    acc.add_shard = tracer.wrap("FleetAccumulator.add_shard", acc.add_shard)

    atomic = tracer.wrap(
        "atomic_write_text",
        checkpoint_mod.atomic_write_text,
        tag=lambda path, payload: len(payload),
    )
    checkpoint_mod.atomic_write_text = atomic
    cache_mod.atomic_write_text = atomic
    mc_mod.save_checkpoint = tracer.wrap("save_checkpoint", mc_mod.save_checkpoint)

    runner = mc_mod.MonteCarloRunner
    runner.run_streaming = tracer.wrap("MonteCarloRunner.run_streaming", runner.run_streaming)
    # Time spent pulling the next committed shard out of the executor: the
    # coordinator's wait (pool / remote) or the in-process kernel (serial).
    runner._serial_outcomes = tracer.wrap_iter("executor.wait", runner._serial_outcomes)
    for cls in (executor_mod.PipelinedShardExecutor, remote_mod.DistributedShardExecutor):
        cls.outcomes = tracer.wrap_iter("executor.wait", cls.outcomes)

    remote_mod.chronology_to_dict = tracer.wrap(
        "chronology_to_dict", remote_mod.chronology_to_dict
    )
    remote_mod.chronology_from_dict = tracer.wrap(
        "chronology_from_dict", remote_mod.chronology_from_dict
    )

    def frame_tag(sock, lock, message):
        # Result frames are sized here, before the span opens, so the
        # span keeps timing the program's own encode-and-send.
        if message.get("t") == "result":
            return ["result", len(json.dumps(message, separators=(",", ":")))]
        return [message.get("t"), 0]

    remote_mod.send_frame = tracer.wrap("send_frame", remote_mod.send_frame, tag=frame_tag)

    server_mod.fingerprint = tracer.wrap("fingerprint", server_mod.fingerprint)
    server_mod.classify = tracer.wrap("classify", server_mod.classify)
    server_mod.solve = tracer.wrap("solve", server_mod.solve)

    result_cache = cache_mod.ResultCache
    result_cache.lookup = tracer.wrap(
        "ResultCache.lookup", result_cache.lookup, result_tag=lambda r: r[0]
    )
    result_cache.put = tracer.wrap("ResultCache.put", result_cache.put)
    ckpt = checkpoint_mod.RunCheckpoint
    ckpt.accumulator = tracer.wrap("RunCheckpoint.accumulator", ckpt.accumulator)

    manager = jobs_mod.JobManager
    manager.submit = tracer.wrap(
        "JobManager.submit",
        manager.submit,
        result_tag=lambda r: [_job_id(r[0].spec), bool(r[1])],
    )
    manager.run_simulation = tracer.wrap(
        "JobManager.run_simulation",
        manager.run_simulation,
        tag=lambda self, spec, *a, **k: _job_id(spec),
    )
    service = server_mod.ReliabilityService
    service.begin = tracer.wrap(
        "ReliabilityService.begin",
        service.begin,
        tag=lambda self, payload: payload.get("request_id")
        if isinstance(payload, dict)
        else None,
    )


def _job_id(spec: Any) -> str:
    """Stable label for one refinement job (its coalescing key)."""
    return repr(spec.job_key)


# ----------------------------------------------------------------------
def self_times(spans: List[list]) -> List[float]:
    """Per-span self time: duration minus the time its children cover."""
    own = [s[2] - s[1] for s in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            own[parent] -= span[2] - span[1]
    return own


def layer_self_seconds(spans: List[list], own: List[float]) -> Dict[str, float]:
    """Self time summed per layer."""
    out: Dict[str, float] = {}
    for span, own in zip(spans, own):
        layer = LAYER_OF.get(span[0], span[0])
        out[layer] = out.get(layer, 0.0) + own
    return out


def inside(spans: List[list], name: str) -> List[bool]:
    """For each span, whether it is a ``name`` span or nested in one."""
    marks: List[bool] = []
    for span in spans:
        parent = span[3]
        marks.append(span[0] == name or (parent >= 0 and marks[parent]))
    return marks


def by_name(spans: List[list], name: str) -> List[list]:
    return [s for s in spans if s[0] == name]


def self_by_name(spans: List[list], own: List[float]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for span, seconds in zip(spans, own):
        out[span[0]] = out.get(span[0], 0.0) + seconds
    return out


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def simulation_metrics(
    spans: List[list], own: List[float], groups: int, shards: int
) -> Dict[str, float]:
    """Per-layer metrics of the simulation stack over ``groups`` simulated.

    ``own`` holds each span's self time (from :func:`self_times` over the
    span's whole process), so spans of several processes may be passed
    together.
    """
    kgroups = groups / 1000.0
    self_of = self_by_name(spans, own)
    writes = by_name(spans, "atomic_write_text")
    return {
        "distributions.sample_ms_per_kgroup": _per(self_of.get("Distribution.sample", 0.0) * 1e3, kgroups),
        "distributions.sample_calls_per_kgroup": _per(len(by_name(spans, "Distribution.sample")), kgroups),
        "batch.kernel_self_ms_per_kgroup": _per(self_of.get("simulate_groups_batch", 0.0) * 1e3, kgroups),
        "batch.calls": float(len(by_name(spans, "simulate_groups_batch"))),
        "streaming.commit_ms_per_kgroup": _per(self_of.get("FleetAccumulator.add_shard", 0.0) * 1e3, kgroups),
        "checkpoint.write_ms": mean_duration(spans, "atomic_write_text") * 1e3,
        "checkpoint.write_kb": _per(sum(s[4] for s in writes) / 1024.0, len(writes)),
        "monte_carlo.self_ms_per_shard": _per(self_of.get("MonteCarloRunner.run_streaming", 0.0) * 1e3, shards),
        "monte_carlo.wait_ms_per_shard": _per(self_of.get("executor.wait", 0.0) * 1e3, shards),
    }


def mean_duration(spans: List[list], name: str) -> float:
    chosen = by_name(spans, name)
    if not chosen:
        return 0.0
    return sum(s[2] - s[1] for s in chosen) / len(chosen)


def load(path: str) -> List[list]:
    with open(path) as handle:
        return json.load(handle)
