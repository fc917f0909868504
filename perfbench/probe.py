"""Machine-speed probe and the summary statistics the benchmark reports.

The CPU speed of a small shared VM drifts by tens of percent over seconds,
so raw wall-clock figures cannot repeat within the bounds the benchmark
gates on.  :func:`probe` is a fixed piece of work (about 1-3 ms) that
calls no code of the program under test.  It mixes interpreter work with
small-array NumPy calls, which is the cost profile of the program's hot
paths (the batch kernel's lockstep loop over small arrays), and it is
run *interleaved* with the measured work: after every committed shard,
after every answered query, and in bursts around set-up.

``speed factor = mean probe time / REFERENCE_PROBE_S``.  A normalized
time is ``raw / factor`` and a normalized rate is ``raw * factor``, so a
run on a momentarily slow machine reads about the same as one on a fast
machine.
"""

from __future__ import annotations

import bisect
import itertools
import math
import statistics
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Median probe time that defines a speed factor of 1.0 (fixed once; only
#: ratios to it matter).
REFERENCE_PROBE_S = 1.0e-3

#: Probes in each idle burst (before and after set-up and the window).
BURST = 100

#: Below NumPy's 500-element threshold for releasing the interpreter lock
#: inside a ufunc: a probe that never releases the lock finishes inside one
#: switch interval, so a lock-busy thread in the same process cannot stretch
#: it (at 512 elements it read about 10% slower next to such a thread).  For
#: the same reason the probe uses no fancy-index assignment, which releases
#: the lock at any size.
_WIDTH = 256
_BASE = np.linspace(1.0, 2.0, _WIDTH)


def probe() -> float:
    """Run the fixed probe once; return the CPU time it took, in seconds.

    CPU time of the calling thread, not wall time: a probe descheduled in
    favour of the program's own processes (two pool workers on two CPUs)
    must not read as a slow machine.  On the 2-vCPU VM the benchmark was
    tuned on there is no steal time and an idle probe's CPU and wall
    times agree to within 0.5%, so CPU time still follows the machine's
    speed swings.
    """
    start = time.thread_time()
    clock = _BASE.copy()
    alive = np.ones(_WIDTH, dtype=bool)
    tally: Dict[int, int] = {}
    acc = 0.0
    for step in range(80):
        # Small-array NumPy calls, as in one lockstep kernel iteration.
        nxt = np.minimum(clock * 1.0007, 3.5)
        hit = (nxt > 1.5 + (step % 24) * 0.05) & alive
        idx = np.flatnonzero(hit)
        clock = np.where(hit, nxt - 0.5, nxt)
        np.logical_and(alive, nxt < 3.4, out=alive)
        acc += float(clock[idx].sum()) if idx.size else 0.0
        # Interpreter work: per-event bookkeeping in plain Python.
        for k in range(40):
            key = (k * 31 + step) & 15
            tally[key] = tally.get(key, 0) + k
        acc += sum(tally.values()) * 1e-9
    if not math.isfinite(acc):  # keeps the result live
        raise RuntimeError("probe arithmetic overflowed")
    return time.thread_time() - start


class Sampler:
    """Probe samples taken between units of work, with their start times.

    Probes are serialized: two probes sharing the interpreter lock would
    each read about twice as slow as the machine is.  :meth:`take` returns
    the time the caller lost to probing, waiting for another thread's
    probe included, so the caller can leave it out of its timed window.
    With a tracer, each probe is a ``bench.probe`` span, which keeps probe
    time out of the self time of the layer that called the observer.
    """

    def __init__(self, tracer=None) -> None:
        self.samples: List[float] = []
        self.times: List[float] = []
        self.spent = 0.0
        self._tracer = tracer
        self._lock = threading.Lock()

    def take(self, overlapped: bool = False) -> float:
        """Probe once.

        ``overlapped`` marks a probe that runs beside the work instead of
        delaying it (waiting for a subprocess to start); its time is not
        added to :attr:`spent`.
        """
        asked = time.perf_counter()
        with self._lock:
            record = self._tracer.open("bench.probe") if self._tracer else None
            self.times.append(time.perf_counter())
            self.samples.append(probe())
            if record is not None:
                self._tracer.close(record)
            spent = time.perf_counter() - asked
            if not overlapped:
                self.spent += spent
        return spent

    def local_factors(self, spans: Sequence[Tuple[float, float]], minimum: int = 8) -> List[float]:
        """Speed factor of each ``(start, end)`` from the probes taken in it.

        The machine's speed drifts within a window, so each timed piece
        of work is normalized by the probes taken while it ran (at least
        ``minimum`` of them, widening to the nearest ones when fewer fell
        inside).
        """
        prefix = [0.0, *itertools.accumulate(self.samples)]
        n = len(self.samples)
        out = []
        for start, end in spans:
            lo = bisect.bisect_left(self.times, start)
            hi = bisect.bisect_right(self.times, end)
            while hi - lo < min(minimum, n):
                lo, hi = max(lo - 1, 0), min(hi + 1, n)
            out.append((prefix[hi] - prefix[lo]) / (hi - lo) / REFERENCE_PROBE_S)
        return out


def burst(n: int = BURST) -> List[float]:
    """``n`` back-to-back probes (an idle sample of machine speed)."""
    return [probe() for _ in range(n)]


def speed_factor(samples: Sequence[float]) -> float:
    """Mean probe time relative to the fixed reference.

    The mean, not the median: probes are taken after equal units of work,
    so a window's wall time is proportional to the *mean* probe time at
    the speeds the machine went through.  Over 24 serial windows of the
    same work the mean left a coefficient of variation of 2.6% in groups/s
    against 6.5% for the median (11.4% raw).
    """
    return statistics.fmean(samples) / REFERENCE_PROBE_S


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


def tail(values: Sequence[float], min_beyond: int = 10) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ``min_beyond`` samples above it.

    Returns ``{"percentile", "value", "samples"}`` or ``None`` when there
    are too few samples for any tail.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= min_beyond:
        return None
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(pct / 100.0 * n) - 1
        if n - 1 - rank >= min_beyond:
            return {"percentile": pct, "value": ordered[rank], "samples": n}
    return None
