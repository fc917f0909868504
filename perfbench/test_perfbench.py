"""Self-checks of the benchmark's own machinery.

Run with ``python3 -m pytest perfbench -q`` from the root of the checkout
(the program's test suite under ``tests/`` does not collect these).

The probe tests compare interleaved blocks of probes with and without a
competing load, pair by pair, so slow drift of the machine's speed
cancels out.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import probe
import tracing

#: Largest change of the probe median a competing load may cause beyond
#: the slowdown it causes to any CPU work.
MAX_SHIFT = 0.10
BLOCKS = 20
PER_BLOCK = 10


def _reference() -> float:
    """CPU time of plain interpreter work, the yardstick for real slowdowns."""
    start = time.thread_time()
    total = 0
    for i in range(40_000):
        total += i * i
    return time.thread_time() - start


def _block():
    probes = [probe.probe() for _ in range(PER_BLOCK)]
    references = [_reference() for _ in range(PER_BLOCK)]
    return statistics.median(probes), statistics.median(references)


def _interleaved(start_load, stop_load):
    """Median over block pairs of the loaded / quiet ratio of the probe.

    Each loaded block is compared with the quiet block just before it, so
    the machine's own speed drift between blocks largely cancels.  Returns
    the probe's ratio and that of plain interpreter work measured the same
    way: a load that really slows the CPU (a busy sibling hardware thread)
    slows both alike, and only the probe's excess over the reference is
    disturbance.
    """
    probe_ratios, reference_ratios = [], []
    for _ in range(BLOCKS):
        quiet = _block()
        start_load()
        time.sleep(0.01)
        loaded = _block()
        stop_load()
        probe_ratios.append(loaded[0] / quiet[0])
        reference_ratios.append(loaded[1] / quiet[1])
    return statistics.median(probe_ratios), statistics.median(reference_ratios)


def test_probe_ignores_a_lock_busy_thread():
    stop = threading.Event()
    threads = []

    def spin():
        count = 0
        while not stop.is_set():
            count += 1

    def start():
        stop.clear()
        thread = threading.Thread(target=spin, daemon=True)
        threads.append(thread)
        thread.start()

    def halt():
        stop.set()
        threads[-1].join(timeout=5.0)

    ratio, reference = _interleaved(start, halt)
    print(
        f"beside a busy thread / idle: probe {ratio:.4f}, "
        f"plain interpreter work {reference:.4f}"
    )
    assert abs(ratio / reference - 1.0) < MAX_SHIFT


def test_probe_ignores_a_busy_process_on_the_other_cpu():
    busy = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        os.kill(busy.pid, signal.SIGSTOP)
        ratio, reference = _interleaved(
            lambda: os.kill(busy.pid, signal.SIGCONT),
            lambda: os.kill(busy.pid, signal.SIGSTOP),
        )
    finally:
        busy.kill()
        busy.wait(timeout=10.0)
    print(
        f"beside a busy process / idle: probe {ratio:.4f}, "
        f"plain interpreter work {reference:.4f}"
    )
    assert abs(ratio / reference - 1.0) < MAX_SHIFT


def test_self_time_subtracts_children():
    # parent 0..10 with children 1..3 and 4..8; the second has a child 5..6.
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 3.0, 0, None],
        ["c", 4.0, 8.0, 0, None],
        ["d", 5.0, 6.0, 2, None],
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0]
    assert tracing.layer_self_seconds(spans, tracing.self_times(spans)) == {
        "a": 4.0,
        "b": 2.0,
        "c": 3.0,
        "d": 1.0,
    }


def test_tracer_nests_spans_per_thread():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    worker = threading.Thread(target=inner)
    worker.start()
    worker.join(timeout=5.0)
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", -1)]


def test_tail_needs_ten_samples_beyond_it():
    assert probe.tail(list(range(10))) is None
    t = probe.tail([float(i) for i in range(1000)])
    assert t["percentile"] == 99.0 and t["samples"] == 1000
    assert sum(v > t["value"] for v in range(1000)) >= 10
