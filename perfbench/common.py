"""Paths, subprocess plumbing and memory readings shared by the workloads."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

#: The checkout the benchmark runs in (parent of this directory).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
#: Scratch space for checkpoints, cache directories and span files.
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def use_source_tree() -> None:
    """Import the program from this checkout's ``src/``, nothing else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env(workdir: str) -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = workdir
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def start_program(args: List[str], workdir: str, traced_spans: Optional[str]) -> subprocess.Popen:
    """Start ``repro <args>``, or the traced launcher around it.

    Untraced runs use the program's own CLI (``python -m repro``); traced
    runs go through :mod:`launch`, which installs the span wrappers first.
    """
    if traced_spans is None:
        cmd = [sys.executable, "-m", "repro", *args]
    else:
        cmd = [sys.executable, os.path.join(HERE, "launch.py"), traced_spans, *args]
    return subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(workdir),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )


def stop_program(proc: subprocess.Popen, signal_first=None, timeout: float = 30.0) -> None:
    """Stop a started program and wait for it to end."""
    if proc.poll() is None and signal_first is not None:
        proc.send_signal(signal_first)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=timeout)
    if proc.stdout is not None:
        proc.stdout.close()


def _group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def reap_group(proc: subprocess.Popen, timeout: float = 15.0) -> None:
    """Wait for a child started with ``start_new_session`` and all it left.

    Pool workers and resource trackers outlive their parent by a moment;
    anything still alive after ``timeout`` is killed.
    """
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    deadline = time.monotonic() + timeout
    while _group_members(proc.pid):
        if time.monotonic() > deadline:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + timeout
        time.sleep(0.02)


def peak_rss_kib(pid: int) -> int:
    """A live process's peak resident set (``VmHWM``), in KiB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def descendants(pid: int) -> List[int]:
    """Live descendant pids of ``pid`` (children first)."""
    out: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        kids: List[int] = []
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            tasks = []
        for task in tasks:
            try:
                with open(f"/proc/{parent}/task/{task}/children") as handle:
                    kids.extend(int(k) for k in handle.read().split())
            except OSError:
                pass
        out.extend(kids)
        frontier.extend(kids)
    return out


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS (Linux >= 4.0)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def emit(document: dict) -> None:
    """Print ``document`` as the last line of standard output."""
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()
