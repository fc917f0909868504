"""perfbench's tracer still finds every name it wraps.

``perfbench/tracing.py`` times the program from outside: ``install``
replaces module and class attributes under ``src/`` by name —
``MonteCarloRunner._serial_outcomes``, ``simulate_groups_batch`` in
``monte_carlo`` and ``executor``, ``DistributedShardExecutor.outcomes``,
``chronology_to_dict`` / ``chronology_from_dict`` and ``send_frame`` in
``remote``, ``atomic_write_text`` in ``checkpoint`` and ``cache``, and
more.  Renaming one of them breaks ``perfbench/run.py --trace 1``.  The
tracer is installed in a fresh interpreter, so no wrapper reaches this
process.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Every module of the program is imported first, so an attribute the
# tracer *adds* to a module, instead of replacing, shows as a name the
# program no longer has there.
PROBE = """
import importlib, pkgutil, sys
import repro
modules = {
    info.name: importlib.import_module(info.name)
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not info.name.endswith("__main__")
}
before = {name: set(vars(module)) for name, module in modules.items()}
import tracing
tracing.install(tracing.Tracer())
added = {
    name: sorted(set(vars(module)) - before[name])
    for name, module in modules.items()
    if set(vars(module)) - before[name]
}
assert not added, f"the tracer wraps names these modules lack: {added}"
"""


def test_tracer_installs_on_the_program_as_it_is():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        os.path.join(ROOT, part) for part in ("src", "perfbench")
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
