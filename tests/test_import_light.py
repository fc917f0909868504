"""Start-up stays light: no ``repro`` module imports scipy at import time.

Every spawned pool worker, ``repro worker``, ``repro serve`` and CLI
start imports these modules.  scipy costs each of those processes most
of a second and tens of MiB, though only the analytical, fitting and
validation code ever calls it, so those functions import it themselves.
One stray top-level import would silently give that back.
"""

import os
import subprocess
import sys

import repro

#: Entry points of the processes that must start without scipy.
START_UP_MODULES = (
    "repro",
    "repro.cli",
    "repro.service",
    "repro.simulation.executor",
    "repro.simulation.remote",
)


def test_start_up_modules_do_not_import_scipy():
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys\n"
        f"import {', '.join(START_UP_MODULES)}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]", f"scipy loaded at import: {result.stdout}"
