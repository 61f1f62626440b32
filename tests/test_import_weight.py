"""Importing the package loads none of the heavy standard modules.

``boolminor/__init__.py`` imports every library module, so each process pays
for every module-level import anywhere in the package: one ``hashlib`` import
in ``poset`` raised the benchmark's peak RSS by 1.7-3.8 MB on all three
workloads.  The command line does not load a process pool either: ``verify``
imports one inside the sweep that opens it, at two workers or more, so a
one-worker run does not pay for ``multiprocessing``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("hashlib", "_hashlib", "ssl", "multiprocessing")


def loaded_after(module: str, names) -> list[str]:
    """Which of ``names`` a fresh interpreter has loaded after importing ``module``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = f"import sys, {module}; print(*[m for m in {tuple(names)!r} if m in sys.modules])"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


def test_import_boolminor_loads_no_heavy_module():
    assert loaded_after("boolminor", HEAVY) == []


def test_import_cli_loads_no_process_pool():
    assert loaded_after("boolminor.cli", ("multiprocessing", "concurrent.futures")) == []
