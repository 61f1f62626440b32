"""Importing the package loads none of the heavy standard modules.

``boolminor/__init__.py`` imports every library module, so each process pays
for every module-level import anywhere in the package: one ``hashlib`` import
in ``poset`` raised the benchmark's peak RSS by 1.7-3.8 MB on all three
workloads.  ``multiprocessing`` stays in ``verify``, which the package does
not import.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("hashlib", "_hashlib", "ssl", "multiprocessing")


def test_import_boolminor_loads_no_heavy_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = f"import sys, boolminor; print(*[m for m in {HEAVY!r} if m in sys.modules])"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []
