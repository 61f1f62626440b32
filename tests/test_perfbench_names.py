"""The benchmark tracer wraps functions by name; every name must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{name}"
        for module, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"boolminor.{module}"), name, None))
    ]
    assert not missing


def test_canonical_cache_info_hook():
    # the tracer's other hook: it reads the canonical-form cache counters
    from boolminor import bfcore

    info = bfcore._canonical_reduced.cache_info()
    assert isinstance(info.hits, int) and isinstance(info.misses, int)
