"""The names the benchmark's tracer wraps must exist in conrad.

`perfbench/tracing.py` looks every traced function and method up by name
with `getattr`, so deleting or renaming one breaks the traced run.  The
tracer module is loaded by path and only its tables are read: installing
it would rebind module globals for the whole test process.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_tables(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being defined
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracing = _tracing_tables(monkeypatch)
    for module_name, names in tracing.TIMED.items():
        module = importlib.import_module(f"conrad.{module_name}")
        for name in names:
            if name in tracing.METHODS:
                owner, attr = tracing.METHODS[name]
                assert callable(getattr(getattr(module, owner), attr)), name
            else:
                assert callable(getattr(module, name)), f"{module_name}.{name}"
    for module_name, name in tracing.SIZED:
        assert name in tracing.TIMED[module_name]
    assert set(tracing.RADICAL) <= set(tracing.TIMED["radical_engine"])
    structures = importlib.import_module("conrad.structures")
    assert callable(structures.all_partitions)
    for cls in ("Partition", "FiniteGraph", "FiniteSpace"):
        assert callable(getattr(structures, cls).__post_init__), cls
