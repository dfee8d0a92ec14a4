"""The value classes and conrad's import footprint.

The ten value classes are plain classes with hand-written `__init__`,
`__eq__`, `__hash__` and `__repr__`: they compare by the tuple of their
fields when both sides are of one class, hash as that tuple, leave their
memos out, and build through `__post_init__` where they have one, so that a
patched hook counts constructions.  Only `_KindOps` is still a dataclass,
since the tests and the benchmark's tracer read it with `dataclasses`.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import conrad
from conrad.cli_io import Report
from conrad.graph_congruence import GraphCongruence
from conrad.radical_engine import ClassPredicate, RadicalAssignment, SubdirectResult, Universe
from conrad.structures import LOOPS, FiniteGraph, FiniteSpace, Partition
from conrad.topo_congruence import TopoCongruence

SRC = Path(conrad.__file__).resolve().parent.parent


def _member(structure):
    return True


def _rule(structure):
    return structure


SPACE = FiniteSpace(2, (0b01, 0b11))
GRAPH = FiniteGraph(2, LOOPS, 0b010)

# class -> the keyword arguments of one instance, in the order of the fields
# it compares; a second set differing in one field
CASES = {
    Partition: ({"class_id": (0, 0, 1)}, {"class_id": (0, 1, 1)}),
    FiniteGraph: ({"n": 2, "policy": LOOPS, "mask": 0b010}, {"n": 2, "policy": LOOPS, "mask": 0b011}),
    FiniteSpace: ({"n": 2, "min_opens": (0b01, 0b11)}, {"n": 2, "min_opens": (0b11, 0b11)}),
    GraphCongruence: ({"part": Partition((0, 1)), "cmask": 0b010}, {"part": Partition((0, 0)), "cmask": 0b010}),
    TopoCongruence: ({"part": Partition((0, 1)), "least": (0b01, 0b11)}, {"part": Partition((0, 1)), "least": (3, 3)}),
    ClassPredicate: ({"name": "all", "kind": "topo", "member": _member}, {"name": "any", "kind": "topo", "member": _member}),
    RadicalAssignment: ({"name": "own", "rule": _rule}, {"name": "own", "rule": _member}),
    Universe: ({"kind": "topo", "max_n": 2, "members": (SPACE,)}, {"kind": "topo", "max_n": 3, "members": (SPACE,)}),
    SubdirectResult: (
        {"ok": True, "factors": (GRAPH,), "embedding": ((0,), (1,))},
        {"ok": False, "factors": (GRAPH,), "embedding": ((0,), (1,))},
    ),
    Report: ({"command": "verify"}, {"command": "radical"}),
}
IDS = [cls.__name__ for cls in CASES]


def _fields(value, kwargs) -> tuple:
    """The compared fields of a value; a report compares its lists too."""
    fields = tuple(getattr(value, name) for name in kwargs)
    return fields + (value.records, value.entries) if isinstance(value, Report) else fields


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_values_compare_and_hash_by_their_fields(cls):
    kwargs, other = CASES[cls]
    a, b = cls(**kwargs), cls(*kwargs.values())
    assert a is not b and a == b and not a != b
    assert cls(**other) != a
    if cls is Report:
        # a report is mutable and so, as before, unhashable
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(_fields(a, kwargs))
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_values_of_other_classes_are_unequal(cls):
    kwargs = CASES[cls][0]
    value = cls(**kwargs)
    others = [c(**k) for c, (k, _) in CASES.items() if c is not cls]
    # a tuple of the same fields, and a value of each other class
    for stranger in (object(), _fields(value, kwargs), *others):
        assert value.__eq__(stranger) is NotImplemented
        assert value != stranger


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_repr_names_the_class_and_its_compared_fields(cls):
    kwargs = CASES[cls][0]
    text = repr(cls(**kwargs))
    assert text.startswith(f"{cls.__name__}(")
    assert all(f"{name}=" in text for name in kwargs)


def test_memos_stay_out_of_equality_hash_and_repr():
    used, fresh = RadicalAssignment("own", _rule), RadicalAssignment("own", _rule)
    used(SPACE)
    assert used._values and used == fresh and hash(used) == hash(fresh)
    assert "_values" not in repr(used)
    uni = Universe("graph", 2, (GRAPH,))
    uni.surjections(GRAPH, GRAPH)
    assert uni._maps and uni == Universe("graph", 2, (GRAPH,)) and "_maps" not in repr(uni)
    part = Partition((3, 3, 1))
    assert part.blocks == ((0, 1), (2,)) and "blocks" not in repr(part)


@pytest.mark.parametrize("cls", [Partition, FiniteGraph, FiniteSpace], ids=lambda cls: cls.__name__)
def test_the_constructor_runs_a_patched_post_init(monkeypatch, cls):
    calls = []
    hook = cls.__post_init__

    def counted(self):
        calls.append(self)
        hook(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    value = cls(**CASES[cls][0])
    assert calls == [value]


def test_kind_ops_is_the_only_dataclass():
    found = set()
    for info in pkgutil.iter_modules(conrad.__path__):
        module = importlib.import_module(f"conrad.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                found.add(f"{module.__name__}.{name}")
    assert found == {"conrad.radical_engine._KindOps"}


def test_importing_the_cli_loads_no_typing_of_its_own():
    # without site, only what the import itself pulls in is loaded; on
    # Python 3.13 the standard library's `inspect`, which `dataclasses`
    # imports, loads typing itself, so conrad is judged against that
    code = (
        "import sys, dataclasses\n"
        "before = 'typing' in sys.modules\n"
        "import conrad.cli_io\n"
        "print(before, 'typing' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env={"PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out[1] == out[0], f"conrad.cli_io loaded typing: {out}"
    if sys.version_info < (3, 13):
        assert out == ["False", "False"]
