"""Per-layer call counts and self times, taken by wrapping conrad's functions.

The tracer replaces each traced function wherever a reference to it is
held, because wrapping the defining module's attribute alone misses most
calls: `radical_engine.KIND_OPS` keeps direct references to the congruence
functions, and `radical_engine`, `verification` and `cli_io` bind
`iso_graphs`, `homeo_spaces`, `enumerate_*`, `induced` and `subspace` with
`from ... import`.  So every global of every `conrad` module and every field
of every `KIND_OPS` entry that is a traced function is rebound to its
wrapper; methods are wrapped on their class.

A function's self time is the time inside its calls minus the time inside
the traced calls they make.  Spans live in memory only; `snapshot` returns
the totals.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass

# Traced functions per module, named as in the metrics.  Names in METHODS
# are methods; `ClassPredicate` stands for class-membership calls.
TIMED = {
    "structures": (
        "iso_graphs", "homeo_spaces", "enumerate_graphs", "enumerate_spaces",
        "induced", "subspace",
    ),
    "topo_congruence": (
        "enumerate_congruences_tc", "validate_tc", "quotient_tc", "quotient_cong_tc",
        "restrict_tc", "meet_tc", "join_tc", "image_tc",
    ),
    "graph_congruence": (
        "enumerate_congruences_gc", "validate_gc", "quotient_gc", "kernel_gc",
        "join_gc", "image_gc",
    ),
    "loopless_congruence": (
        "enumerate_congruences_lc", "validate_lc", "quotient_lc",
        "birkhoff_complete_decomposition",
    ),
    "radical_engine": (
        "surjective_morphisms", "hoehnke_radical", "catalog_graph",
        "catalog_topological", "ClassPredicate", "U_operator", "S_operator",
    ),
    "verification": (
        "check_first_iso", "check_second_iso", "check_third_iso", "random_iso_theorems",
    ),
    "cli_io": (
        "parse_structure", "parse_congruence", "serialize_structure",
        "serialize_congruence", "describe_structure", "describe_congruence",
        "Report.render",
    ),
}

# Results whose length is counted as well: (module, function) -> label.
SIZED = {
    ("topo_congruence", "enumerate_congruences_tc"): "yielded",
    ("graph_congruence", "enumerate_congruences_gc"): "yielded",
    ("loopless_congruence", "enumerate_congruences_lc"): "yielded",
    ("radical_engine", "surjective_morphisms"): "returned",
}

# Radical computations, keyed by (structure, radical) for the recompute ratio.
RADICAL = {
    "hoehnke_radical": lambda structure, cls: (structure, "class", cls.kind, cls.name),
    "catalog_graph": lambda g, cid: (g, "graph-catalog", cid),
    "catalog_topological": lambda x, cid: (x, "topo-catalog", cid),
}

# Methods among the traced names: name -> (class, attribute).
METHODS = {
    "ClassPredicate": ("ClassPredicate", "__call__"),
    "Report.render": ("Report", "render"),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str


def function_metrics() -> list[Metric]:
    """The metrics a traced round measures directly."""
    out = [
        Metric("structures.Partition.created", "count"),
        Metric("structures.FiniteGraph.created", "count"),
        Metric("structures.FiniteSpace.created", "count"),
        Metric("structures.FiniteSpace.self_s", "s"),
        Metric("structures.all_partitions.yielded", "count"),
    ]
    for module, names in TIMED.items():
        for name in names:
            out.append(Metric(f"{module}.{name}.calls", "count"))
            out.append(Metric(f"{module}.{name}.self_s", "s"))
            if (module, name) in SIZED:
                out.append(Metric(f"{module}.{name}.{SIZED[module, name]}", "count"))
    return out


def metrics() -> list[Metric]:
    """Every per-layer metric: the measured ones, then those derived from them."""
    return function_metrics() + [Metric(f"{module}.self_s", "s") for module in TIMED] + [
        Metric("radical_engine.radical_recompute_ratio", "ratio"),
        Metric("trace.untraced_wall_s", "s"),
        Metric("trace.traced_wall_s", "s"),
        Metric("trace.overhead", "ratio"),
    ]


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.radical_computations = 0
        self._radicals: set = set()
        self._child = [0.0]

    # -- wrappers -----------------------------------------------------------

    def _timed(self, label: str, fn, calls: str = "calls", sized=None, radical=None):
        counts, times, child = self.counts, self.times, self._child
        calls_key, time_key = f"{label}.{calls}", f"{label}.self_s"
        sized_key = f"{label}.{sized}"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if radical is not None:
                self._radicals.add(radical(*args, **kwargs))
                self.radical_computations += 1
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child.pop()
                child[-1] += elapsed
                times[time_key] += elapsed - inner
                counts[calls_key] += 1
            if sized is not None:
                counts[sized_key] += len(result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_generator(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function; conrad must be imported already."""
        from conrad import radical_engine, structures

        rebind: dict[int, tuple] = {}

        def wrap_function(module_name: str, name: str, make_wrapper) -> None:
            original = getattr(sys.modules[f"conrad.{module_name}"], name)
            rebind[id(original)] = (original, make_wrapper(original))

        for module_name, names in TIMED.items():
            module = sys.modules[f"conrad.{module_name}"]
            for name in names:
                label = f"{module_name}.{name}"
                if name in METHODS:
                    owner, attr = METHODS[name]
                    cls = getattr(module, owner)
                    setattr(cls, attr, self._timed(label, getattr(cls, attr)))
                else:
                    wrap_function(module_name, name, functools.partial(
                        self._timed, label,
                        sized=SIZED.get((module_name, name)),
                        radical=RADICAL.get(name),
                    ))
        wrap_function("structures", "all_partitions", functools.partial(
            self._counted_generator, "structures.all_partitions.yielded"))
        for cls in (structures.Partition, structures.FiniteGraph):
            cls.__post_init__ = self._counted(
                f"structures.{cls.__name__}.created", cls.__post_init__)
        structures.FiniteSpace.__post_init__ = self._timed(
            "structures.FiniteSpace", structures.FiniteSpace.__post_init__, calls="created")

        def rebound(value):
            hit = rebind.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for name, module in list(sys.modules.items()):
            if name == "conrad" or name.startswith("conrad."):
                for attr, value in list(vars(module).items()):
                    wrapper = rebound(value)
                    if wrapper is not None:
                        setattr(module, attr, wrapper)
        for ops in radical_engine.KIND_OPS.values():
            for fld in dataclasses.fields(ops):
                wrapper = rebound(getattr(ops, fld.name))
                if wrapper is not None:
                    object.__setattr__(ops, fld.name, wrapper)

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Counts and self times of everything traced so far."""
        return {
            "counts": dict(self.counts),
            "times": dict(self.times),
            "radical_computations": self.radical_computations,
            "radical_pairs": len(self._radicals),
        }
