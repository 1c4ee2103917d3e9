"""Per-module spans for the traced run, installed from outside the program.

``Tracer.install()`` replaces every function defined at module level in
the traced ``oseg`` modules with a wrapper that records a span (name,
start, end, parent) around each call.  The program imports names across
modules (``from .core import downset``) and also keeps function objects
inside dicts, frozen dataclasses and closures (``ATOMS``, the catalog
entries, the ``TypePredicate`` checks), so every such reference is
rebound too; a call that went around the wrapper would charge its time
to the caller's module.

Generator functions (``iter_mask``, ``partitions``) only count calls:
their bodies run while the caller iterates, inside the caller's span.
``core._memo`` is left alone so that the ``compute`` closure it runs is
charged to the module that defined the closure.

Spans live in flat arrays and are summarised (and optionally written
out) when the run ends.  A span's self time is its duration minus the
durations of its direct children; since every span but the root has
exactly one parent, the self times of all spans add up to the root's
duration, which ``summary`` checks against the wall clock.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import types
from array import array
from collections import Counter
from time import perf_counter_ns

TRACED_MODULES = (
    "core",
    "ideals",
    "relations",
    "regularity",
    "decomposition",
    "theorems",
    "properties",
    "enumeration",
)

#: not wrapped: the memo helper (see the module docstring) and the
#: enumeration internals, which the harness times one ``next()`` at a time
SKIP = {"core._memo", "enumeration._assoc_ok", "enumeration._close_over", "enumeration._relabel"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.restrict_keys: set = set()
        self.csl_modes: Counter = Counter()

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.stack.pop()

    def _span_wrapper(self, f, qualname: str, on_result=None):
        nid = self.name_id(qualname)
        name_a, parent_a, start_a, end_a, stack = (
            self.name, self.parent, self.start, self.end, self.stack
        )

        def traced(*args, **kwargs):  # begin()/finish() inlined: runs millions of times
            i = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1])
            end_a.append(0)
            stack.append(i)
            start_a.append(perf_counter_ns())
            try:
                result = f(*args, **kwargs)
            finally:
                end_a[i] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = f
        return traced

    def _count_wrapper(self, f, qualname: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[qualname] += 1
            return f(*args, **kwargs)

        counted.__wrapped__ = f
        return counted

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "ideals.restrict": lambda r: self.restrict_keys.add(
                (r.structure.table, r.structure.down)
            ),
            "decomposition.is_complete_semilattice_of": lambda r: self.csl_modes.update(
                (r.mode,)
            ),
        }
        mods = {m: sys.modules["oseg." + m] for m in TRACED_MODULES}
        mapping: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType) or value.__module__ != mod.__name__:
                    continue
                qualname = f"{short}.{attr}"
                if qualname in SKIP or id(value) in mapping:
                    continue
                if inspect.isgeneratorfunction(value):
                    mapping[id(value)] = self._count_wrapper(value, qualname)
                else:
                    mapping[id(value)] = self._span_wrapper(value, qualname, hooks.get(qualname))
        seen: set[int] = set()
        for mod in sys.modules.values():
            if getattr(mod, "__name__", "").startswith("oseg"):
                _rebind_namespace(vars(mod), mapping, seen)


def _swap(value, mapping):
    """The wrapper for value, or value itself (tuples and lists rebuilt)."""
    w = mapping.get(id(value))
    if w is not None:
        return w
    if isinstance(value, tuple) and any(id(v) in mapping for v in value):
        return tuple(mapping.get(id(v), v) for v in value)
    if isinstance(value, list):
        value[:] = [mapping.get(id(v), v) for v in value]
    return value


def _rebind_namespace(ns: dict, mapping, seen) -> None:
    for key, value in list(ns.items()):
        ns[key] = _swap(value, mapping)
        _rebind_inside(value, mapping, seen)


def _rebind_inside(obj, mapping, seen) -> None:
    """Rebind references held inside program objects reachable from obj."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, dict):
        _rebind_namespace(obj, mapping, seen)
    elif isinstance(obj, (tuple, list)):
        for v in obj:
            _rebind_inside(v, mapping, seen)
    elif isinstance(obj, types.FunctionType):
        if not obj.__module__ or not obj.__module__.startswith("oseg"):
            return
        for cell in obj.__closure__ or ():
            try:
                content = cell.cell_contents
            except ValueError:  # empty cell
                continue
            cell.cell_contents = _swap(content, mapping)
            _rebind_inside(content, mapping, seen)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if not type(obj).__module__.startswith("oseg"):
            return
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            object.__setattr__(obj, f.name, _swap(value, mapping))
            _rebind_inside(value, mapping, seen)


def summary(tracer: Tracer, inclusive=()) -> dict:
    """Per-name call counts and self seconds, and inclusive seconds for the
    names in ``inclusive`` (outermost call only, so recursion counts once).

    Every span but the roots has exactly one parent, so ``total_self_s``
    equals the roots' summed duration.
    """
    n = len(tracer.start)
    start, end, parent, name = tracer.start, tracer.end, tracer.parent, tracer.name
    dur = array("q", (end[i] - start[i] for i in range(n)))
    child = array("q", bytes(8 * n))
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    calls: Counter = Counter(tracer.counts)
    incl: Counter = Counter()
    self_ns: Counter = Counter()
    incl_ids = {tracer.name_id(k) for k in inclusive}
    names = tracer.names
    for i in range(n):
        nid = name[i]
        nm = names[nid]
        calls[nm] += 1
        self_ns[nm] += dur[i] - child[i]
        if nid in incl_ids:
            p = parent[i]
            while p >= 0 and name[p] != nid:
                p = parent[p]
            if p < 0:
                incl[nm] += dur[i]
    total_self = sum(self_ns.values())
    return {
        "calls": dict(calls),
        "incl_s": {k: v / 1e9 for k, v in incl.items()},
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "total_self_s": total_self / 1e9,
        "spans": n,
    }
