"""Span tracing of the tdpair121 layers from outside the package.

`Tracer.install()` wraps every public function of the package's modules
and the methods of `Matrix`, `Subspace` and `TDSystem`.  A function bound
into another module by `from .x import y` is re-pointed there too, so
calls between modules are seen.  Nothing in the package's source changes;
`uninstall()` puts every original object back.

`FieldElement` operators are deliberately not wrapped: one span per scalar
operation would swamp the run.  Their time lands in the self time of the
layer that performed them, and the benchmark micro-times them separately.

Each span is (name, start, end, parent).  Spans of one operation are kept
in flat lists and summarised when the operation ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

MODULES = ("fields", "linalg", "tdsystem", "params", "bases", "cli")
TRACED_CLASSES = {"linalg": ("Matrix", "Subspace"), "tdsystem": ("TDSystem",)}
# hashing and printing are not layer work; TDSystem.__hash__ is, because
# it is the key of the module-level lru_caches
SKIPPED_METHODS = {"__repr__", "__str__", "__setattr__", "__delattr__", "__init_subclass__"}
TRACED_DUNDERS = {
    "Matrix": {"__init__", "__mul__", "__add__", "__sub__", "__neg__", "__eq__"},
    "Subspace": {"__init__", "__add__", "__and__", "__eq__"},
    "TDSystem": {"__init__", "__eq__", "__hash__"},
}


class Tracer:
    def __init__(self):
        self._names = []
        self._starts = []
        self._ends = []
        self._parents = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("tdpair121")
        modules = {name: importlib.import_module(f"tdpair121.{name}") for name in MODULES}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(obj, f"{layer}.{attr}")
                for ns in namespaces:
                    for alias, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, alias, wrapped)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                self._install_class(layer, getattr(module, cls_name))

    def _install_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr in SKIPPED_METHODS:
                continue
            if attr.startswith("_") and attr not in TRACED_DUNDERS[cls.__name__]:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        names, starts, ends = self._names, self._starts, self._ends
        parents, stack = self._parents, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return traced

    # -- per-operation summaries --------------------------------------------

    def take_spans(self):
        """Remove and return this operation's spans as (name, start, end, parent)."""
        spans = list(zip(self._names, self._starts, self._ends, self._parents))
        for buf in (self._names, self._starts, self._ends, self._parents):
            buf.clear()
        return spans


def summarise(spans) -> dict:
    """Per span name: [calls, inclusive seconds, self seconds].

    Self time is a span's duration minus the durations of its direct
    children; inclusive time skips spans nested directly in a span of the
    same name, so recursion is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        rec = out.get(name)
        if rec is None:
            rec = out[name] = [0, 0.0, 0.0]
        dur = end - start
        rec[0] += 1
        if parent < 0 or spans[parent][0] != name:
            rec[1] += dur
        rec[2] += dur - child[i]
    return out


def merge(total: dict, summary: dict) -> None:
    for name, (calls, incl, self_s) in summary.items():
        rec = total.get(name)
        if rec is None:
            total[name] = [calls, incl, self_s]
        else:
            rec[0] += calls
            rec[1] += incl
            rec[2] += self_s
