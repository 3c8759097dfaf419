"""In-memory span tracer that wraps weaktensor's public functions from outside.

``Tracer.install`` replaces every public function and method of the
layer modules with a wrapper that records a span (name, start, end,
parent) and accumulates call counts, total time and self time per name.
Self time is a span's duration minus the durations of its direct child
spans; calls are strictly nested on one thread, so children never
overlap.  A few names also feed counters (family sizes, search nodes,
permutations tried) read from arguments and results, never from private
fields.

Nothing in ``src/`` is edited: a name is replaced where its caller looks
it up, i.e. in the class dict for methods, in every module namespace
that re-binds an imported function, and in the suite module's handler
and builtin-suite registries.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import inspect
import json
import math
import sys
import weakref
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("spaces", "products", "props", "hilbert", "suites", "reports", "cli")

# Exact scalar arithmetic stays unwrapped: it dominates the call count of
# every hilbert check and would measure the wrapper, not the layer.
_SKIP = {
    "hilbert": {"GQ", "gq", "sqrt_fraction", "gq_sqrt", "random_gq"},
}

# Counts that must repeat exactly across two traced runs with one seed.
EXACT_COUNTS = (
    "spaces.family_sets",
    "props.find_orthocomplementation.nodes",
    "props.automorphisms.perms_tried",
    "products.check_p4.tuples",
    "hilbert.rref.calls",
    "suites.resolve_target.calls",
)


def _span_name(layer: str, cls: type | None, attr: str) -> str:
    if cls is None:
        return f"{layer}.{attr}"
    if cls.__name__ == "ClosureSpace":
        # The closure space is the L0 layer itself: its methods carry the
        # layer name, its constructor (the O(F^2) validation) is kept apart.
        return "spaces.ClosureSpace.init" if attr == "__init__" else f"spaces.{attr}"
    if attr == "__init__":
        return f"{layer}.{cls.__name__}"
    return f"{layer}.{cls.__name__}.{attr}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, child time]
        self._depth: list[int] = []  # open spans per name id, for recursion
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.active = False  # spans are recorded only while set
        self._seen_aut = weakref.WeakSet()
        self._resolved: dict[str, object] = {}

    # -- spans -------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> list:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._depth[nid] += 1
        frame = [idx, 0.0]
        self._stack.append(frame)
        self.span_start.append(perf_counter())
        return frame

    def _close(self, frame: list, nid: int, name: str) -> None:
        end = perf_counter()
        idx, child = frame
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self._depth[nid] -= 1
        if not self._depth[nid]:  # outermost span of a recursion
            self.total_s[name] += dur

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; the benchmark's root span per operation."""
        nid = self._intern(name)
        frame = self._open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame, nid, name)

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        count = _COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, nid, name)
                if count is not None:
                    count(tracer, args, kwargs, None, exc)
                raise
            tracer._close(frame, nid, name)
            if count is not None:
                count(tracer, args, kwargs, result, None)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions and methods of every layer module."""
        modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            skip = _SKIP.get(layer, set())
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in skip or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(_span_name(layer, None, attr), obj)
                    replaced[id(obj)] = wrapper
                    setattr(mod, attr, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum, tuple)):
                    self._install_class(layer, obj)
        # re-bound imports and registries look the original object up
        namespaces = [vars(m) for m in modules.values()] + [vars(package)]
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in replaced:
                    ns[attr] = replaced[id(obj)]
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replaced:
                            obj[key] = replaced[id(val)]
        checks = modules["suites"].CHECKS
        for key, handler in list(checks.items()):
            checks[key] = self._wrap(f"suites.check.{key}", handler)

    def _install_class(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr == "__init__":
                if dataclasses.is_dataclass(cls) or not inspect.isfunction(member):
                    continue
            elif attr.startswith("_"):
                continue
            name = _span_name(layer, cls, attr)
            if isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, member.__func__)))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self._wrap(name, member))

    # -- output ----------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-name calls, total and self time, plus the counters."""
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "spans": len(self.span_name),
        }

    def write(self, prefix: Path) -> None:
        """Write spans as ``<prefix>.spans.json`` (names, layout) and
        ``<prefix>.spans.bin`` (int32 name ids, int32 parent indices,
        float64 starts, float64 ends, each array ``count`` long)."""
        prefix.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{prefix}.spans.bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        header = {"count": len(self.span_name), "names": self.names,
                  "layout": ["name:int32", "parent:int32", "start:float64", "end:float64"],
                  "clock": "time.perf_counter seconds", "byteorder": sys.byteorder}
        Path(f"{prefix}.spans.json").write_text(json.dumps(header))


# -- counters read from arguments and results --------------------------------------

def _family_sets(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.counters["spaces.family_sets"] += len(args[0].masks)


def _ortho_nodes(tracer, args, kwargs, result, exc):
    # Found maps carry no node count; certificates and budget stops do.
    nodes = getattr(exc if exc is not None else result, "nodes", None)
    if nodes is not None:
        tracer.counters["props.find_orthocomplementation.nodes"] += nodes
    if exc is None:
        tracer.counters["props.find_orthocomplementation.decided"] += 1


def _aut_perms(tracer, args, kwargs, result, exc):
    # Computed, not observed: the scan tries n! permutations on the first
    # call per instance; later calls on the same instance are memo hits.
    space = args[0]
    if exc is None and space not in tracer._seen_aut:
        tracer._seen_aut.add(space)
        tracer.counters["props.automorphisms.perms_tried"] += math.factorial(space.n_points)
        tracer.counters["props.automorphisms.found"] += len(result)


def _p4_tuples(tracer, args, kwargs, result, exc):
    # |G1|*|G2|(*|G3|): every caller passes whole groups from automorphisms().
    generators = args[2] if len(args) > 2 else kwargs["generators"]
    tracer.counters["products.check_p4.tuples"] += math.prod(len(g) for g in generators)


def _resolve_hits(tracer, args, kwargs, result, exc):
    if exc is None:
        text = args[0].strip()
        if tracer._resolved.get(text) is result:
            tracer.counters["suites.resolve_target.hits"] += 1
        tracer._resolved[text] = result


_COUNTERS = {
    "spaces.ClosureSpace.init": _family_sets,
    "props.find_orthocomplementation": _ortho_nodes,
    "props.automorphisms": _aut_perms,
    "products.check_p4": _p4_tuples,
    "suites.resolve_target": _resolve_hits,
}


def merge(into: dict, other: dict) -> None:
    """Add one aggregate (e.g. a child process's) into another."""
    for key in ("calls", "total_s", "self_s", "counters"):
        bucket = into.setdefault(key, {})
        for name, value in other[key].items():
            bucket[name] = bucket.get(name, 0) + value
    into["spans"] = into.get("spans", 0) + other["spans"]
