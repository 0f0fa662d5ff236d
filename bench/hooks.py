"""Per-layer tracing by wrapping the names each umconv layer imports.

The program is not changed.  `Tracer.install` replaces module attributes
(the names one layer binds from the layer below) with wrappers:

- span boundaries record (name, start, end, parent span, code id) for
  every call, kept in memory in flat arrays until the pass ends;
- count boundaries (field arithmetic, FMatrix construction) only count
  calls, because they run millions of times per pass.

A boundary that no longer exists raises HookMissing, so a refactor that
renames a layer's entry point fails the traced run instead of reporting
zeros.  Self time is a span's duration minus the time its children cover.
"""

from __future__ import annotations

import importlib
import time
from array import array

# (span name, module, attribute).  One name may cover several bindings of
# the same function, e.g. min_distance as imported by three modules.
SPAN_BOUNDARIES = (
    ("cli.main", "umconv.cli", "main"),
    ("constructions.construct_family", "umconv.constructions", "construct_family"),
    ("constructions.construct_family", "umconv.cli", "construct_family"),
    ("galois.field_build", "umconv.constructions", "field_for_order"),
    ("galois.field_build", "umconv.constructions", "make_ext_field"),
    ("galois.field_build", "umconv.cli", "field_for_order"),
    ("galois.field_build", "umconv.cli", "make_field"),
    ("galois.field_build", "umconv.cli", "make_ext_field"),
    ("galois.field_build", "umconv.fixtures", "make_field"),
    ("galois.field_build", "umconv.fixtures", "make_ext_field"),
    ("linalg.rref", "umconv.convcode", "rref"),
    ("linalg.rank", "umconv.convcode", "rank"),
    ("linalg.rank", "umconv.blockcode", "rank"),
    ("blockcode.min_distance", "umconv.blockcode", "min_distance"),
    ("blockcode.min_distance", "umconv.convcode", "min_distance"),
    ("blockcode.min_distance", "umconv.constructions", "min_distance"),
    ("blockcode.dependency", "umconv.blockcode", "_dependency_min_weight"),
    ("blockcode.enumeration", "umconv.blockcode", "_enumeration_min_weight"),
    ("convcode.classify", "umconv.cli", "classify"),
    ("convcode.certificate", "umconv.convcode", "block_split_certificate"),
)

_FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "div", "pow")

# (counter name, module, class, methods)
COUNT_BOUNDARIES = (
    ("galois.ops", "umconv.galois", "Field", _FIELD_OPS),
    ("galois.ops", "umconv.galois", "ExtField", _FIELD_OPS),
    ("linalg.fmatrix.new", "umconv.linalg", "FMatrix", ("__init__",)),
)

# Boundaries each workload must cross; 0 calls on one of them fails the run.
REQUIRED = {
    "sweep": (
        "cli.main", "constructions.construct_family", "galois.field_build",
        "galois.ops", "linalg.rref", "linalg.rank", "linalg.fmatrix.new",
        "blockcode.min_distance", "blockcode.dependency", "convcode.classify",
    ),
    "construct": (
        "constructions.construct_family", "galois.field_build", "galois.ops",
        "linalg.rank", "linalg.fmatrix.new", "blockcode.min_distance",
        "blockcode.dependency", "blockcode.enumeration",
    ),
    "verify-perm": (
        "cli.main", "galois.field_build", "galois.ops", "linalg.rref",
        "linalg.rank", "linalg.fmatrix.new", "blockcode.min_distance",
        "blockcode.dependency", "convcode.classify", "convcode.certificate",
    ),
}


class HookMissing(RuntimeError):
    """A boundary the benchmark wraps no longer exists in the program."""


class BoundaryNotCrossed(RuntimeError):
    """A boundary the workload must cross recorded no calls."""


def _resolve(module_name, attr):
    module = importlib.import_module(module_name)
    target = getattr(module, attr, None)
    if not callable(target):
        raise HookMissing(f"{module_name}.{attr} is gone; update bench/hooks.py")
    return module, target


class Tracer:
    """Span and counter recorder for one pass of one workload."""

    def __init__(self):
        self.names = sorted({name for name, _, _ in SPAN_BOUNDARIES})
        self._name_ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.code = array("i")
        self.codes = []  # code id -> code label
        self._code_id = -1
        self._stack = [-1]
        self.counts = {name: 0 for name, *_ in COUNT_BOUNDARIES}
        self._undo = []

    def set_code(self, label):
        """Attribute the spans that follow to the code `label`."""
        self.codes.append(label)
        self._code_id = len(self.codes) - 1

    def install(self):
        # Resolve every boundary before patching any, so a missing one
        # leaves the program untouched.
        spans = [(n, *_resolve(m, a), a) for n, m, a in SPAN_BOUNDARIES]
        counts = []
        for name, module_name, cls_name, methods in COUNT_BOUNDARIES:
            _, cls = _resolve(module_name, cls_name)
            for method in methods:
                if not callable(getattr(cls, method, None)):
                    raise HookMissing(f"{module_name}.{cls_name}.{method} is gone")
                counts.append((name, cls, method))
        for name, module, target, attr in spans:
            self._patch(module, attr, self._span_wrapper(name, target))
        for name, cls, method in counts:
            self._patch(cls, method, self._count_wrapper(name, cls.__dict__[method]))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name, fn):
        name_id = self._name_ids[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.code.append(self._code_id)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def spans(self):
        """Recorded spans as (name, start, end, parent, code id) tuples."""
        return [
            (self.names[n], s, e, p, c)
            for n, s, e, p, c in zip(self.name, self.start, self.end, self.parent, self.code)
        ]

    def to_json(self):
        return {
            "fields": ["name", "start", "end", "parent", "code"],
            "names": self.names,
            "codes": self.codes,
            "name": list(self.name),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "code": list(self.code),
            "counts": dict(self.counts),
        }


def self_times(spans):
    """Self time of each span: duration minus the union of its children.

    `spans` holds (name, start, end, parent index, code) tuples with parent
    -1 for a root.  Children are clipped to their parent's interval.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out.append((end - start) - covered)
    return out


def layer_totals(spans, counts):
    """Per-boundary totals: calls, inclusive seconds and self seconds.

    Inclusive time counts a span only when no ancestor has the same name,
    so a boundary that re-enters itself is not counted twice.
    """
    selfs = self_times(spans)
    totals = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    for name, value in counts.items():
        totals[name] = {"calls": value, "s": 0.0, "self_s": 0.0}
    return totals


def check_crossed(workload, totals):
    missing = [
        name for name in REQUIRED[workload] if totals.get(name, {}).get("calls", 0) == 0
    ]
    if missing:
        raise BoundaryNotCrossed(
            f"{workload}: no calls recorded across {', '.join(missing)}"
        )


# Per-layer metrics: name -> (unit, boundary, field).
LAYER_METRICS = {
    "galois.ops": ("count", "galois.ops", "calls"),
    "galois.field_builds": ("count", "galois.field_build", "calls"),
    "galois.field_build_s": ("s", "galois.field_build", "s"),
    "linalg.rref.calls": ("count", "linalg.rref", "calls"),
    "linalg.rref.s": ("s", "linalg.rref", "s"),
    "linalg.rank.calls": ("count", "linalg.rank", "calls"),
    "linalg.fmatrix.new": ("count", "linalg.fmatrix.new", "calls"),
    "blockcode.min_distance.calls": ("count", "blockcode.min_distance", "calls"),
    "blockcode.min_distance.s": ("s", "blockcode.min_distance", "s"),
    "blockcode.dependency.calls": ("count", "blockcode.dependency", "calls"),
    "blockcode.dependency.s": ("s", "blockcode.dependency", "s"),
    "blockcode.enumeration.calls": ("count", "blockcode.enumeration", "calls"),
    "blockcode.enumeration.s": ("s", "blockcode.enumeration", "s"),
    "constructions.self_s": ("s", "constructions.construct_family", "self_s"),
    "convcode.classify.calls": ("count", "convcode.classify", "calls"),
    "convcode.classify.s": ("s", "convcode.classify", "s"),
    "convcode.certificate.s": ("s", "convcode.certificate", "s"),
    "convcode.search.self_s": ("s", "convcode.classify", "self_s"),
    "cli.self_s": ("s", "cli.main", "self_s"),
}


def layer_metrics(totals):
    """Flatten boundary totals into the named per-layer metrics."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    return {
        metric: totals.get(boundary, empty)[field]
        for metric, (_, boundary, field) in LAYER_METRICS.items()
    }
