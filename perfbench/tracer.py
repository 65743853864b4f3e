"""Span tracing around the calls into each ffpoly layer, from outside the library.

`Tracer.install` replaces every public function of the layer modules, in
every ffpoly module (and the package namespace) that binds it, by a
wrapper that records a span; `Schoolbook` and `Field` methods are wrapped
on their classes, because `short_acc` calls `strategy.acc_mul_short`
directly and the kernels call field methods on the instance.  Spans are
kept in memory; `uninstall` puts the original objects back.

A span is (name, layer, op, round, start_ns, end_ns, parent, adds, muls,
divs, size): the field-op counts are the growth of the active measure
scope over the span, and `size` is the operand length the layer metrics
need (Toeplitz dimension, mean kernel operand length), or 0.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter_ns

# `instrument` is a layer too, but its only code on the call path is the
# `tracked` decorator's wrapper, already applied at import; that glue is
# inside the span of each tracked function, and counted by `tracked_calls`.
LAYERS = ("mulbase", "conv", "toeplitz", "euclid", "modmul", "region", "ff", "reference")


def _size_mul(args, kwargs):
    return (len(args[1]) + len(args[2])) / 2


def _size_mul_method(args, kwargs):
    return (len(args[2]) + len(args[3])) / 2


def _size_tri(args, kwargs):
    return len(args[1])


SIZES = {
    "mulbase.acc_mul_full": _size_mul,
    "mulbase.acc_mul_short": _size_mul,
    "mulbase.Schoolbook.acc_mul_full": _size_mul_method,
    "mulbase.Schoolbook.acc_mul_short": _size_mul_method,
    "toeplitz.tri_toeplitz_mul_overplace": _size_tri,
    "toeplitz.tri_toeplitz_solve_overplace": _size_tri,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.on = False
        self.scope = None     # measure scope of the op being traced
        self.op = None
        self.round = None
        self.tracked = set()  # span names of @tracked functions
        self._undo = []

    def _wrap(self, fn, name, layer):
        size_of = SIZES.get(name)
        spans, stack = self.spans, self.stack
        tracer = self

        def span(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            s = tracer.scope
            a0, m0, d0 = (s.adds, s.muls, s.divs) if s is not None else (0, 0, 0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                a1, m1, d1 = (s.adds, s.muls, s.divs) if s is not None else (0, 0, 0)
                size = size_of(args, kwargs) if size_of is not None else 0
                spans[idx] = (name, layer, tracer.op, tracer.round, t0, t1, parent,
                              a1 - a0, m1 - m0, d1 - d0, size)

        span.__name__ = fn.__name__
        span.__wrapped__ = fn
        if hasattr(fn, "__wrapped__"):
            self.tracked.add(name)
        return span

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ffpoly" or n.startswith("ffpoly."))]
        replacement = {}
        for layer in LAYERS:
            mod = sys.modules[f"ffpoly.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if inspect.unwrap(obj).__module__ != mod.__name__:
                    continue
                replacement[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))
        mulbase = sys.modules["ffpoly.mulbase"]
        ff = sys.modules["ffpoly.ff"]
        for cls, layer, names in (
                (mulbase.Schoolbook, "mulbase", ("acc_mul_full", "acc_mul_short")),
                (ff.Field, "ff", ("add", "sub", "neg", "mul", "inv", "div"))):
            for attr in names:
                fn = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(fn, f"{layer}.{cls.__name__}.{attr}", layer))
                self._undo.append((cls, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()


STATS = ("calls", "spans", "self_ns", "root_ns", "adds", "muls", "divs", "size_sum", "tri",
         "base")


def aggregate(spans, threshold: int) -> dict:
    """Totals per (op, layer) of one set of spans: calls, self time, self counts.

    A call into a layer is a span whose parent lies in another layer (or
    that has none); self time and self counts subtract the children.
    `root_ns` is the self time of spans without a parent: the op entry
    points, where untraced code called directly by an entry point lands.
    """
    child_ns = [0] * len(spans)
    child_ops = [[0, 0, 0] for _ in spans]
    for s in spans:
        parent = s[6]
        if parent >= 0:
            child_ns[parent] += s[5] - s[4]
            acc = child_ops[parent]
            acc[0] += s[7]
            acc[1] += s[8]
            acc[2] += s[9]
    out = {}
    for i, s in enumerate(spans):
        name, layer, op, parent = s[0], s[1], s[2], s[6]
        agg = out.get((op, layer))
        if agg is None:
            agg = out[(op, layer)] = dict.fromkeys(STATS, 0)
        agg["spans"] += 1
        self_ns = (s[5] - s[4]) - child_ns[i]
        agg["self_ns"] += self_ns
        if parent < 0:
            agg["root_ns"] += self_ns
        agg["adds"] += s[7] - child_ops[i][0]
        agg["muls"] += s[8] - child_ops[i][1]
        agg["divs"] += s[9] - child_ops[i][2]
        if parent < 0 or spans[parent][1] != layer:
            agg["calls"] += 1
            agg["size_sum"] += s[10]
        if name.startswith("toeplitz.tri_toeplitz_"):
            agg["tri"] += 1
            agg["base"] += s[10] <= threshold
    return out


def by_layer(table: dict, ops=None) -> dict:
    """Sum an `aggregate` table over ops (all of them, or those named)."""
    out = {layer: dict.fromkeys(STATS, 0) for layer in LAYERS}
    for (op, layer), agg in table.items():
        if ops is None or op in ops:
            for k in STATS:
                out[layer][k] += agg[k]
    return out
