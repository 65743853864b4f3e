"""Measurement of field-operation counts, auxiliary space and recursion depth.

A `Scope` is attached to a `Field` for the duration of a `measure(...)`
block.  While attached:

  * every scalar field operation ticks `adds` / `muls` / `divs` (one unit
    per add/sub/neg, one per mul, one per inv/div; a fused subtract-
    accumulate counts as one add and one mul, exactly like its additive
    twin);
  * bulk kernels report their exact operation totals through `count`;
  * buffer construction reports the number of field elements acquired
    through `alloc`, so auxiliary-space ceilings are enforceable;
  * functions decorated with `tracked` report algorithmic recursion depth.

Counters are deterministic functions of the operation and its operand
shapes; no kernel short-circuits on operand values.

An exceeded ceiling does not stop the computation: the scope keeps the
first violation, and `measure` raises it as `GuardViolation` when the
block closes.  So a guard never leaves a call half done, with its regions
rescaled or coupled.  The trade-off: an aux ceiling no longer stops an
allocation partway through a call; it still fails the scope.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import wraps


class GuardViolation(RuntimeError):
    """An auxiliary-space or recursion-depth ceiling was exceeded."""


class OpCounter:
    """Field-operation totals of one measured scope."""

    __slots__ = ("adds", "muls", "divs")

    def __init__(self, adds=0, muls=0, divs=0):
        self.adds = adds
        self.muls = muls
        self.divs = divs

    @property
    def total(self) -> int:
        return self.adds + self.muls + self.divs

    def __repr__(self):
        return f"OpCounter(adds={self.adds}, muls={self.muls}, divs={self.divs})"


class AllocGuard:
    """Auxiliary-space and recursion-depth peaks of one measured scope."""

    __slots__ = ("peak_aux", "peak_depth")

    def __init__(self, peak_aux=0, peak_depth=0):
        self.peak_aux = peak_aux
        self.peak_depth = peak_depth

    def __repr__(self):
        return f"AllocGuard(peak_aux={self.peak_aux}, peak_depth={self.peak_depth})"


class Scope:
    """Live measurement state; see module docstring."""

    __slots__ = ("adds", "muls", "divs", "aux", "peak_aux", "depth",
                 "peak_depth", "max_aux", "max_depth", "violation")

    def __init__(self, max_aux=None, max_depth=None):
        self.adds = 0
        self.muls = 0
        self.divs = 0
        self.aux = 0
        self.peak_aux = 0
        self.depth = 0
        self.peak_depth = 0
        self.max_aux = max_aux
        self.max_depth = max_depth
        self.violation = None    # first ceiling exceeded, raised by `measure`

    def count(self, adds=0, muls=0, divs=0):
        self.adds += adds
        self.muls += muls
        self.divs += divs

    def alloc(self, n: int):
        self.aux += n
        if self.aux > self.peak_aux:
            self.peak_aux = self.aux
            if self.max_aux is not None and self.peak_aux > self.max_aux:
                self._violate(f"auxiliary allocation {self.peak_aux} "
                              f"exceeds ceiling {self.max_aux}")

    def enter(self):
        self.depth += 1
        if self.depth > self.peak_depth:
            self.peak_depth = self.depth
            if self.max_depth is not None and self.peak_depth > self.max_depth:
                self._violate(f"recursion depth {self.peak_depth} "
                              f"exceeds ceiling {self.max_depth}")

    def leave(self):
        self.depth -= 1

    def _violate(self, message: str):
        if self.violation is None:
            self.violation = GuardViolation(message)

    @property
    def counter(self) -> OpCounter:
        return OpCounter(self.adds, self.muls, self.divs)

    @property
    def guard(self) -> AllocGuard:
        return AllocGuard(self.peak_aux, self.peak_depth)

    def __repr__(self):
        return (f"Scope(adds={self.adds}, muls={self.muls}, divs={self.divs}, "
                f"peak_aux={self.peak_aux}, peak_depth={self.peak_depth})")


@contextmanager
def measure(field, max_aux=None, max_depth=None):
    """Attach a fresh Scope to `field` for the duration of the block.

    Scopes do not nest: attaching over an existing scope is an error.  A
    ceiling exceeded inside the block raises `GuardViolation` once the
    block has finished, not at the operation that exceeded it.
    """
    if field.scope is not None:
        raise RuntimeError("measurement scopes do not nest")
    scope = Scope(max_aux=max_aux, max_depth=max_depth)
    field.scope = scope
    try:
        yield scope
    finally:
        field.scope = None
    if scope.violation is not None:
        raise scope.violation


def measure_call(field, fn, *args, **kwargs):
    """Run fn(*args, **kwargs) under a fresh scope; return the scope."""
    with measure(field) as scope:
        fn(*args, **kwargs)
    return scope


def _field_of(args):
    for a in args:
        f = getattr(a, "field", None)
        if f is not None:
            return f
    return None


def tracked(fn):
    """Record recursion depth of fn in the active scope, if any.

    The field is discovered from the first argument that exposes one
    (regions and views do); keyword arguments are scanned only when no
    positional one does.
    """

    @wraps(fn)
    def wrapper(*args, **kwargs):
        field = _field_of(args)
        if field is None and kwargs:
            field = _field_of(kwargs.values())
        scope = field.scope if field is not None else None
        if scope is None:
            return fn(*args, **kwargs)
        scope.enter()
        try:
            return fn(*args, **kwargs)
        finally:
            scope.leave()

    return wrapper
