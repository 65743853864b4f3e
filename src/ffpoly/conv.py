"""In-place accumulating convolutions c += a*b mod (X^n - f).

One entry point, `conv_acc`, routes on (f, parity of n):

  f = 0        -> `short_acc`, the truncated product;
  n odd        -> `conv_odd_f` (any nonzero f);
  f = 1        -> `conv_even_1`;
  otherwise    -> `conv_even_f`.

Each variant splits its operands in halves (or thirds) and reduces to a
constant number of full accumulating multiplications plus a linear number
of scalar operations.  Operands are freely mutated during a call but are
always restored exactly; only c changes value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instrument import tracked
from .mulbase import MulStrategy, _resolve, acc_mul_full
from .region import (
    CoeffRegion, SplitTarget, _check_disjoint, _mac, vec_addmul, vec_iadd, vec_scale)


class LengthMismatch(ValueError):
    """Operand regions do not have the required lengths."""


class BadParameter(ValueError):
    """Parameter outside a variant's domain (parity, f value, n = 0)."""


@dataclass(frozen=True)
class ConvParams:
    """Routing plan for one convolution instance."""

    n: int
    f: int
    route: str           # "short" | "odd" | "even_one" | "even_general"
    t: int               # split point used by the halving variants
    lam: int | None = None   # scaling pair for the truncated product,
    g: int | None = None     # valid whenever the field is not GF(2)


def _route(n: int, f: int) -> str:
    """The variant computing c += a*b mod (X^n - f); the one routing decision."""
    if f == 0:
        return "short"
    if n % 2 == 1:
        return "odd"
    return "even_one" if f == 1 else "even_general"


def _scaling_pair(field):
    """(lambda, g = lambda/(lambda - 1)) for the truncated product; None over GF(2)."""
    if not field.has_element_outside_01:
        return None, None
    lam = 2
    return lam, field.mul(lam, field.inv(lam - 1))


def _check_f(field, f: int) -> None:
    if not 0 <= f < field.p:
        raise BadParameter(f"f must be a canonical residue mod {field.p}: {f}")


def plan_convolution(field, n: int, f: int) -> ConvParams:
    if n < 1:
        raise BadParameter(f"convolution length must be >= 1: {n}")
    _check_f(field, f)
    route = _route(n, f)
    t = {"short": n // 3, "odd": (n + 1) // 2}.get(route, n // 2)
    return ConvParams(n, f, route, t, *_scaling_pair(field))


def _check_triple(c, a, b):
    n = len(c)
    if len(a) != n or len(b) != n:
        raise LengthMismatch(f"need equal lengths, got {len(a)}, {len(b)}, {n}")
    if n == 0:
        raise BadParameter("empty convolution")
    return n


def _conv_quad(c: CoeffRegion, a: CoeffRegion, b: CoeffRegion, f: int,
               negate: bool) -> None:
    """Quadratic wrapped accumulation; base case of every variant.

    c[k] += sum_{i<=k} a[i]*b[k-i] + f * sum_{i>k} a[i]*b[n+k-i], two
    dot products per column against the reversed view of b.
    """
    n = len(c)
    t = -1 if negate else 1
    br = b.reversed()
    for k in range(n):
        _mac(c, k, 1, t, a, 0, br, n - 1 - k, k + 1)
        _mac(c, k, 1, t * f, a, k + 1, br, 0, n - 1 - k)
    scope = c.field.scope
    if scope is not None:
        scope.count(adds=n * n, muls=n * n + n - 1)


@tracked
def conv_even_f(c: CoeffRegion, a: CoeffRegion, b: CoeffRegion, f: int,
                negate: bool = False, strategy: MulStrategy | None = None) -> None:
    """c += a*b mod (X^n - f) for even n and f outside {0, 1}.

    Three half-length products; the cross product reuses the space of the
    other two through an invertible rescaling of the two halves of c,
    which is unwound in the closing steps.
    """
    strategy = _resolve(strategy)
    n = _check_triple(c, a, b)
    field = c.field
    if not 1 < f < field.p:
        raise BadParameter(f"f must lie outside {{0, 1}}: {f}")
    if n % 2:
        raise BadParameter(f"length must be even: {n}")
    if n <= strategy.threshold:
        _conv_quad(c, a, b, f, negate)
        return
    t = n // 2
    a0, a1 = a.sub(0, t), a.sub(t, n)
    b0, b1 = b.sub(0, t), b.sub(t, n)
    c0, c1 = c.sub(0, t), c.sub(t, n)
    one_minus_f = field.sub(1, f)
    vec_iadd(c1, c0)
    vec_scale(c1, field.inv(one_minus_f))
    vec_addmul(c0, f, c1)
    acc_mul_full(SplitTarget(c0, c1), a0, b0, negate=negate, strategy=strategy)
    vec_scale(c0, field.inv(f))
    acc_mul_full(SplitTarget(c1, c0), a1, b1, negate=not negate, strategy=strategy)
    vec_iadd(c0, c1, negate=True)
    vec_scale(c1, one_minus_f)
    vec_addmul(c1, f, c0, negate=True)
    vec_iadd(a0, a1)
    vec_iadd(b0, b1)
    acc_mul_full(SplitTarget(c1, c0), a0, b0, negate=negate, strategy=strategy)
    vec_iadd(b0, b1, negate=True)
    vec_iadd(a0, a1, negate=True)
    vec_scale(c0, f)


@tracked
def conv_even_1(c: CoeffRegion, a: CoeffRegion, b: CoeffRegion,
                negate: bool = False, strategy: MulStrategy | None = None) -> None:
    """c += a*b mod (X^n - 1) for even n: four plain half products.

    The halves of c swap roles for the cross terms because multiplying by
    the half-length power exchanges low and high parts when squaring it
    gives 1.
    """
    strategy = _resolve(strategy)
    n = _check_triple(c, a, b)
    if n % 2:
        raise BadParameter(f"length must be even: {n}")
    if n <= strategy.threshold:
        _conv_quad(c, a, b, 1, negate)
        return
    t = n // 2
    a0, a1 = a.sub(0, t), a.sub(t, n)
    b0, b1 = b.sub(0, t), b.sub(t, n)
    lo_hi = SplitTarget(c.sub(0, t), c.sub(t, n))
    hi_lo = SplitTarget(c.sub(t, n), c.sub(0, t))
    acc_mul_full(lo_hi, a0, b0, negate=negate, strategy=strategy)
    acc_mul_full(lo_hi, a1, b1, negate=negate, strategy=strategy)
    acc_mul_full(hi_lo, a0, b1, negate=negate, strategy=strategy)
    acc_mul_full(hi_lo, a1, b0, negate=negate, strategy=strategy)


@tracked
def conv_odd_f(c: CoeffRegion, a: CoeffRegion, b: CoeffRegion, f: int,
               negate: bool = False, strategy: MulStrategy | None = None) -> None:
    """c += a*b mod (X^n - f) for odd n and nonzero f.

    Split at t = (n+1)/2, so the upper halves are one shorter than the
    lower ones.  The low-low product lands directly; the high-high
    product, shifted one up after wrapping, is folded by scaling its a
    operand with f (and restoring it); the cross products wrap their tails
    into c[0..t-1), which is bracketed by a divide/multiply with f.
    """
    strategy = _resolve(strategy)
    n = _check_triple(c, a, b)
    field = c.field
    if not 1 <= f < field.p:
        raise BadParameter(f"f must be nonzero: {f}")
    if n % 2 == 0:
        raise BadParameter(f"length must be odd: {n}")
    if n <= strategy.threshold:
        _conv_quad(c, a, b, f, negate)
        return
    t = (n + 1) // 2
    a0, a1 = a.sub(0, t), a.sub(t, n)
    b0, b1 = b.sub(0, t), b.sub(t, n)
    acc_mul_full(SplitTarget(c.sub(0, t), c.sub(t, n)), a0, b0,
                 negate=negate, strategy=strategy)
    inv_f = field.inv(f)
    vec_scale(a1, f)
    acc_mul_full(c.sub(1, 2 * t - 2), a1, b1, negate=negate, strategy=strategy)
    vec_scale(a1, inv_f)
    wrap = c.sub(0, t - 1)
    vec_scale(wrap, inv_f)
    tail_target = SplitTarget(c.sub(t, n), wrap)
    acc_mul_full(tail_target, a0, b1, negate=negate, strategy=strategy)
    acc_mul_full(tail_target, a1, b0, negate=negate, strategy=strategy)
    vec_scale(wrap, f)


# The truncated-product schedule over GF(2), on thirds.  Each record is
# (a_adds, a_block, b_adds, b_block, rows, couple): apply the listed block
# additions to the operands, accumulate the full product of the named
# blocks onto a row pair (the truncated one onto a single row), undo the
# additions.  When `couple` is set the row pair is conjugated by the
# self-inverse transform (x, y) -> (x, x + y) on both sides of the
# accumulation.
@dataclass(frozen=True)
class BilinearStep:
    a_adds: tuple
    a_block: int
    b_adds: tuple
    b_block: int
    rows: tuple
    couple: bool


F2_SHORT_SCHEDULE = (
    BilinearStep((), 0, (), 0, (0, 1), False),
    BilinearStep(((0, 1), (0, 2)), 0, ((0, 1), (0, 2)), 0, (1, 2), True),
    BilinearStep((), 2, (), 2, (1, 2), False),
    BilinearStep(((0, 2),), 0, ((0, 2),), 0, (1, 2), True),
    BilinearStep(((1, 2),), 1, ((1, 2),), 1, (1, 2), True),
    BilinearStep(((1, 2),), 1, ((0, 1),), 0, (2,), False),
    BilinearStep(((0, 2),), 0, ((1, 2),), 1, (2,), False),
)


def _apply_bilinear_step(step: BilinearStep, cb, ab, bb, negate, strategy):
    for d, s in step.a_adds:
        vec_iadd(ab[d], ab[s])
    for d, s in step.b_adds:
        vec_iadd(bb[d], bb[s])
    if len(step.rows) == 1:
        short_acc(cb[step.rows[0]], ab[step.a_block], bb[step.b_block], negate, strategy)
    else:
        ci, cj = cb[step.rows[0]], cb[step.rows[1]]
        if step.couple:
            vec_iadd(cj, ci)
        acc_mul_full(SplitTarget(ci, cj), ab[step.a_block], bb[step.b_block],
                     negate=negate, strategy=strategy)
        if step.couple:
            vec_iadd(cj, ci)
    for d, s in reversed(step.b_adds):
        vec_iadd(bb[d], bb[s], negate=True)
    for d, s in reversed(step.a_adds):
        vec_iadd(ab[d], ab[s], negate=True)


def _scalar_tail(c, a, b, k, negate):
    """c[k] += sum_{i=0..k} a[i]*b[k-i], one scalar accumulation sweep."""
    _mac(c, k, 1, -1 if negate else 1, a, 0, b.reversed(), len(b) - 1 - k, k + 1)
    scope = c.field.scope
    if scope is not None:
        scope.count(adds=k + 1, muls=k + 1)


@tracked
def short_acc(c: CoeffRegion, a: CoeffRegion, b: CoeffRegion,
              negate: bool = False, strategy: MulStrategy | None = None) -> None:
    """c += a*b mod X^n, the truncated (0-convolution) product.

    Fields with an element lambda outside {0, 1} use two wrapped
    convolutions whose quotient contributions cancel: scale a by lambda,
    accumulate mod (X^n - 1), rescale a to (1 - lambda) of its original,
    accumulate mod (X^n - g) with g = lambda/(lambda - 1), restore a.

    Over GF(2) the operands split in thirds: `F2_SHORT_SCHEDULE` applies
    five full products through self-inverse row couplings and two recursive
    truncated products, and up to two scalar sweeps cover the rest.
    """
    strategy = _resolve(strategy)
    n = _check_triple(c, a, b)
    field = c.field
    if n <= strategy.threshold:
        strategy.acc_mul_short(c, a, b, n, negate)
        return
    if field.has_element_outside_01:
        lam, g = _scaling_pair(field)
        one_minus_lam = field.sub(1, lam)
        vec_scale(a, lam)
        _convolve(c, a, b, 1, negate, strategy)
        vec_scale(a, field.mul(one_minus_lam, field.inv(lam)))
        _convolve(c, a, b, g, negate, strategy)
        vec_scale(a, field.inv(one_minus_lam))
        return
    t = n // 3
    if t:
        ab = (a.sub(0, t), a.sub(t, 2 * t), a.sub(2 * t, 3 * t))
        bb = (b.sub(0, t), b.sub(t, 2 * t), b.sub(2 * t, 3 * t))
        cb = (c.sub(0, t), c.sub(t, 2 * t), c.sub(2 * t, 3 * t))
        for step in F2_SHORT_SCHEDULE:
            _apply_bilinear_step(step, cb, ab, bb, negate, strategy)
    if n >= 3 * t + 1:
        _scalar_tail(c, a, b, 3 * t, negate)
    if n == 3 * t + 2:
        _scalar_tail(c, a, b, 3 * t + 1, negate)


@tracked
def short_acc_ragged(c: CoeffRegion, a: CoeffRegion, b: CoeffRegion,
                     n: int | None = None, negate: bool = False,
                     strategy: MulStrategy | None = None) -> None:
    """c += a*b mod X^n for operands of any lengths.

    Peels full products off the longer operand until the remaining piece
    is square, then hands over to `short_acc`; the peeling is iterative,
    so only O(1) frames are used.  Coefficients of a and b at or above
    X^n never contribute and are ignored.
    """
    strategy = _resolve(strategy)
    if n is None:
        n = len(c)
    if len(c) < n:
        raise LengthMismatch(f"target {len(c)} < truncation length {n}")
    c = c.sub(0, n)
    a = a.sub(0, min(len(a), n))
    b = b.sub(0, min(len(b), n))
    while True:
        la, lb = len(a), len(b)
        if la == 0 or lb == 0 or n == 0:
            return
        if la + lb - 1 <= n:
            acc_mul_full(c.sub(0, la + lb - 1), a, b, negate=negate,
                         strategy=strategy)
            return
        if la > lb:
            a, b = b, a
            la, lb = lb, la
        if la == n and lb == n:
            short_acc(c, a, b, negate, strategy)
            return
        cut = n - la + 1
        acc_mul_full(c, a, b.sub(0, cut), negate=negate, strategy=strategy)
        c = c.sub(cut, n)
        b = b.sub(cut, lb)
        n = la - 1
        a = a.sub(0, n)


@tracked
def conv_acc(c: CoeffRegion, a: CoeffRegion, b: CoeffRegion, f: int,
             negate: bool = False, strategy: MulStrategy | None = None) -> None:
    """c += a*b mod (X^n - f); dispatcher over all (n, f) cases.

    a and b are temporarily mutated but restored exactly; c gains the
    wrapped product (or loses it, when negate is set).  The three regions
    must be disjoint.
    """
    _check_triple(c, a, b)
    _check_f(c.field, f)
    _check_disjoint(c, a, b)
    _convolve(c, a, b, f, negate, strategy)


def _convolve(c, a, b, f, negate, strategy):
    """c += a*b mod (X^n - f) through the variant `_route` picks."""
    route = _route(len(c), f)
    if route == "short":
        short_acc(c, a, b, negate, strategy)
    elif route == "odd":
        conv_odd_f(c, a, b, f, negate, strategy)
    elif route == "even_one":
        conv_even_1(c, a, b, negate, strategy)
    else:
        conv_even_f(c, a, b, f, negate, strategy)
