"""In-place accumulating convolutions c += a*b mod (X^n - f).

One entry point, `conv_acc`, routes on (f, parity of n):

  f = 0               -> `short_acc`, the truncated product;
  n even, f not 0, 1  -> `conv_even_f`, three half-length products;
  otherwise           -> `conv_split_f`, four products at t = ceil(n/2).

`conv_split_f` is correct for every n and nonzero f; the even route is
kept because it needs 3 products (0.75*n^2 muls under `Schoolbook`)
against 4 (n^2).  Each wrapped variant splits its operands in halves and
reduces to a constant number of full accumulating multiplications plus a
linear number of scalar operations; its operands are freely mutated
during a call but are always restored exactly.  A product that wraps
round the end of c lands on one contiguous window after c is rotated in
place (`vec_rotate`), and c is rotated back before the call returns, so
every product target is a single region.  The truncated product
splits in halves too, into one full product and two half-length
truncated ones, and writes nothing but c.
"""

from __future__ import annotations

from .instrument import tracked
from .mulbase import LengthMismatch, MulStrategy, _resolve, acc_mul_full
from .region import (
    CoeffRegion, _check_disjoint, _mac, vec_addmul, vec_iadd, vec_rotate, vec_scale)


class BadParameter(ValueError):
    """Parameter outside a variant's domain (parity, f value, n = 0)."""


def _check_f(field, f: int) -> None:
    if not 0 <= f < field.p:
        raise BadParameter(f"f must be a canonical residue mod {field.p}: {f}")


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
    which is unwound in the closing steps.  The first product lands on
    [c0 | c1]; the other two land on [c1 | c0], which is c rotated by n/2.
    c stays rotated from the second product through the third, so while
    it is, the views c0 and c1 hold each other's halves.
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
    acc_mul_full(c.sub(0, n - 1), a0, b0, negate=negate, strategy=strategy)
    vec_scale(c0, field.inv(f))
    vec_rotate(c, t)        # from here to the rotation back, c0 holds c1 and c1 holds c0
    acc_mul_full(c.sub(0, n - 1), a1, b1, negate=not negate, strategy=strategy)
    vec_iadd(c1, c0, negate=True)
    vec_scale(c0, one_minus_f)
    vec_addmul(c0, f, c1, negate=True)
    vec_iadd(a0, a1)
    vec_iadd(b0, b1)
    acc_mul_full(c.sub(0, n - 1), a0, b0, negate=negate, strategy=strategy)
    vec_iadd(b0, b1, negate=True)
    vec_iadd(a0, a1, negate=True)
    vec_rotate(c, t)
    vec_scale(c0, f)


@tracked
def conv_split_f(c: CoeffRegion, a: CoeffRegion, b: CoeffRegion, f: int,
                 negate: bool = False, strategy: MulStrategy | None = None) -> None:
    """c += a*b mod (X^n - f) for any n and nonzero f.

    Split at t = ceil(n/2), so the upper halves are one shorter than the
    lower ones when n is odd.  The low-low product lands directly on
    c[0:2t-1]; the high-high product, which wraps to X^(2t-n), is folded
    by scaling its a operand with f (and restoring it); the cross
    products wrap their tails into c[0:t-1), which is bracketed by a
    divide/multiply with f.  Their target [c[t:n] | c[0:t-1]] is the head
    of c rotated by t, so c is rotated for them and rotated back.  For
    f = 1 every scaling is the identity and is skipped, leaving four plain
    products.
    """
    strategy = _resolve(strategy)
    n = _check_triple(c, a, b)
    field = c.field
    if not 1 <= f < field.p:
        raise BadParameter(f"f must be nonzero: {f}")
    if n <= strategy.threshold:
        _conv_quad(c, a, b, f, negate)
        return
    t = (n + 1) // 2
    a0, a1 = a.sub(0, t), a.sub(t, n)
    b0, b1 = b.sub(0, t), b.sub(t, n)
    scaled = f != 1
    inv_f = field.inv(f) if scaled else 1
    acc_mul_full(c.sub(0, 2 * t - 1), a0, b0, negate=negate, strategy=strategy)
    if scaled:
        vec_scale(a1, f)
    acc_mul_full(c.sub(2 * t - n, n - 1), a1, b1, negate=negate, strategy=strategy)
    wrap = c.sub(0, t - 1)
    if scaled:
        vec_scale(a1, inv_f)
        vec_scale(wrap, inv_f)
    vec_rotate(c, t)
    acc_mul_full(c.sub(0, n - 1), a0, b1, negate=negate, strategy=strategy)
    acc_mul_full(c.sub(0, n - 1), a1, b0, negate=negate, strategy=strategy)
    vec_rotate(c, n - t)
    if scaled:
        vec_scale(wrap, f)


@tracked
def short_acc(c: CoeffRegion, a: CoeffRegion, b: CoeffRegion,
              negate: bool = False, strategy: MulStrategy | None = None) -> None:
    """c += a*b mod X^n with n = len(c), the truncated (0-convolution) product.

    a and b may have any lengths: they are cut to la = min(len a, n) and
    lb = min(len b, n), as nothing above reaches below X^n, and a product
    that then fits, la + lb - 1 <= n, is one full product.  Otherwise the
    operands split at t = ceil(n/2), h = floor(n/2): the full product of
    the low parts a[0:t]*b[0:t] lands on c[0:2t-1], and the two cross terms
    that reach below X^n, a[0:h]*b[t:lb] and a[t:la]*b[0:h], are truncated
    products onto c[t:n].  Only c is written and no field element outside
    {0, 1} is used, so one path serves every field, GF(2) included.

    Under `Schoolbook` each pair (i, j) with i < la, j < lb and i + j < n
    costs one mul and one add: n(n+1)/2 of each for square operands.  The
    square cost S(n) = M(t) + 2*S(h) is O(M(n)) whenever M(n) =
    Theta(n^(1+eps)).  For a quasi-linear M (an NTT strategy) the split
    costs M(n)*log n; there, two wrapped convolutions whose quotient parts
    cancel (lambda*a mod X^n - 1 and (1 - lambda)*a mod X^n -
    lambda/(lambda - 1)) cost O(M(n)) and would be the right route again.
    c must be disjoint from a and b (else `AliasedOperands`, before any
    write).
    """
    _check_disjoint(c, a, b)
    strategy = _resolve(strategy)
    n = len(c)
    if len(a) > n:
        a = a.sub(0, n)
    if len(b) > n:
        b = b.sub(0, n)
    if n <= strategy.threshold:
        strategy.acc_mul_short(c, a, b, n, negate)
        return
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return
    if la + lb - 1 <= n:
        acc_mul_full(c.sub(0, la + lb - 1), a, b, negate=negate, strategy=strategy)
        return
    h = n // 2
    t = n - h
    la0, lb0 = min(la, t), min(lb, t)
    acc_mul_full(c.sub(0, la0 + lb0 - 1), a.sub(0, la0), b.sub(0, lb0), negate=negate,
                 strategy=strategy)
    if lb > t:
        short_acc(c.sub(t, n), a, b.sub(t, lb), negate, strategy)
    if la > t:
        short_acc(c.sub(t, n), a.sub(t, la), b, negate, strategy)


@tracked
def conv_acc(c: CoeffRegion, a: CoeffRegion, b: CoeffRegion, f: int,
             negate: bool = False, strategy: MulStrategy | None = None) -> None:
    """c += a*b mod (X^n - f); dispatcher over all (n, f) cases.

    a and b may be temporarily mutated but are restored exactly; c gains the
    wrapped product (or loses it, when negate is set).  The three regions
    must be disjoint.
    """
    n = _check_triple(c, a, b)
    _check_f(c.field, f)
    _check_disjoint(c, a, b)
    if f == 0:
        short_acc(c, a, b, negate, strategy)
    elif n % 2 == 0 and f != 1:
        conv_even_f(c, a, b, f, negate, strategy)
    else:
        conv_split_f(c, a, b, f, negate, strategy)
