"""In-place accumulating convolutions c += a*b mod (X^n - f).

One entry point, `conv_acc`, checks its arguments once, before any write,
and routes on (f, n):

  f = 0                    -> `short_acc`, one `acc_mul_short` call;
  n <= threshold           -> `_conv_quad`, two packed products (`region._kron`);
  n even, f not 0, 1       -> `_conv_even_f`, three half-length products;
  otherwise                -> `_conv_split_f`, four products at t = ceil(n/2).

The two wrapped variants are private steps: they take checked arguments
and a resolved strategy, and check nothing themselves.  `_conv_split_f`
is correct for every n and nonzero f; the even route is kept because it
needs 3 products (0.75*n^2 muls under `Schoolbook`) against 4 (n^2).
Each wrapped variant splits its operands in halves and reduces to a
constant number of full accumulating multiplications plus a linear
number of scalar operations; its operands are freely mutated during a
call but are always restored exactly.  A product that wraps round the
end of c lands on one contiguous window after c is rotated in place
(`vec_rotate`), and c is rotated back before the call returns, so every
product target is a single region.  The truncated product is one call
of the strategy's `acc_mul_short` and writes nothing but c.
"""

from __future__ import annotations

from .instrument import tracked
from .mulbase import LengthMismatch, MulStrategy, _resolve, acc_mul_full
from .region import (
    CoeffRegion, _check_disjoint, _kron, vec_addmul, vec_iadd, vec_rotate, vec_scale)


class BadParameter(ValueError):
    """Convolution parameter outside the domain: f not a canonical int, or n = 0."""


def _conv_quad(c: CoeffRegion, a: CoeffRegion, b: CoeffRegion, f: int,
               negate: bool) -> None:
    """Quadratic wrapped accumulation; the base case for nonzero f.

    c[k] += (a*b)[k] + f*(a*b)[n+k], as two packed products: positions
    0..n-1 of a*b onto c, then f times positions n..2n-2 onto c[0:n-1].
    """
    n = len(c)
    t = -1 if negate else 1
    _kron(c, 1, t, a, b, 0)
    if n > 1:
        _kron(c.sub(0, n - 1), 1, t * f, a, b, n)
    scope = c.field.scope
    if scope is not None:
        scope.count(adds=n * n, muls=n * n + n - 1)


@tracked
def _conv_even_f(c: CoeffRegion, a: CoeffRegion, b: CoeffRegion, f: int,
                 negate: bool, strategy: MulStrategy) -> None:
    """c += a*b mod (X^n - f) for even n and f outside {0, 1}; a `conv_acc` step.

    Three half-length products; the cross product reuses the space of the
    other two through an invertible rescaling of the two halves of c,
    which is unwound in the closing steps.  The first product lands on
    [c0 | c1]; the other two land on [c1 | c0], which is c rotated by n/2.
    c stays rotated from the second product through the third, so while
    it is, the views c0 and c1 hold each other's halves.
    """
    n = len(c)
    field = c.field
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
def _conv_split_f(c: CoeffRegion, a: CoeffRegion, b: CoeffRegion, f: int,
                  negate: bool, strategy: MulStrategy) -> None:
    """c += a*b mod (X^n - f) for any n >= 2 and nonzero f; a `conv_acc` step.

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
    n = len(c)
    field = c.field
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

    a and b may have any lengths; nothing of them above X^n is read.  The
    product is one `MulStrategy.acc_mul_short` call, so its cost is the
    strategy's: under `Schoolbook` each pair (i, j) with i < len a,
    j < len b and i + j < n costs one mul and one add, n(n+1)/2 of each
    for square operands.  Only c is written, and one path serves every
    field, GF(2) included.  c must be disjoint from a and b (else
    `AliasedOperands`, before any write).
    """
    _check_disjoint(c, a, b)
    _resolve(strategy).acc_mul_short(c, a, b, len(c), negate)


@tracked
def conv_acc(c: CoeffRegion, a: CoeffRegion, b: CoeffRegion, f: int,
             negate: bool = False, strategy: MulStrategy | None = None) -> None:
    """c += a*b mod (X^n - f) for n = len(c) >= 1 and f in [0, p); the one entry.

    a and b must have length n (else `LengthMismatch`); n = 0 and an f
    that is not an int in [0, p) raise `BadParameter`; the three regions
    must be disjoint (else `AliasedOperands`).  All of this is checked
    before any write.  a and b may be temporarily mutated but are
    restored exactly; c gains the wrapped product (or loses it, when
    negate is set).
    """
    n = len(c)
    if len(a) != n or len(b) != n:
        raise LengthMismatch(f"need equal lengths, got {len(a)}, {len(b)}, {n}")
    if n == 0:
        raise BadParameter("empty convolution")
    if not isinstance(f, int) or not 0 <= f < c.field.p:
        raise BadParameter(f"f must be a canonical residue mod {c.field.p}: {f!r}")
    _check_disjoint(c, a, b)
    strategy = _resolve(strategy)
    if f == 0:
        short_acc(c, a, b, negate, strategy)
    elif n <= strategy.threshold:
        _conv_quad(c, a, b, f, negate)
    elif n % 2 == 0 and f != 1:
        _conv_even_f(c, a, b, f, negate, strategy)
    else:
        _conv_split_f(c, a, b, f, negate, strategy)
