"""In-place accumulating convolutions c += a*b mod (X^n - f).

One entry point, `conv_acc`, checks its arguments once, before any write,
and takes one of two routes:

  n even, f not 0, 1, n > threshold -> `_conv_even_f`, three half products;
  otherwise                         -> two truncated products.

The second route is c += low(a*b) + f*high(a*b), with low(a*b) = a*b mod
X^n and high(a*b)[k] = (a*b)[n+k].  Read backwards, high(a*b) is the
truncated product of reversed a[1:n] and b[1:n] mod X^(n-1) (Hanrot &
Zimmermann's high short product), so it lands on reversed c[0:n-1],
bracketed by a divide/multiply with f; f = 1 skips the scalings and f = 0
the second product.  That is n^2 pairs under `Schoolbook`, and a and b
are never written.  The even route costs 0.75*n^2: it couples, rescales
and rotates (`vec_rotate`) the halves of its operands and of c in place,
so its three full products each land on one region, and undoes every
step before it returns.
"""

from __future__ import annotations

from .instrument import tracked
from .mulbase import LengthMismatch, MulStrategy, _resolve, acc_mul_full, acc_mul_short
from .region import CoeffRegion, _check_disjoint, vec_addmul, vec_iadd, vec_rotate, vec_scale


class BadParameter(ValueError):
    """Convolution parameter outside the domain: f not a canonical int, or n = 0."""


def _check_wrap(field, f) -> None:
    """Raise `BadParameter` unless f is an int in [0, p)."""
    if not isinstance(f, int) or not 0 <= f < field.p:
        raise BadParameter(f"f must be a canonical residue mod {field.p}: {f!r}")


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
    before any write.  Only the even route writes a and b, and it
    restores them exactly; c gains the wrapped product (or loses it, when
    negate is set).
    """
    n = len(c)
    if len(a) != n or len(b) != n:
        raise LengthMismatch(f"need equal lengths, got {len(a)}, {len(b)}, {n}")
    if n == 0:
        raise BadParameter("empty convolution")
    _check_wrap(c.field, f)
    _check_disjoint(c, a, b)
    strategy = _resolve(strategy)
    if n % 2 == 0 and f not in (0, 1) and n > strategy.threshold:
        _conv_even_f(c, a, b, f, negate, strategy)
        return
    acc_mul_short(c, a, b, n, negate, strategy)
    if f == 0 or n == 1:
        return
    w = c.sub(0, n - 1)     # c[k] += f*(a*b)[n+k]: reversed, a truncated product
    if f != 1:
        vec_scale(w, c.field.inv(f))
    acc_mul_short(w.reversed(), a.sub(1, n).reversed(), b.sub(1, n).reversed(), n - 1,
                  negate, strategy)
    if f != 1:
        vec_scale(w, f)
