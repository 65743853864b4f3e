"""In-place accumulated modular multiplication r += a*c mod b.

`mulmod_acc` handles the constrained case deg a <= min(deg c, deg b): the
top deg a + deg c - deg b + 1 coefficients of the product a*c are built
over-place inside c's top window, the quotient of a*c by b is solved
there, its contribution is subtracted from r, and both transformations
are inverted exactly, restoring c.  The product and quotient operators
restricted to that window are banded upper-triangular Toeplitz matrices
whose bands are the reversed operands, reversed a and reversed b, handled
by the banded routines.

`mulmod_acc_full` lifts the degree constraint by one rule for every
shape: both operands are reduced mod b in their own storage
(`euclid._reduced`, a no-op on one already shorter than b), the shorter
remainder plays a in one `mulmod_acc` call, and both are rebuilt.
"""

from __future__ import annotations

from .conv import LengthMismatch, short_acc
from .euclid import _reduced
from .instrument import tracked
from .mulbase import MulStrategy, NonInvertibleLeading, _divisor_degree, _resolve
from .region import CoeffRegion, _check_disjoint
from .toeplitz import banded_upper_mul_overplace, banded_upper_solve_overplace


class DegreeConstraint(ValueError):
    """deg a exceeds min(deg c, deg b) in the constrained entry point."""


@tracked
def mulmod_acc(r: CoeffRegion, a: CoeffRegion, c: CoeffRegion, b: CoeffRegion,
               strategy: MulStrategy | None = None) -> None:
    """r += a*c mod b, for deg a <= min(deg c, deg b); a, b, c restored.

    Needs nonzero leading coefficients on a and b (the two banded
    operators must be invertible) and disjoint regions.  When the product
    fits under b only the closing truncated product a*c mod X^M runs.
    """
    strategy = _resolve(strategy)
    m_deg = _divisor_degree(b)
    if len(r) != m_deg:
        raise LengthMismatch(f"accumulator must have length {m_deg}")
    _check_disjoint(r, a, c, b)
    if len(a) == 0 or len(c) == 0 or m_deg == 0:
        return
    l_deg = len(a) - 1
    n_deg = len(c) - 1
    if l_deg > n_deg or l_deg > m_deg:
        raise DegreeConstraint(
            f"need deg a <= min(deg c, deg b): {l_deg} > min({n_deg}, {m_deg})")
    if l_deg + n_deg >= m_deg:
        if a[l_deg] == 0:
            raise NonInvertibleLeading("multiplier needs a nonzero leading coefficient")
        w = c.sub(m_deg - l_deg, n_deg + 1)
        a_band, b_band = a.reversed(), b.reversed()
        banded_upper_mul_overplace(a_band, w, strategy)     # top of a*c
        banded_upper_solve_overplace(b_band, w, strategy)   # quotient of a*c by b
        short_acc(r, b, w, True, strategy)
        banded_upper_mul_overplace(b_band, w, strategy)     # undo the solve
        banded_upper_solve_overplace(a_band, w, strategy)   # undo the product
    short_acc(r, a, c, False, strategy)


def _trim(r: CoeffRegion) -> CoeffRegion:
    n = len(r)
    while n and r[n - 1] == 0:
        n -= 1
    return r.sub(0, n)


@tracked
def mulmod_acc_full(r: CoeffRegion, a: CoeffRegion, c: CoeffRegion, b: CoeffRegion,
                    strategy: MulStrategy | None = None) -> None:
    """r += a*c mod b for arbitrary degrees; a, b, c restored.

    Leading zero coefficients on a and c are ignored.  Both operands are
    reduced mod b in their own storage, the shorter trimmed remainder
    plays a in one `mulmod_acc` call, and both are rebuilt afterwards.
    """
    strategy = _resolve(strategy)
    m_deg = _divisor_degree(b)
    if len(r) != m_deg:
        raise LengthMismatch(f"accumulator must have length {m_deg}")
    _check_disjoint(r, a, c, b)
    if m_deg == 0:
        return
    with _reduced(_trim(a), b, strategy) as a0, _reduced(_trim(c), b, strategy) as c0:
        a0, c0 = sorted((_trim(a0), _trim(c0)), key=len)
        if len(a0):
            mulmod_acc(r, a0, c0, b, strategy)
