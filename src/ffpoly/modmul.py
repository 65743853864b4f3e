"""In-place accumulated modular multiplication r += a*c mod b.

`mulmod_acc` handles the constrained case deg a <= min(deg c, deg b): the
top deg a + deg c - deg b + 1 coefficients of the product a*c are built
over-place inside c's top window, the quotient of a*c by b is solved
there, its contribution is subtracted from r, and both transformations
are inverted exactly, restoring c.  The product and quotient operators
restricted to that window are banded upper-triangular Toeplitz matrices
(bands deg a + 1 and deg b + 1), handled by the banded routines.

`mulmod_acc_full` lifts the degree constraint: it swaps the operands so
the shorter one plays a, and when that one still exceeds b it is reduced
over-place first (leaving [remainder | quotient] in its buffer), used,
and rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conv import LengthMismatch, short_acc_ragged
from .euclid import NonInvertibleLeading, divmod_over_place, divmod_over_place_inv
from .instrument import tracked
from .mulbase import MulStrategy, _resolve, acc_mul_full
from .region import CoeffRegion, _check_disjoint
from .toeplitz import banded_upper_mul_overplace, banded_upper_solve_overplace


class DegreeConstraint(ValueError):
    """deg a exceeds min(deg c, deg b) in the constrained entry point."""


@dataclass(frozen=True)
class MulmodBlocks:
    """Window geometry of one constrained instance.

    q is the quotient degree; c's top q+1 coefficients form the working
    window.  a_band and b_band are the defining vectors (leading
    coefficient first) of the banded product and divisor operators on
    that window.
    """

    l_deg: int
    n_deg: int
    m_deg: int
    q: int
    window: CoeffRegion
    a_band: CoeffRegion
    b_band: CoeffRegion


def mulmod_blocks(a: CoeffRegion, c: CoeffRegion, b: CoeffRegion) -> MulmodBlocks:
    l_deg = len(a) - 1
    n_deg = len(c) - 1
    m_deg = len(b) - 1
    q = l_deg + n_deg - m_deg
    ka = min(q, l_deg) + 1
    kb = min(q, m_deg) + 1
    return MulmodBlocks(
        l_deg, n_deg, m_deg, q,
        window=c.sub(n_deg - q, n_deg + 1),
        a_band=a.sub(l_deg - ka + 1, l_deg + 1).reversed(),
        b_band=b.sub(m_deg - kb + 1, m_deg + 1).reversed(),
    )


@tracked
def mulmod_acc(r: CoeffRegion, a: CoeffRegion, c: CoeffRegion, b: CoeffRegion,
               strategy: MulStrategy | None = None) -> None:
    """r += a*c mod b, for deg a <= min(deg c, deg b); a, b, c restored.

    Needs nonzero leading coefficients on a and b (the two banded
    operators must be invertible) and disjoint regions.  When the product
    fits under b the accumulation is a single full multiplication.
    """
    strategy = _resolve(strategy)
    m_deg = len(b) - 1
    if m_deg < 0 or b[m_deg] == 0:
        raise NonInvertibleLeading("modulus needs a nonzero leading coefficient")
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
    if l_deg + n_deg < m_deg:
        acc_mul_full(r.sub(0, l_deg + n_deg + 1), a, c, strategy=strategy)
        return
    if a[l_deg] == 0:
        raise NonInvertibleLeading("multiplier needs a nonzero leading coefficient")
    blk = mulmod_blocks(a, c, b)
    w = blk.window
    banded_upper_mul_overplace(blk.a_band, w, strategy)     # top of a*c
    banded_upper_solve_overplace(blk.b_band, w, strategy)   # quotient of a*c by b
    short_acc_ragged(r, b.sub(0, m_deg), w, m_deg, True, strategy)
    banded_upper_mul_overplace(blk.b_band, w, strategy)     # undo the solve
    banded_upper_solve_overplace(blk.a_band, w, strategy)   # undo the product
    short_acc_ragged(r, a, c, m_deg, False, strategy)


def _trim(r: CoeffRegion) -> CoeffRegion:
    n = len(r)
    while n and r[n - 1] == 0:
        n -= 1
    return r.sub(0, n)


@tracked
def mulmod_acc_full(r: CoeffRegion, a: CoeffRegion, c: CoeffRegion, b: CoeffRegion,
                    strategy: MulStrategy | None = None) -> None:
    """r += a*c mod b for arbitrary degrees; a, b, c restored.

    Leading zero coefficients on a and c are ignored.  The shorter
    operand is reduced mod b over-place when it is still longer than b,
    and recovered afterwards.
    """
    strategy = _resolve(strategy)
    m_deg = len(b) - 1
    if m_deg < 0 or b[m_deg] == 0:
        raise NonInvertibleLeading("modulus needs a nonzero leading coefficient")
    if len(r) != m_deg:
        raise LengthMismatch(f"accumulator must have length {m_deg}")
    _check_disjoint(r, a, c, b)
    if m_deg == 0:
        return
    at = _trim(a)
    ct = _trim(c)
    if len(at) == 0 or len(ct) == 0:
        return
    if len(at) > len(ct):
        at, ct = ct, at
    if len(at) - 1 <= m_deg:
        mulmod_acc(r, at, ct, b, strategy)
        return
    divmod_over_place(at, b, strategy)
    a0 = _trim(at.sub(0, m_deg))
    if len(a0):
        mulmod_acc(r, a0, ct, b, strategy)
    divmod_over_place_inv(at, b, strategy)
