"""Structured matrix-vector operations on f-circulant and Toeplitz matrices.

Matrices are never materialized: every operation works from the defining
coefficient vector (a region) plus shape data.  Accumulating products
reduce to wrapped convolutions through a fixed index correspondence,

    Circ_f(a) . b  =  reverse(conv_f(a, reverse(b))),

realized with O(1)-space reversed views; the square Toeplitz product adds
one physically reversed pass over the strictly lower part.  Over-place
triangular multiply and solve recurse on halves in both orientations, and
banded variants chunk a long vector by the band width.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conv import LengthMismatch, conv_acc, short_acc_ragged
from .instrument import tracked
from .mulbase import MulStrategy, SingularDiagonal, _resolve
from .region import CoeffRegion, _mac, reverse_in_place


@dataclass(frozen=True)
class CirculantView:
    """f-circulant matrix from its first row `vec`; lower part scaled by f."""

    vec: CoeffRegion
    f: int

    @property
    def field(self):
        return self.vec.field

    @property
    def dim(self) -> int:
        return len(self.vec)


@dataclass(frozen=True)
class ToeplitzView:
    """rows x cols Toeplitz matrix with entry (i, j) = vec[rows-1 + j - i]."""

    vec: CoeffRegion
    rows: int
    cols: int

    def __post_init__(self):
        if len(self.vec) != self.rows + self.cols - 1:
            raise LengthMismatch(
                f"defining vector needs length {self.rows + self.cols - 1}, "
                f"got {len(self.vec)}")

    @property
    def field(self):
        return self.vec.field


@tracked
def circulant_acc(c: CoeffRegion, view: CirculantView, b: CoeffRegion,
                  negate: bool = False, strategy: MulStrategy | None = None) -> None:
    """c += Circ_f(a) . b; a and b restored exactly."""
    a = view.vec
    m = len(c)
    if len(a) != m or len(b) != m:
        raise LengthMismatch(f"need square dimensions, got {len(a)}, {len(b)}, {m}")
    if m == 0:
        return
    conv_acc(c.reversed(), a, b.reversed(), view.f, negate, strategy)


@tracked
def square_toeplitz_acc(c: CoeffRegion, a1: CoeffRegion, a2: CoeffRegion,
                        b: CoeffRegion, negate: bool = False,
                        strategy: MulStrategy | None = None) -> None:
    """c += Toeplitz([a1, a2]) . b for the square matrix of size len(a2).

    The part on and above the diagonal is the 0-circulant of a2; what
    remains is a strictly lower triangle handled on physically reversed
    copies of a1, the leading slice of b and the trailing slice of c,
    all reversed back afterwards.
    """
    s = len(c)
    if len(a2) != s or len(b) != s or len(a1) != s - 1:
        raise LengthMismatch(
            f"need lengths (s-1, s, s, s), got ({len(a1)}, {len(a2)}, {len(b)}, {s})")
    if s == 0:
        return
    circulant_acc(c, CirculantView(a2, 0), b, negate, strategy)
    if s >= 2:
        b1 = b.sub(0, s - 1)
        c2 = c.sub(1, s)
        reverse_in_place(a1)
        reverse_in_place(b1)
        reverse_in_place(c2)
        circulant_acc(c2, CirculantView(a1, 0), b1, negate, strategy)
        reverse_in_place(c2)
        reverse_in_place(b1)
        reverse_in_place(a1)


def _square_acc_vec(c, vec, b, negate, strategy):
    s = len(c)
    square_toeplitz_acc(c, vec.sub(0, s - 1), vec.sub(s - 1, 2 * s - 1), b,
                        negate, strategy)


@tracked
def rect_toeplitz_acc(c: CoeffRegion, view: ToeplitzView, b: CoeffRegion,
                      negate: bool = False, strategy: MulStrategy | None = None) -> None:
    """c += T . b for a rectangular Toeplitz T, by square-block peeling.

    Tall matrices peel the top square and keep the remaining rows; wide
    ones peel the leading columns.  The tail call is a loop, so extreme
    aspect ratios cost no stack.
    """
    vec = view.vec
    m, n = view.rows, view.cols
    if len(c) != m or len(b) != n:
        raise LengthMismatch(f"need lengths ({m}, {n}), got ({len(c)}, {len(b)})")
    while m and n:
        if m == n:
            _square_acc_vec(c, vec, b, negate, strategy)
            return
        if m > n:
            _square_acc_vec(c.sub(0, n), vec.sub(m - n, m + n - 1), b, negate, strategy)
            c = c.sub(n, m)
            vec = vec.sub(0, m - 1)
            m -= n
        else:
            _square_acc_vec(c, vec.sub(0, 2 * m - 1), b.sub(0, m), negate, strategy)
            vec = vec.sub(m, m + n - 1)
            b = b.sub(m, n)
            n -= m


# ---------------------------------------------------------------------------
# Over-place triangular Toeplitz multiply / solve.
#
# orientation "lower": the matrix is Toeplitz([a, 0]) with first column
# a[m-1], ..., a[0] top to bottom (diagonal a[m-1]).
# orientation "upper": the matrix is Toeplitz([0, a]) with first row
# a[0], ..., a[m-1] (diagonal a[0]).

def _tri_sweep(a, b, upper: bool, s: int, t: int, ascending: bool) -> None:
    """b[i] <- s*b[i] + t * (off-diagonal part of row i of T) . b, row by row.

    Each row reads only entries of b that the sweep has not written yet:
    the upper matrix reaches b[i+1:], the lower one b[:i].
    """
    m = len(b)
    for i in (range(m) if ascending else range(m - 1, -1, -1)):
        if upper:
            _mac(b, i, s, t, a, 1, b, i + 1, m - 1 - i)
        else:
            _mac(b, i, s, t, a, m - 1 - i, b, 0, i)


def _quad_tri_toeplitz_mul(a, b, upper: bool):
    field = b.field
    m = len(b)
    _tri_sweep(a, b, upper, a[0 if upper else m - 1], 1, upper)
    scope = field.scope
    if scope is not None:
        scope.count(adds=m * (m - 1) // 2, muls=m * (m + 1) // 2)


def _quad_tri_toeplitz_solve(a, b, upper: bool):
    field = b.field
    m = len(b)
    inv_diag = field.inv(a[0 if upper else m - 1])
    _tri_sweep(a, b, upper, inv_diag, -inv_diag, not upper)
    scope = field.scope
    if scope is not None:
        scope.count(adds=m * (m - 1) // 2, muls=m * (m - 1) // 2 + m)


def _check_tri(a, b, orientation):
    if len(a) != len(b):
        raise LengthMismatch(f"need equal lengths, got {len(a)}, {len(b)}")
    if orientation not in ("lower", "upper"):
        raise ValueError(f"orientation must be 'lower' or 'upper': {orientation!r}")


@tracked
def tri_toeplitz_mul_overplace(a: CoeffRegion, b: CoeffRegion, orientation: str,
                               strategy: MulStrategy | None = None) -> None:
    """b <- T . b for the triangular Toeplitz T defined by a; a restored.

    Halving recursion: the off-diagonal block is a rectangular Toeplitz
    accumulation, the two diagonal blocks recurse, and below the strategy
    threshold a quadratic sweep finishes in place.
    """
    strategy = _resolve(strategy)
    _check_tri(a, b, orientation)
    m = len(b)
    if m == 0:
        return
    if m <= strategy.threshold:
        _quad_tri_toeplitz_mul(a, b, orientation == "upper")
        return
    k = (m + 1) // 2
    b1, b2 = b.sub(0, k), b.sub(k, m)
    if orientation == "lower":
        tri_toeplitz_mul_overplace(a.sub(k, m), b2, "lower", strategy)
        rect_toeplitz_acc(b2, ToeplitzView(a.sub(0, m - 1), m - k, k), b1,
                          strategy=strategy)
        tri_toeplitz_mul_overplace(a.sub(m - k, m), b1, "lower", strategy)
    else:
        tri_toeplitz_mul_overplace(a.sub(0, k), b1, "upper", strategy)
        rect_toeplitz_acc(b1, ToeplitzView(a.sub(1, m), k, m - k), b2,
                          strategy=strategy)
        tri_toeplitz_mul_overplace(a.sub(0, m - k), b2, "upper", strategy)


@tracked
def tri_toeplitz_solve_overplace(a: CoeffRegion, b: CoeffRegion, orientation: str,
                                 strategy: MulStrategy | None = None) -> None:
    """b <- T^{-1} . b, mirrored recursion of the over-place multiply.

    The diagonal entry (a[0] for upper, a[-1] for lower) must be
    invertible.
    """
    strategy = _resolve(strategy)
    _check_tri(a, b, orientation)
    m = len(b)
    if m == 0:
        return
    upper = orientation == "upper"
    if a[0 if upper else m - 1] == 0:
        raise SingularDiagonal("triangular Toeplitz solve needs a nonzero diagonal")
    if m <= strategy.threshold:
        _quad_tri_toeplitz_solve(a, b, upper)
        return
    k = (m + 1) // 2
    b1, b2 = b.sub(0, k), b.sub(k, m)
    if upper:
        tri_toeplitz_solve_overplace(a.sub(0, m - k), b2, "upper", strategy)
        rect_toeplitz_acc(b1, ToeplitzView(a.sub(1, m), k, m - k), b2,
                          negate=True, strategy=strategy)
        tri_toeplitz_solve_overplace(a.sub(0, k), b1, "upper", strategy)
    else:
        tri_toeplitz_solve_overplace(a.sub(m - k, m), b1, "lower", strategy)
        rect_toeplitz_acc(b2, ToeplitzView(a.sub(0, m - 1), m - k, k), b1,
                          negate=True, strategy=strategy)
        tri_toeplitz_solve_overplace(a.sub(k, m), b2, "lower", strategy)


# ---------------------------------------------------------------------------
# Banded upper-triangular Toeplitz, band width k = len(x) <= len(y): the
# matrix has entry (i, j) = x[j - i] for 0 <= j - i < k and 0 elsewhere.
# y is chunked by the band width; diagonal chunks are dense triangular
# Toeplitz blocks on x itself, and the coupling of one chunk to the next
# is a truncated product with the reversed tail of x, so the zero part of
# the band never needs storage.

def _banded_couple(target_chunk, x_tail_rev, next_chunk, negate, strategy):
    k1 = len(x_tail_rev)
    if k1 == 0 or len(next_chunk) == 0:
        return
    z = next_chunk.sub(0, min(k1, len(next_chunk)))
    short_acc_ragged(target_chunk.sub(1, k1 + 1), x_tail_rev, z, k1,
                     negate, strategy)


@tracked
def banded_upper_mul_overplace(x: CoeffRegion, y: CoeffRegion,
                               strategy: MulStrategy | None = None) -> None:
    """y <- U . y for the banded upper-triangular Toeplitz U built on x."""
    strategy = _resolve(strategy)
    m = len(y)
    k = len(x)
    if k == 0:
        raise LengthMismatch("band vector must be nonempty")
    if k > m:
        x = x.sub(0, m)
        k = m
    if m == 0:
        return
    full, tail = divmod(m, k)
    x_tail_rev = x.sub(1, k).reversed()
    for i in range(full):
        chunk = y.sub(i * k, (i + 1) * k)
        tri_toeplitz_mul_overplace(x, chunk, "upper", strategy)
        nxt_start = (i + 1) * k
        if nxt_start < m:
            _banded_couple(chunk, x_tail_rev, y.sub(nxt_start, min(nxt_start + k, m)),
                           False, strategy)
    if tail:
        tri_toeplitz_mul_overplace(x.sub(0, tail), y.sub(full * k, m), "upper",
                                   strategy)


@tracked
def banded_upper_solve_overplace(x: CoeffRegion, y: CoeffRegion,
                                 strategy: MulStrategy | None = None) -> None:
    """y <- U^{-1} . y, back-substitution over the band-width chunks."""
    strategy = _resolve(strategy)
    m = len(y)
    k = len(x)
    if k == 0:
        raise LengthMismatch("band vector must be nonempty")
    if k > m:
        x = x.sub(0, m)
        k = m
    if m == 0:
        return
    if x[0] == 0:
        raise SingularDiagonal("banded solve needs a nonzero diagonal")
    full, tail = divmod(m, k)
    x_tail_rev = x.sub(1, k).reversed()
    if tail:
        tri_toeplitz_solve_overplace(x.sub(0, tail), y.sub(full * k, m), "upper",
                                     strategy)
    for i in range(full - 1, -1, -1):
        chunk = y.sub(i * k, (i + 1) * k)
        nxt_start = (i + 1) * k
        if nxt_start < m:
            _banded_couple(chunk, x_tail_rev, y.sub(nxt_start, min(nxt_start + k, m)),
                           True, strategy)
        tri_toeplitz_solve_overplace(x, chunk, "upper", strategy)
