"""Structured matrix-vector operations on f-circulant and Toeplitz matrices.

Matrices are never materialized: every operation works from the defining
coefficient vector (a region) plus shape data, and every mirror image is
an O(1) reversed view.  Circ_f(a) . b = reverse(conv_f(a, reverse(b))).
A rows x cols Toeplitz product is one middle product of the defining
vector and b, written into reversed c (`MulStrategy.acc_mul_middle`); a
square block given by its two triangles is two truncated products on
views.  Over-place triangular multiply and solve recurse on halves of the
upper matrix only, the off-diagonal block being one middle product.
A banded upper-triangular Toeplitz matrix of band width k is block
bidiagonal over blocks of width k - 1: the banded multiply and solve are
one sweep of triangular blocks coupled by truncated products.  Euclidean
division is that solve on the reversed divisor.
"""

from __future__ import annotations

from .conv import LengthMismatch, _check_wrap, conv_acc, short_acc
from .instrument import tracked
from .mulbase import MulStrategy, SingularDiagonal, _resolve
from .region import CoeffRegion, _check_disjoint, _kron, _mac, split_blocks


class CirculantView:
    """f-circulant matrix from its first row `vec`; lower part scaled by f."""

    __slots__ = ("vec", "f")

    def __init__(self, vec: CoeffRegion, f: int):
        self.vec, self.f = vec, f


class ToeplitzView:
    """rows x cols Toeplitz matrix with entry (i, j) = vec[rows-1 + j - i]."""

    __slots__ = ("vec", "rows", "cols")

    def __init__(self, vec: CoeffRegion, rows: int, cols: int):
        if len(vec) != rows + cols - 1:
            raise LengthMismatch(
                f"defining vector needs length {rows + cols - 1}, got {len(vec)}")
        self.vec, self.rows, self.cols = vec, rows, cols


@tracked
def circulant_acc(c: CoeffRegion, view: CirculantView, b: CoeffRegion,
                  negate: bool = False, strategy: MulStrategy | None = None) -> None:
    """c += Circ_f(a) . b for a = view.vec; a and b restored exactly.

    f is checked first (`BadParameter`); then all three empty is a no-op,
    and otherwise `conv_acc` on reversed c and b checks lengths and
    aliasing before any write.
    """
    a = view.vec
    _check_wrap(c.field, view.f)
    if len(c) == len(a) == len(b) == 0:
        return
    conv_acc(c.reversed(), a, b.reversed(), view.f, negate, strategy)


@tracked
def square_toeplitz_acc(c: CoeffRegion, a1: CoeffRegion, a2: CoeffRegion,
                        b: CoeffRegion, negate: bool = False,
                        strategy: MulStrategy | None = None) -> None:
    """c += Toeplitz([a1, a2]) . b for the square matrix of size len(a2).

    Two truncated products on views of disjoint regions: a2 * reversed(b)
    mod X^s into reversed(c) on and above the diagonal, (reversed a1) * b
    mod X^(s-1) into c[1:] below it.
    """
    s = len(c)
    if len(a2) != s or len(b) != s or len(a1) != s - 1:
        raise LengthMismatch(
            f"need lengths (s-1, s, s, s), got ({len(a1)}, {len(a2)}, {len(b)}, {s})")
    _check_disjoint(c, a1, a2, b)
    short_acc(c.reversed(), a2, b.reversed(), negate, strategy)
    if s >= 2:
        short_acc(c.sub(1, s), a1.reversed(), b.sub(0, s - 1), negate, strategy)


@tracked
def rect_toeplitz_acc(c: CoeffRegion, view: ToeplitzView, b: CoeffRegion,
                      negate: bool = False, strategy: MulStrategy | None = None) -> None:
    """c += T . b for a rectangular Toeplitz T; c, T's vector and b disjoint.

    Row i is sum_j vec[rows-1-i+j] * b[j], so reversed c gains the middle
    product of vec and b: one strategy call for every aspect ratio
    (Hanrot, Quercia & Zimmermann, AAECC 2004).
    """
    m, n = view.rows, view.cols
    if len(c) != m or len(b) != n:
        raise LengthMismatch(f"need lengths ({m}, {n}), got ({len(c)}, {len(b)})")
    _check_disjoint(c, view.vec, b)
    _resolve(strategy).acc_mul_middle(c.reversed(), view.vec, b, negate)


# ---------------------------------------------------------------------------
# Over-place triangular Toeplitz multiply / solve.
#
# orientation "upper": the matrix is Toeplitz([0, a]) with first row
# a[0], ..., a[m-1] (diagonal a[0]).
# orientation "lower": the matrix is Toeplitz([a, 0]) with first column
# a[m-1], ..., a[0] top to bottom (diagonal a[m-1]), which is
# J . upper(reverse(a)) . J for the exchange matrix J.

def _quad_tri_toeplitz_mul(a, b):
    """b <- upper(a) . b as one product: b[i] = (rev a * b)[m-1+i]."""
    field = b.field
    m = len(b)
    _kron(b, 0, 1, a.reversed(), b, m - 1)
    scope = field.scope
    if scope is not None:
        scope.count(adds=m * (m - 1) // 2, muls=m * (m + 1) // 2)


def _quad_tri_toeplitz_solve(a, b):
    """b <- upper(a)^{-1} . b, descending: row i reads the solved b[i+1:]."""
    field = b.field
    m = len(b)
    inv_diag = field.inv(a[0])
    for i in range(m - 1, -1, -1):
        _mac(b, i, inv_diag, -inv_diag, a, 1, b, i + 1, m - 1 - i)
    scope = field.scope
    if scope is not None:
        scope.count(adds=m * (m - 1) // 2, muls=m * (m - 1) // 2 + m)


def _as_upper(a, b, orientation):
    """(a, b) as operands of the upper matrix: lower(a) . b = J . upper(rev a) . J . b."""
    if len(a) != len(b):
        raise LengthMismatch(f"need equal lengths, got {len(a)}, {len(b)}")
    _check_disjoint(a, b)
    if orientation not in ("lower", "upper"):
        raise ValueError(f"orientation must be 'lower' or 'upper': {orientation!r}")
    return (a, b) if orientation == "upper" else (a.reversed(), b.reversed())


@tracked
def tri_toeplitz_mul_overplace(a: CoeffRegion, b: CoeffRegion, orientation: str,
                               strategy: MulStrategy | None = None) -> None:
    """b <- T . b for the triangular Toeplitz T defined by a; a restored.

    Halving recursion: the off-diagonal block is one middle product, the
    two diagonal blocks recurse, and below the strategy threshold a
    quadratic sweep finishes in place.
    """
    strategy = _resolve(strategy)
    a, b = _as_upper(a, b, orientation)
    m = len(b)
    if m == 0:
        return
    if m <= strategy.threshold:
        _quad_tri_toeplitz_mul(a, b)
        return
    k = (m + 1) // 2
    b1, b2 = b.sub(0, k), b.sub(k, m)
    tri_toeplitz_mul_overplace(a.sub(0, k), b1, "upper", strategy)
    strategy.acc_mul_middle(b1.reversed(), a.sub(1, m), b2)
    tri_toeplitz_mul_overplace(a.sub(0, m - k), b2, "upper", strategy)


@tracked
def tri_toeplitz_solve_overplace(a: CoeffRegion, b: CoeffRegion, orientation: str,
                                 strategy: MulStrategy | None = None) -> None:
    """b <- T^{-1} . b, mirrored recursion of the over-place multiply.

    The diagonal entry (a[0] for upper, a[-1] for lower) must be
    invertible.
    """
    strategy = _resolve(strategy)
    a, b = _as_upper(a, b, orientation)
    m = len(b)
    if m == 0:
        return
    if a[0] == 0:
        raise SingularDiagonal("triangular Toeplitz solve needs a nonzero diagonal")
    if m <= strategy.threshold:
        _quad_tri_toeplitz_solve(a, b)
        return
    k = (m + 1) // 2
    b1, b2 = b.sub(0, k), b.sub(k, m)
    tri_toeplitz_solve_overplace(a.sub(0, m - k), b2, "upper", strategy)
    strategy.acc_mul_middle(b1.reversed(), a.sub(1, m), b2, True)
    tri_toeplitz_solve_overplace(a.sub(0, k), b1, "upper", strategy)


# ---------------------------------------------------------------------------
# Banded upper-triangular Toeplitz, band width k = len(x): the matrix has
# entry (i, j) = x[j - i] for 0 <= j - i < k and 0 elsewhere.  y is tiled
# by w = max(k - 1, 1), so the matrix is block bidiagonal: each diagonal
# block is the dense triangular Toeplitz block on x[0:w], and block i+1
# reaches block i through the truncated product with reversed x[1:k].  A
# band at least as long as y is one triangular block.  Euclidean division
# is the solve on reversed b (see euclid.divmod_over_place).

def _band_blocks(x, y):
    k = len(x)
    if k == 0:
        raise LengthMismatch("band vector must be nonempty")
    _check_disjoint(x, y)
    return split_blocks(y, max(k - 1, 1)), x.sub(1, k).reversed()


@tracked
def banded_upper_mul_overplace(x: CoeffRegion, y: CoeffRegion,
                               strategy: MulStrategy | None = None) -> None:
    """y <- U . y for the banded upper-triangular Toeplitz U built on x."""
    strategy = _resolve(strategy)
    blocks, g = _band_blocks(x, y)
    for i, block in enumerate(blocks):
        tri_toeplitz_mul_overplace(x.sub(0, len(block)), block, "upper", strategy)
        if i + 1 < len(blocks):
            short_acc(block, g, blocks[i + 1], False, strategy)


@tracked
def banded_upper_solve_overplace(x: CoeffRegion, y: CoeffRegion,
                                 strategy: MulStrategy | None = None) -> None:
    """y <- U^{-1} . y, back-substitution over the blocks of the multiply.

    The last block is solved first, so a zero diagonal raises before any
    write.
    """
    strategy = _resolve(strategy)
    blocks, g = _band_blocks(x, y)
    for i in range(len(blocks) - 1, -1, -1):
        block = blocks[i]
        if i + 1 < len(blocks):
            short_acc(block, g, blocks[i + 1], True, strategy)
        tri_toeplitz_solve_overplace(x.sub(0, len(block)), block, "upper", strategy)
