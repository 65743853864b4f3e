"""Accumulating polynomial multiplication and the quadratic baselines.

The multiplication building block is pluggable: anything honouring the
`MulStrategy` contract (accumulate full, truncated and middle products
onto c, restoring the operands exactly, O(1) auxiliary space beyond an
O(log n) call stack) can drive the rest of the library.  The default is
the schoolbook kernel, which is trivially in-place for all three: one
product of blocks packed into integers (`region._kron`), whatever the
lengths.

Also here: over-place dense triangular matrix-vector multiply/solve and
the quadratic polynomial remainder, used as reference base cases.  Every
kernel here is a loop of calls to the strided primitives of `region`;
none touches coefficient storage itself.
"""

from __future__ import annotations

from .instrument import tracked
from .region import (
    CoeffRegion, _axpy, _check_disjoint, _kron, _mac, split_blocks, vec_copy)


class TargetTooShort(ValueError):
    """Accumulation target cannot hold the product."""


class LengthMismatch(ValueError):
    """Operand regions do not have the required lengths."""


class SingularDiagonal(ZeroDivisionError):
    """Triangular solve hit a zero diagonal entry."""


class NonInvertibleLeading(ZeroDivisionError):
    """The divisor's leading coefficient is zero (or the divisor is empty)."""


def _divisor_degree(b: CoeffRegion) -> int:
    """deg b, once b is checked to have a nonzero leading coefficient."""
    m_deg = len(b) - 1
    if m_deg < 0 or b[m_deg] == 0:
        raise NonInvertibleLeading("divisor needs a nonzero leading coefficient")
    return m_deg


class MulStrategy:
    """Interface of an accumulating multiplication routine.

    Each method adds a product onto c (subtracts it, when negate) and
    restores its operands exactly: `acc_mul_full(c, a, b)` all of a*b;
    `acc_mul_short(c, a, b, n)` a*b mod X^n onto c[0:n], for operands of
    any lengths; `acc_mul_middle(c, x, y)` the middle product, c[i] +=
    sum_{j < len y} x[i+j]*y[j] with len x = len c + len y - 1 (else
    `LengthMismatch`, before any write), which is any Toeplitz
    matrix-vector product.  Every target c is one contiguous `CoeffRegion`,
    disjoint from the operands.  threshold: the triangular Toeplitz
    recursion stops at or below it, and `conv_acc` takes its three-product
    even route only above it.

    Callers make one `acc_mul_short` call per truncated product and never
    split it, so it must cost O(M(n)) by itself.  A strategy with no
    direct truncated product in that bound (Karatsuba, say) splits it over
    its own `acc_mul_full` at t = ceil(n/2), h = floor(n/2): a[0:t]*b[0:t]
    onto c[0:2t-1], then the cross terms a[0:h]*b[t:] and a[t:]*b[0:h] as
    truncated products onto c[t:n], for S(n) = M(t) + 2*S(h).
    """

    name = "abstract"
    threshold = 16

    def acc_mul_full(self, c, a, b, negate=False):
        raise NotImplementedError

    def acc_mul_short(self, c, a, b, n, negate=False):
        raise NotImplementedError

    def acc_mul_middle(self, c, x, y, negate=False):
        raise NotImplementedError


class Schoolbook(MulStrategy):
    """Quadratic accumulating products; one mul and one add per pair multiplied.

    Every product is one `region._kron` call, which packs blocks of at
    most `region._BLOCK` coefficients into integers with slots wide enough
    for the exact sums (whole bytes when that sheds at least
    `region._SHED` bytes from a block, whole 64-bit words otherwise),
    multiplies them as integers and reduces each output coefficient once.
    That evaluates the same bilinear form as the index loop, so the counts
    are still reported per pair, from the shapes.
    """

    name = "schoolbook"

    def __init__(self, threshold: int = 16):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold

    def acc_mul_full(self, c, a, b, negate=False):
        # the full product is the truncated one at n = la + lb - 1; called
        # through the class, so a subclass's acc_mul_short is not run here
        Schoolbook.acc_mul_short(self, c, a, b, len(a) + len(b) - 1, negate)

    def acc_mul_short(self, c, a, b, n, negate=False):
        la = len(a)
        if la > n:
            la = n
        lb = len(b)
        if la <= 0 or lb == 0:
            return
        _kron(c.sub(0, min(la + lb - 1, n)), 1, -1 if negate else 1, a.sub(0, la), b, 0)
        scope = a.field.scope
        if scope is not None:
            # sum over i < la of min(lb, n - i): q rows of lb pairs, then a ramp
            q = max(0, min(la, n - lb + 1))
            pairs = q * lb + (la - q) * n - (la * (la - 1) - q * (q - 1)) // 2
            scope.count(adds=pairs, muls=pairs)

    def acc_mul_middle(self, c, x, y, negate=False):
        lc, ly = len(c), len(y)
        if len(x) != max(lc + ly - 1, 0):
            raise LengthMismatch(f"middle product needs len x = {lc} + {ly} - 1, got {len(x)}")
        if lc and ly:
            _kron(c, 1, -1 if negate else 1, x, y.reversed(), ly - 1)
        scope = x.field.scope
        if scope is not None:
            scope.count(adds=lc * ly, muls=lc * ly)


_DEFAULT = Schoolbook()


def default_strategy() -> MulStrategy:
    return _DEFAULT


def _resolve(strategy) -> MulStrategy:
    return _DEFAULT if strategy is None else strategy


@tracked
def acc_mul_full(c: CoeffRegion, a: CoeffRegion, b: CoeffRegion, negate: bool = False,
                 strategy: MulStrategy | None = None) -> None:
    """c[k] += sum_{i+j=k} a[i]*b[j] (minus, when negate); a, b restored.

    c must be disjoint from a and b (else `AliasedOperands`, before any
    write); exclusive access to all three is assumed for the call.
    """
    need = len(a) + len(b) - 1
    if len(c) < need:
        raise TargetTooShort(f"target {len(c)} < product length {need}")
    _check_disjoint(c, a, b)
    _resolve(strategy).acc_mul_full(c, a, b, negate)


@tracked
def acc_mul_short(c: CoeffRegion, a: CoeffRegion, b: CoeffRegion, n: int,
                  negate: bool = False, strategy: MulStrategy | None = None) -> None:
    """c[k] += sum_{i+j=k, k<n} a[i]*b[j]; c disjoint from a and b.

    n < 0 raises `LengthMismatch`, before any write.
    """
    if n < 0:
        raise LengthMismatch(f"truncation length must be >= 0, got {n}")
    if len(c) < n:
        raise TargetTooShort(f"target {len(c)} < truncation length {n}")
    _check_disjoint(c, a, b)
    _resolve(strategy).acc_mul_short(c, a, b, n, negate)


# ---------------------------------------------------------------------------
# Over-place dense triangular operations.  U is a dense row-major square
# matrix (list of rows); only its upper triangle is read.

def quad_tri_mul_overplace(u, v: CoeffRegion) -> None:
    """v <- U*v for upper-triangular U, ascending row sweep, O(1) space."""
    field = v.field
    p = field.p
    m = len(v)
    for i in range(m):
        row = u[i]
        v[i] = (row[i] * v[i] + sum(row[j] * v[j] for j in range(i + 1, m))) % p
    scope = field.scope
    if scope is not None:
        scope.count(adds=m * (m - 1) // 2, muls=m * (m + 1) // 2)


def quad_tri_solve_overplace(u, v: CoeffRegion) -> None:
    """v <- U^{-1}*v for upper-triangular U, descending back-substitution."""
    field = v.field
    p = field.p
    m = len(v)
    for i in range(m):
        if u[i][i] % p == 0:
            raise SingularDiagonal(f"zero diagonal at row {i}")
    for i in range(m - 1, -1, -1):
        row = u[i]
        acc = v[i] - sum(row[j] * v[j] for j in range(i + 1, m))
        v[i] = acc * field.inv(row[i]) % p
    scope = field.scope
    if scope is not None:
        scope.count(adds=m * (m - 1) // 2, muls=m * (m - 1) // 2 + m)


# ---------------------------------------------------------------------------
# Quadratic polynomial remainder (long division), read-only inputs.

@tracked
def quad_rem(r: CoeffRegion, a: CoeffRegion, b: CoeffRegion) -> None:
    """r <- a mod b by long division; a and b are never written.

    r has length M = len(b)-1 and doubles as the working window.  The
    division runs M quotient digits at a time over the width-M blocks of
    a, from the top block down: the top block, zero-extended, is the first
    window; back substitution turns the window into the block's digits,
    and subtracting their multiple of b from the next block of a leaves
    the next window.  Only the s <= M coefficients of the top block yield
    digits; the first sweep skips the zero digits above them, so exactly
    N-M+1 digits are computed.  r must be disjoint from a and b (else
    `AliasedOperands`, before any write).
    """
    mm = _divisor_degree(b)
    if len(r) != mm:
        raise TargetTooShort(f"remainder window must have length {mm}")
    _check_disjoint(r, a, b)
    field = r.field
    nn = len(a) - 1
    if nn < mm:
        vec_copy(r, a)
        return
    if mm == 0:
        return
    inv_bm = field.inv(b[mm])
    b0 = b[0]
    br = b.reversed()       # br[x] = b[M - x]
    blocks = split_blocks(a, mm)
    vec_copy(r, blocks[-1])
    s = blocks[-1].length                   # digits q_j, j >= s, of the first block are 0
    for block in reversed(blocks[:-1]):
        for k in range(s - 1, -1, -1):      # q_k = (r[k] - sum_{k<j<s} q_j b[M+k-j]) / b[M]
            _mac(r, k, inv_bm, -inv_bm, r, k + 1, br, 1, s - 1 - k)
        for k in range(mm - 1, s - 1, -1):  # r[k] <- -sum_{j<s} q_j b[k-j]; r[k] was 0
            _mac(r, k, 0, -1, r, 0, br, mm - k, s)
        for k in range(s - 1, -1, -1):      # r[k] <- -sum_{j<=k} q_j b[k-j]
            _mac(r, k, -b0, -1, r, 0, br, mm - k, k)
        _axpy(r, 0, 1, block, 0, mm)
        s = mm
    scope = field.scope
    if scope is not None:
        n = nn - mm
        scope.count(adds=(n + 1) * mm, muls=(n + 1) * (mm + 1))


@tracked
def quad_rem_overplace(a: CoeffRegion, b: CoeffRegion) -> None:
    """Over-place long division: a's buffer becomes [remainder, quotient].

    The quotient digit is parked in the cell whose leading coefficient it
    consumes, so the low M cells end up holding a mod b and the high
    N-M+1 cells hold a div b, low degree first.  Each cell is settled by
    one dot product against the digits above it, top cell first.  a and b
    must be disjoint (else `AliasedOperands`, before any write).
    """
    mm = _divisor_degree(b)
    _check_disjoint(a, b)
    field = a.field
    nn = len(a) - 1
    if nn < mm:
        return
    inv_bm = field.inv(b[mm])
    br = b.reversed()       # br[x] = b[M - x]
    n = nn - mm
    for x in range(nn, mm - 1, -1):         # q_{x-M} = (a[x] - sum_{j>x} a[j] b[M+x-j]) / b[M]
        _mac(a, x, inv_bm, -inv_bm, a, x + 1, br, 1, min(mm, nn - x))
    for x in range(mm - 1, -1, -1):         # remainder: a[x] -= sum_j q_j b[x-j]
        _mac(a, x, 1, -1, a, mm, br, mm - x, min(x, n) + 1)
    scope = field.scope
    if scope is not None:
        scope.count(adds=(n + 1) * mm, muls=(n + 1) * (mm + 1))
