"""Euclidean remainder without quotient storage.

Writing the division a = b*q + r block-wise over windows of width
M = deg b turns the quotient system into a banded upper-triangular
Toeplitz structure built from two M x M blocks of b:

    T  upper triangular, first row  b[M], ..., b[1]   (diagonal b[M]),
    G  lower triangular, first col  b[0], ..., b[M-1] (diagonal b[0]).

A Horner sweep r <- (-G T^{-1}) r + a_i over the blocks of a, from the
top block down, leaves exactly the remainder, so the quotient is
overwritten block by block and never stored.

`remainder_blockwise` runs that sweep with read-only inputs and one
caller-provided M-element scratch vector.  `remainder_in_place` replaces
the two block products by their over-place triangular versions, which
borrow (and restore) the storage of b, so only the output vector is
written.  `divmod_over_place` applies the same sweep over a itself,
leaving [remainder, quotient] in a's buffer, and is exactly reversible;
`remainder_acc` wraps it in both directions around one accumulation.

Applying G is a truncated product, G . y = (b mod X^M) * y mod X^M, or
over-place an upper triangular product on reversed views of y.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conv import LengthMismatch, short_acc
from .instrument import tracked
from .mulbase import MulStrategy, _resolve
from .region import CoeffRegion, split_blocks, vec_copy, vec_iadd, vec_negate, vec_scale
from .toeplitz import (
    ToeplitzView,
    _quad_tri_toeplitz_mul,
    _quad_tri_toeplitz_solve,
    rect_toeplitz_acc,
    tri_toeplitz_mul_overplace,
    tri_toeplitz_solve_overplace,
)


class NonInvertibleLeading(ZeroDivisionError):
    """The divisor's leading coefficient is zero (or the divisor is empty)."""


@dataclass(frozen=True)
class EuclidContext:
    """Block decomposition of one division instance.

    In padded mode the dividend is tiled into mu+1 width-M blocks with
    virtual zeros completing the top block.  In exact mode the top block
    instead has width s = (N+1) mod M (absent when s = 0), so the tiling
    covers the buffer exactly and can be transformed in place.
    """

    n_deg: int
    m_deg: int
    n: int              # N - M + 1, number of quotient coefficients
    s: int              # exact-mode top block width, (N+1) mod M
    mu: int             # number of full-width update steps
    blocks: tuple
    t_row: CoeffRegion      # first row of T: b[M], ..., b[1]
    g_low: CoeffRegion      # b[0], ..., b[M-1]; G . y = g_low * y mod X^M
    t1_row: CoeffRegion | None   # s x s upper-left of T (exact mode, s != 0)
    g1_rect: CoeffRegion | None  # vector of G's lower (M-s) x s rectangle


def _divisor_degree(b: CoeffRegion) -> int:
    m_deg = len(b) - 1
    if m_deg < 0 or b[m_deg] == 0:
        raise NonInvertibleLeading("divisor needs a nonzero leading coefficient")
    return m_deg


def euclid_context(a: CoeffRegion, b: CoeffRegion, exact: bool) -> EuclidContext:
    m_deg = _divisor_degree(b)
    n_deg = len(a) - 1
    m = m_deg
    t_row = b.sub(1, m + 1).reversed() if m else None
    g_low = b.sub(0, m)
    n = n_deg - m + 1
    if exact:
        s = (n_deg + 1) % m
        mu = (n_deg + 1 - s) // m
        blocks = tuple(split_blocks(a, m))
        t1_row = b.sub(m - s + 1, m + 1).reversed() if s else None
        g1_rect = b.sub(1, m).reversed() if s and m - s > 0 else None
        return EuclidContext(n_deg, m, n, s, mu, blocks, t_row, g_low, t1_row, g1_rect)
    mu = -(-n // m)
    blocks = tuple(split_blocks(a, m, pad_virtual=True))
    return EuclidContext(n_deg, m, n, 0, mu, blocks, t_row, g_low, None, None)


@tracked
def remainder_blockwise(r: CoeffRegion, a: CoeffRegion, b: CoeffRegion,
                        scratch: CoeffRegion) -> None:
    """r <- a mod b; a and b are never written, scratch holds one block.

    Each sweep step solves t = T^{-1} r into the scratch, multiplies by G
    there, and refreshes r as the next block minus the scratch.  The
    triangular kernels here are the quadratic ones, which read the
    divisor without touching it.
    """
    m = _divisor_degree(b)
    if len(r) != m:
        raise LengthMismatch(f"remainder window must have length {m}")
    if len(scratch) != m:
        raise LengthMismatch(f"scratch must have length {m}")
    n_deg = len(a) - 1
    if m == 0:
        return
    if m > n_deg:
        vec_copy(r, a.sub_padded(0, m))
        return
    ctx = euclid_context(a, b, exact=False)
    vec_copy(r, ctx.blocks[ctx.mu])
    for i in range(ctx.mu - 1, -1, -1):
        vec_copy(scratch, r)
        _quad_tri_toeplitz_solve(ctx.t_row, scratch)
        _quad_tri_toeplitz_mul(ctx.g_low, scratch.reversed())
        vec_copy(r, ctx.blocks[i])
        vec_iadd(r, scratch, negate=True)


@tracked
def remainder_in_place(r: CoeffRegion, a: CoeffRegion, b: CoeffRegion,
                       strategy: MulStrategy | None = None) -> None:
    """r <- a mod b with no scratch at all; a read-only, b restored.

    The sweep runs inside r: solve against T and multiply by G with the
    over-place triangular routines (which temporarily borrow b's storage),
    negate, add the next block of a.
    """
    strategy = _resolve(strategy)
    m = _divisor_degree(b)
    if len(r) != m:
        raise LengthMismatch(f"remainder window must have length {m}")
    n_deg = len(a) - 1
    if m == 0:
        return
    if m > n_deg:
        vec_copy(r, a.sub_padded(0, m))
        return
    ctx = euclid_context(a, b, exact=False)
    vec_copy(r, ctx.blocks[ctx.mu])
    r_rev = r.reversed()
    for i in range(ctx.mu - 1, -1, -1):
        tri_toeplitz_solve_overplace(ctx.t_row, r, "upper", strategy)
        tri_toeplitz_mul_overplace(ctx.g_low, r_rev, "upper", strategy)
        vec_negate(r)
        vec_iadd(r, ctx.blocks[i])


def _g_acc(target: CoeffRegion, b: CoeffRegion, y: CoeffRegion, m: int,
           negate: bool, strategy) -> None:
    """target +-= G . y, via G . y = (b mod X^M) * y mod X^M."""
    short_acc(target, b.sub(0, m), y, negate, strategy)


def _g1_acc(target: CoeffRegion, ctx: EuclidContext, b: CoeffRegion,
            y: CoeffRegion, negate: bool, strategy) -> None:
    """target +-= G1 . y for the left s columns of G; len(y) = s.

    The top s rows form the width-s truncated product; the remaining
    M-s rows are a full rectangular Toeplitz block on b[1..M) reversed.
    """
    s, m = ctx.s, ctx.m_deg
    short_acc(target.sub(0, s), b.sub(0, s), y, negate, strategy)
    if m - s > 0:
        rect_toeplitz_acc(target.sub(s, m), ToeplitzView(ctx.g1_rect, m - s, s),
                          y, negate, strategy)


@tracked
def divmod_over_place(a: CoeffRegion, b: CoeffRegion,
                      strategy: MulStrategy | None = None) -> None:
    """Replace a's buffer by [a mod b | a div b] (low M cells, then n cells).

    b is restored exactly.  When deg b > deg a the buffer already is the
    remainder and nothing happens.  The transformation is a sequence of
    invertible block steps, undone by `divmod_over_place_inv`.
    """
    strategy = _resolve(strategy)
    m = _divisor_degree(b)
    n_deg = len(a) - 1
    if m > n_deg:
        return
    field = a.field
    if m == 0:
        vec_scale(a, field.inv(b[0]))
        return
    ctx = euclid_context(a, b, exact=True)
    if ctx.s:
        top = ctx.blocks[ctx.mu]
        tri_toeplitz_solve_overplace(ctx.t1_row, top, "upper", strategy)
        _g1_acc(ctx.blocks[ctx.mu - 1], ctx, b, top, True, strategy)
    for i in range(ctx.mu - 1, 0, -1):
        tri_toeplitz_solve_overplace(ctx.t_row, ctx.blocks[i], "upper", strategy)
        _g_acc(ctx.blocks[i - 1], b, ctx.blocks[i], m, True, strategy)


@tracked
def divmod_over_place_inv(a: CoeffRegion, b: CoeffRegion,
                          strategy: MulStrategy | None = None) -> None:
    """Invert `divmod_over_place`: rebuild a from [remainder | quotient]."""
    strategy = _resolve(strategy)
    m = _divisor_degree(b)
    n_deg = len(a) - 1
    if m > n_deg:
        return
    field = a.field
    if m == 0:
        vec_scale(a, b[0])
        return
    ctx = euclid_context(a, b, exact=True)
    for i in range(1, ctx.mu):
        _g_acc(ctx.blocks[i - 1], b, ctx.blocks[i], m, False, strategy)
        tri_toeplitz_mul_overplace(ctx.t_row, ctx.blocks[i], "upper", strategy)
    if ctx.s:
        top = ctx.blocks[ctx.mu]
        _g1_acc(ctx.blocks[ctx.mu - 1], ctx, b, top, False, strategy)
        tri_toeplitz_mul_overplace(ctx.t1_row, top, "upper", strategy)


@tracked
def remainder_acc(r: CoeffRegion, a: CoeffRegion, b: CoeffRegion,
                  strategy: MulStrategy | None = None) -> None:
    """r += a mod b; both a and b restored exactly.

    Runs the over-place division, adds the remainder block into r, then
    reverses the division to restore a.
    """
    strategy = _resolve(strategy)
    m = _divisor_degree(b)
    if len(r) != m:
        raise LengthMismatch(f"accumulator must have length {m}")
    n_deg = len(a) - 1
    if m > n_deg:
        vec_iadd(r.sub(0, n_deg + 1), a)
        return
    if m == 0:
        return
    divmod_over_place(a, b, strategy)
    vec_iadd(r, a.sub(0, m))
    divmod_over_place_inv(a, b, strategy)
