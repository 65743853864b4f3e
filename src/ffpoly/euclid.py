"""Euclidean remainder without quotient storage.

Writing the division a = b*q + r block-wise over windows of width
M = deg b turns the quotient system into a banded upper-triangular
Toeplitz structure built from two M x M blocks of b:

    T  upper triangular, first row  b[M], ..., b[1]   (diagonal b[M]),
    G  lower triangular, first col  b[0], ..., b[M-1] (diagonal b[0]).

A Horner sweep r <- (-G T^{-1}) r + a_i over the blocks of a, from the
top block down, leaves exactly the remainder, so the quotient is
overwritten block by block and never stored.  The two remainder sweeps
tile a exactly: only the top block can be shorter than M, and they
zero-extend it once, when `vec_copy` puts it in r, so one loop serves
every block.

`remainder_blockwise` runs that sweep with read-only inputs and one
caller-provided M-element scratch vector.  `remainder_in_place` replaces
the two block products by their over-place triangular versions, so only
the output vector is written: `Schoolbook` never writes b, and a
strategy that borrows b's storage must restore it.

`divmod_over_place` runs the same steps over a itself, leaving
[remainder, quotient] in a's buffer: the top N - M + 1 coefficients of
a are the banded upper-triangular Toeplitz matrix on reversed b applied
to q, so one banded solve (`toeplitz.banded_upper_solve_overplace`, whose
blocks are exactly T and G) leaves q there, and one truncated product
subtracts (b mod X^M) * q from the low M cells.  It is exactly
reversible.  `_reduced` reduces an operand in its own storage, yields the
remainder and rebuilds the operand on exit, even when its user raises;
`remainder_acc` and `modmul.mulmod_acc_full` divide only through it.

Applying G is a truncated product, G . y = (b mod X^M) * y mod X^M, or
over-place an upper triangular product on reversed views of y.
"""

from __future__ import annotations

from contextlib import contextmanager

from .conv import LengthMismatch, short_acc
from .instrument import tracked
from .mulbase import MulStrategy, _divisor_degree, _resolve
from .region import (
    CoeffRegion, _check_disjoint, split_blocks, vec_copy, vec_iadd, vec_negate, vec_scale)
from .toeplitz import (
    _quad_tri_toeplitz_mul,
    _quad_tri_toeplitz_solve,
    banded_upper_mul_overplace,
    banded_upper_solve_overplace,
    tri_toeplitz_mul_overplace,
    tri_toeplitz_solve_overplace,
)


def _sweep_operands(a: CoeffRegion, b: CoeffRegion):
    """(blocks, t_row, g_low) of a remainder sweep by b, deg b = M >= 1.

    blocks tile a exactly into width-M windows, the top one possibly
    shorter; t_row = b[M], ..., b[1] is the first row of T; g_low =
    b[0], ..., b[M-1], so G . y = g_low * y mod X^M.  The top block is
    only copied into r, so T and G are always applied at full width.
    """
    m = len(b) - 1
    return split_blocks(a, m), b.sub(1, m + 1).reversed(), b.sub(0, m)


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
    _check_disjoint(r, a, b, scratch)
    if m == 0:
        return
    if m > len(a) - 1:
        vec_copy(r, a)
        return
    blocks, t_row, g_low = _sweep_operands(a, b)
    vec_copy(r, blocks[-1])
    for block in reversed(blocks[:-1]):
        vec_copy(scratch, r)
        _quad_tri_toeplitz_solve(t_row, scratch)
        _quad_tri_toeplitz_mul(g_low, scratch.reversed())
        vec_copy(r, block)
        vec_iadd(r, scratch, negate=True)


@tracked
def remainder_in_place(r: CoeffRegion, a: CoeffRegion, b: CoeffRegion,
                       strategy: MulStrategy | None = None) -> None:
    """r <- a mod b with no scratch at all; a read-only, b restored.

    The sweep runs inside r: solve against T and multiply by G with the
    over-place triangular routines, negate, add the next block of a.
    `Schoolbook` never writes b; a strategy that borrows it restores it.
    """
    strategy = _resolve(strategy)
    m = _divisor_degree(b)
    if len(r) != m:
        raise LengthMismatch(f"remainder window must have length {m}")
    _check_disjoint(r, a, b)
    if m == 0:
        return
    if m > len(a) - 1:
        vec_copy(r, a)
        return
    blocks, t_row, g_low = _sweep_operands(a, b)
    vec_copy(r, blocks[-1])
    r_rev = r.reversed()
    for block in reversed(blocks[:-1]):
        tri_toeplitz_solve_overplace(t_row, r, "upper", strategy)
        tri_toeplitz_mul_overplace(g_low, r_rev, "upper", strategy)
        vec_negate(r)
        vec_iadd(r, block)


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
    _check_disjoint(a, b)
    n_deg = len(a) - 1
    if m > n_deg:
        return
    field = a.field
    if m == 0:
        vec_scale(a, field.inv(b[0]))
        return
    q = a.sub(m, n_deg + 1)
    banded_upper_solve_overplace(b.reversed(), q, strategy)
    short_acc(a.sub(0, m), b, q, True, strategy)


@tracked
def divmod_over_place_inv(a: CoeffRegion, b: CoeffRegion,
                          strategy: MulStrategy | None = None) -> None:
    """Invert `divmod_over_place`: rebuild a from [remainder | quotient]."""
    strategy = _resolve(strategy)
    m = _divisor_degree(b)
    _check_disjoint(a, b)
    n_deg = len(a) - 1
    if m > n_deg:
        return
    if m == 0:
        vec_scale(a, b[0])
        return
    q = a.sub(m, n_deg + 1)
    short_acc(a.sub(0, m), b, q, False, strategy)
    banded_upper_mul_overplace(b.reversed(), q, strategy)


@contextmanager
def _reduced(x: CoeffRegion, b: CoeffRegion, strategy: MulStrategy | None):
    """Yield x mod b, the low min(len x, deg b) cells of x; rebuild x on exit."""
    divmod_over_place(x, b, strategy)
    try:
        yield x.sub(0, min(len(x), len(b) - 1))
    finally:
        divmod_over_place_inv(x, b, strategy)


@tracked
def remainder_acc(r: CoeffRegion, a: CoeffRegion, b: CoeffRegion,
                  strategy: MulStrategy | None = None) -> None:
    """r += a mod b; both a and b restored exactly.

    Reduces a in its own storage (`_reduced`), adds the remainder into
    the low cells of r, and rebuilds a.
    """
    strategy = _resolve(strategy)
    m = _divisor_degree(b)
    if len(r) != m:
        raise LengthMismatch(f"accumulator must have length {m}")
    _check_disjoint(r, a, b)
    if m == 0:
        return
    with _reduced(a, b, strategy) as a0:
        vec_iadd(r.sub(0, len(a0)), a0)
