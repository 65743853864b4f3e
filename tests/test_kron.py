"""The packed (Kronecker) product kernel of `Schoolbook` and of the triangular base case.

Every case is checked against a plain index-loop oracle, on forward and
reversed views (a reversed window that ends at physical index 0 is the
slice-end corner case), at lengths from 1 up and around multiples of
the block width, and with the op counts `Schoolbook` reports for the
index loop.
"""

import random
import tracemalloc

import pytest

from ffpoly import Buffer, Field, Schoolbook, measure
from ffpoly.region import _BLOCK, _kron
from ffpoly.toeplitz import _quad_tri_toeplitz_mul

PRIMES = (2, 3, 251, 65521, (1 << 31) - 1, (1 << 61) - 1)
LENGTHS = (1, 2, 8, 9, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1)


def _view(f, values, rev, pad):
    """values as a region; a reversed view of a buffer starting at index 0
    when pad is 0, so its last coefficient sits at physical index 0."""
    cells = [0] * pad + (values[::-1] if rev else list(values)) + [0] * pad
    r = Buffer(f, cells).region(pad, pad + len(values))
    return r.reversed() if rev else r


def _product(a, b):
    z = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            z[i + j] += x * y
    return z


def _operands(rng, p, *lengths, worst=False):
    return [[p - 1] * n if worst else [rng.randrange(p) for _ in range(n)] for n in lengths]


def _counted(f, call):
    with measure(f) as scope:
        call()
    return scope.counter.muls, scope.counter.adds


@pytest.mark.parametrize("p", PRIMES)
def test_packed_strategy_methods_match_the_oracle(p):
    f = Field(p)
    rng = random.Random(p)
    s = Schoolbook()
    for trial in range(24):
        la, lb = rng.choice(LENGTHS), rng.choice(LENGTHS)
        negate = trial % 2 == 1
        sign = -1 if negate else 1
        ra, rb, pad = rng.random() < 0.5, rng.random() < 0.5, rng.choice((0, 2))
        worst = trial % 6 == 0
        a, b = _operands(rng, p, la, lb, worst=worst)
        z = _product(a, b)

        c0, = _operands(rng, p, la + lb - 1)
        c = _view(f, c0, rng.random() < 0.5, pad)
        av, bv = _view(f, a, ra, pad), _view(f, b, rb, 1)
        assert _counted(f, lambda: s.acc_mul_full(c, av, bv, negate)) == (la * lb, la * lb)
        assert c.to_list() == [(x + sign * y) % p for x, y in zip(c0, z)]
        assert av.to_list() == a and bv.to_list() == b

        n = rng.randrange(1, la + lb + 2)
        c0, = _operands(rng, p, n)
        c = _view(f, c0, rng.random() < 0.5, pad)
        pairs = sum(1 for i in range(min(la, n)) for j in range(lb) if i + j < n)
        assert _counted(f, lambda: s.acc_mul_short(c, av, bv, n, negate)) == (pairs, pairs)
        assert c.to_list() == [(x + sign * y) % p for x, y in zip(c0, z + [0] * n)]

        lc, ly = la, lb
        x, y = _operands(rng, p, lc + ly - 1, ly, worst=worst)
        c0, = _operands(rng, p, lc)
        c = _view(f, c0, rng.random() < 0.5, pad)
        xv, yv = _view(f, x, ra, pad), _view(f, y, rb, 1)
        assert _counted(f, lambda: s.acc_mul_middle(c, xv, yv, negate)) == (lc * ly, lc * ly)
        want = [(c0[i] + sign * sum(x[i + j] * y[j] for j in range(ly))) % p for i in range(lc)]
        assert c.to_list() == want
        assert xv.to_list() == x and yv.to_list() == y


@pytest.mark.parametrize("p", (3, (1 << 61) - 1))
def test_kron_takes_any_run_of_product_coefficients(p):
    # the run [shift, shift + n) starts on either side of each block edge,
    # where the block below it does or does not carry into it
    f = Field(p)
    rng = random.Random(7)
    a, b = _operands(rng, p, 2 * _BLOCK + 3, 2 * _BLOCK - 5)
    z = _product(a, b)
    edges = (0, 1, _BLOCK - 2, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 2, 2 * _BLOCK - 1, 2 * _BLOCK)
    for shift in edges:
        for n in (1, _BLOCK - 1, len(z) - shift):
            c0, = _operands(rng, p, n)
            c = Buffer(f, c0).region()
            _kron(c, 1, -1, Buffer(f, a).region(), Buffer(f, b).region(), shift)
            assert c.to_list() == [(x - y) % p for x, y in zip(c0, z[shift:])], (shift, n)


@pytest.mark.parametrize("p", PRIMES)
def test_packed_triangular_multiply_matches_the_oracle(p):
    # sizes past one block too: remainder_blockwise calls the base case at
    # the divisor's degree, whatever the threshold
    f = Field(p)
    rng = random.Random(p + 1)
    for m in LENGTHS + (3 * _BLOCK - 1,):
        for worst in (False, True):
            a, b = _operands(rng, p, m, m, worst=worst)
            av, bv = _view(f, a, rng.random() < 0.5, 0), _view(f, b, rng.random() < 0.5, 0)
            counts = _counted(f, lambda: _quad_tri_toeplitz_mul(av, bv))
            assert counts == (m * (m + 1) // 2, m * (m - 1) // 2)
            want = [sum(a[j - i] * b[j] for j in range(i, m)) % p for i in range(m)]
            assert bv.to_list() == want
            assert av.to_list() == a


@pytest.mark.parametrize("p, short, long", [
    ((1 << 31) - 1, 4, 5),          # 4*(p-1)^2 < 2^64 < 5*(p-1)^2: 1 word, then 2
    ((1 << 61) - 1, 64, 65),        # 64*(p-1)^2 < 2^128 < 65*(p-1)^2: 2 words, then 3
])
def test_slots_hold_the_largest_sum_on_both_sides_of_a_word_boundary(p, short, long):
    # every coefficient p - 1 makes the middle coefficients of the product
    # exactly min(la, lb)*(p-1)^2, the bound the slot width is sized from
    f = Field(p)
    words = [-(-(n * (p - 1) ** 2).bit_length() // 64) for n in (short, long)]
    assert words[1] == words[0] + 1
    for n in (short, long):
        for lb in (n, _BLOCK + n):
            a, b = [p - 1] * n, [p - 1] * lb
            z = _product(a, b)
            c = Buffer(f, [0] * len(z)).region()
            _kron(c, 1, 1, Buffer(f, a).region(), Buffer(f, b).region(), 0)
            assert c.to_list() == [v % p for v in z]
            c = Buffer(f, [0] * len(z)).region()
            Schoolbook().acc_mul_full(c, Buffer(f, a).region(), Buffer(f, b).region())
            assert c.to_list() == [v % p for v in z]


def test_packed_temporaries_do_not_grow_with_n():
    # The traced peak of one call, minus what it keeps (the new ints written
    # into c), is a few block-sized integers and lists whatever n; packing
    # one whole operand of 4096 coefficients would alone take 32 KB.  The
    # truncated product gets an operand of 2n, longer than it reads, as
    # callers pass them uncut.
    f = Field(65521)
    rng = random.Random(5)
    s = Schoolbook()
    bound = 20 * 1024
    for n in (512, 4096):
        def cells(k):
            return Buffer(f, [rng.randrange(256, 65521) for _ in range(k)]).region()
        a, b, c, x, cm = cells(n), cells(n), cells(2 * n - 1), cells(2 * n - 1), cells(n)
        b_long = cells(2 * n)
        for call in (lambda: s.acc_mul_full(c, a, b), lambda: s.acc_mul_middle(cm, x, b),
                     lambda: s.acc_mul_short(cm, a, b_long, n)):
            call()
            tracemalloc.start()
            try:
                call()
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert 0 <= peak - kept <= bound, (n, kept, peak)
