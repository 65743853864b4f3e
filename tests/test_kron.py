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

from ffpoly import Buffer, Field, Schoolbook, measure, region
from ffpoly.region import _BLOCK, _SHED, _kron
from ffpoly.toeplitz import _quad_tri_toeplitz_mul

PRIMES = (2, 3, 251, 65521, (1 << 31) - 1, (1 << 61) - 1)
# the shortest operands `_kron` packs into byte-wide slots, per prime
BYTE_SLOTS_FROM = {2: 37, 3: 37, 251: 52, 65521: 86, (1 << 31) - 1: 37, (1 << 61) - 1: 65}
# 36/37, 51/52, 64/65 and 85/86 sit on both sides of those switches
LENGTHS = (1, 2, 8, 9, 36, 37, 51, 52, 63, 64, 65, 85, 86,
           _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1)


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


def _largest_sums_are_exact(p, short, long):
    # every coefficient p - 1 makes the middle coefficients of the product
    # exactly min(la, lb)*(p-1)^2, the bound the slot width is sized from
    f = Field(p)
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


@pytest.mark.parametrize("p, short, long", [
    ((1 << 31) - 1, 4, 5),          # 4*(p-1)^2 < 2^64 < 5*(p-1)^2: 1 word, then 2
    ((1 << 61) - 1, 64, 65),        # 64*(p-1)^2 < 2^128 < 65*(p-1)^2: 2 words, then 3
])
def test_slots_hold_the_largest_sum_on_both_sides_of_a_word_boundary(p, short, long):
    words = [-(-(n * (p - 1) ** 2).bit_length() // 64) for n in (short, long)]
    assert words[1] == words[0] + 1
    _largest_sums_are_exact(p, short, long)


def _multiword_byte_boundary(p):
    """(n, n + 1), n past the switch to byte slots, where n*(p-1)^2 first needs one more byte."""
    n = BYTE_SLOTS_FROM[p]
    while _slot_bytes(p, n + 1) == _slot_bytes(p, n):
        n += 1
    return p, n, n + 1


def _slot_bytes(p, n):
    return -(-(n * (p - 1) ** 2).bit_length() // 8)


def _shed(p, n):
    """Bytes byte-wide slots take off a packed block of min(n, _BLOCK) slots."""
    size = _slot_bytes(p, n)
    return min(n, _BLOCK) * (-(-size // 8) * 8 - size)


@pytest.mark.parametrize("p, short, long", [
    (2, 255, 256),                  # 255 < 2^8 <= 256: 1 byte, then 2
    (65521, 256, 257),              # 256*(p-1)^2 < 2^40 < 257*(p-1)^2: 5 bytes, then 6
    _multiword_byte_boundary((1 << 31) - 1),   # 9 bytes (two words), then 10
])
def test_slots_hold_the_largest_sum_on_both_sides_of_a_byte_boundary(p, short, long):
    # both lengths take byte-wide slots: they shed at least _SHED bytes
    sizes = [_slot_bytes(p, n) for n in (short, long)]
    assert sizes[1] == sizes[0] + 1
    assert all(_shed(p, n) >= _SHED for n in (short, long))
    _largest_sums_are_exact(p, short, long)


@pytest.mark.parametrize("p", PRIMES)
def test_kron_packs_bytes_once_they_shed_enough(p, monkeypatch):
    # one coefficient short of the switch every block packs whole words, at
    # it whole bytes; both exact at the largest sums
    n0 = BYTE_SLOTS_FROM[p]
    assert _shed(p, n0 - 1) < _SHED <= _shed(p, n0)
    lanes_seen = []
    pack = region._pack

    def spy(r, i, slot, lanes):
        lanes_seen.append(lanes)
        return pack(r, i, slot, lanes)
    monkeypatch.setattr(region, "_pack", spy)
    f = Field(p)
    for n, bytewide in ((n0 - 1, False), (n0, True)):
        lanes_seen.clear()
        a = [p - 1] * n
        z = _product(a, a)
        c = Buffer(f, [0] * len(z)).region()
        _kron(c, 1, 1, Buffer(f, a).region(), Buffer(f, a).region(), 0)
        assert c.to_list() == [v % p for v in z]
        assert {lanes > 0 for lanes in lanes_seen} == {bytewide}


def test_packed_temporaries_do_not_grow_with_n():
    # The traced peak of one call, minus what it keeps (the new ints written
    # into c), is a few block-sized integers, byte strings and lists whatever
    # n; packing one whole operand of 4096 coefficients would alone take
    # 32 KB at p = 65521.  The truncated product gets an operand of 2n,
    # longer than it reads, as callers pass them uncut.  The middle product
    # at n = 2*_BLOCK joins three-word values (p = 2^61 - 1) over two blocks.
    # Bounds per p, about 1.3x the largest peak measured on CPython 3.11 over
    # n = 256 ... 4096: 7.7 KB at p = 2, 11.2 KB at p = 65521 and 43.3 KB at
    # p = 2^61 - 1 (one slot of 17 bytes, unpacked into three words).
    s = Schoolbook()
    for p, bound in ((2, 10 * 1024), (65521, 15 * 1024), ((1 << 61) - 1, 56 * 1024)):
        f = Field(p)
        rng = random.Random(5)
        low = 256 if p > 256 else 0     # above the small ints CPython shares
        for n in (2 * _BLOCK, 512, 4096):
            def cells(k):
                return Buffer(f, [rng.randrange(low, p) for _ in range(k)]).region()
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
                assert 0 <= peak - kept <= bound, (p, n, kept, peak)
