import random

import pytest

from ffpoly import (
    AliasedOperands,
    Buffer,
    DegreeConstraint,
    NonInvertibleLeading,
    Schoolbook,
    banded_upper_mul_overplace,
    banded_upper_solve_overplace,
    measure,
    mulmod_acc,
    mulmod_acc_full,
    mulmod_blocks,
    poly_region,
    snapshot,
)
from ffpoly.reference import ref_divmod, ref_mul, ref_mulmod

from conftest import FIELD_PRIMES, field, rand_coeffs, rand_monic_tail, region_of

THRESHOLDS = (1, 2, 16)


def _zeros(p, n):
    return Buffer.zeros(field(p), n).region()


def test_constrained_worked_example():
    assert ref_mulmod([2, 1], [1, 2, 3], [1, 0, 1], 7) == [1, 2]
    r = _zeros(7, 2)
    a, c, b = region_of(7, [2, 1]), region_of(7, [1, 2, 3]), region_of(7, [1, 0, 1])
    snap = snapshot(a, c, b)
    mulmod_acc(r, a, c, b)
    assert r.to_list() == [1, 2]
    snap.assert_restored()


def test_product_fits_below_modulus():
    # deg a + deg c < deg b: a single plain accumulation
    r = region_of(7, [1, 0, 0, 2, 0])
    mulmod_acc(r, region_of(7, [2, 1]), region_of(7, [3, 1]),
               region_of(7, [0, 0, 0, 0, 0, 1]))
    prod = ref_mul([2, 1], [3, 1], 7)
    assert r.to_list() == [(x + y) % 7 for x, y in
                           zip([1, 0, 0, 2, 0], prod + [0, 0])]


def test_constrained_fuzz():
    rng = random.Random(90)
    for p in FIELD_PRIMES:
        for _ in range(180):
            m = rng.randrange(1, 12)
            l = rng.randrange(0, m + 1)
            n = rng.randrange(l, 32)
            a = rand_coeffs(rng, p, l) + [rng.randrange(1, p)]
            c = rand_coeffs(rng, p, n + 1)
            b = rand_monic_tail(rng, p, m)
            r0 = rand_coeffs(rng, p, m)
            ra, rc, rb, rr = (region_of(p, x) for x in (a, c, b, r0))
            snap = snapshot(ra, rc, rb)
            mulmod_acc(rr, ra, rc, rb, strategy=Schoolbook(rng.choice(THRESHOLDS)))
            want = [(x + y) % p for x, y in zip(r0, ref_mulmod(a, c, b, p))]
            assert rr.to_list() == want, (p, l, n, m)
            snap.assert_restored()


def test_full_worked_example():
    assert ref_mulmod([1, 0, 0, 1], [0, 0, 0, 1], [1, 0, 1], 5) == [4, 4]
    r = _zeros(5, 2)
    a = region_of(5, [1, 0, 0, 1])
    c = region_of(5, [0, 0, 0, 1])
    b = region_of(5, [1, 0, 1])
    snap = snapshot(a, c, b)
    mulmod_acc_full(r, a, c, b)
    assert r.to_list() == [4, 4]
    snap.assert_restored()


def test_full_matches_constrained_when_applicable():
    rng = random.Random(91)
    for _ in range(120):
        p = rng.choice(FIELD_PRIMES)
        m = rng.randrange(1, 9)
        l = rng.randrange(0, m + 1)
        n = rng.randrange(l, 20)
        a = rand_coeffs(rng, p, l) + [rng.randrange(1, p)]
        c = rand_coeffs(rng, p, n) + [rng.randrange(1, p)]
        b = rand_monic_tail(rng, p, m)
        r0 = rand_coeffs(rng, p, m)
        r1, r2 = region_of(p, r0), region_of(p, r0)
        mulmod_acc(r1, region_of(p, a), region_of(p, c), region_of(p, b))
        mulmod_acc_full(r2, region_of(p, a), region_of(p, c), region_of(p, b))
        assert r1.to_list() == r2.to_list()


def test_full_fuzz_all_degree_patterns():
    rng = random.Random(92)
    patterns = ("L<M<N", "M<L<N", "L=N=M", "L+N<M")
    for p in FIELD_PRIMES:
        for i in range(200):
            pat = patterns[i % len(patterns)]
            if pat == "L<M<N":
                l = rng.randrange(0, 6)
                m = l + rng.randrange(1, 6)
                n = m + rng.randrange(1, 20)
            elif pat == "M<L<N":
                m = rng.randrange(1, 6)
                l = m + rng.randrange(1, 8)
                n = l + rng.randrange(1, 16)
            elif pat == "L=N=M":
                l = m = n = rng.randrange(1, 10)
            else:
                m = rng.randrange(2, 14)
                l = rng.randrange(0, m // 2)
                n = rng.randrange(0, m - l - 1 - l if m - l - 1 - l > 0 else 1)
                n = min(n, m - l - 1)
            a = rand_coeffs(rng, p, l + 1)
            c = rand_coeffs(rng, p, n + 1)
            b = rand_monic_tail(rng, p, m)
            r0 = rand_coeffs(rng, p, m)
            ra, rc, rb, rr = (region_of(p, x) for x in (a, c, b, r0))
            snap = snapshot(ra, rc, rb)
            mulmod_acc_full(rr, ra, rc, rb,
                            strategy=Schoolbook(rng.choice(THRESHOLDS)))
            want = [(x + y) % p for x, y in zip(r0, ref_mulmod(a, c, b, p))]
            assert rr.to_list() == want, (p, pat, l, n, m)
            snap.assert_restored()


def test_commutativity():
    rng = random.Random(93)
    for _ in range(150):
        p = rng.choice(FIELD_PRIMES)
        m = rng.randrange(1, 8)
        l = rng.randrange(0, 18)
        n = rng.randrange(0, 18)
        a = rand_coeffs(rng, p, l + 1)
        c = rand_coeffs(rng, p, n + 1)
        b = rand_monic_tail(rng, p, m)
        r0 = rand_coeffs(rng, p, m)
        r1, r2 = region_of(p, r0), region_of(p, r0)
        mulmod_acc_full(r1, region_of(p, a), region_of(p, c), region_of(p, b))
        mulmod_acc_full(r2, region_of(p, c), region_of(p, a), region_of(p, b))
        assert r1.to_list() == r2.to_list()


def test_extension_field_multiply_accumulate():
    # irreducible quadratic over F7; operands of degree <= 1
    rng = random.Random(94)
    b = [3, 1, 1]  # 3 + X + X^2, irreducible over F7
    for _ in range(50):
        x = rand_coeffs(rng, 7, 2)
        y = rand_coeffs(rng, 7, 2)
        r0 = rand_coeffs(rng, 7, 2)
        rr = region_of(7, r0)
        mulmod_acc_full(rr, region_of(7, x), region_of(7, y), region_of(7, b))
        want = [(u + v) % 7 for u, v in zip(r0, ref_mulmod(x, y, b, 7))]
        assert rr.to_list() == want


def test_quotient_sits_in_the_window():
    # after the two banded passes the window holds (a*c) div b exactly
    rng = random.Random(95)
    for _ in range(120):
        p = rng.choice((5, 13, 65521))
        m = rng.randrange(1, 9)
        l = rng.randrange(0, m + 1)
        n = rng.randrange(max(l, m - l), 24)
        if l + n < m:
            continue
        a = rand_coeffs(rng, p, l) + [rng.randrange(1, p)]
        c = rand_coeffs(rng, p, n + 1)
        b = rand_monic_tail(rng, p, m)
        ra, rc, rb = (region_of(p, x) for x in (a, c, b))
        blk = mulmod_blocks(ra, rc, rb)
        banded_upper_mul_overplace(blk.a_band, blk.window)
        banded_upper_solve_overplace(blk.b_band, blk.window)
        q, _ = ref_divmod(ref_mul(a, c, p), b, p)
        assert blk.window.to_list() == q
        banded_upper_mul_overplace(blk.b_band, blk.window)
        banded_upper_solve_overplace(blk.a_band, blk.window)
        assert rc.to_list() == c


def test_degree_constraint_and_leading_checks():
    with pytest.raises(DegreeConstraint):
        mulmod_acc(_zeros(5, 2), region_of(5, [1, 1, 1]), region_of(5, [1, 1]),
                   region_of(5, [1, 0, 1]))
    with pytest.raises(NonInvertibleLeading):
        mulmod_acc(_zeros(5, 2), region_of(5, [1, 0]), region_of(5, [1, 1]),
                   region_of(5, [1, 0, 1]))
    with pytest.raises(NonInvertibleLeading):
        mulmod_acc_full(_zeros(5, 2), region_of(5, [1]), region_of(5, [1]),
                        region_of(5, [1, 0]))
    # leading zeros on a and c are fine in the full entry point
    r = _zeros(5, 2)
    mulmod_acc_full(r, region_of(5, [2, 0]), region_of(5, [3, 0, 0]),
                    region_of(5, [1, 0, 1]))
    assert r.to_list() == [ref_mulmod([2], [3], [1, 0, 1], 5)[0], 0]


def test_zero_aux_space():
    rng = random.Random(96)
    f = field(65521)
    a = poly_region(f, rand_coeffs(rng, f.p, 16) + [1])
    c = poly_region(f, rand_coeffs(rng, f.p, 100))
    b = poly_region(f, rand_monic_tail(rng, f.p, 24))
    c_copy = poly_region(f, c.to_list())
    r = Buffer.zeros(f, 24).region()
    with measure(f, max_aux=0):
        mulmod_acc(r, a, c, b)
        mulmod_acc_full(r, c, c_copy, b)


def test_aliased_operands_rejected_before_any_write():
    # mulmod_acc_full(r, a, a, b) used to return a wrong result and leave a
    # corrupted: the over-place steps on c also rewrote a
    rng = random.Random(0xA2)
    p = 65521
    short = region_of(p, rand_coeffs(rng, p, 16) + [1])
    long = region_of(p, rand_coeffs(rng, p, 40) + [1])
    b = region_of(p, rand_monic_tail(rng, p, 24))
    r = _zeros(p, 24)
    snap = snapshot(short, long, b, r)
    for fn in (mulmod_acc, mulmod_acc_full):
        with pytest.raises(AliasedOperands):
            fn(r, short, short, b)
        with pytest.raises(AliasedOperands):
            fn(long.sub(0, 24), short, long, b)
        with pytest.raises(AliasedOperands):
            fn(r, short, long, long.sub(16, 41))
    with pytest.raises(AliasedOperands):
        mulmod_acc_full(r, long, long, b)
    snap.assert_restored()
