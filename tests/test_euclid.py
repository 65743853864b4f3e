import random

import pytest

from ffpoly import (
    AliasedOperands,
    Buffer,
    NonInvertibleLeading,
    Schoolbook,
    divmod_over_place,
    divmod_over_place_inv,
    measure,
    poly_region,
    quad_rem,
    remainder_acc,
    remainder_blockwise,
    remainder_in_place,
    snapshot,
)
from ffpoly.euclid import _sweep_operands
from ffpoly.reference import ref_divmod, ref_mul, ref_rem

from conftest import FIELD_PRIMES, field, rand_coeffs, rand_monic_tail, region_of

THRESHOLDS = (1, 2, 16)


def _zeros(p, n):
    return Buffer.zeros(field(p), n).region()


def test_blockwise_worked_examples():
    assert ref_rem([1, 2, 0, 1], [1, 0, 1], 7) == [1, 1]
    r, scratch = _zeros(7, 2), _zeros(7, 2)
    a, b = region_of(7, [1, 2, 0, 1]), region_of(7, [1, 0, 1])
    remainder_blockwise(r, a, b, scratch)
    assert r.to_list() == [1, 1]
    assert a.to_list() == [1, 2, 0, 1] and b.to_list() == [1, 0, 1]

    # deg a < deg b: the remainder is a, zero-extended
    r, scratch = _zeros(7, 3), _zeros(7, 3)
    remainder_blockwise(r, region_of(7, [5, 6]), region_of(7, [1, 0, 0, 1]), scratch)
    assert r.to_list() == [5, 6, 0]


def test_blockwise_uses_exactly_the_given_scratch():
    rng = random.Random(70)
    f = field(65521)
    a = poly_region(f, rand_coeffs(rng, f.p, 40))
    b = poly_region(f, rand_monic_tail(rng, f.p, 6))
    r = Buffer.zeros(f, 6).region()
    # with output and scratch provided up front, the sweep itself may not
    # acquire a single extra field element
    scratch = Buffer.zeros(f, 6).region()
    with measure(f, max_aux=0) as scope:
        remainder_blockwise(r, a, b, scratch)
    assert scope.peak_aux == 0
    assert r.to_list() == ref_rem(a.to_list(), b.to_list(), f.p)
    # and the scratch budget is visible to the guard when acquired in scope
    with measure(f) as scope:
        remainder_blockwise(r, a, b, Buffer.zeros(f, 6).region())
    assert scope.peak_aux == 6


def test_in_place_worked_examples():
    r = _zeros(7, 2)
    a, b = region_of(7, [1, 2, 0, 1]), region_of(7, [1, 0, 1])
    snap = snapshot(b)
    remainder_in_place(r, a, b)
    assert r.to_list() == [1, 1]
    snap.assert_restored()

    r = _zeros(13, 3)
    remainder_in_place(r, region_of(13, [7, 9]), region_of(13, [1, 2, 3, 4]))
    assert r.to_list() == [7, 9, 0]


def test_equivalence_of_all_remainder_paths():
    rng = random.Random(71)
    for p in FIELD_PRIMES:
        for _ in range(120):
            m = rng.randrange(1, 12)
            n = rng.randrange(0, 50)
            a = rand_coeffs(rng, p, n + 1)
            b = rand_monic_tail(rng, p, m)
            thr = Schoolbook(rng.choice(THRESHOLDS))
            want = ref_rem(a, b, p)
            ra, rb = region_of(p, a), region_of(p, b)

            r1, scratch = _zeros(p, m), _zeros(p, m)
            remainder_blockwise(r1, ra, rb, scratch)
            r2 = _zeros(p, m)
            remainder_in_place(r2, ra, rb, strategy=thr)
            r3 = _zeros(p, m)
            quad_rem(r3, ra, rb)
            assert r1.to_list() == r2.to_list() == r3.to_list() == want
            assert ra.to_list() == a and rb.to_list() == b


def test_over_place_worked_examples():
    a, b = region_of(7, [1, 2, 0, 1]), region_of(7, [1, 0, 1])
    divmod_over_place(a, b)
    assert a.to_list() == [1, 1, 0, 1]          # [R=1+X | Q=X]
    divmod_over_place_inv(a, b)
    assert a.to_list() == [1, 2, 0, 1]

    a, b = region_of(5, [3, 1, 2]), region_of(5, [1, 0, 1])
    divmod_over_place(a, b)
    assert a.to_list() == [1, 1, 2]             # partial top block path
    divmod_over_place_inv(a, b)
    assert a.to_list() == [3, 1, 2]


def test_over_place_layout_and_reconstruction():
    rng = random.Random(72)
    for p in FIELD_PRIMES:
        for _ in range(120):
            m = rng.randrange(1, 10)
            n = rng.randrange(m, 45)
            a = rand_coeffs(rng, p, n + 1)
            b = rand_monic_tail(rng, p, m)
            thr = Schoolbook(rng.choice(THRESHOLDS))
            ra, rb = region_of(p, a), region_of(p, b)
            divmod_over_place(ra, rb, strategy=thr)
            q, r = ref_divmod(a, b, p)
            got = ra.to_list()
            assert got[:m] == ref_rem(a, b, p)
            assert got[m:] == q
            # b*q + r reconstructs a exactly
            recon = ref_mul(b, got[m:], p)
            recon = [(x + y) % p for x, y in
                     zip(recon + [0] * (n + 1), got[:m] + [0] * (n + 1))][:n + 1]
            assert recon == a
            assert rb.to_list() == b
            divmod_over_place_inv(ra, rb, strategy=thr)
            assert ra.to_list() == a
            assert rb.to_list() == b


def test_over_place_layout_agrees_with_quadratic_baseline():
    # two independent routes to the same [remainder | quotient] layout
    from ffpoly import quad_rem_overplace

    rng = random.Random(76)
    for _ in range(200):
        p = rng.choice(FIELD_PRIMES)
        m = rng.randrange(1, 9)
        n = rng.randrange(m, 36)
        a = rand_coeffs(rng, p, n + 1)
        b = rand_monic_tail(rng, p, m)
        r1, r2 = region_of(p, a), region_of(p, a)
        rb = region_of(p, b)
        divmod_over_place(r1, rb, strategy=Schoolbook(rng.choice(THRESHOLDS)))
        quad_rem_overplace(r2, rb)
        assert r1.to_list() == r2.to_list()


def test_reversibility_bulk():
    rng = random.Random(73)
    for _ in range(500):
        p = rng.choice(FIELD_PRIMES)
        m = rng.randrange(1, 9)
        n = rng.randrange(m, 40)
        a = rand_coeffs(rng, p, n + 1)
        b = rand_monic_tail(rng, p, m)
        ra, rb = region_of(p, a), region_of(p, b)
        divmod_over_place(ra, rb)
        divmod_over_place_inv(ra, rb)
        assert ra.to_list() == a and rb.to_list() == b


def test_accumulating_remainder():
    r = region_of(7, [1, 0])
    a, b = region_of(7, [1, 2, 0, 1]), region_of(7, [1, 0, 1])
    snap = snapshot(a, b)
    remainder_acc(r, a, b)
    assert r.to_list() == [2, 1]
    snap.assert_restored()

    # deg a < deg b accumulates a itself
    r = region_of(7, [1, 2, 3])
    remainder_acc(r, region_of(7, [5, 6]), region_of(7, [0, 0, 0, 1]))
    assert r.to_list() == [6, 1, 3]


def test_accumulating_remainder_fuzz():
    rng = random.Random(74)
    for p in FIELD_PRIMES:
        for _ in range(100):
            m = rng.randrange(1, 8)
            n = rng.randrange(0, 30)
            a = rand_coeffs(rng, p, n + 1)
            b = rand_monic_tail(rng, p, m)
            r0 = rand_coeffs(rng, p, m)
            ra, rb, rr = region_of(p, a), region_of(p, b), region_of(p, r0)
            snap = snapshot(ra, rb)
            remainder_acc(rr, ra, rb, strategy=Schoolbook(rng.choice(THRESHOLDS)))
            if n >= m:
                delta = ref_rem(a, b, p)
            else:
                delta = (a + [0] * m)[:m]
            assert rr.to_list() == [(x + y) % p for x, y in zip(r0, delta)]
            snap.assert_restored()


def test_context_geometry():
    # exact tiling: a partial top block of width s
    a = region_of(7, list(range(7)))
    b = region_of(7, [1, 2, 3, 1])
    blocks, t_row, g_low = _sweep_operands(a, b)
    assert [blk.to_list() for blk in blocks] == [[0, 1, 2], [3, 4, 5], [6]]
    assert t_row.to_list() == [1, 3, 2]
    assert g_low.to_list() == [1, 2, 3]


@pytest.mark.parametrize("n_deg, m, adds, muls, divs", [
    (40, 16, 400, 425, 2),
    (100, 16, 1360, 1445, 6),
    (1000, 128, 111744, 112617, 56),
])
def test_divmod_counts_with_a_partial_top_block(n_deg, m, adds, muls, divs):
    # N + 1 is not a multiple of M: the top block is narrower than the
    # rest and takes the same sweep step on the leading corner of T
    p = 65521
    rng = random.Random(n_deg * m)
    a = region_of(p, rand_coeffs(rng, p, n_deg + 1))
    b = region_of(p, rand_monic_tail(rng, p, m))
    fld = field(p)
    with measure(fld) as fwd:
        divmod_over_place(a, b)
    with measure(fld) as inv:
        divmod_over_place_inv(a, b)
    assert (fwd.adds, fwd.muls, fwd.divs) == (adds, muls, divs)
    assert (inv.adds, inv.muls, inv.divs) == (adds, muls, 0)


@pytest.mark.parametrize("p", [2, 65521])
def test_short_top_block_is_zero_extended(p):
    # The top block of a is copied into a dirty r and zero-extended there;
    # a tail left unzeroed would survive into the remainder.
    rng = random.Random(p)
    for m in (1, 2, 3, 5):
        b = rand_monic_tail(rng, p, m)
        for n in sorted({0, 1, m - 1, m, m + 1, 2 * m, 2 * m + 1}):
            a = rand_coeffs(rng, p, n)
            want = ref_rem(a, b, p) if n > m else a + [0] * (m - n)
            for run in (remainder_in_place,
                        lambda r, ra, rb: remainder_blockwise(
                            r, ra, rb, region_of(p, rand_monic_tail(rng, p, m - 1))),
                        quad_rem):
                r = region_of(p, [rng.randrange(1, p) for _ in range(m)])
                ra, rb = region_of(p, a), region_of(p, b)
                run(r, ra, rb)
                assert r.to_list() == want, (p, m, n)
                assert ra.to_list() == a and rb.to_list() == b


def test_leading_zero_divisor_rejected():
    for fn in (lambda: remainder_in_place(_zeros(5, 1), region_of(5, [1, 1]),
                                          region_of(5, [1, 0])),
               lambda: divmod_over_place(region_of(5, [1, 1]), region_of(5, [1, 0])),
               lambda: remainder_acc(_zeros(5, 1), region_of(5, [1, 1]),
                                     region_of(5, [1, 0])),
               lambda: remainder_blockwise(_zeros(5, 1), region_of(5, [1, 1]),
                                           region_of(5, [1, 0]), _zeros(5, 1))):
        with pytest.raises(NonInvertibleLeading):
            fn()


def test_constant_divisor():
    # deg b = 0: remainder is empty, quotient is a scaled copy
    a = region_of(7, [2, 4, 6])
    b = region_of(7, [3])
    divmod_over_place(a, b)
    q, _ = ref_divmod([2, 4, 6], [3], 7)
    assert a.to_list() == q
    divmod_over_place_inv(a, b)
    assert a.to_list() == [2, 4, 6]

    r = _zeros(7, 0)
    remainder_in_place(r, region_of(7, [2, 4, 6]), region_of(7, [3]))
    assert r.to_list() == []


def test_in_place_zero_aux():
    rng = random.Random(75)
    f = field(65521)
    a = poly_region(f, rand_coeffs(rng, f.p, 129))
    b = poly_region(f, rand_monic_tail(rng, f.p, 16))
    r = Buffer.zeros(f, 16).region()
    with measure(f, max_aux=0):
        remainder_in_place(r, a, b)
        divmod_over_place(a, b)
        divmod_over_place_inv(a, b)
        remainder_acc(r, a, b)


def test_aliased_operands_rejected_before_any_write():
    rng = random.Random(4)
    p, n_deg, m = 65521, 199, 32
    a = region_of(p, rand_monic_tail(rng, p, n_deg))
    b = region_of(p, rand_monic_tail(rng, p, m))
    r = _zeros(p, m)
    snap = snapshot(a, b, r)
    cases = [
        (remainder_in_place, (a.sub(0, m), a, b)),
        (remainder_in_place, (b.sub(0, m), a, b)),
        (remainder_blockwise, (r, a, b, a.sub(0, m))),
        (remainder_blockwise, (r, a, b, b.sub(1, m + 1).reversed())),
        (remainder_acc, (a.sub(0, m), a, b)),
        (remainder_acc, (r, a, a.sub(n_deg - m, n_deg + 1))),
        (divmod_over_place, (a, a.sub(n_deg - m, n_deg + 1))),
        (divmod_over_place_inv, (a, a.sub(n_deg - m, n_deg + 1))),
    ]
    for fn, args in cases:
        with pytest.raises(AliasedOperands):
            fn(*args)
        snap.assert_restored()
