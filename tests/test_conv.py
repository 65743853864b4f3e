import random

import pytest

from ffpoly import (
    AliasedOperands,
    BadParameter,
    CoeffRegion,
    GuardViolation,
    LengthMismatch,
    Schoolbook,
    conv_acc,
    conv_even_f,
    conv_split_f,
    measure,
    poly_region,
    short_acc,
    snapshot,
)
from ffpoly.reference import ref_convolution, ref_mul

from conftest import FIELD_PRIMES, field, rand_coeffs, region_of

THRESHOLDS = (1, 2, 16)


def _conv_case(p, a, b, c, f, thr=16, fn=None, negate=False):
    ra, rb, rc = region_of(p, a), region_of(p, b), region_of(p, c)
    snap = snapshot(ra, rb)
    kwargs = dict(negate=negate, strategy=Schoolbook(thr))
    if fn is None:
        conv_acc(rc, ra, rb, f, **kwargs)
    elif fn is short_acc:
        short_acc(rc, ra, rb, **kwargs)
    else:
        fn(rc, ra, rb, f, **kwargs)
    snap.assert_restored()
    sign = -1 if negate else 1
    want = [(x + sign * y) % p
            for x, y in zip(c, ref_convolution(a, b, f, len(c), p))]
    return rc.to_list(), want


def test_worked_examples():
    # oracle values recomputed first, then the implementations
    assert ref_convolution([1, 2], [3, 1], 2, 2, 5) == [2, 2]
    assert ref_convolution([1, 2], [3, 1], 1, 2, 5) == [0, 2]
    assert ref_convolution([1, 0, 1], [0, 1, 0], 2, 3, 5) == [2, 1, 0]
    assert ref_convolution([1, 2], [3, 1], 0, 2, 5) == [3, 2]
    assert ref_convolution([1, 1, 1], [1, 0, 1], 0, 3, 2) == [1, 1, 0]
    for thr in THRESHOLDS:
        got, want = _conv_case(5, [1, 2], [3, 1], [0, 0], 2, thr)
        assert got == want == [2, 2]
        got, want = _conv_case(5, [1, 2], [3, 1], [1, 1], 1, thr)
        assert got == want == [1, 3]
        got, want = _conv_case(5, [1, 0, 1], [0, 1, 0], [0, 0, 0], 2, thr)
        assert got == want == [2, 1, 0]
        got, want = _conv_case(5, [1, 2], [3, 1], [0, 0], 0, thr)
        assert got == want == [3, 2]
        got, want = _conv_case(2, [1, 1, 1], [1, 0, 1], [0, 0, 0], 0, thr)
        assert got == want == [1, 1, 0]


def test_even_f_trace_and_degenerates():
    got, want = _conv_case(5, [1, 2], [3, 1], [0, 0], 2, 1, fn=conv_even_f)
    assert got == want == [2, 2]
    # zero a: the scalar renormalization round-trips and c is unchanged
    got, want = _conv_case(7, [0] * 4, [1, 2, 3, 4], [5, 6, 0, 1], 3, 1,
                           fn=conv_even_f)
    assert got == [5, 6, 0, 1]
    rng = random.Random(8)
    a, b, c = (rand_coeffs(rng, 7, 4) for _ in range(3))
    got, want = _conv_case(7, a, b, c, 3, 1, fn=conv_even_f)
    assert got == want


def test_even_1_examples():
    got, want = _conv_case(5, [1, 2], [3, 1], [1, 1], 1, 1, fn=conv_split_f)
    assert got == want == [1, 3]
    # constant-1 multiplicand: c += a
    got, want = _conv_case(7, [3, 4, 5, 6], [1, 0, 0, 0], [1, 1, 1, 1], 1, 2,
                           fn=conv_split_f)
    assert got == [4, 5, 6, 0]
    rng = random.Random(9)
    a, b, c = (rand_coeffs(rng, 13, 8) for _ in range(3))
    got, want = _conv_case(13, a, b, c, 1, 2, fn=conv_split_f)
    assert got == want


def test_odd_f_examples():
    got, want = _conv_case(5, [1, 0, 1], [0, 1, 0], [0, 0, 0], 2, 1, fn=conv_split_f)
    assert got == want == [2, 1, 0]
    got, want = _conv_case(7, [3], [4], [1], 5, 1, fn=conv_split_f)
    assert got == want == [(1 + 12) % 7]
    rng = random.Random(10)
    a, b, c = (rand_coeffs(rng, 7, 5) for _ in range(3))
    got, want = _conv_case(7, a, b, c, 4, 1, fn=conv_split_f)
    assert got == want


def test_split_f_covers_even_lengths_with_a_general_wrap():
    # conv_acc sends even n with f outside {0, 1} to conv_even_f; the split
    # is correct there too, and restores a and b bit for bit
    rng = random.Random(0x5F)
    for p in (5, 65521):
        for thr in THRESHOLDS:
            for n in range(2, 41, 2):
                for f in (2, 3, 4) if p == 5 else (2, rng.randrange(3, p)):
                    a, b, c = (rand_coeffs(rng, p, n) for _ in range(3))
                    got, want = _conv_case(p, a, b, c, f, thr, fn=conv_split_f)
                    assert got == want, (p, thr, n, f)


def test_short_examples():
    got, want = _conv_case(5, [1, 2], [3, 1], [0, 0], 0, 1, fn=short_acc)
    assert got == want == [3, 2]
    got, want = _conv_case(2, [1, 1, 1], [1, 0, 1], [0, 0, 0], 0, 1, fn=short_acc)
    assert got == want == [1, 1, 0]
    rng = random.Random(11)
    for n in (6, 7, 8):   # at threshold 2: even and odd halves at each level
        a, b, c = (rand_coeffs(rng, 2, n) for _ in range(3))
        got, want = _conv_case(2, a, b, c, 0, 2, fn=short_acc)
        assert got == want


def test_dispatcher_routing(monkeypatch):
    # conv_acc reaches the variants through the module's names; record
    # which one it runs.
    from ffpoly import conv
    seen = []
    for route, name in (("short", "short_acc"), ("split", "conv_split_f"),
                        ("even_general", "conv_even_f"), ("full", "acc_mul_full")):
        monkeypatch.setattr(conv, name, lambda *args, route=route, **kw: seen.append(route))
    for n, f, route in ((8, 0, "short"), (7, 2, "split"), (7, 1, "split"),
                        (8, 1, "split"), (8, 3, "even_general")):
        conv_acc(region_of(5, [0] * n), region_of(5, [1] * n), region_of(5, [2] * n), f)
        assert seen.pop() == route
    # above the threshold the truncated product is one full product of the
    # low halves and two half-length truncated ones; no wrapped variant runs
    short_acc(region_of(5, [0] * 32), region_of(5, [1] * 32), region_of(5, [2] * 32))
    assert seen == ["full", "short", "short"]
    with pytest.raises(BadParameter):
        conv_acc(region_of(5, []), region_of(5, []), region_of(5, []), 0)
    with pytest.raises(BadParameter):
        conv_acc(region_of(5, [0] * 4), region_of(5, [1] * 4), region_of(5, [2] * 4), 5)


def test_domain_errors():
    with pytest.raises(BadParameter):
        conv_even_f(region_of(5, [0, 0]), region_of(5, [1, 1]),
                    region_of(5, [1, 1]), 1, strategy=Schoolbook(1))
    with pytest.raises(BadParameter):
        conv_even_f(region_of(5, [0] * 3), region_of(5, [0] * 3),
                    region_of(5, [0] * 3), 2, strategy=Schoolbook(1))
    with pytest.raises(BadParameter):
        conv_split_f(region_of(5, [0] * 3), region_of(5, [0] * 3),
                     region_of(5, [0] * 3), 0, strategy=Schoolbook(1))
    with pytest.raises(LengthMismatch):
        conv_acc(region_of(5, [0, 0]), region_of(5, [1]), region_of(5, [1, 1]), 1)
    with pytest.raises(BadParameter):
        conv_acc(region_of(5, []), region_of(5, []), region_of(5, []), 1)


def test_aliased_operands_rejected_before_any_write():
    # squaring through one region used to be accepted: the variants that
    # add or scale blocks of a and of b then touched the same storage twice
    rng = random.Random(0xA1)
    p, n = 65521, 40
    for f in (0, 1, 2, 3):
        a = region_of(p, rand_coeffs(rng, p, n))
        c = region_of(p, rand_coeffs(rng, p, n))
        snap = snapshot(a, c)
        with pytest.raises(AliasedOperands):
            conv_acc(c, a, a, f)
        snap.assert_restored()
    # c overlapping an operand through a reversed view of one buffer
    r = region_of(p, rand_coeffs(rng, p, 2 * n))
    b = region_of(p, rand_coeffs(rng, p, n))
    snap = snapshot(r, b)
    with pytest.raises(AliasedOperands):
        conv_acc(r.sub(0, n), r.sub(n - 1, 2 * n - 1).reversed(), b, 2)
    snap.assert_restored()
    # disjoint windows of one buffer are not aliased
    c0, a0 = r.sub(0, n).to_list(), r.sub(n, 2 * n).to_list()
    conv_acc(r.sub(0, n), r.sub(n, 2 * n), b, 2)
    assert r.sub(0, n).to_list() == [
        (x + y) % p for x, y in zip(c0, ref_convolution(a0, b.to_list(), 2, n, p))]


def test_fuzz_all_routes():
    rng = random.Random(0xC0)
    for p in FIELD_PRIMES:
        for _ in range(350):
            n = rng.randrange(1, 36)
            f = rng.randrange(p)
            thr = rng.choice(THRESHOLDS)
            a, b, c = (rand_coeffs(rng, p, n) for _ in range(3))
            neg = rng.random() < 0.25
            got, want = _conv_case(p, a, b, c, f, thr, negate=neg)
            assert got == want, (p, n, f, thr, neg)


class _RecordingSchoolbook(Schoolbook):
    def __init__(self, threshold):
        super().__init__(threshold)
        self.targets = []

    def acc_mul_full(self, c, a, b, negate=False):
        self.targets.append((type(c), len(c), len(a) + len(b) - 1))
        super().acc_mul_full(c, a, b, negate)


def test_every_full_product_target_is_one_exact_region():
    # the MulStrategy contract a new strategy has to meet: each full
    # product lands on one contiguous CoeffRegion of exactly its length
    rng = random.Random(0x5E)
    p = 65521
    for n in range(17, 41):
        for f in (0, 1, 2, 3):
            for thr in (1, 2, 4):
                strategy = _RecordingSchoolbook(thr)
                a, b, c = (rand_coeffs(rng, p, n) for _ in range(3))
                rc = region_of(p, c)
                conv_acc(rc, region_of(p, a), region_of(p, b), f, strategy=strategy)
                assert rc.to_list() == [
                    (x + y) % p for x, y in zip(c, ref_convolution(a, b, f, n, p))]
                assert strategy.targets, (n, f, thr)
                for kind, got, need in strategy.targets:
                    assert kind is CoeffRegion and got == need, (n, f, thr, kind, got, need)


def test_exhaustive_small_sweep_over_f5():
    # every length up to 48, every wrap scalar, forced recursion
    rng = random.Random(0xE5)
    for n in range(1, 49):
        for f in range(5):
            a, b, c = (rand_coeffs(rng, 5, n) for _ in range(3))
            got, want = _conv_case(5, a, b, c, f, thr=2)
            assert got == want, (n, f)


def test_exhaustive_small_sweep_over_gf2():
    # the half split runs at every length, through odd and even halves
    rng = random.Random(0xE2)
    for n in range(1, 41):
        for f in (0, 1):
            for _ in range(3):
                a, b, c = (rand_coeffs(rng, 2, n) for _ in range(3))
                got, want = _conv_case(2, a, b, c, f, thr=1)
                assert got == want, (n, f)


def test_short_acc_costs_a_triangle_of_products():
    # under Schoolbook, at every threshold, each pair (i, j) with i < la,
    # j < lb and i + j < n costs one mul and one add: n(n+1)/2 for square
    # operands, S(n) = M(ceil(n/2)) + 2 S(floor(n/2)), and as many for
    # ragged ones
    rng = random.Random(0x5A)
    for p in (2, 65521):
        f = field(p)
        for thr in (1, 4, 16):
            for n in range(1, 81):
                shapes = ((n, n), (rng.randrange(0, n + 9), rng.randrange(0, n + 9)))
                for la, lb in shapes:
                    a = poly_region(f, rand_coeffs(rng, p, la))
                    b = poly_region(f, rand_coeffs(rng, p, lb))
                    c = poly_region(f, rand_coeffs(rng, p, n))
                    with measure(f) as sc:
                        short_acc(c, a, b, strategy=Schoolbook(thr))
                    pairs = sum(max(0, min(lb, n - i)) for i in range(min(la, n)))
                    assert (sc.adds, sc.muls, sc.divs) == (pairs, pairs, 0), (p, thr, n, la, lb)


def test_truncated_product_leaves_operands_when_the_depth_guard_raises():
    # the split writes only c, so a guard that stops it at any depth
    # leaves a and b bit-identical
    rng = random.Random(0x64)
    n = 64
    for p in (2, 65521):
        f = field(p)
        raised = 0
        for k in range(1, 64):
            a0, b0 = rand_coeffs(rng, p, n), rand_coeffs(rng, p, n)
            a, b = poly_region(f, a0), poly_region(f, b0)
            c = poly_region(f, rand_coeffs(rng, p, n))
            try:
                with measure(f, max_depth=k):
                    conv_acc(c, a, b, 0)
            except GuardViolation:
                raised += 1
                assert a.to_list() == a0 and b.to_list() == b0, (p, k)
            else:
                break
        assert raised >= 2, p


def test_short_acc_matches_truncated_product_for_any_lengths():
    rng = random.Random(0xAB)
    for p in (2, 5, 13, 65521):
        for _ in range(400):
            n = rng.randrange(0, 30)
            la = rng.randrange(0, 34)
            lb = rng.randrange(0, 34)
            a, b = rand_coeffs(rng, p, la), rand_coeffs(rng, p, lb)
            c = rand_coeffs(rng, p, n)
            ra, rb, rc = region_of(p, a), region_of(p, b), region_of(p, c)
            snap = snapshot(ra, rb)
            neg = rng.random() < 0.3
            short_acc(rc, ra, rb, negate=neg,
                      strategy=Schoolbook(rng.choice(THRESHOLDS)))
            prod = ref_mul(a, b, p) + [0] * n
            sign = -1 if neg else 1
            want = [(x + sign * y) % p for x, y in zip(c, prod)]
            assert rc.to_list() == want, (p, n, la, lb)
            snap.assert_restored()


def test_recurrence_structure_even_one():
    # above the threshold the 1-convolution is exactly four products that
    # cover the n^2 pairs (i, j) once each, with no scaling, at either parity
    f = field(65521)
    rng = random.Random(50)
    for n in (32, 33, 63, 64, 128):
        a, b, c = (poly_region(f, rand_coeffs(rng, f.p, n)) for _ in range(3))
        with measure(f) as sc:
            conv_acc(c, a, b, 1)
        assert sc.counter.total == 2 * n * n, n
        assert (sc.adds, sc.muls, sc.divs) == (n * n, n * n, 0), n
