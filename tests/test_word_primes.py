"""The public API against the `reference` oracle at word-sized primes.

At p = 2^31 - 1 and 2^61 - 1 the packed product kernel sizes its slots
at one, two or three 64-bit words on short operands and at 9 to 17 bytes
on longer ones (from 37 and 65 coefficients a side), each value unpacked
from two or three words, which the small primes of
`conftest.FIELD_PRIMES` never need.  Every call runs
under thresholds 1, 4 and 16, so the recursions hand the kernel many
shapes, and every operand the contract restores is checked with
`snapshot`.  The shapes reach products of more than 65 coefficients a
side, where 2^61 - 1 needs 17-byte slots.
"""

import random

import pytest

from ffpoly import (
    Field,
    Schoolbook,
    conv_acc,
    divmod_over_place,
    divmod_over_place_inv,
    mulmod_acc_full,
    poly_region,
    remainder_acc,
    remainder_in_place,
    snapshot,
)
from ffpoly.reference import ref_convolution, ref_divmod, ref_mulmod, ref_rem

PRIMES = ((1 << 31) - 1, (1 << 61) - 1)
STRATEGIES = [Schoolbook(t) for t in (1, 4, 16)]
# (len a, deg b): below, at and above the divisor, across a block of 128
DIVISIONS = ((1, 1), (4, 6), (7, 6), (9, 1), (30, 8), (64, 17), (150, 40), (300, 140))
# (len a, len c, deg b), leading zeros included by the test
MULMODS = ((1, 1, 3), (5, 9, 6), (20, 7, 6), (40, 90, 17), (150, 140, 70), (200, 30, 130))
CONV_LENGTHS = (1, 2, 3, 5, 16, 17, 40, 131, 258)


def _rand(rng, p, n):
    return [rng.randrange(p) for _ in range(n)]


def _divisor(rng, p, m):
    return _rand(rng, p, m) + [rng.randrange(1, p)]


def _ids(s):
    return f"t{s.threshold}"


@pytest.mark.parametrize("strategy", STRATEGIES, ids=_ids)
@pytest.mark.parametrize("p", PRIMES)
def test_remainders_and_division_match_the_oracle(p, strategy):
    f = Field(p)
    rng = random.Random(p + strategy.threshold)
    for la, m in DIVISIONS:
        a_l, b_l = _rand(rng, p, la), _divisor(rng, p, m)
        a, b = poly_region(f, a_l), poly_region(f, b_l)
        operands = snapshot(a, b)
        rem = ref_rem(a_l, b_l, p)

        r = poly_region(f, [0] * m)
        remainder_in_place(r, a, b, strategy)
        assert r.to_list() == rem, (la, m)
        operands.assert_restored()

        r0 = _rand(rng, p, m)
        r = poly_region(f, r0)
        remainder_acc(r, a, b, strategy)
        assert r.to_list() == [(x + y) % p for x, y in zip(r0, rem)], (la, m)
        operands.assert_restored()

        q, low = ref_divmod(a_l, b_l, p)
        divmod_over_place(a, b, strategy)
        assert a.to_list() == low + q, (la, m)
        assert b.to_list() == b_l
        divmod_over_place_inv(a, b, strategy)
        operands.assert_restored()


@pytest.mark.parametrize("strategy", STRATEGIES, ids=_ids)
@pytest.mark.parametrize("p", PRIMES)
def test_mulmod_acc_full_matches_the_oracle(p, strategy):
    f = Field(p)
    rng = random.Random(2 * p + strategy.threshold)
    for trial, (la, lc, m) in enumerate(MULMODS):
        zeros = trial % 2      # every other case carries a leading zero on a and c
        a_l = _rand(rng, p, la) + [0] * zeros
        c_l = _rand(rng, p, lc) + [0] * zeros
        b_l = _divisor(rng, p, m)
        a, c, b = poly_region(f, a_l), poly_region(f, c_l), poly_region(f, b_l)
        operands = snapshot(a, c, b)
        r0 = _rand(rng, p, m)
        r = poly_region(f, r0)
        mulmod_acc_full(r, a, c, b, strategy)
        want = ref_mulmod(a_l, c_l, b_l, p)
        assert r.to_list() == [(x + y) % p for x, y in zip(r0, want)], (la, lc, m)
        operands.assert_restored()


@pytest.mark.parametrize("strategy", STRATEGIES, ids=_ids)
@pytest.mark.parametrize("p", PRIMES)
def test_conv_acc_matches_the_oracle(p, strategy):
    f = Field(p)
    rng = random.Random(3 * p + strategy.threshold)
    for n in CONV_LENGTHS:
        # all-(p - 1) operands fill the slots up to their sized bound
        for fv, worst in ((0, False), (1, False), (2, False), (p - 1, False), (p - 1, True)):
            if worst:
                a_l = b_l = [p - 1] * n
            else:
                a_l, b_l = _rand(rng, p, n), _rand(rng, p, n)
            c0 = _rand(rng, p, n)
            a, b, c = poly_region(f, a_l), poly_region(f, b_l), poly_region(f, c0)
            operands = snapshot(a, b)
            negate = rng.random() < 0.5
            conv_acc(c, a, b, fv, negate, strategy)
            sign = -1 if negate else 1
            want = ref_convolution(a_l, b_l, fv, n, p)
            assert c.to_list() == [(x + sign * y) % p for x, y in zip(c0, want)], (n, fv)
            operands.assert_restored()
