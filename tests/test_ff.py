import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from ffpoly import Field, FieldError, InversionOfZero, conv_acc, is_prime, measure, poly_region

from conftest import FIELD_PRIMES, field


def test_primality_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_primality_word_sized():
    assert is_prime(65521)
    assert not is_prime(65521 * 65537)
    assert is_prime((1 << 61) - 1)
    # Carmichael number
    assert not is_prime(561)


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 65520, 1 << 61, (1 << 61) + 3, -7])
def test_rejects_bad_modulus(bad):
    with pytest.raises(FieldError):
        Field(bad)


def test_worked_examples():
    assert field(5).add(3, 4) == 2
    assert field(7).inv(3) == 5
    with pytest.raises(InversionOfZero):
        field(5).inv(0)
    with pytest.raises(InversionOfZero):
        field(5).div(2, 0)


def test_ring_identities_bulk():
    # 10^4 random triples per field: associativity, commutativity,
    # distributivity, neg/sub coherence.
    rng = random.Random(101)
    for p in FIELD_PRIMES:
        f = field(p)
        for _ in range(10_000):
            x, y, z = rng.randrange(p), rng.randrange(p), rng.randrange(p)
            assert f.add(x, y) == f.add(y, x)
            assert f.mul(x, y) == f.mul(y, x)
            assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
            assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
            assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
            assert f.sub(x, y) == f.add(x, f.neg(y))


@given(st.sampled_from(FIELD_PRIMES), st.integers(min_value=1, max_value=1 << 61))
def test_mul_inv_is_one(p, raw):
    f = field(p)
    x = raw % p
    if x == 0:
        x = 1
    assert f.mul(x, f.inv(x)) == 1


@given(st.sampled_from(FIELD_PRIMES), st.integers(0, 1 << 62), st.integers(0, 1 << 62))
def test_canonical_closure(p, a, b):
    f = field(p)
    x, y = a % p, b % p
    for v in (f.add(x, y), f.sub(x, y), f.mul(x, y), f.neg(x)):
        assert 0 <= v < p


def test_check_rejects_non_canonical():
    f = field(7)
    assert f.check(6) == 6
    with pytest.raises(FieldError):
        f.check(7)
    with pytest.raises(FieldError):
        f.check(-1)


def test_one_field_per_modulus():
    assert Field(65521) is Field(65521) is field(65521)
    assert Field((1 << 61) - 1) is Field((1 << 61) - 1)
    assert "__eq__" not in vars(Field) and "__hash__" not in vars(Field)
    assert copy.deepcopy(field(5)) is pickle.loads(pickle.dumps(field(5))) is field(5)


def test_measure_sees_regions_built_on_another_field_call():
    # Regions built on one Field(65521) call, measured through another.
    a = poly_region(Field(65521), list(range(1, 9)))
    b = poly_region(Field(65521), list(range(2, 10)))
    c = poly_region(Field(65521), [0] * 8)
    with measure(Field(65521), max_aux=0) as scope:
        conv_acc(c, a, b, 0)
    assert scope.adds > 0 and scope.muls > 0


def test_field_call_keeps_an_open_scope():
    f = Field(7)
    with measure(f) as scope:
        assert Field(7) is f and f.scope is scope
        f.mul(2, 3)
    assert scope.muls == 1 and f.scope is None
