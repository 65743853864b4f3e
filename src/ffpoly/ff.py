"""Exact scalar arithmetic in a prime field F_p on canonical residues.

Elements are plain Python ints in [0, p).  Every operation returns a
canonical residue and allocates nothing.  A `Field` optionally carries a
measurement scope (see `instrument`); while one is attached, each scalar
operation ticks its counters.
"""

from __future__ import annotations


class FieldError(ValueError):
    """Invalid field construction or non-canonical operand."""


class InversionOfZero(FieldError, ZeroDivisionError):
    """Requested the inverse of 0, or a division by 0."""


MAX_MODULUS = 1 << 61

# Witness set making Miller-Rabin deterministic for all n < 3.3e24,
# which covers the whole admissible modulus range.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for word-sized integers."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The prime field F_p for a word-sized prime p, 2 <= p < 2**61.

    There is one instance per p: `Field(p)` validates p the first time and
    returns the same object afterwards, so a measurement scope attached
    to it sees every region built on F_p, and calling `Field(p)` again
    leaves an attached scope in place.

    `scope` is None in normal operation; `instrument.measure` attaches a
    Scope so that scalar operations and bulk kernels are counted.
    """

    __slots__ = ("p", "scope")

    _instances: dict = {}

    def __new__(cls, p: int):
        if not isinstance(p, int) or not 2 <= p < MAX_MODULUS:
            raise FieldError(f"modulus must be an integer in [2, 2^61): {p!r}")
        field = cls._instances.get(p)
        if field is None:
            if not is_prime(p):
                raise FieldError(f"modulus is not prime: {p}")
            field = super().__new__(cls)
            field.p = p
            field.scope = None
            cls._instances[p] = field
        return field

    def __reduce__(self):
        return Field, (self.p,)

    def __repr__(self):
        return f"Field({self.p})"

    def check(self, x: int) -> int:
        """Validate that x is a canonical residue; returns x."""
        if not isinstance(x, int) or not 0 <= x < self.p:
            raise FieldError(f"not a canonical residue mod {self.p}: {x!r}")
        return x

    def add(self, x: int, y: int) -> int:
        s = self.scope
        if s is not None:
            s.adds += 1
        return (x + y) % self.p

    def sub(self, x: int, y: int) -> int:
        s = self.scope
        if s is not None:
            s.adds += 1
        return (x - y) % self.p

    def neg(self, x: int) -> int:
        s = self.scope
        if s is not None:
            s.adds += 1
        return -x % self.p

    def mul(self, x: int, y: int) -> int:
        s = self.scope
        if s is not None:
            s.muls += 1
        return x * y % self.p

    def inv(self, x: int) -> int:
        if x % self.p == 0:
            raise InversionOfZero(f"inverse of 0 mod {self.p}")
        s = self.scope
        if s is not None:
            s.divs += 1
        return pow(x, -1, self.p)

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))
