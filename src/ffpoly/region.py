"""Coefficient buffers and the window views all operations work on.

A `Buffer` owns a flat list of canonical residues.  A `CoeffRegion` is a
unit-stride window over one buffer, forward or reversed, and holds
exactly the coefficients it covers.  Every product lands on one such
window: a product that wraps round the end of a region is accumulated
after `vec_rotate` has turned the region round in place.

None of the view operations copies coefficients; the only copying
utilities are `snapshot` (test harness), `vec_copy`, which is also the one
place that zero-extends a shorter operand, and `vec_rotate`.

This is the only module that knows how coefficients are stored.  Every
arithmetic loop over storage is one of four strided kernels below --
`_kron` (accumulate a run of coefficients of a product, by Kronecker
substitution: blocks packed into integers and multiplied as integers),
`_mac` (multiply-accumulate one output by a dot product of two windows),
`_axpy` and `_scale` -- and the quadratic kernels of the other modules are
short loops of calls to them.  Every product, whatever its size, is one
`_kron` call; `_mac` serves only loops whose outputs each depend on the
last: the rows of the triangular Toeplitz solve and the long-division
baselines `quad_rem` and `quad_rem_overplace`.  `_axpy` and `_scale`
allocate nothing; `_mac` sums a long window over slices of at most
`_BLOCK` coefficients and `_kron` packs blocks of at most `_BLOCK`
coefficients, so their temporaries are bounded by a constant whatever
the window length.
"""

from __future__ import annotations

from array import array
from itertools import combinations
from operator import mul
from sys import byteorder

from .ff import Field, FieldError


class RestorationViolation(AssertionError):
    """A region no longer matches its snapshot."""


class VirtualWrite(ValueError):
    """Kernel access outside a region's coefficients."""


class AliasedOperands(ValueError):
    """Operands of one call share storage, which in-place updates would corrupt."""


class Buffer:
    """A mutable array of field elements.

    Construction inside a measurement scope records the acquisition with
    the allocation guard.
    """

    __slots__ = ("field", "data")

    def __init__(self, field: Field, values):
        self.field = field
        data = list(values)
        p = field.p
        for v in data:
            if not isinstance(v, int) or not 0 <= v < p:
                raise FieldError(f"not a canonical residue mod {p}: {v!r}")
        self.data = data
        scope = field.scope
        if scope is not None:
            scope.alloc(len(data))

    @classmethod
    def zeros(cls, field: Field, n: int) -> "Buffer":
        buf = cls.__new__(cls)
        buf.field = field
        buf.data = [0] * n
        scope = field.scope
        if scope is not None:
            scope.alloc(n)
        return buf

    def __len__(self):
        return len(self.data)

    def region(self, start: int = 0, stop: int | None = None) -> "CoeffRegion":
        if stop is None:
            stop = len(self.data)
        if not 0 <= start <= stop <= len(self.data):
            raise IndexError(f"window [{start}, {stop}) outside buffer of {len(self.data)}")
        return CoeffRegion(self, start, stop - start, 1)

    def __repr__(self):
        return f"Buffer(p={self.field.p}, {self.data!r})"


class CoeffRegion:
    """A window of `length` coefficients of one buffer.

    `step` is +1 for forward views and -1 for reversed ones; `start` is the
    physical index of logical position 0.
    """

    __slots__ = ("buf", "start", "length", "step")

    def __init__(self, buf: Buffer, start: int, length: int, step: int):
        self.buf = buf
        self.start = start
        self.length = length
        self.step = step

    @property
    def field(self) -> Field:
        return self.buf.field

    def __len__(self):
        return self.length

    def __getitem__(self, k: int) -> int:
        if k < 0 or k >= self.length:
            raise IndexError(k)
        return self.buf.data[self.start + k * self.step]

    def __setitem__(self, k: int, v: int):
        if k < 0 or k >= self.length:
            raise IndexError(k)
        self.buf.data[self.start + k * self.step] = self.buf.field.check(v)

    def sub(self, lo: int, hi: int) -> "CoeffRegion":
        """Logical sub-window [lo, hi); must lie inside the region."""
        if not 0 <= lo <= hi <= self.length:
            raise IndexError(f"sub-window [{lo}, {hi}) outside region of {self.length}")
        return CoeffRegion(self.buf, self.start + lo * self.step, hi - lo, self.step)

    def reversed(self) -> "CoeffRegion":
        """O(1) reversed view; composing twice yields the original window."""
        n = self.length
        return CoeffRegion(self.buf, self.start + (n - 1) * self.step if n else self.start,
                           n, -self.step)

    def to_list(self) -> list[int]:
        return [self[k] for k in range(len(self))]

    def overlaps(self, other: "CoeffRegion") -> bool:
        if self.buf is not other.buf or self.length == 0 or other.length == 0:
            return False
        lo_a = self.start if self.step > 0 else self.start - self.length + 1
        lo_b = other.start if other.step > 0 else other.start - other.length + 1
        return lo_a < lo_b + other.length and lo_b < lo_a + self.length

    def __repr__(self):
        return f"CoeffRegion(start={self.start}, len={self.length}, step={self.step})"


def poly_region(field: Field, coeffs) -> CoeffRegion:
    """Fresh buffer holding `coeffs`, viewed whole.  Convenience for callers."""
    return Buffer(field, coeffs).region()


def split_blocks(r: CoeffRegion, block: int) -> list[CoeffRegion]:
    """Tile a region exactly into consecutive windows of width `block`.

    The final window is short when the region length is not a multiple of
    `block`.
    """
    if block < 1:
        raise ValueError("block width must be >= 1")
    n = len(r)
    return [r.sub(lo, min(lo + block, n)) for lo in range(0, n, block)]


def _check_disjoint(*regions: CoeffRegion) -> None:
    """Raise `AliasedOperands` if any two of the regions share a coefficient."""
    for r, s in combinations(regions, 2):
        if r.overlaps(s):
            raise AliasedOperands(f"{r!r} and {s!r} share storage")


class Snapshot:
    """Frozen copy of one or more regions, for exact restoration checks."""

    __slots__ = ("regions", "copies")

    def __init__(self, regions):
        self.regions = tuple(regions)
        self.copies = [r.to_list() for r in self.regions]

    def assert_restored(self):
        for ridx, (r, copy) in enumerate(zip(self.regions, self.copies)):
            for k in range(len(copy)):
                if r[k] != copy[k]:
                    raise RestorationViolation(
                        f"region {ridx} differs first at index {k}: "
                        f"{r[k]} != snapshot {copy[k]}")

    def restored(self) -> bool:
        try:
            self.assert_restored()
        except RestorationViolation:
            return False
        return True


def snapshot(*regions) -> Snapshot:
    return Snapshot(regions)


# ---------------------------------------------------------------------------
# Strided kernels: the only loops over coefficient storage.  Each primitive
# works on logical windows of regions, reduces once per output coefficient
# and counts nothing; the callers report their structural operation counts
# in bulk.  A window that reaches past a region's coefficients raises
# `VirtualWrite`.

_SHORT = 16     # longest dot product that `_mac` sums by an index loop
_BLOCK = 128    # longest window a kernel takes of an operand at once
assert array("Q").itemsize == 8


def _window(r: CoeffRegion, i: int, n: int) -> slice:
    """The slice of r's buffer holding its logical window [i, i+n).

    A reversed window ending at physical index 0 stops at -1, which as a
    slice end would mean "the last element"; the slice runs to None instead.
    """
    lo = r.start + i * r.step
    hi = lo + n * r.step
    return slice(lo, hi if hi >= 0 else None, r.step)


def _mac(dst: CoeffRegion, k: int, s: int, t: int,
         a: CoeffRegion, i: int, b: CoeffRegion, j: int, n: int) -> None:
    """dst[k] <- s*dst[k] + t*sum_{u<n} a[i+u]*b[j+u].

    A window of more than `_SHORT` coefficients is summed as
    `sum(map(mul, ...))` over slices of at most `_BLOCK` coefficients of
    each operand, which are its only temporaries; a shorter one by an index
    loop, which is faster there.  The sum is read before dst[k] is written,
    so dst may lie inside a or b.
    """
    if (k < 0 or i < 0 or j < 0
            or k >= dst.length or i + n > a.length or j + n > b.length):
        raise VirtualWrite("kernel access outside a region's coefficients")
    da = a.buf.data
    db = b.buf.data
    acc = 0
    if n <= _SHORT:
        sa = a.step
        ia = a.start + i * sa
        sb = b.step
        ib = b.start + j * sb
        for _ in range(n):
            acc += da[ia] * db[ib]
            ia += sa
            ib += sb
    else:
        for off in range(0, n, _BLOCK):
            c = min(_BLOCK, n - off)
            acc += sum(map(mul, da[_window(a, i + off, c)], db[_window(b, j + off, c)]))
    dd = dst.buf.data
    kk = dst.start + k * dst.step
    dd[kk] = (s * dd[kk] + t * acc) % dst.buf.field.p


def _pack(r: CoeffRegion, i: int, words: int) -> int:
    """sum_u r[i+u] * 2^(64*words*u) over the block u < min(`_BLOCK`, len r - i)."""
    v = array("Q", r.buf.data[_window(r, i, min(_BLOCK, r.length - i))])
    if words > 1:
        v, u = array("Q", bytes(8 * words * len(v))), v
        v[::words] = u
    return int.from_bytes(v, byteorder)


def _kron(dst: CoeffRegion, s: int, t: int, a: CoeffRegion, b: CoeffRegion,
          shift: int) -> None:
    """dst[k] <- s*dst[k] + t*sum_{i+j=shift+k} a[i]*b[j] for k < len(dst).

    Kronecker substitution over blocks of at most `_BLOCK` coefficients.
    Each slot of a packed block gets whole 64-bit words, enough for
    min(len a, len b)*(p-1)^2, so an exact sum never carries into the next
    slot.  The product's block starting at position k is the sum of the
    integer products A_I*B_J over block pairs with I + J = k/`_BLOCK`,
    plus the upper half of the previous block's sum; its low slots are
    unpacked once each and reduced once.  The temporaries are a few
    integers of at most 2*`_BLOCK` slots and one list of `_BLOCK` ints,
    whatever the lengths.  A block of dst is written only after all of
    its products are formed, so the triangular multiply may write its own
    operand b (dst = b, shift = len b - 1): each b[i] is last read in the
    block that writes it.  a and b must be nonempty.
    """
    la, lb, n = a.length, b.length, dst.length
    p = dst.buf.field.p
    words = -(-(min(la, lb) * (p - 1) ** 2).bit_length() // 64)
    slot = 8 * words
    reach = (lb - 1) // _BLOCK * _BLOCK     # start of b's last block
    dd = dst.buf.data
    carry = 0
    # from the lowest block whose product reaches position shift
    for k in range(max((shift + 1) // _BLOCK * _BLOCK - _BLOCK, 0), shift + n, _BLOCK):
        z = carry
        for i in range(k - reach if k > reach else 0, k + 1 if k < la else la, _BLOCK):
            z += _pack(a, i, words) * _pack(b, k - i, words)
        carry = z >> (8 * slot * _BLOCK)
        if k + _BLOCK <= shift:         # formed only for its carry
            continue
        lo, hi = shift - k if shift > k else 0, min(shift + n - k, _BLOCK)
        zb = z.to_bytes(2 * slot * _BLOCK, byteorder)
        if words == 1:
            vals = array("Q", zb[8 * lo:8 * hi])
        else:
            vals = [int.from_bytes(zb[u:u + slot], byteorder)
                    for u in range(slot * lo, slot * hi, slot)]
        sl = _window(dst, k + lo - shift, hi - lo)
        dd[sl] = [(s * x + t * v) % p for x, v in zip(dd[sl], vals)]


def _axpy(dst: CoeffRegion, i: int, s: int, src: CoeffRegion, j: int, n: int) -> None:
    """dst[i+u] += s*src[j+u] for u < n; the windows must not overlap unless equal."""
    if i < 0 or j < 0 or i + n > dst.length or j + n > src.length:
        raise VirtualWrite("kernel access outside a region's coefficients")
    dd = dst.buf.data
    ds = dst.step
    di = dst.start + i * ds
    sd = src.buf.data
    ss = src.step
    si = src.start + j * ss
    p = dst.buf.field.p
    for _ in range(n):
        dd[di] = (dd[di] + s * sd[si]) % p
        di += ds
        si += ss


def _scale(dst: CoeffRegion, s: int) -> None:
    """dst *= s, element-wise."""
    dd, ds, di = dst.buf.data, dst.step, dst.start
    p = dst.buf.field.p
    for _ in range(dst.length):
        dd[di] = dd[di] * s % p
        di += ds


# Element-wise vector kernels on equal-length regions, with exact bulk counts.

def _check_pair(dst: CoeffRegion, src: CoeffRegion) -> int:
    if len(dst) != len(src):
        raise ValueError(f"length mismatch: {len(dst)} vs {len(src)}")
    return len(dst)


def vec_iadd(dst: CoeffRegion, src: CoeffRegion, negate: bool = False) -> None:
    """dst += src (or dst -= src when negate)."""
    n = _check_pair(dst, src)
    _axpy(dst, 0, -1 if negate else 1, src, 0, n)
    scope = dst.buf.field.scope
    if scope is not None:
        scope.count(adds=n)


def vec_addmul(dst: CoeffRegion, scalar: int, src: CoeffRegion, negate: bool = False) -> None:
    """dst += scalar*src (or dst -= scalar*src when negate)."""
    n = _check_pair(dst, src)
    _axpy(dst, 0, -scalar if negate else scalar, src, 0, n)
    scope = dst.buf.field.scope
    if scope is not None:
        scope.count(adds=n, muls=n)


def vec_scale(dst: CoeffRegion, scalar: int) -> None:
    """dst *= scalar, element-wise."""
    _scale(dst, scalar)
    scope = dst.buf.field.scope
    if scope is not None:
        scope.count(muls=len(dst))


def vec_negate(dst: CoeffRegion) -> None:
    _scale(dst, -1)
    scope = dst.buf.field.scope
    if scope is not None:
        scope.count(adds=len(dst))


def vec_copy(dst: CoeffRegion, src: CoeffRegion) -> None:
    """dst <- src zero-extended to len(dst); src may not be longer.

    Data movement, not a field operation, so nothing is counted.
    """
    n = src.length
    if n > dst.length:
        raise ValueError(f"source of {n} does not fit a destination of {dst.length}")
    dd, ds, di = dst.buf.data, dst.step, dst.start
    sd, ss, si = src.buf.data, src.step, src.start
    for _ in range(n):
        dd[di] = sd[si]
        di += ds
        si += ss
    for _ in range(dst.length - n):
        dd[di] = 0
        di += ds


def vec_rotate(dst: CoeffRegion, k: int) -> None:
    """dst <- dst[k:] + dst[:k] for 0 <= k <= len(dst), by three reversals.

    A rotation by exactly half swaps the two halves instead: n/2 swaps,
    not n.  Data movement, not a field operation, so nothing is counted;
    swaps in place, so nothing is allocated.
    """
    n = dst.length
    if not 0 <= k <= n:
        raise ValueError(f"rotation by {k} outside a region of {n}")
    dd, ds, d0 = dst.buf.data, dst.step, dst.start
    if 2 * k == n:
        i, j = d0, d0 + k * ds
        for _ in range(k):
            dd[i], dd[j] = dd[j], dd[i]
            i += ds
            j += ds
        return
    for lo, hi in ((0, k), (k, n), (0, n)):
        i = d0 + lo * ds
        j = d0 + (hi - 1) * ds
        for _ in range((hi - lo) // 2):
            dd[i], dd[j] = dd[j], dd[i]
            i += ds
            j -= ds
