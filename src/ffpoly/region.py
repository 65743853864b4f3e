"""Coefficient buffers and the window views all operations work on.

A `Buffer` owns a flat list of canonical residues.  A `CoeffRegion` is a
unit-stride window over one buffer, forward or reversed, optionally
extended by trailing *virtual zeros*: reads past the real data return 0,
writes there are a contract violation.  A `SplitTarget` couples two
disjoint regions into one logical accumulation destination.

None of the view operations copies coefficients; the only copying
utilities are `snapshot` (test harness) and `vec_copy`.

This is the only module that knows how coefficients are stored.  Every
arithmetic loop over storage is one of three strided kernels below --
`_mac` (multiply-accumulate one output by a dot product of two windows),
`_axpy` and `_scale` -- and the quadratic kernels of the other modules are
short loops of calls to them.  None of them allocates.
"""

from __future__ import annotations

from itertools import combinations

from .ff import Field, FieldError


class RestorationViolation(AssertionError):
    """A region no longer matches its snapshot."""


class VirtualWrite(ValueError):
    """Attempted write into the virtual zero-padding of a region."""


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
        return CoeffRegion(self, start, stop - start, 1, 0)

    def __repr__(self):
        return f"Buffer(p={self.field.p}, {self.data!r})"


class CoeffRegion:
    """A window of `length` real coefficients plus `virtual` trailing zeros.

    `step` is +1 for forward views and -1 for reversed ones; `start` is the
    physical index of logical position 0.
    """

    __slots__ = ("buf", "start", "length", "step", "virtual")

    def __init__(self, buf: Buffer, start: int, length: int, step: int, virtual: int):
        self.buf = buf
        self.start = start
        self.length = length
        self.step = step
        self.virtual = virtual

    @property
    def field(self) -> Field:
        return self.buf.field

    def __len__(self):
        return self.length + self.virtual

    def __getitem__(self, k: int) -> int:
        if k < 0 or k >= self.length + self.virtual:
            raise IndexError(k)
        if k >= self.length:
            return 0
        return self.buf.data[self.start + k * self.step]

    def __setitem__(self, k: int, v: int):
        if k < 0 or k >= self.length + self.virtual:
            raise IndexError(k)
        if k >= self.length:
            raise VirtualWrite(f"write at virtual index {k} (real length {self.length})")
        self.buf.data[self.start + k * self.step] = self.buf.field.check(v)

    def sub(self, lo: int, hi: int) -> "CoeffRegion":
        """Logical sub-window [lo, hi); must lie inside the region."""
        if not 0 <= lo <= hi <= self.length + self.virtual:
            raise IndexError(f"sub-window [{lo}, {hi}) outside region of {len(self)}")
        real_lo = min(lo, self.length)
        real_hi = min(hi, self.length)
        return CoeffRegion(self.buf, self.start + real_lo * self.step,
                           real_hi - real_lo, self.step, (hi - lo) - (real_hi - real_lo))

    def sub_padded(self, lo: int, hi: int) -> "CoeffRegion":
        """Like `sub` but hi may overshoot; the excess becomes virtual zeros."""
        if not 0 <= lo <= hi:
            raise IndexError(f"bad sub-window [{lo}, {hi})")
        real_lo = min(lo, self.length)
        real_hi = min(max(hi, real_lo), self.length)
        return CoeffRegion(self.buf, self.start + real_lo * self.step,
                           real_hi - real_lo, self.step, (hi - lo) - (real_hi - real_lo))

    def reversed(self) -> "CoeffRegion":
        """O(1) reversed view; composing twice yields the original window."""
        if self.virtual:
            raise VirtualWrite("cannot reverse a virtually padded region")
        n = self.length
        return CoeffRegion(self.buf, self.start + (n - 1) * self.step if n else self.start,
                           n, -self.step, 0)

    def to_list(self) -> list[int]:
        return [self[k] for k in range(len(self))]

    def overlaps(self, other: "CoeffRegion") -> bool:
        if self.buf is not other.buf or self.length == 0 or other.length == 0:
            return False
        lo_a = self.start if self.step > 0 else self.start - self.length + 1
        lo_b = other.start if other.step > 0 else other.start - other.length + 1
        return lo_a < lo_b + other.length and lo_b < lo_a + self.length

    def __repr__(self):
        return (f"CoeffRegion(start={self.start}, len={self.length}, step={self.step}"
                + (f", virtual={self.virtual}" if self.virtual else "") + ")")


class SplitTarget:
    """Two disjoint regions acting as one logical accumulation target.

    Logical index k maps to first[k] when k < len(first) and to
    second[k - len(first)] otherwise.
    """

    __slots__ = ("first", "second")

    def __init__(self, first: CoeffRegion, second: CoeffRegion):
        if first.overlaps(second):
            raise ValueError("split target halves must be disjoint")
        self.first = first
        self.second = second

    @property
    def field(self) -> Field:
        return self.first.field

    def __len__(self):
        return len(self.first) + len(self.second)

    def __getitem__(self, k: int) -> int:
        n1 = len(self.first)
        return self.first[k] if k < n1 else self.second[k - n1]

    def __setitem__(self, k: int, v: int):
        n1 = len(self.first)
        if k < n1:
            self.first[k] = v
        else:
            self.second[k - n1] = v

    def to_list(self) -> list[int]:
        return self.first.to_list() + self.second.to_list()

    def __repr__(self):
        return f"SplitTarget({self.first!r}, {self.second!r})"


def poly_region(field: Field, coeffs) -> CoeffRegion:
    """Fresh buffer holding `coeffs`, viewed whole.  Convenience for callers."""
    return Buffer(field, coeffs).region()


def split_blocks(r: CoeffRegion, block: int, pad_virtual: bool = False) -> list[CoeffRegion]:
    """Tile a region into consecutive windows of width `block`.

    The final window is short when the region length is not a multiple of
    `block`; with `pad_virtual` it is instead reported at full width with
    read-only virtual zeros, leaving the buffer untouched.
    """
    if block < 1:
        raise ValueError("block width must be >= 1")
    n = len(r)
    out = []
    full, rem = divmod(n, block)
    for i in range(full):
        out.append(r.sub(i * block, (i + 1) * block))
    if rem:
        if pad_virtual:
            out.append(r.sub_padded(full * block, full * block + block))
        else:
            out.append(r.sub(full * block, n))
    return out


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
# works on logical windows of regions, reduces once per output coefficient,
# counts nothing and allocates nothing; the callers report their
# structural operation counts in bulk.  A window that touches virtual
# padding, or reaches past the real coefficients, raises `VirtualWrite`.

def _mac(dst: CoeffRegion, k: int, s: int, t: int,
         a: CoeffRegion, i: int, b: CoeffRegion, j: int, n: int) -> None:
    """dst[k] <- s*dst[k] + t*sum_{u<n} a[i+u]*b[j+u].

    The sum is read before dst[k] is written, so dst may lie inside a or b.
    """
    if (dst.virtual or a.virtual or b.virtual or k < 0 or i < 0 or j < 0
            or k >= dst.length or i + n > a.length or j + n > b.length):
        raise VirtualWrite("kernel access outside the real coefficients of a region")
    da = a.buf.data
    sa = a.step
    ia = a.start + i * sa
    db = b.buf.data
    sb = b.step
    ib = b.start + j * sb
    acc = 0
    for _ in range(n):
        acc += da[ia] * db[ib]
        ia += sa
        ib += sb
    dd = dst.buf.data
    kk = dst.start + k * dst.step
    dd[kk] = (s * dd[kk] + t * acc) % dst.buf.field.p


def _axpy(dst: CoeffRegion, i: int, s: int, src: CoeffRegion, j: int, n: int) -> None:
    """dst[i+u] += s*src[j+u] for u < n; the windows must not overlap unless equal."""
    if (dst.virtual or src.virtual or i < 0 or j < 0
            or i + n > dst.length or j + n > src.length):
        raise VirtualWrite("kernel access outside the real coefficients of a region")
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
    if dst.virtual:
        raise VirtualWrite("kernel access to a virtually padded region")
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
    """dst[k] = src[k]; src may carry virtual zeros.  Not a field operation."""
    _check_pair(dst, src)
    if dst.virtual:
        raise VirtualWrite("kernel access to a virtually padded region")
    dd, ds, di = dst.buf.data, dst.step, dst.start
    sd, ss, si = src.buf.data, src.step, src.start
    for _ in range(src.length):
        dd[di] = sd[si]
        di += ds
        si += ss
    for _ in range(src.virtual):
        dd[di] = 0
        di += ds
