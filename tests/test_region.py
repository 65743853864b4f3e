import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import ffpoly
from ffpoly import (
    Buffer,
    Field,
    FieldError,
    RestorationViolation,
    VirtualWrite,
    measure,
    poly_region,
    snapshot,
    split_blocks,
)
from ffpoly.region import (
    _BLOCK, _axpy, _mac, _scale, vec_addmul, vec_copy, vec_iadd, vec_negate, vec_rotate,
    vec_scale)

from conftest import field


def test_region_views_share_storage():
    r = poly_region(field(7), [1, 2, 3, 4, 5])
    sub = r.sub(1, 4)
    assert sub.to_list() == [2, 3, 4]
    sub[0] = 6
    assert r.to_list() == [1, 6, 3, 4, 5]


def test_reversed_view_reads_and_writes():
    r = poly_region(field(7), [1, 2, 3])
    rev = r.reversed()
    assert rev.to_list() == [3, 2, 1]
    rev[0] = 5
    assert r.to_list() == [1, 2, 5]


@given(st.lists(st.integers(0, 6), max_size=40))
def test_reversal_involution(values):
    r = poly_region(field(7), values)
    assert r.reversed().reversed().to_list() == values


def test_split_blocks_exact_tiling():
    r = poly_region(field(5), [1, 2, 3, 4])
    blocks = split_blocks(r, 2)
    assert [b.to_list() for b in blocks] == [[1, 2], [3, 4]]


def test_split_blocks_short_tail_without_padding():
    r = poly_region(field(5), [1, 2, 3])
    blocks = split_blocks(r, 2)
    assert [b.to_list() for b in blocks] == [[1, 2], [3]]


@given(st.integers(1, 9), st.lists(st.integers(0, 4), max_size=30))
def test_split_blocks_cover_everything(block, values):
    r = poly_region(field(5), values)
    blocks = split_blocks(r, block)
    flat = [v for b in blocks for v in b.to_list()]
    assert flat == values


def test_overlaps_iff_windows_share_a_cell():
    buf = poly_region(field(7), list(range(7)))
    views = [v for lo in range(8) for hi in range(lo, 8)
             for v in (buf.sub(lo, hi), buf.sub(lo, hi).reversed())]

    def cells(v):
        return {v.start + k * v.step for k in range(v.length)}

    for u in views:
        for v in views:
            assert u.overlaps(v) == bool(cells(u) & cells(v)), (u, v)
    assert not buf.overlaps(poly_region(field(7), list(range(7))))


def test_snapshot_detects_first_difference():
    r = poly_region(field(7), [1, 2])
    snap = snapshot(r)
    snap.assert_restored()
    r[1] = 3
    with pytest.raises(RestorationViolation, match="index 1"):
        snap.assert_restored()


def test_snapshot_multiple_regions():
    a = poly_region(field(7), [1, 2])
    b = poly_region(field(7), [5])
    snap = snapshot(a, b)
    snap.assert_restored()
    b[0] = 0
    assert not snap.restored()
    b[0] = 5
    snap.assert_restored()


def test_buffer_allocation_is_recorded():
    f = field(7)
    with measure(f) as scope:
        Buffer.zeros(f, 12)
        Buffer(f, [1, 2, 3])
    assert scope.peak_aux == 15


def test_view_operations_do_not_allocate():
    f = field(7)
    r = poly_region(f, list(range(7)))
    with measure(f, max_aux=0):
        r.sub(1, 5).reversed()
        split_blocks(r, 3)
        vec_iadd(r.sub(0, 3), r.sub(3, 6))
        vec_scale(r, 2)
        vec_negate(r)


def test_vec_kernels_match_field_semantics():
    f = field(13)
    dst = poly_region(f, [1, 2, 3])
    src = poly_region(f, [5, 6, 7])
    vec_iadd(dst, src)
    assert dst.to_list() == [6, 8, 10]
    vec_iadd(dst, src, negate=True)
    assert dst.to_list() == [1, 2, 3]
    vec_addmul(dst, 2, src)
    assert dst.to_list() == [11, 1, 4]
    vec_addmul(dst, 2, src, negate=True)
    assert dst.to_list() == [1, 2, 3]
    vec_scale(dst, 5)
    assert dst.to_list() == [5, 10, 2]
    vec_negate(dst)
    assert dst.to_list() == [8, 3, 11]
    out = poly_region(f, [0, 0, 0])
    vec_copy(out, dst)
    assert out.to_list() == dst.to_list()


def test_vec_copy_zero_extends_a_shorter_source():
    f = field(13)
    src = poly_region(f, [4, 5])
    dst = poly_region(f, [9, 9, 9, 9])
    with measure(f) as scope:
        vec_copy(dst, src)
        vec_copy(dst.reversed().sub(0, 3), src.sub(0, 0))
    assert dst.to_list() == [4, 0, 0, 0]
    assert scope.counter.total == 0
    assert src.to_list() == [4, 5]


def test_vec_copy_rejects_a_longer_source():
    f = field(13)
    dst = poly_region(f, [9, 9])
    with pytest.raises(ValueError):
        vec_copy(dst, poly_region(f, [1, 2, 3]))
    assert dst.to_list() == [9, 9]


def test_vec_copy_onto_itself_is_a_copy():
    f = field(13)
    r = poly_region(f, [4, 5, 6])
    vec_copy(r, r)
    assert r.to_list() == [4, 5, 6]
    rev = r.reversed()
    vec_copy(rev, rev)
    assert r.to_list() == [4, 5, 6]


@given(st.integers(0, 40), st.integers(0, 5), st.integers(0, 5), st.booleans())
# rotations by exactly n/2 swap the halves: forward and reversed views,
# including a reversed window that ends at physical index 0
@example(32, 0, 0, True)
@example(32, 3, 2, True)
@example(32, 0, 4, False)
@example(2, 0, 0, True)
def test_vec_rotate_turns_a_window_round_in_place(n, before, after, rev):
    f = field(65521)
    cells = list(range(1, before + n + after + 1))
    whole = poly_region(f, cells)
    r = whole.sub(before, before + n)
    if rev:
        r = r.reversed()
    for k in range(n + 1):
        old = r.to_list()
        with measure(f, max_aux=0) as scope:
            vec_rotate(r, k)
            assert r.to_list() == old[k:] + old[:k]
            vec_rotate(r, n - k)
        assert scope.counter.total == 0
        assert whole.to_list() == cells
    if n % 2 == 0:
        old = r.to_list()
        vec_rotate(r, n // 2)
        assert r.to_list() == old[n // 2:] + old[:n // 2]
        assert whole.to_list()[:before] == cells[:before]
        assert whole.to_list()[before + n:] == cells[before + n:]
        vec_rotate(r, n // 2)
        assert whole.to_list() == cells
    with pytest.raises(ValueError):
        vec_rotate(r, n + 1)
    assert whole.to_list() == cells


def test_out_of_range_indexing():
    r = poly_region(field(7), [1, 2])
    with pytest.raises(IndexError):
        r[2]
    with pytest.raises(IndexError):
        r[-1]
    with pytest.raises(IndexError):
        r.sub(1, 3)


def test_setitem_rejects_what_buffer_rejects():
    f = field(65521)
    r = poly_region(f, [1, 2])
    for bad in (10**6, 65521, -1, 1.0, "3", None):
        with pytest.raises(FieldError):
            Buffer(f, [bad])
        with pytest.raises(FieldError):
            r[0] = bad
    assert r.to_list() == [1, 2]
    r.reversed()[0] = 65520
    assert r.to_list() == [1, 65520]


@pytest.mark.parametrize("p", [2, 65521, (1 << 61) - 1])
def test_strided_kernels_match_list_formulas(p):
    # Forward, reversed and offset windows of one shared buffer; `model`
    # mirrors the buffer and `at` maps a window index to a model index.
    rng = random.Random(p)
    values = [rng.randrange(p) for _ in range(40)]
    buf = Buffer(Field(p), values)
    model = list(values)
    whole = (buf.region(), lambda k: k)
    offset = (buf.region(5, 30), lambda k: 5 + k)
    rev = (buf.region(3, 37).reversed(), lambda k: 36 - k)
    rev_offset = (buf.region().reversed().sub(10, 35), lambda k: 29 - k)
    windows = (whole, offset, rev, rev_offset)

    def check():
        assert buf.region().to_list() == model

    for _ in range(300):
        (dst, at_d), (a, at_a), (b, at_b) = (rng.choice(windows) for _ in range(3))
        s, t = rng.randrange(p), rng.randrange(p)
        n = rng.randrange(min(len(a), len(b)) + 1)
        i, j = rng.randrange(len(a) - n + 1), rng.randrange(len(b) - n + 1)
        k = rng.randrange(len(dst))
        dot = sum(model[at_a(i + u)] * model[at_b(j + u)] for u in range(n))
        model[at_d(k)] = (s * model[at_d(k)] + t * dot) % p
        _mac(dst, k, s, t, a, i, b, j, n)
        check()

    # over-place: b[k] <- s*b[k] + t * a[0:] . b[k+1:], ascending k, ending at n = 0
    (b, at_b), (a, at_a) = rev, whole
    for k in range(len(b)):
        n = len(b) - 1 - k
        dot = sum(model[at_a(u)] * model[at_b(k + 1 + u)] for u in range(n))
        model[at_b(k)] = (2 * model[at_b(k)] - dot) % p
        _mac(b, k, 2, -1, a, 0, b, k + 1, n)
        check()

    # axpy between disjoint windows, one forward and one reversed
    (dst, at_d), (src, at_s) = (buf.region(0, 20), lambda k: k), \
        (buf.region(20, 40).reversed(), lambda k: 39 - k)
    for _ in range(100):
        n = rng.randrange(8)
        i, j = rng.randrange(21 - n), rng.randrange(21 - n)
        s = rng.randrange(p)
        for u in range(n):
            model[at_d(i + u)] = (model[at_d(i + u)] + s * model[at_s(j + u)]) % p
        _axpy(dst, i, s, src, j, n)
        check()

    dst, at_d = rev_offset
    _scale(dst, p - 1)
    for k in range(len(dst)):
        model[at_d(k)] = model[at_d(k)] * (p - 1) % p
    check()


@pytest.mark.parametrize("p", [2, 65521, (1 << 61) - 1])
def test_mac_matches_the_model_across_chunk_boundaries(p):
    # Window lengths on both sides of the short-loop cutoff and of one and
    # two slice chunks; reversed windows whose last coefficient is physical
    # index 0; dst inside the window of a or of b, read before it is written.
    rng = random.Random(p + 1)
    size = 320
    values = [rng.randrange(p) for _ in range(size)]
    buf = Buffer(Field(p), values)
    model = list(values)
    windows = (
        (buf.region(), lambda k: k),
        (buf.region(7, size), lambda k: 7 + k),
        (buf.region().reversed(), lambda k: size - 1 - k),
        (buf.region(0, 310).reversed(), lambda k: 309 - k),
        (buf.region(5, 315).reversed(), lambda k: 314 - k),
    )
    calls = 0
    for n in (0, 1, 16, 17, 63, 64, 65, 127, 128, 129, 257, 300):
        for (a, at_a), (b, at_b) in ((x, y) for x in windows for y in windows):
            for i, j in ((len(a) - n, len(b) - n), (0, rng.randrange(len(b) - n + 1)),
                         (rng.randrange(len(a) - n + 1), 0)):
                mode = calls % 3
                calls += 1
                if mode == 0 and n:
                    dst, at_d, k = a, at_a, i + rng.randrange(n)
                elif mode == 1 and n:
                    dst, at_d, k = b, at_b, j + rng.randrange(n)
                else:
                    dst, at_d = rng.choice(windows)
                    k = rng.randrange(len(dst))
                s, t = rng.randrange(p), rng.randrange(p)
                dot = sum(model[at_a(i + u)] * model[at_b(j + u)] for u in range(n))
                model[at_d(k)] = (s * model[at_d(k)] + t * dot) % p
                _mac(dst, k, s, t, a, i, b, j, n)
                assert buf.region().to_list() == model, (n, i, j, mode)


def test_mac_temporaries_do_not_grow_with_the_window():
    # One call's traced peak is its two chunk slices whatever the window
    # length; a single slice of each operand at n = 32768 would be ~0.5 MB.
    f = Field(65521)
    rng = random.Random(11)
    n_max = 32768
    buf = Buffer(f, [rng.randrange(256, 65521) for _ in range(2 * n_max + 1)])
    dst = buf.region(0, 1)
    a, b = buf.region(1, n_max + 1), buf.region(n_max + 1, 2 * n_max + 1).reversed()
    peaks = []
    for n in (4 * _BLOCK, n_max):
        _mac(dst, 0, 1, 1, a, 0, b, 0, n)
        tracemalloc.start()
        try:
            _mac(dst, 0, 1, 1, a, 0, b, 0, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[0] - peaks[1]) <= 512, peaks


def test_strided_kernels_stay_on_real_coefficients():
    f = field(7)
    r = poly_region(f, [1, 2, 3, 4])
    with pytest.raises(VirtualWrite):
        _mac(r, 4, 1, 1, r, 0, r, 0, 1)
    with pytest.raises(VirtualWrite):
        _mac(r, 0, 1, 1, r.sub(0, 2), 1, r, 0, 2)
    with pytest.raises(VirtualWrite):
        _mac(r, 0, 1, 1, r, -1, r, 0, 1)
    with pytest.raises(VirtualWrite):
        _axpy(r.sub(0, 2), 1, 1, r, 0, 2)
    with pytest.raises(VirtualWrite):
        _axpy(r, 0, 1, r.sub(0, 2), 1, 2)
    assert r.to_list() == [1, 2, 3, 4]


def test_only_region_touches_coefficient_storage():
    for path in Path(ffpoly.__file__).parent.glob("*.py"):
        if path.name != "region.py":
            text = path.read_text()
            assert ".raw(" not in text and ".buf.data" not in text, path.name
