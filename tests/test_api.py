import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ffpoly


def test_all_is_an_explicit_list_of_resolvable_names():
    names = ffpoly.__all__
    assert len(set(names)) == len(names)
    for name in names:
        obj = getattr(ffpoly, name)
        assert not isinstance(obj, types.ModuleType), name
    # used by the wall-clock benchmark
    assert {"default_strategy", "quad_rem"} <= set(names)
    namespace = {}
    exec("from ffpoly import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


def test_import_does_not_load_the_cli():
    # the CLI is the longest module, and `import ffpoly` should not pay for
    # compiling it; a fresh interpreter sees what the import really loads
    src = str(Path(ffpoly.__file__).resolve().parent.parent)
    code = "import sys, ffpoly; print(sorted(m for m in sys.modules if m.startswith('ffpoly.')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    loaded = ast.literal_eval(out.stdout.strip())
    assert "ffpoly.region" in loaded and "ffpoly.cli" not in loaded, loaded


def test_library_modules_import_only_what_they_use():
    # a name imported into a module and never read there is a leftover of
    # deleted code
    src = Path(ffpoly.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported.add((alias.asname or alias.name).split(".")[0])
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


# One aliased call per public entry point that writes a region.  Each call
# is valid but for the shared storage: lengths fit and every leading or
# diagonal coefficient it needs is nonzero, so the only possible error is
# `AliasedOperands`.  r is one buffer of nonzero residues mod 7; the other
# operands are separate regions.
_ALIASED_CALLS = {
    "acc_mul_full": lambda r, x: ffpoly.acc_mul_full(r.sub(2, 6), r.sub(0, 3), x(2)),
    "acc_mul_short": lambda r, x: ffpoly.acc_mul_short(r.sub(2, 6), r.sub(0, 3), x(2), 4),
    "short_acc": lambda r, x: ffpoly.short_acc(r.sub(2, 6), r.sub(0, 3), x(2)),
    "conv_acc": lambda r, x: ffpoly.conv_acc(r.sub(2, 6), r.sub(0, 4), x(4), 3),
    "quad_rem": lambda r, x: ffpoly.quad_rem(r.sub(0, 2), r.sub(0, 9), x(3)),
    "quad_rem_overplace": lambda r, x: ffpoly.quad_rem_overplace(r.sub(0, 9), r.sub(6, 9)),
    "circulant_acc": lambda r, x: ffpoly.circulant_acc(
        r.sub(2, 6), ffpoly.CirculantView(r.sub(0, 4), 2), x(4)),
    "square_toeplitz_acc": lambda r, x: ffpoly.square_toeplitz_acc(
        r.sub(0, 4), r.sub(1, 4), r.sub(4, 8), x(4)),
    "rect_toeplitz_acc": lambda r, x: ffpoly.rect_toeplitz_acc(
        r.sub(0, 3), ffpoly.ToeplitzView(r.sub(4, 7), 3, 1), r.sub(2, 3)),
    "tri_toeplitz_mul_overplace": lambda r, x: ffpoly.tri_toeplitz_mul_overplace(
        r.sub(0, 4), r.sub(2, 6), "upper"),
    "tri_toeplitz_solve_overplace": lambda r, x: ffpoly.tri_toeplitz_solve_overplace(
        r.sub(0, 4), r.sub(2, 6), "lower"),
    "banded_upper_mul_overplace": lambda r, x: ffpoly.banded_upper_mul_overplace(
        r.sub(0, 3), r.sub(2, 10)),
    "banded_upper_solve_overplace": lambda r, x: ffpoly.banded_upper_solve_overplace(
        r.sub(0, 3), r.sub(2, 10)),
    "divmod_over_place": lambda r, x: ffpoly.divmod_over_place(r.sub(0, 9), r.sub(6, 9)),
    "divmod_over_place_inv": lambda r, x: ffpoly.divmod_over_place_inv(
        r.sub(0, 9), r.sub(6, 9)),
    "remainder_acc": lambda r, x: ffpoly.remainder_acc(r.sub(0, 2), r.sub(1, 10), x(3)),
    "remainder_blockwise": lambda r, x: ffpoly.remainder_blockwise(
        x(2), r.sub(0, 9), x(3), r.sub(8, 10)),
    "remainder_in_place": lambda r, x: ffpoly.remainder_in_place(
        r.sub(0, 2), r.sub(1, 10), x(3)),
    "mulmod_acc": lambda r, x: ffpoly.mulmod_acc(r.sub(5, 7), r.sub(1, 3), r.sub(3, 6), x(3)),
    "mulmod_acc_full": lambda r, x: ffpoly.mulmod_acc_full(
        r.sub(5, 7), r.sub(1, 3), r.sub(3, 6), x(3)),
}
# public functions that take no two regions to alias: the dense triangular
# kernels take a matrix as a list of rows; the rest build or read regions
_NO_REGION_PAIR = {
    "is_prime", "measure", "measure_call", "poly_region", "snapshot", "split_blocks",
    "default_strategy", "quad_tri_mul_overplace", "quad_tri_solve_overplace",
}


def test_aliasing_table_covers_every_public_function():
    public = {name for name in ffpoly.__all__
              if isinstance(getattr(ffpoly, name), types.FunctionType)}
    assert set(_ALIASED_CALLS) | _NO_REGION_PAIR == public
    assert not set(_ALIASED_CALLS) & _NO_REGION_PAIR


@pytest.mark.parametrize("name", sorted(_ALIASED_CALLS))
def test_every_writing_entry_point_rejects_aliased_operands_before_any_write(name):
    f7 = ffpoly.Field(7)
    r = ffpoly.poly_region(f7, [1 + k % 6 for k in range(12)])
    others = []

    def x(n):
        others.append(ffpoly.poly_region(f7, [1 + k % 6 for k in range(n)]))
        return others[-1]

    before = r.to_list()
    with pytest.raises(ffpoly.AliasedOperands):
        _ALIASED_CALLS[name](r, x)
    assert r.to_list() == before
    for o in others:
        assert o.to_list() == [1 + k % 6 for k in range(len(o))]
