import ast
import types
from pathlib import Path

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
