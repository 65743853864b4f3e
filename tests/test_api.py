import types

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
