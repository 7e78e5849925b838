"""The package's public names."""

import reflectsde


def test_all_names_resolve_once_and_star_import_them():
    names = reflectsde.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(reflectsde, name), name
    namespace = {}
    exec("from reflectsde import *", namespace)
    for name in names:
        assert namespace[name] is getattr(reflectsde, name), name
