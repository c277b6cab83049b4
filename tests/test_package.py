"""The package's public names."""

import gridshift


def test_star_import_names_resolve_once():
    names = gridshift.__all__
    assert sorted(set(names)) == sorted(names), "a name is listed twice"
    namespace = {}
    exec("from gridshift import *", namespace)  # a listed name that is missing raises
    assert set(names) <= namespace.keys()
