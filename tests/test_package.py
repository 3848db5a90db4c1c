"""The names the package exports."""

import types

import arclift


def test_all_is_the_imported_api_without_modules():
    exported = arclift.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert not isinstance(getattr(arclift, name), types.ModuleType), name
    public = {
        name for name in dir(arclift)
        if not name.startswith("_") and not isinstance(getattr(arclift, name), types.ModuleType)
    }
    assert set(exported) == public
