"""The package's public surface: ``__all__`` and the import block agree."""

import types

import bevo


def test_all_names_exactly_the_public_non_module_names():
    public = {
        name
        for name, value in vars(bevo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(bevo.__all__) == len(set(bevo.__all__))
    assert set(bevo.__all__) == public
