import types

import psolv


def test_every_export_resolves():
    for name in psolv.__all__:
        assert hasattr(psolv, name), name


def test_exports_are_the_public_names():
    # every public name the package defines is exported, once, and nothing
    # else is; submodules are reached by their own import
    public = {name for name, value in vars(psolv).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert len(set(psolv.__all__)) == len(psolv.__all__)
    assert set(psolv.__all__) == public
