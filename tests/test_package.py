"""The package's export list."""

import types

import resil


def test_all_lists_every_public_name_once_and_sorted():
    for name in resil.__all__:
        assert hasattr(resil, name), name
    assert resil.__all__ == sorted(set(resil.__all__))
    public = {name for name, value in vars(resil).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(resil.__all__), sorted(public - set(resil.__all__))
