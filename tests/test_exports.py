"""The package's public names: `opconv.__all__` lists every class and
function the package imports, and nothing that is gone."""

import inspect

import opconv


def test_all_resolves_and_lists_every_import():
    listed = opconv.__all__
    assert len(set(listed)) == len(listed)
    assert [name for name in listed if not hasattr(opconv, name)] == []
    imported = sorted(name for name, value in vars(opconv).items()
                      if not name.startswith("_")
                      and (inspect.isclass(value) or inspect.isfunction(value)))
    assert [name for name in imported if name not in listed] == []
