"""The package's export list matches what `putpricer/__init__.py` imports."""

import inspect

import putpricer


def test_every_exported_name_resolves():
    assert len(set(putpricer.__all__)) == len(putpricer.__all__)
    for name in putpricer.__all__:
        assert getattr(putpricer, name) is not None


def test_all_lists_exactly_the_public_imports():
    # submodules are attributes of the package but not part of its API
    public = {name for name, obj in vars(putpricer).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert set(putpricer.__all__) == public
