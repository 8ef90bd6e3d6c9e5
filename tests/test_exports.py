"""The public names: every module's ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import pderom

MODULES = ["pderom"] + sorted(
    info.name for info in pkgutil.walk_packages(pderom.__path__, "pderom.")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
