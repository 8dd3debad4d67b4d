"""Export lists: every exported name resolves, and none is listed twice."""

import importlib
import pkgutil

import pytest

import hostrank

# The package and every module of it that declares an export list.
EXPORTING = [hostrank] + [
    module
    for info in pkgutil.iter_modules(hostrank.__path__)
    if hasattr(module := importlib.import_module(f"hostrank.{info.name}"), "__all__")
]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves_once(module):
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []

