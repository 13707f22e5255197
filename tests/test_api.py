"""The public API: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import qionize

MODULES = ["qionize"] + [f"qionize.{info.name}" for info in pkgutil.iter_modules(qionize.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    # a deletion must take its export with it
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), name
    assert [item for item in exported if not hasattr(module, item)] == [], name
