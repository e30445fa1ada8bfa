"""Package surface: every name a module exports exists."""

import importlib
import pkgutil

import pytest

import relgat

MODULES = sorted(info.name for info in pkgutil.iter_modules(relgat.__path__))


def test_every_module_is_listed():
    assert {"checkpoint", "cli", "corpus", "features", "graph", "model", "numerics",
            "train_eval"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"relgat.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
