"""Package surface: every name a module exports exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_no_module_imports_a_private_sibling_name():
    # a name one module needs from another is public: exported, not underscored
    src = Path(relgat.__file__).parent
    private = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            sibling = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "relgat"
            )
            if sibling:
                private += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []
