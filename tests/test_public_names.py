"""The public names of every hfhr module resolve: a name left in an
``__all__`` or in the package's imports after its definition is deleted
fails here, even when no other test imports it."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import hfhr

MODULES = sorted(info.name for info in pkgutil.iter_modules(hfhr.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"hfhr.{name}")
    public = getattr(module, "__all__", [])
    assert [item for item in public if not hasattr(module, item)] == []
    namespace = {}
    exec(f"from hfhr.{name} import *", namespace)
    assert set(public) <= namespace.keys()


def test_every_name_the_package_imports_exists():
    imports = [node for node in ast.walk(ast.parse(inspect.getsource(hfhr))) if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module in MODULES, node.module
        module = importlib.import_module(f"hfhr.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"hfhr.{node.module}.{alias.name}"
            assert hasattr(hfhr, alias.asname or alias.name), alias.name
