"""The package's export lists name only what its modules define."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import agelab

MODULES = sorted(info.name for info in pkgutil.iter_modules(agelab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"agelab.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_only_exported_names():
    """Every ``from .module import name`` in the package's __init__ names a
    member of that module's __all__, so nothing stale or private is re-exported."""
    tree = ast.parse(Path(agelab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module in MODULES
        exported = importlib.import_module(f"agelab.{node.module}").__all__
        stale = [alias.name for alias in node.names if alias.name not in exported]
        assert stale == [], f"agelab.{node.module}"
        for alias in node.names:
            assert hasattr(agelab, alias.asname or alias.name)
