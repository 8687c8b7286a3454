import importlib
import pkgutil

import pytest

import dynhop

MODULES = ["dynhop"] + [
    m.name for m in pkgutil.walk_packages(dynhop.__path__, prefix="dynhop.")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert sorted(set(exported)) == sorted(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which {name} does not define"


def test_package_roots_declare_their_exports():
    assert {"dynhop", "dynhop.harness"} <= {
        n for n in MODULES if hasattr(importlib.import_module(n), "__all__")
    }
