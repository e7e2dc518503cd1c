"""The package's public names are its modules' `__all__`, re-exported."""

import importlib
import types
from collections import Counter

import realcomp

# The modules the package re-exports, in the order it imports them.
MODULES = [
    importlib.import_module(f"realcomp.{name}")
    for name in ("rational", "machine", "oracle", "natrel", "relation", "prob", "speclang")
]


def test_each_name_in_a_module_s_all_is_that_object_in_the_package():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(realcomp, name) is getattr(module, name), (module.__name__, name)


def test_no_name_is_declared_in_two_modules():
    # a later star import would silently shadow the earlier module's object
    declared = Counter(name for module in MODULES for name in module.__all__)
    assert [name for name, count in declared.items() if count > 1] == []


def test_the_package_exports_nothing_else():
    public = {name for name in dir(realcomp) if not name.startswith("_")
              and not isinstance(getattr(realcomp, name), types.ModuleType)}
    assert public == {name for module in MODULES for name in module.__all__}
