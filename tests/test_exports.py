"""The export lists: each module's ``__all__`` is real and re-exported."""

import importlib
import pkgutil

import graphphase

MODULES = [
    importlib.import_module(f"graphphase.{info.name}")
    for info in pkgutil.iter_modules(graphphase.__path__)
    if info.name != "__main__"  # importing it runs the command line
]
EXPORTS = [
    (module, name) for module in MODULES for name in getattr(module, "__all__", ())
]


def test_every_exported_name_exists():
    missing = [f"{module.__name__}.{name}" for module, name in EXPORTS
               if not hasattr(module, name)]
    assert missing == []


def test_every_exported_name_is_a_package_attribute():
    absent = [f"{module.__name__}.{name}" for module, name in EXPORTS
              if getattr(graphphase, name, None) is not getattr(module, name, None)]
    assert absent == []
