"""The export lists: each module's ``__all__`` is real and re-exported,
the package exports nothing else, and each exported name earns its place."""

import ast
import importlib
import pathlib
import pkgutil
import re
import types

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


def test_package_exports_exactly_the_declared_names():
    # one declaration per name: a module's __all__, or an exception class
    # of graphphase.errors, which has no __all__
    declared = {name for _, name in EXPORTS} | {
        name for name, value in vars(graphphase.errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    public = {
        name for name, value in vars(graphphase).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == declared


def test_every_exported_name_is_read_by_the_package_or_named_in_readme():
    # a public name that only tests call belongs in tests/references.py
    read = set()
    for path in pathlib.Path(graphphase.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    named = set(re.findall(r"`(\w+)`", readme.read_text()))
    idle = sorted(f"{module.__name__}.{name}" for module, name in EXPORTS
                  if name not in read | named)
    assert idle == []
