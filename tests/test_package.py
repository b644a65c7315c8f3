"""The package's public names resolve."""

import ast
import importlib
import pkgutil
from pathlib import Path

import delaymargin


def test_package_exports_resolve():
    # every name in each module's __all__ exists in that module
    for info in pkgutil.iter_modules(delaymargin.__path__):
        module = importlib.import_module(f"delaymargin.{info.name}")
        for name in module.__all__:
            assert hasattr(module, name), f"{info.name}.{name}"
    # every name the package's __init__ imports is bound on the package
    tree = ast.parse(Path(delaymargin.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for name in imported:
        assert hasattr(delaymargin, name), name
