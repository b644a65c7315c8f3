"""The package's public names resolve."""

import ast
import importlib
import pkgutil
from pathlib import Path

import delaymargin
import delaymargin.sdp


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


def test_sdp_imports_nothing_from_lmi():
    # lmi builds the solver's ConeProgram, so the dependency runs lmi -> sdp
    tree = ast.parse(Path(delaymargin.sdp.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported
    assert not [name for name in imported if "lmi" in name.split(".")]
