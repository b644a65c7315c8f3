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


def test_benchmark_wrap_points_resolve():
    # the span tracer wraps each (module, name) of WRAP_POINTS by name; read
    # the list without importing the benchmark, so a rename fails here
    tree = ast.parse((Path(__file__).parents[1] / "benchmarks" / "spans.py").read_text())
    modules = {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "delaymargin"
        for alias in node.names
    }
    points = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAP_POINTS"]
    )
    assert points.elts
    for point in points.elts:
        module, name, _ = point.elts
        target = importlib.import_module(modules[module.id])
        assert hasattr(target, name.value), f"{modules[module.id]}.{name.value}"
