"""The package's public names resolve."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import zipfile
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


def test_bundled_systems_load_from_a_zipped_package(tmp_path):
    # imported from a zip archive, the package has no data file on disk:
    # the bundled systems must be read from the archive itself
    archive = tmp_path / "delaymargin.zip"
    package = Path(delaymargin.__file__).parent
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(package.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(package.parent))
    script = (
        "import sys, delaymargin\n"
        "from delaymargin import cli\n"
        "from delaymargin.systems import bundled_system\n"
        f"assert delaymargin.__file__.startswith({str(archive)!r}), delaymargin.__file__\n"
        "assert bundled_system('example1')[0].name == 'example1'\n"
        "sys.exit(cli.main(['bounds', '--system', 'example1', '--tol', '1e-2']))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(archive)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("system          example1")
