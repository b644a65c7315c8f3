"""Delay-system description files (JSON) and the bundled benchmark systems."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np

from .lmi import DelaySystem

__all__ = [
    "SystemFileError",
    "load_system",
    "bundled_system_path",
    "bundled_system",
    "BUNDLED_SYSTEMS",
]

BUNDLED_SYSTEMS = ("example1", "example2", "example3")


class SystemFileError(ValueError):
    """Malformed system description file."""


def _as_square_matrix(obj, n_x: int, key: str) -> np.ndarray:
    try:
        mat = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SystemFileError(f"field {key!r} is not a numeric matrix: {exc}") from exc
    if mat.shape != (n_x, n_x):
        raise SystemFileError(
            f"field {key!r} must be a {n_x}x{n_x} matrix, got shape {mat.shape}"
        )
    if not np.all(np.isfinite(mat)):
        raise SystemFileError(f"field {key!r} contains non-finite entries")
    return mat


def load_system(path: str | Path) -> tuple[DelaySystem, dict]:
    """Parse a system file; returns the system plus its raw metadata.

    The JSON document must carry "n_x", "A" and "A_d1"; "A_d2" defaults to
    the zero matrix.  Optional keys: "name", "analytical_bounds" (recorded as
    metadata, never used in computation).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SystemFileError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise SystemFileError(f"{path}: top-level JSON value must be an object")
    n_x = doc.get("n_x")
    if not isinstance(n_x, int) or isinstance(n_x, bool):
        raise SystemFileError(f"{path}: missing or invalid 'n_x' (a JSON integer)")
    if n_x < 1:
        raise SystemFileError(f"{path}: n_x must be >= 1")
    if "A" not in doc or "A_d1" not in doc:
        raise SystemFileError(f"{path}: fields 'A' and 'A_d1' are required")
    a = _as_square_matrix(doc["A"], n_x, "A")
    a_d1 = _as_square_matrix(doc["A_d1"], n_x, "A_d1")
    a_d2 = None  # DelaySystem reads None as the zero matrix
    if doc.get("A_d2") is not None:
        a_d2 = _as_square_matrix(doc["A_d2"], n_x, "A_d2")
    name = str(doc.get("name", path.stem))
    meta = {
        key: doc[key]
        for key in ("name", "analytical_bounds", "comment")
        if key in doc
    }
    return DelaySystem(a, a_d1, a_d2, name=name), meta


def bundled_system_path(name: str) -> Path:
    """Filesystem path of a bundled benchmark system description."""
    if name not in BUNDLED_SYSTEMS:
        raise KeyError(f"unknown bundled system {name!r}; have {BUNDLED_SYSTEMS}")
    with resources.as_file(
        resources.files("delaymargin").joinpath(f"data/{name}.json")
    ) as p:
        return Path(p)


def bundled_system(name: str) -> tuple[DelaySystem, dict]:
    return load_system(bundled_system_path(name))
