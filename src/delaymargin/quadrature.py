"""Adaptive composite Gauss-Legendre quadrature for smooth integrands."""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["adaptive_quadrature", "QuadratureConvergenceError", "gauss_rule"]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)


class QuadratureConvergenceError(RuntimeError):
    """Adaptive refinement exceeded the depth limit (pathological integrand)."""


def gauss_rule(a: float, b: float, n: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    if n == 16:
        nodes, weights = _NODES, _WEIGHTS
    else:
        nodes, weights = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * nodes, half * weights


def _panel(f: Callable[[float], np.ndarray | float], a: float, b: float):
    x, w = gauss_rule(a, b)
    vals = [np.asarray(f(t), dtype=float) for t in x]
    return sum(wi * v for wi, v in zip(w, vals))


def adaptive_quadrature(
    f: Callable[[float], np.ndarray | float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 30,
) -> np.ndarray | float:
    """Integrate f over [a, b] with interval halving on a 16-node rule.

    The error estimate on a panel is the difference between the one-panel
    value and the sum of its two halves; a panel is accepted when that
    difference is below tol (absolute plus relative to the running scale).
    Scalar or vector integrands are both supported.
    """
    if not b > a:
        raise ValueError("adaptive_quadrature requires b > a")
    scale = max(1.0, float(np.max(np.abs(_panel(f, a, b)))))

    def recurse(lo: float, hi: float, whole, depth: int):
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        err = np.max(np.abs(whole - (left + right)))
        if err <= tol * scale:
            return left + right
        if depth >= max_depth:
            raise QuadratureConvergenceError(
                f"no convergence on [{lo}, {hi}] after depth {depth} (err={err:.3e})"
            )
        return recurse(lo, mid, left, depth + 1) + recurse(mid, hi, right, depth + 1)

    return recurse(a, b, _panel(f, a, b), 0)

