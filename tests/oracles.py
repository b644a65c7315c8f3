"""Test-only oracles: literal repeated-integral forms of the weighted
functionals, evaluated independently of the single-integral code paths in
``delaymargin`` they are checked against."""

import math
from typing import Callable

import numpy as np

from delaymargin.inequalities import FunctionalSpec


def gauss_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre nodes and weights mapped to [a, b]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * nodes, half * weights


def nested_integral(
    g: Callable[[float], float],
    a: float,
    b: float,
    folds: int,
    nodes: int = 12,
) -> float:
    """Literal nested integral  int_a^b int_{v_1}^b ... int_{v_k}^b g ds dv_k...dv_1.

    ``folds`` counts the outer v-integrals (so folds + 1 integral signs in
    total).  Deliberately evaluated by recursive one-dimensional rules so it
    stays an independent oracle for the single-integral weighted form; cost
    grows as nodes**(folds+1).
    """

    def level(k: int, lo: float) -> float:
        x, w = gauss_rule(lo, b, nodes)
        if k == 0:
            return float(np.dot(w, [g(t) for t in x]))
        return float(np.dot(w, [level(k - 1, t) for t in x]))

    return level(folds, a)


def functional_value_nested(
    spec: FunctionalSpec, f: Callable[[float], np.ndarray]
) -> float:
    """J(f) via the literal repeated-integral form.

    Cost grows exponentially in m; only supported for m <= 3.
    """
    if spec.m > 3:
        raise ValueError("nested evaluation supported for m <= 3 only")
    w = spec.weight

    def g(s: float) -> float:
        v = f(s)
        return float(v @ w @ v)

    raw = nested_integral(g, spec.a, spec.b, folds=spec.m)
    return math.factorial(spec.m) / spec.width**spec.m * raw
