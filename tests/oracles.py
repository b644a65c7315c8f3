"""Test-only oracles, evaluated independently of the code paths in
``delaymargin`` they are checked against: literal repeated-integral forms
of the weighted functionals, and the stability LMI blocks stated directly
at one delay in terms of the decision matrices."""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from delaymargin.inequalities import FunctionalSpec
from delaymargin.lmi import DelaySystem, HierarchyParams, VariableLayout
from delaymargin.projection import (
    derivative_moment_map,
    legendre_derivative_map,
    rodrigues_weight_block,
    weighted_moment_map,
)

_SQRT2 = math.sqrt(2.0)


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


# ---------------------------------------------------------------------------
# Per-delay reference blocks of the stability LMIs.
# ---------------------------------------------------------------------------


@dataclass
class DecisionVariables:
    """Symmetric decision matrices: augmented P, history Qs, derivative Rs.

    ``qs[j]`` is Q_j for j = 0..m1; ``rs[j-1]`` is R_j for j = 1..m2.
    """

    p: np.ndarray
    qs: list[np.ndarray]
    rs: list[np.ndarray]


def zero_vars(layout: VariableLayout) -> DecisionVariables:
    n = layout.n_x
    return DecisionVariables(
        np.zeros((layout.p_size, layout.p_size)),
        [np.zeros((n, n)) for _ in range(layout.params.m1 + 1)],
        [np.zeros((n, n)) for _ in range(layout.params.m2)],
    )


def pack(layout: VariableLayout, dv: DecisionVariables) -> np.ndarray:
    """Flat svec vector of (P, Q_0..Q_m1, R_1..R_m2): each upper triangle
    row by row, off-diagonal entries scaled by sqrt(2)."""
    y = np.empty(layout.dim)
    pos = 0
    for mat, size in zip([dv.p] + dv.qs + dv.rs, layout.sizes):
        for i in range(size):
            y[pos] = mat[i, i]
            pos += 1
            for j in range(i + 1, size):
                y[pos] = mat[i, j] * _SQRT2
                pos += 1
    return y


def unpack(layout: VariableLayout, y: np.ndarray) -> DecisionVariables:
    dv = zero_vars(layout)
    pos = 0
    for mat, size in zip([dv.p] + dv.qs + dv.rs, layout.sizes):
        for i in range(size):
            mat[i, i] = y[pos]
            pos += 1
            for j in range(i + 1, size):
                mat[i, j] = mat[j, i] = y[pos] / _SQRT2
                pos += 1
    return dv


def _weighted_congruence(proj: np.ndarray, start: int, mat: np.ndarray) -> np.ndarray:
    """(proj x I)^T  diag{(start+1)M, (start+3)M, ...}  (proj x I)."""
    u = np.kron(proj, np.eye(mat.shape[0]))
    return u.T @ rodrigues_weight_block(start, proj.shape[0] - 1, mat) @ u


def _state_row(sys: DelaySystem, tau: float, big_m: int) -> np.ndarray:
    """Row mapping the stacked probe vector to x'(t)."""
    n = sys.n_x
    out = np.zeros((n, n * (big_m + 2)))
    out[:, :n] = sys.a
    out[:, n : 2 * n] = sys.a_d1
    out[:, 2 * n : 3 * n] = tau * sys.a_d2
    return out


def positivity_block(
    sys: DelaySystem,
    params: HierarchyParams,
    tau: float,
    p: np.ndarray,
    qs: Sequence[np.ndarray],
) -> np.ndarray:
    """tau P plus the history projection terms; must be positive definite."""
    n = sys.n_x
    big_m = params.big_m
    out = tau * np.asarray(p, dtype=float).copy()
    for j in range(params.m1 + 1):
        nu = params.nu1(j)
        if nu < 0:
            continue  # no valid projection order; trivial bound suffices
        xi = weighted_moment_map(j, nu, big_m).as_array()
        out[n:, n:] += _weighted_congruence(xi, j, np.asarray(qs[j], dtype=float))
    return out


def _energy_rate(
    sys: DelaySystem, params: HierarchyParams, tau: float, p: np.ndarray
) -> np.ndarray:
    """Derivative of the augmented quadratic form on the probe space."""
    n = sys.n_x
    big_m = params.big_m
    lam = np.vstack(
        [
            _state_row(sys, tau, big_m),
            np.kron(legendre_derivative_map(big_m).as_array(), np.eye(n)),
        ]
    )
    pattern = np.zeros((big_m + 1, big_m + 2))
    pattern[0, 0] = 1.0
    for i in range(big_m):
        pattern[1 + i, 2 + i] = tau
    gam = np.kron(pattern, np.eye(n))
    pl = gam.T @ p @ lam
    return pl + pl.T


def _history_rate(
    n: int, params: HierarchyParams, qs: Sequence[np.ndarray]
) -> np.ndarray:
    """Derivative contribution of the weighted history terms."""
    big_m = params.big_m
    size = n * (big_m + 2)
    out = np.zeros((size, size))
    out[:n, :n] = sum(np.asarray(q, dtype=float) for q in qs)
    out[n : 2 * n, n : 2 * n] = -np.asarray(qs[0], dtype=float)
    for j in range(1, params.m1 + 1):
        nu = params.nu1(j - 1)
        if nu < 0:
            continue
        xi = weighted_moment_map(j - 1, nu, big_m).as_array()
        out[2 * n :, 2 * n :] -= j * _weighted_congruence(
            xi, j - 1, np.asarray(qs[j], dtype=float)
        )
    return out


def _dissipation_energy(
    sys: DelaySystem,
    params: HierarchyParams,
    tau: float,
    rs: Sequence[np.ndarray],
) -> np.ndarray:
    row = _state_row(sys, tau, params.big_m)
    rsum = sum(np.asarray(r, dtype=float) for r in rs)
    return tau * row.T @ rsum @ row


def _derivative_projection(
    n: int, params: HierarchyParams, rs: Sequence[np.ndarray]
) -> np.ndarray:
    """Projection lower bound of the derivative terms (subtracted; the
    single-delay block divides it by tau)."""
    big_m = params.big_m
    size = n * (big_m + 2)
    out = np.zeros((size, size))
    for j in range(1, params.m2 + 1):
        nu = params.nu2(j - 1)
        if nu < 0:
            continue
        z = derivative_moment_map(j - 1, nu, big_m).as_array()
        out += j * _weighted_congruence(z, j - 1, np.asarray(rs[j - 1], dtype=float))
    return out


def derivative_block(
    sys: DelaySystem,
    params: HierarchyParams,
    tau: float,
    p: np.ndarray,
    qs: Sequence[np.ndarray],
    rs: Sequence[np.ndarray],
) -> np.ndarray:
    """Full derivative condition; must be negative definite."""
    return (
        _energy_rate(sys, params, tau, p)
        + _history_rate(sys.n_x, params, qs)
        + _dissipation_energy(sys, params, tau, rs)
        - _derivative_projection(sys.n_x, params, rs) / tau
    )


def range_derivative_block(
    sys: DelaySystem,
    params: HierarchyParams,
    tau: float,
    p: np.ndarray,
    qs: Sequence[np.ndarray],
    rs: Sequence[np.ndarray],
) -> np.ndarray:
    """Schur form of the derivative condition used for delay ranges.

    Affine in tau when A_d2 = 0, so checking both interval endpoints
    certifies the whole range.  The derivative functional here carries a
    tau**2 multiplier, which removes the 1/tau from the projection term and
    produces the extra negative corner block.
    """
    n = sys.n_x
    big_m = params.big_m
    core = (
        _energy_rate(sys, params, tau, p)
        + _history_rate(n, params, qs)
        - _derivative_projection(n, params, rs)
    )
    rsum = sum(np.asarray(r, dtype=float) for r in rs)
    row = _state_row(sys, tau, big_m)
    off = tau * row.T @ rsum
    size = n * (big_m + 3)
    out = np.zeros((size, size))
    out[: n * (big_m + 2), : n * (big_m + 2)] = core
    out[: n * (big_m + 2), n * (big_m + 2) :] = off
    out[n * (big_m + 2) :, : n * (big_m + 2)] = off.T
    out[n * (big_m + 2) :, n * (big_m + 2) :] = -rsum
    return out
