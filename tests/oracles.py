"""Test-only oracles, evaluated independently of the code paths in
``delaymargin`` they are checked against: float point evaluation of the
exact polynomials, the exact polynomial kernels stated coefficient by
coefficient in `Fraction` arithmetic, literal repeated-integral forms of
the weighted functionals, the projection form through `np.kron`, the
stability LMI blocks stated directly at one delay in terms of the
decision matrices, and a frequency sweep of the characteristic
determinant."""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from delaymargin.inequalities import FunctionalSpec, PolynomialVectorFunction
from delaymargin.lmi import DelaySystem, HierarchyParams, VariableLayout
from delaymargin.polynomials import RationalPolynomial, rodrigues_poly
from delaymargin.projection import (
    derivative_moment_map,
    legendre_derivative_map,
    max_derivative_order,
    max_weighted_order,
    weighted_moment_map,
)

_SQRT2 = math.sqrt(2.0)


def eval_float(p: RationalPolynomial, x: float) -> float:
    """p(x) by Horner's rule in float arithmetic."""
    out = 0.0
    for c in reversed(p.coeffs):
        out = out * x + float(c)
    return out


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


def functional_value_nested(spec: FunctionalSpec, f: PolynomialVectorFunction) -> float:
    """J(f) via the literal repeated-integral form, with f evaluated
    pointwise in float arithmetic.

    Cost grows exponentially in m; only supported for m <= 3.
    """
    if spec.m > 3:
        raise ValueError("nested evaluation supported for m <= 3 only")
    w = spec.weight

    def g(s: float) -> float:
        v = np.array([eval_float(c, s) for c in f.components])
        return float(v @ w @ v)

    raw = nested_integral(g, spec.a, spec.b, folds=spec.m)
    return math.factorial(spec.m) / spec.width**spec.m * raw


# ---------------------------------------------------------------------------
# Exact kernels, one Fraction operation at a time.
# ---------------------------------------------------------------------------


def poly_mul(p: RationalPolynomial, q: RationalPolynomial) -> RationalPolynomial:
    """p q by coefficient convolution."""
    if not p.coeffs or not q.coeffs:
        return RationalPolynomial.zero()
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return RationalPolynomial.from_coeffs(out)


def poly_add(p: RationalPolynomial, q: RationalPolynomial, sign: int = 1) -> RationalPolynomial:
    """p + sign * q coefficient by coefficient."""
    n = max(len(p.coeffs), len(q.coeffs))
    return RationalPolynomial.from_coeffs(p.coeff(k) + sign * q.coeff(k) for k in range(n))


def poly_scale(p: RationalPolynomial, c: Fraction) -> RationalPolynomial:
    return RationalPolynomial.from_coeffs(a * c for a in p.coeffs)


def poly_derivative(p: RationalPolynomial) -> RationalPolynomial:
    return RationalPolynomial.from_coeffs(k * c for k, c in enumerate(p.coeffs) if k)


def poly_eval(p: RationalPolynomial, x: Fraction) -> Fraction:
    """p(x) by Horner's rule in Fraction arithmetic."""
    out = Fraction(0)
    for c in reversed(p.coeffs):
        out = out * x + c
    return out


def poly_integral(p: RationalPolynomial) -> Fraction:
    """int_0^1 p = sum c_k / (k + 1)."""
    return sum((c / (k + 1) for k, c in enumerate(p.coeffs)), Fraction(0))


def poly_compose_affine(p: RationalPolynomial, alpha: Fraction, beta: Fraction) -> RationalPolynomial:
    """p(alpha + beta x) by Horner's rule through the product."""
    arg = RationalPolynomial.from_coeffs((alpha, beta))
    out = RationalPolynomial.zero()
    for c in reversed(p.coeffs):
        out = poly_mul(out, arg) + RationalPolynomial.from_coeffs((c,))
    return out


def poly_inner_product(m: int, p: RationalPolynomial, q: RationalPolynomial) -> Fraction:
    """int_0^1 x**m p q as the product's integral."""
    return poly_integral(poly_mul(p, q).shift_exponents(m))


def _unit_components(f: PolynomialVectorFunction) -> list[RationalPolynomial]:
    return [poly_compose_affine(c, f.a, f.b - f.a) for c in f.components]


def moments_naive(f: PolynomialVectorFunction, big_m: int) -> np.ndarray:
    """The (M, n) Legendre moments of f through the naive kernels."""
    width = f.b - f.a
    return np.array([
        [float(width * poly_inner_product(0, rodrigues_poly(0, l), g)) for g in _unit_components(f)]
        for l in range(big_m)
    ])


def functional_value_naive(spec: FunctionalSpec, f: PolynomialVectorFunction) -> float:
    """J(f) through the naive kernels, summed as `functional_value` sums."""
    unit = _unit_components(f)
    gram = np.array([[float(poly_inner_product(spec.m, u, v)) for v in unit] for u in unit])
    return float((f.b - f.a) * np.sum(spec.weight * gram))


def endpoint_values_naive(f: PolynomialVectorFunction) -> tuple[np.ndarray, np.ndarray]:
    """f(a) and f(b) by Fraction Horner evaluation of each component."""
    return tuple(np.array([float(poly_eval(c, x)) for c in f.components]) for x in (f.a, f.b))


# ---------------------------------------------------------------------------
# Per-delay reference blocks of the stability LMIs.
# ---------------------------------------------------------------------------


@dataclass
class DecisionVariables:
    """Symmetric decision matrices: augmented P, history Qs, derivative Rs.

    ``qs[j]`` is Q_j for j = 0..m; ``rs[j-1]`` is R_j for j = 1..m2.
    """

    p: np.ndarray
    qs: list[np.ndarray]
    rs: list[np.ndarray]


def zero_vars(layout: VariableLayout) -> DecisionVariables:
    n = layout.n_x
    return DecisionVariables(
        np.zeros((layout.p_size, layout.p_size)),
        [np.zeros((n, n)) for _ in range(layout.params.m + 1)],
        [np.zeros((n, n)) for _ in range(layout.params.m2)],
    )


def pack(layout: VariableLayout, dv: DecisionVariables) -> np.ndarray:
    """Flat svec vector of (P, Q_0..Q_m, R_1..R_m2): each upper triangle
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
    """(proj x I)^T  diag{(start+1)M, (start+3)M, ...}  (proj x I), with the
    block diagonal filled block by block (the 1/norm**2 of R(start, j) is
    1/(start + 2j + 1))."""
    n = mat.shape[0]
    rows = proj.shape[0]
    weight = np.zeros((rows * n, rows * n))
    for j in range(rows):
        weight[j * n : (j + 1) * n, j * n : (j + 1) * n] = (start + 2 * j + 1) * mat
    u = np.kron(proj, np.eye(n))
    return u.T @ weight @ u


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
    for j in range(params.m + 1):
        nu = max_weighted_order(j, big_m)
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
    for j in range(1, params.m + 1):
        nu = max_weighted_order(j - 1, big_m)
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
        nu = max_derivative_order(j - 1, big_m)
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


# ---------------------------------------------------------------------------
# Frequency-domain oracle: the characteristic determinant on the imaginary
# axis, independent of the LMI machinery and of the crossing computation.
# ---------------------------------------------------------------------------


def characteristic_minimum(a, d1, tau, w_hi=3.0, d2=None):
    """min over w in [0, w_hi] of |det H(jw, tau)|, where H(s, tau) = sI - A
    - A_d1 e^{-s tau} - A_d2 (1 - e^{-s tau}) / s (= tau A_d2 at s = 0), by
    a grid sweep refined three times around each of its local minima."""
    d2 = np.zeros_like(a) if d2 is None else d2
    eye = np.eye(a.shape[0])

    def sweep(grid):
        s = 1j * grid[:, None, None]
        e = np.exp(-s * tau)
        with np.errstate(divide="ignore", invalid="ignore"):
            dist = np.where(s == 0, tau, (1 - e) / s)
        return np.abs(np.linalg.det(s * eye - a - d1 * e - d2 * dist))

    def refine(grid, vals):
        for _ in range(3):  # local refinement around the best frequency
            k = int(np.argmin(vals))
            lo = grid[max(k - 1, 0)]
            hi = grid[min(k + 1, len(grid) - 1)]
            grid = np.linspace(lo, hi, 2001)
            vals = sweep(grid)
        return float(vals.min())

    grid = np.linspace(0.0, w_hi, 3001)
    vals = sweep(grid)
    padded = np.concatenate(([np.inf], vals, [np.inf]))
    minima = np.flatnonzero((vals <= padded[:-2]) & (vals <= padded[2:]))
    return min(refine(grid[max(k - 1, 0):k + 2], vals[max(k - 1, 0):k + 2]) for k in minima)


# ---------------------------------------------------------------------------
# Spectral oracle: the unstable characteristic roots at one delay, from a
# collocation of the system's infinitesimal generator, independent of the
# crossing computation.
# ---------------------------------------------------------------------------


def unstable_root_count(a, a_d1, a_d2, tau, degree=50):
    """Characteristic roots with Re s > 1e-7 at the delay tau, counted
    among the eigenvalues of a Chebyshev collocation of the infinitesimal
    generator on [-tau, 0] (Breda, Maset & Vermiglio, SIAM J. Sci. Comput.
    27, 2005).  The state is sampled at the Chebyshev points theta_0 = 0 >
    ... > theta_N = -tau (N = degree); rows 1..N differentiate, and row 0
    is x'(0) = A x(0) + A_d1 x(-tau) + A_d2 int_{-tau}^0 x with the integral
    by Clenshaw-Curtis weights.  Only eigenvalues with |s| < N^2 / (2 tau)
    count: the larger ones belong to the discretization."""
    n, big_n = a.shape[0], degree
    a_d2 = np.zeros_like(a) if a_d2 is None else a_d2
    k = np.arange(big_n + 1)
    angle = np.pi * k / big_n
    x = np.cos(angle)  # theta = tau (x - 1) / 2
    c = np.where((k == 0) | (k == big_n), 2.0, 1.0) * (-1.0) ** k
    diff = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(big_n + 1))
    diff -= np.diag(diff.sum(axis=1))  # d/dx at the points (Trefethen, cheb)
    j = np.arange(1, big_n // 2 + 1)
    b = np.where(2 * j == big_n, 1.0, 2.0)
    weights = (1.0 - (b / (4.0 * j**2 - 1.0)) @ np.cos(2.0 * np.outer(j, angle))) / big_n
    weights[1:-1] *= 2.0  # int_{-1}^1 f dx ~ weights @ f(x)
    gen = np.kron(2.0 / tau * diff, np.eye(n))
    gen[:n] = np.kron(0.5 * tau * weights, a_d2)
    gen[:n, :n] += a
    gen[:n, -n:] += a_d1
    lam = np.linalg.eigvals(gen)
    lam = lam[np.abs(lam) < big_n**2 / (2.0 * tau)]
    return int(np.sum(lam.real > 1e-7))
