"""Assembly of the delay-stability LMI conditions.

For a linear delay system

    x'(t) = A x(t) + A_d1 x(t - tau) + A_d2 * integral_{t-tau}^t x(s) ds

the stability certificate is a pair of matrix inequalities over an augmented
variable built from x(t), x(t - tau) and the first M Legendre moments of the
state history:

* a positivity block (the augmented quadratic form plus projection terms in
  the Q variables must be positive definite), and
* a derivative block (the time derivative of the functional, upper-bounded
  through the projection inequalities, must be negative definite),

together with positivity of the individual Q and R variables.  A delay-range
variant replaces the single-delay derivative block by its Schur-complement
form, affine in tau, checked at both interval endpoints.

All blocks are linear in the decision variables and depend on the delay
only through a few powers of tau: tau**-1 (the projection term of the
derivative block), tau**0 and tau**1, plus tau**2 and tau**3 when A_d2 != 0.
Each constraint is therefore compiled once per (system, M, m) into one
coefficient stack per power of tau, with one coefficient matrix per scalar
decision variable (symmetric matrices are vectorized with sqrt(2) scaling on
off-diagonal entries so flat inner products match trace inner products).
Assembling the LMIs at a probe delay is then the sum of tau**k times those
stacks.  The block functions below (``positivity_block``,
``derivative_block``, ``range_derivative_block``) state each condition
directly at one delay; the compiled stacks reproduce them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .projection import (
    derivative_moment_map,
    legendre_derivative_map,
    weighted_moment_map,
)

__all__ = [
    "DelaySystem",
    "HierarchyParams",
    "DecisionVariables",
    "VariableLayout",
    "LmiConstraint",
    "LmiProblem",
    "assemble_stability_lmis",
    "assemble_delay_range_lmis",
    "nodv",
    "positivity_block",
    "derivative_block",
    "range_derivative_block",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class DelaySystem:
    """Constant-coefficient delay system matrices.

    The matrices are private read-only copies, so the LMI coefficients
    compiled from them can be memoized on the instance (``_compiled``, one
    entry per HierarchyParams) for as long as the instance lives.
    """

    a: np.ndarray
    a_d1: np.ndarray
    a_d2: np.ndarray
    name: str = "system"
    _compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.atleast_2d(np.array(self.a, dtype=float))
        d1 = np.atleast_2d(np.array(self.a_d1, dtype=float))
        d2 = np.atleast_2d(np.array(self.a_d2, dtype=float))
        for label, m in (("A", a), ("A_d1", d1), ("A_d2", d2)):
            if m.shape != a.shape or m.shape[0] != m.shape[1]:
                raise ValueError(f"{label} must be square and match A's shape")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{label} contains non-finite entries")
            m.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "a_d1", d1)
        object.__setattr__(self, "a_d2", d2)

    @staticmethod
    def from_matrices(a, a_d1, a_d2=None, name: str = "system") -> "DelaySystem":
        a = np.atleast_2d(np.asarray(a, dtype=float))
        if a_d2 is None:
            a_d2 = np.zeros_like(a)
        return DelaySystem(a, a_d1, a_d2, name)

    @property
    def n_x(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class HierarchyParams:
    """Moment order M and weight depth m of the condition family.

    Derived counts: m1 = m weighted history terms (Q_0..Q_m1), m2 = m + 1
    derivative terms (R_1..R_m2).  Projection orders are nu1(j) = M - j - 1
    and nu2(j) = M - j; any projection term whose order would be negative is
    omitted (its trivial nonnegativity bound is used instead), which keeps
    the condition sound for every m >= 0.
    """

    big_m: int
    m: int

    def __post_init__(self):
        if self.big_m < 1:
            raise ValueError("M must be >= 1")
        if self.m < 0:
            raise ValueError("m must be >= 0")

    @property
    def m1(self) -> int:
        return self.m

    @property
    def m2(self) -> int:
        return self.m + 1

    def nu1(self, j: int) -> int:
        return self.big_m - j - 1

    def nu2(self, j: int) -> int:
        return self.big_m - j


@dataclass
class DecisionVariables:
    """Symmetric decision matrices: augmented P, history Qs, derivative Rs.

    ``qs[j]`` is Q_j for j = 0..m1; ``rs[j-1]`` is R_j for j = 1..m2.
    P may be indefinite; positivity of Q/R is imposed as constraints.
    """

    p: np.ndarray
    qs: list[np.ndarray]
    rs: list[np.ndarray]


class VariableLayout:
    """Flat svec packing of (P, Q_0..Q_m1, R_1..R_m2)."""

    def __init__(self, n_x: int, params: HierarchyParams):
        self.n_x = n_x
        self.params = params
        self.p_size = n_x * (params.big_m + 1)
        self.sizes = [self.p_size] + [n_x] * (params.m1 + 1) + [n_x] * params.m2
        self.offsets = []
        off = 0
        for s in self.sizes:
            self.offsets.append(off)
            off += s * (s + 1) // 2
        self.dim = off

    def zero_vars(self) -> DecisionVariables:
        n = self.n_x
        return DecisionVariables(
            np.zeros((self.p_size, self.p_size)),
            [np.zeros((n, n)) for _ in range(self.params.m1 + 1)],
            [np.zeros((n, n)) for _ in range(self.params.m2)],
        )

    def _mats(self, dv: DecisionVariables) -> list[np.ndarray]:
        return [dv.p] + dv.qs + dv.rs

    def pack(self, dv: DecisionVariables) -> np.ndarray:
        y = np.empty(self.dim)
        pos = 0
        for mat, size in zip(self._mats(dv), self.sizes):
            for i in range(size):
                y[pos] = mat[i, i]
                pos += 1
                for j in range(i + 1, size):
                    y[pos] = mat[i, j] * _SQRT2
                    pos += 1
        return y

    def unpack(self, y: np.ndarray) -> DecisionVariables:
        dv = self.zero_vars()
        pos = 0
        for mat, size in zip(self._mats(dv), self.sizes):
            for i in range(size):
                mat[i, i] = y[pos]
                pos += 1
                for j in range(i + 1, size):
                    mat[i, j] = mat[j, i] = y[pos] / _SQRT2
                    pos += 1
        return dv


def _svec_basis(size: int) -> np.ndarray:
    """The symmetric matrices of the svec coordinates of one size x size
    variable, stacked in ``VariableLayout.pack`` order."""
    rows, cols = np.triu_indices(size)
    idx = np.arange(len(rows))
    weight = np.where(rows == cols, 1.0, 1.0 / _SQRT2)
    out = np.zeros((len(rows), size, size))
    out[idx, rows, cols] = weight
    out[idx, cols, rows] = weight
    return out


def _weighted_congruence(proj: np.ndarray, start: int, mat: np.ndarray) -> np.ndarray:
    """(proj x I)^T  diag{(start+1)M, (start+3)M, ...}  (proj x I)."""
    rows = proj.shape[0]
    factors = np.arange(start + 1, start + 2 * rows + 1, 2, dtype=float)
    u = np.kron(proj, np.eye(mat.shape[0]))
    w = np.kron(np.diag(factors), mat)
    return u.T @ w @ u


# ---------------------------------------------------------------------------
# Structural blocks.
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Compiled constraints.
# ---------------------------------------------------------------------------


@dataclass
class LmiConstraint:
    """One affine matrix constraint: sense * (f0 + sum_i y_i coeffs[i]) > 0."""

    name: str
    sense: int  # +1: positive definite, -1: negative definite
    f0: np.ndarray
    coeffs: np.ndarray  # (dim, d, d)

    @property
    def size(self) -> int:
        return self.f0.shape[0]

    def value(self, y: np.ndarray) -> np.ndarray:
        mat = self.f0 + np.tensordot(y, self.coeffs, axes=1)
        return 0.5 * (mat + mat.T)


@dataclass
class LmiProblem:
    """Immutable bundle of affine matrix constraints plus the variable layout."""

    constraints: list[LmiConstraint]
    layout: VariableLayout

    @property
    def dim(self) -> int:
        return self.layout.dim

    def evaluate_at(self, dv: DecisionVariables) -> list[tuple[str, int, np.ndarray]]:
        """Numeric constraint matrices at the given decision variables."""
        y = self.layout.pack(dv)
        return [(c.name, c.sense, c.value(y)) for c in self.constraints]


class _TauPolynomial:
    """Coefficient stack of one constraint block as a Laurent polynomial in
    tau: coeffs(tau) = sum_k tau**k stacks[k], each stack (dim, d, d).

    Built from (power, offset, row, col, stack) terms: ``stack`` holds the
    block contributions of consecutive svec coordinates from flat index
    ``offset`` on, placed at (row, col) of the d x d block.
    """

    def __init__(self, dim: int, size: int, terms):
        powers = sorted({term[0] for term in terms})
        stacks = np.zeros((len(powers), dim, size, size))
        for power, offset, row, col, stack in terms:
            count, rows, cols = stack.shape
            k = powers.index(power)
            block = stacks[k, offset : offset + count]
            block[:, row : row + rows, col : col + cols] += stack
        stacks = 0.5 * (stacks + stacks.swapaxes(-1, -2))
        stacks.setflags(write=False)
        self.powers = np.array(powers, dtype=float)
        self.stacks = stacks

    def at(self, tau: float) -> np.ndarray:
        return np.tensordot(tau**self.powers, self.stacks, axes=1)


class _CompiledLmis:
    """The constraint blocks of one (system, M, m) as polynomials in tau,
    derived term by term from the block functions above applied to the
    svec basis matrices of P, the Qs and the Rs."""

    def __init__(self, sys: DelaySystem, params: HierarchyParams):
        n, big_m = sys.n_x, params.big_m
        self.layout = layout = VariableLayout(n, params)
        dim = layout.dim
        p_basis = _svec_basis(layout.p_size)
        basis = _svec_basis(n)
        q_offsets = layout.offsets[1 : params.m1 + 2]
        r_offsets = layout.offsets[params.m1 + 2 :]
        rate = n * (big_m + 2)  # derivative block size

        def congruences(proj: np.ndarray, start: int) -> np.ndarray:
            return np.array([_weighted_congruence(proj, start, b) for b in basis])

        # tau-coefficients of the factors of _energy_rate and
        # _dissipation_energy: state row = W0 + tau W1 (W1 only when
        # A_d2 != 0), lam = L0 + tau L1, gam = G0 + tau G1
        ws = [np.zeros((n, rate))]
        ws[0][:, :n] = sys.a
        ws[0][:, n : 2 * n] = sys.a_d1
        if np.any(sys.a_d2):
            ws.append(np.zeros((n, rate)))
            ws[1][:, 2 * n : 3 * n] = sys.a_d2
        moment_rows = np.kron(legendre_derivative_map(big_m).as_array(), np.eye(n))
        lams = [np.vstack([ws[0], moment_rows])] + [
            np.vstack([w, np.zeros_like(moment_rows)]) for w in ws[1:]
        ]
        pattern0 = np.zeros((big_m + 1, big_m + 2))
        pattern0[0, 0] = 1.0
        pattern1 = np.eye(big_m + 1, big_m + 2, k=1)
        pattern1[0] = 0.0
        gams = [np.kron(pattern0, np.eye(n)), np.kron(pattern1, np.eye(n))]

        energy = []
        for a, gam in enumerate(gams):
            for b, lam in enumerate(lams):
                pl = gam.T @ p_basis @ lam
                energy.append((a + b, 0, 0, 0, pl + pl.swapaxes(-1, -2)))
        positivity = [(1, 0, 0, 0, p_basis)]
        history = []
        for j, off in enumerate(q_offsets):
            if params.nu1(j) >= 0:
                xi = weighted_moment_map(j, params.nu1(j), big_m).as_array()
                positivity.append((0, off, n, n, congruences(xi, j)))
            history.append((0, off, 0, 0, basis))
            if j == 0:
                history.append((0, off, n, n, -basis))
            elif params.nu1(j - 1) >= 0:
                xi = weighted_moment_map(j - 1, params.nu1(j - 1), big_m).as_array()
                history.append((0, off, 2 * n, 2 * n, -j * congruences(xi, j - 1)))
        dissipation, projection, schur = [], [], []
        for j, off in enumerate(r_offsets, start=1):
            for a, wa in enumerate(ws):
                schur.append((1 + a, off, 0, rate, wa.T @ basis))
                schur.append((1 + a, off, rate, 0, basis @ wa))
                for b, wb in enumerate(ws):
                    dissipation.append((1 + a + b, off, 0, 0, wa.T @ basis @ wb))
            schur.append((0, off, rate, rate, -basis))
            if params.nu2(j - 1) >= 0:
                z = derivative_moment_map(j - 1, params.nu2(j - 1), big_m).as_array()
                projection.append((0, off, 0, 0, -j * congruences(z, j - 1)))

        self.definite = [
            (f"{label} positive", 1, _TauPolynomial(dim, n, [(0, off, 0, 0, basis)]))
            for label, off in zip(
                [f"Q{j}" for j in range(params.m1 + 1)]
                + [f"R{j}" for j in range(1, params.m2 + 1)],
                layout.offsets[1:],
            )
        ]
        self.positivity = _TauPolynomial(dim, n * (big_m + 1), positivity)
        # the single-delay block divides the projection term by tau
        self.derivative = _TauPolynomial(
            dim,
            rate,
            energy + history + dissipation + [(-1, *term[1:]) for term in projection],
        )
        self.range_derivative = _TauPolynomial(
            dim, rate + n, energy + history + projection + schur
        )


def _compiled(sys: DelaySystem, params: HierarchyParams) -> _CompiledLmis:
    compiled = sys._compiled.get(params)
    if compiled is None:
        compiled = sys._compiled[params] = _CompiledLmis(sys, params)
    return compiled


def _constraint(
    name: str, sense: int, poly: _TauPolynomial, tau: float
) -> LmiConstraint:
    coeffs = poly.at(tau)
    return LmiConstraint(name, sense, np.zeros(coeffs.shape[1:]), coeffs)


def assemble_stability_lmis(
    sys: DelaySystem,
    params: HierarchyParams,
    tau: float,
) -> LmiProblem:
    """Single-delay stability LMIs at delay tau."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    compiled = _compiled(sys, params)
    blocks = [
        ("positivity", 1, compiled.positivity),
        ("derivative", -1, compiled.derivative),
    ] + compiled.definite
    constraints = [_constraint(*block, tau) for block in blocks]
    return LmiProblem(constraints, compiled.layout)


def assemble_delay_range_lmis(
    sys: DelaySystem,
    params: HierarchyParams,
    tau_low: float,
    tau_up: float,
) -> LmiProblem:
    """Delay-range stability LMIs for tau in [tau_low, tau_up].

    Endpoint checks certify the range because every block is affine in tau
    when A_d2 = 0; with A_d2 != 0 the endpoint reduction is heuristic (tau**2
    terms enter the energy-rate block) and callers should treat the result
    as a pointwise check only.
    """
    if not 0 < tau_low <= tau_up:
        raise ValueError("need 0 < tau_low <= tau_up")
    compiled = _compiled(sys, params)
    derivative = compiled.range_derivative
    constraints = [
        _constraint("positivity at upper endpoint", 1, compiled.positivity, tau_up),
        _constraint("derivative at lower endpoint", -1, derivative, tau_low),
        _constraint("derivative at upper endpoint", -1, derivative, tau_up),
    ] + [_constraint(*block, tau_up) for block in compiled.definite]
    return LmiProblem(constraints, compiled.layout)


def nodv(params: HierarchyParams, n_x: int) -> int:
    """Number of scalar decision variables (triangular counts of P, Qs, Rs)."""
    return VariableLayout(n_x, params).dim
