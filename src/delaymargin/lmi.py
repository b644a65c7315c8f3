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
stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .projection import (
    derivative_moment_map,
    legendre_derivative_map,
    rodrigues_weight_block,
    weighted_moment_map,
)

__all__ = [
    "DelaySystem",
    "HierarchyParams",
    "VariableLayout",
    "LmiConstraint",
    "LmiProblem",
    "assemble_stability_lmis",
    "assemble_delay_range_lmis",
    "nodv",
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


def _svec_basis(size: int) -> np.ndarray:
    """The symmetric matrices of the svec coordinates of one size x size
    variable, in svec order: row by row over the upper triangle, so
    y = (Y_00, sqrt2 Y_01, ..., Y_11, sqrt2 Y_12, ...)."""
    rows, cols = np.triu_indices(size)
    idx = np.arange(len(rows))
    weight = np.where(rows == cols, 1.0, 1.0 / _SQRT2)
    out = np.zeros((len(rows), size, size))
    out[idx, rows, cols] = weight
    out[idx, cols, rows] = weight
    return out


def _weighted_congruence(proj: np.ndarray, start: int, mat: np.ndarray) -> np.ndarray:
    """(proj x I)^T  diag{(start+1)M, (start+3)M, ...}  (proj x I)."""
    u = np.kron(proj, np.eye(mat.shape[0]))
    w = rodrigues_weight_block(start, proj.shape[0] - 1, mat)
    return u.T @ w @ u


@dataclass
class LmiConstraint:
    """One linear matrix constraint: sense * sum_i y_i coeffs[i] > 0 (the
    stability LMIs are homogeneous, so there is no constant term)."""

    name: str
    sense: int  # +1: positive definite, -1: negative definite
    coeffs: np.ndarray  # (dim, d, d)

    @property
    def size(self) -> int:
        return self.coeffs.shape[1]

    def value(self, y: np.ndarray) -> np.ndarray:
        mat = np.tensordot(y, self.coeffs, axes=1)
        return 0.5 * (mat + mat.T)


@dataclass
class LmiProblem:
    """Immutable bundle of affine matrix constraints plus the variable layout."""

    constraints: list[LmiConstraint]
    layout: VariableLayout

    @property
    def dim(self) -> int:
        return self.layout.dim


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
    one coefficient matrix per svec basis matrix of P, the Qs and the Rs.

    On the probe vector (x(t), x(t - tau), moments (1/tau) int L_l x), with
    W(tau) = (A, A_d1, tau A_d2, 0...) the row giving x'(t):
    * positivity: tau P plus the weighted projections of the Qs;
    * derivative: the energy rate He(Gam^T P Lam), the history rate of the
      Qs, the dissipation tau W^T (sum R_j) W, and minus 1/tau times the
      derivative projections of the Rs;
    * range derivative: its Schur form, with the projections not divided
      by tau and an extra corner row [tau W^T sum R_j; -sum R_j].
    Projection terms of negative order nu1(j) or nu2(j) are left out.
    """

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

        # tau-coefficients of the factors of the energy rate and the
        # dissipation: state row W = W0 + tau W1 (W1 only when A_d2 != 0),
        # lam = L0 + tau L1, gam = G0 + tau G1
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
    constraints = [
        LmiConstraint(name, sense, poly.at(tau)) for name, sense, poly in blocks
    ]
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
    positivity, derivative = compiled.positivity, compiled.range_derivative
    constraints = [
        LmiConstraint("positivity at upper endpoint", 1, positivity.at(tau_up)),
        LmiConstraint("derivative at lower endpoint", -1, derivative.at(tau_low)),
        LmiConstraint("derivative at upper endpoint", -1, derivative.at(tau_up)),
    ] + [
        LmiConstraint(name, sense, poly.at(tau_up))
        for name, sense, poly in compiled.definite
    ]
    return LmiProblem(constraints, compiled.layout)


def nodv(params: HierarchyParams, n_x: int) -> int:
    """Number of scalar decision variables (triangular counts of P, Qs, Rs)."""
    return VariableLayout(n_x, params).dim
