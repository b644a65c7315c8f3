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

together with positivity of the individual Q and R variables.  The
delay-range conditions are the same blocks read in the range variables
(tau P, tau Q, R) and checked at both interval endpoints: there the
positivity block is affine and the negated derivative block concave in tau
(when A_d2 = 0), so each is smallest at an endpoint.  The assembled
conditions are an ``sdp.ConeProgram``, one coefficient stack per block
and no constant term (the conditions are homogeneous in the decision
variables), every block positive definite (the derivative blocks
negated).

All blocks are linear in the decision variables and depend on the delay
only through a few powers of tau: tau**-1 (the projection term of the
derivative block), tau**0 and tau**1, plus tau**2 and tau**3 when A_d2 != 0.
Each constraint is therefore compiled once per (system, M, m) into one
coefficient stack per power of tau, with one coefficient matrix per scalar
decision variable (symmetric matrices are vectorized with sqrt(2) scaling on
off-diagonal entries so flat inner products match trace inner products).
Assembling the LMIs at a probe delay is then the sum of tau**k times those
stacks, and their exact tau-derivative the sum of k tau**(k - 1) times them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import sdp
from .projection import (
    derivative_moment_map,
    legendre_derivative_map,
    max_derivative_order,
    max_weighted_order,
    projection_form,
    weighted_moment_map,
)

__all__ = [
    "DelaySystem",
    "HierarchyParams",
    "VariableLayout",
    "assemble_stability_lmis",
    "assemble_delay_range_lmis",
    "stability_tau_derivatives",
    "nodv",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class DelaySystem:
    """Constant-coefficient delay system matrices; ``a_d2`` None means the
    zero matrix (no distributed delay).

    The matrices are private read-only copies, so the LMI coefficients
    compiled from them can be memoized on the instance (``_compiled``, one
    entry per HierarchyParams) for as long as the instance lives.
    """

    a: np.ndarray
    a_d1: np.ndarray
    a_d2: np.ndarray | None = None
    name: str = "system"
    _compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.atleast_2d(np.array(self.a, dtype=float))
        d1 = np.atleast_2d(np.array(self.a_d1, dtype=float))
        d2 = np.zeros_like(a)
        if self.a_d2 is not None:
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

    @property
    def n_x(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class HierarchyParams:
    """Moment order M >= 1 and weight depth m >= 0 of the condition family.

    Derived count: m2 = m + 1 derivative terms (R_1..R_m2), beside the
    m + 1 weighted history terms Q_0..Q_m.  Their projection orders are the
    ``projection`` module's (see ``_CompiledLmis``).
    """

    big_m: int
    m: int

    def __post_init__(self):
        if self.big_m < 1:
            raise ValueError("M must be >= 1")
        if self.m < 0:
            raise ValueError("m must be >= 0")

    @property
    def m2(self) -> int:
        return self.m + 1


class VariableLayout:
    """Flat svec packing of (P, Q_0..Q_m, R_1..R_m2)."""

    def __init__(self, n_x: int, params: HierarchyParams):
        self.n_x = n_x
        self.params = params
        self.p_size = n_x * (params.big_m + 1)
        self.sizes = [self.p_size] + [n_x] * (params.m + 1) + [n_x] * params.m2
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

    def derivative_at(self, tau: float) -> np.ndarray:
        """The exact tau-derivative: sum_k k tau**(k - 1) stacks[k]."""
        return np.tensordot(self.powers * tau ** (self.powers - 1), self.stacks, axes=1)


class _CompiledLmis:
    """The constraint blocks of one (system, M, m) as polynomials in tau,
    one coefficient matrix per svec basis matrix of P, the Qs and the Rs.

    On the probe vector (x(t), x(t - tau), moments (1/tau) int L_l x), with
    W(tau) = (A, A_d1, tau A_d2, 0...) the row giving x'(t):
    * positivity: tau P plus the weighted projections of the Qs;
    * derivative: the energy rate He(Gam^T P Lam), the history rate of the
      Qs, the dissipation tau W^T (sum R_j) W, and minus 1/tau times the
      derivative projections of the Rs.
    A projection term of depth j has order ``max_weighted_order(j, M)``
    (Qs) or ``max_derivative_order(j, M)`` (Rs), and is left out when that
    is negative (its trivial nonnegativity bound keeps the condition sound
    for every m >= 0).  The derivative block is stored negated (an exact
    sign flip), so every block must be positive definite.
    """

    def __init__(self, sys: DelaySystem, params: HierarchyParams):
        n, big_m = sys.n_x, params.big_m
        layout = VariableLayout(n, params)
        dim = layout.dim
        p_basis = _svec_basis(layout.p_size)
        basis = _svec_basis(n)
        q_offsets = layout.offsets[1 : params.m + 2]
        r_offsets = layout.offsets[params.m + 2 :]
        rate = n * (big_m + 2)  # derivative block size

        def congruences(moment_map, largest_order, depth: int):
            # the basis stack through the depth's map; None with no order
            order = largest_order(depth, big_m)
            if order < 0:
                return None
            return projection_form(moment_map(depth, order, big_m), depth, basis)

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
        weighted = [
            congruences(weighted_moment_map, max_weighted_order, j)
            for j in range(params.m + 1)
        ]
        for j, off in enumerate(q_offsets):
            if weighted[j] is not None:
                positivity.append((0, off, n, n, weighted[j]))
            history.append((0, off, 0, 0, basis))
            if j == 0:
                history.append((0, off, n, n, -basis))
            elif weighted[j - 1] is not None:
                history.append((0, off, 2 * n, 2 * n, -j * weighted[j - 1]))
        dissipation, projection = [], []
        for j, off in enumerate(r_offsets, start=1):
            for a, wa in enumerate(ws):
                for b, wb in enumerate(ws):
                    dissipation.append((1 + a + b, off, 0, 0, wa.T @ basis @ wb))
            z = congruences(derivative_moment_map, max_derivative_order, j - 1)
            if z is not None:  # the projection term is divided by tau
                projection.append((-1, off, 0, 0, -j * z))

        self.definite = [
            _TauPolynomial(dim, n, [(0, off, 0, 0, basis)]) for off in layout.offsets[1:]
        ]
        self.positivity = _TauPolynomial(dim, n * (big_m + 1), positivity)
        derivative = energy + history + dissipation + projection
        self.derivative = _TauPolynomial(dim, rate, _negated(derivative))
        self.r_offset = layout.offsets[params.m + 2]  # first svec row of R_1


def _negated(terms):
    return [(*term[:-1], -term[-1]) for term in terms]


def _compiled(sys: DelaySystem, params: HierarchyParams) -> _CompiledLmis:
    compiled = sys._compiled.get(params)
    if compiled is None:
        compiled = sys._compiled[params] = _CompiledLmis(sys, params)
    return compiled


def _single_delay_polys(sys: DelaySystem, params: HierarchyParams, tau: float):
    if tau <= 0:
        raise ValueError("tau must be positive")
    compiled = _compiled(sys, params)
    return [compiled.positivity, compiled.derivative] + compiled.definite


def assemble_stability_lmis(
    sys: DelaySystem,
    params: HierarchyParams,
    tau: float,
) -> sdp.ConeProgram:
    """Single-delay stability LMIs at delay tau, in block order positivity,
    -derivative, Q_0..Q_m, R_1..R_m2."""
    return sdp.ConeProgram([poly.at(tau) for poly in _single_delay_polys(sys, params, tau)])


def stability_tau_derivatives(
    sys: DelaySystem,
    params: HierarchyParams,
    tau: float,
) -> list[np.ndarray]:
    """The exact tau-derivative of the coefficient stacks of
    ``assemble_stability_lmis(sys, params, tau)`` that depend on tau: its
    first two blocks, positivity and -derivative.  The Q and R definiteness
    blocks after them do not depend on tau."""
    return [poly.derivative_at(tau) for poly in _single_delay_polys(sys, params, tau)[:2]]


def assemble_delay_range_lmis(
    sys: DelaySystem,
    params: HierarchyParams,
    tau_low: float,
    tau_up: float,
) -> sdp.ConeProgram:
    """Delay-range stability LMIs for tau in [tau_low, tau_up], in block
    order positivity and -derivative at tau_low, the same at tau_up, then
    Q_0..Q_m, R_1..R_m2.

    Each block at an end tau is tau times the single-delay block at tau
    read in the range variables (tau P, tau Q, R): positivity unchanged,
    the derivative stack with its R rows scaled by tau.  With A_d2 = 0 the
    positivity block is affine and the negated derivative block, C0 + tau
    C1 - tau**2 W^T (sum R_j) W with the R blocks definite, concave in tau,
    so the smallest eigenvalue of each is smallest at an end and the
    endpoint checks certify the range; with A_d2 != 0 (tau**2 and tau**3
    terms in the energy rate) the reduction is heuristic and callers
    should treat the result as a pointwise check only.
    """
    if not 0 < tau_low <= tau_up:
        raise ValueError("need 0 < tau_low <= tau_up")
    compiled = _compiled(sys, params)
    blocks = []
    for end in (tau_low, tau_up):
        derivative = compiled.derivative.at(end)
        derivative[compiled.r_offset :] *= end
        blocks += [compiled.positivity.at(end), derivative]
    return sdp.ConeProgram(blocks + [poly.at(tau_up) for poly in compiled.definite])


def nodv(params: HierarchyParams, n_x: int) -> int:
    """Number of scalar decision variables (triangular counts of P, Qs, Rs)."""
    return VariableLayout(n_x, params).dim
