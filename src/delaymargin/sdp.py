"""Embedded dense semidefinite feasibility solver.

Strict LMI feasibility is decided through a margin program: every
constraint block is stated as F(y) = sum_i y_i F_i > 0 (the LMI builder
negates the negative-definite conditions) and becomes F(y) - t*I >= 0, an
infinity-norm box |y_i| <= BOX_BOUND keeps the program bounded, and the
solver maximizes t.  The programs are homogeneous, as the stability
conditions are linear in the Lyapunov-Krasovskii matrices with no
constant term: y = 0 attains t = 0, so the optimal margin t* is never
negative, and strict feasibility is exactly t* > 0, decided against
FEAS_THRESHOLD.  ``solve`` returns that optimum; ``decide_feasibility``,
the decision interface used by the bound search, stops earlier, at the
first iterate whose dual point already certifies a margin above the
threshold within 2x of the optimum.  The thresholds are the module
constants GAP_TOL, RES_TOL, FEAS_THRESHOLD and BOX_BOUND; ``solve`` takes
only ``max_iter``, ``log_stream`` and ``stop_when_certified``.  A
``ConeProgram`` is its coefficient stacks; the variable count is read off them.

The optimizer is a primal-dual predictor-corrector interior-point method
with Nesterov-Todd scaling, dense linear algebra throughout (problem sizes
here stay well below ~10^2 per block).  The box rows are a
nonnegative-orthant block with diagonal scaling, interleaved as
(B - y_i, B + y_i); their coefficient map and its adjoint are slices, so
they add only a diagonal to the Schur matrix.  Everything is
deterministic: fixed iteration schedule, no randomized pivoting.

Each solve stacks the blocks by size once, in its solver form: the k
blocks of size d share one (q, k, d, d) coefficient array and one
(k, d, d) array for each of X and S, the residuals, the NT scalings and
the search directions.  Each step of an iteration (scaling, Schur
accumulation, Newton right-hand side, step length, update) is then one
batched numpy call per size group, not one per block; the stability LMIs
have many equal-size n_x x n_x blocks.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from typing import NamedTuple, TextIO

import numpy as np

__all__ = [
    "ConeProgram",
    "FeasibilityResult",
    "solve",
    "decide_feasibility",
    "verify_certificate",
]

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
INCONCLUSIVE = "numerically-inconclusive"

STOP_REASONS = (
    "converged",
    "stalled",
    "max-iter",
    "non-finite",
    "nt-scaling-failed",
    "schur-failed",
    "newton-failed",
    "step-collapse",
    "certified",
)

# Termination and decision thresholds, and the default box bound of a
# ConeProgram (every program the LMI builder emits uses it).
GAP_TOL = 1e-8
RES_TOL = 1e-9
FEAS_THRESHOLD = 1e-7
BOX_BOUND = 1e4


@dataclass
class ConeProgram:
    """max t  s.t.  sum_i y_i F_k[i] - t I >= 0 for all k, |y| <= B.

    ``blocks`` holds one (num_y, d, d) stack F_k per constraint block, one
    finite symmetric coefficient matrix per y variable; there is no constant
    term, and the margin variable is implicit.  The number of variables
    ``num_y`` is read off the stacks, which must all share it.  The box
    bound B is the solver's policy, BOX_BOUND unless given by keyword.
    """

    blocks: list[np.ndarray]
    box_bound: float = field(default=BOX_BOUND, kw_only=True)

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("at least one constraint block is required")
        if not self.box_bound > 0:
            raise ValueError("box bound must be positive")
        for stack in self.blocks:
            d = stack.shape[-1]
            if stack.shape != (self.num_y, d, d):
                raise ValueError("each block must be a (num_y, d, d) coefficient stack")
            largest = float(np.abs(stack).max(initial=0.0))  # nan or inf if not finite
            if not np.isfinite(largest):
                raise ValueError("coefficient matrices must be finite")
            # no relative slack: asymmetry at most 1e-12 of the largest entry
            if np.abs(stack - _t(stack)).max(initial=0.0) > 1e-12 * max(1.0, largest):
                raise ValueError("coefficient matrices must be symmetric")

    @property
    def num_y(self) -> int:
        """Number of y variables: the leading size of every stack."""
        return self.blocks[0].shape[0]


@dataclass
class FeasibilityResult:
    """Outcome of a margin solve.

    ``certificate`` is the flat decision vector ``y``; block k of the
    program evaluates to sum_i y_i F_k[i] at it.  ``stop_reason`` is one of
    STOP_REASONS, ``margin_error`` the estimated uncertainty of ``margin``,
    and ``gap``, ``primal`` and ``dual`` the duality gap and the normalized
    primal and dual residuals of the last iterate.
    """

    status: str
    margin: float
    certificate: np.ndarray
    iterations: int
    stop_reason: str
    margin_error: float
    gap: float
    primal: float
    dual: float

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


# ---------------------------------------------------------------------------
# Interior-point machinery.
# ---------------------------------------------------------------------------


def _t(mats: np.ndarray) -> np.ndarray:
    """Transpose every matrix of a stack."""
    return mats.swapaxes(-1, -2)


def _sym(mats: np.ndarray) -> np.ndarray:
    return 0.5 * (mats + _t(mats))


def _nt_scaling(x_mat: np.ndarray, s_mat: np.ndarray):
    """NT scaling of a block stack: G with G G^T S G G^T = X per block, the
    scaled point being diag(lam).

    Also returns the explicit Cholesky inverses of X and S (cheap at these
    block sizes) for step-length computations.
    """
    lx, ls = np.linalg.cholesky(np.stack((x_mat, s_mat)))
    _, lam, vt = np.linalg.svd(_t(ls) @ lx)
    root = np.sqrt(lam)
    g = lx @ _t(vt) / root[..., None, :]
    lx_inv, ls_inv = np.linalg.inv(np.stack((lx, ls)))
    g_inv = (vt * root[..., :, None]) @ lx_inv
    return g, g_inv, lam, lx_inv, ls_inv


def _max_step(chol_invs, deltas, v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha with mat + alpha*delta >= 0 for every block of the
    stacks, given inv(chol(mat)) per stack, and v + alpha*dv >= 0.

    Returns 0 on numerical breakdown, which makes the caller stall out and
    report the run as inconclusive instead of crashing.
    """
    neg = dv < 0
    steps = [float(np.min(-v[neg] / dv[neg])) if np.any(neg) else np.inf]
    for chol_inv, delta in zip(chol_invs, deltas):
        with np.errstate(over="ignore", invalid="ignore"):
            t = chol_inv @ delta @ _t(chol_inv)
        t = _sym(t)
        if not np.isfinite(t).all():
            return 0.0
        try:
            lam_min = float(np.linalg.eigvalsh(t)[..., 0].min())
        except np.linalg.LinAlgError:
            return 0.0
        if lam_min < -1e-16:
            steps.append(-1.0 / lam_min)
    return min(steps)


class _SolverForm:
    """The solver form: one A per block size, sizes ascending and blocks in
    program order, with S(z) = -sum_i z_i A[i]; the margin t is the last of
    the q = num_y + 1 variables, with A = I."""

    def __init__(self, program: ConeProgram):
        self.p = p = program.num_y
        self.q = q = p + 1  # margin variable t is last
        self.bound = program.box_bound
        self.groups = []
        for d in sorted({stack.shape[-1] for stack in program.blocks}):
            members = [stack for stack in program.blocks if stack.shape[-1] == d]
            a = np.empty((q, len(members), d, d))
            a[:p] = -np.stack(members, axis=1)
            a[p] = np.eye(d)
            self.groups.append(a)
        self.flats = [a.reshape(q, -1) for a in self.groups]
        self.eyes = [np.eye(a.shape[-1]) for a in self.groups]
        self.n_total = sum(a.shape[1] * a.shape[2] for a in self.groups) + 2 * p
        self.b_obj = np.zeros(q)
        self.b_obj[p] = 1.0

    # Box rows: B -+ y_i >= 0 as a nonnegative block, slack B - box(z).
    def box(self, v: np.ndarray) -> np.ndarray:
        """(v_0, -v_0, v_1, -v_1, ...) over the y entries of v."""
        return np.stack((v[: self.p], -v[: self.p]), axis=1).reshape(-1)

    def box_adjoint(self, u: np.ndarray) -> np.ndarray:
        """Adjoint of ``box``: pairwise differences, zero for the margin."""
        return np.append(u[0::2] - u[1::2], 0.0)


class _Iterate(NamedTuple):
    """An iterate, or a Newton direction: X, S, box multipliers and slacks, z."""

    xs: list[np.ndarray]
    ss: list[np.ndarray]
    x_box: np.ndarray
    s_box: np.ndarray
    z: np.ndarray

    @classmethod
    def start(cls, form: _SolverForm) -> _Iterate:
        # Start exactly dual feasible: a deeply negative margin makes every
        # slack block eta*I strictly positive definite.
        data_norm = max([1.0] + [float(np.abs(a).max()) for a in form.groups])
        eta = 10.0 * data_norm
        z = np.zeros(form.q)
        z[form.p] = -eta
        xs = [np.broadcast_to(e, a.shape[1:]).copy() for a, e in zip(form.groups, form.eyes)]
        ss = [eta * x for x in xs]
        return cls(xs, ss, np.ones(2 * form.p), form.bound - form.box(z), z)

    def update(self, step: _Iterate, alpha: float) -> _Iterate:
        """The point a step length alpha along the direction ``step``."""
        return _Iterate(
            [_sym(x + alpha * dx) for x, dx in zip(self.xs, step.xs)],
            [_sym(s + alpha * ds) for s, ds in zip(self.ss, step.ss)],
            self.x_box + alpha * step.x_box,
            self.s_box + alpha * step.s_box,
            self.z + alpha * step.z,
        )


class _Breakdown(Exception):
    """No step can be taken from an iterate; the message is the stop reason."""


def _residuals(form: _SolverForm, state: _Iterate):
    """(rp, rds, rd_box), the gap, and the normalized primal and dual residuals."""
    xs, ss, x_box, s_box, z = state
    ax = form.box_adjoint(x_box)
    for flat, x in zip(form.flats, xs):
        ax += flat @ x.reshape(-1)
    rp = form.b_obj - ax
    rds = [-(z @ flat).reshape(s.shape) - s for flat, s in zip(form.flats, ss)]
    rd_box = form.bound - form.box(z) - s_box
    gap = sum(float(np.sum(x * s)) for x, s in zip(xs, ss)) + float(x_box @ s_box)
    pinf = float(np.abs(rp).max()) / (1.0 + form.bound)
    dinf_blocks = max(float(np.linalg.norm(r, axis=(1, 2)).max()) for r in rds)
    dinf_box = float(np.abs(rd_box).max(initial=0.0))
    dinf = max(dinf_blocks, dinf_box) / (1.0 + form.bound)
    return (rp, rds, rd_box), gap, pinf, dinf


class _Newton:
    """An iterate's NT scalings, one stack per size group, and Schur factor."""

    jitters = (0.0, 1e-13, 1e-10, 1e-7)  # Schur regularization levels, tried upward

    def __init__(self, form: _SolverForm, state: _Iterate, residual, jitter_floor: int):
        self.form, self.state = form, state
        self.rp, self.rds, self.rd_box = residual
        try:
            scalings = [_nt_scaling(x, s) for x, s in zip(state.xs, state.ss)]
        except np.linalg.LinAlgError:
            raise _Breakdown("nt-scaling-failed") from None
        self.gs, self.g_invs, self.lams, self.lx_invs, self.ls_invs = zip(*scalings)
        self.w_box = np.sqrt(state.x_box / state.s_box)
        self.lam_box = np.sqrt(state.x_box * state.s_box)
        self.ws = [g @ _t(g) for g in self.gs]

        # Schur complement (Gram of scaled coefficient matrices) + box diagonal
        schur = np.zeros((form.q, form.q))
        for g, a in zip(self.gs, form.groups):
            flat = (_t(g) @ a @ g).reshape(form.q, -1)
            schur += flat @ flat.T
        w2 = self.w_box**2
        schur[np.diag_indices(form.p)] += w2[0::2] + w2[1::2]
        self.schur = schur = 0.5 * (schur + schur.T)
        for jitter in self.jitters[jitter_floor:]:
            with suppress(np.linalg.LinAlgError):
                factor = np.linalg.cholesky(
                    schur + jitter * max(1.0, schur.diagonal().max()) * np.eye(form.q)
                )
                self.factor_inv = np.linalg.inv(factor)
                break
        else:
            raise _Breakdown("schur-failed")

    def direction(self, rcs, rc_box) -> tuple[_Iterate, float, float]:
        """Newton direction for (rcs, rc_box), and its primal and dual step lengths."""
        form, gs, ws, rds, w_box = self.form, self.gs, self.ws, self.rds, self.w_box
        try:
            with np.errstate(over="raise", invalid="raise"):
                grcs = [g @ rc @ _t(g) for g, rc in zip(gs, rcs)]
                rhs = self.rp.copy()
                for grc, w, flat, rd in zip(grcs, ws, form.flats, rds):
                    term = grc - w @ rd @ w
                    rhs -= flat @ term.reshape(-1)
                rhs -= form.box_adjoint(w_box * rc_box - w_box**2 * self.rd_box)
                dz = self.factor_inv.T @ (self.factor_inv @ rhs)
                # one refinement pass keeps the Schur solve honest near the boundary
                dz += self.factor_inv.T @ (self.factor_inv @ (rhs - self.schur @ dz))
                if not np.isfinite(dz).all():
                    raise FloatingPointError("non-finite Newton direction")
                d_ss = [rd - (dz @ flat).reshape(rd.shape) for rd, flat in zip(rds, form.flats)]
                d_xs = [_sym(grc - w @ ds @ w) for grc, w, ds in zip(grcs, ws, d_ss)]
                ds_box = self.rd_box - form.box(dz)
                dx_box = w_box * rc_box - w_box**2 * ds_box
        except (FloatingPointError, np.linalg.LinAlgError):
            raise _Breakdown("newton-failed") from None
        ap = _max_step(self.lx_invs, d_xs, self.state.x_box, dx_box)
        ad = _max_step(self.ls_invs, d_ss, self.state.s_box, ds_box)
        return _Iterate(d_xs, d_ss, dx_box, ds_box, dz), ap, ad


def _predictor_corrector(newton: _Newton, gap: float) -> tuple[_Iterate, float]:
    """One Mehrotra predictor-corrector step: the direction and its length."""
    form, state, lam_box = newton.form, newton.state, newton.lam_box
    mu = gap / form.n_total
    # Predictor: target 0, i.e. L_V^{-1}(-V^2) = -diag(lam)
    rc_aff = [-lam[..., None] * e for lam, e in zip(newton.lams, form.eyes)]
    aff, ap, ad = newton.direction(rc_aff, -lam_box)
    ap_aff = min(1.0, ap)
    ad_aff = min(1.0, ad)
    gap_aff = sum(
        float(np.sum((x + ap_aff * dx) * (s + ad_aff * ds)))
        for x, dx, s, ds in zip(state.xs, aff.xs, state.ss, aff.ss)
    ) + float((state.x_box + ap_aff * aff.x_box) @ (state.s_box + ad_aff * aff.s_box))
    sigma = min(1.0, max(0.0, (gap_aff / gap)) ** 3)

    # Corrector with Mehrotra second-order term
    rcs = []
    for g, g_inv, lam, e, dx, ds in zip(
        newton.gs, newton.g_invs, newton.lams, form.eyes, aff.xs, aff.ss
    ):
        cross = (g_inv @ dx @ _t(g_inv)) @ (_t(g) @ ds @ g)
        resid = (sigma * mu - lam**2)[..., None] * e - _sym(cross)
        denom = lam[..., :, None] + lam[..., None, :]
        rcs.append(2.0 * resid / denom)
    rc_box = (sigma * mu - lam_box**2 - aff.x_box * aff.s_box) / lam_box
    step, ap, ad = newton.direction(rcs, rc_box)
    # equal primal/dual steps: keeps the duality gap monotone on the
    # degenerate geometries the margin program produces
    gamma = 0.9 + 0.09 * min(1.0, ap, ad)
    return step, min(1.0, gamma * ap, gamma * ad)


def solve(
    program: ConeProgram,
    *,
    stop_when_certified: bool = False,
    max_iter: int = 100,
    log_stream: TextIO | None = None,
) -> FeasibilityResult:
    """Maximize the margin t and classify strict feasibility by its sign.

    Deterministic given identical inputs.  Termination: duality gap below
    ``GAP_TOL`` and normalized primal/dual residuals below ``RES_TOL``, or
    ``max_iter`` iterations.  Classification: FEASIBLE when
    t* >= ``FEAS_THRESHOLD`` and the dual residual is at most 100
    ``RES_TOL`` (the dual iterate is then a certificate, whatever the
    primal residual); otherwise INFEASIBLE when the run is decided (it
    converged, or its error estimate and both residuals are small), since
    the homogeneous optimum is then zero, and numerically-inconclusive
    when it is not, including iteration exhaustion.  ``margin_error`` is
    at least -t*, because y = 0 attains t = 0.

    ``stop_reason`` records why the iteration ended, one of
    STOP_REASONS: ``converged`` (tolerances met), ``stalled`` (the gap
    stopped falling near its rounding floor), ``max-iter`` (iteration
    budget spent), ``non-finite`` (the gap or the dual iterate overflowed),
    ``nt-scaling-failed`` (an iterate block lost definiteness),
    ``schur-failed`` (no regularization level made the Schur matrix
    factorable), ``newton-failed`` (a Newton direction overflowed or was
    not finite) and ``step-collapse`` (the step length vanished at every
    regularization level).

    By default ``solve`` runs to the optimal margin.  With
    ``stop_when_certified`` (the decision path, ``decide_feasibility``) it
    also stops, as ``certified``, at the first iterate that already decides
    FEASIBLE, with both residuals at most 100 ``RES_TOL`` and a duality gap
    no larger than its margin: the reported margin is then a certified
    lower bound within 2x of the optimum, not the optimum.  ``log_stream``,
    when given, receives one text line per iteration (t, gap, residuals).
    """
    form = _SolverForm(program)
    state = _Iterate.start(form)
    # rounding floor: box products of size ~bound set a floor on the
    # attainable absolute gap; once near it, stop when progress dies
    # (mid-phase plateaus at large gap are left alone)
    stall_level = max(1e2 * GAP_TOL, 1e-12 * form.bound * form.n_total)
    stop_reason = "max-iter"
    gap = pinf = dinf = np.inf
    it = 0
    best_gap = np.inf
    stall_count = 0
    jitter_floor = 0
    for it in range(1, max_iter + 1):
        residual, gap, pinf, dinf = _residuals(form, state)
        if log_stream is not None:
            log_stream.write(f"iter {it:3d}  t={state.z[form.p]: .9e}  gap={gap:.3e}  "
                             f"pinf={pinf:.3e}  dinf={dinf:.3e}\n")
        if gap <= GAP_TOL and pinf <= RES_TOL and dinf <= RES_TOL:
            stop_reason = "converged"
            break
        # the verdict is fixed once the dual iterate certifies a margin above
        # threshold; the gap bounds the distance to the optimum only for a
        # primal-feasible X, so gap <= t with a small primal residual keeps
        # that margin within 2x of the optimum
        if (
            stop_when_certified
            and state.z[form.p] >= FEAS_THRESHOLD
            and dinf <= 100 * RES_TOL
            and pinf <= 100 * RES_TOL
            and gap <= state.z[form.p]
        ):
            stop_reason = "certified"
            break
        stalling = gap <= stall_level and gap >= 0.7 * best_gap
        stall_count = stall_count + 1 if stalling else 0
        if stall_count >= 4:
            stop_reason = "stalled"
            break
        best_gap = min(best_gap, gap)
        if not np.isfinite(gap) or not np.isfinite(state.z).all():
            stop_reason = "non-finite"
            break
        try:
            newton = _Newton(form, state, residual, jitter_floor)
            step, alpha = _predictor_corrector(newton, gap)
        except _Breakdown as exc:
            stop_reason = str(exc)
            break
        if alpha < 1e-10:
            # an ill-conditioned Schur solve gives a direction that blocks
            # every cone at once: redo the iteration more regularized
            if jitter_floor < len(_Newton.jitters) - 1:
                jitter_floor += 1
                continue
            stop_reason = "step-collapse"
            break  # classify from diagnostics below
        state = state.update(step, alpha)

    t_star = float(state.z[form.p])
    # estimated uncertainty of the reported margin
    err = gap + (pinf + dinf) * (1.0 + form.bound)
    dual_ok = dinf <= 100 * RES_TOL
    decisive = stop_reason == "converged" or (
        err <= 0.1 * max(abs(t_star), FEAS_THRESHOLD)
        and pinf <= 100 * RES_TOL
        and dual_ok
    )
    if t_star >= FEAS_THRESHOLD and dual_ok:
        # the dual iterate alone decides feasibility: its slack S(z) > 0
        # gives F(y) - t* I = S(z) up to the dual residual, whatever the
        # primal residual or gap (verify_certificate re-checks it)
        status = FEASIBLE
    elif decisive:
        # y = 0 attains t = 0, so strict feasibility is exactly "margin
        # above threshold"
        status = INFEASIBLE
    else:
        status = INCONCLUSIVE
    return FeasibilityResult(
        status=status,
        margin=t_star,
        certificate=state.z[: form.p].copy(),
        iterations=it,
        stop_reason=stop_reason,
        # the exact optimum is >= 0, so a negative t* is off by at least -t*
        margin_error=max(err, -t_star),
        gap=gap,
        primal=pinf,
        dual=dinf,
    )


# ---------------------------------------------------------------------------
# Decision interface.
# ---------------------------------------------------------------------------


def decide_feasibility(program: ConeProgram) -> FeasibilityResult:
    """Decide strict feasibility of a margin program.

    Unlike a bare ``solve``, this stops at the first iterate that certifies
    FEASIBLE (stop reason ``certified``), so a feasible margin is a
    certified lower bound within 2x of the optimum; infeasible and
    inconclusive verdicts still come from the full solve.
    """
    return solve(program, stop_when_certified=True)


def verify_certificate(program: ConeProgram, result: FeasibilityResult) -> bool:
    """Independently re-check a feasible certificate via eigenvalues.

    Returns True iff every block sum_i y_i F_k[i], at the solver's own
    vector y, is strictly positive definite.
    """
    if not result.feasible:
        raise ValueError("certificate verification requires a feasible result")
    for stack in program.blocks:
        mat = np.tensordot(result.certificate, stack, axes=1)
        if np.linalg.eigvalsh(0.5 * (mat + mat.T))[0] <= 0:
            return False
    return True
