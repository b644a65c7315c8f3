"""Embedded dense semidefinite feasibility solver.

Strict LMI feasibility is decided through a margin program: every
positive-definite constraint G(y) > 0 becomes G(y) - t*I >= 0 (negative
ones are negated first), an infinity-norm box |y_i| <= BOX_BOUND keeps
the program bounded, and the solver maximizes t.  The sign of the optimal
margin t* then decides strict feasibility against FEAS_THRESHOLD.
``solve`` returns that optimum; ``decide_feasibility``, the decision
interface used by the bound search, stops earlier, at the first iterate
whose dual point already certifies a margin above the threshold within 2x
of the optimum.  The thresholds are the module constants GAP_TOL, RES_TOL,
FEAS_THRESHOLD and BOX_BOUND; only the iteration budget and an iteration
log can be passed to ``solve``.

The optimizer is a primal-dual predictor-corrector interior-point method
with Nesterov-Todd scaling, dense linear algebra throughout (problem sizes
here stay well below ~10^2 per block).  The box rows are handled as a
nonnegative-orthant block with diagonal scaling.  Everything is
deterministic: fixed iteration schedule, no randomized pivoting.

Blocks are stacked by size once per solve: the k blocks of size d share
one (k, d, d) array for each of the data C, the iterates X and S, the
residuals, the NT scalings and the search directions, and their
coefficients one (q, k, d, d) array.  Each step of an iteration (scaling,
Schur accumulation, Newton right-hand side, step length, update) is then
one batched numpy call per size group, not one per block; the
stability LMIs have many equal-size n_x x n_x blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .lmi import LmiProblem

__all__ = [
    "ConeProgram",
    "FeasibilityResult",
    "to_margin_program",
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

# Termination and decision thresholds (GAP_TOL and FEAS_THRESHOLD scale
# with the largest constant-block norm, ``ConeProgram.scale``), and the box
# bound of the margin program built from an LMI problem.
GAP_TOL = 1e-8
RES_TOL = 1e-9
FEAS_THRESHOLD = 1e-7
BOX_BOUND = 1e4


@dataclass
class ConeProgram:
    """max t  s.t.  F0_k + sum_i y_i F_k[i] - t I >= 0 for all k, |y| <= B.

    ``blocks`` holds (F0, stack) pairs where ``stack`` has one symmetric
    coefficient matrix per y variable; the margin variable is implicit.
    """

    blocks: list[tuple[np.ndarray, np.ndarray]]
    num_y: int
    box_bound: float

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("at least one constraint block is required")
        if not self.box_bound > 0:
            raise ValueError("box bound must be positive")
        for f0, stack in self.blocks:
            if f0.ndim != 2 or f0.shape[0] != f0.shape[1]:
                raise ValueError("constant blocks must be square")
            if not np.allclose(f0, f0.T, atol=1e-12):
                raise ValueError("constant blocks must be symmetric")
            if stack.shape != (self.num_y,) + f0.shape:
                raise ValueError("coefficient stack shape mismatch")
            if not np.allclose(stack, np.transpose(stack, (0, 2, 1)), atol=1e-12):
                raise ValueError("coefficient matrices must be symmetric")

    @property
    def scale(self) -> float:
        return max(1.0, max(float(np.linalg.norm(f0)) for f0, _ in self.blocks))


@dataclass
class FeasibilityResult:
    """Outcome of a margin solve.

    ``certificate`` is the flat decision vector ``y``; for an LMI problem,
    ``constraint.value(y)`` evaluates each block at it.
    """

    status: str
    margin: float
    certificate: np.ndarray
    iterations: int
    residuals: dict
    meta: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def to_margin_program(problem: LmiProblem) -> ConeProgram:
    """Margin reformulation of an LMI problem.

    Negative-definite constraints are negated, so every block must exceed
    t*I; the LMIs are homogeneous, so every constant block is zero.  The box
    |y_i| <= BOX_BOUND on the decision scalars makes max-t well posed.
    """
    blocks = [
        (np.zeros((c.size, c.size)), float(c.sense) * c.coeffs)
        for c in problem.constraints
    ]
    return ConeProgram(blocks=blocks, num_y=problem.dim, box_bound=BOX_BOUND)


# ---------------------------------------------------------------------------
# Interior-point machinery.
# ---------------------------------------------------------------------------


def _t(mats: np.ndarray) -> np.ndarray:
    """Transpose every matrix of a stack."""
    return mats.swapaxes(-1, -2)


def _sym(mats: np.ndarray) -> np.ndarray:
    return 0.5 * (mats + _t(mats))


def _stack_by_size(program: ConeProgram) -> list[tuple[np.ndarray, np.ndarray]]:
    """Solver-form data, one (C, A) pair per block size d, sizes ascending.

    C is (k, d, d) for the k blocks of size d, in program order, and A is
    (q, k, d, d) with S(z) = C - sum_i z_i A[i]; the margin t is the last
    of the q = num_y + 1 variables, with A = I.
    """
    p = program.num_y
    groups = []
    for d in sorted({f0.shape[0] for f0, _ in program.blocks}):
        members = [(f0, st) for f0, st in program.blocks if f0.shape[0] == d]
        a = np.empty((p + 1, len(members), d, d))
        a[:p] = -np.stack([st for _, st in members], axis=1)
        a[p] = np.eye(d)
        groups.append((np.stack([f0 for f0, _ in members]), a))
    return groups


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


def _max_step(chol_inv: np.ndarray, delta: np.ndarray) -> float:
    """Largest alpha with  mat + alpha*delta >= 0 for every block of a
    stack, given inv(chol(mat)).

    Returns 0 on numerical breakdown, which makes the caller stall out and
    report the run as inconclusive instead of crashing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        t = chol_inv @ delta @ _t(chol_inv)
    t = _sym(t)
    if not np.isfinite(t).all():
        return 0.0
    try:
        lam_min = float(np.linalg.eigvalsh(t)[..., 0].min())
    except np.linalg.LinAlgError:
        return 0.0
    if lam_min >= -1e-16:
        return np.inf
    return -1.0 / lam_min


def _max_step_vec(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-v[neg] / dv[neg]))


def solve(
    program: ConeProgram,
    *,
    stop_when_certified: bool = False,
    max_iter: int = 100,
    log_stream: TextIO | None = None,
) -> FeasibilityResult:
    """Maximize the margin t and classify strict feasibility by its sign.

    Deterministic given identical inputs.  Termination: duality gap below
    ``GAP_TOL * scale`` and normalized primal/dual residuals below
    ``RES_TOL``, or ``max_iter`` iterations.  Classification: FEASIBLE when
    t* >= ``FEAS_THRESHOLD * scale`` and the dual residual is at most 100
    ``RES_TOL`` (the dual iterate is then a certificate, whatever the
    primal residual); otherwise the gap and both residuals must be small
    for INFEASIBLE, and anything else, including iteration exhaustion, is
    numerically-inconclusive with diagnostics attached.

    ``meta["stop_reason"]`` records why the iteration ended, one of
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
    p = program.num_y
    q = p + 1  # margin variable t is last
    bound = program.box_bound
    scale = program.scale
    threshold = FEAS_THRESHOLD * scale

    groups = _stack_by_size(program)
    cs = [c for c, _ in groups]
    flats = [a.reshape(q, -1) for _, a in groups]
    eyes = [np.eye(c.shape[-1]) for c in cs]

    # Box rows: B -+ y_i >= 0 as a nonnegative block.
    n_lp = 2 * p
    c_lp = np.full(n_lp, bound)
    a_lp = np.zeros((n_lp, q))
    for i in range(p):
        a_lp[2 * i, i] = 1.0
        a_lp[2 * i + 1, i] = -1.0

    b_obj = np.zeros(q)
    b_obj[p] = 1.0

    n_total = sum(c.shape[0] * c.shape[1] for c in cs) + n_lp
    c_norm = max(float(np.linalg.norm(c, axis=(1, 2)).max()) for c in cs)
    data_norm = max([c_norm, 1.0] + [float(np.abs(a).max()) for _, a in groups])

    # Start exactly dual feasible: a deeply negative margin makes every
    # slack block C + eta*I strictly positive definite.
    eta = 10.0 * max(1.0, data_norm)
    xs = [np.broadcast_to(e, c.shape).copy() for c, e in zip(cs, eyes)]
    x_lp = np.ones(n_lp)
    z = np.zeros(q)
    z[p] = -eta
    ss = [c + eta * e for c, e in zip(cs, eyes)]
    s_lp = c_lp - a_lp @ z

    def aop(xmats, xvec) -> np.ndarray:
        out = a_lp.T @ xvec
        for flat, xm in zip(flats, xmats):
            out += flat @ xm.reshape(-1)
        return out

    def log(msg: str) -> None:
        if log_stream is not None:
            log_stream.write(msg + "\n")

    stop_reason = "max-iter"
    residuals: dict = {}
    it = 0
    best_gap = np.inf
    stall_count = 0
    jitters = (0.0, 1e-13, 1e-10, 1e-7)  # Schur regularization levels
    jitter_floor = 0
    for it in range(1, max_iter + 1):
        rp = b_obj - aop(xs, x_lp)
        rds = [c - (z @ flat).reshape(c.shape) - s for c, flat, s in zip(cs, flats, ss)]
        rd_lp = c_lp - a_lp @ z - s_lp
        gap = sum(float(np.sum(x * s)) for x, s in zip(xs, ss)) + float(x_lp @ s_lp)
        mu = gap / n_total

        pinf = float(np.abs(rp).max()) / (1.0 + bound)
        dinf_blocks = max(float(np.linalg.norm(r, axis=(1, 2)).max()) for r in rds)
        dinf_lp = float(np.abs(rd_lp).max(initial=0.0))
        dinf = max(dinf_blocks, dinf_lp) / (1.0 + c_norm + bound)
        residuals = {"gap": gap, "primal": pinf, "dual": dinf}
        log(f"iter {it:3d}  t={z[p]: .9e}  gap={gap:.3e}  pinf={pinf:.3e}  dinf={dinf:.3e}")

        if gap <= GAP_TOL * scale and pinf <= RES_TOL and dinf <= RES_TOL:
            stop_reason = "converged"
            break
        # the verdict is fixed once the dual iterate certifies a margin above
        # threshold; the gap bounds the distance to the optimum only for a
        # primal-feasible X, so gap <= t with a small primal residual keeps
        # that margin within 2x of the optimum
        if (
            stop_when_certified
            and z[p] >= threshold
            and dinf <= 100 * RES_TOL
            and pinf <= 100 * RES_TOL
            and gap <= z[p]
        ):
            stop_reason = "certified"
            break
        # rounding floor: box products of size ~bound set a floor on the
        # attainable absolute gap; once near it, stop when progress dies
        # (mid-phase plateaus at large gap are left alone)
        stall_level = max(1e2 * GAP_TOL * scale, 1e-12 * bound * n_total)
        if gap <= stall_level and gap >= 0.7 * best_gap:
            stall_count += 1
            if stall_count >= 4:
                stop_reason = "stalled"
                break
        else:
            stall_count = 0
        best_gap = min(best_gap, gap)

        if not np.isfinite(gap) or not np.isfinite(z).all():
            stop_reason = "non-finite"
            break
        # NT scalings, one stack per size group
        try:
            scalings = [_nt_scaling(x, s) for x, s in zip(xs, ss)]
        except np.linalg.LinAlgError:
            stop_reason = "nt-scaling-failed"
            break
        gs, g_invs, lams, lx_invs, ls_invs = zip(*scalings)
        w_lp = np.sqrt(x_lp / s_lp)
        lam_lp = np.sqrt(x_lp * s_lp)

        ws = [g @ _t(g) for g in gs]

        # Schur complement (Gram of scaled coefficient matrices) + box diagonal
        schur = np.zeros((q, q))
        for g, (_, a) in zip(gs, groups):
            flat = (_t(g) @ a @ g).reshape(q, -1)
            schur += flat @ flat.T
        w2 = w_lp**2
        schur[np.diag_indices(p)] += w2[0::2] + w2[1::2]
        schur = 0.5 * (schur + schur.T)

        factor_inv = None
        for jitter in jitters[jitter_floor:]:
            try:
                factor = np.linalg.cholesky(
                    schur + jitter * max(1.0, schur.diagonal().max()) * np.eye(q)
                )
                factor_inv = np.linalg.inv(factor)
                break
            except np.linalg.LinAlgError:
                continue
        if factor_inv is None:
            stop_reason = "schur-failed"
            break

        def schur_solve(rhs):
            return factor_inv.T @ (factor_inv @ rhs)

        def newton(rcs, rc_lp):
            rhs = rp.copy()
            for g, w, flat, rc, rd in zip(gs, ws, flats, rcs, rds):
                term = g @ rc @ _t(g) - w @ rd @ w
                rhs -= flat @ term.reshape(-1)
            rhs -= a_lp.T @ (w_lp * rc_lp - w_lp**2 * rd_lp)
            dz = schur_solve(rhs)
            # one refinement pass keeps the Schur solve honest near the boundary
            dz += schur_solve(rhs - schur @ dz)
            d_ss = [rd - (dz @ flat).reshape(rd.shape) for rd, flat in zip(rds, flats)]
            d_xs = [
                _sym(g @ rc @ _t(g) - w @ dsm @ w)
                for g, w, rc, dsm in zip(gs, ws, rcs, d_ss)
            ]
            ds_lp = rd_lp - a_lp @ dz
            dx_lp = w_lp * rc_lp - w_lp**2 * ds_lp
            return dz, d_xs, d_ss, dx_lp, ds_lp

        def step_lengths(d_xs, d_ss, dx_lp, ds_lp):
            ap = min(
                [_max_step(lx, dx) for lx, dx in zip(lx_invs, d_xs)]
                + [_max_step_vec(x_lp, dx_lp)]
            )
            ad = min(
                [_max_step(ls, ds) for ls, ds in zip(ls_invs, d_ss)]
                + [_max_step_vec(s_lp, ds_lp)]
            )
            return ap, ad

        # Predictor: target 0, i.e. L_V^{-1}(-V^2) = -diag(lam)
        rc_aff = [-lam[..., None] * e for lam, e in zip(lams, eyes)]
        rc_lp_aff = -lam_lp
        try:
            with np.errstate(over="raise", invalid="raise"):
                dz_a, dxs_a, dss_a, dxlp_a, dslp_a = newton(rc_aff, rc_lp_aff)
        except (FloatingPointError, np.linalg.LinAlgError):
            stop_reason = "newton-failed"
            break
        if not np.isfinite(dz_a).all():
            stop_reason = "newton-failed"
            break

        ap, ad = step_lengths(dxs_a, dss_a, dxlp_a, dslp_a)
        ap_aff = min(1.0, ap)
        ad_aff = min(1.0, ad)
        gap_aff = sum(
            float(np.sum((x + ap_aff * dx) * (s + ad_aff * ds)))
            for x, dx, s, ds in zip(xs, dxs_a, ss, dss_a)
        ) + float((x_lp + ap_aff * dxlp_a) @ (s_lp + ad_aff * dslp_a))
        sigma = min(1.0, max(0.0, (gap_aff / gap)) ** 3)

        # Corrector with Mehrotra second-order term
        rcs = []
        for g, g_inv, lam, e, dx, ds in zip(gs, g_invs, lams, eyes, dxs_a, dss_a):
            cross = (g_inv @ dx @ _t(g_inv)) @ (_t(g) @ ds @ g)
            resid = (sigma * mu - lam**2)[..., None] * e - _sym(cross)
            denom = lam[..., :, None] + lam[..., None, :]
            rcs.append(2.0 * resid / denom)
        rc_lp = (sigma * mu - lam_lp**2 - dxlp_a * dslp_a) / lam_lp
        try:
            with np.errstate(over="raise", invalid="raise"):
                dz, dxs, dss, dx_lp, ds_lp = newton(rcs, rc_lp)
        except (FloatingPointError, np.linalg.LinAlgError):
            stop_reason = "newton-failed"
            break
        if not np.isfinite(dz).all():
            stop_reason = "newton-failed"
            break

        ap, ad = step_lengths(dxs, dss, dx_lp, ds_lp)
        # equal primal/dual steps: keeps the duality gap monotone on the
        # degenerate geometries the margin program produces
        gamma = 0.9 + 0.09 * min(1.0, ap, ad)
        ap = ad = min(1.0, gamma * ap, gamma * ad)
        if ap < 1e-10:
            # an ill-conditioned Schur solve gives a direction that blocks
            # every cone at once: redo the iteration more regularized
            if jitter_floor < len(jitters) - 1:
                jitter_floor += 1
                continue
            stop_reason = "step-collapse"
            break  # classify from diagnostics below

        xs = [_sym(x + ap * dx) for x, dx in zip(xs, dxs)]
        ss = [_sym(s + ad * ds) for s, ds in zip(ss, dss)]
        x_lp = x_lp + ap * dx_lp
        s_lp = s_lp + ad * ds_lp
        z = z + ad * dz

    t_star = float(z[p])
    y = z[:p].copy()
    homogeneous = not any(c.any() for c in cs)
    # estimated uncertainty of the reported margin
    err = residuals.get("gap", np.inf) + (
        residuals.get("primal", np.inf) + residuals.get("dual", np.inf)
    ) * (1.0 + bound)
    dual_ok = residuals.get("dual", np.inf) <= 100 * RES_TOL
    converged = stop_reason == "converged"
    decisive = converged or (
        err <= 0.1 * max(abs(t_star), threshold)
        and residuals.get("primal", np.inf) <= 100 * RES_TOL
        and dual_ok
    )
    if t_star >= threshold and dual_ok:
        # the dual iterate alone decides feasibility: its slack S(z) > 0
        # gives F(y) - t* I = S(z) up to the dual residual, whatever the
        # primal residual or gap (verify_certificate re-checks it)
        status = FEASIBLE
    elif not decisive:
        status = INCONCLUSIVE
    elif homogeneous or t_star <= -threshold:
        # a homogeneous family always admits the zero solution with zero
        # margin, so strict feasibility is exactly "margin above threshold"
        status = INFEASIBLE
    else:
        status = INCONCLUSIVE
    if homogeneous:
        # y = 0 attains t = 0, so the exact optimum is >= 0 and a negative
        # t* is off by at least -t*
        err = max(err, -t_star)
    return FeasibilityResult(
        status=status,
        margin=t_star,
        certificate=y,
        iterations=it,
        residuals=residuals,
        meta={
            "homogeneous": homogeneous,
            "margin_error": err,
            "stop_reason": stop_reason,
        },
    )


# ---------------------------------------------------------------------------
# LMI-level interface.
# ---------------------------------------------------------------------------


def decide_feasibility(problem: LmiProblem) -> FeasibilityResult:
    """Decide strict feasibility of an LMI problem.

    Unlike a bare ``solve``, this stops at the first iterate that certifies
    FEASIBLE (stop reason ``certified``), so a feasible margin is a
    certified lower bound within 2x of the optimum; infeasible and
    inconclusive verdicts still come from the full solve.
    """
    return solve(to_margin_program(problem), stop_when_certified=True)


def verify_certificate(problem: LmiProblem, result: FeasibilityResult) -> bool:
    """Independently re-check a feasible certificate via eigenvalues.

    Returns True iff every constraint evaluated at the certificate, the
    solver's own vector y, is strictly definite in its required sense.
    """
    if not result.feasible:
        raise ValueError("certificate verification requires a feasible result")
    for c in problem.constraints:
        eigs = np.linalg.eigvalsh(c.value(result.certificate))
        margin = eigs[0] if c.sense > 0 else -eigs[-1]
        if margin <= 0:
            return False
    return True
