"""Embedded dense semidefinite feasibility solver.

Strict LMI feasibility is decided through a margin program: every
positive-definite constraint G(y) > 0 becomes G(y) - t*I >= 0 (negative
ones are negated first), an infinity-norm box |y_i| <= B keeps the program
bounded, and the solver maximizes t.  The sign of the optimal margin t*
then decides strict feasibility against a threshold.

The optimizer is a primal-dual predictor-corrector interior-point method
with Nesterov-Todd scaling, dense linear algebra throughout (problem sizes
here stay well below ~10^2 per block).  The box rows are handled as a
nonnegative-orthant block with diagonal scaling.  Everything is
deterministic: fixed iteration schedule, no randomized pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .lmi import DecisionVariables, LmiProblem

__all__ = [
    "ConeProgram",
    "SolverOptions",
    "FeasibilityResult",
    "to_margin_program",
    "solve",
    "decide_feasibility",
    "verify_certificate",
]

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
INCONCLUSIVE = "numerically-inconclusive"


@dataclass(frozen=True)
class SolverOptions:
    """Termination and decision thresholds (all margins scale with the
    largest constant-block norm, reported as ``scale``)."""

    gap_tol: float = 1e-8
    res_tol: float = 1e-9
    feas_threshold: float = 1e-7
    box_bound: float = 1e4
    max_iter: int = 100
    log_stream: TextIO | None = None


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

    ``certificate`` is the flat decision vector for bare cone programs and a
    ``DecisionVariables`` snapshot when produced through
    ``decide_feasibility``.
    """

    status: str
    margin: float
    certificate: object
    iterations: int
    residuals: dict
    scale: float = 1.0
    flat_certificate: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def to_margin_program(
    problem: LmiProblem, bound: float = SolverOptions.box_bound
) -> ConeProgram:
    """Margin reformulation of an LMI problem.

    Negative-definite constraints are negated, so every block must exceed
    t*I; the box on the decision scalars makes max-t well posed.
    """
    blocks = []
    for c in problem.constraints:
        sgn = float(c.sense)
        blocks.append((sgn * c.f0, sgn * c.coeffs))
    return ConeProgram(blocks=blocks, num_y=problem.dim, box_bound=bound)


# ---------------------------------------------------------------------------
# Interior-point machinery.
# ---------------------------------------------------------------------------


def _nt_scaling(x_mat: np.ndarray, s_mat: np.ndarray):
    """NT scaling factor G with G G^T S G G^T = X; scaled point is diag(lam).

    Also returns the explicit Cholesky inverses of X and S (cheap at these
    block sizes) for step-length computations.
    """
    lx = np.linalg.cholesky(x_mat)
    ls = np.linalg.cholesky(s_mat)
    _, lam, vt = np.linalg.svd(ls.T @ lx)
    g = lx @ vt.T / np.sqrt(lam)
    lx_inv = np.linalg.inv(lx)
    ls_inv = np.linalg.inv(ls)
    g_inv = (vt * np.sqrt(lam)[:, None]) @ lx_inv
    return g, g_inv, lam, lx_inv, ls_inv


def _max_step(chol_inv: np.ndarray, delta: np.ndarray) -> float:
    """Largest alpha with  mat + alpha*delta >= 0, given inv(chol(mat)).

    Returns 0 on numerical breakdown, which makes the caller stall out and
    report the run as inconclusive instead of crashing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        t = chol_inv @ delta @ chol_inv.T
    t = 0.5 * (t + t.T)
    if not np.isfinite(t).all():
        return 0.0
    try:
        lam_min = float(np.linalg.eigvalsh(t)[0])
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


def solve(program: ConeProgram, options: SolverOptions = SolverOptions()) -> FeasibilityResult:
    """Maximize the margin t and classify strict feasibility by its sign.

    Deterministic given identical inputs.  Termination: duality gap below
    ``gap_tol * scale`` and normalized primal/dual residuals below
    ``res_tol``.  Classification: FEASIBLE when t* >= ``feas_threshold *
    scale`` and the dual residual is at most 100 ``res_tol`` (the dual
    iterate is then a certificate, whatever the primal residual);
    otherwise the gap and both residuals must be small for INFEASIBLE, and
    anything else, including iteration exhaustion, is
    numerically-inconclusive with diagnostics attached.
    """
    p = program.num_y
    q = p + 1  # margin variable t is last
    bound = program.box_bound
    scale = program.scale

    # Solver-form data: S_k(z) = C_k - sum_i z_i A_k[i] with A for t = +I.
    cs, stacks = [], []
    for f0, stack in program.blocks:
        d = f0.shape[0]
        a_stack = np.empty((q, d, d))
        a_stack[:p] = -stack
        a_stack[p] = np.eye(d)
        cs.append(f0.copy())
        stacks.append(a_stack)
    flat_stacks = [a.reshape(q, -1) for a in stacks]

    # Box rows: B -+ y_i >= 0 as a nonnegative block.
    n_lp = 2 * p
    c_lp = np.full(n_lp, bound)
    a_lp = np.zeros((n_lp, q))
    for i in range(p):
        a_lp[2 * i, i] = 1.0
        a_lp[2 * i + 1, i] = -1.0

    b_obj = np.zeros(q)
    b_obj[p] = 1.0

    dims = [c.shape[0] for c in cs]
    n_total = sum(dims) + n_lp
    c_norm = max(float(np.linalg.norm(c)) for c in cs)
    data_norm = max(
        [c_norm, 1.0] + [float(np.abs(a).max()) for a in stacks]
    )

    # Start exactly dual feasible: a deeply negative margin makes every
    # slack block C + eta*I strictly positive definite.
    eta = 10.0 * max(1.0, data_norm)
    xs = [np.eye(d) for d in dims]
    x_lp = np.ones(n_lp)
    z = np.zeros(q)
    z[p] = -eta
    ss = [c + eta * np.eye(d) for c, d in zip(cs, dims)]
    s_lp = c_lp - a_lp @ z

    def aop(xmats, xvec) -> np.ndarray:
        out = a_lp.T @ xvec
        for flat, xm in zip(flat_stacks, xmats):
            out += flat @ xm.reshape(-1)
        return out

    def log(msg: str) -> None:
        if options.log_stream is not None:
            options.log_stream.write(msg + "\n")

    converged = False
    residuals: dict = {}
    it = 0
    best_gap = np.inf
    stall_count = 0
    jitters = (0.0, 1e-13, 1e-10, 1e-7)  # Schur regularization levels
    jitter_floor = 0
    for it in range(1, options.max_iter + 1):
        rp = b_obj - aop(xs, x_lp)
        rds = [c - np.tensordot(z, a, axes=1) - s for c, a, s in zip(cs, stacks, ss)]
        rd_lp = c_lp - a_lp @ z - s_lp
        gap = sum(float(np.sum(x * s)) for x, s in zip(xs, ss)) + float(x_lp @ s_lp)
        mu = gap / n_total

        pinf = float(np.abs(rp).max()) / (1.0 + bound)
        dinf_blocks = max(float(np.linalg.norm(r)) for r in rds) if rds else 0.0
        dinf_lp = float(np.abs(rd_lp).max()) if n_lp else 0.0
        dinf = max(dinf_blocks, dinf_lp) / (1.0 + c_norm + bound)
        residuals = {"gap": gap, "primal": pinf, "dual": dinf, "mu": mu}
        log(f"iter {it:3d}  t={z[p]: .9e}  gap={gap:.3e}  pinf={pinf:.3e}  dinf={dinf:.3e}")

        if gap <= options.gap_tol * scale and pinf <= options.res_tol and dinf <= options.res_tol:
            converged = True
            break
        # rounding floor: box products of size ~bound set a floor on the
        # attainable absolute gap; once near it, stop when progress dies
        # (mid-phase plateaus at large gap are left alone)
        stall_level = max(1e2 * options.gap_tol * scale, 1e-12 * bound * n_total)
        if gap <= stall_level and gap >= 0.7 * best_gap:
            stall_count += 1
            if stall_count >= 4:
                break
        else:
            stall_count = 0
        best_gap = min(best_gap, gap)

        if not np.isfinite(gap) or not np.isfinite(z).all():
            break
        # NT scalings
        try:
            scalings = [_nt_scaling(x, s) for x, s in zip(xs, ss)]
        except np.linalg.LinAlgError:
            break
        w_lp = np.sqrt(x_lp / s_lp) if n_lp else x_lp
        lam_lp = np.sqrt(x_lp * s_lp) if n_lp else x_lp

        ws = [g @ g.T for (g, _, _, _, _) in scalings]

        # Schur complement (Gram of scaled coefficient matrices) + box diagonal
        schur = np.zeros((q, q))
        for (g, _, _, _, _), a in zip(scalings, stacks):
            ahat = np.matmul(np.matmul(g.T[None], a), g[None])
            flat = ahat.reshape(q, -1)
            schur += flat @ flat.T
        if n_lp:
            w2 = w_lp**2
            diag_add = np.zeros(q)
            diag_add[:p] = w2[0::2] + w2[1::2]
            schur[np.diag_indices(q)] += diag_add
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
            break

        def schur_solve(rhs):
            return factor_inv.T @ (factor_inv @ rhs)

        def newton(rcs, rc_lp):
            rhs = rp.copy()
            for (g, _, _, _, _), w_full, a_flat, rc, rd in zip(
                scalings, ws, flat_stacks, rcs, rds
            ):
                term = g @ rc @ g.T - w_full @ rd @ w_full
                rhs -= a_flat @ term.reshape(-1)
            if n_lp:
                rhs -= a_lp.T @ (w_lp * rc_lp - w_lp**2 * rd_lp)
            dz = schur_solve(rhs)
            # one refinement pass keeps the Schur solve honest near the boundary
            dz += schur_solve(rhs - schur @ dz)
            d_ss = [rd - np.tensordot(dz, a, axes=1) for rd, a in zip(rds, stacks)]
            d_xs = []
            for (g, _, _, _, _), w_full, rc, dsm in zip(scalings, ws, rcs, d_ss):
                dxm = g @ rc @ g.T - w_full @ dsm @ w_full
                d_xs.append(0.5 * (dxm + dxm.T))
            if n_lp:
                ds_lp = rd_lp - a_lp @ dz
                dx_lp = w_lp * rc_lp - w_lp**2 * ds_lp
            else:
                ds_lp = dx_lp = np.zeros(0)
            return dz, d_xs, d_ss, dx_lp, ds_lp

        # Predictor: target 0, i.e. L_V^{-1}(-V^2) = -diag(lam)
        rc_aff = [np.diag(-lam) for (_, _, lam, _, _) in scalings]
        rc_lp_aff = -lam_lp
        try:
            with np.errstate(over="raise", invalid="raise"):
                dz_a, dxs_a, dss_a, dxlp_a, dslp_a = newton(rc_aff, rc_lp_aff)
        except (FloatingPointError, np.linalg.LinAlgError):
            break
        if not np.isfinite(dz_a).all():
            break

        ap = min(
            [
                _max_step(lx, dx)
                for (_, _, _, lx, _), dx in zip(scalings, dxs_a)
            ]
            + [_max_step_vec(x_lp, dxlp_a) if n_lp else np.inf]
        )
        ad = min(
            [
                _max_step(ls, ds)
                for (_, _, _, _, ls), ds in zip(scalings, dss_a)
            ]
            + [_max_step_vec(s_lp, dslp_a) if n_lp else np.inf]
        )
        ap_aff = min(1.0, ap)
        ad_aff = min(1.0, ad)
        gap_aff = sum(
            float(np.sum((x + ap_aff * dx) * (s + ad_aff * ds)))
            for x, dx, s, ds in zip(xs, dxs_a, ss, dss_a)
        )
        if n_lp:
            gap_aff += float((x_lp + ap_aff * dxlp_a) @ (s_lp + ad_aff * dslp_a))
        sigma = min(1.0, max(0.0, (gap_aff / gap)) ** 3)

        # Corrector with Mehrotra second-order term
        rcs = []
        for (g, g_inv, lam, _, _), dx, ds in zip(scalings, dxs_a, dss_a):
            dxh = g_inv @ dx @ g_inv.T
            dsh = g.T @ ds @ g
            cross = dxh @ dsh
            resid = sigma * mu * np.eye(len(lam)) - np.diag(lam**2) - 0.5 * (cross + cross.T)
            denom = lam[:, None] + lam[None, :]
            rcs.append(2.0 * resid / denom)
        if n_lp:
            rc_lp = (sigma * mu - lam_lp**2 - dxlp_a * dslp_a) / lam_lp
        else:
            rc_lp = np.zeros(0)
        try:
            with np.errstate(over="raise", invalid="raise"):
                dz, dxs, dss, dx_lp, ds_lp = newton(rcs, rc_lp)
        except (FloatingPointError, np.linalg.LinAlgError):
            break
        if not np.isfinite(dz).all():
            break

        ap = min(
            [_max_step(lx, dx) for (_, _, _, lx, _), dx in zip(scalings, dxs)]
            + [_max_step_vec(x_lp, dx_lp) if n_lp else np.inf]
        )
        ad = min(
            [_max_step(ls, ds) for (_, _, _, _, ls), ds in zip(scalings, dss)]
            + [_max_step_vec(s_lp, ds_lp) if n_lp else np.inf]
        )
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
            break  # stalled; classify from diagnostics below

        for k in range(len(xs)):
            xs[k] = xs[k] + ap * dxs[k]
            xs[k] = 0.5 * (xs[k] + xs[k].T)
            ss[k] = ss[k] + ad * dss[k]
            ss[k] = 0.5 * (ss[k] + ss[k].T)
        if n_lp:
            x_lp = x_lp + ap * dx_lp
            s_lp = s_lp + ad * ds_lp
        z = z + ad * dz

    t_star = float(z[p])
    y = z[:p].copy()
    threshold = options.feas_threshold * scale
    homogeneous = all(float(np.abs(f0).max()) == 0.0 for f0, _ in program.blocks)
    # estimated uncertainty of the reported margin
    err = residuals.get("gap", np.inf) + (
        residuals.get("primal", np.inf) + residuals.get("dual", np.inf)
    ) * (1.0 + bound)
    dual_ok = residuals.get("dual", np.inf) <= 100 * options.res_tol
    decisive = converged or (
        err <= 0.1 * max(abs(t_star), threshold)
        and residuals.get("primal", np.inf) <= 100 * options.res_tol
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
    return FeasibilityResult(
        status=status,
        margin=t_star,
        certificate=y,
        iterations=it,
        residuals=residuals,
        scale=scale,
        flat_certificate=y,
        meta={"converged": converged, "homogeneous": homogeneous, "margin_error": err},
    )


# ---------------------------------------------------------------------------
# LMI-level interface.
# ---------------------------------------------------------------------------


def decide_feasibility(
    problem: LmiProblem, options: SolverOptions = SolverOptions()
) -> FeasibilityResult:
    """Margin-solve an LMI problem and attach the decision-variable snapshot."""
    program = to_margin_program(problem, options.box_bound)
    result = solve(program, options)
    result.certificate = problem.layout.unpack(result.flat_certificate)
    result.meta["description"] = problem.description
    return result


def verify_certificate(problem: LmiProblem, result: FeasibilityResult) -> bool:
    """Independently re-check a feasible certificate via eigenvalues.

    Returns True iff every constraint evaluated at the certificate is
    strictly definite in its required sense.
    """
    if not result.feasible:
        raise ValueError("certificate verification requires a feasible result")
    dv = result.certificate
    if not isinstance(dv, DecisionVariables):
        dv = problem.layout.unpack(np.asarray(result.certificate, dtype=float))
    for name, sense, mat in problem.evaluate_at(dv):
        eigs = np.linalg.eigvalsh(mat)
        margin = eigs[0] if sense > 0 else -eigs[-1]
        if margin <= 0:
            return False
    return True
