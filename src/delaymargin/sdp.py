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
constants GAP_TOL, RES_TOL, FEAS_THRESHOLD and BOX_BOUND; only the
iteration budget and an iteration log can be passed to ``solve``.  A
``ConeProgram`` is its coefficient stacks; the variable count is read off them.

The optimizer is a primal-dual predictor-corrector interior-point method
with Nesterov-Todd scaling, dense linear algebra throughout (problem sizes
here stay well below ~10^2 per block).  The box rows are a
nonnegative-orthant block with diagonal scaling, interleaved as
(B - y_i, B + y_i); their coefficient map and its adjoint are slices, so
they add only a diagonal to the Schur matrix.  Everything is
deterministic: fixed iteration schedule, no randomized pivoting.

Blocks are stacked by size once per solve: the k blocks of size d share
one (k, d, d) array for each of the iterates X and S, the residuals, the
NT scalings and the search directions, and their coefficients one
(q, k, d, d) array.  Each step of an iteration (scaling, Schur
accumulation, Newton right-hand side, step length, update) is then one
batched numpy call per size group, not one per block; the stability LMIs
have many equal-size n_x x n_x blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TextIO

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


def _stack_by_size(program: ConeProgram) -> list[np.ndarray]:
    """Solver-form data, one A per block size d, sizes ascending.

    A is (q, k, d, d) for the k blocks of size d, in program order, with
    S(z) = -sum_i z_i A[i]; the margin t is the last of the q = num_y + 1
    variables, with A = I.
    """
    p = program.num_y
    groups = []
    for d in sorted({stack.shape[-1] for stack in program.blocks}):
        members = [stack for stack in program.blocks if stack.shape[-1] == d]
        a = np.empty((p + 1, len(members), d, d))
        a[:p] = -np.stack(members, axis=1)
        a[p] = np.eye(d)
        groups.append(a)
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
    p = program.num_y
    q = p + 1  # margin variable t is last
    bound = program.box_bound

    groups = _stack_by_size(program)
    shapes = [a.shape[1:] for a in groups]
    flats = [a.reshape(q, -1) for a in groups]
    eyes = [np.eye(shape[-1]) for shape in shapes]

    # Box rows: B -+ y_i >= 0 as a nonnegative block, slack B - box(z).
    def box(v: np.ndarray) -> np.ndarray:
        """(v_0, -v_0, v_1, -v_1, ...) over the y entries of v."""
        return np.stack((v[:p], -v[:p]), axis=1).reshape(-1)

    def box_adjoint(u: np.ndarray) -> np.ndarray:
        """Adjoint of ``box``: pairwise differences, zero for the margin."""
        return np.append(u[0::2] - u[1::2], 0.0)

    b_obj = np.zeros(q)
    b_obj[p] = 1.0

    n_total = sum(shape[0] * shape[1] for shape in shapes) + 2 * p
    data_norm = max([1.0] + [float(np.abs(a).max()) for a in groups])

    # Start exactly dual feasible: a deeply negative margin makes every
    # slack block eta*I strictly positive definite.
    eta = 10.0 * max(1.0, data_norm)
    xs = [np.broadcast_to(e, shape).copy() for shape, e in zip(shapes, eyes)]
    x_box = np.ones(2 * p)
    z = np.zeros(q)
    z[p] = -eta
    ss = [np.broadcast_to(eta * e, shape).copy() for shape, e in zip(shapes, eyes)]
    s_box = bound - box(z)

    stop_reason = "max-iter"
    gap = pinf = dinf = np.inf
    it = 0
    best_gap = np.inf
    stall_count = 0
    jitters = (0.0, 1e-13, 1e-10, 1e-7)  # Schur regularization levels
    jitter_floor = 0
    for it in range(1, max_iter + 1):
        ax = box_adjoint(x_box)
        for flat, x in zip(flats, xs):
            ax += flat @ x.reshape(-1)
        rp = b_obj - ax
        rds = [-(z @ flat).reshape(s.shape) - s for flat, s in zip(flats, ss)]
        rd_box = bound - box(z) - s_box
        gap = sum(float(np.sum(x * s)) for x, s in zip(xs, ss)) + float(x_box @ s_box)
        mu = gap / n_total

        pinf = float(np.abs(rp).max()) / (1.0 + bound)
        dinf_blocks = max(float(np.linalg.norm(r, axis=(1, 2)).max()) for r in rds)
        dinf_box = float(np.abs(rd_box).max(initial=0.0))
        dinf = max(dinf_blocks, dinf_box) / (1.0 + bound)
        if log_stream is not None:
            log_stream.write(f"iter {it:3d}  t={z[p]: .9e}  gap={gap:.3e}  "
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
            and z[p] >= FEAS_THRESHOLD
            and dinf <= 100 * RES_TOL
            and pinf <= 100 * RES_TOL
            and gap <= z[p]
        ):
            stop_reason = "certified"
            break
        # rounding floor: box products of size ~bound set a floor on the
        # attainable absolute gap; once near it, stop when progress dies
        # (mid-phase plateaus at large gap are left alone)
        stall_level = max(1e2 * GAP_TOL, 1e-12 * bound * n_total)
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
        w_box = np.sqrt(x_box / s_box)
        lam_box = np.sqrt(x_box * s_box)

        ws = [g @ _t(g) for g in gs]

        # Schur complement (Gram of scaled coefficient matrices) + box diagonal
        schur = np.zeros((q, q))
        for g, a in zip(gs, groups):
            flat = (_t(g) @ a @ g).reshape(q, -1)
            schur += flat @ flat.T
        w2 = w_box**2
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

        def newton(rcs, rc_box):
            """Newton direction; FloatingPointError if it is not finite."""
            with np.errstate(over="raise", invalid="raise"):
                rhs = rp.copy()
                for g, w, flat, rc, rd in zip(gs, ws, flats, rcs, rds):
                    term = g @ rc @ _t(g) - w @ rd @ w
                    rhs -= flat @ term.reshape(-1)
                rhs -= box_adjoint(w_box * rc_box - w_box**2 * rd_box)
                dz = schur_solve(rhs)
                # one refinement pass keeps the Schur solve honest near the boundary
                dz += schur_solve(rhs - schur @ dz)
                if not np.isfinite(dz).all():
                    raise FloatingPointError("non-finite Newton direction")
                d_ss = [
                    rd - (dz @ flat).reshape(rd.shape) for rd, flat in zip(rds, flats)
                ]
                d_xs = [
                    _sym(g @ rc @ _t(g) - w @ dsm @ w)
                    for g, w, rc, dsm in zip(gs, ws, rcs, d_ss)
                ]
                ds_box = rd_box - box(dz)
                dx_box = w_box * rc_box - w_box**2 * ds_box
            return dz, d_xs, d_ss, dx_box, ds_box

        def step_lengths(d_xs, d_ss, dx_box, ds_box):
            ap = min(
                [_max_step(lx, dx) for lx, dx in zip(lx_invs, d_xs)]
                + [_max_step_vec(x_box, dx_box)]
            )
            ad = min(
                [_max_step(ls, ds) for ls, ds in zip(ls_invs, d_ss)]
                + [_max_step_vec(s_box, ds_box)]
            )
            return ap, ad

        # Predictor: target 0, i.e. L_V^{-1}(-V^2) = -diag(lam)
        rc_aff = [-lam[..., None] * e for lam, e in zip(lams, eyes)]
        rc_box_aff = -lam_box
        try:
            dz_a, dxs_a, dss_a, dxbox_a, dsbox_a = newton(rc_aff, rc_box_aff)
        except (FloatingPointError, np.linalg.LinAlgError):
            stop_reason = "newton-failed"
            break

        ap, ad = step_lengths(dxs_a, dss_a, dxbox_a, dsbox_a)
        ap_aff = min(1.0, ap)
        ad_aff = min(1.0, ad)
        gap_aff = sum(
            float(np.sum((x + ap_aff * dx) * (s + ad_aff * ds)))
            for x, dx, s, ds in zip(xs, dxs_a, ss, dss_a)
        ) + float((x_box + ap_aff * dxbox_a) @ (s_box + ad_aff * dsbox_a))
        sigma = min(1.0, max(0.0, (gap_aff / gap)) ** 3)

        # Corrector with Mehrotra second-order term
        rcs = []
        for g, g_inv, lam, e, dx, ds in zip(gs, g_invs, lams, eyes, dxs_a, dss_a):
            cross = (g_inv @ dx @ _t(g_inv)) @ (_t(g) @ ds @ g)
            resid = (sigma * mu - lam**2)[..., None] * e - _sym(cross)
            denom = lam[..., :, None] + lam[..., None, :]
            rcs.append(2.0 * resid / denom)
        rc_box = (sigma * mu - lam_box**2 - dxbox_a * dsbox_a) / lam_box
        try:
            dz, dxs, dss, dx_box, ds_box = newton(rcs, rc_box)
        except (FloatingPointError, np.linalg.LinAlgError):
            stop_reason = "newton-failed"
            break

        ap, ad = step_lengths(dxs, dss, dx_box, ds_box)
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
        x_box = x_box + ap * dx_box
        s_box = s_box + ad * ds_box
        z = z + ad * dz

    t_star = float(z[p])
    # estimated uncertainty of the reported margin
    err = gap + (pinf + dinf) * (1.0 + bound)
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
        certificate=z[:p].copy(),
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
