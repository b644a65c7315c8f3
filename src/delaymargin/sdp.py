"""Embedded dense semidefinite feasibility solver.

Strict LMI feasibility is decided through a margin program: every
constraint block is stated as F(y) = sum_i y_i F_i > 0 (the LMI builder
negates the negative-definite conditions) and becomes F(y) - t*I >= 0, an
infinity-norm box |y_i| <= BOX_BOUND keeps the program bounded, and the
solver maximizes t.  The programs are homogeneous, as the stability
conditions are linear in the Lyapunov-Krasovskii matrices with no
constant term: y = 0 attains t = 0, so the optimal margin t* is never
negative, strict feasibility is exactly t* > 0, decided against
FEAS_THRESHOLD, and t* is BOX_BOUND times the optimum in the unit box.
``solve`` returns that optimum; ``decide_feasibility``, the decision
interface used by the bound search, stops earlier, at the first iterate
whose dual point already certifies a margin above the threshold within 2x
of the optimum.  The thresholds are the module constants GAP_TOL,
RES_TOL, FEAS_THRESHOLD and BOX_BOUND; ``solve`` takes only ``max_iter``,
``log_stream``, ``stop_when_certified`` and ``start``.  A ``ConeProgram``
is only its coefficient stacks: the variable count is read off them, and
every program is solved in the same box.

A run starts warm, from the ``snapshot`` of another run on a program of
the same block shapes (its iterate after SNAPSHOT_ITERATION iterations),
or cold, from a unit snapshot (X = I, y = 0, S a multiple of I).  Either
keeps the snapshot's X, box multipliers and y, and rebuilds S = F(y) - t I
for the new program, lowering t until S is no less definite than the
snapshot's, so every run starts exactly dual feasible and every threshold
and stopping rule applies to it unchanged.

The optimizer is a primal-dual predictor-corrector interior-point method
with Nesterov-Todd scaling, dense linear algebra throughout (problem sizes
here stay well below ~10^2 per block).  The box rows are a
nonnegative-orthant block with diagonal scaling, interleaved as
(B - y_i, B + y_i); their coefficient map and its adjoint are slices, so
they add only a diagonal to the Schur matrix.  Everything is
deterministic: fixed iteration schedule, no randomized pivoting.

Each solve stacks the blocks by size once, in its solver form: the k
blocks of size d share one (q, k, d, d) coefficient array and one
(2, k, d, d) array of (X, S); the residuals, NT scalings and search
directions are one array per size group too.  Each step of an iteration
(scaling, Schur accumulation, Newton right-hand side, step length,
update) is then one batched numpy call per size group, not one per
block; the stability LMIs have many equal-size n_x x n_x blocks.
Directions are taken in the NT-scaled frame, where X and S are both
diag(lam): the right-hand side, both step lengths and the Mehrotra cross
term come from the scaled coefficients G^T A_i G the Schur matrix is
built from, no inverse of X, S or G is formed, and only dX is mapped
back, by one congruence.
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

# Termination and decision thresholds, and the box bound B of every program.
GAP_TOL = 1e-8
RES_TOL = 1e-9
FEAS_THRESHOLD = 1e-7
BOX_BOUND = 1e4
# a run's snapshot is its iterate after this many iterations (the start is
# iterate 0), a warm start for nearby programs: late enough to skip the
# steps every nearby run repeats, early enough to sit well inside the cone
SNAPSHOT_ITERATION = 5


@dataclass
class ConeProgram:
    """max t  s.t.  sum_i y_i F_k[i] - t I >= 0 for all k, |y| <= BOX_BOUND.

    ``blocks`` holds one (num_y, d, d) stack F_k per constraint block, one
    finite symmetric coefficient matrix per y variable; there is no constant
    term, and the margin variable is implicit.  The number of variables
    ``num_y`` is read off the stacks, which must all share it.
    """

    blocks: list[np.ndarray]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("at least one constraint block is required")
        for stack in self.blocks:
            if not (isinstance(stack, np.ndarray) and stack.ndim == 3
                    and stack.shape == (self.num_y,) + stack.shape[-1:] * 2):
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
    program evaluates to sum_i y_i F_k[i] at it.  ``primal_blocks`` holds
    the last iterate's primal matrix X_k of each program block, in program
    order: the multipliers of F_k(y) - t I >= 0, whose traces sum to 1 at
    the optimum.  ``stop_reason`` is one of STOP_REASONS, ``margin_error``
    the estimated uncertainty of ``margin``, and ``gap``, ``primal`` and
    ``dual`` the duality gap and the normalized primal and dual residuals
    of the last iterate.  ``snapshot`` is the iterate after
    SNAPSHOT_ITERATION iterations, a ``start`` for a solve of a program of
    the same block shapes, or None when the run stopped before it.
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
    primal_blocks: list[np.ndarray] = field(default_factory=list, repr=False, compare=False)
    snapshot: _Iterate | None = field(default=None, repr=False, compare=False)

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


def _nt_scaling(pair: np.ndarray):
    """NT scaling of a size group's stacked (X, S): G with G G^T S G G^T = X
    per block, and the scaled point lam, G^{-1} X G^{-T} = G^T S G = diag(lam)."""
    lx, ls = np.linalg.cholesky(pair)
    _, lam, vt = np.linalg.svd(_t(ls) @ lx)
    return lx @ _t(vt) / np.sqrt(lam)[..., None, :], lam


def _ratio_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha with v + alpha*dv >= 0."""
    neg = dv < 0
    return float(np.min(-v[neg] / dv[neg])) if np.any(neg) else np.inf


def _side_minima(t: np.ndarray) -> list[float | None]:
    """Smallest eigenvalue of each side t[0], t[1] of a stack, from one
    eigensolve; None for a side that is not finite or whose eigensolve
    fails (the sides are then retried one by one)."""
    if np.isfinite(t).all():
        with suppress(np.linalg.LinAlgError):
            return list(np.linalg.eigvalsh(t)[..., 0].min(axis=1))
    return [None] if len(t) == 1 else [_side_minima(t[i : i + 1])[0] for i in range(len(t))]


def _step_lengths(scales, pairs, boxes, d_boxes) -> tuple[float, float]:
    """Largest primal and dual step lengths: the largest alpha with
    X + alpha*dX >= 0 (primal), S + alpha*dS >= 0 (dual) for every block,
    and box + alpha*d_box >= 0 for the box multipliers (primal) and slacks
    (dual).  Given each size group's stacked scaled direction (dX~, dS~)
    and its scales 1/sqrt(lam_i lam_j): X and S are diag(lam) when scaled,
    so a side's length is -1/lambda_min of its scaled direction, and both
    sides of a group share one eigensolve.  A side returns 0 on numerical
    breakdown, which makes the caller stall out and report the run as
    inconclusive instead of crashing.
    """
    steps = [[_ratio_step(v, dv)] for v, dv in zip(boxes, d_boxes)]
    with np.errstate(over="ignore", invalid="ignore"):
        for scale, pair in zip(scales, pairs):
            for side, lam_min in zip(steps, _side_minima(pair * scale)):
                if lam_min is None:
                    side.append(0.0)
                elif lam_min < -1e-16:
                    side.append(-1.0 / lam_min)
    return min(steps[0]), min(steps[1])


class _SolverForm:
    """The solver form: one A per block size, sizes ascending and blocks in
    program order, with S(z) = -sum_i z_i A[i]; the margin t is the last of
    the q = num_y + 1 variables, with A = I."""

    def __init__(self, program: ConeProgram):
        self.p = p = program.num_y
        self.q = q = p + 1  # margin variable t is last
        self.groups = []
        self.slots = [None] * len(program.blocks)  # (size group, index in it) per block
        for d in sorted({stack.shape[-1] for stack in program.blocks}):
            members = [k for k, stack in enumerate(program.blocks) if stack.shape[-1] == d]
            for index, k in enumerate(members):
                self.slots[k] = (len(self.groups), index)
            a = np.empty((q, len(members), d, d))
            a[:p] = -np.stack([program.blocks[k] for k in members], axis=1)
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
        out = np.empty(2 * self.p)
        out[0::2] = v[: self.p]
        out[1::2] = -v[: self.p]
        return out

    def box_adjoint(self, u: np.ndarray) -> np.ndarray:
        """Adjoint of ``box``: pairwise differences, zero for the margin."""
        out = np.empty(self.q)
        out[: self.p] = u[0::2] - u[1::2]
        out[self.p] = 0.0
        return out


class _Iterate(NamedTuple):
    """An iterate, or a Newton direction: (X, S) stacked as one (2, k, d, d)
    array per size group, box multipliers and slacks, z."""

    pairs: list[np.ndarray]
    x_box: np.ndarray
    s_box: np.ndarray
    z: np.ndarray

    @classmethod
    def start(cls, form: _SolverForm, snapshot: _Iterate | None = None) -> _Iterate:
        # The snapshot's X, box multipliers and y; S = F(y) - t I, t lowered until
        # lambda_min(S) is no smaller than the snapshot's (cold: X = I, S = eta I).
        if snapshot is None:
            eta = 10.0 * max([1.0] + [float(np.abs(a).max()) for a in form.groups])
            pairs = [np.multiply.outer((1.0, eta), np.broadcast_to(e, a.shape[1:]))
                     for a, e in zip(form.groups, form.eyes)]
            snapshot = cls(pairs, np.ones(2 * form.p), None, np.zeros(form.q))
        shapes = [(2,) + a.shape[1:] for a in form.groups]
        if [pair.shape for pair in snapshot.pairs] != shapes or snapshot.z.shape != (form.q,):
            raise ValueError("a start snapshot must come from a program of the same block shapes")
        z = snapshot.z.copy()
        slacks = [-(z @ flat).reshape(a.shape[1:]) for flat, a in zip(form.flats, form.groups)]
        lam_snapshot = min(float(np.linalg.eigvalsh(pair[1]).min()) for pair in snapshot.pairs)
        lam = min(float(np.linalg.eigvalsh(s).min()) for s in slacks)
        shift = max(0.0, lam_snapshot - lam)
        z[form.p] -= shift
        pairs = [np.stack((pair[0], s + shift * e))
                 for pair, s, e in zip(snapshot.pairs, slacks, form.eyes)]
        return cls(pairs, snapshot.x_box.copy(), BOX_BOUND - form.box(z), z)

    def update(self, step: _Iterate, alpha: float) -> _Iterate:
        """The point a step length alpha along the direction ``step``."""
        pairs = [_sym(pair + alpha * d) for pair, d in zip(self.pairs, step.pairs)]
        return _Iterate(pairs, *(v + alpha * dv for v, dv in zip(self[1:], step[1:])))


class _Breakdown(Exception):
    """No step can be taken from an iterate; the message is the stop reason."""


def _residuals(form: _SolverForm, state: _Iterate):
    """(rp, rds, rd_box), the gap, and the normalized primal and dual residuals."""
    pairs, x_box, s_box, z = state
    ax = form.box_adjoint(x_box)
    for flat, pair in zip(form.flats, pairs):
        ax += flat @ pair[0].reshape(-1)
    rp = form.b_obj - ax
    rds = [-(z @ flat).reshape(pair.shape[1:]) - pair[1] for flat, pair in zip(form.flats, pairs)]
    rd_box = BOX_BOUND - form.box(z) - s_box
    gap = sum(float(np.vdot(pair[0], pair[1])) for pair in pairs) + float(x_box @ s_box)
    pinf = float(np.abs(rp).max()) / (1.0 + BOX_BOUND)
    dinf_blocks = max(float(np.linalg.norm(r, axis=(1, 2)).max()) for r in rds)
    dinf_box = float(np.abs(rd_box).max(initial=0.0))
    dinf = max(dinf_blocks, dinf_box) / (1.0 + BOX_BOUND)
    return (rp, rds, rd_box), gap, pinf, dinf


class _Newton:
    """An iterate's NT scalings (G, lam), one stack per size group, its
    scaled coefficients A~_i = G^T A_i G and dual residuals rd~ = G^T rd G,
    and its Schur factor.  A direction is formed scaled, where X and S are
    both diag(lam): dS~ = rd~ - sum_i dz_i A~_i and dX~ = rc - dS~."""

    jitters = (0.0, 1e-13, 1e-10, 1e-7)  # Schur regularization levels, tried upward

    def __init__(self, form: _SolverForm, state: _Iterate, residual, jitter_floor: int):
        self.form, self.state = form, state
        self.rp, self.rds, self.rd_box = residual
        try:
            self.gs, self.lams = zip(*[_nt_scaling(pair) for pair in state.pairs])
        except np.linalg.LinAlgError:
            raise _Breakdown("nt-scaling-failed") from None
        roots = [1.0 / np.sqrt(lam) for lam in self.lams]  # diag(lam)^(-1/2) congruence
        self.scales = [r[..., :, None] * r[..., None, :] for r in roots]
        self.w_box = np.sqrt(state.x_box / state.s_box)
        self.lam_box = np.sqrt(state.x_box * state.s_box)

        # Schur complement: Gram of the symmetrized scaled coefficients, exactly
        # symmetric (the infeasible endgame is sensitive to rounding asymmetry)
        self.flats = [_sym(_t(g) @ a @ g).reshape(form.q, -1) for g, a in zip(self.gs, form.groups)]
        schur = sum(flat @ flat.T for flat in self.flats)
        self.rds_scaled = [_t(g) @ rd @ g for g, rd in zip(self.gs, self.rds)]
        w2 = self.w_box**2
        schur[np.diag_indices(form.p)] += w2[0::2] + w2[1::2]
        self.schur = schur
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
        """Scaled Newton direction for (rcs, rc_box), each size group's
        (dX~, dS~) stacked, and its primal and dual step lengths."""
        form, w_box = self.form, self.w_box
        try:
            with np.errstate(over="raise", invalid="raise"):
                rhs = self.rp - form.box_adjoint(w_box * rc_box - w_box**2 * self.rd_box)
                for flat, rc, rd in zip(self.flats, rcs, self.rds_scaled):
                    rhs -= flat @ (rc - rd).reshape(-1)
                dz = self.factor_inv.T @ (self.factor_inv @ rhs)
                # one refinement pass keeps the Schur solve honest near the boundary
                dz += self.factor_inv.T @ (self.factor_inv @ (rhs - self.schur @ dz))
                if not np.isfinite(dz).all():
                    raise FloatingPointError("non-finite Newton direction")
                pairs = [np.empty((2,) + rd.shape) for rd in self.rds_scaled]
                for pair, flat, rc, rd in zip(pairs, self.flats, rcs, self.rds_scaled):
                    np.subtract(rd, (dz @ flat).reshape(rd.shape), out=pair[1])
                    np.subtract(rc, pair[1], out=pair[0])
                ds_box = self.rd_box - form.box(dz)
                dx_box = w_box * rc_box - w_box**2 * ds_box
        except (FloatingPointError, np.linalg.LinAlgError):
            raise _Breakdown("newton-failed") from None
        boxes = (self.state.x_box, self.state.s_box)
        ap, ad = _step_lengths(self.scales, pairs, boxes, (dx_box, ds_box))
        return _Iterate(pairs, dx_box, ds_box, dz), ap, ad

    def unscale(self, scaled: _Iterate) -> _Iterate:
        """A scaled direction in the iterate's frame: dX = G dX~ G^T, and
        dS = rd - sum_i dz_i A_i from the unscaled coefficients."""
        pairs = [np.empty_like(d) for d in scaled.pairs]
        for pair, g, flat, rd, d in zip(pairs, self.gs, self.form.flats, self.rds, scaled.pairs):
            np.matmul(g @ d[0], _t(g), out=pair[0])
            np.subtract(rd, (scaled.z @ flat).reshape(rd.shape), out=pair[1])
        return scaled._replace(pairs=pairs)


def _predictor_corrector(newton: _Newton, gap: float) -> tuple[_Iterate, float]:
    """One Mehrotra predictor-corrector step: the direction and its length."""
    form, state, lam_box = newton.form, newton.state, newton.lam_box
    mu = gap / form.n_total
    # Predictor: target 0, i.e. L_V^{-1}(-V^2) = -diag(lam)
    rc_aff = [-lam[..., None] * e for lam, e in zip(newton.lams, form.eyes)]
    aff, ap, ad = newton.direction(rc_aff, -lam_box)
    ap_aff, ad_aff = min(1.0, ap), min(1.0, ad)
    # the gap is frame-invariant: <X, S> = <diag(lam), diag(lam)> when scaled
    gap_aff = sum(
        float(np.vdot(ap_aff * d[0] - rc, ad_aff * d[1] - rc))
        for rc, d in zip(rc_aff, aff.pairs)
    ) + float((state.x_box + ap_aff * aff.x_box) @ (state.s_box + ad_aff * aff.s_box))
    sigma = min(1.0, max(0.0, (gap_aff / gap)) ** 3)

    # Corrector with Mehrotra second-order term dX~ dS~
    rcs = []
    for lam, e, d in zip(newton.lams, form.eyes, aff.pairs):
        resid = (sigma * mu - lam**2)[..., None] * e - _sym(d[0] @ d[1])
        denom = lam[..., :, None] + lam[..., None, :]
        rcs.append(2.0 * resid / denom)
    rc_box = (sigma * mu - lam_box**2 - aff.x_box * aff.s_box) / lam_box
    step, ap, ad = newton.direction(rcs, rc_box)
    # equal primal/dual steps: keeps the duality gap monotone on the
    # degenerate geometries the margin program produces
    gamma = 0.9 + 0.09 * min(1.0, ap, ad)
    return newton.unscale(step), min(1.0, gamma * ap, gamma * ad)


def solve(
    program: ConeProgram,
    *,
    stop_when_certified: bool = False,
    max_iter: int = 100,
    log_stream: TextIO | None = None,
    start: _Iterate | None = None,
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

    ``start``, when given, is the ``snapshot`` of another run, on a program
    of the same block shapes (ValueError otherwise); the run starts from it
    instead of cold, and returns its own snapshot either way.
    """
    form = _SolverForm(program)
    state = _Iterate.start(form, start)
    snapshot = None
    # rounding floor: box products of size ~BOX_BOUND set a floor on the
    # attainable absolute gap; once near it, stop when progress dies
    # (mid-phase plateaus at large gap are left alone)
    stall_level = max(1e2 * GAP_TOL, 1e-12 * BOX_BOUND * form.n_total)
    stop_reason = "max-iter"
    gap = pinf = dinf = np.inf
    it = 0
    best_gap = np.inf
    stall_count = 0
    jitter_floor = 0
    for it in range(1, max_iter + 1):
        if it == SNAPSHOT_ITERATION + 1:
            snapshot = state
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
    err = gap + (pinf + dinf) * (1.0 + BOX_BOUND)
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
        primal_blocks=[state.pairs[group][0, index].copy() for group, index in form.slots],
        snapshot=snapshot,
    )


# ---------------------------------------------------------------------------
# Decision interface.
# ---------------------------------------------------------------------------


def decide_feasibility(program: ConeProgram, start: _Iterate | None = None) -> FeasibilityResult:
    """Decide strict feasibility of a margin program.

    Unlike a bare ``solve``, this stops at the first iterate that certifies
    FEASIBLE (stop reason ``certified``), so a feasible margin is a
    certified lower bound within 2x of the optimum; infeasible and
    inconclusive verdicts still come from the full solve.  ``start`` is
    ``solve``'s: a snapshot of a run on a program of the same block shapes,
    or None for a cold start.
    """
    return solve(program, stop_when_certified=True, start=start)


def verify_certificate(program: ConeProgram, result: FeasibilityResult) -> bool:
    """Independently re-check a feasible certificate via eigenvalues.

    Returns True iff the solver's own vector y is finite and every block
    sum_i y_i F_k[i] at it is strictly positive definite.
    """
    if not result.feasible:
        raise ValueError("certificate verification requires a feasible result")
    if not np.all(np.isfinite(result.certificate)):
        return False
    for stack in program.blocks:
        mat = np.tensordot(result.certificate, stack, axes=1)
        if not np.linalg.eigvalsh(0.5 * (mat + mat.T))[0] > 0:  # NaN fails too
            return False
    return True
