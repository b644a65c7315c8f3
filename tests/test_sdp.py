"""Solver tests against analytically solvable margin programs."""

import io
from dataclasses import fields, replace

import numpy as np
import pytest

from delaymargin.lmi import (
    DelaySystem,
    HierarchyParams,
    VariableLayout,
    assemble_stability_lmis,
    nodv,
)
from delaymargin.systems import bundled_system
from delaymargin.sdp import (
    FEASIBLE,
    INCONCLUSIVE,
    INFEASIBLE,
    BOX_BOUND,
    RES_TOL,
    SNAPSHOT_ITERATION,
    ConeProgram,
    decide_feasibility,
    solve,
    _Iterate,
    _Newton,
    _SolverForm,
    _nt_scaling,
    _predictor_corrector,
    _residuals,
    _step_lengths,
    _sym,
    _t,
    verify_certificate,
)
from oracles import cholesky_frame_step, derivative_block, pack, unpack


def stack(*coefficients):
    """A coefficient stack, one symmetric matrix per y variable."""
    return np.array(coefficients, dtype=float)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def oracle_cases():
    """Ten homogeneous margin programs with closed-form optima.

    Each is small enough to solve by hand: diagonal structure, a single
    coupling, or a box-active optimum.  Every program is solved in the box
    |y_i| <= B = BOX_BOUND, so each optimum is B times its unit-box value.
    A constant term C is stated as y_0 C on an extra variable y_0, which
    attains the optimum at the box, y_0 = B.
    """
    b = BOX_BOUND
    cases = []

    # 1. scalar free variable, tight box: t* = B
    cases.append(("scalar-box", ConeProgram([stack([[1.0]])]), b))
    # 2. antagonistic pair: only the zero margin is attainable
    cases.append(("antagonistic", ConeProgram([stack(np.diag([1.0, -1.0]))]), 0.0))
    # 3. a constant block y_0 C: margin is B times the smallest eigenvalue of C
    c = np.array([[3.5, 1.5], [1.5, 3.5]])  # eigenvalues 2 and 5
    cases.append(("constant-only", ConeProgram([stack(c)]), 2.0 * b))
    # 4. identity direction with box: t* = B
    cases.append(("identity-box", ConeProgram([stack(np.eye(2))]), b))
    # 5. two scalar blocks y_1 and y_0 - y_1: balance at B/2
    balance = [stack([[0.0]], [[1.0]]), stack([[1.0]], [[-1.0]])]
    cases.append(("balance", ConeProgram(balance), 0.5 * b))
    # 6. y_1 diag(1, -1) + y_2 [[0, 1], [1, 0]] has eigenvalues +-|y|:
    # only the zero margin is attainable
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    cases.append(("rotated-antagonistic", ConeProgram([stack(np.diag([1.0, -1.0]), swap)]), 0.0))
    # 7. rotated coordinates: same optimum as diag(y_1, 2 y_0 - y_1)
    q = rotation(0.6)
    rotated = stack(q @ np.diag([0.0, 2.0]) @ q.T, q @ np.diag([1.0, -1.0]) @ q.T)
    cases.append(("rotated-balance", ConeProgram([rotated]), b))
    # 8. box-active slope: eigenvalues y_1 and 2 y_1 - y_0, maximal at
    # y_1 = -y_0 = B
    slope = stack(np.diag([0.0, -1.0]), np.diag([1.0, 2.0]))
    cases.append(("box-active-slope", ConeProgram([slope]), b))
    # 9. three variables sharing a budget of 4 y_0: symmetric optimum at B
    st = np.zeros((4, 4, 4))
    st[0, 3, 3] = 4.0
    for i in range(1, 4):
        st[i, i - 1, i - 1] = 1.0
        st[i, 3, 3] = -1.0
    cases.append(("budget-split", ConeProgram([st]), b))
    # 10. fixed off-diagonal coupling: at the box corner eigenvalues are (2 -+ 0.3) B
    corner = stack(
        [[1.0, 0.3], [0.3, 1.0]], np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    )
    cases.append(("coupled-corner", ConeProgram([corner]), 1.7 * b))
    return cases


@pytest.mark.parametrize("name,program,expected", oracle_cases(), ids=[c[0] for c in oracle_cases()])
def test_oracle_margins(name, program, expected):
    result = solve(program)
    assert result.margin == pytest.approx(expected, abs=1e-7)
    # bare solve is an exact maximizer: it never stops at the verdict
    assert result.stop_reason != "certified"
    # y = 0 attains t = 0, so a zero optimum means strictly infeasible
    assert result.status == (FEASIBLE if expected > 0 else INFEASIBLE)


def mixed_size_program():
    """Three 2x2 blocks, one 3x3 and one 1x1 over (y_0, y) in R^4: at
    y_0 = B the binding eigenvalues are y_1, y_2, y_3 and 2B - y_1 - y_2 - y_3,
    so t* = B/2 at y = (B/2, B/2, B/2); every other eigenvalue keeps slack
    there.  The equal-size blocks differ in their y_0 term and rotation, so
    a block paired with another's data changes the program."""
    blocks = []
    for i, (cap, theta) in enumerate(((5.0, 0.3), (6.0, 1.1), (7.0, 2.0))):
        q = rotation(theta)
        st = np.zeros((4, 2, 2))
        st[0] = q @ np.diag([0.0, cap]) @ q.T
        st[1 + i] = q @ np.diag([1.0, -1.0]) @ q.T
        blocks.append(st)
    q3 = np.linalg.qr(np.array([[1.0, 2.0, 0.5], [0.3, -1.0, 2.0], [1.5, 0.2, 1.0]]))[0]
    st = np.zeros((4, 3, 3))
    st[0] = np.diag([2.0, 4.0, 6.0])
    st[1:, 0, 0] = -1.0
    st[1, 1, 1] = 1.0
    st[2, 2, 2] = st[3, 2, 2] = 1.0
    blocks.append(q3[None] @ st @ q3.T[None])
    blocks.append(stack([[1.0]], [[1.0]], [[-1.0]], [[0.0]]))  # y_0 + y_1 - y_2
    return ConeProgram(blocks)


def test_blocks_of_mixed_sizes_are_stacked_consistently():
    program = mixed_size_program()
    result = solve(program)
    assert result.status == FEASIBLE
    assert result.margin == pytest.approx(0.5 * BOX_BOUND, abs=1e-7)
    order = (4, 1, 3, 0, 2)  # sizes 1, 2, 3, 2, 2
    permuted = ConeProgram([program.blocks[k] for k in order])
    other = solve(permuted)
    assert other.status == result.status
    assert other.margin == pytest.approx(result.margin, abs=1e-9)


def test_primal_blocks_come_in_program_order():
    # the solver groups the blocks by size; the result lists the last
    # iterate's X per program block, the multipliers of F_k(y) - t I >= 0
    program = mixed_size_program()
    result = solve(program)
    sizes = [block.shape[-1] for block in program.blocks]
    assert [x.shape for x in result.primal_blocks] == [(d, d) for d in sizes]
    # stationarity in t: the traces sum to 1; complementary slackness per block
    assert sum(np.trace(x) for x in result.primal_blocks) == pytest.approx(1.0, abs=1e-8)
    for x, block in zip(result.primal_blocks, program.blocks):
        slack = np.tensordot(result.certificate, block, axes=1) - result.margin * np.eye(len(x))
        assert abs(np.sum(x * slack)) <= 1e-8
    order = (4, 1, 3, 0, 2)
    permuted = solve(ConeProgram([program.blocks[k] for k in order]))
    for x, k in zip(permuted.primal_blocks, order):
        np.testing.assert_allclose(x, result.primal_blocks[k], atol=1e-7)


def test_stop_reason():
    program = oracle_cases()[0][1]
    assert solve(program).stop_reason == "converged"
    assert solve(program, max_iter=3).stop_reason == "max-iter"


def test_status_three_way_rule():
    # a decided run is FEASIBLE or INFEASIBLE by the sign of its margin; an
    # undecided one is inconclusive, whatever its margin
    cases = oracle_cases()
    assert solve(cases[0][1]).status == FEASIBLE  # t* = B
    res = solve(cases[1][1])  # t* = 0
    assert res.stop_reason == "converged"
    assert res.status == INFEASIBLE
    assert abs(res.margin) < 1e-8
    res = solve(cases[5][1], max_iter=3)  # t* = 0, stopped early
    assert res.margin < 0
    assert res.status == INCONCLUSIVE


def test_determinism_bitwise():
    program = oracle_cases()[8][1]
    r1 = solve(program)
    r2 = solve(program)
    assert r1.margin == r2.margin
    assert r1.status == r2.status
    assert r1.iterations == r2.iterations
    assert np.array_equal(r1.certificate, r2.certificate)


def test_feasible_is_decided_by_the_dual_iterate():
    # stopped early, the primal residual is far from converged, but the dual
    # iterate already certifies a positive margin at its y
    program = oracle_cases()[0][1]  # scalar-box, t* = B
    res = solve(program, max_iter=3)
    assert res.primal > 100 * RES_TOL
    assert res.status == FEASIBLE
    for st in program.blocks:
        mat = np.tensordot(res.certificate, st, axes=1)
        assert np.linalg.eigvalsh(mat)[0] >= res.margin * (1 - 1e-9)
    # the primal residual still gates the infeasible verdict
    res = solve(oracle_cases()[5][1], max_iter=2)  # rotated-antagonistic, t* = 0
    assert res.primal > 100 * RES_TOL
    assert res.status == INCONCLUSIVE


def test_stalled_primal_residual_does_not_hide_feasibility():
    # the n_x = 3 system drawn from seed 2 by the synthetic-system recipe
    # (A = -aI + eps G1, A_d1 = -bI + eps G2): at M=2, m=1, tau=0.625 the
    # margin is ~5.5e3 with a clean dual iterate, while the primal residual
    # may stall above the convergence tolerance
    rng = np.random.default_rng(2)
    a = rng.uniform(0.8, 1.2)
    b = a * rng.uniform(1.5, 2.5)
    g1 = rng.standard_normal((3, 3))
    g2 = rng.standard_normal((3, 3))
    sys = DelaySystem(
        -a * np.eye(3) + 0.1 * g1, -b * np.eye(3) + 0.1 * g2
    )
    program = assemble_stability_lmis(sys, HierarchyParams(2, 1), 0.625)
    res = decide_feasibility(program)
    assert res.status == FEASIBLE
    assert res.margin > 1e3
    assert verify_certificate(program, res)


def test_step_collapse_retries_with_regularized_schur_solve():
    # just above the M=3, m=3 bound of example3 (~1.71779) the Schur system
    # turns ill-conditioned mid-solve and the corrector step collapses; a
    # more regularized retry still converges to a decided verdict
    sys = DelaySystem(
        [[0.0, 1.0], [-2.0, 0.1]], [[0.0, 0.0], [1.0, 0.0]], name="example3"
    )
    program = assemble_stability_lmis(sys, HierarchyParams(3, 3), 1.7181396484375)
    res = decide_feasibility(program)
    assert res.status == INFEASIBLE


def test_step_lengths_break_down_per_side(monkeypatch):
    # X = S = I in two 3x3 blocks, so lam = 1 and the scaled directions are
    # dX and dS themselves; the primal side may step to 0.5, the dual side
    # to 0.25, the box rows to 10
    scale = np.ones((2, 3, 3))
    dx = -np.stack([np.eye(3), 2.0 * np.eye(3)])
    ds = -4.0 * np.stack([np.eye(3), np.eye(3)])
    box, d_box = np.ones(2), np.array([-0.1, 0.1])

    def steps(dx, ds):
        return _step_lengths([scale], [np.stack((dx, ds))], (box, box), (d_box, d_box))

    assert steps(dx, ds) == (0.5, 0.25)
    # a non-finite side steps 0, the other side is unaffected
    broken = ds.copy()
    broken[1, 0, 0] = np.inf
    assert steps(dx, broken) == (0.5, 0.0)
    broken = dx.copy()
    broken[0, 2, 2] = np.nan
    assert steps(broken, ds) == (0.0, 0.25)
    # so does a side whose eigensolve fails
    real_eigvalsh = np.linalg.eigvalsh

    def failing(t):
        if (t == 7.0).any():
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return real_eigvalsh(t)

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    broken = ds.copy()
    broken[0, 1, 1] = 7.0
    assert steps(dx, broken) == (0.5, 0.0)


@pytest.mark.parametrize("d", [2, 8, 10])
def test_scaled_step_lengths_match_the_cholesky_frame(d):
    # the NT-scaled frame, where X and S are both diag(lam), gives the step
    # lengths lambda_min(L^{-1} dX L^{-T}) of X = L L^T, and likewise for S
    rng = np.random.default_rng(d)

    def draw(k, definite):
        m = rng.standard_normal((k, d, d))
        return m @ m.swapaxes(1, 2) + 0.1 * np.eye(d) if definite else m + m.swapaxes(1, 2)

    no_box = (np.ones(1), np.ones(1)), (np.zeros(1), np.zeros(1))
    for _ in range(5):
        x, s, dx, ds = draw(3, True), draw(3, True), draw(3, False), draw(3, False)
        g, lam = _nt_scaling(np.stack((x, s)))
        g_inv = np.linalg.inv(g)
        scaled = np.stack((g_inv @ dx @ g_inv.swapaxes(1, 2), g.swapaxes(1, 2) @ ds @ g))
        scale = 1.0 / np.sqrt(lam[..., :, None] * lam[..., None, :])
        primal, dual = _step_lengths([scale], [scaled], *no_box)
        assert primal == pytest.approx(min(map(cholesky_frame_step, x, dx)), rel=1e-9)
        assert dual == pytest.approx(min(map(cholesky_frame_step, s, ds)), rel=1e-9)


def test_scaled_direction_solves_the_newton_system():
    # at a mid-run iterate of a ladder program, the scaled direction mapped
    # back solves A(dX) + box^T(dx_box) = rp, dS + sum_i dz_i A_i = rd and
    # G^{-1} dX G^{-T} + G^T dS G = rc for a symmetric rc; the residuals
    # are perturbed, as the iterates stay dual feasible from the start
    program = assemble_stability_lmis(bundled_system("example1")[0], HierarchyParams(3, 1), 3.0)
    form = _SolverForm(program)
    state = _Iterate.start(form)
    for _ in range(6):
        residual, gap, _, _ = _residuals(form, state)
        step, alpha = _predictor_corrector(_Newton(form, state, residual, 0), gap)
        state = state.update(step, alpha)
    (rp, rds, rd_box), _, _, _ = _residuals(form, state)
    rng = np.random.default_rng(3)
    rp = rp + 1e-3 * rng.standard_normal(rp.shape)
    rds = [rd + 1e-3 * _sym(rng.standard_normal(rd.shape)) for rd in rds]
    rd_box = rd_box + 1e-3 * rng.standard_normal(rd_box.shape)
    newton = _Newton(form, state, (rp, rds, rd_box), 0)
    rcs = [_sym(rng.standard_normal(pair.shape[1:])) for pair in state.pairs]
    rc_box = rng.standard_normal(2 * form.p)
    step = newton.unscale(newton.direction(rcs, rc_box)[0])

    def assert_solves(terms, rhs):
        scale = max(float(np.abs(t).max()) for t in [*terms, rhs])
        assert np.abs(sum(terms) - rhs).max() <= 1e-10 * scale

    primal = [flat @ pair[0].reshape(-1) for flat, pair in zip(form.flats, step.pairs)]
    assert_solves([form.box_adjoint(step.x_box), *primal], rp)
    for flat, pair, rd in zip(form.flats, step.pairs, rds):
        assert_solves([pair[1], (step.z @ flat).reshape(rd.shape)], rd)
    for g, pair, rc in zip(newton.gs, step.pairs, rcs):
        g_inv = np.linalg.inv(g)
        assert_solves([g_inv @ pair[0] @ g_inv.swapaxes(1, 2), g.swapaxes(1, 2) @ pair[1] @ g], rc)
    assert_solves([step.s_box, form.box(step.z)], rd_box)


def test_margin_error_covers_negative_homogeneous_margin():
    # the stability LMIs are homogeneous: y = 0 attains t = 0, so the exact
    # optimum is >= 0 and a negative reported margin is off by at least
    # its own size (example3 at M=3, m=3, just above its bound)
    sys = DelaySystem(
        [[0.0, 1.0], [-2.0, 0.1]], [[0.0, 0.0], [1.0, 0.0]], name="example3"
    )
    res = decide_feasibility(assemble_stability_lmis(sys, HierarchyParams(3, 3), 1.71875))
    assert res.margin < 0
    assert res.margin_error >= -res.margin


def test_redundant_identity_block_is_inert():
    # adding y_0 I >= 0 cannot change a margin below y_0 <= B
    base = oracle_cases()[4][1]  # balance, t* = B/2 < B
    augmented = ConeProgram(base.blocks + [stack(np.eye(3), np.zeros((3, 3)))])
    r1 = solve(base)
    r2 = solve(augmented)
    assert r2.margin == pytest.approx(r1.margin, abs=1e-7)


def test_scaling_covariance():
    base = oracle_cases()[6][1]  # rotated balance, t* = B
    alpha = 3.7
    scaled = ConeProgram([alpha * st for st in base.blocks])
    r1 = solve(base)
    r2 = solve(scaled)
    assert r2.margin == pytest.approx(alpha * r1.margin, rel=1e-7)


def test_rejects_invalid_programs():
    with pytest.raises(ValueError):
        ConeProgram([])
    with pytest.raises(ValueError):
        ConeProgram([np.zeros((1, 2, 3))])  # not square
    with pytest.raises(ValueError):
        # the second stack has one matrix more than the first
        ConeProgram([np.zeros((1, 2, 2)), np.zeros((2, 2, 2))])
    with pytest.raises(ValueError):
        ConeProgram([np.zeros((2, 2))])  # not a stack
    # a program is only its stacks: there is no box or variable count to set
    assert [f.name for f in fields(ConeProgram)] == ["blocks"]
    with pytest.raises(TypeError):
        ConeProgram([np.zeros((1, 2, 2))], box_bound=1.0)
    with pytest.raises(TypeError):
        ConeProgram([np.zeros((1, 2, 2))], 1.0)
    asym = np.zeros((1, 2, 2))
    asym[0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        ConeProgram([asym])
    # no relative slack: an asymmetry of 5e-6 on unit entries is rejected
    with pytest.raises(ValueError, match="symmetric"):
        ConeProgram([np.array([[[1.0, 1.0], [1.000005, 1.0]]])])
    # non-finite entries are rejected up front, without a RuntimeWarning
    with pytest.raises(ValueError, match="finite"):
        ConeProgram([np.array([[[1.0, np.inf], [np.inf, 1.0]]])])
    with pytest.raises(ValueError, match="finite"):
        ConeProgram([np.array([[[np.nan, 0.0], [0.0, 1.0]]])])
    # the tolerance scales with the largest entry: 1e-13 relative passes
    ConeProgram([np.array([[[1e6, 1e6], [1e6 + 1e-7, 1e6]]])])


def test_iteration_log_stream():
    stream = io.StringIO()
    program = oracle_cases()[0][1]
    solve(program, log_stream=stream)
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) >= 3
    assert all("gap=" in ln for ln in lines)


def example1():
    return DelaySystem(
        [[-2.0, 0.0], [0.0, -0.9]], [[-1.0, 0.0], [-1.0, -1.0]], name="example1"
    )


def example1_program(tau):
    return assemble_stability_lmis(example1(), HierarchyParams(1, 1), tau)


def test_delay_lmi_feasibility_at_published_bounds():
    res = decide_feasibility(example1_program(6.0))
    assert res.status == FEASIBLE
    res = decide_feasibility(example1_program(6.2))
    assert res.status == INFEASIBLE


def test_decision_stops_at_first_certifying_iterate():
    program = example1_program(6.0)
    full = solve(program)
    res = decide_feasibility(program)
    assert res.status == FEASIBLE
    assert res.stop_reason == "certified"
    assert res.iterations < full.iterations
    # gap <= margin keeps the certified margin within 2x of the optimum
    err = res.margin_error + full.margin_error
    assert 0.5 * full.margin - err <= res.margin <= full.margin + err
    assert verify_certificate(program, res)


# (M, m) = (3, 1) upper bounds of the bundled examples, to bisection tol 1e-5
_BOUNDS_3_1 = {"example1": 6.1725044, "example2": 2.0412350, "example3": 1.7177868}


@pytest.mark.parametrize("cell", [(1, 1), (3, 1)])
@pytest.mark.parametrize("name", sorted(_BOUNDS_3_1))
def test_decision_is_a_prefix_of_the_full_run(name, cell):
    # the early exit truncates the same iteration sequence: after k
    # iterations the decision's iterate is the one a solve with budget k - 1
    # ends on, bit for bit
    sys = bundled_system(name)[0]
    program = assemble_stability_lmis(sys, HierarchyParams(*cell), 0.5 * _BOUNDS_3_1[name])
    res = decide_feasibility(program)
    assert res.stop_reason == "certified"
    prefix = solve(program, max_iter=res.iterations - 1)
    assert prefix.stop_reason == "max-iter"
    assert prefix.margin.hex() == res.margin.hex()
    assert prefix.certificate.tobytes() == res.certificate.tobytes()


@pytest.mark.parametrize("name", sorted(_BOUNDS_3_1))
def test_early_exit_keeps_verdicts_near_the_bound(name):
    sys = bundled_system(name)[0]
    for offset in (-1e-1, -1e-2, -1e-3, 1e-3, 1e-2, 1e-1):
        program = assemble_stability_lmis(
            sys, HierarchyParams(3, 1), _BOUNDS_3_1[name] + offset
        )
        full = solve(program)
        if full.status == INCONCLUSIVE:
            continue
        assert decide_feasibility(program).status == full.status, offset


# ---------------------------------------------------------------------------
# Warm starts from another run's snapshot.
# ---------------------------------------------------------------------------


def perturbed(program):
    """The program with every coefficient moved by symmetric noise of about
    1% of its block's largest entry (seeded)."""
    rng = np.random.default_rng(0)
    blocks = []
    for st in program.blocks:
        noise = rng.standard_normal(st.shape)
        blocks.append(st + 0.005 * max(1.0, np.abs(st).max()) * (noise + _t(noise)))
    return ConeProgram(blocks)


def first_dinf(log: io.StringIO) -> float:
    """The normalized dual residual the log reports at iteration 1."""
    first = log.getvalue().splitlines()[0]
    assert first.startswith("iter   1 ")
    return float(first.split("dinf=")[1])


_WARM_CASES = oracle_cases() + [("mixed-size", mixed_size_program(), 0.5 * BOX_BOUND)]


@pytest.mark.parametrize("name,program,expected", _WARM_CASES, ids=[c[0] for c in _WARM_CASES])
def test_warm_start_reaches_the_oracle_margins(name, program, expected):
    # started from a perturbed program's snapshot, the run starts exactly
    # dual feasible, as a cold run does, and ends at the same optimum
    snapshot = solve(perturbed(program)).snapshot
    log = io.StringIO()
    result = solve(program, start=snapshot, log_stream=log)
    assert first_dinf(log) <= 1e-14
    assert result.margin == pytest.approx(expected, abs=1e-7)
    assert result.status == (FEASIBLE if expected > 0 else INFEASIBLE)


@pytest.mark.parametrize("tau", [6.0, 6.2])
def test_warm_start_on_a_nearby_delay_keeps_the_verdict(tau):
    # a decision on example1 (1, 1) started from the snapshot of the
    # decision at tau + 0.01: dual feasible at iteration 1, the cold
    # verdict, a certificate that verifies, and deterministic
    snapshot = decide_feasibility(example1_program(tau + 0.01)).snapshot
    program = example1_program(tau)
    log = io.StringIO()
    warm = solve(program, stop_when_certified=True, start=snapshot, log_stream=log)
    assert first_dinf(log) <= 1e-14
    verdict = FEASIBLE if tau < 6.1 else INFEASIBLE
    assert warm.status == decide_feasibility(program).status == verdict
    if warm.feasible:
        assert verify_certificate(program, warm)
    again = decide_feasibility(program, snapshot)
    assert again.margin.hex() == warm.margin.hex() and again.iterations == warm.iterations
    assert again.certificate.tobytes() == warm.certificate.tobytes()


def test_snapshot_is_the_iterate_after_snapshot_iteration_iterations():
    program = mixed_size_program()
    result = solve(program)
    truncated = solve(program, max_iter=SNAPSHOT_ITERATION)
    assert truncated.snapshot is None
    assert truncated.certificate.tobytes() == result.snapshot.z[: program.num_y].tobytes()
    # like the X blocks, the snapshot is neither shown nor compared
    assert "snapshot" not in repr(result)
    assert replace(result, snapshot=None) == result


def test_snapshot_of_another_shape_is_rejected():
    snapshot = solve(mixed_size_program()).snapshot
    with pytest.raises(ValueError, match="same block shapes"):
        solve(oracle_cases()[0][1], start=snapshot)
    cell = bundled_system("example1")[0]
    snapshot = decide_feasibility(example1_program(3.0)).snapshot
    with pytest.raises(ValueError, match="same block shapes"):
        decide_feasibility(assemble_stability_lmis(cell, HierarchyParams(3, 1), 3.0), snapshot)


def test_margin_program_structure():
    # the LMI builder emits the margin program: homogeneous, with the
    # negative-definite derivative condition arriving negated
    sys = example1()
    params = HierarchyParams(1, 1)
    program = example1_program(1.0)
    assert program.num_y == nodv(params, sys.n_x)
    y = np.random.default_rng(3).normal(size=program.num_y)
    dv = unpack(VariableLayout(sys.n_x, params), y)
    want = -derivative_block(sys, params, 1.0, dv.p, dv.qs, dv.rs)
    got = np.tensordot(y, program.blocks[1], axes=1)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, float(np.abs(want).max()))


def test_feasible_certificate_margin_consistency():
    # re-evaluated block eigenvalues must support the reported margin
    program = example1_program(6.0)
    res = decide_feasibility(program)
    assert res.status == FEASIBLE
    floor = res.margin * (1 - 1e-6) - 1e-9
    for k, st in enumerate(program.blocks):
        mat = np.tensordot(res.certificate, st, axes=1)
        attained = np.linalg.eigvalsh(mat)[0]
        assert attained >= floor, (k, attained, res.margin)


def test_certificate_roundtrip_and_tampering():
    program = example1_program(6.0)
    res = decide_feasibility(program)
    assert res.status == FEASIBLE
    assert verify_certificate(program, res)
    # zeroing the augmented quadratic form destroys the positivity block
    tampered = res.certificate.copy()
    layout = VariableLayout(2, HierarchyParams(1, 1))
    tampered[: layout.offsets[1]] = 0.0  # P's svec slice
    res.certificate = tampered
    assert not verify_certificate(program, res)


def test_verify_requires_feasible_result():
    program = example1_program(6.2)
    res = decide_feasibility(program)
    with pytest.raises(ValueError):
        verify_certificate(program, res)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_verify_rejects_a_non_finite_certificate(value):
    # NaN eigenvalues compare False with 0, so only an explicit finiteness
    # check keeps [nan] and [inf] from passing as certificates
    program = ConeProgram([np.eye(2)[None]])
    res = solve(program)
    assert res.status == FEASIBLE
    assert verify_certificate(program, res)
    res.certificate = np.array([value])
    assert not verify_certificate(program, res)


def test_verify_checks_any_cone_program():
    # rotated balance: eigenvalues y_1 and 2 y_0 - y_1, optimum y = (B, B)
    program = oracle_cases()[6][1]
    res = solve(program)
    assert res.status == FEASIBLE
    assert verify_certificate(program, res)
    # past the balance point the 2 y_0 - y_1 eigenvalue turns negative
    res.certificate = np.array([1.0, 2.5])
    assert not verify_certificate(program, res)
    # blocks of several sizes
    program = mixed_size_program()
    res = solve(program)
    assert res.status == FEASIBLE
    assert verify_certificate(program, res)
