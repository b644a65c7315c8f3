"""Solver tests against analytically solvable margin programs."""

import io

import numpy as np
import pytest

from delaymargin.lmi import DelaySystem, HierarchyParams, assemble_stability_lmis
from delaymargin.systems import bundled_system
from delaymargin.sdp import (
    FEASIBLE,
    INCONCLUSIVE,
    INFEASIBLE,
    BOX_BOUND,
    RES_TOL,
    ConeProgram,
    decide_feasibility,
    solve,
    to_margin_program,
    verify_certificate,
)


def block(f0, stack):
    return np.asarray(f0, dtype=float), np.asarray(stack, dtype=float)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def oracle_cases():
    """Ten margin programs with closed-form optima.

    Each is small enough to solve by hand: diagonal structure, a single
    coupling, or a box-active optimum.
    """
    cases = []

    # 1. scalar free variable, tight box: t* = B
    cases.append(
        ("scalar-box", ConeProgram([block(np.zeros((1, 1)), np.ones((1, 1, 1)))], 1, 1.0), 1.0)
    )
    # 2. antagonistic pair: only the zero margin is attainable
    st = np.zeros((1, 2, 2))
    st[0] = np.diag([1.0, -1.0])
    cases.append(("antagonistic", ConeProgram([block(np.zeros((2, 2)), st)], 1, 1e4), 0.0))
    # 3. constant block, no variables: margin is the smallest eigenvalue
    c = np.array([[3.5, 1.5], [1.5, 3.5]])  # eigenvalues 2 and 5
    cases.append(("constant-only", ConeProgram([block(c, np.zeros((0, 2, 2)))], 0, 1e4), 2.0))
    # 4. identity direction with box: t* = B
    st = np.zeros((1, 2, 2))
    st[0] = np.eye(2)
    cases.append(("identity-box", ConeProgram([block(np.zeros((2, 2)), st)], 1, 1.0), 1.0))
    # 5. two scalar blocks y and 1 - y: balance at 1/2
    s1 = np.ones((1, 1, 1))
    s2 = -np.ones((1, 1, 1))
    cases.append(
        (
            "balance",
            ConeProgram(
                [block(np.zeros((1, 1)), s1), block(np.ones((1, 1)), s2)], 1, 10.0
            ),
            0.5,
        )
    )
    # 6. infeasible pair: diag(y, -y-1) caps the margin at -1/2
    st = np.zeros((1, 2, 2))
    st[0] = np.diag([1.0, -1.0])
    cases.append(
        ("strictly-infeasible", ConeProgram([block(np.diag([0.0, -1.0]), st)], 1, 10.0), -0.5)
    )
    # 7. rotated coordinates: same optimum as diag(y, 2 - y)
    q = rotation(0.6)
    st = np.zeros((1, 2, 2))
    st[0] = q @ np.diag([1.0, -1.0]) @ q.T
    f0 = q @ np.diag([0.0, 2.0]) @ q.T
    cases.append(("rotated-balance", ConeProgram([block(f0, st)], 1, 10.0), 1.0))
    # 8. box-active slope: eigenvalues y and 2y - 1, maximal at y = B = 3
    st = np.zeros((1, 2, 2))
    st[0] = np.diag([1.0, 2.0])
    cases.append(
        ("box-active-slope", ConeProgram([block(np.diag([0.0, -1.0]), st)], 1, 3.0), 3.0)
    )
    # 9. three variables sharing a budget of 4: symmetric optimum at 1
    st = np.zeros((3, 4, 4))
    for i in range(3):
        st[i, i, i] = 1.0
        st[i, 3, 3] = -1.0
    cases.append(
        ("budget-split", ConeProgram([block(np.diag([0.0, 0.0, 0.0, 4.0]), st)], 3, 100.0), 1.0)
    )
    # 10. fixed off-diagonal coupling: at the box corner eigenvalues are B -+ c
    st = np.zeros((2, 2, 2))
    st[0, 0, 0] = 1.0
    st[1, 1, 1] = 1.0
    cases.append(
        (
            "coupled-corner",
            ConeProgram([block(np.array([[0.0, 0.3], [0.3, 0.0]]), st)], 2, 2.0),
            1.7,
        )
    )
    return cases


@pytest.mark.parametrize("name,program,expected", oracle_cases(), ids=[c[0] for c in oracle_cases()])
def test_oracle_margins(name, program, expected):
    result = solve(program)
    assert result.margin == pytest.approx(expected, abs=1e-7)
    # bare solve is an exact maximizer: it never stops at the verdict
    assert result.meta["stop_reason"] != "certified"
    if expected > 1e-6:
        assert result.status == FEASIBLE
    elif expected < -1e-6:
        assert result.status == INFEASIBLE


def mixed_size_program():
    """Three 2x2 blocks, one 3x3 and one 1x1 over y in R^3: the binding
    eigenvalues are y_1, y_2, y_3 and 2 - y_1 - y_2 - y_3, so t* = 1/2 at
    y = (1/2, 1/2, 1/2); every other eigenvalue keeps slack there.  The
    equal-size blocks differ in constant and rotation, so a block paired
    with another's data changes the program."""
    blocks = []
    for i, (cap, theta) in enumerate(((5.0, 0.3), (6.0, 1.1), (7.0, 2.0))):
        q = rotation(theta)
        st = np.zeros((3, 2, 2))
        st[i] = q @ np.diag([1.0, -1.0]) @ q.T
        blocks.append(block(q @ np.diag([0.0, cap]) @ q.T, st))
    q3 = np.linalg.qr(np.array([[1.0, 2.0, 0.5], [0.3, -1.0, 2.0], [1.5, 0.2, 1.0]]))[0]
    st = np.zeros((3, 3, 3))
    st[:, 0, 0] = -1.0
    st[0, 1, 1] = 1.0
    st[1, 2, 2] = st[2, 2, 2] = 1.0
    st = q3[None] @ st @ q3.T[None]
    blocks.append(block(q3 @ np.diag([2.0, 4.0, 6.0]) @ q3.T, st))
    blocks.append(block([[1.0]], [[[1.0]], [[-1.0]], [[0.0]]]))  # 1 + y_1 - y_2
    return ConeProgram(blocks, 3, 10.0)


def test_blocks_of_mixed_sizes_are_stacked_consistently():
    program = mixed_size_program()
    result = solve(program)
    assert result.status == FEASIBLE
    assert result.margin == pytest.approx(0.5, abs=1e-7)
    order = (4, 1, 3, 0, 2)  # sizes 1, 2, 3, 2, 2
    permuted = ConeProgram([program.blocks[k] for k in order], 3, 10.0)
    other = solve(permuted)
    assert other.status == result.status
    assert other.margin == pytest.approx(result.margin, abs=1e-9)


def test_stop_reason():
    program = oracle_cases()[0][1]
    assert solve(program).meta["stop_reason"] == "converged"
    assert solve(program, max_iter=3).meta["stop_reason"] == "max-iter"


def test_status_three_way_rule():
    # non-homogeneous marginal program lands in the inconclusive band
    st = np.zeros((1, 2, 2))
    st[0] = np.diag([1.0, -1.0])
    res = solve(ConeProgram([block(np.zeros((2, 2)), st)], 1, 1e4))
    assert res.status in ("numerically-inconclusive", INFEASIBLE)
    assert abs(res.margin) < 1e-8


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
    program = oracle_cases()[0][1]  # scalar-box, t* = 1
    res = solve(program, max_iter=3)
    assert res.residuals["primal"] > 100 * RES_TOL
    assert res.status == FEASIBLE
    for f0, stack in program.blocks:
        mat = f0 + np.tensordot(res.certificate, stack, axes=1)
        assert np.linalg.eigvalsh(mat)[0] >= res.margin * (1 - 1e-9)
    # the primal residual still gates the infeasible verdict
    res = solve(oracle_cases()[5][1], max_iter=3)  # t* = -1/2
    assert res.residuals["primal"] > 100 * RES_TOL
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
    sys = DelaySystem.from_matrices(
        -a * np.eye(3) + 0.1 * g1, -b * np.eye(3) + 0.1 * g2
    )
    prob = assemble_stability_lmis(sys, HierarchyParams(2, 1), 0.625)
    res = decide_feasibility(prob)
    assert res.status == FEASIBLE
    assert res.margin > 1e3
    assert verify_certificate(prob, res)


def test_step_collapse_retries_with_regularized_schur_solve():
    # just above the M=3, m=3 bound of example3 (~1.71779) the Schur system
    # turns ill-conditioned mid-solve and the corrector step collapses; a
    # more regularized retry still converges to a decided verdict
    sys = DelaySystem.from_matrices(
        [[0.0, 1.0], [-2.0, 0.1]], [[0.0, 0.0], [1.0, 0.0]], name="example3"
    )
    prob = assemble_stability_lmis(sys, HierarchyParams(3, 3), 1.7181396484375)
    res = decide_feasibility(prob)
    assert res.status == INFEASIBLE


def test_margin_error_covers_negative_homogeneous_margin():
    # the stability LMIs are homogeneous: y = 0 attains t = 0, so the exact
    # optimum is >= 0 and a negative reported margin is off by at least
    # its own size (example3 at M=3, m=3, just above its bound)
    sys = DelaySystem.from_matrices(
        [[0.0, 1.0], [-2.0, 0.1]], [[0.0, 0.0], [1.0, 0.0]], name="example3"
    )
    res = decide_feasibility(assemble_stability_lmis(sys, HierarchyParams(3, 3), 1.71875))
    assert res.meta["homogeneous"]
    assert res.margin < 0
    assert res.meta["margin_error"] >= -res.margin


def test_redundant_identity_block_is_inert():
    # adding I >= 0 cannot change a sub-unit margin
    base = oracle_cases()[4][1]  # balance, t* = 0.5 < 1
    augmented = ConeProgram(
        base.blocks + [block(np.eye(3), np.zeros((1, 3, 3)))],
        base.num_y,
        base.box_bound,
    )
    r1 = solve(base)
    r2 = solve(augmented)
    assert r2.margin == pytest.approx(r1.margin, abs=1e-7)


def test_scaling_covariance():
    base = oracle_cases()[6][1]  # rotated balance, t* = 1
    alpha = 3.7
    scaled = ConeProgram(
        [(alpha * f0, alpha * stack) for f0, stack in base.blocks],
        base.num_y,
        base.box_bound,
    )
    r1 = solve(base)
    r2 = solve(scaled)
    assert r2.margin == pytest.approx(alpha * r1.margin, rel=1e-7)


def test_rejects_invalid_programs():
    with pytest.raises(ValueError):
        ConeProgram([], 0, 1.0)
    with pytest.raises(ValueError):
        ConeProgram([block(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((0, 2, 2)))], 0, 1.0)
    with pytest.raises(ValueError):
        ConeProgram([block(np.zeros((2, 2)), np.zeros((1, 2, 2)))], 1, -1.0)
    asym = np.zeros((1, 2, 2))
    asym[0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        ConeProgram([block(np.zeros((2, 2)), asym)], 1, 1.0)


def test_iteration_log_stream():
    stream = io.StringIO()
    program = oracle_cases()[0][1]
    solve(program, log_stream=stream)
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) >= 3
    assert all("gap=" in ln for ln in lines)


def example1_problem(tau):
    sys = DelaySystem.from_matrices(
        [[-2.0, 0.0], [0.0, -0.9]], [[-1.0, 0.0], [-1.0, -1.0]], name="example1"
    )
    return assemble_stability_lmis(sys, HierarchyParams(1, 1), tau)


def test_delay_lmi_feasibility_at_published_bounds():
    res = decide_feasibility(example1_problem(6.0))
    assert res.status == FEASIBLE
    res = decide_feasibility(example1_problem(6.2))
    assert res.status == INFEASIBLE


def test_decision_stops_at_first_certifying_iterate():
    prob = example1_problem(6.0)
    full = solve(to_margin_program(prob))
    res = decide_feasibility(prob)
    assert res.status == FEASIBLE
    assert res.meta["stop_reason"] == "certified"
    assert res.iterations < full.iterations
    # gap <= margin keeps the certified margin within 2x of the optimum
    err = res.meta["margin_error"] + full.meta["margin_error"]
    assert 0.5 * full.margin - err <= res.margin <= full.margin + err
    assert verify_certificate(prob, res)


# (M, m) = (3, 1) upper bounds of the bundled examples, to bisection tol 1e-5
_BOUNDS_3_1 = {"example1": 6.1725044, "example2": 2.0412350, "example3": 1.7177868}


@pytest.mark.parametrize("name", sorted(_BOUNDS_3_1))
def test_early_exit_keeps_verdicts_near_the_bound(name):
    sys = bundled_system(name)[0]
    for offset in (-1e-1, -1e-2, -1e-3, 1e-3, 1e-2, 1e-1):
        prob = assemble_stability_lmis(sys, HierarchyParams(3, 1), _BOUNDS_3_1[name] + offset)
        full = solve(to_margin_program(prob))
        if full.status == INCONCLUSIVE:
            continue
        assert decide_feasibility(prob).status == full.status, offset


def test_margin_program_structure():
    prob = example1_problem(1.0)
    program = to_margin_program(prob)
    assert program.num_y == prob.dim
    assert program.box_bound == BOX_BOUND
    # negative-definite constraints arrive negated
    deriv = prob.constraints[1]
    assert deriv.sense == -1
    assert np.array_equal(program.blocks[1][1], -deriv.coeffs)


def test_feasible_certificate_margin_consistency():
    # re-evaluated constraint eigenvalues must support the reported margin
    prob = example1_problem(6.0)
    res = decide_feasibility(prob)
    assert res.status == FEASIBLE
    floor = res.margin * (1 - 1e-6) - 1e-9
    for c in prob.constraints:
        eigs = np.linalg.eigvalsh(c.value(res.certificate))
        attained = eigs[0] if c.sense > 0 else -eigs[-1]
        assert attained >= floor, (c.name, attained, res.margin)


def test_certificate_roundtrip_and_tampering():
    prob = example1_problem(6.0)
    res = decide_feasibility(prob)
    assert res.status == FEASIBLE
    assert verify_certificate(prob, res)
    # zeroing the augmented quadratic form destroys the positivity block
    tampered = res.certificate.copy()
    tampered[: prob.layout.offsets[1]] = 0.0  # P's svec slice
    res.certificate = tampered
    assert not verify_certificate(prob, res)


def test_verify_requires_feasible_result():
    prob = example1_problem(6.2)
    res = decide_feasibility(prob)
    with pytest.raises(ValueError):
        verify_certificate(prob, res)
