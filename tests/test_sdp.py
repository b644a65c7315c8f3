"""Solver tests against analytically solvable margin programs."""

import io

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
    ConeProgram,
    decide_feasibility,
    solve,
    verify_certificate,
)
from oracles import derivative_block, pack, unpack


def stack(*coefficients):
    """A coefficient stack, one symmetric matrix per y variable."""
    return np.array(coefficients, dtype=float)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def oracle_cases():
    """Ten homogeneous margin programs with closed-form optima.

    Each is small enough to solve by hand: diagonal structure, a single
    coupling, or a box-active optimum.  A constant term C is stated as
    y_0 C on an extra variable y_0 with box bound 1, which attains the
    optimum at y_0 = 1.
    """
    cases = []

    # 1. scalar free variable, tight box: t* = B
    cases.append(("scalar-box", ConeProgram([stack([[1.0]])], box_bound=1.0), 1.0))
    # 2. antagonistic pair: only the zero margin is attainable
    cases.append(("antagonistic", ConeProgram([stack(np.diag([1.0, -1.0]))], box_bound=1e4), 0.0))
    # 3. a constant block y_0 C: margin is the smallest eigenvalue of C
    c = np.array([[3.5, 1.5], [1.5, 3.5]])  # eigenvalues 2 and 5
    cases.append(("constant-only", ConeProgram([stack(c)], box_bound=1.0), 2.0))
    # 4. identity direction with box: t* = B
    cases.append(("identity-box", ConeProgram([stack(np.eye(2))], box_bound=1.0), 1.0))
    # 5. two scalar blocks y_1 and y_0 - y_1: balance at 1/2
    balance = [stack([[0.0]], [[1.0]]), stack([[1.0]], [[-1.0]])]
    cases.append(("balance", ConeProgram(balance, box_bound=1.0), 0.5))
    # 6. y_1 diag(1, -1) + y_2 [[0, 1], [1, 0]] has eigenvalues +-|y|:
    # only the zero margin is attainable
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    cases.append(
        ("rotated-antagonistic", ConeProgram([stack(np.diag([1.0, -1.0]), swap)], box_bound=10.0), 0.0)
    )
    # 7. rotated coordinates: same optimum as diag(y_1, 2 y_0 - y_1)
    q = rotation(0.6)
    rotated = stack(q @ np.diag([0.0, 2.0]) @ q.T, q @ np.diag([1.0, -1.0]) @ q.T)
    cases.append(("rotated-balance", ConeProgram([rotated], box_bound=1.0), 1.0))
    # 8. box-active slope: eigenvalues y_1 and 2 y_1 - y_0, maximal at
    # y_1 = -y_0 = B = 3
    slope = stack(np.diag([0.0, -1.0]), np.diag([1.0, 2.0]))
    cases.append(("box-active-slope", ConeProgram([slope], box_bound=3.0), 3.0))
    # 9. three variables sharing a budget of 4 y_0: symmetric optimum at 1
    st = np.zeros((4, 4, 4))
    st[0, 3, 3] = 4.0
    for i in range(1, 4):
        st[i, i - 1, i - 1] = 1.0
        st[i, 3, 3] = -1.0
    cases.append(("budget-split", ConeProgram([st], box_bound=1.0), 1.0))
    # 10. fixed off-diagonal coupling: at the box corner eigenvalues are 2 -+ 0.3
    corner = stack(
        [[1.0, 0.3], [0.3, 1.0]], np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    )
    cases.append(("coupled-corner", ConeProgram([corner], box_bound=1.0), 1.7))
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
    y_0 = 1 the binding eigenvalues are y_1, y_2, y_3 and 2 - y_1 - y_2 - y_3,
    so t* = 1/2 at y = (1/2, 1/2, 1/2); every other eigenvalue keeps slack
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
    return ConeProgram(blocks, box_bound=1.0)


def test_blocks_of_mixed_sizes_are_stacked_consistently():
    program = mixed_size_program()
    result = solve(program)
    assert result.status == FEASIBLE
    assert result.margin == pytest.approx(0.5, abs=1e-7)
    order = (4, 1, 3, 0, 2)  # sizes 1, 2, 3, 2, 2
    permuted = ConeProgram([program.blocks[k] for k in order], box_bound=1.0)
    other = solve(permuted)
    assert other.status == result.status
    assert other.margin == pytest.approx(result.margin, abs=1e-9)


def test_stop_reason():
    program = oracle_cases()[0][1]
    assert solve(program).stop_reason == "converged"
    assert solve(program, max_iter=3).stop_reason == "max-iter"


def test_status_three_way_rule():
    # a decided run is FEASIBLE or INFEASIBLE by the sign of its margin; an
    # undecided one is inconclusive, whatever its margin
    cases = oracle_cases()
    assert solve(cases[0][1]).status == FEASIBLE  # t* = 1
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
    program = oracle_cases()[0][1]  # scalar-box, t* = 1
    res = solve(program, max_iter=3)
    assert res.primal > 100 * RES_TOL
    assert res.status == FEASIBLE
    for st in program.blocks:
        mat = np.tensordot(res.certificate, st, axes=1)
        assert np.linalg.eigvalsh(mat)[0] >= res.margin * (1 - 1e-9)
    # the primal residual still gates the infeasible verdict
    res = solve(oracle_cases()[5][1], max_iter=3)  # rotated-antagonistic, t* = 0
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
    # adding y_0 I >= 0 cannot change a margin below y_0 = 1
    base = oracle_cases()[4][1]  # balance, t* = 0.5 < 1
    augmented = ConeProgram(
        base.blocks + [stack(np.eye(3), np.zeros((3, 3)))],
        box_bound=base.box_bound,
    )
    r1 = solve(base)
    r2 = solve(augmented)
    assert r2.margin == pytest.approx(r1.margin, abs=1e-7)


def test_scaling_covariance():
    base = oracle_cases()[6][1]  # rotated balance, t* = 1
    alpha = 3.7
    scaled = ConeProgram([alpha * st for st in base.blocks], box_bound=base.box_bound)
    r1 = solve(base)
    r2 = solve(scaled)
    assert r2.margin == pytest.approx(alpha * r1.margin, rel=1e-7)


def test_rejects_invalid_programs():
    with pytest.raises(ValueError):
        ConeProgram([], box_bound=1.0)
    with pytest.raises(ValueError):
        ConeProgram([np.zeros((1, 2, 3))], box_bound=1.0)  # not square
    with pytest.raises(ValueError):
        # the second stack has one matrix more than the first
        ConeProgram([np.zeros((1, 2, 2)), np.zeros((2, 2, 2))], box_bound=1.0)
    with pytest.raises(ValueError):
        ConeProgram([np.zeros((2, 2))], box_bound=1.0)  # not a stack
    with pytest.raises(ValueError):
        ConeProgram([np.zeros((1, 2, 2))], box_bound=-1.0)
    with pytest.raises(TypeError):
        ConeProgram([np.zeros((1, 2, 2))], 1.0)  # the box is keyword-only
    asym = np.zeros((1, 2, 2))
    asym[0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        ConeProgram([asym], box_bound=1.0)
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


def test_margin_program_structure():
    # the LMI builder emits the margin program: homogeneous, box-bounded,
    # with the negative-definite derivative condition arriving negated
    sys = example1()
    params = HierarchyParams(1, 1)
    program = example1_program(1.0)
    assert program.num_y == nodv(params, sys.n_x)
    assert program.box_bound == BOX_BOUND
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


def test_verify_checks_any_cone_program():
    # rotated balance: eigenvalues y_1 and 2 y_0 - y_1, optimum y = (1, 1)
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
