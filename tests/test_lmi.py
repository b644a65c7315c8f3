"""Structural and algebraic tests for the LMI assembly."""

import numpy as np
import pytest

from delaymargin.lmi import (
    DelaySystem,
    HierarchyParams,
    VariableLayout,
    assemble_delay_range_lmis,
    assemble_stability_lmis,
    nodv,
    stability_tau_derivatives,
)
from delaymargin.projection import (
    max_derivative_order,
    max_weighted_order,
    weighted_moment_map,
)
from delaymargin.sdp import decide_feasibility, verify_certificate
from oracles import (
    DecisionVariables,
    derivative_block,
    pack,
    positivity_block,
    unpack,
    zero_vars,
)


def example1() -> DelaySystem:
    return DelaySystem(
        [[-2.0, 0.0], [0.0, -0.9]], [[-1.0, 0.0], [-1.0, -1.0]], name="example1"
    )


def value(program, k: int, y: np.ndarray) -> np.ndarray:
    """Block k of a margin program at the decision vector y."""
    mat = np.tensordot(y, program.blocks[k], axes=1)
    return 0.5 * (mat + mat.T)


def random_vars(layout: VariableLayout, rng) -> DecisionVariables:
    dv = zero_vars(layout)
    sym = lambda mat: 0.5 * (mat + mat.T)
    dv.p = sym(rng.normal(size=dv.p.shape))
    dv.qs = [sym(rng.normal(size=q.shape)) for q in dv.qs]
    dv.rs = [sym(rng.normal(size=r.shape)) for r in dv.rs]
    return dv


def test_delay_system_validation():
    with pytest.raises(ValueError):
        DelaySystem([[1.0, 0.0]], [[1.0]])
    with pytest.raises(ValueError):
        DelaySystem([[np.inf]], [[0.0]])
    s = DelaySystem([[-1.0]], [[0.5]])
    assert np.allclose(s.a_d2, 0.0)
    assert s.n_x == 1


def test_hierarchy_params():
    p = HierarchyParams(3, 1)
    assert p.m2 == 2
    # the projection orders of the Qs and the Rs at depths j = 0, 1
    assert [max_weighted_order(j, p.big_m) for j in range(2)] == [2, 1]
    assert [max_derivative_order(j, p.big_m) for j in range(2)] == [3, 2]
    with pytest.raises(ValueError):
        HierarchyParams(0, 1)
    with pytest.raises(ValueError):
        HierarchyParams(2, -1)


def test_layout_pack_unpack_roundtrip():
    rng = np.random.default_rng(0)
    layout = VariableLayout(2, HierarchyParams(3, 1))
    dv = random_vars(layout, rng)
    y = pack(layout, dv)
    assert y.shape == (layout.dim,)
    back = unpack(layout, y)
    assert np.allclose(back.p, dv.p)
    for a, b in zip(back.qs + back.rs, dv.qs + dv.rs):
        assert np.allclose(a, b)
    # svec scaling preserves the trace inner product
    dv2 = random_vars(layout, rng)
    flat_ip = float(pack(layout, dv) @ pack(layout, dv2))
    mat_ip = float(np.sum(dv.p * dv2.p))
    mat_ip += sum(float(np.sum(a * b)) for a, b in zip(dv.qs, dv2.qs))
    mat_ip += sum(float(np.sum(a * b)) for a, b in zip(dv.rs, dv2.rs))
    assert flat_ip == pytest.approx(mat_ip, rel=1e-12)


def sizes(program) -> list[int]:
    return [stack.shape[-1] for stack in program.blocks]


def test_block_dimensions():
    # block order: positivity, -derivative, Q0..Qm, R1..Rm+1
    sys = example1()
    n = sys.n_x
    for big_m, m in [(1, 0), (1, 1), (3, 1), (2, 2)]:
        params = HierarchyParams(big_m, m)
        program = assemble_stability_lmis(sys, params, 1.0)
        assert program.num_y == nodv(params, n)
        assert sizes(program) == [n * (big_m + 1), n * (big_m + 2)] + [n] * (2 * m + 2)


def test_minimal_condition_block_sizes():
    # M=1, m=0: positivity block 2*n_x, derivative block 3*n_x, Q0, R1
    sys = example1()
    program = assemble_stability_lmis(sys, HierarchyParams(1, 0), 2.0)
    assert sizes(program) == [2 * sys.n_x, 3 * sys.n_x, sys.n_x, sys.n_x]


def test_constraints_symmetric():
    rng = np.random.default_rng(1)
    sys = example1()
    params = HierarchyParams(2, 1)
    program = assemble_stability_lmis(sys, params, 1.7)
    layout = VariableLayout(sys.n_x, params)
    y = pack(layout, random_vars(layout, rng))
    for k in range(len(program.blocks)):
        mat = value(program, k, y)
        assert np.array_equal(mat, mat.T), k


def test_evaluate_affine_in_variables():
    rng = np.random.default_rng(2)
    sys = example1()
    params = HierarchyParams(2, 1)
    program = assemble_stability_lmis(sys, params, 1.3)
    layout = VariableLayout(sys.n_x, params)
    yu = pack(layout, random_vars(layout, rng))
    yv = pack(layout, random_vars(layout, rng))
    lam = 0.37
    for k in range(len(program.blocks)):
        mix = value(program, k, lam * yu + (1 - lam) * yv)
        want = lam * value(program, k, yu) + (1 - lam) * value(program, k, yv)
        assert np.allclose(mix, want, atol=1e-12), k


def _assert_rel_close(got, want, rel=1e-12):
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(got - want).max() <= rel * scale


@pytest.mark.parametrize("tau", [1e-3, 0.9, 6.2])
@pytest.mark.parametrize("big_m,m", [(1, 0), (1, 1), (3, 1), (3, 2), (4, 1)])
@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_evaluate_matches_direct_assembly(systems, name, big_m, m, tau):
    # the compiled tau-polynomial reproduces the oracle's per-delay blocks,
    # with the derivative blocks negated; example2 has A_d2 != 0, which
    # brings in the tau**2 and tau**3 terms
    sys = systems[name]
    params = HierarchyParams(big_m, m)
    rng = np.random.default_rng([big_m, m, int(1e3 * tau)])
    program = assemble_stability_lmis(sys, params, tau)
    layout = VariableLayout(sys.n_x, params)
    dv = random_vars(layout, rng)
    y = pack(layout, dv)
    got = [value(program, k, y) for k in range(len(program.blocks))]
    assert len(got) == 2 + len(dv.qs) + len(dv.rs)
    _assert_rel_close(got[0], positivity_block(sys, params, tau, dv.p, dv.qs))
    _assert_rel_close(got[1], -derivative_block(sys, params, tau, dv.p, dv.qs, dv.rs))
    for blk, var in zip(got[2:], dv.qs + dv.rs):  # Q0..Qm, R1..Rm2
        _assert_rel_close(blk, var)

    # y read as the range variables (tau P, tau Q, R): at each end the
    # blocks are tau times the single-delay blocks at (P/tau, Q/tau, R)
    low, up = 0.5 * tau, tau
    range_program = assemble_delay_range_lmis(sys, params, low, up)
    got = [value(range_program, k, y) for k in range(len(range_program.blocks))]
    assert len(got) == 4 + len(dv.qs) + len(dv.rs)
    for k, end in ((0, low), (2, up)):
        _assert_rel_close(got[k], positivity_block(sys, params, end, dv.p, dv.qs))
        p, qs = dv.p / end, [q / end for q in dv.qs]
        _assert_rel_close(got[k + 1], -end * derivative_block(sys, params, end, p, qs, dv.rs))
    for blk, var in zip(got[4:], dv.qs + dv.rs):
        _assert_rel_close(blk, var)


@pytest.mark.parametrize("name", ["example1", "example2"])  # example2: A_d2 != 0
def test_tau_derivatives_match_central_differences(systems, name):
    sys, params, tau, h = systems[name], HierarchyParams(3, 2), 1.3, 1e-5
    derivatives = stability_tau_derivatives(sys, params, tau)
    plus = assemble_stability_lmis(sys, params, tau + h).blocks
    minus = assemble_stability_lmis(sys, params, tau - h).blocks
    # positivity and -derivative depend on tau; the Q and R definiteness
    # blocks after them do not, so they carry no derivative
    assert len(derivatives) == 2
    for d, p, m in zip(derivatives, plus, minus):
        scale = max(1.0, float(np.abs(p).max()))
        np.testing.assert_allclose(d, (p - m) / (2 * h), rtol=0, atol=1e-8 * scale)
    assert all(np.array_equal(p, m) for p, m in zip(plus[2:], minus[2:]))


def test_zero_variables_give_zero_blocks():
    # the stability conditions are homogeneous: no constant terms anywhere
    sys = example1()
    program = assemble_stability_lmis(sys, HierarchyParams(2, 1), 1.1)
    zero = np.zeros(program.num_y)
    for k, stack in enumerate(program.blocks):
        assert np.array_equal(value(program, k, zero), np.zeros(stack.shape[1:]))


def test_positivity_block_structure():
    # tau*P plus a projection term only in the moment part; the first
    # weighted map at full order is the identity
    sys = example1()
    n = sys.n_x
    params = HierarchyParams(2, 0)
    tau = 1.4
    program = assemble_stability_lmis(sys, params, tau)
    layout = VariableLayout(n, params)
    dv = zero_vars(layout)
    dv.qs[0] = np.array([[2.0, 0.3], [0.3, 1.0]])
    blk = value(program, 0, pack(layout, dv))
    assert np.allclose(blk[:n, :n], 0.0)
    xi0 = weighted_moment_map(0, params.big_m - 1, params.big_m).as_array()
    assert np.allclose(xi0, np.eye(params.big_m))
    weights = np.diag([1.0, 3.0])  # diag{1, 3} for the unweighted term
    expected = np.kron(weights, dv.qs[0])
    assert np.allclose(blk[n:, n:], expected, atol=1e-12)
    # P enters scaled by tau
    dv2 = zero_vars(layout)
    dv2.p = np.eye(n * (params.big_m + 1))
    blk2 = value(program, 0, pack(layout, dv2))
    assert np.allclose(blk2, tau * np.eye(n * (params.big_m + 1)))


def test_history_rate_corner_blocks():
    # with P = 0 and R = 0 the derivative block is the history rate alone
    # (block 1 holds it negated)
    sys = example1()
    n = sys.n_x
    params = HierarchyParams(3, 2)
    program = assemble_stability_lmis(sys, params, 0.8)
    layout = VariableLayout(n, params)
    dv = zero_vars(layout)
    dv.qs = [np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), np.diag([5.0, 6.0])]
    blk = -value(program, 1, pack(layout, dv))
    assert np.allclose(blk[:n, :n], sum(dv.qs))
    assert np.allclose(blk[n : 2 * n, n : 2 * n], -dv.qs[0])
    # moment part is negative semidefinite for positive Q
    tail = blk[2 * n :, 2 * n :]
    assert np.all(np.linalg.eigvalsh(tail) <= 1e-12)


def test_distributed_term_column():
    # the distributed-kernel matrix enters only through the tau * A_d2 column
    sys_zero = example1()
    sys_none = DelaySystem(sys_zero.a, sys_zero.a_d1)
    params = HierarchyParams(2, 1)
    p1 = assemble_stability_lmis(sys_zero, params, 1.2)
    p2 = assemble_stability_lmis(sys_none, params, 1.2)
    assert len(p1.blocks) == len(p2.blocks)
    for s1, s2 in zip(p1.blocks, p2.blocks):
        assert np.array_equal(s1, s2)


def test_high_weight_depth_drops_invalid_projections():
    # m >= M: projection orders would go negative; those terms are omitted
    sys = example1()
    params = HierarchyParams(1, 2)  # m=2 > M-1=0
    program = assemble_stability_lmis(sys, params, 1.0)
    assert len(program.blocks) == 2 + 3 + 3  # Q0..Q2 and R1..R3 are kept
    layout = VariableLayout(sys.n_x, params)
    dv = zero_vars(layout)
    dv.qs[2] = np.eye(2)
    blk = value(program, 0, pack(layout, dv))
    assert np.allclose(blk, 0.0)  # Q2 has no valid projection term at M=1


def test_nodv_counts():
    assert nodv(HierarchyParams(3, 1), 2) == 48
    assert nodv(HierarchyParams(1, 0), 1) == 3 + 1 + 1
    assert nodv(HierarchyParams(1, 1), 2) == 22  # printed table value 16 differs
    assert nodv(HierarchyParams(4, 1), 2) == 55 + 6 + 6


@pytest.mark.parametrize("big_m,m", [(1, 0), (2, 1), (3, 2)])
def test_delay_range_derivative_is_concave_in_tau(big_m, m):
    # with A_d2 = 0 the negated range derivative block is C0 + tau C1 -
    # tau**2 W^T (sum R_j) W, so its value at the midpoint exceeds the mean
    # of its end values by ((b - a)**2 / 4) W^T (sum R_j) W, positive
    # semidefinite for positive semidefinite Rs
    sys = example1()
    n = sys.n_x
    params = HierarchyParams(big_m, m)
    rng = np.random.default_rng(4)
    lo, hi = 0.4, 1.9
    mid = 0.5 * (lo + hi)
    layout = VariableLayout(n, params)
    dv = random_vars(layout, rng)
    dv.rs = [g @ g.T for g in (rng.normal(size=r.shape) for r in dv.rs)]
    y = pack(layout, dv)
    program = assemble_delay_range_lmis(sys, params, lo, hi)
    b_lo = value(program, 1, y)  # -derivative at the lower end
    b_hi = value(program, 3, y)  # -derivative at the upper end
    b_mid = value(assemble_delay_range_lmis(sys, params, mid, mid), 1, y)
    w = np.zeros((n, n * (big_m + 2)))
    w[:, :n], w[:, n : 2 * n] = sys.a, sys.a_d1
    want = 0.25 * (hi - lo) ** 2 * w.T @ sum(dv.rs) @ w
    assert np.allclose(b_mid - 0.5 * (b_lo + b_hi), want, atol=1e-11)
    assert np.linalg.eigvalsh(want)[0] >= -1e-12


def test_delay_range_single_point_equivalence():
    # the range form at a single tau decides like the plain condition
    rng = np.random.default_rng(5)
    agreements = 0
    for _ in range(20):
        n = int(rng.integers(1, 3))
        a = rng.normal(size=(n, n)) - 1.2 * np.eye(n)
        d1 = 0.6 * rng.normal(size=(n, n))
        sys = DelaySystem(a, d1)
        tau = float(rng.uniform(0.05, 2.5))
        params = HierarchyParams(int(rng.integers(1, 3)), int(rng.integers(0, 2)))
        r1 = decide_feasibility(assemble_stability_lmis(sys, params, tau))
        r2 = decide_feasibility(assemble_delay_range_lmis(sys, params, tau, tau))
        assert r1.status == r2.status, (a, d1, tau, params)
        agreements += 1
    assert agreements == 20


@pytest.mark.parametrize("big_m,m", [(1, 1), (3, 2)])
@pytest.mark.parametrize(
    "name,taus", [("example1", (1.0, 6.0)), ("example2", (0.5, 1.9)), ("example3", (0.5, 1.2))]
)
def test_plain_certificate_maps_to_range_certificate(systems, name, taus, big_m, m):
    # A plain certificate (P, Q, R) at tau becomes a range certificate at
    # [tau, tau] as (tau P, tau Q, R): both ends' positivity and derivative
    # blocks and the Q blocks are tau times the plain blocks, the R blocks
    # the plain ones.
    sys = systems[name]
    params = HierarchyParams(big_m, m)
    layout = VariableLayout(sys.n_x, params)
    for tau in taus:
        plain = assemble_stability_lmis(sys, params, tau)
        result = decide_feasibility(plain)
        assert result.feasible and verify_certificate(plain, result), tau
        x = result.certificate
        pos, der, *definite = [value(plain, k, x) for k in range(len(plain.blocks))]
        qs, rs = definite[: params.m + 1], definite[params.m + 1 :]
        want = [tau * blk for blk in (pos, der, pos, der, *qs)] + rs
        y = x.copy()
        y[: layout.offsets[params.m + 2]] *= tau  # P and Q_0..Q_m
        program = assemble_delay_range_lmis(sys, params, tau, tau)
        assert len(program.blocks) == len(want)
        for k, blk in enumerate(want):
            got = value(program, k, y)
            _assert_rel_close(got, blk)
            assert np.linalg.eigvalsh(got)[0] > 0, (tau, k)


def test_delay_range_verdicts_on_example3(systems):
    # the sub-window [0.12, 1.6] at M = 2 certifies; the near-maximal
    # window of the pointwise bounds does not
    sys, params = systems["example3"], HierarchyParams(2, 1)
    program = assemble_delay_range_lmis(sys, params, 0.12, 1.6)
    result = decide_feasibility(program)
    assert result.feasible and verify_certificate(program, result)
    wide = decide_feasibility(assemble_delay_range_lmis(sys, params, 0.1002, 1.7177))
    assert not wide.feasible


@pytest.mark.parametrize(
    "name,big_m,m,ends",
    [("example1", 1, 1, (1e-3, 6.0)), ("example1", 2, 1, (0.1, 6.1)),
     ("example3", 2, 1, (0.12, 1.6)), ("example3", 3, 1, (0.2, 1.6))],
)
def test_range_certificate_holds_inside_its_interval(systems, name, big_m, m, ends):
    # the endpoint checks certify the whole interval (A_d2 = 0): a verified
    # range certificate keeps every block positive definite at each delay
    # in between
    sys, params = systems[name], HierarchyParams(big_m, m)
    program = assemble_delay_range_lmis(sys, params, *ends)
    result = decide_feasibility(program)
    assert result.feasible and verify_certificate(program, result)
    for t in np.linspace(*ends, 41):
        inner = assemble_delay_range_lmis(sys, params, t, t)
        for k in range(len(inner.blocks)):
            assert np.linalg.eigvalsh(value(inner, k, result.certificate))[0] > 0, (t, k)


def test_delay_range_validation():
    sys = example1()
    with pytest.raises(ValueError):
        assemble_delay_range_lmis(sys, HierarchyParams(1, 1), 0.0, 1.0)
    with pytest.raises(ValueError):
        assemble_delay_range_lmis(sys, HierarchyParams(1, 1), 2.0, 1.0)
    with pytest.raises(ValueError):
        assemble_stability_lmis(sys, HierarchyParams(1, 1), -1.0)
