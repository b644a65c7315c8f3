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
)
from delaymargin.projection import weighted_moment_map
from delaymargin.sdp import decide_feasibility
from oracles import (
    DecisionVariables,
    derivative_block,
    pack,
    positivity_block,
    range_derivative_block,
    unpack,
    zero_vars,
)


def example1() -> DelaySystem:
    return DelaySystem.from_matrices(
        [[-2.0, 0.0], [0.0, -0.9]], [[-1.0, 0.0], [-1.0, -1.0]], name="example1"
    )


def random_vars(layout: VariableLayout, rng) -> DecisionVariables:
    dv = zero_vars(layout)
    sym = lambda mat: 0.5 * (mat + mat.T)
    dv.p = sym(rng.normal(size=dv.p.shape))
    dv.qs = [sym(rng.normal(size=q.shape)) for q in dv.qs]
    dv.rs = [sym(rng.normal(size=r.shape)) for r in dv.rs]
    return dv


def test_delay_system_validation():
    with pytest.raises(ValueError):
        DelaySystem.from_matrices([[1.0, 0.0]], [[1.0]])
    with pytest.raises(ValueError):
        DelaySystem.from_matrices([[np.inf]], [[0.0]])
    s = DelaySystem.from_matrices([[-1.0]], [[0.5]])
    assert np.allclose(s.a_d2, 0.0)
    assert s.n_x == 1


def test_hierarchy_params():
    p = HierarchyParams(3, 1)
    assert (p.m1, p.m2) == (1, 2)
    assert [p.nu1(j) for j in range(2)] == [2, 1]
    assert [p.nu2(j) for j in range(2)] == [3, 2]
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


def test_block_dimensions():
    sys = example1()
    for big_m, m in [(1, 0), (1, 1), (3, 1), (2, 2)]:
        params = HierarchyParams(big_m, m)
        prob = assemble_stability_lmis(sys, params, 1.0)
        by_name = {c.name: c for c in prob.constraints}
        assert by_name["positivity"].size == sys.n_x * (big_m + 1)
        assert by_name["derivative"].size == sys.n_x * (big_m + 2)
        assert by_name["positivity"].sense == 1
        assert by_name["derivative"].sense == -1
        for j in range(m + 1):
            assert by_name[f"Q{j} positive"].size == sys.n_x
        for j in range(1, m + 2):
            assert by_name[f"R{j} positive"].size == sys.n_x


def test_minimal_condition_block_sizes():
    # M=1, m=0: positivity block 2*n_x, derivative block 3*n_x
    sys = example1()
    prob = assemble_stability_lmis(sys, HierarchyParams(1, 0), 2.0)
    sizes = {c.name: c.size for c in prob.constraints}
    assert sizes["positivity"] == 2 * sys.n_x
    assert sizes["derivative"] == 3 * sys.n_x
    assert set(sizes) == {"positivity", "derivative", "Q0 positive", "R1 positive"}


def test_constraints_symmetric():
    rng = np.random.default_rng(1)
    sys = example1()
    prob = assemble_stability_lmis(sys, HierarchyParams(2, 1), 1.7)
    y = pack(prob.layout, random_vars(prob.layout, rng))
    for c in prob.constraints:
        mat = c.value(y)
        assert np.array_equal(mat, mat.T), c.name


def test_evaluate_affine_in_variables():
    rng = np.random.default_rng(2)
    sys = example1()
    prob = assemble_stability_lmis(sys, HierarchyParams(2, 1), 1.3)
    yu = pack(prob.layout, random_vars(prob.layout, rng))
    yv = pack(prob.layout, random_vars(prob.layout, rng))
    lam = 0.37
    for c in prob.constraints:
        mix = c.value(lam * yu + (1 - lam) * yv)
        want = lam * c.value(yu) + (1 - lam) * c.value(yv)
        assert np.allclose(mix, want, atol=1e-12), c.name


def _assert_rel_close(got, want, rel=1e-12):
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(got - want).max() <= rel * scale


@pytest.mark.parametrize("tau", [1e-3, 0.9, 6.2])
@pytest.mark.parametrize("big_m,m", [(1, 0), (1, 1), (3, 1), (3, 2), (4, 1)])
@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_evaluate_matches_direct_assembly(systems, name, big_m, m, tau):
    # the compiled tau-polynomial reproduces the oracle's per-delay blocks;
    # example2 has A_d2 != 0, which brings in the tau**2 and tau**3 terms
    sys = systems[name]
    params = HierarchyParams(big_m, m)
    rng = np.random.default_rng([big_m, m, int(1e3 * tau)])
    prob = assemble_stability_lmis(sys, params, tau)
    dv = random_vars(prob.layout, rng)
    y = pack(prob.layout, dv)
    got = {c.name: c.value(y) for c in prob.constraints}
    _assert_rel_close(
        got["positivity"], positivity_block(sys, params, tau, dv.p, dv.qs)
    )
    _assert_rel_close(
        got["derivative"], derivative_block(sys, params, tau, dv.p, dv.qs, dv.rs)
    )
    for j in range(params.m1 + 1):
        _assert_rel_close(got[f"Q{j} positive"], dv.qs[j])
    for j in range(1, params.m2 + 1):
        _assert_rel_close(got[f"R{j} positive"], dv.rs[j - 1])

    low, up = 0.5 * tau, tau
    range_prob = assemble_delay_range_lmis(sys, params, low, up)
    got = {c.name: c.value(y) for c in range_prob.constraints}
    _assert_rel_close(
        got["positivity at upper endpoint"],
        positivity_block(sys, params, up, dv.p, dv.qs),
    )
    for side, end in (("lower", low), ("upper", up)):
        _assert_rel_close(
            got[f"derivative at {side} endpoint"],
            range_derivative_block(sys, params, end, dv.p, dv.qs, dv.rs),
        )


def test_zero_variables_give_zero_blocks():
    # the stability conditions are homogeneous: no constant terms anywhere
    sys = example1()
    prob = assemble_stability_lmis(sys, HierarchyParams(2, 1), 1.1)
    for c in prob.constraints:
        assert np.array_equal(c.value(np.zeros(prob.dim)), np.zeros((c.size, c.size)))


def _compiled_value(prob, name: str, dv: DecisionVariables) -> np.ndarray:
    """The compiled block ``name`` of ``prob`` at the decision matrices."""
    (block,) = [c for c in prob.constraints if c.name == name]
    return block.value(pack(prob.layout, dv))


def test_positivity_block_structure():
    # tau*P plus a projection term only in the moment part; the first
    # weighted map at full order is the identity
    sys = example1()
    n = sys.n_x
    params = HierarchyParams(2, 0)
    tau = 1.4
    prob = assemble_stability_lmis(sys, params, tau)
    dv = zero_vars(prob.layout)
    dv.qs[0] = np.array([[2.0, 0.3], [0.3, 1.0]])
    blk = _compiled_value(prob, "positivity", dv)
    assert np.allclose(blk[:n, :n], 0.0)
    xi0 = weighted_moment_map(0, params.big_m - 1, params.big_m).as_array()
    assert np.allclose(xi0, np.eye(params.big_m))
    weights = np.diag([1.0, 3.0])  # diag{1, 3} for the unweighted term
    expected = np.kron(weights, dv.qs[0])
    assert np.allclose(blk[n:, n:], expected, atol=1e-12)
    # P enters scaled by tau
    dv2 = zero_vars(prob.layout)
    dv2.p = np.eye(n * (params.big_m + 1))
    blk2 = _compiled_value(prob, "positivity", dv2)
    assert np.allclose(blk2, tau * np.eye(n * (params.big_m + 1)))


def test_history_rate_corner_blocks():
    # with P = 0 and R = 0 the derivative block is the history rate alone
    sys = example1()
    n = sys.n_x
    prob = assemble_stability_lmis(sys, HierarchyParams(3, 2), 0.8)
    dv = zero_vars(prob.layout)
    dv.qs = [np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), np.diag([5.0, 6.0])]
    blk = _compiled_value(prob, "derivative", dv)
    assert np.allclose(blk[:n, :n], sum(dv.qs))
    assert np.allclose(blk[n : 2 * n, n : 2 * n], -dv.qs[0])
    # moment part is negative semidefinite for positive Q
    tail = blk[2 * n :, 2 * n :]
    assert np.all(np.linalg.eigvalsh(tail) <= 1e-12)


def test_distributed_term_column():
    # the distributed-kernel matrix enters only through the tau * A_d2 column
    sys_zero = example1()
    sys_none = DelaySystem.from_matrices(sys_zero.a, sys_zero.a_d1)
    params = HierarchyParams(2, 1)
    p1 = assemble_stability_lmis(sys_zero, params, 1.2)
    p2 = assemble_stability_lmis(sys_none, params, 1.2)
    for c1, c2 in zip(p1.constraints, p2.constraints):
        assert np.array_equal(c1.coeffs, c2.coeffs)


def test_high_weight_depth_drops_invalid_projections():
    # m >= M: projection orders would go negative; those terms are omitted
    sys = example1()
    params = HierarchyParams(1, 2)  # m1=2 > M-1=0
    prob = assemble_stability_lmis(sys, params, 1.0)
    names = {c.name for c in prob.constraints}
    assert {"Q0 positive", "Q1 positive", "Q2 positive"} <= names
    dv = zero_vars(prob.layout)
    dv.qs[2] = np.eye(2)
    blk = _compiled_value(prob, "positivity", dv)
    assert np.allclose(blk, 0.0)  # Q2 has no valid projection term at M=1


def test_nodv_counts():
    assert nodv(HierarchyParams(3, 1), 2) == 48
    assert nodv(HierarchyParams(1, 0), 1) == 3 + 1 + 1
    assert nodv(HierarchyParams(1, 1), 2) == 22  # printed table value 16 differs
    assert nodv(HierarchyParams(4, 1), 2) == 55 + 6 + 6


def test_delay_range_matches_affine_structure():
    # range block is affine in tau when the distributed matrix vanishes
    sys = example1()
    params = HierarchyParams(2, 1)
    rng = np.random.default_rng(4)
    lo, hi = 0.4, 1.9
    mid = 0.5 * (lo + hi)
    prob = assemble_delay_range_lmis(sys, params, lo, hi)
    dv = random_vars(prob.layout, rng)
    b_lo = _compiled_value(prob, "derivative at lower endpoint", dv)
    b_hi = _compiled_value(prob, "derivative at upper endpoint", dv)
    mid_prob = assemble_delay_range_lmis(sys, params, mid, hi)
    b_mid = _compiled_value(mid_prob, "derivative at lower endpoint", dv)
    assert np.allclose(b_mid, 0.5 * (b_lo + b_hi), atol=1e-11)


def test_delay_range_single_point_equivalence():
    # Schur form at a single tau decides exactly like the plain condition
    rng = np.random.default_rng(5)
    agreements = 0
    for _ in range(20):
        n = int(rng.integers(1, 3))
        a = rng.normal(size=(n, n)) - 1.2 * np.eye(n)
        d1 = 0.6 * rng.normal(size=(n, n))
        sys = DelaySystem.from_matrices(a, d1)
        tau = float(rng.uniform(0.05, 2.5))
        params = HierarchyParams(int(rng.integers(1, 3)), int(rng.integers(0, 2)))
        r1 = decide_feasibility(assemble_stability_lmis(sys, params, tau))
        r2 = decide_feasibility(assemble_delay_range_lmis(sys, params, tau, tau))
        assert r1.status == r2.status, (a, d1, tau, params)
        agreements += 1
    assert agreements == 20


def test_delay_range_validation():
    sys = example1()
    with pytest.raises(ValueError):
        assemble_delay_range_lmis(sys, HierarchyParams(1, 1), 0.0, 1.0)
    with pytest.raises(ValueError):
        assemble_delay_range_lmis(sys, HierarchyParams(1, 1), 2.0, 1.0)
    with pytest.raises(ValueError):
        assemble_stability_lmis(sys, HierarchyParams(1, 1), -1.0)
