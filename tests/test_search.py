"""Bisection and sweep tests, including an analytic delay-margin oracle."""

import math

import pytest

import delaymargin.search as search
from delaymargin.lmi import DelaySystem, HierarchyParams
from delaymargin.sdp import FEASIBLE
from delaymargin.search import (
    BracketError,
    NoFeasiblePointError,
    hierarchy_sweep,
    max_delay,
    min_delay,
    stability_interval,
)


def pure_delay_scalar() -> DelaySystem:
    # x'(t) = -x(t - tau): asymptotically stable exactly for tau < pi/2
    return DelaySystem.from_matrices([[0.0]], [[-1.0]], name="pure-delay")


def test_scalar_margin_against_analytic_value():
    tau1, _ = max_delay(pure_delay_scalar(), HierarchyParams(1, 1))
    tau2, _ = max_delay(pure_delay_scalar(), HierarchyParams(2, 1))
    limit = math.pi / 2
    # certified bounds stay below the analytic margin and tighten with M
    assert tau1 <= limit + 1e-4
    assert tau2 <= limit + 1e-4
    assert tau2 >= tau1 - 1e-6
    assert tau2 == pytest.approx(limit, abs=2e-4)
    assert tau1 == pytest.approx(limit, abs=5e-3)


def test_bracketing_soundness_from_probe_log():
    tau, report = max_delay(pure_delay_scalar(), HierarchyParams(1, 1), tol=1e-4)
    feas = [p.tau for p in report.probes if p.status == FEASIBLE]
    infeas = [p.tau for p in report.probes if p.status != FEASIBLE]
    assert tau in feas
    witnesses = [t for t in infeas if t > tau]
    assert witnesses and min(witnesses) - tau <= 1e-4 + 1e-12
    assert report.tau_upper == tau
    assert report.direction == "upper"


def test_bisection_probe_count_bound():
    tol = 1e-4
    _, report = max_delay(pure_delay_scalar(), HierarchyParams(1, 1), tol=tol)
    feas = [p.tau for p in report.probes if p.status == FEASIBLE]
    infeas = [p.tau for p in report.probes if p.status != FEASIBLE]
    # width of the geometric bracket that bisection started from
    lo = max(t for t in feas if t <= min(t2 for t2 in infeas if t2 > t))
    bracket_probes = [p for p in report.probes]
    # conservative audit: total probes <= geometric phase + ceil(log2(W/tol)) + 2
    first_infeas = min(t for t in infeas if t > lo / 2)
    width = first_infeas
    budget = math.ceil(math.log2(width / tol)) + 2
    geometric = sum(1 for p in bracket_probes if p.tau in {10.0 * 2.0**k for k in range(-31, 31)})
    assert len(report.probes) <= geometric + budget


def test_bisection_determinism():
    t1, r1 = max_delay(pure_delay_scalar(), HierarchyParams(1, 1))
    t2, r2 = max_delay(pure_delay_scalar(), HierarchyParams(1, 1))
    assert t1 == t2
    assert [p.tau for p in r1.probes] == [p.tau for p in r2.probes]
    assert [p.margin for p in r1.probes] == [p.margin for p in r2.probes]


def test_no_feasible_point_for_unstable_system():
    unstable = DelaySystem.from_matrices([[1.0]], [[0.0]], name="unstable")
    with pytest.raises(NoFeasiblePointError):
        max_delay(unstable, HierarchyParams(1, 1))


def test_bracket_error_when_no_upper_crossing(monkeypatch):
    # force the oracle to report feasibility everywhere
    class _Always:
        status = FEASIBLE
        margin = 1.0
        feasible = True
        iterations = 1
        meta = {"margin_error": 0.0, "stop_reason": "converged"}

    monkeypatch.setattr(search, "decide_feasibility", lambda *a, **k: _Always())
    monkeypatch.setattr(search, "verify_certificate", lambda *a, **k: True)
    with pytest.raises(BracketError):
        max_delay(pure_delay_scalar(), HierarchyParams(1, 1))


def test_min_delay_none_when_feasible_to_floor():
    indep = DelaySystem.from_matrices([[-1.0]], [[-0.5]], name="delay-independent")
    lo, report = min_delay(indep, HierarchyParams(1, 1))
    assert lo is None
    assert report.tau_lower is None
    assert any("probe floor" in note for note in report.notes)


def test_min_delay_finds_lower_crossing():
    # distributed-delay benchmark: stability window starts near 0.2
    sys2 = DelaySystem.from_matrices(
        [[0.2, 0.0], [0.2, 0.1]],
        [[0.0, 0.0], [0.0, 0.0]],
        [[-1.0, 0.0], [-1.0, -1.0]],
        name="example2",
    )
    lo, report = min_delay(sys2, HierarchyParams(2, 1), tol=1e-4)
    assert lo == pytest.approx(0.20001, abs=1e-3)
    infeas_below = [p.tau for p in report.probes if p.status != FEASIBLE and p.tau < lo]
    assert infeas_below and lo - max(infeas_below) <= 1e-4 + 1e-12


def test_stability_interval_reports_certification_outcome():
    sys3 = DelaySystem.from_matrices(
        [[0.0, 1.0], [-2.0, 0.1]], [[0.0, 0.0], [1.0, 0.0]], name="example3"
    )
    report = stability_interval(sys3, HierarchyParams(1, 1), tol=1e-4)
    assert report.direction == "interval"
    assert report.tau_lower == pytest.approx(0.10055, abs=1e-2)
    assert report.tau_upper == pytest.approx(1.5405, abs=1e-2)
    # whole-range single-certificate check ran and its outcome is reported
    assert report.range_certified is not None
    if not report.range_certified:
        assert any("range certification failed" in n for n in report.notes)


def test_interval_open_at_zero():
    indep = DelaySystem.from_matrices([[-1.0]], [[-0.5]], name="delay-independent")
    report = stability_interval(indep, HierarchyParams(1, 1), tol=1e-3)
    assert report.tau_lower is None
    assert report.tau_upper is not None


def test_hierarchy_sweep_monotone_and_deterministic():
    result = hierarchy_sweep(
        pure_delay_scalar(), range(1, 3), range(1, 2), tol=1e-4
    )
    assert set(result.cells) == {(1, 1), (2, 1)}
    assert result.violations == []
    assert result.errors == {}
    taus = [result.cells[(m_big, 1)].tau_upper for m_big in (1, 2)]
    assert taus[1] >= taus[0] - 5e-3


def test_hierarchy_sweep_collects_cell_errors():
    unstable = DelaySystem.from_matrices([[1.0]], [[0.0]], name="unstable")
    result = hierarchy_sweep(unstable, range(1, 2), range(1, 2), tol=1e-3)
    assert result.cells == {}
    assert (1, 1) in result.errors


def test_sweep_rejects_empty_ranges():
    with pytest.raises(ValueError):
        hierarchy_sweep(pure_delay_scalar(), range(1, 1), range(1, 2))


def test_single_cell_sweep_has_no_comparisons():
    result = hierarchy_sweep(
        pure_delay_scalar(), range(1, 2), range(1, 2), tol=1e-3
    )
    assert result.violations == []
    assert len(result.cells) == 1


# ---------------------------------------------------------------------------
# Frequency-domain oracle: a computed bound should sit at a characteristic
# root crossing of the true system, independent of all the LMI machinery.
# ---------------------------------------------------------------------------


def _characteristic_minimum(a, d1, tau, w_hi=3.0):
    import numpy as np

    def sweep(grid):
        vals = []
        eye = np.eye(a.shape[0])
        for w in grid:
            mat = 1j * w * eye - a - d1 * np.exp(-1j * w * tau)
            vals.append(abs(np.linalg.det(mat)))
        return np.asarray(vals)

    grid = np.linspace(0.0, w_hi, 3001)
    vals = sweep(grid)
    for _ in range(3):  # local refinement around the best frequency
        k = int(np.argmin(vals))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, len(grid) - 1)]
        grid = np.linspace(lo, hi, 2001)
        vals = sweep(grid)
    return float(vals.min())


def test_computed_bounds_sit_at_characteristic_crossings(bounds, systems):
    ex1 = systems["example1"]
    tau1 = bounds.max_delay("example1", 4, 1)
    at_bound = _characteristic_minimum(ex1.a, ex1.a_d1, tau1)
    inside = _characteristic_minimum(ex1.a, ex1.a_d1, 0.95 * tau1)
    beyond = _characteristic_minimum(ex1.a, ex1.a_d1, 1.05 * tau1)
    assert at_bound < 1e-3
    assert inside > 20 * at_bound
    assert beyond > 20 * at_bound

    ex3 = systems["example3"]
    rep = bounds.interval("example3", 3, 1)
    for tau in (rep.tau_lower, rep.tau_upper):
        crossing = _characteristic_minimum(ex3.a, ex3.a_d1, tau)
        assert crossing < 5e-3
    mid = _characteristic_minimum(ex3.a, ex3.a_d1, 0.8)
    assert mid > 0.1
