"""Search and sweep tests, including an analytic delay-margin oracle."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import delaymargin.search as search
from delaymargin.crossings import Window
from delaymargin.lmi import (
    DelaySystem,
    HierarchyParams,
    assemble_stability_lmis,
    stability_tau_derivatives,
)
from delaymargin.sdp import (
    FEASIBLE,
    INCONCLUSIVE,
    INFEASIBLE,
    FeasibilityResult,
    decide_feasibility,
    solve,
)
from delaymargin.search import (
    STEPS,
    BracketError,
    NoFeasiblePointError,
    ProbeRecord,
    RangeProbe,
    hierarchy_sweep,
    max_delay,
    min_delay,
    stability_interval,
)
from delaymargin.systems import bundled_system
from oracles import characteristic_minimum


def pure_delay_scalar() -> DelaySystem:
    # x'(t) = -x(t - tau): asymptotically stable exactly for tau < pi/2
    return DelaySystem([[0.0]], [[-1.0]], name="pure-delay")


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


def _near_crossing(c: float, mid: float, tol: float) -> float:
    """The first probe of an upper search in a window of midpoint mid and
    upper crossing c: the log-distance bisection point between them."""
    return c - (math.sqrt(tol) * math.sqrt(c - mid + tol) - tol)


def _second_near_crossing(c: float, mid: float, tol: float) -> float:
    """The probe after an infeasible first one: the log-distance bisection
    point between the first probe and the midpoint."""
    d_near = c - _near_crossing(c, mid, tol)
    return c - (math.sqrt(d_near + tol) * math.sqrt(c - mid + tol) - tol)


def test_bisection_probe_count_bound():
    tol = 1e-4
    _, report = max_delay(pure_delay_scalar(), HierarchyParams(1, 1), tol=tol)
    # the one window (0, pi/2) is first probed at the log-distance
    # bisection point between its midpoint and its crossing c, which is
    # feasible, and refined toward c; conservative audit: total probes <=
    # the window probe + ceil(log2(W/tol)) + 2 for the bracket (first, c)
    assert report.crossings == [None, pytest.approx(math.pi / 2, rel=1e-12)]
    c = report.crossings[1]
    first = report.probes[0].tau
    assert first == _near_crossing(c, 0.5 * c, tol)
    assert [p.step for p in report.probes].count("bracket") == 1
    assert 0.5 * c not in [p.tau for p in report.probes]
    budget = math.ceil(math.log2((c - first) / tol)) + 2
    assert len(report.probes) <= 1 + budget


def test_bisection_determinism():
    t1, r1 = max_delay(pure_delay_scalar(), HierarchyParams(1, 1))
    t2, r2 = max_delay(pure_delay_scalar(), HierarchyParams(1, 1))
    assert t1 == t2
    assert [p.tau for p in r1.probes] == [p.tau for p in r2.probes]
    assert [p.margin for p in r1.probes] == [p.margin for p in r2.probes]


def test_no_feasible_point_for_unstable_system(monkeypatch):
    # x' = x has one unstable root at every delay: no window is probed
    monkeypatch.setattr(search, "decide_feasibility", _no_solve)
    unstable = DelaySystem([[1.0]], [[0.0]], name="unstable")
    with pytest.raises(NoFeasiblePointError):
        max_delay(unstable, HierarchyParams(1, 1))


def _no_solve(*args, **kwargs):
    raise AssertionError("a window certainly holding unstable roots was probed")


def test_bracket_error_when_no_upper_crossing(monkeypatch):
    # force the oracle to report feasibility everywhere
    monkeypatch.setattr(search, "decide_feasibility", lambda *a, **k: _fake_result(1.0))
    monkeypatch.setattr(search, "verify_certificate", lambda *a, **k: True)
    with pytest.raises(BracketError):
        max_delay(pure_delay_scalar(), HierarchyParams(1, 1))


# ---------------------------------------------------------------------------
# Margin-guided refinement against a fake oracle with a known crossing r:
# the margin is profile(distance to r) on the feasible side and ~0 beyond,
# and its slope is the profile's derivative.
# ---------------------------------------------------------------------------


def _fake_result(margin: float, slope: float | None = None) -> FeasibilityResult:
    """A solver outcome with the given margin.  With a slope, the one-block
    fake program has y = (slope,), X = I and a tau-derivative stack of ones
    (`_fake_derivatives`), so the envelope-theorem slope is exactly it;
    without one, there are no X blocks and no slope."""
    return FeasibilityResult(
        status=FEASIBLE if margin > 0 else INFEASIBLE,
        margin=margin,
        certificate=np.zeros(0) if slope is None else np.array([slope]),
        iterations=1,
        stop_reason="converged",
        margin_error=0.0,
        gap=0.0,
        primal=0.0,
        dual=0.0,
        primal_blocks=[] if slope is None else [np.eye(1)],
    )


def _fake_derivatives(sys, params, tau):
    return [np.ones((1, 1, 1))]


# (margin, its derivative) as functions of the distance d to the crossing
# and of a draw s from U(0.5, 1), made once per probe
_PROFILES = {
    "linear": (lambda d, s: 2.0 * d, lambda d, s: 2.0),
    "convex": (lambda d, s: d**1.5, lambda d, s: 1.5 * math.sqrt(d)),
    "concave": (lambda d, s: math.sqrt(d), lambda d, s: 0.5 / math.sqrt(d)),
    "kink": (
        lambda d, s: d if d < 0.05 else 0.05 + 8.0 * (d - 0.05),
        lambda d, s: 1.0 if d < 0.05 else 8.0,
    ),
    # a flat crossing: the tangent alone creeps up on it at 0.75x per
    # probe, so this profile needs the progress guard to stay within the budget
    "flat": (lambda d, s: d**4, lambda d, s: 4.0 * d**3),
    # slope 0: the tangent has no root, so every refinement step bisects
    "constant": (lambda d, s: 1.0, lambda d, s: 0.0),
    "scaled": (lambda d, s: d * s, lambda d, s: s),
}
# crossings per direction; the search starts from the window ending there
_CROSSINGS = {"upper": (1.2345678, 6.0593), "lower": (0.1005, 0.0123456)}


def _windows(monkeypatch, *windows):
    """Replace the system's stability windows (the real ones of
    pure_delay_scalar meet at pi/2) by the fake oracle's."""
    monkeypatch.setattr(search, "stability_windows", lambda sys: list(windows))


def _fake_search(monkeypatch, profile, r, direction, tol, crossing=None):
    """Search against a fake oracle whose crossing r is the end of the
    stable window: (0, r) for the upper bound, (r, inf) for the lower.
    With a ``crossing``, the window ends there instead and r lies in it."""
    rng = np.random.default_rng(5)
    margin, rate = _PROFILES[profile]
    beyond = 1.0 if direction == "upper" else -1.0  # d falls as tau moves this way

    def decide(tau, start=None):
        d = beyond * (r - tau)
        if d <= 0:
            return _fake_result(-1e-10)
        s = rng.uniform(0.5, 1.0)
        return _fake_result(margin(d, s), -beyond * rate(d, s))

    c = r if crossing is None else crossing
    if direction == "upper":
        _windows(monkeypatch, Window(0.0, c, 0), Window(c, math.inf, 2))
    else:
        _windows(monkeypatch, Window(0.0, c, 1), Window(c, math.inf, 0))
    monkeypatch.setattr(search, "assemble_stability_lmis", lambda sys, params, tau: tau)
    monkeypatch.setattr(search, "stability_tau_derivatives", _fake_derivatives)
    monkeypatch.setattr(search, "decide_feasibility", decide)
    monkeypatch.setattr(search, "verify_certificate", lambda *a, **k: True)
    run = max_delay if direction == "upper" else min_delay
    return run(pure_delay_scalar(), HierarchyParams(1, 1), tol=tol)


@pytest.mark.parametrize("direction", ["upper", "lower"])
@pytest.mark.parametrize("profile", sorted(_PROFILES))
def test_refinement_against_known_crossing(monkeypatch, profile, direction):
    tol = 1e-5
    for r in _CROSSINGS[direction]:
        bound, report = _fake_search(monkeypatch, profile, r, direction, tol)
        assert {p.step for p in report.probes} <= set(STEPS)
        # the bound is a logged feasible probe with a logged infeasible probe
        # less than tol beyond it, and the crossing lies between them
        beyond = 1.0 if direction == "upper" else -1.0
        feas = [p.tau for p in report.probes if p.status == FEASIBLE]
        infeas = [p.tau for p in report.probes if p.status != FEASIBLE]
        assert bound in feas
        gaps = [beyond * (t - bound) for t in infeas if beyond * (t - bound) > 0]
        assert gaps and min(gaps) <= tol
        assert 0 < beyond * (r - bound) <= tol
        # probe budget, counted from the bracket the refinement starts
        # from: the window probe and the window's crossing r, which is
        # probed once when no refinement probe lands beyond it
        bracket = [p for p in report.probes if p.step == "bracket"]
        assert len(bracket) == 1 and bracket[0].status == FEASIBLE
        width = abs(r - bracket[0].tau)
        refinement = len(report.probes) - len(bracket)
        assert refinement <= 2 * math.ceil(math.log2(width / tol)) + 4
        if profile in ("linear", "concave"):
            assert refinement <= 8
        # replay the bracket: a close probe is the window's crossing or lies
        # at most tol beyond the feasible end it was taken from
        tau_feas = bracket[0].tau
        for p in report.probes[1:]:
            if p.step == "close":
                assert p.tau == r or 0 < beyond * (p.tau - tau_feas) <= tol
            if p.verified:
                tau_feas = p.tau


def test_refinement_labels_its_steps(monkeypatch):
    # the convex profile's tangent roots fall short of the crossing, inside
    # the bracket, so the model steps
    _, report = _fake_search(monkeypatch, "convex", 1.2345678, "upper", 1e-5)
    steps = [p.step for p in report.probes]
    first = next(i for i, step in enumerate(steps) if step != "bracket")
    assert set(steps[:first]) == {"bracket"}
    assert "bracket" not in steps[first:]
    assert "model" in steps and steps[-1] == "close"
    # the constant-margin profile gives the model no slope: pure bisection,
    # every probe feasible, and the crossing itself closes the bracket
    _, report = _fake_search(monkeypatch, "constant", 1.2345678, "upper", 1e-5)
    assert {p.step for p in report.probes[:-1]} == {"bracket", "bisect"}
    assert report.probes[-1].step == "close"
    assert report.probes[-1].tau == 1.2345678


@pytest.mark.parametrize("direction", ["upper", "lower"])
@pytest.mark.parametrize("gap", [1e-1, 1e-3, 1e-5])
def test_fallback_bisects_in_log_distance_from_the_crossing(monkeypatch, gap, direction):
    # the constant profile gives the model no estimate, so every refinement
    # probe is the fallback's; the window ends at c, a relative gap beyond
    # the oracle's crossing r, as bounds do at low M
    tol, c = 1e-5, 1.2345678
    beyond = 1.0 if direction == "upper" else -1.0
    r = c * (1.0 - beyond * gap)
    bound, report = _fake_search(monkeypatch, "constant", r, direction, tol, crossing=c)
    assert 0 < beyond * (r - bound) <= tol
    # the window probes: an upper search first probes near c, and at the
    # widest gap, where that probe and the log-distance point between it
    # and the midpoint both lie beyond r, the midpoint next, with the nearer
    # rejected probe as the bracket's infeasible end; else that end is c
    windowed = sum(p.step == "bracket" for p in report.probes)
    *rejected, first = report.probes[:windowed]
    refinement = report.probes[windowed:]
    assert first.verified and not any(p.verified for p in rejected)
    assert len(rejected) == 2 * (direction == "upper" and gap == 1e-1)
    anchor = rejected[-1].tau if rejected else c
    tau_feas, tau_infeas = first.tau, anchor
    for p in refinement:
        lo, hi = sorted((tau_feas, tau_infeas))
        assert p.step == "bisect" and lo < p.tau < hi
        if p.verified:
            tau_feas = p.tau
        else:
            tau_infeas = p.tau
    assert tau_feas == bound and abs(tau_infeas - tau_feas) <= tol
    # each probe halves the span of log(d + tol), d the distance from the
    # anchor, which starts at log((|anchor - first| + tol) / tol); once it
    # is at most log(1 + tol / (|anchor - r| + tol)) the pair is within
    # tol: 17, 10 and 4 probes upward, 18, 11 and 5 downward, all taken
    span = math.log((abs(anchor - first.tau) + tol) / tol)
    budget = math.ceil(math.log2(span / math.log1p(tol / (abs(anchor - r) + tol))))
    assert len(refinement) <= budget


def test_model_step_is_the_tangent_root_of_the_last_verified_probe(monkeypatch):
    # a convex margin: the tangent through the window probe undershoots
    # the crossing, so the first refinement probe is that root, feasible
    _, report = _fake_search(monkeypatch, "convex", 1.2345678, "upper", 1e-5)
    first, second = report.probes[:2]
    assert first.slope == -1.5 * math.sqrt(1.2345678 - first.tau)
    assert second.step == "model" and second.verified
    assert second.tau == first.tau - first.margin / first.slope


def test_crossing_estimate_is_the_tangent_root_or_nan():
    # tangent at the feasible end: 1.2 + 0.4 / 2 = 1.4; NaN whenever that
    # root is missing or outside the open bracket
    def feasible_end(slope):
        return ProbeRecord(1.2, FEASIBLE, 0.4, True, slope=slope)

    estimate = search._crossing_estimate
    assert estimate(feasible_end(-2.0), 1.0, 1.2, 3.0) == pytest.approx(1.4, rel=1e-15)
    assert math.isnan(estimate(feasible_end(None), 1.0, 1.2, 3.0))  # no slope
    assert math.isnan(estimate(feasible_end(2.0), 1.0, 1.2, 3.0))  # slope away from the end
    assert math.isnan(estimate(feasible_end(0.0), 1.0, 1.2, 3.0))  # no root
    assert math.isnan(estimate(feasible_end(-2.0), 1.0, 1.2, 1.3))  # root beyond the bracket
    assert math.isnan(estimate(feasible_end(-2.0), -1.0, 0.5, 1.2))  # the lower end's side


# the envelope-theorem slope against central differences of the optimal
# margin, step 1e-3: measured at most 2.9e-5 relative over these 8 points
_SLOPE_BOUNDS = {"example1": 6.1725, "example2": 2.0412, "example3": 1.7178}


@pytest.mark.parametrize("fraction", [0.5, 0.9])
@pytest.mark.parametrize(
    "name,cell", [("example1", (1, 1)), ("example1", (3, 1)), ("example2", (3, 2)), ("example3", (3, 1))]
)
def test_margin_slope_matches_central_differences(name, cell, fraction):
    sys = bundled_system(name)[0]
    params = HierarchyParams(*cell)
    tau, h = fraction * _SLOPE_BOUNDS[name], 1e-3

    def margin(at):
        return solve(assemble_stability_lmis(sys, params, at)).margin

    result = solve(assemble_stability_lmis(sys, params, tau))
    slope = search._margin_slope(stability_tau_derivatives(sys, params, tau), result)
    central = (margin(tau + h) - margin(tau - h)) / (2 * h)
    assert slope == pytest.approx(central, rel=2e-4)


_LOWER_CROSSING = 0.1005


def _counting_oracle(
    monkeypatch, r, unverified=(), inconclusive_above=math.inf, windows=None
):
    """Fake oracle for an upper crossing at r (and a lower one at 0.1005)
    that counts its solves; verification fails at the delays in
    ``unverified``, and infeasible probes above ``inconclusive_above`` end
    numerically inconclusive.  The stability windows are ``windows``, by
    default the stable (0.1005, r) between two unstable ones."""
    solved = []
    if windows is None:
        windows = (
            Window(0.0, _LOWER_CROSSING, 2),
            Window(_LOWER_CROSSING, r, 0),
            Window(r, math.inf, 2),
        )
    _windows(monkeypatch, *windows)

    def decide(tau, start=None):
        if isinstance(tau, tuple):  # a delay-range program
            return _fake_result(1.0)
        solved.append(tau)
        margin = min(r - tau, tau - _LOWER_CROSSING)
        if margin <= 0 and tau > inconclusive_above:
            return replace(_fake_result(-1e-10), status=INCONCLUSIVE)
        if margin <= 0:
            return _fake_result(-1e-10)
        return _fake_result(2.0 * margin, -2.0 if margin == r - tau else 2.0)

    monkeypatch.setattr(search, "assemble_stability_lmis", lambda sys, params, tau: tau)
    monkeypatch.setattr(search, "stability_tau_derivatives", _fake_derivatives)
    monkeypatch.setattr(
        search, "assemble_delay_range_lmis", lambda sys, params, lo, hi: (lo, hi)
    )
    monkeypatch.setattr(search, "decide_feasibility", decide)
    monkeypatch.setattr(
        search, "verify_certificate", lambda program, result: program not in unverified
    )
    return solved


def test_probe_log_is_the_memo(monkeypatch):
    # windows that misplace the lower crossing at 0.15: the uncertain
    # window (0, 0.15) gets one probe, at 0.075, infeasible; the lower
    # search in (0.15, r) then finds its crossing feasible and goes on past
    # it as from zero, probing tol and refining in (tol, 0.15), which holds
    # the window below's probe
    solved = _counting_oracle(
        monkeypatch, 1.2345678,
        windows=(Window(0.0, 0.15, None), Window(0.15, 1.2345678, 0)),
    )
    bound, report = min_delay(pure_delay_scalar(), HierarchyParams(1, 1), tol=1e-5)
    taus = [p.tau for p in report.probes]
    assert len(set(taus)) == len(taus)
    # one solve per logged probe, across both windows' searches
    assert solved == taus
    assert taus.index(0.075) < taus.index(0.15)
    assert any("probed feasible" in note for note in report.notes)
    assert 0 < bound - _LOWER_CROSSING <= 1e-5


def test_probing_a_logged_delay_solves_once(monkeypatch):
    solved = _counting_oracle(monkeypatch, 1.2345678)
    report = search.DelayBoundsReport("pure-delay", 1, 1, "upper")
    args = (pure_delay_scalar(), HierarchyParams(1, 1), report, {})
    # a feasible and an infeasible delay, each probed twice: the second
    # probe returns the logged verdict and logs nothing
    for tau, verdict in ((0.5, True), (2.0, False)):
        assert search._probe(*args, tau, "bracket") is verdict
        assert search._probe(*args, tau, "model") is verdict
    assert solved == [0.5, 2.0]
    assert [(p.tau, p.step) for p in report.probes] == [(0.5, "bracket"), (2.0, "bracket")]


def test_infeasible_probe_at_tol_ends_the_lower_bracket(monkeypatch):
    # a window (0, c) certainly free of unstable roots, over an oracle
    # infeasible below its lower crossing: the lower end is open at zero,
    # so tol is probed once, infeasible, and the bracket (first, tol) is
    # refined to the oracle's crossing
    tol, c = 1e-5, 1.2345678
    _counting_oracle(monkeypatch, c, windows=(Window(0.0, c, 0), Window(c, math.inf, 2)))
    bound, report = min_delay(pure_delay_scalar(), HierarchyParams(1, 1), tol=tol)
    first, at_tol, *refinement = report.probes
    assert [p.tau for p in report.probes if p.step == "bracket"] == [first.tau, tol]
    assert at_tol.tau == tol and at_tol.status != FEASIBLE
    assert 0 < bound - _LOWER_CROSSING <= tol
    assert next(p for p in report.probes if p.tau == bound).verified is True
    below = [bound - p.tau for p in report.probes if not p.verified and p.tau < bound]
    assert below and min(below) <= tol
    # the log-distance bisection budget, as in the fallback test, with the
    # anchor at tol: d + tol is first.tau at the window probe and the
    # oracle's crossing at the crossing
    span = math.log(first.tau / tol)
    budget = math.ceil(math.log2(span / math.log1p(tol / _LOWER_CROSSING)))
    assert len(refinement) <= budget


def test_each_probe_starts_from_the_nearest_verified_snapshot(monkeypatch):
    # a fake solver whose snapshot names its delay: a search's first probe
    # starts cold, and each later one from the snapshot of the nearest
    # verified feasible probe logged before it; the rejected first probe,
    # feasible but unverified, never seeds one
    tol, c = 1e-5, 1.2345678
    first = _near_crossing(c, 0.5 * (_LOWER_CROSSING + c), tol)
    _counting_oracle(monkeypatch, c, unverified={first})
    counting = search.decide_feasibility
    received = []

    def decide(tau, start=None):
        received.append(start)
        return replace(counting(tau), snapshot=("snapshot", tau))

    monkeypatch.setattr(search, "decide_feasibility", decide)
    report = stability_interval(pure_delay_scalar(), HierarchyParams(1, 1), tol=tol)
    verified = []
    for p, start in zip(report.probes, received):
        nearest = min(verified, key=lambda tau: abs(tau - p.tau), default=None)
        assert p.start == nearest
        assert start == (None if nearest is None else ("snapshot", nearest))
        if p.verified:
            verified.append(p.tau)
    assert report.probes[0].start is None and report.probes[1].start is None
    assert all(p.start is not None for p in report.probes[2:])
    assert first not in [p.start for p in report.probes]
    # the delay-range solve starts cold
    assert received[-1] is None and len(received) == len(report.probes) + 1


def test_unverified_probe_counts_as_infeasible(monkeypatch):
    # the window's first probe, near its crossing, is a feasible delay
    # whose certificate fails the check
    tol, c = 1e-5, 1.2345678
    mid = 0.5 * (_LOWER_CROSSING + c)
    first = _near_crossing(c, mid, tol)
    _counting_oracle(monkeypatch, c, unverified={first})
    bound, report = max_delay(pure_delay_scalar(), HierarchyParams(1, 1), tol=tol)
    rejected, second = report.probes[:2]
    assert rejected.tau == first
    assert rejected.status == FEASIBLE and rejected.verified is False
    assert [p.tau for p in report.probes].count(first) == 1
    # the search treats it as infeasible: the log-distance point between it
    # and the midpoint is probed next, verified, and the rejected probe is
    # the bracket's infeasible end, so the bound lies within tol below it,
    # on a verified probe
    between = _second_near_crossing(c, mid, tol)
    assert (second.tau, second.step, second.verified) == (between, "bracket", True)
    assert mid not in [p.tau for p in report.probes]
    assert bound != first
    assert 0 < first - bound <= tol
    assert next(p for p in report.probes if p.tau == bound).verified is True


@pytest.mark.parametrize("run", [max_delay, stability_interval])
def test_feasible_near_probe_means_no_midpoint_probe(monkeypatch, run):
    # an upper search in the stable window (0.1005, c) first probes the
    # log-distance point between the midpoint and c; it is feasible, so it
    # is the window's first feasible probe and the midpoint is never solved
    tol, c = 1e-5, 1.2345678
    mid = 0.5 * (_LOWER_CROSSING + c)
    solved = _counting_oracle(monkeypatch, c)
    out = run(pure_delay_scalar(), HierarchyParams(1, 1), tol=tol)
    report = out if run is stability_interval else out[1]
    first = report.probes[0]
    assert first.tau == _near_crossing(c, mid, tol)
    assert (first.step, first.verified) == ("bracket", True)
    assert mid < first.tau < c and mid not in solved
    assert [p.step for p in report.probes].count("bracket") == 1
    assert 0 < c - report.tau_upper <= tol


def _window_below_c(monkeypatch, r):
    """The counting oracle with crossing r in the stable window (0.1005, c),
    c = 1.2345678; returns its list of solved delays."""
    c = 1.2345678
    return _counting_oracle(
        monkeypatch, r,
        windows=(
            Window(0.0, _LOWER_CROSSING, 2), Window(_LOWER_CROSSING, c, 0), Window(c, math.inf, 2)
        ),
    )


def test_infeasible_near_probe_is_followed_by_the_midpoint(monkeypatch):
    # the window ends at c but the oracle's crossing r lies below both near
    # probes: the first near c, and the log-distance point between it and
    # the midpoint; the midpoint is probed next, and the second near probe,
    # not c, is the refinement's infeasible end, so c is never probed
    tol, c, r = 1e-5, 1.2345678, 1.0
    mid = 0.5 * (_LOWER_CROSSING + c)
    solved = _window_below_c(monkeypatch, r)
    bound, report = max_delay(pure_delay_scalar(), HierarchyParams(1, 1), tol=tol)
    near, between, midpoint, *refinement = report.probes
    assert near.tau == _near_crossing(c, mid, tol) and near.verified is None
    assert between.tau == _second_near_crossing(c, mid, tol) and between.verified is None
    assert (between.step, midpoint.step) == ("bracket", "bracket")
    assert (midpoint.tau, midpoint.verified) == (mid, True)
    assert refinement and all(mid < p.tau < between.tau for p in refinement)
    assert c not in solved
    assert 0 < r - bound <= tol


def test_feasible_second_near_probe_means_no_midpoint_probe(monkeypatch):
    # the oracle's crossing r lies between the two near probes: the second
    # is the window's first feasible probe, the first ends the bracket, and
    # neither the midpoint nor c is probed
    tol, c, r = 1e-5, 1.2345678, 1.22
    mid = 0.5 * (_LOWER_CROSSING + c)
    solved = _window_below_c(monkeypatch, r)
    bound, report = max_delay(pure_delay_scalar(), HierarchyParams(1, 1), tol=tol)
    near, between, *refinement = report.probes
    assert near.tau == _near_crossing(c, mid, tol) and near.verified is None
    assert between.tau == _second_near_crossing(c, mid, tol) and between.verified is True
    assert [p.step for p in report.probes].count("bracket") == 2
    assert refinement and all(between.tau < p.tau < near.tau for p in refinement)
    assert mid not in solved and c not in solved
    assert 0 < r - bound <= tol


@pytest.mark.parametrize("case", ["min_delay", "uncertain"])
def test_lower_searches_and_uncertain_windows_probe_the_midpoint_first(monkeypatch, case):
    # a lower-only search, and any search in a window whose count is not
    # certain, starts at the window's midpoint
    tol, c = 1e-5, 1.2345678
    windows = None
    if case == "uncertain":
        windows = (Window(_LOWER_CROSSING, c, None), Window(c, math.inf, 2))
    solved = _counting_oracle(monkeypatch, c, windows=windows)
    run = min_delay if case == "min_delay" else max_delay
    run(pure_delay_scalar(), HierarchyParams(1, 1), tol=tol)
    assert solved[0] == 0.5 * (_LOWER_CROSSING + c)


def test_unstable_windows_cost_no_solve(monkeypatch):
    solved = _counting_oracle(monkeypatch, 1.2345678)
    for run in (max_delay, min_delay):
        solved.clear()
        bound, report = run(pure_delay_scalar(), HierarchyParams(1, 1), tol=1e-5)
        assert report.crossings == [_LOWER_CROSSING, 1.2345678]
        assert all(_LOWER_CROSSING <= tau <= 1.2345678 for tau in solved)
    # the lower crossing closes the lower bound's bracket, probed once
    assert [p.step for p in report.probes if p.tau == _LOWER_CROSSING] == ["close"]
    assert 0 < bound - _LOWER_CROSSING <= 1e-5


def test_feasible_crossing_probe_leads_to_a_note_not_a_bound(monkeypatch):
    # the windows put the crossing at 1.0, below the oracle's crossing r
    r = 1.2345678
    _counting_oracle(
        monkeypatch, r, windows=(Window(0.0, 1.0, 0), Window(1.0, math.inf, 2))
    )
    bound, report = max_delay(pure_delay_scalar(), HierarchyParams(1, 1), tol=1e-5)
    (crossing,) = [p for p in report.probes if p.tau == 1.0]
    assert crossing.step == "close" and crossing.verified is True
    assert any("crossing tau=1.0 probed feasible" in note for note in report.notes)
    # the walk past it finds the oracle's crossing; the bound is a verified
    # probe with an infeasible probe within tol beyond it
    assert 0 < r - bound <= 1e-5
    assert next(p for p in report.probes if p.tau == bound).verified is True
    assert min(p.tau for p in report.probes if not p.verified) - bound <= 1e-5
    # the bound lies outside the window of the crossing it walked past
    assert report.crossings is None


def test_uncertain_windows_cost_one_solve_each(monkeypatch):
    # x' = -x + x(t - tau) - int x: a zero root leaves s = 0 at tau = 0+ in
    # no certain direction, so every window's count is uncertain
    sys = DelaySystem([[-1.0]], [[1.0]], [[-1.0]], name="zero-root")
    windows = search.stability_windows(sys)
    assert len(windows) > 60 and all(w.unstable is None for w in windows)
    # an oracle infeasible everywhere: each window gets its midpoint probe
    solved = _counting_oracle(monkeypatch, 0.0, windows=windows)
    with pytest.raises(NoFeasiblePointError):
        max_delay(sys, HierarchyParams(1, 1), tol=1e-5)
    assert len(solved) == len(windows)


def test_tolerance_wider_than_the_window_still_probes_it(systems):
    # example1's one stable window is (0, 6.17258): its first probe, at
    # sqrt(tol (c/2 + tol)) - tol = 1.32 below its crossing c, is made
    # although it lies within tol 4 of c, and the crossing closes the
    # bracket
    tol = 4.0
    bound, report = max_delay(systems["example1"], HierarchyParams(1, 1), tol=tol)
    crossing = report.crossings[1]
    near = _near_crossing(crossing, 0.5 * crossing, tol)
    assert bound == near == pytest.approx(4.84856, abs=1e-5)
    assert [(p.tau, p.verified) for p in report.probes] == [(bound, True), (crossing, None)]


def test_halving_stops_at_float_resolution(monkeypatch):
    # an oracle infeasible everywhere in a window certainly free of unstable
    # roots: below tol 1e-30 the halving toward 0.3 reaches float resolution
    # (0.3 + ulp/2 rounds back to a logged delay) and must stop there
    solved = _counting_oracle(monkeypatch, 0.0, windows=(Window(0.3, 1.0, 0),))
    calls = []
    probe = search._probe

    def counted(*args):
        calls.append(args[-2])
        if len(calls) > 200:
            raise AssertionError("the halving did not stop")
        return probe(*args)

    monkeypatch.setattr(search, "_probe", counted)
    with pytest.raises(NoFeasiblePointError):
        max_delay(pure_delay_scalar(), HierarchyParams(1, 1), tol=1e-30)
    assert solved == calls and all(0.3 < tau < 1.0 for tau in solved)


@pytest.mark.parametrize("tol", [3.0, 7.0])
def test_near_probe_is_skipped_when_it_rounds_out_of_the_window(monkeypatch, tol):
    # a window two ulps wide: the log-distance point near its crossing
    # rounds above the crossing at tol 3 and below the window at tol 7, so
    # the window's one probe is its midpoint
    lower = 1.0
    upper = math.nextafter(math.nextafter(lower, 2.0), 2.0)
    solved = _counting_oracle(monkeypatch, 0.0, windows=(Window(lower, upper, 0),))
    with pytest.raises(NoFeasiblePointError):
        max_delay(pure_delay_scalar(), HierarchyParams(1, 1), tol=tol)
    assert solved == [0.5 * (lower + upper)]


def test_second_near_probe_is_skipped_when_it_rounds_out_of_the_window(monkeypatch):
    # a window four ulps wide: the first near probe is one ulp below the
    # crossing, and the point between it and the midpoint, two ulps below,
    # rounds onto it, so the midpoint follows the first near probe
    ulps = [1.0]
    for _ in range(4):
        ulps.append(math.nextafter(ulps[-1], 2.0))
    solved = _counting_oracle(monkeypatch, 0.0, windows=(Window(ulps[0], ulps[4], 0),))
    with pytest.raises(NoFeasiblePointError):
        max_delay(pure_delay_scalar(), HierarchyParams(1, 1), tol=1e-15)
    assert solved == [ulps[3], ulps[2]]


def test_interval_is_one_search_on_one_log(monkeypatch):
    _counting_oracle(monkeypatch, 1.2345678)
    windows = search.stability_windows
    calls = []

    def counted(sys):
        calls.append(sys)
        return windows(sys)

    monkeypatch.setattr(search, "stability_windows", counted)
    report = stability_interval(pure_delay_scalar(), HierarchyParams(1, 1), tol=1e-5)
    assert len(calls) == 1
    taus = [p.tau for p in report.probes]
    assert len(set(taus)) == len(taus)
    # the delay-range solve is recorded apart from the per-delay memo
    assert report.range_probe == RangeProbe(
        FEASIBLE, 1, 1.0, "converged", report.range_probe.solve_s
    )
    assert report.range_probe.solve_s >= 0
    assert report.to_dict()["range_probe"]["status"] == FEASIBLE


def test_interval_crossings_come_from_both_bounds_windows(monkeypatch):
    _counting_oracle(monkeypatch, 1.2345678)
    report = stability_interval(pure_delay_scalar(), HierarchyParams(1, 1), tol=1e-5)
    assert report.crossings == [_LOWER_CROSSING, 1.2345678]
    assert report.crossings[0] <= report.tau_lower <= report.tau_upper <= report.crossings[1]


def test_interval_counts_inconclusive_probes_from_its_log(monkeypatch):
    _counting_oracle(monkeypatch, 1.2345678, inconclusive_above=1.0)
    report = stability_interval(pure_delay_scalar(), HierarchyParams(1, 1), tol=1e-5)
    statuses = [p.status for p in report.probes]
    assert report.inconclusive_probes == statuses.count(INCONCLUSIVE) > 0
    assert report.to_dict()["inconclusive_probes"] == report.inconclusive_probes
    assert report.range_certified is True


def test_min_delay_none_when_feasible_to_floor():
    indep = DelaySystem([[-1.0]], [[-0.5]], name="delay-independent")
    lo, report = min_delay(indep, HierarchyParams(1, 1))
    assert lo is None
    assert report.tau_lower is None
    assert any("probe floor" in note for note in report.notes)
    # the window's probe, then one probe at tol, feasible: open at zero
    assert len(report.probes) == 2
    assert min(p.tau for p in report.probes) == search.DEFAULT_TOL


def test_min_delay_finds_lower_crossing():
    # distributed-delay benchmark: stability window starts near 0.2
    sys2 = DelaySystem(
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
    sys3 = DelaySystem(
        [[0.0, 1.0], [-2.0, 0.1]], [[0.0, 0.0], [1.0, 0.0]], name="example3"
    )
    report = stability_interval(sys3, HierarchyParams(1, 1), tol=1e-4)
    assert report.direction == "interval"
    assert report.tau_lower == pytest.approx(0.10055, abs=1e-2)
    assert report.tau_upper == pytest.approx(1.5405, abs=1e-2)
    # one certificate cannot cover this near-maximal window: the check
    # fails, is noted, and the pointwise bounds stand
    assert report.range_certified is False
    assert any("range certification failed" in n for n in report.notes)


def test_interval_notes_any_nonzero_distributed_kernel():
    # a tiny A_d2 still puts tau**2 terms into the range LMIs, so the
    # endpoint range check is heuristic however small the kernel is
    a, d1 = [[0.0, 1.0], [-2.0, 0.1]], [[0.0, 0.0], [1.0, 0.0]]
    sys3 = DelaySystem(a, d1, 1e-9 * np.eye(2), name="example3-d2")
    report = stability_interval(sys3, HierarchyParams(1, 1), tol=1e-3)
    assert report.range_certified is not None
    assert any("endpoint range check is heuristic" in n for n in report.notes)


def test_interval_open_at_zero():
    # the stable window (0, pi/2) is open at zero: the lower end's one
    # probe, at tol, is feasible, and the upper bound refines toward pi/2
    report = stability_interval(pure_delay_scalar(), HierarchyParams(1, 1), tol=1e-3)
    assert report.tau_lower is None
    assert 0 < math.pi / 2 - report.tau_upper <= 5e-3
    assert report.crossings == [None, pytest.approx(math.pi / 2, rel=1e-12)]


def test_delay_independent_stability_has_no_upper_bound():
    # no characteristic root ever crosses: the window (0, inf) is walked by
    # x2 from 1 and stays feasible
    indep = DelaySystem([[-1.0]], [[-0.5]], name="delay-independent")
    with pytest.raises(BracketError, match="no upper crossing"):
        max_delay(indep, HierarchyParams(1, 1), tol=1e-3)


def test_hierarchy_sweep_monotone_and_deterministic():
    result = hierarchy_sweep(pure_delay_scalar(), 2, 1, tol=1e-4)
    assert set(result.cells) == {(1, 1), (2, 1)}
    assert result.violations == []
    assert result.errors == {}
    taus = [result.cells[(m_big, 1)].tau_upper for m_big in (1, 2)]
    assert taus[1] >= taus[0] - 5e-3


def test_reports_hold_no_solver_snapshots():
    # the snapshots live only while a search runs: a sweep's reports hold
    # none, and their JSON has each probe's start delay but no snapshot
    result = hierarchy_sweep(pure_delay_scalar(), 2, 1, tol=1e-4)
    doc = json.loads(json.dumps(result.to_dict()))
    probes = [p for cell in doc["cells"] for p in cell["probes"]]
    assert all("snapshot" not in p for p in probes)
    assert any(p["start"] is not None for p in probes)


def test_hierarchy_sweep_collects_cell_errors():
    unstable = DelaySystem([[1.0]], [[0.0]], name="unstable")
    result = hierarchy_sweep(unstable, 1, 1, tol=1e-3)
    assert result.cells == {}
    assert (1, 1) in result.errors


@pytest.mark.parametrize("max_big_m,max_m", [(0, 1), (1, 0), (-1, 1)])
def test_sweep_rejects_maxima_below_one(max_big_m, max_m):
    with pytest.raises(ValueError, match="sweep needs"):
        hierarchy_sweep(pure_delay_scalar(), max_big_m, max_m)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_entry_points_reject_invalid_tolerance(tol):
    sys, params = pure_delay_scalar(), HierarchyParams(1, 1)
    for run in (max_delay, min_delay, stability_interval):
        with pytest.raises(ValueError, match="tol"):
            run(sys, params, tol)
    with pytest.raises(ValueError, match="tol"):
        hierarchy_sweep(sys, 2, 1, tol)


def test_single_cell_sweep_has_no_comparisons():
    result = hierarchy_sweep(pure_delay_scalar(), 1, 1, tol=1e-3)
    assert result.violations == []
    assert len(result.cells) == 1


# ---------------------------------------------------------------------------
# Frequency-domain oracle: a computed bound should sit at a characteristic
# root crossing of the true system, independent of all the LMI machinery.
# ---------------------------------------------------------------------------


def test_computed_bounds_sit_at_characteristic_crossings(bounds, systems):
    ex1 = systems["example1"]
    tau1 = bounds.max_delay("example1", 4, 1)
    at_bound = characteristic_minimum(ex1.a, ex1.a_d1, tau1)
    inside = characteristic_minimum(ex1.a, ex1.a_d1, 0.95 * tau1)
    beyond = characteristic_minimum(ex1.a, ex1.a_d1, 1.05 * tau1)
    assert at_bound < 1e-3
    assert inside > 20 * at_bound
    assert beyond > 20 * at_bound

    ex3 = systems["example3"]
    rep = bounds.interval("example3", 3, 1)
    for tau in (rep.tau_lower, rep.tau_upper):
        crossing = characteristic_minimum(ex3.a, ex3.a_d1, tau)
        assert crossing < 5e-3
    mid = characteristic_minimum(ex3.a, ex3.a_d1, 0.8)
    assert mid > 0.1


# ---------------------------------------------------------------------------
# Warm starts: each probe after a search's first verified one starts from
# the snapshot of the nearest verified feasible probe.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_warm_started_verdicts_agree_with_cold_decisions(bounds, systems, name):
    # re-decided cold, every warm-started probe of these upper searches gets
    # the same verdict, unless the cold run is the one left inconclusive;
    # each start names a verified feasible probe of the same report
    warm = 0
    for cell in [(1, 1), (3, 1), (3, 2), (4, 1), (3, 3)]:
        report = bounds.upper_report(name, *cell)
        verified = {p.tau for p in report.probes if p.verified}
        for p in report.probes:
            if p.start is None:
                continue
            assert p.start in verified and p.start != p.tau
            warm += 1
            program = assemble_stability_lmis(systems[name], HierarchyParams(*cell), p.tau)
            cold = decide_feasibility(program)
            if cold.status != INCONCLUSIVE:
                assert p.status == cold.status, (cell, p.tau)
    assert warm >= 20
