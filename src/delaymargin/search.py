"""Delay-bound discovery: a margin-guided search on the feasibility oracle,
anchored on the system's characteristic-root crossings.

No LMI of the hierarchy is feasible at a delay where the system has an
unstable root, and `crossings.stability_windows` finds those delays
exactly: the windows between crossings, each with its count of unstable
roots.  Every report comes from one search (`_search`) on one probe log.
It skips the windows certainly holding unstable roots and probes the
others from left to right at their midpoint, halving toward the window's
lower end while the probe is infeasible if the window is certainly free
of unstable roots.  A search that refines the upper end first probes such
a window, when it is closed above, at the log-distance bisection point
between the midpoint and the upper crossing, where the bounds lie from
M = 2 on; should that probe fail, it ends the upper bracket and the
search goes on from the midpoint.  From the first feasible probe it
refines the lower end of the stable range, the upper end, or both
(`stability_interval`), each by a safeguarded search (`_refine`) in the
style of Brent's method toward the window's crossing on that side.  The
crossing is only a hint until it is probed, so a bracket that still ends
at it probes it once; a feasible verdict there is noted and the search
goes on past it.  An open upper end is walked by x2 (an error if no
probe is infeasible); a lower end open at zero gets one probe at tol,
which ends the bracket or, feasible, leaves the range open at zero.

The margin of a feasible probe falls to zero at the bound.  Each verified
feasible probe also logs the margin's slope dt*/dtau, which the solve
already holds (envelope theorem): the solver's last primal blocks against
the exact tau-derivative of the LMI stacks.  The next probe is estimated
by the tangent root tau - t/t' of the verified probe at the bracket's
feasible end when its slope falls toward the bracket's infeasible end and
the root lies inside the bracket, and falls back to bisection whenever
that estimate is not usable or neither the bracket nor the step shrinks
fast enough.  The fallback bisects the log of the distance from the
bracket's infeasible end (plus tol), since the hierarchy's bounds lie from
~10% of the window down to ~tol short of its crossing.  Infeasible
margins sit at ~0 and carry no slope, so they only move the bracket.  A
feasible verdict counts only once `verify_certificate` has re-checked its
certificate, so every reported bound is backed by a logged, verified
feasible probe and a logged infeasible probe within the tolerance.  The
probe log is also the search's only state: the memo of verdicts by delay
and the source of the model's margin and slope.  Solver runs that end
numerically inconclusive are treated as infeasible (the conservative
choice for a stability claim) and counted in the report.  The solver's
thresholds are the fixed `sdp` constants; the search exposes only its
tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np

from .crossings import Window, stability_windows
from .lmi import (
    DelaySystem,
    HierarchyParams,
    assemble_delay_range_lmis,
    assemble_stability_lmis,
    nodv,
    stability_tau_derivatives,
)
from .sdp import (
    FEASIBLE,
    INCONCLUSIVE,
    FeasibilityResult,
    decide_feasibility,
    verify_certificate,
)

__all__ = [
    "ProbeRecord",
    "RangeProbe",
    "DelayBoundsReport",
    "SweepResult",
    "NoFeasiblePointError",
    "BracketError",
    "max_delay",
    "min_delay",
    "stability_interval",
    "hierarchy_sweep",
    "DEFAULT_TOL",
    "SCHEMA_VERSION",
    "STEPS",
]

DEFAULT_TOL = 1e-5
# version of the JSON report layout (DelayBoundsReport / SweepResult.to_dict)
SCHEMA_VERSION = 7
# largest decrease between neighbouring sweep cells that is not a
# hierarchy violation
_COMPARISON_TOL = 5e-3
# steps of the x2 walk from an open upper window end
_MAX_PROBE_DOUBLINGS = 30
# the rules that choose a probe delay (ProbeRecord.step): the window probes
# (near the upper crossing, then at the midpoint and halving), the x2 walk
# and the probe at tol below a lower end open at zero (bracket),
# the bisection fallback, the margin model's estimate, and the closing
# probes tol beyond the feasible end or at the window's crossing
STEPS = ("bracket", "bisect", "model", "close")


class NoFeasiblePointError(RuntimeError):
    """No window that may be stable had a feasible probe (instability or
    solver trouble)."""


class BracketError(RuntimeError):
    """The x2 walk from an open upper window end found no infeasible delay
    (the bound may not exist)."""


@dataclass
class ProbeRecord:
    tau: float
    status: str
    margin: float
    verified: bool | None = None
    iterations: int | None = None  # solver iterations
    margin_error: float | None = None  # solver's uncertainty estimate of margin
    stop_reason: str | None = None  # why the solver stopped (sdp.STOP_REASONS)
    assemble_s: float = 0.0  # wall time of the LMI assembly
    solve_s: float = 0.0  # wall time of the feasibility decision
    verify_s: float = 0.0  # wall time of the certificate check (0.0 if none ran)
    step: str | None = None  # search rule that chose the delay (STEPS)
    gap: float | None = None  # final duality gap of the solve
    primal: float | None = None  # final normalized primal residual
    dual: float | None = None  # final normalized dual residual
    slope: float | None = None  # margin slope dt*/dtau of a verified feasible probe


# a probe logs every solver-outcome field but the certificate and the X blocks
_OUTCOME_FIELDS = {f.name for f in fields(FeasibilityResult)} - {"certificate", "primal_blocks"}


@dataclass
class RangeProbe:
    """The solve of the delay-range program of `stability_interval`."""

    status: str
    iterations: int
    margin: float
    stop_reason: str
    solve_s: float  # wall time of the feasibility decision


@dataclass
class DelayBoundsReport:
    """One bound computation: the result plus its complete probe log, the
    search's only record of its probes."""

    system: str
    big_m: int
    m: int
    direction: str
    tau_lower: float | None = None
    tau_upper: float | None = None
    nodv: int = 0
    probes: list[ProbeRecord] = field(default_factory=list)
    wall_time_s: float = 0.0
    range_certified: bool | None = None
    # [lower, upper] ends of the delay window (between characteristic-root
    # crossings) the bound was found in; None at an open end (0 or infinity)
    crossings: list[float | None] | None = None
    notes: list[str] = field(default_factory=list)
    # the delay-range solve of an interval; kept apart from ``probes``,
    # which is the memo of verdicts by delay
    range_probe: RangeProbe | None = None

    @property
    def inconclusive_probes(self) -> int:
        """Number of logged probes the solver left numerically inconclusive."""
        return sum(p.status == INCONCLUSIVE for p in self.probes)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["inconclusive_probes"] = self.inconclusive_probes
        out["schema_version"] = SCHEMA_VERSION
        return out


@dataclass
class SweepResult:
    """Rectangular (M, m) grid of bound reports plus monotonicity audit."""

    cells: dict[tuple[int, int], DelayBoundsReport]
    violations: list[dict]
    errors: dict[tuple[int, int], str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "cells": [
                {"M": big_m, "m": m, **rep.to_dict()}
                for (big_m, m), rep in sorted(self.cells.items())
            ],
            "violations": self.violations,
            "errors": [
                {"M": big_m, "m": m, "error": msg}
                for (big_m, m), msg in sorted(self.errors.items())
            ],
        }


def _probe(
    sys: DelaySystem,
    params: HierarchyParams,
    report: DelayBoundsReport,
    tau: float,
    step: str,
) -> bool:
    """Whether tau is a verified feasible delay.  A delay already in the
    report's log returns its logged verdict; otherwise the LMIs at tau are
    decided, a feasible certificate re-checked, and the probe logged."""
    for logged in report.probes:
        if logged.tau == tau:
            return logged.verified is True
    t0 = time.perf_counter()
    program = assemble_stability_lmis(sys, params, tau)
    t1 = time.perf_counter()
    result = decide_feasibility(program)
    t2 = time.perf_counter()
    verified = verify_certificate(program, result) if result.feasible else None
    verify_s = time.perf_counter() - t2 if result.feasible else 0.0
    slope = None
    if verified:
        slope = _margin_slope(stability_tau_derivatives(sys, params, tau), result)
    outcome = {name: getattr(result, name) for name in _OUTCOME_FIELDS}
    times = {"assemble_s": t1 - t0, "solve_s": t2 - t1, "verify_s": verify_s}
    report.probes.append(
        ProbeRecord(tau=tau, verified=verified, step=step, slope=slope, **times, **outcome)
    )
    return verified is True


def _margin_slope(derivatives: list[np.ndarray], result: FeasibilityResult) -> float | None:
    """The margin's slope dt*/dtau from a solve's last iterate, by the
    envelope theorem: sum_k <X_k, dF_k(y)/dtau> over the primal blocks X_k,
    given the tau-derivative stacks dF_k of the program's leading blocks
    that depend on tau (the others add nothing), divided by sum_k tr X_k
    over all blocks (1 at the optimum).  None when it is not finite."""
    y, xs = result.certificate, result.primal_blocks
    rate = sum(float(np.vdot(x, np.tensordot(y, d, axes=1))) for x, d in zip(xs, derivatives))
    mass = sum(float(x.trace()) for x in xs)
    slope = rate / mass if mass > 0 else math.nan
    return slope if math.isfinite(slope) else None


def _first_feasible(
    probe: Callable[[float, str], bool], window: Window, tol: float, upper: bool
) -> float | None:
    """The first verified feasible probe in a window, or None.

    A search that refines the upper end (``upper``) first probes, in a
    window certainly free of unstable roots and closed above, the
    log-distance bisection point between the midpoint and the window's
    upper crossing c, at distance sqrt(tol (c - mid + tol)) - tol below c:
    the bounds lie from ~10% of the window down to ~tol short of c.
    Otherwise, or when that probe fails, the first probe, made whatever
    tol is, is the window's midpoint (twice its lower end when it is open
    above, 1 when it is (0, inf)).  In a window certainly free of unstable
    roots each infeasible probe halves the distance toward the lower end,
    down to tol and to float resolution; a window whose count is not
    certain gets the midpoint probe only.
    """
    lower = window.lower
    if math.isfinite(window.upper):
        tau = 0.5 * (lower + window.upper)
        near = _log_bisection(window.upper, window.upper, tau, tol)
        if upper and window.unstable == 0 and tau < near < window.upper:
            if probe(near, "bracket"):
                return near
    else:
        tau = 2.0 * lower if lower > 0 else 1.0
    while not probe(tau, "bracket"):
        halved = lower + 0.5 * (tau - lower)
        if window.unstable is None or not (halved - lower > tol and halved < tau):
            return None
        tau = halved
    return tau


def _log_bisection(anchor: float, near: float, far: float, tol: float) -> float:
    """The point between near and far, both on one side of anchor, that
    bisects log(d + tol), d the distance from anchor: it lies at
    d = sqrt((d_near + tol)(d_far + tol)) - tol on far's side."""
    d_near, d_far = abs(near - anchor), abs(far - anchor)
    middle = math.sqrt(d_near + tol) * math.sqrt(d_far + tol) - tol
    return anchor + middle if far > anchor else anchor - middle


def _crossing_estimate(feasible: ProbeRecord, toward: float, lo: float, hi: float) -> float:
    """Where the margin reaches 0, from the verified probe at the bracket's
    feasible end: its tangent root tau - t/t' when its slope falls toward
    the infeasible end (toward * slope < 0) and the root lies inside the
    open bracket (lo, hi), else NaN."""
    if feasible.slope is None or not toward * feasible.slope < 0:
        return math.nan
    tangent = feasible.tau - feasible.margin / feasible.slope
    return tangent if lo < tangent < hi else math.nan


def _refine(
    probe: Callable[[float, str], bool],
    log: list[ProbeRecord],
    tau_feas: float,
    tau_infeas: float,
    tol: float,
) -> tuple[float, float]:
    """Shrink a (feasible, infeasible) bracket to at most tol and return it.

    Works in either direction.  Each step estimates the crossing with
    `_crossing_estimate` from the logged probe at the feasible end, and
    proposes:
    - the estimate itself (model);
    - when the estimate is within tol of the feasible end, the delay tol
      from the feasible end (close), which ends the search if infeasible.
    The step bisects instead when there is no estimate, or when over the
    last two steps neither the bracket nor the step (the probe's distance
    from the feasible end) halved.  It bisects in log(d + tol), d being
    the distance from the bracket's infeasible end as given (a crossing or
    an infeasible probe): `_log_bisection` puts the probe at
    d = sqrt((d_inf + tol)(d_feas + tol)) - tol between the ends'
    distances d_inf and d_feas.  Bounds close in on their crossings as M
    grows, so this halves the log of the gap while it is much wider than
    tol, and the bracket itself once it is within a few tol.
    """
    toward = 1.0 if tau_infeas > tau_feas else -1.0
    anchor = tau_infeas
    widths: list[float] = []  # bracket width before each step
    steps: list[float] = []  # distance of each step's probe from the feasible end
    while abs(tau_infeas - tau_feas) > tol:
        width = abs(tau_infeas - tau_feas)
        lo, hi = sorted((tau_feas, tau_infeas))
        feasible = next(p for p in log if p.tau == tau_feas)
        estimate = _crossing_estimate(feasible, toward, lo, hi)
        rule, tau = "bisect", _log_bisection(anchor, tau_infeas, tau_feas, tol)
        if not math.isnan(estimate):
            proposal, candidate = "model", estimate
            if abs(estimate - tau_feas) <= tol:
                proposal, candidate = "close", tau_feas + toward * tol
                while abs(candidate - tau_feas) > tol:  # keep the closing pair within tol
                    candidate = math.nextafter(candidate, tau_feas)
            halved = len(widths) < 2 or width <= 0.5 * widths[-2]
            if halved or abs(candidate - tau_feas) <= 0.5 * steps[-2]:
                rule, tau = proposal, candidate
        if not lo < tau < hi:
            break  # float resolution reached
        widths.append(width)
        steps.append(abs(tau - tau_feas))
        if probe(tau, rule):
            tau_feas = tau
        else:
            tau_infeas = tau
    return tau_feas, tau_infeas


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")


def _bound(
    probe: Callable[[float, str], bool],
    report: DelayBoundsReport,
    tau_first: float,
    end: float,
    tol: float,
) -> float | None:
    """One end of the stable delay range, searched on the report's log
    from the window's first feasible probe toward the window's end on that
    side: a crossing, or an open end (0 or infinity).

    The bracket ends at the nearest infeasible probe before end, or else
    at end, and is refined to tol.  A crossing left as the refined
    infeasible end is only a hint, so it is probed once; should it be
    feasible, a note says so, the report's crossings become None, and the
    search goes on as from an open end.  Upward it walks by x2 until a
    probe is infeasible (BracketError if none is).  Toward zero it probes
    tol once, unless the feasible end is at or below tol: infeasible, tol
    ends the bracket; feasible, the probe floor is noted and the result is
    None (open at zero).  That probe, like any, proves only its own delay;
    only `stability_interval`'s range solve proves the range above it.
    """
    lo, hi = sorted((tau_first, end))
    beyond = [p.tau for p in report.probes if not p.verified and lo < p.tau < hi]
    refine = partial(_refine, probe, report.probes, tol=tol)
    tau_feas = tau_first
    tau_infeas = min(beyond, key=lambda t: abs(t - tau_first), default=end)
    if 0 < tau_infeas < math.inf:  # not an open window end
        tau_feas, tau_infeas = refine(tau_feas, tau_infeas)
        if tau_infeas != end or not probe(end, "close"):
            return tau_feas
        report.notes.append(
            f"characteristic-root crossing tau={end!r} probed feasible; "
            "searching past it"
        )
        report.crossings = None  # the bound lies outside this window
        tau_feas = end
    if end < tau_first:  # open at zero: one probe at tol
        if tau_feas > tol and not probe(tol, "bracket"):
            return refine(tau_feas, tol)[0]
        report.notes.append(
            f"feasible down to probe floor tau={min(tau_feas, tol):g}; no lower crossing"
        )
        return None
    for _ in range(_MAX_PROBE_DOUBLINGS):
        tau = 2.0 * tau_feas
        if not probe(tau, "bracket"):
            return refine(tau_feas, tau)[0]
        tau_feas = tau
    raise BracketError(
        f"feasible up to tau={tau_feas:g}; no upper crossing found "
        "(delay-independent stability in the probed range)"
    )


def _search(
    sys: DelaySystem, params: HierarchyParams, tol: float, direction: str
) -> DelayBoundsReport:
    """The report of one search for the "upper" or "lower" end of the
    stable delay range, or both ("interval"): the first window that is not
    certainly unstable and has a feasible probe, then each end from that
    probe, the lower first."""
    _check_tol(tol)
    t0 = time.perf_counter()
    report = DelayBoundsReport(
        sys.name, params.big_m, params.m, direction, nodv=nodv(params, sys.n_x)
    )
    probe = partial(_probe, sys, params, report)
    for window in stability_windows(sys):
        if window.unstable:  # certainly unstable; a count of None is probed
            continue
        tau_first = _first_feasible(probe, window, tol, direction != "lower")
        if tau_first is None:
            continue
        report.crossings = [
            window.lower or None, window.upper if math.isfinite(window.upper) else None
        ]
        if direction != "upper":
            report.tau_lower = _bound(probe, report, tau_first, window.lower, tol)
        if direction != "lower":
            report.tau_upper = _bound(probe, report, tau_first, window.upper, tol)
        report.wall_time_s = time.perf_counter() - t0
        return report
    raise NoFeasiblePointError(
        "no feasible delay found in any delay window that is not certainly "
        "unstable"
    )


def max_delay(
    sys: DelaySystem, params: HierarchyParams, tol: float = DEFAULT_TOL
) -> tuple[float, DelayBoundsReport]:
    """Largest certified-stable delay: feasible at the bound, infeasible at
    bound + tol."""
    report = _search(sys, params, tol, "upper")
    return report.tau_upper, report


def min_delay(
    sys: DelaySystem, params: HierarchyParams, tol: float = DEFAULT_TOL
) -> tuple[float | None, DelayBoundsReport]:
    """Smallest certified-stable delay, or None when the probe at tol is
    feasible (open at zero; that probe proves only its own delay, tol)."""
    report = _search(sys, params, tol, "lower")
    return report.tau_lower, report


def stability_interval(
    sys: DelaySystem, params: HierarchyParams, tol: float = DEFAULT_TOL
) -> DelayBoundsReport:
    """Certified stability interval [tau_lower, tau_upper].

    Pointwise bounds come from one search for both ends; the whole
    interval is then re-certified with the delay-range LMIs at the found
    endpoints, a solve recorded in ``range_probe``.  A certification
    failure is reported (range_certified False plus a note), never
    silently shrunk.
    """
    t0 = time.perf_counter()
    report = _search(sys, params, tol, "interval")
    range_low, upper = report.tau_lower, report.tau_upper
    if range_low is None:  # open at zero: the smallest verified probe (one exists)
        range_low = min(p.tau for p in report.probes if p.verified)
    program = assemble_delay_range_lmis(sys, params, range_low, upper)
    t1 = time.perf_counter()
    result = decide_feasibility(program)
    report.range_probe = RangeProbe(
        result.status, result.iterations, result.margin, result.stop_reason,
        time.perf_counter() - t1,
    )
    certified = result.status == FEASIBLE and verify_certificate(program, result)
    report.range_certified = certified
    if not certified:
        report.notes.append(
            f"range certification failed on [{range_low:g}, {upper:g}] "
            f"(status {result.status}); pointwise bounds reported unchanged"
        )
    if np.any(sys.a_d2):
        report.notes.append(
            "distributed-kernel matrix nonzero: endpoint range check is heuristic"
        )
    report.wall_time_s = time.perf_counter() - t0
    return report


def hierarchy_sweep(
    sys: DelaySystem,
    max_big_m: int,
    max_m: int,
    tol: float = DEFAULT_TOL,
) -> SweepResult:
    """Upper-bound sweep over the grid M = 1..max_big_m, m = 1..max_m with
    monotonicity audit.

    The expected hierarchy is nondecreasing bounds in both M and m; any
    decrease beyond _COMPARISON_TOL is recorded as a violation.  Per-cell
    failures are captured, not raised, so one bad cell cannot abort a sweep.
    Raises ValueError, before any cell runs, when either maximum is below 1,
    the tolerance is not positive and finite, or the system is rejected by
    `stability_windows` (an overflow).
    """
    if max_big_m < 1 or max_m < 1:
        raise ValueError(f"sweep needs M, m >= 1, got M={max_big_m}, m={max_m}")
    _check_tol(tol)  # before the loop, which records ValueError per cell
    stability_windows(sys)
    cells: dict[tuple[int, int], DelayBoundsReport] = {}
    errors: dict[tuple[int, int], str] = {}
    for big_m in range(1, max_big_m + 1):
        for m in range(1, max_m + 1):
            try:
                _, rep = max_delay(sys, HierarchyParams(big_m, m), tol)
                cells[(big_m, m)] = rep
            except (NoFeasiblePointError, BracketError, ValueError) as exc:
                errors[(big_m, m)] = str(exc)
    violations = []
    for (big_m, m), rep in cells.items():  # every cell's max_delay set tau_upper
        for key, label in (((big_m + 1, m), "M"), ((big_m, m + 1), "m")):
            nxt = cells.get(key)
            if nxt is None:
                continue
            if nxt.tau_upper < rep.tau_upper - _COMPARISON_TOL:
                violations.append(
                    {
                        "direction": label,
                        "from": {"M": big_m, "m": m, "tau": rep.tau_upper},
                        "to": {"M": key[0], "m": key[1], "tau": nxt.tau_upper},
                    }
                )
    return SweepResult(cells=cells, violations=violations, errors=errors)
