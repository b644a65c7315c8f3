"""Delay-bound discovery: a margin-guided search on the feasibility oracle,
anchored on the system's characteristic-root crossings.

No LMI of the hierarchy is feasible at a delay where the system has an
unstable root, and `crossings.stability_windows` finds those delays
exactly: the windows between crossings, each with its count of unstable
roots.  Every report comes from one search (`_search`) on one probe log.
It skips the windows certainly holding unstable roots and probes the
others from left to right at their midpoint, halving toward the window's
lower end while the probe is infeasible if the window is certainly free
of unstable roots.  From the first feasible probe it refines the lower
end of the stable range, the upper end, or both (`stability_interval`),
each by a safeguarded search (`_refine`) in the style of Brent's method
toward the window's crossing on that side.  The crossing is only a hint
until it is probed, so a bracket that still ends at it probes it once; a
feasible verdict there is noted and the search walks on past it.  An open
window end (0 or infinity) is walked geometrically instead; a walk without
an infeasible probe is an error at the upper end and a range open at zero
at the lower.

The margin of a feasible probe falls to zero at the bound.  Each verified
feasible probe also logs the margin's slope dt*/dtau, which the solve
already holds (envelope theorem): the solver's last primal blocks against
the exact tau-derivative of the LMI stacks.  The next probe is estimated
by the tangent root tau - t/t' through the last verified probe on that
end's side when its slope falls toward the bracket's infeasible end and
the root lies inside the bracket, else by inverse interpolation of
tau(margin) at margin 0 through the last verified probes, and falls back
to bisection whenever neither estimate is usable or neither the bracket
nor the step shrinks fast enough.  Infeasible margins sit at ~0 and carry
no slope, so they only move the bracket.  A feasible verdict counts only once
`verify_certificate` has re-checked its certificate, so every reported
bound is backed by a logged, verified feasible probe and a logged
infeasible probe within the tolerance.  The probe log is also the search's
only state: the memo of verdicts by delay and the source of the model's
points.  Solver runs that end numerically inconclusive are treated as
infeasible (the conservative choice for a stability claim) and counted in
the report.  The solver's thresholds are the fixed `sdp` constants; the
search exposes only its tolerance.
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
# steps of the geometric walk from an open window end
_MAX_PROBE_DOUBLINGS = 30
# the rules that choose a probe delay (ProbeRecord.step): the window probes
# and the geometric walk (bracket), the bisection fallback, the margin
# model's estimate, and the closing probes within tol of the estimate or at
# the window's crossing
STEPS = ("bracket", "bisect", "model", "close")


class NoFeasiblePointError(RuntimeError):
    """No window that may be stable had a feasible probe (instability or
    solver trouble)."""


class BracketError(RuntimeError):
    """The geometric walk from an open window end found no infeasible delay
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
    probe: Callable[[float, str], bool], window: Window, tol: float
) -> float | None:
    """The first verified feasible probe in a window, or None.

    The first probe, made whatever tol is, is the window's midpoint (twice
    its lower end when it is open above, 1 when it is (0, inf)).  In a
    window certainly free of unstable roots each infeasible probe halves
    the distance toward the lower end, down to tol and to float resolution;
    a window whose count is not certain gets that one probe only.
    """
    lower = window.lower
    if math.isfinite(window.upper):
        tau = 0.5 * (lower + window.upper)
    else:
        tau = 2.0 * lower if lower > 0 else 1.0
    while not probe(tau, "bracket"):
        halved = lower + 0.5 * (tau - lower)
        if window.unstable is None or not (halved - lower > tol and halved < tau):
            return None
        tau = halved
    return tau


def _margin_root(points: list[tuple[float, float]]) -> float:
    """Inverse interpolation of tau(margin) at margin 0 through (tau, margin)
    points: the secant for two, inverse quadratic for three; NaN when there
    are fewer than two or two margins coincide."""
    if len(points) < 2:
        return math.nan
    estimate = 0.0
    for i, (tau_i, margin_i) in enumerate(points):
        term = tau_i
        for j, (_, margin_j) in enumerate(points):
            if j != i:
                if margin_j == margin_i:
                    return math.nan
                term *= margin_j / (margin_j - margin_i)
        estimate += term
    return estimate


def _crossing_estimate(
    verified: list[ProbeRecord], toward: float, lo: float, hi: float
) -> float:
    """Where the margin reaches 0, from verified feasible probes on one
    side: the tangent root tau - t/t' through the last one when its slope
    falls toward the infeasible end (toward * slope < 0) and the root lies
    inside the open bracket (lo, hi), else `_margin_root` through the last
    three."""
    last = verified[-1]
    if last.slope is not None and toward * last.slope < 0:
        tangent = last.tau - last.margin / last.slope
        if lo < tangent < hi:
            return tangent
    return _margin_root([(p.tau, p.margin) for p in verified[-3:]])


def _refine(
    probe: Callable[[float, str], bool],
    log: list[ProbeRecord],
    origin: float,
    tau_feas: float,
    tau_infeas: float,
    tol: float,
) -> tuple[float, float]:
    """Shrink a (feasible, infeasible) bracket to at most tol and return it.

    Works in either direction.  Each step estimates the crossing with
    `_crossing_estimate` from the verified probes of the log on the
    bracket's side of origin, the first feasible probe of the search (the
    other end of the range is refined beyond it), and proposes:
    - the estimate itself (model);
    - when the estimate is within tol of the feasible end, the delay tol
      from the feasible end (close), which ends the search if infeasible;
    - when two successive estimates agree within tol/2, the estimate minus
      tol/2 on the feasible side (close), so that the next close probe
      lands at the estimate plus tol/2.
    The step bisects instead when the estimate is not finite or not inside
    the open bracket, or when over the last two steps neither the bracket
    nor the step (the probe's distance from the feasible end) halved.
    """
    toward = 1.0 if tau_infeas > tau_feas else -1.0
    widths: list[float] = []  # bracket width before each step
    steps: list[float] = []  # distance of each step's probe from the feasible end
    estimate = math.nan
    while abs(tau_infeas - tau_feas) > tol:
        width = abs(tau_infeas - tau_feas)
        lo, hi = sorted((tau_feas, tau_infeas))
        verified = [p for p in log if p.verified and toward * (p.tau - origin) >= 0]
        previous, estimate = estimate, _crossing_estimate(verified, toward, lo, hi)
        rule, tau = "bisect", 0.5 * (tau_feas + tau_infeas)
        if lo < estimate < hi:
            proposal, candidate = "model", estimate
            if abs(estimate - tau_feas) <= tol:
                proposal, candidate = "close", tau_feas + toward * tol
                while abs(candidate - tau_feas) > tol:  # keep the closing pair within tol
                    candidate = math.nextafter(candidate, tau_feas)
            elif abs(estimate - previous) <= 0.5 * tol:
                proposal, candidate = "close", estimate - toward * 0.5 * tol
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
    search walks past it, as from an open end: by x2 (upper) or x0.5
    (lower), both exact, until a probe is infeasible or, toward zero, a
    feasible probe lies within tol of it.  A walk without an infeasible
    probe raises BracketError at the upper end; at the lower end it notes
    the probe floor and returns None (the range is open at zero).
    """
    upper = end > tau_first
    lo, hi = sorted((tau_first, end))
    beyond = [p.tau for p in report.probes if not p.verified and lo < p.tau < hi]
    refine = partial(_refine, probe, report.probes, tau_first, tol=tol)
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
    factor = 2.0 if upper else 0.5
    for _ in range(_MAX_PROBE_DOUBLINGS):
        if not upper and tau_feas <= tol:
            break  # feasible within tol of zero: the range is open there
        tau = tau_feas * factor
        if not probe(tau, "bracket"):
            return refine(tau_feas, tau)[0]
        tau_feas = tau
    if upper:
        raise BracketError(
            f"feasible up to tau={tau_feas:g}; no upper crossing found "
            "(delay-independent stability in the probed range)"
        )
    report.notes.append(
        f"feasible down to probe floor tau={tau_feas:g}; no lower crossing"
    )
    return None


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
        tau_first = _first_feasible(probe, window, tol)
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
    """Smallest certified-stable delay, or None when feasibility persists
    down to the probe floor (interval open at zero)."""
    report = _search(sys, params, tol, "lower")
    return report.tau_lower, report


def stability_interval(
    sys: DelaySystem, params: HierarchyParams, tol: float = DEFAULT_TOL
) -> DelayBoundsReport:
    """Certified stability interval [tau_lower, tau_upper].

    Pointwise bounds come from one search for both ends; the whole
    interval is then re-certified with the delay-range LMIs at the found
    endpoints, a solve recorded in ``range_probe``.  A certification failure is reported (range_certified False
    plus a note), never silently shrunk.
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
