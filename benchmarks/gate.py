"""Correctness gate: decides, per operation, whether the program's output
is right.

An operation fails when any of these holds:
  - its exit code is nonzero (2, 3 and 4 included);
  - a bundled-system bound lies outside the published reference values
    (tolerance 1e-2 on upper bounds);
  - a feasible probe's certificate did not re-verify (`verified` not true);
  - a scale bound is below a lower-M bound of the same system by more
    than 5e-3 (the hierarchy says bounds never decrease in M);
  - a scale system fails the pre-check (A + A_d1 Hurwitz);
  - the audit battery reports any failure.

Every failure is printed and counted, and every failure is a wrong
output (it makes the run's `correct` false) except the one known program
defect on `scale`: a bound the hierarchy shows to be too low, or an
inconclusive exit (3), both because probes that end numerically
inconclusive count as infeasible.  Those are failed operations whose
output is still a valid certificate.
"""

from __future__ import annotations

from delaymargin.cli import EXIT_INCONCLUSIVE, EXIT_NO_FEASIBLE
from workloads import Op, Outcome, hurwitz_at_zero_delay

UPPER_TOL = 1e-2
HIERARCHY_TOL = 5e-3

# Published bounds at m = 1, as pinned by the acceptance suite.
PUBLISHED_UPPER = {
    ("example1", 1): 6.05932,
    ("example1", 2): 6.16893,
    ("example1", 3): 6.17250,
    ("example1", 4): 6.17258,
    ("example2", 1): 1.9419,
    ("example2", 2): 2.0395,
    ("example2", 3): 2.0412,
    ("example3", 1): 1.5405,
    ("example3", 2): 1.7122,
    ("example3", 3): 1.71799,
}
# Analytical delay margins of the bundled systems (upper end of stability).
ANALYTICAL_UPPER = {"example1": 6.17258, "example2": 2.04, "example3": 1.7178}


def _upper_failures(system: str, big_m: int, m: int, tau: float | None) -> list[str]:
    """A tabulated cell must match its value; an untabulated one (m > 1, or
    an M the table stops short of) must lie between the tabulated m = 1
    value it dominates by the hierarchy and the analytical margin."""
    if tau is None:
        return ["no upper bound reported"]
    ref = PUBLISHED_UPPER.get((system, big_m)) if m == 1 else None
    if ref is not None:
        if abs(tau - ref) > UPPER_TOL:
            return [f"upper bound {tau:.6f} differs from published {ref} by more than {UPPER_TOL}"]
        return []
    below = max(k for s, k in PUBLISHED_UPPER if s == system and k <= big_m)
    floor = PUBLISHED_UPPER[(system, below)] - HIERARCHY_TOL
    ceiling = ANALYTICAL_UPPER[system] + UPPER_TOL
    if not floor <= tau <= ceiling:
        return [f"upper bound {tau:.6f} outside [{floor:.6f}, {ceiling:.6f}]"]
    return []


def judge(outcome: Outcome) -> None:
    """Fill outcome.failures (and outcome.wrong) for one operation."""
    op, report = outcome.op, outcome.report
    failures = []
    if outcome.exit_code != 0:
        failures.append(f"exit code {outcome.exit_code}" + (f": {outcome.error}" if outcome.error else ""))
    if report is None:
        failures.append("no verify summary printed" if op.workload == "audit" else "no report printed")
    elif op.workload == "audit":
        if report["failures"]:
            failures.append(f"{report['failures']} property checks failed")
    else:
        unverified = [
            p["tau"] for p in report["probes"]
            if p["status"] == "feasible" and p["verified"] is not True
        ]
        if unverified:
            failures.append(f"feasible probes not verified at tau={unverified}")
        if op.system in ANALYTICAL_UPPER:
            failures += _upper_failures(op.system, op.big_m, op.m, report["tau_upper"])
    known_defect = (
        op.workload == "scale" and outcome.exit_code == EXIT_INCONCLUSIVE
        and failures == [f"exit code {EXIT_INCONCLUSIVE}"]
    )
    outcome.failures += failures
    outcome.wrong = outcome.wrong or (bool(failures) and not known_defect)


def judge_round(batch: list[Outcome], systems: dict) -> None:
    """Judge one round; a scale round also gets the pre-check and the
    hierarchy check across its cells."""
    for out in batch:
        judge(out)
    if batch[0].op.workload != "scale":
        return
    for out in batch:
        if not hurwitz_at_zero_delay(systems[out.op.system]):
            out.failures.append("pre-check failed: A + A_d1 is not Hurwitz")
            out.wrong = True
    best: dict[tuple[str, int], float] = {}
    for out in sorted(batch, key=lambda o: o.op.big_m):
        if out.report is None or out.report["tau_upper"] is None:
            continue
        key = (out.op.system, out.op.m)
        tau = out.report["tau_upper"]
        if key in best and tau < best[key] - HIERARCHY_TOL:
            out.failures.append(
                f"bound {tau:.6f} at M={out.op.big_m} below {best[key]:.6f} at a lower M"
            )
        best[key] = max(best.get(key, tau), tau)


def self_check() -> list[str]:
    """Feed the gate a clean report, one with a perturbed bound, one with
    an unverified feasible probe and an error exit without a report;
    returns what the gate got wrong."""
    def outcome(tau: float, verified) -> Outcome:
        probe = {"tau": tau, "status": "feasible", "margin": 1.0, "verified": verified}
        report = {"tau_upper": tau, "probes": [probe]}
        return Outcome(Op("ladder", "example1", 1, 1), 1.0, 1.0, 0, report)

    ref = PUBLISHED_UPPER[("example1", 1)]
    cases = {
        "clean report": (outcome(ref, True), False),
        "perturbed bound": (outcome(ref + 2 * UPPER_TOL, True), True),
        "unverified feasible probe": (outcome(ref, False), True),
        "error exit": (Outcome(Op("ladder", "example1", 1, 1), 1.0, 1.0, EXIT_NO_FEASIBLE), True),
    }
    problems = []
    for name, (out, should_fail) in cases.items():
        judge(out)
        if bool(out.failures) != should_fail or out.wrong != should_fail:
            problems.append(f"{name}: gate returned {out.failures or 'no failure'}")
    return problems
