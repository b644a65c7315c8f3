"""The workloads: which operations each runs, built from the seed.

Every workload is a closed loop with one caller and one operation at a
time.  A workload is a fixed list of operations (a *round*); the seed
fixes the inputs and their order, and a run repeats whole rounds.

  ladder  upper bounds on example1-3 at (M, m) = (1, 1), (3, 1), (3, 2),
          one `bounds --direction upper` call per cell
  audit   the `verify --seed <s>` property battery at AUDIT_BATTERIES
          seeds s derived from the run's seed
  scale   `search.max_delay` at m = 1 on two seeded synthetic systems:
          n_x = 3 at M = 1, 2, 3 and n_x = 4 at M = 1, 3 (not listed in
          BENCHMARK.json: on some seeds it meets the program's known
          hierarchy defect, see README.md)
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time
from dataclasses import dataclass, field

import numpy as np

from delaymargin import cli, search
from delaymargin.lmi import DelaySystem, HierarchyParams
from delaymargin.search import BracketError, NoFeasiblePointError
from delaymargin.systems import bundled_system

LADDER_SYSTEMS = ("example1", "example2", "example3")
# Three cells of the acceptance grid (M = 1..4 at m = 1; M = 3 at m = 2..4),
# one step in M and one in m, so that two or three rounds fit in one run.
LADDER_GRID = ((1, 1), (3, 1), (3, 2))
# n_x -> orders M at m = 1.  M = 3 at n_x = 4 is the largest problem (176
# decision variables); M = 2 at n_x = 4 is left out so that two rounds fit.
SCALE_ORDERS = {3: (1, 2, 3), 4: (1, 3)}
# Batteries per audit round: one battery's cost depends on its seed by
# about 10%, so a round averages over several.
AUDIT_BATTERIES = 5
# The gate's checks on one bound: exit code, bound against its reference
# (ladder) or the hierarchy (scale), and every feasible certificate verified.
CHECKS_PER_BOUND = 3

# what one operation is, per workload (printed next to the metrics)
OPERATION = {
    "ladder": "one max_delay cell via `bounds --direction upper`",
    "scale": "one search.max_delay cell on a synthetic system",
    "audit": "one `verify --seed <s>` battery",
}

_VERIFY_SUMMARY = re.compile(r"^seed (-?\d+): (\d+) checks, (\d+) failures$", re.M)


@dataclass(frozen=True)
class Op:
    """One operation of a workload."""

    workload: str
    system: str
    big_m: int = 0
    m: int = 1
    seed: int = 0

    def label(self) -> str:
        if self.workload == "audit":
            return f"verify --seed {self.seed}"
        return f"{self.system} M={self.big_m} m={self.m}"


@dataclass
class Outcome:
    """What one operation returned, and how long the call took."""

    op: Op
    seconds: float  # wall time
    cpu_seconds: float  # CPU time of this process over the same call
    exit_code: int
    report: dict | None = None  # bounds report (to_dict form) or audit summary
    error: str = ""
    failures: list[str] = field(default_factory=list)
    wrong: bool = False  # a failure that is a wrong output, not a missing one

    @property
    def checks(self) -> int:
        """Checks this operation completed: the battery's property checks
        for audit, the gate's fixed CHECKS_PER_BOUND for a bound (so that
        fewer solver probes per bound never read as fewer checks)."""
        if self.report is None:
            return 0
        if self.op.workload == "audit":
            return self.report["checks"]
        return CHECKS_PER_BOUND


def synthetic_system(rng: np.random.Generator, n_x: int, name: str) -> DelaySystem:
    """Seeded stable-at-zero-delay system with a finite delay margin.

    Recipe: A = -a I + eps G1 and A_d1 = -b I + eps G2, A_d2 = 0, with
    a ~ U(0.8, 1.2), b = a * U(1.5, 2.5) (so b > a > 0), eps = 0.1 and the
    entries of G1, G2 standard normal.  At eps = 0 every mode is
    x' = -a x - b x(t - tau), stable exactly for
    tau < arccos(-a/b) / sqrt(b^2 - a^2), so the max_delay search has a
    finite crossing; eps couples the states.
    """
    a = rng.uniform(0.8, 1.2)
    b = a * rng.uniform(1.5, 2.5)
    eps = 0.1
    g1 = rng.standard_normal((n_x, n_x))
    g2 = rng.standard_normal((n_x, n_x))
    return DelaySystem(
        -a * np.eye(n_x) + eps * g1,
        -b * np.eye(n_x) + eps * g2,
        np.zeros((n_x, n_x)),
        name=name,
    )


def hurwitz_at_zero_delay(sys: DelaySystem) -> bool:
    """Pre-check independent of the LMI machinery: A + A_d1 is Hurwitz."""
    return bool(np.linalg.eigvals(sys.a + sys.a_d1).real.max() < 0.0)


def synthetic_systems(seed: int) -> dict[str, DelaySystem]:
    """One system per size, drawn in SCALE_ORDERS order."""
    rng = np.random.default_rng(seed)
    return {f"synthetic-n{n_x}": synthetic_system(rng, n_x, f"synthetic-n{n_x}")
            for n_x in SCALE_ORDERS}


def load_systems(workload: str, seed: int) -> dict[str, DelaySystem]:
    """The systems a workload's operations use (loaded or generated)."""
    if workload == "ladder":
        return {name: bundled_system(name)[0] for name in LADDER_SYSTEMS}
    if workload == "scale":
        return synthetic_systems(seed)
    return {}


def build_round(workload: str, seed: int, systems: dict[str, DelaySystem]) -> list[Op]:
    """One round of the workload, in the seed's order."""
    if workload == "audit":
        ops = [Op(workload, "", seed=AUDIT_BATTERIES * seed + k) for k in range(AUDIT_BATTERIES)]
    elif workload == "ladder":
        ops = [Op(workload, name, big_m, m) for name in systems for big_m, m in LADDER_GRID]
    else:
        ops = [Op(workload, name, big_m) for name, sys in systems.items()
               for big_m in SCALE_ORDERS[sys.a.shape[0]]]
    order = np.random.default_rng([seed, 1]).permutation(len(ops))
    return [ops[i] for i in order]


def _timed(call, tracer):
    """Time one call (wall, CPU); with a tracer, the call is the
    operation's root span."""
    if tracer is not None:
        tracer.begin_op()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        return call(), (time.perf_counter() - t0, time.process_time() - c0)
    finally:
        if tracer is not None:
            tracer.end_op()


def _call_cli(argv: list[str], tracer) -> tuple[int, str, tuple[float, float]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code, times = _timed(lambda: cli.main(argv), tracer)
    return code, out.getvalue(), times


def run_op(op: Op, systems: dict[str, DelaySystem], tracer=None) -> Outcome:
    """Run one operation through the program's public entry points."""
    if op.workload == "audit":
        code, out, times = _call_cli(["verify", "--seed", str(op.seed)], tracer)
        match = _VERIFY_SUMMARY.search(out)
        report = None
        if match:
            report = {"checks": int(match.group(2)), "failures": int(match.group(3))}
        return Outcome(op, *times, code, report)
    if op.workload == "scale":
        return _run_search(op, systems[op.system], tracer)
    code, out, times = _call_cli(
        ["bounds", "--system", op.system, "--M", str(op.big_m), "--m", str(op.m),
         "--direction", "upper", "--format", "json"],
        tracer,
    )
    return Outcome(op, *times, code, json.loads(out) if out.strip() else None)


def _run_search(op: Op, sys: DelaySystem, tracer) -> Outcome:
    """search.max_delay, with the CLI's exit-code rules applied."""
    params = HierarchyParams(op.big_m, op.m)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        (_, report), times = _timed(lambda: search.max_delay(sys, params), tracer)
    except (NoFeasiblePointError, BracketError, ValueError) as exc:  # as hierarchy_sweep
        times = (time.perf_counter() - t0, time.process_time() - c0)
        return Outcome(op, *times, cli.EXIT_NO_FEASIBLE, error=str(exc))
    code = cli.EXIT_OK
    if report.inconclusive_probes > len(report.probes) // 2:
        code = cli.EXIT_INCONCLUSIVE
    return Outcome(op, *times, code, report.to_dict())
