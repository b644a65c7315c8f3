"""Benchmark of the certified delay-bound pipeline.

    python3 benchmarks/run.py --workload ladder --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
One process runs one workload: it repeats whole rounds of the workload's
operations (see workloads.py) until the next round would end past
`--seconds`, judging every output with the correctness gate (gate.py).
Untraced runs (`--trace 0`) also time set-up in fresh interpreters, scale
every time to the machine's speed (Scaler) and report the end-to-end
metrics; traced runs (`--trace 1`) run every
operation twice in a row, traced then untraced, and report the per-layer
metrics (spans.py), writing the spans to `.bench_out/`.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one caller, one BLAS thread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# Solver overrides the CLI would otherwise apply silently.
CLEARED_ENV = sorted(k for k in os.environ if k.startswith("DELAYMARGIN_"))
for _var in CLEARED_ENV:
    del os.environ[_var]

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 60
# Calibration burst (see Scaler): its time on a quiet 2-vCPU Xeon host.
CALIBRATION_REF_S = 0.04
_CAL_A = 6.0 * np.eye(6) + np.ones((6, 6))
_CAL_B = np.ones(6)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "ops_per_s": "1/s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Import the program from this checkout's src/, or explain why not."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import delaymargin
    except ImportError as exc:
        raise SystemExit(f"error: cannot import delaymargin from {ROOT / 'src'}: {exc}")
    if Path(delaymargin.__file__).resolve().parent.parent != ROOT / "src":
        raise SystemExit(f"error: imported delaymargin from {delaymargin.__file__}, not {ROOT / 'src'}")
    import numpy

    return numpy.__version__


def _setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter (one sample)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True, cwd=ROOT,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def calibration_seconds() -> float:
    """Time of a fixed burst of work: small numpy calls and interpreter
    float arithmetic, the mix the program's solver loop spends its time in.
    It takes about CALIBRATION_REF_S when the machine is quiet."""
    t0 = time.perf_counter()
    for _ in range(2000):
        np.linalg.solve(_CAL_A, _CAL_B)
        np.linalg.eigvalsh(_CAL_A)
        x = 0.0
        for j in range(150):
            x += j * 0.5
    return time.perf_counter() - t0


class Scaler:
    """Scales each timed call to the quiet machine's speed.

    On a shared machine the same code runs up to twice as slow for
    minutes at a time, and the slow spells differ from run to run.  A
    calibration burst runs after every timed call, and the call's time is
    multiplied by CALIBRATION_REF_S over the mean of the bursts on either
    side of it: slow spells stretch both alike and cancel.
    """

    def __init__(self):
        self.bursts = [calibration_seconds()]

    def scale(self, seconds: float) -> float:
        self.bursts.append(calibration_seconds())
        return seconds * CALIBRATION_REF_S / ((self.bursts[-2] + self.bursts[-1]) / 2)


def _run_rounds(workload: str, seed: int, seconds: float, tracer):
    """Repeat rounds until the next would end past `seconds` (at least one).

    Untraced runs scale every operation's time (Scaler), and also take
    SETUP_SAMPLES scaled set-up samples, spread between operations over
    `seconds`.  Traced runs run each operation twice in a row, traced then
    untraced, so the pair measures the tracing overhead.

    Returns (outcomes, rounds, scaled operation times, scaled set-up
    samples, Scaler or None, [(traced s, untraced s)] pairs).
    """
    import gate
    import workloads

    systems = workloads.load_systems(workload, seed)
    ops = workloads.build_round(workload, seed, systems)
    outcomes, scaled, setup, pairs = [], [], [], []
    scaler = Scaler() if tracer is None else None
    rounds = 0
    start = time.perf_counter()
    while True:
        batch = []
        for op in ops:
            if tracer is not None:
                tracer.install()
                try:
                    batch.append(workloads.run_op(op, systems, tracer))
                finally:
                    tracer.uninstall()
            elif len(setup) < SETUP_SAMPLES and (
                time.perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES
            ):
                setup.append(scaler.scale(_setup_seconds(workload, seed)))
            batch.append(workloads.run_op(op, systems))
            if tracer is not None:
                pairs.append((batch[-2].seconds, batch[-1].seconds))
            else:
                scaled.append(scaler.scale(batch[-1].seconds))
        gate.judge_round(batch, systems)
        outcomes += batch
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    while tracer is None and len(setup) < SETUP_SAMPLES:
        setup.append(scaler.scale(_setup_seconds(workload, seed)))
    return outcomes, rounds, scaled, setup, scaler, pairs


def cell_medians(outcomes, scaled: list[float]) -> dict:
    """Each cell's median scaled time over its repeats: operation -> s."""
    cells = defaultdict(list)
    for out, seconds in zip(outcomes, scaled):
        cells[out.op].append(seconds)
    return {op: statistics.median(times) for op, times in cells.items()}


def _tail_line(times: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    for pct in (99, 95, 90, 75):
        if len(times) * (100 - pct) / 100 >= 10:
            value = statistics.quantiles(times, n=100)[pct - 1]
            return f"unscaled op_s.p{pct} = {value:.6f} s (n={len(times)})"
    return ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ladder", "scale", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    numpy_version = _import_program()
    import gate
    import spans
    import workloads

    env = {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "cleared_env": CLEARED_ENV,
    }
    print("env " + json.dumps(env))
    problems = gate.self_check()
    if problems:
        for problem in problems:
            print(f"self-check FAILED: {problem}", file=sys.stderr)
        return 1
    print("self-check: gate flags a perturbed bound, an unverified feasible probe and an error exit")

    tracer = spans.Tracer() if args.trace else None
    outcomes, rounds, scaled, setup, scaler, pairs = _run_rounds(
        args.workload, args.seed, args.seconds, tracer)
    measured = sum(o.seconds for o in outcomes)

    for out in outcomes:
        detail = f"{out.checks} checks"
        if out.report and "probes" in out.report:
            detail = (f"{len(out.report['probes'])} probes "
                      f"({out.report['inconclusive_probes']} inconclusive)")
        print(f"op {out.op.label()}: {out.seconds:.4f} s (cpu {out.cpu_seconds:.4f} s), "
              f"exit {out.exit_code}, {detail}")
    failed = [o for o in outcomes if o.failures]
    for out in failed:
        for reason in out.failures:
            print(f"FAIL {args.workload} [{out.op.label()}]: {reason}")
    correct = not any(o.wrong for o in outcomes)
    name = args.workload
    print(f"{name}: {len(outcomes)} operations in {rounds} rounds ({workloads.OPERATION[name]}), "
          f"{measured:.3f} s measured, seed {args.seed}; CPU time / wall time of the "
          f"operations {sum(o.cpu_seconds for o in outcomes) / measured:.3f}")
    print(f"{name} failed_frac = {len(failed) / len(outcomes):.6f} ratio "
          f"({len(failed)} of {len(outcomes)} operations)")

    if tracer is None:
        times = [o.seconds for o in outcomes]
        cells = cell_medians(outcomes, scaled)
        for op, seconds in cells.items():
            print(f"cell {op.label()}: median {seconds:.4f} s scaled over "
                  f"{sum(o.op == op for o in outcomes)} repeats")
        print(f"{name} machine: calibration burst median "
              f"{statistics.median(scaler.bursts):.4f} s (quiet {CALIBRATION_REF_S} s) over "
              f"{len(scaler.bursts)} bursts; unscaled median operation time {statistics.median(times):.6f} s")
        round_s = sum(cells.values())
        values = {
            "setup_s": statistics.median(setup),
            "op_s": statistics.geometric_mean(cells.values()),
            "ops_per_s": len(cells) / round_s,
            "checks_per_s": sum(o.checks for o in outcomes) / rounds / round_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        tail = _tail_line(times)
        if tail:
            print(f"{name} {tail}")
    else:
        overhead = statistics.median(t / p for t, p in pairs) - 1.0
        values = spans.per_layer_metrics(tracer.spans, overhead)
        units = spans.PER_LAYER_UNITS
        residual = values["trace.residual_frac"]
        shares = spans.layer_shares(tracer.spans)
        print(f"{name} self-time shares: "
              + " + ".join(f"{layer} {share:.6f}" for layer, share in shares.items())
              + f" = {sum(shares.values()):.6f}")
        print(f"{name} trace: {len(tracer.spans)} spans; largest unaccounted share "
              f"of an operation {residual:.6f} (limit {spans.RESIDUAL_LIMIT})")
        if residual > spans.RESIDUAL_LIMIT:
            print(f"FAIL {name}: layer self times miss {residual:.4f} of an operation's wall time")
            correct = False
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{name}-seed{args.seed}.jsonl"
        tracer.write_jsonl(path)
        print(f"{name} spans written to {path.relative_to(ROOT)}")
    for metric, unit in units.items():
        print(f"{name} {metric} = {values[metric]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
