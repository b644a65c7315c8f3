"""Set-up time of one workload in a fresh interpreter.

Run as `python3 benchmarks/setup_probe.py <workload> <seed>`: imports the
program (its CLI, which pulls in every layer) and loads or generates the
workload's systems, then prints the seconds that took as one JSON line.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import delaymargin.cli  # noqa: E402,F401
from workloads import load_systems  # noqa: E402

load_systems(sys.argv[1], int(sys.argv[2]))
print(json.dumps({"setup_s": time.perf_counter() - _T0}))
