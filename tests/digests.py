"""SHA-256 digests of the program's numeric artifacts, for comparing two
checkouts bit for bit.

Run from the repository root:

    PYTHONPATH=src python tests/digests.py

Each artifact prints one line ``name count sha256``; the ladder cells also
print their bound, probe count and inconclusive count.  Serialization:

* a projection map hashes ``repr(nums)``, ``repr(den)`` and the bytes of
  ``as_array()``;
* a float or an array hashes its shape and its float64 C-order bytes;
* CLI output hashes the UTF-8 stdout text;
* a ladder report hashes ``json.dumps(to_dict(), sort_keys=True)`` with
  the wall-time fields (``wall_time_s``; per probe ``assemble_s``,
  ``solve_s``, ``verify_s``) removed.

The script reads only names every recent version of the package has, so
the same file digests both sides of a change.  It is not a test module:
pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import numpy as np

from delaymargin import cli, verification
from delaymargin.lmi import (
    DelaySystem,
    HierarchyParams,
    assemble_delay_range_lmis,
    assemble_stability_lmis,
)
from delaymargin.projection import (
    derivative_moment_map,
    legendre_derivative_map,
    legendre_table,
    max_derivative_order,
    max_weighted_order,
    weighted_moment_map,
)
from delaymargin.search import max_delay
from delaymargin.systems import bundled_system

BUNDLED = ("example1", "example2", "example3")
RANDOM_SYSTEM_SEED = 2025  # the random 3x3 system with A_d2 != 0
LADDER_GRID = ((1, 1), (3, 1), (3, 2))
LADDER_TOL = 1e-5
SINGLE_DELAYS = (0.37, 1.3, 2.9)
DELAY_RANGES = ((0.2, 1.1), (0.9, 2.6))
WALL_FIELDS = ("assemble_s", "solve_s", "verify_s")
# the names `verification` imports from `inequalities` whose floats are recorded
INEQUALITY_NAMES = (
    "functional_value",
    "moments",
    "lower_bound_values",
    "lower_bound_derivative",
    "competitor_statistics",
    "competitor_bound",
)


class Digest:
    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self._hash = hashlib.sha256()

    def text(self, s: str) -> None:
        self._hash.update(s.encode())

    def array(self, x) -> None:
        arr = np.ascontiguousarray(x, dtype=np.float64)
        self._hash.update(repr(arr.shape).encode() + arr.tobytes())

    def line(self) -> str:
        return f"{self.name} {self.count} {self._hash.hexdigest()}"


def map_digests() -> list[Digest]:
    def add(d: Digest, pmap) -> None:
        d.text(repr(pmap.nums) + repr(pmap.den))
        d.array(pmap.as_array())
        d.count += 1

    weighted, derivative = Digest("maps.weighted"), Digest("maps.derivative")
    for m in range(7):
        for big_m in range(11):
            for nu in range(max_weighted_order(m, big_m) + 1):
                add(weighted, weighted_moment_map(m, nu, big_m))
            for nu in range(max_derivative_order(m, big_m) + 1):
                add(derivative, derivative_moment_map(m, nu, big_m))
    table, transport = Digest("maps.legendre_table"), Digest("maps.legendre_derivative")
    for big_m in range(1, 11):
        add(table, legendre_table(big_m))
        add(transport, legendre_derivative_map(big_m))
    return [weighted, derivative, table, transport]


def inequality_digests() -> list[Digest]:
    digests = {name: Digest(f"run_all.{name}") for name in INEQUALITY_NAMES}
    originals = {name: getattr(verification, name) for name in INEQUALITY_NAMES}

    def recording(name):
        def call(*args, **kwargs):
            out = originals[name](*args, **kwargs)
            d = digests[name]
            for part in out if isinstance(out, tuple) else (out,):
                d.array(part)
                d.count += np.size(part)
            return out

        return call

    try:
        for name in INEQUALITY_NAMES:
            setattr(verification, name, recording(name))
        for seed in range(12):
            verification.run_all(seed=seed)
    finally:
        for name, fn in originals.items():
            setattr(verification, name, fn)
    return list(digests.values())


def cli_digest(name: str, argv: list[str]) -> Digest:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    d = Digest(name)
    d.text(out.getvalue())
    d.count = out.getvalue().count("\n")
    return d


def random_system() -> DelaySystem:
    rng = np.random.default_rng(RANDOM_SYSTEM_SEED)
    a, a_d1, a_d2 = (rng.normal(size=(3, 3)) for _ in range(3))
    return DelaySystem(a - 3 * np.eye(3), a_d1, a_d2, name="random3")


def lmi_digests() -> list[Digest]:
    systems = [bundled_system(name)[0] for name in BUNDLED] + [random_system()]
    out = []
    for sys in systems:
        d = Digest(f"lmi.{sys.name}")
        for big_m in range(1, 5):
            for m in range(4):
                params = HierarchyParams(big_m, m)
                programs = [assemble_stability_lmis(sys, params, tau) for tau in SINGLE_DELAYS]
                programs += [assemble_delay_range_lmis(sys, params, *r) for r in DELAY_RANGES]
                for program in programs:
                    for block in program.blocks:
                        d.array(block)
                        d.count += 1
        out.append(d)
    return out


def ladder_digests() -> tuple[list[Digest], list[str]]:
    digests, cells = [], []
    for name in BUNDLED:
        sys = bundled_system(name)[0]
        for big_m, m in LADDER_GRID:
            bound, report = max_delay(sys, HierarchyParams(big_m, m), tol=LADDER_TOL)
            doc = report.to_dict()
            del doc["wall_time_s"]
            for probe in doc["probes"]:
                for key in WALL_FIELDS:
                    del probe[key]
            d = Digest(f"ladder.{name}.M{big_m}.m{m}")
            d.text(json.dumps(doc, sort_keys=True))
            d.count = len(report.probes)
            digests.append(d)
            cells.append(
                f"cell {name} M={big_m} m={m} bound={bound!r} "
                f"probes={len(report.probes)} inconclusive={report.inconclusive_probes}"
            )
    return digests, cells


def main() -> None:
    digests = map_digests() + inequality_digests()
    digests.append(cli_digest("verify.default", ["verify"]))
    digests.append(cli_digest("verify.seed1_cases40", ["verify", "--seed", "1", "--cases", "40"]))
    digests.append(cli_digest("verify.seed5", ["verify", "--seed", "5"]))
    digests.append(cli_digest("crosscheck.m3_M6", ["crosscheck", "--max-m", "3", "--max-M", "6"]))
    digests += lmi_digests()
    ladder, cells = ladder_digests()
    for d in digests + ladder:
        print(d.line())
    for line in cells:
        print(line)


if __name__ == "__main__":
    main()
