"""Randomized and exact property suites certifying the inequality layer.

These checks back the `verify` CLI verb and the acceptance tests: exact
orthogonality and reconstruction identities, randomized soundness of the
projection lower bounds (both the plain and the derivative form), equality
on the projected span, and dominance over the competing first-order bound.

All randomness is drawn from a seeded generator so failures are
reproducible; the seed is part of the report.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .inequalities import (
    FunctionalSpec,
    PolynomialVectorFunction,
    competitor_statistics,
    functional_value,
    competitor_bound,
    lower_bound_derivative,
    lower_bound_values,
    moments,
)
from .polynomials import RationalPolynomial, inner_product, poly_weighted, rodrigues_poly
from .projection import (
    check_depth_range,
    derivative_moment_map,
    legendre_table,
    max_derivative_order,
    max_weighted_order,
    weighted_moment_map,
)

__all__ = [
    "VerificationReport",
    "DEFAULT_SEED",
    "check_polynomial_identities",
    "check_projection_reconstruction",
    "check_bound_soundness",
    "check_competitor_dominance",
    "run_all",
]

DEFAULT_SEED = 20240809


@dataclass
class VerificationReport:
    seed: int
    checks_run: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "VerificationReport") -> None:
        self.checks_run += other.checks_run
        self.failures.extend(other.failures)


def check_polynomial_identities(max_m: int = 6, max_n: int = 8) -> VerificationReport:
    """Exact orthogonality, norms, endpoint values and degrees."""
    report = VerificationReport(seed=0)
    for m in range(max_m + 1):
        polys = [rodrigues_poly(m, n) for n in range(max_n + 1)]
        for i in range(max_n + 1):
            report.checks_run += 1
            norm = inner_product(m, polys[i], polys[i])
            if norm != Fraction(1, m + 2 * i + 1):
                report.failures.append(
                    f"norm identity broken at (m={m}, n={i}): {norm}"
                )
            if polys[i].eval(1) != 1:
                report.failures.append(f"right endpoint != 1 at (m={m}, n={i})")
            if polys[i].degree != i:
                report.failures.append(f"degree != n at (m={m}, n={i})")
            for j in range(i + 1, max_n + 1):
                report.checks_run += 1
                ip = inner_product(m, polys[i], polys[j])
                if ip != 0:
                    report.failures.append(
                        f"orthogonality broken at (m={m}, i={i}, j={j}): {ip}"
                    )
    return report


def check_projection_reconstruction(
    max_m: int = 4,
    max_nu: int = 4,
    max_big_m: int = 8,
) -> VerificationReport:
    """Exact row-wise reconstruction of both projection matrix families,
    on the maps' integer numerators: a row times the integer Legendre
    table is the row's polynomial sum_l row[l] R(0, l)."""
    report = VerificationReport(seed=0)
    for m in range(max_m + 1):
        for nu in range(max_nu + 1):
            for big_m in range(1, max_big_m + 1):
                if nu <= max_weighted_order(m, big_m):
                    report.checks_run += 1
                    xi = weighted_moment_map(m, nu, big_m)
                    for j in range(nu + 1):
                        target = poly_weighted(m, j)
                        if _reconstruct(xi.nums[j]) != target.scale(xi.den):
                            report.failures.append(
                                f"weighted-map reconstruction broken at "
                                f"(m={m}, nu={nu}, M={big_m}), row {j}"
                            )
                            break
                if nu <= max_derivative_order(m, big_m):
                    report.checks_run += 1
                    z = derivative_moment_map(m, nu, big_m)
                    for j in range(nu + 1):
                        q = poly_weighted(m, j)
                        row = z.nums[j]  # (q(1), -q(0), -zeta) * den
                        ok = (
                            row[0] == z.den
                            and row[1] * q.den == -q.nums[0] * z.den
                            and _reconstruct(row[2:]) == q.derivative().scale(-z.den)
                        )
                        if not ok:
                            report.failures.append(
                                f"derivative-map reconstruction broken at "
                                f"(m={m}, nu={nu}, M={big_m}), row {j}"
                            )
                            break
    return report


def _reconstruct(row: tuple[int, ...]) -> RationalPolynomial:
    """sum_l row[l] R(0, l) for a row of M integer numerators: the row
    times the integer Legendre table of M."""
    table = legendre_table(len(row))
    nums = [sum(c * t for c, t in zip(row, col)) for col in zip(*table.nums)]
    return RationalPolynomial.over(nums, table.den)


def _random_case(rng: np.random.Generator):
    a = Fraction(int(rng.integers(-2, 2)))
    b = a + Fraction(int(rng.integers(1, 4)))
    dim = int(rng.integers(1, 4))
    degree = int(rng.integers(0, 7))
    # coefficients n / d with d in 1..3, as numerators over lcm(1, 2, 3) = 6
    nums = rng.integers(-5, 6, size=(dim, degree + 1))
    dens = rng.integers(1, 4, size=(dim, degree + 1))
    comps = [RationalPolynomial.over(row, 6) for row in (nums * 6 // dens).tolist()]
    f = PolynomialVectorFunction(comps, a, b)
    g = rng.normal(size=(dim, dim))
    weight = g @ g.T + dim * np.eye(dim)
    m = int(rng.integers(0, 4))
    big_m = int(rng.integers(m + 1, 7))
    return f, weight, m, big_m, float(a), float(b)


def check_bound_soundness(
    seed: int = DEFAULT_SEED, cases: int = 250
) -> VerificationReport:
    """Randomized soundness and sharpness of both projection bounds.

    Per case: bound <= value + 1e-8*scale for every admissible projection
    order (both the plain and the derivative functional), plus equality to
    1e-9*scale when the test function lies in the projected span.  Each
    check is stated so that a NaN on either side fails it.
    """
    rng = np.random.default_rng(seed)
    report = VerificationReport(seed=seed)
    for case in range(cases):
        f, weight, m, big_m, a, b = _random_case(rng)
        spec = FunctionalSpec(weight, m, a, b)
        value = functional_value(spec, f)
        scale = max(1.0, abs(value))
        phi = moments(f, big_m)
        for nu in range(max_weighted_order(m, big_m) + 1):
            report.checks_run += 1
            bound = lower_bound_values(spec, phi, nu)
            if not bound <= value + 1e-8 * scale:
                report.failures.append(
                    f"value bound unsound (case {case}, m={m}, nu={nu}, M={big_m}): "
                    f"bound={bound!r} value={value!r}"
                )
        dvalue = functional_value(spec, f.derivative())
        dscale = max(1.0, abs(dvalue))
        f_a, f_b = f.endpoint_values()
        for nu in range(max_derivative_order(m, big_m) + 1):
            report.checks_run += 1
            dbound = lower_bound_derivative(spec, f_a, f_b, phi, nu)
            if not dbound <= dvalue + 1e-8 * dscale:
                report.failures.append(
                    f"derivative bound unsound (case {case}, m={m}, nu={nu}, "
                    f"M={big_m}): bound={dbound!r} value={dvalue!r}"
                )
        # equality on the projected span: f built from the weighted family
        j = int(rng.integers(0, 3))
        width = Fraction(int(rng.integers(1, 4)))
        a_ex = Fraction(int(rng.integers(-1, 2)))
        basis = rodrigues_poly(m, j).compose_affine(
            Fraction(-a_ex, 1) / width, Fraction(1, 1) / width
        )
        span_f = PolynomialVectorFunction([basis], a_ex, a_ex + width)
        span_spec = FunctionalSpec(np.eye(1), m, float(a_ex), float(a_ex + width))
        span_m = m + j + 1
        span_phi = moments(span_f, span_m)
        span_value = functional_value(span_spec, span_f)
        span_bound = lower_bound_values(span_spec, span_phi, j)
        report.checks_run += 1
        if not abs(span_bound - span_value) <= 1e-9 * max(1.0, abs(span_value)):
            report.failures.append(
                f"span equality broken (case {case}, m={m}, j={j}): "
                f"bound={span_bound!r} value={span_value!r}"
            )
    return report


def check_competitor_dominance(
    seed: int = DEFAULT_SEED, cases: int = 100
) -> VerificationReport:
    """Two-term projection bound dominates the competing first-order bound."""
    rng = np.random.default_rng(seed + 1)
    report = VerificationReport(seed=seed)
    for case in range(cases):
        f, weight, _, _, a, b = _random_case(rng)
        l = int(rng.integers(1, 4))
        spec = FunctionalSpec(weight, l, a, b)
        phi = moments(f, l + 2)
        ours = lower_bound_values(spec, phi, 1)
        g_l, ups_l = competitor_statistics(spec, phi)
        theirs = competitor_bound(spec, g_l, ups_l)
        value = functional_value(spec, f)
        report.checks_run += 1
        if not ours >= theirs - 1e-10 * max(1.0, abs(ours)):
            report.failures.append(
                f"dominance broken (case {case}, l={l}): ours={ours!r} "
                f"theirs={theirs!r}"
            )
        if not theirs <= value + 1e-8 * max(1.0, abs(value)):
            report.failures.append(
                f"competitor bound unsound (case {case}, l={l}): "
                f"bound={theirs!r} value={value!r}"
            )
    return report


def run_all(
    seed: int = DEFAULT_SEED,
    max_m: int = 3,
    max_big_m: int = 6,
    cases: int = 250,
) -> VerificationReport:
    """Full verification battery; sizes capped for interactive runtimes.

    The soundness suite runs ``cases`` random cases and the dominance
    suite half as many, at least 50.  Raises ValueError, before any suite
    runs, for a seed or case count that is not an integer, seed < 0,
    cases < 1, or a depth range ``check_depth_range`` rejects.
    """
    for name, value, floor in (("seed", seed, 0), ("cases", cases, 1)):
        if not isinstance(value, numbers.Integral) or value < floor:
            raise ValueError(f"{name} must be an integer >= {floor}, got {value!r}")
    check_depth_range(max_m, max_big_m)
    report = VerificationReport(seed=seed)
    report.merge(check_polynomial_identities(max_m=max(max_m, 4), max_n=6))
    report.merge(
        check_projection_reconstruction(
            max_m=max_m, max_nu=max_m + 1, max_big_m=max_big_m
        )
    )
    report.merge(check_bound_soundness(seed=seed, cases=cases))
    report.merge(check_competitor_dominance(seed=seed, cases=max(cases // 2, 50)))
    return report
