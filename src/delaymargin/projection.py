"""Exact change-of-basis matrices between weighted and Legendre moments.

Every matrix here is a ``ProjectionMap``: one integer matrix over one
positive denominator, exact rationals that become floats only in
``as_array``, by one integer division per entry.  ``legendre_table`` is
the monomial coefficient matrix of the first M shifted Legendre
polynomials R(0, l), and ``legendre_moments`` the one kernel for
int_0^1 R(0, l) p (l < M): the table times the monomial integrals of p,
in integers.  The function moments of ``inequalities`` and the maps below
read it, and the reconstruction checks multiply by the same table.  By
orthogonality, int_0^1 R(0, l)**2 = 1/(2l+1), so the coordinate l of a
polynomial of degree below M in the shifted Legendre basis is (2l+1)
times its moment l.  Three map families are built on it:

* ``weighted_moment_map`` (rows j = 0..nu): coordinates of the weighted
  polynomial x**m R(m, j) in the shifted Legendre basis.  Applied to a
  Legendre moment vector it yields the weight-x**m moments that enter the
  projection lower bounds.
* ``derivative_moment_map``: the analogous map for derivatives.  Row j
  combines the two boundary values with the Legendre coordinates of
  d/dx [x**m R(m, j)], so that applied to (f(b), f(a), moments/(b-a)) it
  yields the weighted moments of f'.
* ``legendre_derivative_map``: the m = 0 derivative map for all first M
  Legendre polynomials; it is the transport part of the augmented-state
  dynamics in the stability conditions.

``projection_form`` turns either map into the quadratic form of its
projection inequality, (map x I)^T diag{(m+1) W, (m+3) W, ...} (map x I).
It is (map^T D map) x W, D = diag{m+1, m+3, ...}, by the mixed-product
rule: the map's exact ``gram`` times W.  It is the one statement of that
form: the LMI builder and the inequality bounds both call it.

The source of truth is those exact Legendre moments.  The published
closed-form constructions are re-derived in ``crosscheck_closed_forms``,
purely as a diagnostic that never overrides the maps: each map times the
table must equal the recipe's exact coefficient product.

The admissible orders are stated once: ``max_weighted_order`` and
``max_derivative_order`` give the largest nu each map accepts (negative
when none is), and every caller that picks or bounds an order asks them;
``check_depth_range`` is the one check of a range of depths.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .polynomials import (
    RationalPolynomial,
    monomial_integrals,
    monomial_to_basis_matrix,
    poly_weighted,
)

__all__ = [
    "ProjectionMap",
    "legendre_table",
    "legendre_moments",
    "max_weighted_order",
    "max_derivative_order",
    "check_depth_range",
    "weighted_moment_map",
    "derivative_moment_map",
    "legendre_derivative_map",
    "projection_form",
    "crosscheck_closed_forms",
    "CrosscheckReport",
]

FractionMatrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True, init=False)
class ProjectionMap:
    """Exact projection map of one (m, nu, M): (nu+1) x M from Legendre
    moments to weight-x**m moments (``weighted_moment_map``), or (nu+1) x
    (M+2) from boundary values and scaled Legendre moments to weight-x**m
    moments of the derivative (``derivative_moment_map``); or the M x M
    ``legendre_table``.

    Stored as one integer matrix ``nums`` over one positive denominator
    ``den``, in lowest terms; ``ProjectionMap(entries)`` takes a matrix of
    int, `Fraction` or float entries (a float is taken exactly), and
    ``entries`` is the derived `Fraction` view.  ``as_array`` and ``gram``
    are read-only floats, made once per map (and per m)."""

    nums: tuple[tuple[int, ...], ...]
    den: int

    def __init__(self, entries: FractionMatrix):
        ratios = [[c.as_integer_ratio() for c in row] for row in entries]
        den = math.lcm(*[q for row in ratios for _, q in row])
        nums = tuple(tuple(n * (den // q) for n, q in row) for row in ratios)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @property
    def entries(self) -> FractionMatrix:
        return tuple(tuple(Fraction(n, self.den) for n in row) for row in self.nums)

    @cached_property
    def _array(self) -> np.ndarray:
        arr = np.array([[n / self.den for n in row] for row in self.nums], dtype=float)
        arr.setflags(write=False)
        return arr

    def as_array(self) -> np.ndarray:
        """The entries as a read-only float array, made once per map."""
        return self._array

    @cached_property
    def _grams(self) -> dict[int, np.ndarray]:
        return {}

    def gram(self, m: int) -> np.ndarray:
        """P^T diag{m+1, m+3, ..., m+2 nu+1} P for this map P (nu + 1 rows)
        as a read-only float array, made once per m: integer sums over the
        rows of ``nums``, one division by den**2 per entry."""
        gram = self._grams.get(m)
        if gram is None:
            cols, den2 = list(zip(*self.nums)), self.den**2
            norms = range(m + 1, m + 2 * len(self.nums), 2)
            gram = np.array(
                [[sum(d * x * y for d, x, y in zip(norms, a, b)) / den2 for b in cols] for a in cols]
            )
            gram.setflags(write=False)
            self._grams[m] = gram
        return gram


@lru_cache(maxsize=None)
def legendre_table(big_m: int) -> ProjectionMap:
    """Row l: the monomial coefficients of R(0, l), l = 0..M-1 (M >= 1)."""
    return ProjectionMap(monomial_to_basis_matrix(0, big_m - 1))


def legendre_moments(p: RationalPolynomial, big_m: int) -> tuple[list[int], int]:
    """int_0^1 R(0, l) p for l = 0..M-1, as integer numerators over one
    positive denominator, not reduced: ``legendre_table(M)`` times the
    monomial integrals of p.  M = 0 gives no moments and builds no table."""
    if not big_m:
        return [], 1
    table = legendre_table(big_m)
    ints, den = monomial_integrals(p, big_m)
    return [sum(t * x for t, x in zip(row, ints)) for row in table.nums], den * table.den


def _coordinates(p: RationalPolynomial, big_m: int) -> tuple[Fraction, ...]:
    """Coordinates of p (degree below M) in the basis R(0, 0..M-1): by
    orthogonality, coordinate l is (2l+1) int_0^1 R(0, l) p."""
    nums, den = legendre_moments(p, big_m)
    return tuple(Fraction((2 * l + 1) * n, den) for l, n in enumerate(nums))


def max_weighted_order(m: int, big_m: int) -> int:
    """Largest nu of ``weighted_moment_map(m, nu, M)``: x**m R(m, nu) must
    have degree below M to lie in the span of M Legendre moments."""
    return big_m - m - 1


def max_derivative_order(m: int, big_m: int) -> int:
    """Largest nu of ``derivative_moment_map(m, nu, M)``: one more than the
    weighted map's, since the derivative drops one degree."""
    return big_m - m


def check_depth_range(max_m: int, max_big_m: int) -> None:
    """ValueError unless integers max_m >= 0 and max_big_m give every
    depth m = 0..max_m a ``weighted_moment_map`` at some M <= max_big_m."""
    integers = all(isinstance(v, numbers.Integral) for v in (max_m, max_big_m))
    if not integers or max_m < 0 or max_weighted_order(max_m, max_big_m) < 0:
        raise ValueError(f"max_m must be an integer >= 0 and reached by some M <= "
                         f"max_big_m, got max_m={max_m!r}, max_big_m={max_big_m!r}")


def _check_order(m: int, nu: int, largest: int) -> None:
    if m < 0 or not 0 <= nu <= largest:
        raise ValueError(f"need m >= 0 and 0 <= nu <= {largest}, got m={m}, nu={nu}")


@lru_cache(maxsize=None)
def weighted_moment_map(m: int, nu: int, big_m: int) -> ProjectionMap:
    """Rows j = 0..nu: shifted-Legendre coordinates of x**m R(m, j).

    Requires nu <= ``max_weighted_order(m, M)``.  Entries with column
    index l > m + j vanish (degree count).
    """
    _check_order(m, nu, max_weighted_order(m, big_m))
    rows = (_coordinates(poly_weighted(m, j), big_m) for j in range(nu + 1))
    return ProjectionMap(tuple(rows))


@lru_cache(maxsize=None)
def derivative_moment_map(m: int, nu: int, big_m: int) -> ProjectionMap:
    """Rows j = 0..nu of the derivative projection.

    Row j is (q(1), -q(0), -zeta_0, ..., -zeta_{M-1}) for q = x**m R(m, j),
    where the zeta are the Legendre coordinates of q'; the boundary values
    are read off q itself.  Requires nu <= ``max_derivative_order(m, M)``.
    """
    _check_order(m, nu, max_derivative_order(m, big_m))
    rows = []
    for j in range(nu + 1):
        q = poly_weighted(m, j)
        zeta = _coordinates(q.derivative(), big_m)
        rows.append((q.eval(1), -q.eval(0)) + tuple(-z for z in zeta))
    return ProjectionMap(tuple(rows))


@lru_cache(maxsize=None)
def legendre_derivative_map(big_m: int) -> ProjectionMap:
    """The m = 0 derivative map with one row per Legendre polynomial below M."""
    return derivative_moment_map(0, big_m - 1, big_m)


def projection_form(proj: ProjectionMap, m: int, weight: np.ndarray) -> np.ndarray:
    """(proj x I)^T diag{(m+1) W, (m+3) W, ..., (m+2 nu+1) W} (proj x I),
    nu + 1 the rows of proj: the weight W scaled by the inverse squared
    norms of the weighted Rodrigues polynomials j = 0..nu, pulled back
    through a moment map of depth m.  By the mixed-product rule it is
    ``proj.gram(m)`` x W; a stack of weights (leading axes) gives the stack
    of their forms."""
    return _kron(proj.gram(m), weight)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of a matrix with each matrix of b (its last two axes) by one
    broadcast product: the same entries, without np.kron's general-shape
    handling."""
    (ra, ca), (*lead, rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[..., None, :, None, :]).reshape(*lead, ra * rb, ca * cb)


# ---------------------------------------------------------------------------
# Diagnostic re-derivation of the published closed forms.
# ---------------------------------------------------------------------------


@dataclass
class CrosscheckReport:
    """Outcome of diffing the closed-form constructions against basis change.

    ``notes`` records the index-range corrections that were required to make
    the closed forms well defined; ``discrepancies`` records any entry where
    the corrected closed form still differs (expected: none).
    """

    m: int
    nu: int
    big_m: int
    agreements: list[str] = field(default_factory=list)
    discrepancies: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.discrepancies

    def lines(self) -> list[str]:
        head = f"closed-form crosscheck (m={self.m}, nu={self.nu}, M={self.big_m})"
        out = [head]
        out += [f"  note: {s}" for s in self.notes]
        out += [f"  ok: {s}" for s in self.agreements]
        out += [f"  MISMATCH: {s}" for s in self.discrepancies]
        return out


def _coefficient_matrix_closed_form(m: int, big_k: int) -> FractionMatrix:
    """Closed-form entries of the Rodrigues coefficient matrix.

    Entry (l, k) = (-1)**(l+k) * [prod_{j<k} (l-j)/(k-j)] * [prod_{i<=l} (m+k+i)/i],
    zero for k > l.  The product over j is the binomial C(l, k).
    """

    def entry(l: int, k: int) -> Fraction:
        val = Fraction((-1) ** (l + k))
        for j in range(k):
            val *= Fraction(l - j, k - j)  # the factor j = l makes it zero for k > l
        for i in range(1, l + 1):
            val *= Fraction(m + k + i, i)
        return val

    return tuple(tuple(entry(l, k) for k in range(big_k + 1)) for l in range(big_k + 1))


def _matmul(a: FractionMatrix, b: FractionMatrix) -> FractionMatrix:
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _diff_matrices(
    label: str, got: FractionMatrix, want: FractionMatrix, report: CrosscheckReport,
    times: str = "",
) -> None:
    """Diff two exact matrices; ``times`` names a table both were multiplied by."""
    if got == want:
        report.agreements.append(f"{label} matches basis-change result")
        return
    for i, (rg, rw) in enumerate(zip(got, want)):
        for j, (g, w) in enumerate(zip(rg, rw)):
            if g != w:
                report.discrepancies.append(
                    f"{label}{times}[{i},{j}]: closed form {g} vs basis change {w}"
                )


def crosscheck_closed_forms(m: int, nu: int, big_m: int) -> CrosscheckReport:
    """Re-derive the moment maps from the published closed-form recipe.

    The printed recipe carries index typos (a negative matrix size in the
    weighted map, off-by-ones in the derivative map's diagonal factor); this
    diagnostic applies the minimal corrections recorded in ``notes``, diffs
    every entry against the basis-change construction, and reports rather
    than overrides.  The recipes print each map as C G0^-1, G0 the Legendre
    table; since G0 is triangular with a nonzero diagonal, that holds
    exactly when map x G0 = C, and those products are what is diffed.
    """
    report = CrosscheckReport(m=m, nu=nu, big_m=big_m)

    # 1. Coefficient matrix entries: formula is correct once the garbled
    #    range condition is read as l = 0..K, k = 0..l.
    report.notes.append(
        "coefficient-matrix formula applied for all l = 0..K, k = 0..l "
        "(printed range condition is inconsistent)"
    )
    closed_g = _coefficient_matrix_closed_form(m, max(nu + m, 1))
    derived_g = monomial_to_basis_matrix(m, max(nu + m, 1))
    _diff_matrices("coefficient matrix", closed_g, derived_g, report)

    # 2. Weighted moment map: printed size "G(m, -nu)" read as G(m, +nu);
    #    valid only in the tight case m + nu = M - 1, where the shift block
    #    [0 I] needs no right padding.
    g0 = monomial_to_basis_matrix(0, big_m - 1)
    if nu == max_weighted_order(m, big_m):
        gm = _coefficient_matrix_closed_form(m, nu)
        shift = tuple(
            tuple(
                Fraction(1) if col == m + row else Fraction(0)
                for col in range(big_m)
            )
            for row in range(nu + 1)
        )
        derived_xi = _matmul(weighted_moment_map(m, nu, big_m).entries, g0)
        report.notes.append("weighted map size read as G(m, +nu), not G(m, -nu)")
        _diff_matrices("weighted moment map", _matmul(gm, shift), derived_xi, report, " x G0")
    else:
        report.notes.append(
            "weighted-map closed form skipped: printed shift block assumes "
            f"m + nu = M - 1 (got {m}+{nu} vs {big_m - 1})"
        )

    # 3. Derivative moment map: the diagonal factor is the monomial
    #    differentiation operator.  Printed sizes corrected:
    #    G(m, nu+1) -> G(m, nu) and diag{m..m+nu+1} -> diag{m..m+nu}.
    if nu <= max_derivative_order(m, big_m):
        span = m + nu  # q' has degree <= m + nu - 1, expanded in span terms
        if span >= 1:
            gm = _coefficient_matrix_closed_form(m, nu)
            # monomial differentiation: coefficient of x**(m+k) contributes
            # (m+k) at exponent m+k-1
            dshift = tuple(
                tuple(
                    Fraction(m + row) if col == m + row - 1 else Fraction(0)
                    for col in range(span)
                )
                for row in range(nu + 1)
            )
            derived = derivative_moment_map(m, nu, big_m).entries
            derived_zeta = _matmul(
                tuple(tuple(-c for c in row[2 : 2 + span]) for row in derived),
                monomial_to_basis_matrix(0, span - 1),
            )
            pad_ok = all(
                all(c == 0 for c in row[2 + span :]) for row in derived
            )
            report.notes.append(
                "derivative map read with G(m, nu) and diag{m..m+nu} "
                "(printed sizes are off by one)"
            )
            if pad_ok:
                report.agreements.append("derivative map zero padding beyond span")
            else:  # pragma: no cover - would indicate a real defect
                report.discrepancies.append("derivative map has entries beyond span")
            _diff_matrices(
                "derivative map coordinates", _matmul(gm, dshift), derived_zeta, report, " x G0s"
            )
        else:
            report.notes.append("derivative map trivial (constant rows only)")

    # Boundary columns of the derivative map, directly comparable.
    derived = derivative_moment_map(m, nu, big_m).entries
    ones_ok = all(row[0] == 1 for row in derived)
    if ones_ok:
        report.agreements.append("derivative map boundary column of ones")
    else:  # pragma: no cover
        report.discrepancies.append("derivative map boundary column is not all ones")
    expected_second = [
        Fraction((-1) ** (j + 1)) if m == 0 else Fraction(0)
        for j in range(nu + 1)
    ]
    if [row[1] for row in derived] == expected_second:
        report.agreements.append("derivative map alternating boundary column")
    else:  # pragma: no cover
        report.discrepancies.append("derivative map second column mismatch")
    return report
