"""Exact orthogonal polynomials on [0, 1] under the weight x**m.

Everything in this module is exact rational arithmetic, so orthogonality
relations and change-of-basis identities hold bit-exactly.  Coefficients
are stored as `fractions.Fraction`; the kernels (products, affine
composition and the weighted integral) run on the integer numerators over
a common denominator and form one `Fraction` per result coefficient, so
they return the same rationals as coefficient-by-coefficient `Fraction`
arithmetic.  ``inner_product`` is the one kernel for int_0^1 x**m p q dx.
Floats enter the toolkit only later, when matrices are handed to the
semidefinite solver.

The central object is the two-parameter Rodrigues family

    R(m, 0) = 1
    R(m, n) = (1/n!) x^(-m) d^n/dx^n [ x^m (x^2 - x)^n ]

which for m = 0 reduces to the shifted Legendre polynomials.  The family
R(m, .) is orthogonal with respect to  <p, q>_m = int_0^1 x^m p q dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

__all__ = [
    "RationalPolynomial",
    "rodrigues_poly",
    "inner_product",
    "monomial_to_basis_matrix",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class RationalPolynomial:
    """Univariate polynomial with exact rational coefficients.

    ``coeffs[k]`` is the coefficient of x**k.  The representation is
    normalized: no trailing zero coefficients (the zero polynomial is the
    empty tuple).
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(coeffs: Iterable[int | Fraction]) -> "RationalPolynomial":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return RationalPolynomial(tuple(cs))

    @staticmethod
    def zero() -> "RationalPolynomial":
        return RationalPolynomial(())

    @staticmethod
    def one() -> "RationalPolynomial":
        return RationalPolynomial((_ONE,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x**k (zero beyond the stored degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return _ZERO

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPolynomial.from_coeffs(
            self.coeff(k) + other.coeff(k) for k in range(n)
        )

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPolynomial.from_coeffs(
            self.coeff(k) - other.coeff(k) for k in range(n)
        )

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if not self.coeffs or not other.coeffs:
            return RationalPolynomial.zero()
        a, da = _numerators(self)
        b, db = _numerators(other)
        return _over(_convolve(a, b), da * db)

    def scale(self, c: int | Fraction) -> "RationalPolynomial":
        c = Fraction(c)
        return RationalPolynomial.from_coeffs(a * c for a in self.coeffs)

    def shift_exponents(self, m: int) -> "RationalPolynomial":
        """Multiply by x**m (m >= 0), shifting every exponent up by m."""
        if m < 0:
            raise ValueError("shift_exponents requires m >= 0")
        if not self.coeffs:
            return self
        return RationalPolynomial((_ZERO,) * m + self.coeffs)

    def divide_exponents(self, m: int) -> "RationalPolynomial":
        """Divide by x**m; exact only when the m lowest coefficients vanish."""
        if m == 0:
            return self
        low = self.coeffs[:m]
        if any(c != 0 for c in low):
            raise ValueError(f"polynomial is not divisible by x**{m}")
        return RationalPolynomial(self.coeffs[m:])

    def derivative(self) -> "RationalPolynomial":
        if len(self.coeffs) <= 1:
            return RationalPolynomial.zero()
        return RationalPolynomial.from_coeffs(
            k * c for k, c in enumerate(self.coeffs) if k >= 1
        )

    def compose_affine(self, alpha: Fraction, beta: Fraction) -> "RationalPolynomial":
        """Exact composition p(alpha + beta * x), Horner style.

        With alpha = a/d, beta = b/d and c_k = C_k / D, Horner runs on
        integers: sum C_k (a + b x)**k d**(n-1-k), n = len(coeffs), is then
        divided once by D d**(n-1).
        """
        if not self.coeffs:
            return self
        (a, da), (b, db) = Fraction(alpha).as_integer_ratio(), Fraction(beta).as_integer_ratio()
        d = math.lcm(da, db)
        a, b = a * (d // da), b * (d // db)
        nums, den = _numerators(self)
        out = [nums[-1]]
        power = 1  # d**(n-1-k) for the coefficient k added next
        for c in reversed(nums[:-1]):
            power *= d
            out = [a * hi + b * lo for hi, lo in zip(out + [0], [0] + out)]
            out[0] += c * power
        return _over(out, den * power)

    def eval(self, x: int | Fraction) -> Fraction:
        """Exact Horner evaluation."""
        x = Fraction(x)
        out = _ZERO
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def integral(self) -> Fraction:
        """Exact integral over [0, 1]: sum c_k / (k + 1)."""
        return inner_product(0, self, RationalPolynomial.one())


def _numerators(p: RationalPolynomial) -> tuple[list[int], int]:
    """p's coefficients as integer numerators over the lcm of their
    denominators."""
    ratios = [c.as_integer_ratio() for c in p.coeffs]
    d = math.lcm(*[q for _, q in ratios])
    return [n * (d // q) for n, q in ratios], d


def _over(nums: list[int], den: int) -> RationalPolynomial:
    """The polynomial with coefficients nums[k] / den (den > 0)."""
    while nums and not nums[-1]:
        nums.pop()
    return RationalPolynomial(tuple(Fraction(c, den) for c in nums))


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Coefficients of the product of two nonempty integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def rodrigues_poly(m: int, n: int) -> RationalPolynomial:
    """Orthogonal polynomial R(m, n) of the weight-x**m family on [0, 1].

    Built literally from the Rodrigues recipe: binomial expansion of
    (x**2 - x)**n, shift by x**m, n-fold differentiation, exact division by
    x**m (every surviving monomial has exponent >= m), division by n!.
    Degree is exactly n and R(m, n)(1) = 1.
    """
    if m < 0 or n < 0:
        raise ValueError("rodrigues_poly requires m >= 0 and n >= 0")
    if n == 0:
        return RationalPolynomial.one()
    base = RationalPolynomial.from_coeffs((0, -1, 1))  # x^2 - x
    inner = RationalPolynomial.one()
    for _ in range(n):
        inner = inner * base
    work = inner.shift_exponents(m)
    for _ in range(n):
        work = work.derivative()
    work = work.divide_exponents(m)
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    return work.scale(Fraction(1, fact))


def inner_product(
    m: int, p: RationalPolynomial, q: RationalPolynomial
) -> Fraction:
    """Exact weighted inner product  int_0^1 x**m p(x) q(x) dx.

    For the Rodrigues family this returns delta_ij / (m + 2n + 1).  With
    integer numerators a_i / D_p and b_j / D_q, it is
    sum a_i b_j (L / (i + j + m + 1)) / (L D_p D_q), all in integers, where
    L = lcm(m + 1, ..., m + deg p + deg q + 1).
    """
    if m < 0:
        raise ValueError("weight exponent m must be >= 0")
    if not p.coeffs or not q.coeffs:
        return _ZERO
    a, da = _numerators(p)
    b, db = _numerators(q)
    prod = _convolve(a, b)
    big_l = math.lcm(*range(m + 1, m + len(prod) + 1))
    total = sum(c * (big_l // (k + m + 1)) for k, c in enumerate(prod))
    return Fraction(total, big_l * da * db)


def monomial_to_basis_matrix(
    m: int, big_k: int
) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficient matrix of the Rodrigues family in the monomial basis.

    Row l holds the monomial coefficients of R(m, l), zero-padded to length
    big_k + 1.  Lower triangular with nonzero diagonal, hence invertible.
    """
    if big_k < 0:
        raise ValueError("big_k must be >= 0")
    rows = []
    for l in range(big_k + 1):
        p = rodrigues_poly(m, l)
        rows.append(tuple(p.coeff(k) for k in range(big_k + 1)))
    return tuple(rows)


def expand_in_shifted_legendre(
    p: RationalPolynomial, num_terms: int
) -> tuple[Fraction, ...]:
    """Exact coordinates of p in the shifted Legendre basis {R(0, l)}_{l<num_terms}.

    Solved by back-substitution against the lower-triangular coefficient
    matrix of the basis.  Raises if deg p >= num_terms (p not in the span).
    """
    if num_terms < 0:
        raise ValueError("num_terms must be >= 0")
    if p.degree >= num_terms:
        raise ValueError(
            f"degree {p.degree} polynomial is outside the span of the "
            f"first {num_terms} shifted Legendre polynomials"
        )
    if num_terms == 0:
        return ()
    basis = [rodrigues_poly(0, l) for l in range(num_terms)]
    coords = [_ZERO] * num_terms
    residual = p
    for l in range(num_terms - 1, -1, -1):
        c = residual.coeff(l) / basis[l].coeff(l)
        coords[l] = c
        if c != 0:
            residual = residual - basis[l].scale(c)
    if residual.degree >= 0:
        raise AssertionError("triangular solve left a nonzero residual")
    return tuple(coords)


def poly_weighted(m: int, n: int) -> RationalPolynomial:
    """The weighted polynomial x**m * R(m, n), of degree exactly m + n."""
    return rodrigues_poly(m, n).shift_exponents(m)
