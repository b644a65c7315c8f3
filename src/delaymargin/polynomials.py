"""Exact orthogonal polynomials on [0, 1] under the weight x**m.

Everything in this module is exact rational arithmetic, so orthogonality
relations and change-of-basis identities hold bit-exactly.  A polynomial
is stored as integer numerators over one positive denominator, in lowest
terms; ``coeffs`` is a derived `fractions.Fraction` view.  Every kernel
(sums, products, scaling, derivative, affine composition, evaluation and
the weighted integral) runs on those integers, so it returns the same
rationals as coefficient-by-coefficient `Fraction` arithmetic.
``inner_product_ratio`` is the one kernel for int_0^1 x**m p q dx, and
``monomial_integrals`` gives int_0^1 x**k p dx for k < K over one
denominator; a float of either is one correctly rounded integer division,
as `float(Fraction)` is.  ``projection.legendre_moments`` turns the
monomial integrals into Legendre moments.
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
from itertools import zip_longest
from typing import Iterable

__all__ = [
    "RationalPolynomial",
    "rodrigues_poly",
    "inner_product",
    "inner_product_ratio",
    "monomial_integrals",
    "monomial_to_basis_matrix",
]

_ZERO = Fraction(0)


@dataclass(frozen=True, init=False)
class RationalPolynomial:
    """Univariate polynomial with exact rational coefficients.

    ``nums[k] / den`` is the coefficient of x**k.  The form is canonical:
    den > 0, gcd(den, *nums) == 1 and no trailing zero (the zero
    polynomial is nums == (), den == 1), so equal polynomials compare and
    hash equal.  ``RationalPolynomial(coeffs)`` takes int or `Fraction`
    coefficients, ``over(nums, den)`` integer numerators.
    """

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[int | Fraction] = ()):
        ratios = [c.as_integer_ratio() for c in coeffs]
        den = math.lcm(*[q for _, q in ratios])
        self._set([n * (den // q) for n, q in ratios], den)

    def _set(self, nums: list[int], den: int) -> None:
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        object.__setattr__(self, "nums", tuple(n // g for n in nums))
        object.__setattr__(self, "den", den // g)

    @classmethod
    def over(cls, nums: Iterable[int], den: int) -> "RationalPolynomial":
        """The polynomial with coefficients nums[k] / den (den != 0)."""
        p = cls.__new__(cls)
        p._set(list(nums), den)
        return p

    @staticmethod
    def from_coeffs(coeffs: Iterable[int | Fraction]) -> "RationalPolynomial":
        return RationalPolynomial(coeffs)

    @staticmethod
    def zero() -> "RationalPolynomial":
        return RationalPolynomial.over((), 1)

    @staticmethod
    def one() -> "RationalPolynomial":
        return RationalPolynomial.over((1,), 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ``coeffs[k]`` that of x**k."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x**k (zero beyond the stored degree)."""
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return _ZERO

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        pairs = zip_longest(self.nums, other.nums, fillvalue=0)
        return RationalPolynomial.over([a * x + b * y for x, y in pairs], den)

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return RationalPolynomial.over(_convolve(self.nums, other.nums), self.den * other.den)

    def scale(self, c: int | Fraction) -> "RationalPolynomial":
        n, d = c.as_integer_ratio()
        return RationalPolynomial.over([a * n for a in self.nums], self.den * d)

    def shift_exponents(self, m: int) -> "RationalPolynomial":
        """Multiply by x**m (m >= 0), shifting every exponent up by m."""
        if m < 0:
            raise ValueError("shift_exponents requires m >= 0")
        return RationalPolynomial.over((0,) * m + self.nums, self.den)

    def divide_exponents(self, m: int) -> "RationalPolynomial":
        """Divide by x**m (m >= 0); exact only when the m lowest
        coefficients vanish."""
        if m < 0:
            raise ValueError("divide_exponents requires m >= 0")
        if any(self.nums[:m]):
            raise ValueError(f"polynomial is not divisible by x**{m}")
        return RationalPolynomial.over(self.nums[m:], self.den)

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial.over([k * c for k, c in enumerate(self.nums)][1:], self.den)

    def compose_affine(self, alpha: int | Fraction, beta: int | Fraction) -> "RationalPolynomial":
        """Exact composition p(alpha + beta * x), Horner style.

        With alpha = a/d, beta = b/d and c_k = C_k / D, Horner runs on
        integers: sum C_k (a + b x)**k d**(n-1-k), n = len(nums), is then
        divided once by D d**(n-1).
        """
        if not self.nums:
            return self
        (a, da), (b, db) = alpha.as_integer_ratio(), beta.as_integer_ratio()
        d = math.lcm(da, db)
        a, b = a * (d // da), b * (d // db)
        out = [self.nums[-1]]
        power = 1  # d**(n-1-k) for the coefficient k added next
        for c in reversed(self.nums[:-1]):
            power *= d
            out = [a * hi + b * lo for hi, lo in zip(out + [0], [0] + out)]
            out[0] += c * power
        return RationalPolynomial.over(out, self.den * power)

    def eval(self, x: int | Fraction) -> Fraction:
        """Exact value p(x): the constant p(x + 0 * t)."""
        return self.compose_affine(x, 0).coeff(0)

    def integral(self) -> Fraction:
        """Exact integral over [0, 1]: sum c_k / (k + 1)."""
        return inner_product(0, self, RationalPolynomial.one())


def _convolve(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Coefficients of the product of two integer coefficient lists (all
    zero when either is empty)."""
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
    return work.divide_exponents(m).scale(Fraction(1, math.factorial(n)))


def inner_product(
    m: int, p: RationalPolynomial, q: RationalPolynomial
) -> Fraction:
    """Exact weighted inner product  int_0^1 x**m p(x) q(x) dx.

    For the Rodrigues family this returns delta_ij / (m + 2n + 1).
    """
    return Fraction(*inner_product_ratio(m, p, q))


def inner_product_ratio(
    m: int, p: RationalPolynomial, q: RationalPolynomial
) -> tuple[int, int]:
    """``inner_product(m, p, q)`` as an integer numerator over a positive
    denominator, not reduced.

    With p = sum a_i x**i / D_p and q = sum b_j x**j / D_q, it is
    sum a_i b_j (L / (i + j + m + 1)) / (L D_p D_q), where
    L = lcm(m + 1, ..., m + deg p + deg q + 1).
    """
    if m < 0:
        raise ValueError("weight exponent m must be >= 0")
    prod = _convolve(p.nums, q.nums)
    big_l = math.lcm(*range(m + 1, m + len(prod) + 1))
    total = sum(c * (big_l // (k + m + 1)) for k, c in enumerate(prod))
    return total, big_l * p.den * q.den


def monomial_integrals(p: RationalPolynomial, count: int) -> tuple[list[int], int]:
    """int_0^1 x**k p(x) dx for k = 0..count-1, as integer numerators over
    one positive denominator, not reduced.

    With p = sum a_i x**i / D, it is sum a_i (L / (i + k + 1)) / (L D),
    where L = lcm(1, ..., deg p + count).
    """
    big_l = math.lcm(*range(1, len(p.nums) + count))
    nums = [
        sum(a * (big_l // (i + k + 1)) for i, a in enumerate(p.nums))
        for k in range(count)
    ]
    return nums, big_l * p.den


def monomial_to_basis_matrix(
    m: int, big_k: int
) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficient matrix of the Rodrigues family in the monomial basis.

    Row l holds the monomial coefficients of R(m, l), zero-padded to length
    big_k + 1.  Lower triangular with nonzero diagonal, hence invertible.
    """
    if big_k < 0:
        raise ValueError("big_k must be >= 0")
    polys = [rodrigues_poly(m, l) for l in range(big_k + 1)]
    return tuple(tuple(p.coeff(k) for k in range(big_k + 1)) for p in polys)


def poly_weighted(m: int, n: int) -> RationalPolynomial:
    """The weighted polynomial x**m * R(m, n), of degree exactly m + n."""
    return rodrigues_poly(m, n).shift_exponents(m)
