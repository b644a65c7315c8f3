"""Exact-algebra tests for the weighted orthogonal polynomial family."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from delaymargin.inequalities import (
    FunctionalSpec,
    PolynomialVectorFunction,
    functional_value,
    moments,
)
from delaymargin.polynomials import (
    RationalPolynomial,
    inner_product,
    inner_product_ratio,
    monomial_integrals,
    monomial_to_basis_matrix,
    poly_weighted,
    rodrigues_poly,
)
from delaymargin.projection import legendre_moments
from delaymargin.verification import _random_case
from oracles import (
    endpoint_values_naive,
    functional_value_naive,
    moments_naive,
    poly_add,
    poly_compose_affine,
    poly_derivative,
    poly_eval,
    poly_inner_product,
    poly_integral,
    poly_mul,
    poly_scale,
)

F = Fraction


def sympy_rodrigues(m: int, n: int) -> list[Fraction]:
    """Independent oracle: expand the Rodrigues formula with sympy.

    Returns exact coefficients [c_0, ..., c_n] of the degree-n polynomial.
    """
    x = sp.symbols("x")
    if n == 0:
        return [F(1)]
    expr = sp.expand(sp.diff(x**m * (x**2 - x) ** n, x, n) / (sp.factorial(n) * x**m))
    poly = sp.Poly(sp.cancel(expr), x)
    coeffs = [F(0)] * (n + 1)
    for (k,), c in poly.terms():
        coeffs[k] = F(sp.Rational(c).p, sp.Rational(c).q)
    return coeffs


@pytest.mark.parametrize("m", range(9))
@pytest.mark.parametrize("n", range(9))
def test_matches_independent_rodrigues_oracle(m, n):
    got = rodrigues_poly(m, n)
    expected = sympy_rodrigues(m, n)
    assert [got.coeff(k) for k in range(n + 1)] == expected


def test_frozen_low_order_values():
    # Frozen from the sympy oracle above.
    assert rodrigues_poly(3, 0).coeffs == (F(1),)
    assert rodrigues_poly(0, 1).coeffs == (F(-1), F(2))
    assert rodrigues_poly(0, 2).coeffs == (F(1), F(-6), F(6))
    assert rodrigues_poly(2, 1).coeffs == (F(-3), F(4))
    assert rodrigues_poly(1, 2).coeffs == (F(3), F(-12), F(10))


@pytest.mark.parametrize("m", range(7))
def test_orthogonality_exact(m):
    polys = [rodrigues_poly(m, n) for n in range(9)]
    for i in range(9):
        for j in range(i + 1, 9):
            assert inner_product(m, polys[i], polys[j]) == 0


@pytest.mark.parametrize("m", range(7))
@pytest.mark.parametrize("n", range(9))
def test_norm_identity_exact(m, n):
    p = rodrigues_poly(m, n)
    assert inner_product(m, p, p) == F(1, m + 2 * n + 1)


def test_inner_product_basics():
    one = RationalPolynomial.one()
    assert inner_product(0, one, one) == 1
    assert inner_product(2, one, one) == F(1, 3)


@pytest.mark.parametrize("m", range(7))
@pytest.mark.parametrize("n", range(9))
def test_endpoint_values(m, n):
    p = rodrigues_poly(m, n)
    assert p.eval(1) == 1
    # Left endpoint: the binomial form, (-1)^n C(m+n, n).  The alternative
    # printed form (m+n)/n is undefined at n = 0 and wrong for n >= 2, m >= 1.
    binom = Fraction(
        sp.binomial(m + n, n).p  # type: ignore[attr-defined]
    )
    assert p.eval(0) == (-1) ** n * binom


def test_endpoint_frozen_examples():
    assert rodrigues_poly(0, 1).eval(0) == -1
    assert rodrigues_poly(2, 1).eval(0) == -3  # frozen via the oracle


@pytest.mark.parametrize("m", range(7))
@pytest.mark.parametrize("n", range(9))
def test_degree_and_leading_coefficient(m, n):
    p = rodrigues_poly(m, n)
    assert p.degree == n
    assert p.coeff(n) != 0


def test_monomial_to_basis_matrix_examples():
    assert monomial_to_basis_matrix(0, 1) == ((F(1), F(0)), (F(-1), F(2)))
    assert monomial_to_basis_matrix(5, 0) == ((F(1),),)
    assert monomial_to_basis_matrix(0, 2)[2] == (F(1), F(-6), F(6))


@pytest.mark.parametrize("m", [0, 1, 3])
@pytest.mark.parametrize("big_k", [0, 2, 5])
def test_basis_matrix_reproduces_rodrigues_rows(m, big_k):
    mat = monomial_to_basis_matrix(m, big_k)
    assert len(mat) == big_k + 1
    for l, row in enumerate(mat):
        p = rodrigues_poly(m, l)
        assert row == tuple(p.coeff(k) for k in range(big_k + 1))
        # lower triangular with nonzero diagonal
        assert all(c == 0 for c in row[l + 1 :])
        assert row[l] != 0


def test_polynomial_arithmetic_roundtrip():
    p = RationalPolynomial.from_coeffs((F(1, 2), F(-3), 0, F(7, 5)))
    q = RationalPolynomial.from_coeffs((2, 1))
    assert (p * q).eval(F(1, 3)) == p.eval(F(1, 3)) * q.eval(F(1, 3))
    assert (p + q).eval(F(-2)) == p.eval(F(-2)) + q.eval(F(-2))
    assert p.derivative().coeffs == (F(-3), F(0), F(21, 5))
    assert p.compose_affine(F(1), F(2)).eval(F(3)) == p.eval(F(7))


def test_divide_exponents_rejects_inexact():
    p = RationalPolynomial.from_coeffs((1, 2))
    with pytest.raises(ValueError):
        p.divide_exponents(1)


def test_divide_exponents_rejects_a_negative_power():
    p = RationalPolynomial.from_coeffs([0, 0, 0, 1])
    with pytest.raises(ValueError, match="m >= 0"):
        p.divide_exponents(-1)
    assert p.divide_exponents(3) == RationalPolynomial.one()


# ---------------------------------------------------------------------------
# The integer-numerator kernels against one-Fraction-at-a-time oracles.
# ---------------------------------------------------------------------------

_KERNEL_CASES = 600


def _random_poly(rng: np.random.Generator) -> RationalPolynomial:
    """Degree -1 (zero) to 10, some zero coefficients, mixed denominators."""
    degree = int(rng.integers(-1, 11))
    return RationalPolynomial.from_coeffs(
        F(int(rng.integers(-9, 10)) * int(rng.random() < 0.85), int(rng.integers(1, 13)))
        for _ in range(degree + 1)
    )


def _kernel_polys():
    """The zero polynomial and two constants, then seeded random ones."""
    rng = np.random.default_rng(20260)
    fixed = [RationalPolynomial.zero(), RationalPolynomial.one(), RationalPolynomial.from_coeffs((F(-3, 7),))]
    return fixed + [_random_poly(rng) for _ in range(_KERNEL_CASES)]


def _fraction(rng: np.random.Generator) -> Fraction:
    return F(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))


def test_product_and_integral_match_the_fraction_oracles():
    polys = _kernel_polys()
    for p, q in zip(polys, polys[1:] + polys[:1]):
        assert p * q == poly_mul(p, q)
        assert p.integral() == poly_integral(p)


def test_compose_affine_matches_the_fraction_oracle():
    rng = np.random.default_rng(20261)
    for k, p in enumerate(_kernel_polys()):
        # negative and fractional alpha, fractional beta; beta = 0 every 50th
        alpha, beta = _fraction(rng), _fraction(rng) if k % 50 else F(0)
        assert p.compose_affine(alpha, beta) == poly_compose_affine(p, alpha, beta)


def test_inner_product_matches_the_fraction_oracle():
    polys = _kernel_polys()
    for k, (p, q) in enumerate(zip(polys, polys[2:] + polys[:2])):
        m = k % 7
        assert inner_product(m, p, q) == poly_inner_product(m, p, q)


def test_monomial_integrals_match_the_fraction_oracle():
    one = RationalPolynomial.one()
    for k, p in enumerate(_kernel_polys()):
        count = k % 7 + 1
        nums, den = monomial_integrals(p, count)
        assert den > 0 and len(nums) == count
        assert [F(n, den) for n in nums] == [poly_inner_product(j, p, one) for j in range(count)]


def test_legendre_moments_match_the_fraction_oracle():
    # M = 0 gives no moments: the M = 0 derivative map and bound need that
    for p in _kernel_polys():
        want = [poly_inner_product(0, rodrigues_poly(0, l), p) for l in range(8)]
        for big_m in range(9):
            nums, den = legendre_moments(p, big_m)
            assert den > 0
            assert [F(n, den) for n in nums] == want[:big_m]


def test_legendre_coordinates_by_orthogonality():
    # coordinate l of p in the basis R(0, l) is (2l+1) times its moment l
    p = poly_weighted(1, 0)  # x
    nums, den = legendre_moments(p, 2)
    coords = [(2 * l + 1) * F(n, den) for l, n in enumerate(nums)]
    assert coords == [F(1, 2), F(1, 2)]
    recon = RationalPolynomial.zero()
    for l, c in enumerate(coords):
        recon = recon + rodrigues_poly(0, l).scale(c)
    assert recon == p


def test_derivative_unit_components_are_the_composed_derivatives():
    # negative and fractional left ends, fractional widths
    rng = np.random.default_rng(20265)
    polys = _kernel_polys()
    for k in range(0, len(polys), 3):
        a = _fraction(rng) - F(1, 3)
        width = abs(_fraction(rng)) + F(2, 7)
        df = PolynomialVectorFunction(polys[k : k + 3], a, a + width).derivative()
        for got, c in zip(df._unit, polys[k : k + 3], strict=True):
            want = c.derivative().compose_affine(a, width)
            assert (got.nums, got.den) == (want.nums, want.den)


def test_moments_and_functional_value_match_the_naive_kernels():
    # the battery's own random cases, so the floats are the ones `verify` checks
    rng = np.random.default_rng(20262)
    for _ in range(60):
        f, weight, m, big_m, a, b = _random_case(rng)
        spec = FunctionalSpec(weight, m, a, b)
        assert np.array_equal(moments(f, big_m), moments_naive(f, big_m))
        assert functional_value(spec, f) == functional_value_naive(spec, f)
        df = f.derivative()
        assert functional_value(spec, df) == functional_value_naive(spec, df)


# ---------------------------------------------------------------------------
# The canonical stored form, and every kernel against its Fraction oracle.
# ---------------------------------------------------------------------------


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def test_stored_form_is_canonical():
    # a trailing zero, a reducible fraction or a scaled denominator do not
    # change what is stored, so equal rationals compare and hash equal
    padded = RationalPolynomial((F(1), F(0)))
    assert padded == RationalPolynomial.from_coeffs([1]) == RationalPolynomial.one()
    assert hash(padded) == hash(RationalPolynomial.one())
    p = RationalPolynomial((F(2, 4), F(-1, 3), 0))
    assert (p.nums, p.den) == ((3, -2), 6)
    assert p == RationalPolynomial.over([6, -4, 0], 12) == RationalPolynomial.over([-3, 2], -6)
    zero = RationalPolynomial((0, F(0, 5)))
    assert (zero.nums, zero.den) == ((), 1) and zero == RationalPolynomial.over([0], 9)
    for q in _kernel_polys():
        assert q.den > 0 and math.gcd(q.den, *q.nums) == 1
        assert not q.nums or q.nums[-1] != 0
        assert q.coeffs == tuple(F(n, q.den) for n in q.nums)
        same = RationalPolynomial.over([7 * n for n in q.nums] + [0, 0], 7 * q.den)
        assert same == q and hash(same) == hash(q)
        assert RationalPolynomial(q.coeffs) == q


def test_every_kernel_matches_its_fraction_oracle():
    rng = np.random.default_rng(20263)
    polys = _kernel_polys()
    for k, (p, q) in enumerate(zip(polys, polys[3:] + polys[:3])):
        c, x = _fraction(rng), _fraction(rng)
        assert p + q == poly_add(p, q)
        assert p - q == poly_add(p, q, -1)
        assert p * q == poly_mul(p, q)
        assert p.scale(c) == poly_scale(p, c)
        assert p.scale(k % 3 - 1) == poly_scale(p, F(k % 3 - 1))
        assert p.derivative() == poly_derivative(p)
        assert p.eval(x) == poly_eval(p, x)
        assert p.compose_affine(x, c) == poly_compose_affine(p, x, c)
        m = k % 7
        num, den = inner_product_ratio(m, p, q)
        exact = poly_inner_product(m, p, q)
        assert den > 0 and F(num, den) == inner_product(m, p, q) == exact
        assert _bits(num / den) == _bits(float(exact))


def test_moment_functional_and_endpoint_floats_are_the_oracles_bitwise():
    # rational endpoints a < b, so each component is composed with a
    # rational alpha and beta before it is integrated
    rng = np.random.default_rng(20264)
    polys = _kernel_polys()
    for k in range(0, len(polys) - 2, 3):
        a = _fraction(rng)
        b = a + abs(_fraction(rng)) + F(1, 5)
        f = PolynomialVectorFunction(polys[k : k + 3], a, b)
        g = rng.normal(size=(3, 3))
        spec = FunctionalSpec(g @ g.T + 3 * np.eye(3), k % 4, float(a), float(b))
        big_m = k % 5 + 1
        assert moments(f, big_m).tobytes() == moments_naive(f, big_m).tobytes()
        assert _bits(functional_value(spec, f)) == _bits(functional_value_naive(spec, f))
        for got, want in zip(f.endpoint_values(), endpoint_values_naive(f)):
            assert got.tobytes() == want.tobytes()
