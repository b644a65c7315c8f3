"""Certification tests for the weighted functionals and projection bounds."""

from fractions import Fraction

import numpy as np
import pytest

from delaymargin.inequalities import (
    FunctionalSpec,
    PolynomialVectorFunction,
    competitor_statistics,
    functional_value,
    competitor_bound,
    lower_bound_derivative,
    lower_bound_values,
    moments,
)
from delaymargin.polynomials import RationalPolynomial, rodrigues_poly
from oracles import eval_float, functional_value_nested, gauss_rule

F = Fraction


def poly_on_interval(p: RationalPolynomial, a: Fraction, b: Fraction):
    """p((s - a)/(b - a)) as an exact polynomial in s."""
    width = b - a
    return p.compose_affine(F(-a, 1) / width, F(1, 1) / width)


def random_pd_matrix(rng, n):
    m = rng.normal(size=(n, n))
    return m @ m.T + n * np.eye(n)


def random_poly_function(rng, dim, degree, a, b):
    comps = [
        RationalPolynomial.from_coeffs(
            [F(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for _ in range(degree + 1)]
        )
        for _ in range(dim)
    ]
    return PolynomialVectorFunction(comps, a, b)


# ---------------------------------------------------------------------------
# Functional values and moments.
# ---------------------------------------------------------------------------


def test_functional_value_constants():
    one = PolynomialVectorFunction([RationalPolynomial.one()], 0, 1)
    spec0 = FunctionalSpec(np.eye(1), 0, 0.0, 1.0)
    spec2 = FunctionalSpec(np.eye(1), 2, 0.0, 1.0)
    assert functional_value(spec0, one) == pytest.approx(1.0, abs=1e-14)
    assert functional_value(spec2, one) == pytest.approx(1 / 3, abs=1e-14)


def test_functional_value_norm_of_second_legendre():
    f = PolynomialVectorFunction([rodrigues_poly(0, 2)], 0, 1)
    spec = FunctionalSpec(np.eye(1), 0, 0.0, 1.0)
    assert functional_value(spec, f) == pytest.approx(1 / 5, abs=1e-14)


def test_moments_of_constant():
    c = PolynomialVectorFunction(
        [RationalPolynomial.from_coeffs((3,)), RationalPolynomial.from_coeffs((-2,))],
        -1,
        4,
    )
    phi = moments(c, 4)
    assert np.allclose(phi[0], [15.0, -10.0], atol=1e-12)
    assert np.allclose(phi[1:], 0.0, atol=1e-12)


def test_moment_of_first_legendre_is_its_norm():
    a, b = F(1), F(3)
    p = poly_on_interval(rodrigues_poly(0, 1), a, b)
    f = PolynomialVectorFunction([p], a, b)
    phi = moments(f, 3)
    assert phi[1, 0] == pytest.approx((3 - 1) / 3, abs=1e-12)
    assert phi[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert phi[2, 0] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Lower bounds: structure, soundness, sharpness.
# ---------------------------------------------------------------------------


def test_jensen_special_case():
    rng = np.random.default_rng(3)
    f = random_poly_function(rng, dim=1, degree=3, a=F(0), b=F(1))
    spec = FunctionalSpec(np.eye(1), 0, 0.0, 1.0)
    phi = moments(f, 2)
    bound = lower_bound_values(spec, phi, nu=0)
    assert bound == pytest.approx(float(phi[0, 0] ** 2), rel=1e-12)
    assert bound <= functional_value(spec, f) + 1e-12


def test_derivative_jensen_special_case():
    rng = np.random.default_rng(4)
    a, b = F(-1), F(2)
    f = random_poly_function(rng, dim=1, degree=4, a=a, b=b)
    spec = FunctionalSpec(np.eye(1), 0, -1.0, 2.0)
    f_a, f_b = f.endpoint_values()
    # M = 0: the boundary values alone, as an empty moment array
    bound = lower_bound_derivative(spec, f_a, f_b, np.empty((0, 1)), nu=0)
    assert bound == pytest.approx(float((f_b[0] - f_a[0]) ** 2) / 3.0, rel=1e-12)
    with pytest.raises(ValueError, match="shape"):
        lower_bound_derivative(spec, f_a, f_b, None, nu=0)


def test_equality_on_span():
    rng = np.random.default_rng(5)
    a, b = F(0), F(2)
    for m in range(3):
        for j in range(3):
            comp = poly_on_interval(rodrigues_poly(m, j), a, b)
            f = PolynomialVectorFunction([comp], a, b)
            spec = FunctionalSpec(np.eye(1), m, 0.0, 2.0)
            big_m = m + j + 1
            nu = j
            phi = moments(f, big_m)
            bound = lower_bound_values(spec, phi, nu)
            value = functional_value(spec, f)
            assert bound == pytest.approx(value, rel=1e-11)
            assert value == pytest.approx(2.0 / (m + 2 * j + 1), rel=1e-12)
    del rng


def test_derivative_equality_for_linear_functions():
    a, b = F(0), F(3)
    f = PolynomialVectorFunction(
        [RationalPolynomial.from_coeffs((1, 2)), RationalPolynomial.from_coeffs((-4, 5))],
        a,
        b,
    )
    w = np.array([[2.0, 0.5], [0.5, 1.0]])
    for m in (0, 1, 2):
        spec = FunctionalSpec(w, m, 0.0, 3.0)
        big_m = m + 2
        f_a, f_b = f.endpoint_values()
        phi = moments(f, big_m)
        bound = lower_bound_derivative(spec, f_a, f_b, phi, nu=1)
        value = functional_value(spec, f.derivative())
        assert bound == pytest.approx(value, rel=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_soundness_randomized(seed):
    rng = np.random.default_rng(1000 + seed)
    a = F(int(rng.integers(-2, 1)))
    b = a + F(int(rng.integers(1, 4)))
    dim = int(rng.integers(1, 4))
    w = random_pd_matrix(rng, dim)
    f = random_poly_function(rng, dim, degree=int(rng.integers(0, 7)), a=a, b=b)
    for m in range(4):
        big_m = int(rng.integers(m + 1, 7))
        spec = FunctionalSpec(w, m, float(a), float(b))
        value = functional_value(spec, f)
        scale = max(1.0, abs(value))
        phi = moments(f, big_m)
        for nu in range(big_m - m):
            bound = lower_bound_values(spec, phi, nu)
            assert bound <= value + 1e-8 * scale
        dvalue = functional_value(spec, f.derivative())
        dscale = max(1.0, abs(dvalue))
        f_a, f_b = f.endpoint_values()
        for nu in range(big_m - m + 1):
            dbound = lower_bound_derivative(spec, f_a, f_b, phi, nu)
            assert dbound <= dvalue + 1e-8 * dscale


def test_soundness_trig_mixture():
    # a non-polynomial f: J(f) and the moments come from the oracle's
    # Gauss-Legendre rule, which is exact to rounding for this smooth f
    a, b = -0.5, 1.5
    s, wq = gauss_rule(a, b, 40)
    vals = np.stack([np.sin(1.3 * s) + 0.2, 0.5 * np.cos(2.1 * s)], axis=1)
    x = (s - a) / (b - a)
    w = np.array([[1.5, -0.3], [-0.3, 0.8]])
    quad = np.einsum("ki,ij,kj->k", vals, w, vals)
    legendre = np.array(
        [[eval_float(rodrigues_poly(0, l), t) for t in x] for l in range(5)]
    )
    phi = (legendre * wq) @ vals
    for m in (0, 1, 2):
        spec = FunctionalSpec(w, m, a, b)
        value = float(np.dot(wq, x**m * quad))
        for nu in range(5 - m):
            bound = lower_bound_values(spec, phi, nu)
            assert bound <= value + 1e-8 * max(1.0, value)


def test_monotonicity_in_nu():
    rng = np.random.default_rng(11)
    a, b = F(-1), F(1)
    f = random_poly_function(rng, dim=2, degree=5, a=a, b=b)
    w = random_pd_matrix(rng, 2)
    for m in (0, 1):
        spec = FunctionalSpec(w, m, -1.0, 1.0)
        phi = moments(f, 6)
        bounds = [lower_bound_values(spec, phi, nu) for nu in range(6 - m)]
        diffs = np.diff(bounds)
        assert np.all(diffs >= -1e-12)


def test_bound_dimension_mismatch():
    spec = FunctionalSpec(np.eye(2), 1, 0.0, 1.0)
    with pytest.raises(ValueError):
        lower_bound_values(spec, np.zeros((3, 1)), nu=0)
    with pytest.raises(ValueError):
        lower_bound_values(spec, np.zeros(2), nu=0)  # moments must be 2-D
    with pytest.raises(ValueError):
        lower_bound_derivative(spec, np.zeros(2), np.zeros(3), np.zeros((3, 2)), 0)
    with pytest.raises(ValueError):
        lower_bound_derivative(spec, np.zeros(2), np.zeros(2), np.zeros((3, 1)), 0)


# ---------------------------------------------------------------------------
# Comparison with the competing first-order bound.
# ---------------------------------------------------------------------------


def test_competitor_coincides_at_order_zero():
    rng = np.random.default_rng(21)
    a, b = F(0), F(2)
    f = random_poly_function(rng, dim=2, degree=3, a=a, b=b)
    w = random_pd_matrix(rng, 2)
    spec = FunctionalSpec(w, 0, 0.0, 2.0)
    phi = moments(f, 2)
    ours = lower_bound_values(spec, phi, nu=1)
    g0, ups0 = competitor_statistics(spec, phi)
    theirs = competitor_bound(spec, g0, ups0)
    assert theirs == pytest.approx(ours, rel=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_projection_bound_dominates_competitor(seed):
    rng = np.random.default_rng(3000 + seed)
    a = F(int(rng.integers(-1, 1)))
    b = a + F(int(rng.integers(1, 3)))
    dim = int(rng.integers(1, 3))
    w = random_pd_matrix(rng, dim)
    f = random_poly_function(rng, dim, degree=int(rng.integers(1, 6)), a=a, b=b)
    for l in (1, 2, 3):
        spec = FunctionalSpec(w, l, float(a), float(b))
        phi = moments(f, l + 2)
        ours = lower_bound_values(spec, phi, nu=1)
        g_l, ups_l = competitor_statistics(spec, phi)
        theirs = competitor_bound(spec, g_l, ups_l)
        value = functional_value(spec, f)
        assert ours >= theirs - 1e-10 * max(1.0, abs(ours))
        assert theirs <= value + 1e-8 * max(1.0, abs(value))


def test_competitor_strict_gap_at_order_two():
    a, b = F(0), F(1)
    comp = poly_on_interval(rodrigues_poly(2, 1), a, b)
    f = PolynomialVectorFunction([comp], a, b)
    spec = FunctionalSpec(np.eye(1), 2, 0.0, 1.0)
    phi = moments(f, 4)
    ours = lower_bound_values(spec, phi, nu=1)
    g2, ups2 = competitor_statistics(spec, phi)
    theirs = competitor_bound(spec, g2, ups2)
    # second statistic is nonzero here, so the factor 9-vs-1 gap is strict
    assert float(ups2 @ ups2) > 1e-12
    assert ours > theirs + 1e-6


# ---------------------------------------------------------------------------
# Repeated-integral equivalence (independent oracle for the weighted form).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_nested_integral_equivalence(m):
    rng = np.random.default_rng(40 + m)
    a, b = F(0), F(2)
    f = random_poly_function(rng, dim=2, degree=3, a=a, b=b)
    w = random_pd_matrix(rng, 2)
    spec = FunctionalSpec(w, m, 0.0, 2.0)
    assert functional_value_nested(spec, f) == pytest.approx(
        functional_value(spec, f), rel=1e-8
    )


def test_functional_spec_validation():
    with pytest.raises(ValueError):
        FunctionalSpec(np.array([[1.0, 2.0], [0.0, 1.0]]), 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        FunctionalSpec(-np.eye(2), 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        FunctionalSpec(np.eye(2), 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        FunctionalSpec(np.eye(2), -1, 0.0, 1.0)
    # symmetry is absolute up to 1e-12 of the largest entry, not np.allclose's rtol
    with pytest.raises(ValueError, match="symmetric"):
        FunctionalSpec(np.array([[1.0, 0.5], [0.500004, 1.0]]), 0, 0.0, 1.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            FunctionalSpec(np.array([[bad]]), 0, 0.0, 1.0)
    # an infinite end would make every bound and the competitor vacuous (0.0)
    for a, b in ((0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf)):
        with pytest.raises(ValueError, match="interval ends must be finite"):
            FunctionalSpec(np.eye(1), 0, a, b)
    big = 1e6 * np.array([[2.0, 1.0], [1.0 + 1e-13, 2.0]])
    FunctionalSpec(big, 0, 0.0, 1.0)


def test_functional_spec_rejects_an_empty_weight():
    with pytest.raises(ValueError, match="nonempty"):
        FunctionalSpec(np.zeros((0, 0)), 0, 0.0, 1.0)


def test_spec_and_function_intervals_must_agree():
    f = PolynomialVectorFunction([RationalPolynomial.one()], 0, 1)
    spec = FunctionalSpec(np.eye(1), 1, 0.0, 2.0)
    with pytest.raises(ValueError, match="interval"):
        functional_value(spec, f)


def test_competitor_statistics_reject_short_or_misshaped_moments():
    # at l = 1 the two weighted moments need M >= l + 2 = 3 Legendre moments
    f = PolynomialVectorFunction([RationalPolynomial.one()] * 2, 0, 1)
    spec = FunctionalSpec(np.eye(2), 1, 0.0, 1.0)
    competitor_statistics(spec, moments(f, 3))
    with pytest.raises(ValueError, match="nu <="):
        competitor_statistics(spec, moments(f, 2))
    with pytest.raises(ValueError, match="shape"):
        competitor_statistics(spec, moments(f, 3)[:, :1])
    with pytest.raises(ValueError, match="shape"):
        competitor_statistics(spec, moments(f, 3).reshape(-1))


def test_function_and_weight_dimensions_must_agree():
    # one component against a 3x3 weight used to return sum(W) * int f^2
    one = PolynomialVectorFunction([RationalPolynomial.from_coeffs([1, 2])], 0, 1)
    two = PolynomialVectorFunction([RationalPolynomial.one()] * 2, 0, 1)
    spec = FunctionalSpec(np.eye(3), 0, 0.0, 1.0)
    for f in (one, two):
        with pytest.raises(ValueError, match=f"{f.dim} components.*3x3"):
            functional_value(spec, f)
    assert functional_value(FunctionalSpec(np.eye(1), 0, 0.0, 1.0), one) == 13 / 3


def test_vector_function_needs_a_component():
    with pytest.raises(ValueError, match="at least one component"):
        PolynomialVectorFunction([], 0, 1)
