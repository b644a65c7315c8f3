"""Exactness and reconstruction tests for the moment projection matrices."""

import math
from fractions import Fraction

import numpy as np
import pytest

from delaymargin import projection
from delaymargin.polynomials import (
    RationalPolynomial,
    monomial_to_basis_matrix,
    poly_weighted,
    rodrigues_poly,
)
from delaymargin.projection import (
    ProjectionMap,
    crosscheck_closed_forms,
    derivative_moment_map,
    legendre_derivative_map,
    legendre_table,
    max_derivative_order,
    max_weighted_order,
    projection_form,
    weighted_moment_map,
)
from delaymargin.lmi import _svec_basis
from oracles import _weighted_congruence

F = Fraction


def reconstruct(coords, num_terms):
    out = RationalPolynomial.zero()
    for l in range(num_terms):
        out = out + rodrigues_poly(0, l).scale(coords[l])
    return out


def valid_weighted_params(max_m=4, max_nu=4, max_big_m=8):
    for m in range(max_m + 1):
        for nu in range(max_nu + 1):
            for big_m in range(1, max_big_m + 1):
                if m + nu <= big_m - 1:
                    yield m, nu, big_m


def test_identity_at_weight_zero():
    for big_m in (1, 3, 6):
        xi = weighted_moment_map(0, big_m - 1, big_m)
        expected = tuple(
            tuple(F(1) if i == j else F(0) for j in range(big_m))
            for i in range(big_m)
        )
        assert xi.entries == expected


def test_single_row_example():
    xi = weighted_moment_map(1, 0, 2)
    assert xi.entries == ((F(1, 2), F(1, 2)),)


@pytest.mark.parametrize("m,nu,big_m", list(valid_weighted_params()))
def test_weighted_rows_reconstruct_exactly(m, nu, big_m):
    xi = weighted_moment_map(m, nu, big_m)
    for j in range(nu + 1):
        row = xi.entries[j]
        assert reconstruct(row, big_m) == poly_weighted(m, j)
        # zero fill beyond degree m + j
        assert all(row[l] == 0 for l in range(m + j + 1, big_m))


def test_weighted_map_rejects_bad_params():
    with pytest.raises(ValueError):
        weighted_moment_map(2, 3, 5)  # m + nu = 5 > M - 1 = 4
    with pytest.raises(ValueError):
        weighted_moment_map(-1, 0, 3)


def test_derivative_rows_examples():
    z = derivative_moment_map(0, 1, 3)
    assert z.entries[0] == (F(1), F(-1), F(0), F(0), F(0))
    assert z.entries[1] == (F(1), F(1), F(-2), F(0), F(0))
    z1 = derivative_moment_map(1, 0, 2)
    assert z1.entries[0] == (F(1), F(0), F(-1), F(0))


def test_derivative_map_minimal_case():
    z = derivative_moment_map(0, 0, 0)
    assert z.entries == ((F(1), F(-1)),)


@pytest.mark.parametrize(
    "m,nu,big_m",
    [
        (m, nu, big_m)
        for m in range(5)
        for nu in range(5)
        for big_m in range(1, 9)
        if m + nu <= big_m
    ],
)
def test_derivative_rows_reconstruct_exactly(m, nu, big_m):
    z = derivative_moment_map(m, nu, big_m)
    for j in range(nu + 1):
        row = z.entries[j]
        q = poly_weighted(m, j)
        assert row[0] == q.eval(1) == 1
        assert row[1] == -q.eval(0)
        zeta = tuple(-c for c in row[2:])
        assert reconstruct(zeta, big_m) == q.derivative()
        # zero fill at and beyond column m + j
        assert all(zeta[l] == 0 for l in range(m + j, big_m))


def test_derivative_map_rejects_bad_params():
    with pytest.raises(ValueError):
        derivative_moment_map(2, 2, 3)  # m + nu = 4 > M = 3


def test_largest_orders_agree_with_the_maps():
    # the largest order builds and one more raises; a depth with no
    # admissible order (largest < 0) rejects even nu = 0
    for m in range(5):
        for big_m in range(7):
            for largest, moment_map in (
                (max_weighted_order(m, big_m), weighted_moment_map),
                (max_derivative_order(m, big_m), derivative_moment_map),
            ):
                if largest >= 0:
                    assert len(moment_map(m, largest, big_m).entries) == largest + 1
                with pytest.raises(ValueError):
                    moment_map(m, max(largest, -1) + 1, big_m)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_projection_form_matches_the_oracle_congruence(n):
    # every admissible (m, nu, M <= 6) of both maps, random PD weights
    rng = np.random.default_rng(20 + n)
    checked = 0
    for big_m in range(7):
        for m in range(7):
            for largest, moment_map in (
                (max_weighted_order(m, big_m), weighted_moment_map),
                (max_derivative_order(m, big_m), derivative_moment_map),
            ):
                for nu in range(largest + 1):
                    g = rng.normal(size=(n, n))
                    weight = g @ g.T + n * np.eye(n)
                    proj = moment_map(m, nu, big_m)
                    got = projection_form(proj, m, weight)
                    want = _weighted_congruence(proj.as_array(), m, weight)
                    assert got.shape == want.shape
                    scale = max(1.0, float(np.abs(want).max()))
                    assert np.abs(got - want).max() <= 1e-12 * scale
                    checked += 1
    assert checked == 140


def _moment_maps(m, big_m):
    """Every admissible map of both families at depth m and order M."""
    for largest, moment_map in (
        (max_weighted_order(m, big_m), weighted_moment_map),
        (max_derivative_order(m, big_m), derivative_moment_map),
    ):
        for nu in range(largest + 1):
            yield moment_map(m, nu, big_m)


def _bitwise(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _float_maps():
    # random maps (one row and one column included); a map of float
    # entries holds them exactly
    rng = np.random.default_rng(31)
    for rows, cols in [(1, 1), (1, 4), (3, 1), (2, 5), (4, 6), (5, 3)]:
        yield ProjectionMap(rng.normal(size=(rows, cols)))


def test_gram_is_the_correctly_rounded_exact_gram():
    # float(Fraction) of sum_j (m+2j+1) P[j][a] P[j][b], from the entries
    def exact(pmap, m):
        entries = pmap.entries
        cols = range(len(entries[0]))
        return np.array([
            [float(sum((m + 2 * j + 1) * row[a] * row[b] for j, row in enumerate(entries)))
             for b in cols]
            for a in cols
        ])

    checked = 0
    for m in range(7):
        for big_m in range(11):
            for pmap in _moment_maps(m, big_m):
                assert _bitwise(pmap.gram(m), exact(pmap, m))
                checked += 1
    assert checked == 476
    for pmap in _float_maps():
        for m in range(4):
            assert _bitwise(pmap.gram(m), exact(pmap, m))


def test_projection_form_is_bitwise_the_kron_form():
    # np.kron of the Gram and a random signed weight; a stack of weights
    # (the svec basis `lmi` compiles) gives bitwise the per-matrix forms
    rng = np.random.default_rng(32)
    maps = [(pmap, m) for pmap in _float_maps() for m in range(4)]
    maps += [(pmap, m) for big_m in range(1, 5) for m in range(4) for pmap in _moment_maps(m, big_m)]
    for pmap, m in maps:
        for n in (1, 2, 3):
            g = rng.normal(size=(n, n))
            weight = g + g.T
            assert _bitwise(projection_form(pmap, m, weight), np.kron(pmap.gram(m), weight))
            basis = _svec_basis(n)
            stack = projection_form(pmap, m, basis)
            assert len(stack) == len(basis)
            for form, b in zip(stack, basis):
                assert _bitwise(form, projection_form(pmap, m, b))


def test_grams_and_the_legendre_table_are_made_once_and_read_only():
    for big_m in range(1, 7):
        table = legendre_table(big_m)
        assert table is legendre_table(big_m)
        assert table.entries == monomial_to_basis_matrix(0, big_m - 1)
        with pytest.raises(AttributeError):
            table.den = 2
        with pytest.raises(TypeError):
            table.nums[0] = (1,) * big_m
        with pytest.raises(ValueError):
            table.as_array()[0, 0] = 1.0
        for pmap in (weighted_moment_map(0, big_m - 1, big_m), legendre_derivative_map(big_m), table):
            for m in range(3):
                gram = pmap.gram(m)
                assert gram is pmap.gram(m)
                with pytest.raises(ValueError):
                    gram[0, 0] = 1.0


def test_legendre_derivative_map_examples():
    l1 = legendre_derivative_map(1)
    assert l1.entries == ((F(1), F(-1), F(0)),)
    l2 = legendre_derivative_map(2)
    assert l2.entries == (
        (F(1), F(-1), F(0), F(0)),
        (F(1), F(1), F(-2), F(0)),
    )
    l5 = legendre_derivative_map(5)
    assert [row[1] for row in l5.entries] == [F(-1), F(1), F(-1), F(1), F(-1)]
    assert l5.entries == derivative_moment_map(0, 4, 5).entries


# ---------------------------------------------------------------------------
# Float-level identities tying the maps to weighted moments on [a, b].
# ---------------------------------------------------------------------------


def random_poly_vector(rng, dim, degree):
    return [
        RationalPolynomial.from_coeffs(
            [F(int(rng.integers(-6, 7)), int(rng.integers(1, 4))) for _ in range(degree + 1)]
        )
        for _ in range(dim)
    ]


def legendre_moments(fs, a, b, big_m):
    """phi_l = int_a^b R(0,l)((s-a)/(b-a)) f(s) ds, exactly, as floats."""
    width = b - a
    out = np.empty((big_m, len(fs)))
    for l in range(big_m):
        basis = rodrigues_poly(0, l)
        for i, f in enumerate(fs):
            # substitute s = a + width * x and integrate over [0, 1]
            g = f.compose_affine(a, width)
            out[l, i] = float(width * (basis * g).integral())
    return out


def weighted_moment(f_vec, m, j, a, b):
    width = b - a
    p = rodrigues_poly(m, j)
    vals = []
    for f in f_vec:
        g = f.compose_affine(a, width)
        vals.append(float(width * (p * g).shift_exponents(m).integral()))
    return np.array(vals)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_moment_identity_on_intervals(seed):
    rng = np.random.default_rng(100 + seed)
    m, nu, big_m = [(1, 2, 4), (0, 3, 5), (2, 1, 6)][seed]
    a, b = [(F(-1), F(2)), (F(0), F(1)), (F(1, 2), F(7, 2))][seed]
    fs = random_poly_vector(rng, dim=2, degree=big_m - 1)
    phi = legendre_moments(fs, a, b, big_m)  # (M, n)
    xi = weighted_moment_map(m, nu, big_m).as_array()
    got = xi @ phi  # (nu+1, n)
    for j in range(nu + 1):
        want = weighted_moment(fs, m, j, a, b)
        assert np.allclose(got[j], want, atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_boundary_identity_for_derivatives(seed):
    rng = np.random.default_rng(200 + seed)
    m, nu, big_m = [(1, 2, 4), (0, 2, 4), (3, 1, 5)][seed]
    a, b = [(F(0), F(2)), (F(-1), F(1)), (F(1), F(3))][seed]
    width = b - a
    fs = random_poly_vector(rng, dim=2, degree=4)
    phi = legendre_moments(fs, a, b, big_m)
    f_b = np.array([float(f.eval(b)) for f in fs])
    f_a = np.array([float(f.eval(a)) for f in fs])
    stacked = np.vstack([f_b, f_a, phi / float(width)])  # (M+2, n)
    z = derivative_moment_map(m, nu, big_m).as_array()
    got = z @ stacked
    dfs = [f.derivative() for f in fs]
    for j in range(nu + 1):
        want = weighted_moment(dfs, m, j, a, b)
        assert np.allclose(got[j], want, atol=1e-10)


# ---------------------------------------------------------------------------
# Closed-form crosscheck diagnostics.
# ---------------------------------------------------------------------------


def test_crosscheck_agrees_after_corrections():
    for m, nu, big_m in [(0, 2, 3), (1, 1, 3), (2, 2, 5), (3, 0, 4)]:
        report = crosscheck_closed_forms(m, nu, big_m)
        assert report.clean, report.lines()
        assert any("coefficient matrix" in s for s in report.agreements)


def test_crosscheck_identity_case():
    report = crosscheck_closed_forms(0, 3, 4)
    assert report.clean
    assert any("weighted moment map" in s for s in report.agreements)
    assert any("boundary column of ones" in s for s in report.agreements)


def test_crosscheck_reports_skip_outside_tight_case():
    report = crosscheck_closed_forms(1, 1, 5)  # m + nu = 2 != M - 1 = 4
    assert any("skipped" in s for s in report.notes)
    assert report.clean


@pytest.mark.parametrize(
    "name, row, col, label",
    [
        ("weighted_moment_map", 0, 0, "weighted moment map x G0[0,0]"),
        ("derivative_moment_map", 1, 2, "derivative map coordinates x G0s[1,0]"),
    ],
)
def test_crosscheck_reports_a_corrupted_map(monkeypatch, name, row, col, label):
    build = getattr(projection, name)

    def corrupted(m, nu, big_m):
        entries = [list(r) for r in build(m, nu, big_m).entries]
        entries[row][col] += F(1, 7)
        return ProjectionMap(entries)

    monkeypatch.setattr(projection, name, corrupted)
    report = crosscheck_closed_forms(1, 1, 3)
    assert not report.clean
    mismatches = [s for s in report.lines() if s.startswith("  MISMATCH: ")]
    assert any(s.startswith(f"  MISMATCH: {label}: closed form ") for s in mismatches), mismatches
    assert all(" vs basis change " in s for s in mismatches)


def test_maps_are_stored_canonically_and_convert_bitwise():
    proj = ProjectionMap(((F(1, 2), F(-1, 3)), (0, F(2, 2))))
    assert (proj.nums, proj.den) == (((3, -2), (0, 6)), 6)
    assert proj.entries == ((F(1, 2), F(-1, 3)), (F(0), F(1)))
    for m in range(5):
        for big_m in range(1, 9):
            for make, largest in (
                (weighted_moment_map, max_weighted_order),
                (derivative_moment_map, max_derivative_order),
            ):
                for nu in range(largest(m, big_m) + 1):
                    proj = make(m, nu, big_m)
                    assert proj.den > 0
                    assert math.gcd(proj.den, *(n for row in proj.nums for n in row)) == 1
                    same = ProjectionMap(proj.entries)
                    assert same == proj and hash(same) == hash(proj)
                    want = np.array([[float(c) for c in row] for row in proj.entries])
                    assert proj.as_array().tobytes() == want.tobytes()
