"""Exact evaluation of the weighted integral functionals and their
projection lower bounds.

The functional under study is

    J(f) = int_a^b ((s - a)/(b - a))**m  f(s)^T W f(s) ds,   W > 0,

together with two families of certified lower bounds obtained by projecting
f (or f') onto the first few weighted orthogonal polynomials.  Test functions
are rational polynomials on rational intervals, so both sides are integrated
exactly; the module also implements the competing first-order bound.
Moments are taken over the function's own interval: per component, the
integer Legendre moments ``projection.legendre_moments(u, M)`` of its
[0, 1] form u, the same kernel the projection maps are built from.  All
three bounds read f only through one (M, n) array of its Legendre moments
(as from ``moments``); M is the number of rows of that array, and M = 0
(the derivative bound from boundary values alone) is an empty (0, n)
array.  Both projection bounds evaluate ``projection.projection_form`` on
the cached map, the same quadratic form the stability LMIs are built from.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .polynomials import RationalPolynomial, inner_product_ratio
from .projection import (
    derivative_moment_map,
    legendre_moments,
    projection_form,
    weighted_moment_map,
)

__all__ = [
    "FunctionalSpec",
    "PolynomialVectorFunction",
    "functional_value",
    "moments",
    "lower_bound_values",
    "lower_bound_derivative",
    "competitor_bound",
    "competitor_statistics",
]


@dataclass(frozen=True)
class FunctionalSpec:
    """Weight matrix, weight exponent and interval defining the functional."""

    weight: np.ndarray
    m: int
    a: float
    b: float

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        object.__setattr__(self, "weight", w)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or not w.size:
            raise ValueError("weight must be a nonempty square matrix")
        largest = float(np.abs(w).max(initial=0.0))  # nan or inf if not finite
        if not np.isfinite(largest):
            raise ValueError("weight must be finite")
        # no relative slack: asymmetry at most 1e-12 of the largest entry
        if np.abs(w - w.T).max(initial=0.0) > 1e-12 * max(1.0, largest):
            raise ValueError("weight must be symmetric")
        eigs = np.linalg.eigvalsh(w)
        if eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
            raise ValueError("weight must be positive definite")
        if not isinstance(self.m, numbers.Integral) or self.m < 0:
            raise ValueError(f"weight exponent m must be an integer >= 0, got {self.m!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval ends must be finite")
        if not self.b > self.a:
            raise ValueError("interval must satisfy b > a")

    @property
    def dim(self) -> int:
        return self.weight.shape[0]

    @property
    def width(self) -> float:
        return self.b - self.a


class PolynomialVectorFunction:
    """Vector of exact rational polynomials in s, on an exact interval.

    When the interval endpoints are rationals, every moment and functional
    value reduces to exact polynomial integration on [0, 1], and each float
    this class returns is one integer division of the exact rational.
    There must be at least one component.
    """

    def __init__(
        self,
        components: Sequence[RationalPolynomial],
        a: int | Fraction,
        b: int | Fraction,
    ):
        self.components = list(components)
        self.dim = len(self.components)
        if not self.dim:
            raise ValueError("a vector function needs at least one component")
        self.a = Fraction(a)
        self.b = Fraction(b)
        if not self.b > self.a:
            raise ValueError("interval must satisfy b > a")
        width = self.b - self.a
        self._width = width.as_integer_ratio()
        # components composed to live on [0, 1]
        self._unit = [c.compose_affine(self.a, width) for c in self.components]

    def derivative(self) -> "PolynomialVectorFunction":
        """f' on the same interval.  Its [0, 1] form is read off f's: u(x)
        = c(a + width x) gives c'(a + width x) = u'(x) / width."""
        wn, wd = self._width
        df = copy.copy(self)
        df.components = [c.derivative() for c in self.components]
        df._unit = [u.derivative().scale(Fraction(wd, wn)) for u in self._unit]
        return df

    def endpoint_values(self) -> tuple[np.ndarray, np.ndarray]:
        """f(a) and f(b): each component on [0, 1] at 0 (its constant
        numerator, if any) and at 1 (the sum of its numerators)."""
        f_a = np.array([sum(u.nums[:1]) / u.den for u in self._unit])
        f_b = np.array([sum(u.nums) / u.den for u in self._unit])
        return f_a, f_b


def functional_value(spec: FunctionalSpec, f: PolynomialVectorFunction) -> float:
    """J(f), integrated exactly."""
    if f.dim != spec.dim:
        raise ValueError(
            f"function has {f.dim} components, the weight is {spec.dim}x{spec.dim}"
        )
    if (float(f.a), float(f.b)) != (spec.a, spec.b):
        raise ValueError("function interval does not match the spec interval")
    (wn, wd), n = f._width, f.dim
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            num, den = inner_product_ratio(spec.m, f._unit[i], f._unit[j])
            gram[i, j] = gram[j, i] = num / den
    return float(wn / wd * np.sum(spec.weight * gram))


def moments(f: PolynomialVectorFunction, big_m: int) -> np.ndarray:
    """Legendre moment vectors phi_l = int_a^b R(0,l)((s-a)/width) f(s) ds,
    l = 0..M-1, of f over its own interval [a, b] = [f.a, f.b], stacked as
    an (M, n) array; each entry is one division of its exact rational."""
    if big_m < 1:
        raise ValueError("at least one moment is required")
    wn, wd = f._width
    out = np.empty((big_m, f.dim))
    for j, u in enumerate(f._unit):
        nums, den = legendre_moments(u, big_m)
        out[:, j] = [wn * x / (den * wd) for x in nums]
    return out


def _moment_array(spec: FunctionalSpec, phi: np.ndarray) -> np.ndarray:
    """phi as a float (M, n) array, n the weight dimension."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2 or phi.shape[1] != spec.dim:
        raise ValueError(f"moment array must have shape (M, {spec.dim})")
    return phi


def lower_bound_values(spec: FunctionalSpec, phi: np.ndarray, nu: int) -> float:
    """Projection lower bound for J(f) from its first M Legendre moments
    phi (as from ``moments``); M is the number of rows of phi."""
    phi = _moment_array(spec, phi)
    xi = weighted_moment_map(spec.m, nu, phi.shape[0])
    stacked = phi.reshape(-1)  # already (M, n) row-major = kron layout
    return float(stacked @ projection_form(xi, spec.m, spec.weight) @ stacked) / spec.width


def lower_bound_derivative(
    spec: FunctionalSpec,
    f_a: np.ndarray,
    f_b: np.ndarray,
    phi: np.ndarray,
    nu: int,
) -> float:
    """Projection lower bound for J(f') from the boundary values f(a), f(b)
    and the first M Legendre moments phi of f; M is the number of rows of
    phi, and an empty (0, n) phi bounds from the boundary values alone."""
    f_a = np.asarray(f_a, dtype=float)
    f_b = np.asarray(f_b, dtype=float)
    if f_a.shape != (spec.dim,) or f_b.shape != (spec.dim,):
        raise ValueError("boundary values must be vectors of the weight dimension")
    phi = _moment_array(spec, phi)
    z = derivative_moment_map(spec.m, nu, phi.shape[0])
    stacked = np.concatenate([f_b, f_a, phi.reshape(-1) / spec.width])
    return float(stacked @ projection_form(z, spec.m, spec.weight) @ stacked) / spec.width


def competitor_statistics(
    spec: FunctionalSpec, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The competing bound's statistics, recovered from the weighted moments
    of order 0 and 1 of f.

    phi holds the first M Legendre moments of f (as from ``moments``); M is
    the number of rows of phi, and the weighted map needs M >= l + 2.  With
    l = spec.m, the identities are
        w_{l,0} =  l!       / (b-a)**l * g_l
        w_{l,1} = -(l+1)! / (b-a)**l * Upsilon_l.
    """
    phi = _moment_array(spec, phi)
    l = spec.m
    xi = weighted_moment_map(l, 1, phi.shape[0]).as_array()
    w_moms = xi @ phi  # rows: w_{l,0}, w_{l,1}
    width = spec.width
    g_l = width**l / math.factorial(l) * w_moms[0]
    upsilon_l = -(width**l) / math.factorial(l + 1) * w_moms[1]
    return g_l, upsilon_l


def competitor_bound(
    spec: FunctionalSpec, g_l: np.ndarray, upsilon_l: np.ndarray
) -> float:
    """Competing first-order lower bound for J(f).

    Identical first term to the two-term projection bound, but the second
    term carries coefficient 1 where the projection bound has (l+1)**2.
    """
    l = spec.m
    w = spec.weight
    g_l = np.asarray(g_l, dtype=float)
    upsilon_l = np.asarray(upsilon_l, dtype=float)
    fact2 = math.factorial(l) ** 2
    denom = spec.width ** (2 * l + 1)
    first = (l + 1) * fact2 / denom * float(g_l @ w @ g_l)
    second = (l + 3) * fact2 / denom * float(upsilon_l @ w @ upsilon_l)
    return first + second

