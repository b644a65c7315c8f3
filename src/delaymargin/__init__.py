"""Certified delay-stability bounds for linear time-delay systems.

The toolkit builds a two-parameter family of LMI stability conditions from
exact projection inequalities over weighted orthogonal polynomials, decides
their strict feasibility with an embedded dense SDP margin solver, and
searches delay bounds over that feasibility oracle, in the delay windows
between the system's exact characteristic-root crossings, steering each
probe by the margins of the feasible ones (with a bisection fallback).
"""

from .inequalities import (
    FunctionalSpec,
    PolynomialVectorFunction,
    functional_value,
    lower_bound_derivative,
    lower_bound_values,
    moments,
)
from .lmi import (
    DelaySystem,
    HierarchyParams,
    assemble_delay_range_lmis,
    assemble_stability_lmis,
    nodv,
)
from .polynomials import RationalPolynomial, inner_product, rodrigues_poly
from .projection import (
    crosscheck_closed_forms,
    derivative_moment_map,
    legendre_derivative_map,
    weighted_moment_map,
)
from .sdp import (
    ConeProgram,
    FeasibilityResult,
    decide_feasibility,
    solve,
    verify_certificate,
)
from .search import (
    DelayBoundsReport,
    SweepResult,
    hierarchy_sweep,
    max_delay,
    min_delay,
    stability_interval,
)
from .systems import bundled_system, bundled_system_path, load_system

__version__ = "0.1.0"
