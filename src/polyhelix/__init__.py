"""Polyharmonic curves and helices in space forms: exact symbolic derivation
of the curvature constraint systems, numerical classification of helix
solutions, closed-form verification of explicit sphere curves, and a small
numerical lab for curvature-profile experiments."""

__version__ = "0.1.0"

from .classify import HelixSpec, negative_K_scan, solve_helix
from .frenet import (
    constraint_system,
    frenet_derivative,
    iterated_derivative,
    tangent,
    tau_space_form,
)
from .odelab import (
    CurvatureProfile,
    conjecture_scan,
    conservation_monitor_four,
    conservation_monitor_tri,
    integrate_frenet,
    parse_profile,
)
from .ratpoly import (
    AMBIENT,
    CurvaturePolynomial,
    Monomial,
    UnboundVariableError,
    ZeroPolynomialError,
    ambient,
    kvar,
)
from .spherecurves import (
    biharmonic_circle,
    biharmonic_two_freq,
    four_planar,
    great_circle,
    tri_hyperbola_curve,
    tri_hyperbola_family,
    tri_planar,
)

__all__ = [
    "AMBIENT",
    "CurvaturePolynomial",
    "CurvatureProfile",
    "HelixSpec",
    "Monomial",
    "UnboundVariableError",
    "ZeroPolynomialError",
    "__version__",
    "ambient",
    "biharmonic_circle",
    "biharmonic_two_freq",
    "conjecture_scan",
    "conservation_monitor_four",
    "conservation_monitor_tri",
    "constraint_system",
    "four_planar",
    "frenet_derivative",
    "great_circle",
    "integrate_frenet",
    "iterated_derivative",
    "kvar",
    "negative_K_scan",
    "parse_profile",
    "solve_helix",
    "tangent",
    "tau_space_form",
    "tri_hyperbola_curve",
    "tri_hyperbola_family",
    "tri_planar",
]
