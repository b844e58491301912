"""Polyharmonic curves and helices in space forms: exact symbolic derivation
of the curvature constraint systems, exact classification of helix
solutions, closed-form verification of explicit sphere curves, and a small
numerical lab for curvature-profile experiments."""

import importlib

__version__ = "0.1.0"

from .frenet import (
    constraint_system,
    frenet_derivative,
    iterated_derivative,
    tangent,
    tau_space_form,
)
from .ratpoly import (
    AMBIENT,
    CurvaturePolynomial,
    Monomial,
    ZeroPolynomialError,
    ambient,
    kvar,
)

# the numeric names, each with the module that defines it: these modules
# import numpy (all but classify), so they load on the first access to one
# of their names (PEP 562), and a symbolic run such as ``polyhelix tau``
# never loads them
_NUMERIC = {
    "negative_K_scan": "classify",
    "solve_helix": "classify",
    "CurvatureProfile": "odelab",
    "conjecture_scan": "odelab",
    "conservation_monitor_four": "odelab",
    "conservation_monitor_tri": "odelab",
    "integrate_frenet": "odelab",
    "parse_profile": "odelab",
    "biharmonic_circle": "spherecurves",
    "biharmonic_two_freq": "spherecurves",
    "four_planar": "spherecurves",
    "great_circle": "spherecurves",
    "tri_hyperbola_curve": "spherecurves",
    "tri_hyperbola_family": "spherecurves",
    "tri_planar": "spherecurves",
}


def __getattr__(name: str):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_NUMERIC[name]}", __name__), name)


__all__ = [
    "AMBIENT",
    "CurvaturePolynomial",
    "CurvatureProfile",
    "Monomial",
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
