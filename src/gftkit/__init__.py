"""Numerical toolkit for sector and radius estimates of analytic disk maps.

Every public name is read from its home module when it is used (PEP 562),
so ``import gftkit`` loads no submodule and ``gftkit.c_lambda`` loads only
the numpy-free ``constants``.  ``from gftkit import *`` binds every name
below.
"""

from importlib import import_module

# home module -> the names the package re-exports from it
_EXPORTS = {
    "core": (
        "ATag",
        "AnalyticFunction",
        "HTag",
        "Variant",
        "half_plane_map",
        "identity_map",
        "koebe_like",
        "principal_arg",
        "principal_power",
    ),
    "constants": (
        "ArgConstants",
        "Direction",
        "OptResult",
        "Ray",
        "RegionKind",
        "RegionSpec",
        "SlitSpec",
        "StrongOrders",
        "Thm3Constants",
        "a_min",
        "arg_kernel",
        "arg_theorem_constants",
        "build_region",
        "c_lambda",
        "eta",
        "lambda_tilt",
        "m_alpha",
        "optimize_1d",
        "radius_convexity",
        "radius_inv_alpha_convexity",
        "slit_constants",
        "slit_ray_objective",
        "strong_orders",
        "thm3_constants",
        "tilt_ray_objective",
        "weighted_ray_objective",
    ),
    "errors": (
        "BadFamilySpec",
        "BadGridSpec",
        "DegenerateDenominator",
        "DegenerateSum",
        "DiskRequiresLambdaZero",
        "DivisionByZeroInFunctional",
        "EvaluationError",
        "GftError",
        "InvalidBracket",
        "MissingSecondFunction",
        "NoSignChange",
        "NonFiniteValue",
        "OrderOutOfRange",
        "OutOfRange",
        "SingularPoint",
        "ValidationError",
        "ZeroBase",
    ),
    "functionals": (
        "FunctionalKind",
        "FunctionalSpec",
        "evaluate_functional",
        "power_target",
        "ratio_target",
    ),
    "membership": (
        "DEFAULT_RADII",
        "ClassKind",
        "ClassSpec",
        "DiskGrid",
        "MembershipReport",
        "RegionCheck",
        "SlitCheck",
        "Verdict",
        "check_membership",
        "default_grid",
        "region_containment",
        "sample_grid",
        "sector_margins",
        "slit_avoidance",
    ),
    "radii": (
        "FamilyRadius",
        "caratheodory_log_derivative_bound",
        "caratheodory_log_derivative_min",
        "constant_schwarz_term_bound",
        "constant_schwarz_term_min",
        "family_property_radius",
        "poly_root_bisect",
        "property_radius",
    ),
    "theorems": (
        "CASE_IDS",
        "FamilyMember",
        "FunctionFamily",
        "MemberOutcome",
        "TheoremCase",
        "VerificationReport",
        "default_family_for",
        "make_family",
        "mobius_ratio_family",
        "random_taylor_family",
        "sector_map",
        "sector_power_family",
        "verify_lemma_tilt",
        "verify_theorem",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]
__version__ = "1.0.0"


def __getattr__(name: str):
    # not cached here, so a name always reads what its home module binds now,
    # also while a test or a tracer has patched it there
    if name in _EXPORTS:  # a submodule not imported yet
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
