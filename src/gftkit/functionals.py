"""The differential expressions whose images the sufficient conditions constrain.

Ten selectable expressions, all evaluated from exact derivatives:

    STARLIKE            z f'/f
    CONVEX              1 + z f''/f'
    MIXED(l)            l * z f'/f + (1 - l) * (1 + z f''/f')
    U_FUNC(a)           f' (z/f)^(a+1)
    SLIT1_LHS(a, b)     h^(2/(a+b)) + z h'/h                   (applied to h)
    TILTED_LHS(l)       e^(-il) h + z h'/h                     (applied to h)
    THM3_LHS(g, d, a, p)
        g * f'(z/f)^(a+1) + d * (1 + z f''/f' - (a+1) z f'/f + a)
    TWO_FN_RATIO(g, d)  g * z f'/G + d * (1 + z f''/f' - z G'/G)
    TWO_FN_POWER(g, d, a)
        g * f'(z/f)^(1-a) (z/G)^a + d * (1 + z f''/f' - (1-a) z f'/f - a z G'/G)
    ARG_SUM(g)          arg h + g * arg(1 + z h'/h^2)          (real-valued)

The two-function forms take the partner G through the ``g`` argument of
:func:`evaluate_functional`.  U_FUNC returns the raw product; the class
deviation |U - 1| is applied by the membership layer.  The targets of
Corollary 3.7's conclusions, ratio_target and power_target, are the first
terms of TWO_FN_RATIO and TWO_FN_POWER, written once for both.  Every
expression is evaluated on one path, which checks its divisors and raises
NonFiniteValue where a value is not finite.

FUNCTIONALS declares each kind once: its parameters in CLI grammar order
with their domains, the factors it divides by (which also say whether it
reads f'' and whether it needs G), its expression and the slit its image
must avoid, built from the closed forms.  Spec validation, the
constructors, the CLI grammar and functional_slit are read from it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .constants import ARG_WEIGHT, MIXED_WEIGHT, ORDER_P, SECTOR_ORDERS, TILT, WEIGHTS, Direction, Ray, SlitSpec
from .constants import a_min, c_lambda, slit_constants, thm3_constants
from .core import AnalyticFunction, ComplexLike, _finite, _guard, principal_arg, principal_power
from .errors import DegenerateSum, MissingSecondFunction, OutOfRange
from .params import Param, add_constructors, check_fields


class FunctionalKind(Enum):
    STARLIKE = "starlike"
    CONVEX = "convex"
    MIXED = "mixed"
    U_FUNC = "u"
    SLIT1_LHS = "slit1"
    TILTED_LHS = "tilted"
    THM3_LHS = "thm3"
    TWO_FN_RATIO = "ratio2"
    TWO_FN_POWER = "power2"
    ARG_SUM = "argsum"


@dataclass(frozen=True)
class FunctionalSpec:
    """Which expression to evaluate, with its parameters.

    One constructor per kind, named after it in lower case, takes the
    parameters of its FUNCTIONALS entry in order, e.g.
    FunctionalSpec.thm3_lhs(gamma, delta, alpha, p=1) or
    FunctionalSpec.convex(); those fields are checked against their domains.
    """

    kind: FunctionalKind
    lam: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 1.0
    delta: float = 1.0
    p: int = 1

    def __post_init__(self):
        entry = FUNCTIONALS[self.kind]
        check_fields(self, entry.params, OutOfRange)
        if entry.check is not None:
            entry.check(self)


class _Jet(list):
    """f, f', ... of one function at z as arrays, with its powers (z/f)^c.

    A scalar z gives 0-d arrays, as the expressions below expect.
    """

    def __init__(self, f: AnalyticFunction, z: np.ndarray, order: int):
        super().__init__(np.asarray(v, dtype=complex) for v in f.jet(z, order))
        self.f, self.z = f, z

    def power(self, c: float) -> ComplexLike:
        """The principal (z/f)^c from the jet memo, as principal_power gives it:
        a complex for a scalar z, else a fresh array.

        Write a product as ``w * jet.power(c)``, the order of the inline
        ``w * principal_power(z / f, c)``; numpy then picks the operand
        order it picked there, so every value stays the same bit for bit
        (the core module docstring says why that needs the copy).
        """
        power = self.f.quotient_power(self.z, c)
        return power if self.z.ndim == 0 else power.copy()


# ----------------------------------------------------------------------
# the expressions, each from the jets f = (f, f', ...) and g = (G, G') at z


def _starlike(z, f):
    return z * f[1] / f[0]


def _convex(z, f):
    return 1 + z * f[2] / f[1]


def _u(z, f, alpha):
    return f[1] * f.power(alpha + 1)


def _power2(s, z, f, g):
    a = s.alpha
    w = _POWER_TARGET.evaluate(s, z, f, g)
    return s.gamma * w + s.delta * (_convex(z, f) - (1 - a) * z * f[1] / f[0] - a * z * g[1] / g[0])


def _positive_sum(spec: FunctionalSpec) -> None:
    if spec.alpha + spec.beta <= 0:
        raise DegenerateSum(f"exponent 2/(alpha+beta) undefined for alpha+beta = {spec.alpha + spec.beta}")


def _symmetric_slit(height: float) -> SlitSpec:
    return SlitSpec((Ray(complex(0.0, height), Direction.UP), Ray(complex(0.0, -height), Direction.DOWN)))


def _weighted_slit(spec: FunctionalSpec, lam: float, n: int) -> SlitSpec:
    return thm3_constants(spec.gamma, spec.delta, spec.p, lam).slit


class _Functional(NamedTuple):
    params: tuple[Param, ...]  # in CLI grammar order, named as FunctionalSpec fields
    # the factors the expression divides by, checked in this order: f or h
    # (the same value, named as the paper does), f' and the partner G; f''
    # enters only through z f''/f', and G' only beside it through z G'/G, so
    # f' here means f's jet goes to order 2 and G's to order 1, else to 1 and 0
    divides_by: tuple[str, ...]
    evaluate: Callable  # (spec, z, jet of f, jet of G) -> values at z
    check: Optional[Callable[[FunctionalSpec], None]] = None  # a condition across parameters
    # (spec, lam, n) -> the slit the image must avoid, built from the closed
    # forms at call time: lam tilts the weighted slits, n is the order of
    # slit1's h; None for a functional without one
    slit: Optional[Callable[[FunctionalSpec, float, int], SlitSpec]] = None


# the exponent of U, THM3 and the power forms, shared with the theorem cases
EXPONENT = Param("alpha", "[0, 1]")
# the quantities Corollary 3.7's conclusions control, the first terms of
# TWO_FN_RATIO and TWO_FN_POWER; no CLI token names them
_RATIO_TARGET = _Functional((), ("g",), lambda s, z, f, g: z * f[1] / g[0])
_POWER_TARGET = _Functional((), ("f", "g"), lambda s, z, f, g: f[1] * f.power(1 - s.alpha) * g.power(s.alpha))

FUNCTIONALS: dict[FunctionalKind, _Functional] = {
    FunctionalKind.STARLIKE: _Functional((), ("f",), lambda s, z, f, g: _starlike(z, f)),
    FunctionalKind.CONVEX: _Functional(
        (), ("f'",), lambda s, z, f, g: _convex(z, f), slit=lambda s, lam, n: _symmetric_slit(c_lambda(0.0))
    ),
    FunctionalKind.MIXED: _Functional(
        (MIXED_WEIGHT,),
        ("f", "f'"),
        lambda s, z, f, g: s.lam * _starlike(z, f) + (1 - s.lam) * _convex(z, f),
        slit=lambda s, lam, n: _symmetric_slit(c_lambda(s.lam)),
    ),
    FunctionalKind.U_FUNC: _Functional((EXPONENT,), ("f",), lambda s, z, f, g: _u(z, f, s.alpha)),
    FunctionalKind.SLIT1_LHS: _Functional(
        SECTOR_ORDERS,
        ("h",),
        lambda s, z, f, g: principal_power(f[0], 2 / (s.alpha + s.beta)) + z * f[1] / f[0],
        _positive_sum,
        slit=lambda s, lam, n: slit_constants(s.alpha, s.beta, n),
    ),
    FunctionalKind.TILTED_LHS: _Functional(
        (TILT,),
        ("h",),
        lambda s, z, f, g: np.exp(-1j * s.lam) * f[0] + z * f[1] / f[0],
        slit=lambda s, lam, n: _symmetric_slit(a_min(s.lam)),
    ),
    FunctionalKind.THM3_LHS: _Functional(
        (*WEIGHTS, EXPONENT, replace(ORDER_P, optional=True)),
        ("f", "f'"),
        lambda s, z, f, g: s.gamma * _u(z, f, s.alpha)
        + s.delta * (_convex(z, f) - (s.alpha + 1) * z * f[1] / f[0] + s.alpha),
        slit=_weighted_slit,
    ),
    FunctionalKind.TWO_FN_RATIO: _Functional(
        WEIGHTS,
        ("g", "f'"),
        lambda s, z, f, g: s.gamma * _RATIO_TARGET.evaluate(s, z, f, g) + s.delta * (_convex(z, f) - z * g[1] / g[0]),
        slit=_weighted_slit,
    ),
    FunctionalKind.TWO_FN_POWER: _Functional((*WEIGHTS, EXPONENT), ("f", "g", "f'"), _power2, slit=_weighted_slit),
    FunctionalKind.ARG_SUM: _Functional(
        (ARG_WEIGHT,),
        ("h",),
        lambda s, z, f, g: principal_arg(f[0]) + s.gamma * principal_arg(1 + z * f[1] / (f[0] * f[0])),
    ),
}
add_constructors(FunctionalSpec, FUNCTIONALS)


def functional_slit(spec: FunctionalSpec, lam: float = 0.0, n: int = 1) -> SlitSpec:
    """The slit the image of spec's functional must avoid; no rays if it has none."""
    slit = FUNCTIONALS[spec.kind].slit
    return SlitSpec(()) if slit is None else slit(spec, lam, n)


def _evaluate(what: str, entry: _Functional, spec, f: AnalyticFunction, z: ComplexLike, g) -> ComplexLike:
    """entry's expression at z, each factor it divides by checked in order;
    a complex for a scalar z, and NonFiniteValue named by what."""
    if "g" in entry.divides_by and g is None:
        raise MissingSecondFunction(f"{what} needs a second function")
    zz = np.asarray(z, dtype=complex)
    order = 2 if "f'" in entry.divides_by else 1
    fj = _Jet(f, zz, order)
    gj = _Jet(g, zz, order - 1) if "g" in entry.divides_by else None
    for factor in entry.divides_by:
        den = gj[0] if factor == "g" else fj[1] if factor == "f'" else fj[0]
        _guard(den, factor, zz)
    out = np.asarray(_finite(what, zz, lambda: entry.evaluate(spec, zz, fj, gj)), dtype=complex)
    return complex(out) if zz.ndim == 0 else out


def evaluate_functional(
    spec: FunctionalSpec,
    f: AnalyticFunction,
    z: ComplexLike,
    g: Optional[AnalyticFunction] = None,
) -> ComplexLike:
    """Evaluate the selected expression at z (scalar or array).

    z = 0 is outside the contract: every sampling grid excludes the
    origin, and the removable limits there are never substituted.
    ARG_SUM returns its real value embedded as a complex number.  A value
    that overflows or turns NaN raises NonFiniteValue at its first
    non-finite point instead of printing numpy warnings.
    """
    return _evaluate(spec.kind.value, FUNCTIONALS[spec.kind], spec, f, z, g)


def ratio_target(f: AnalyticFunction, g: AnalyticFunction, z: ComplexLike) -> ComplexLike:
    """z f'/G, the quantity the two-function ratio condition controls."""
    return _evaluate("ratio_target", _RATIO_TARGET, None, f, z, g)


def power_target(f: AnalyticFunction, g: AnalyticFunction, alpha: float, z: ComplexLike) -> ComplexLike:
    """f' (z/f)^(1-a) (z/G)^a, the mixed-power quantity of the same corollary;
    alpha must lie in [0, 1], as for TWO_FN_POWER."""
    spec = FunctionalSpec(FunctionalKind.TWO_FN_POWER, alpha=alpha)
    return _evaluate("power_target", _POWER_TARGET, spec, f, z, g)
