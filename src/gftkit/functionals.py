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
deviation |U - 1| is applied by the membership layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import AnalyticFunction, ComplexLike, principal_arg, principal_power
from .errors import (
    DegenerateSum,
    DivisionByZeroInFunctional,
    MissingSecondFunction,
    OutOfRange,
)

_ZERO_TOL = 1e-14  # a denominator this small is treated as a vanished factor


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
    kind: FunctionalKind
    lam: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 1.0
    delta: float = 1.0
    p: int = 1

    def __post_init__(self):
        k = self.kind
        if k is FunctionalKind.MIXED and not 0 <= self.lam < 1:
            raise OutOfRange(f"mixed weight needs lambda in [0, 1), got {self.lam}")
        if k is FunctionalKind.TILTED_LHS and not 0 <= self.lam < math.pi / 2:
            raise OutOfRange(f"tilt needs lambda in [0, pi/2), got {self.lam}")
        if k in (FunctionalKind.U_FUNC, FunctionalKind.THM3_LHS, FunctionalKind.TWO_FN_POWER):
            if not 0 <= self.alpha <= 1:
                raise OutOfRange(f"alpha must lie in [0, 1], got {self.alpha}")
        if k is FunctionalKind.SLIT1_LHS and self.alpha + self.beta <= 0:
            raise DegenerateSum(f"exponent 2/(alpha+beta) undefined for alpha+beta = {self.alpha + self.beta}")
        if k in (FunctionalKind.THM3_LHS, FunctionalKind.TWO_FN_RATIO, FunctionalKind.TWO_FN_POWER):
            if self.gamma <= 0 or self.delta <= 0:
                raise OutOfRange("weights gamma and delta must be positive")
            if not (isinstance(self.p, int) and self.p >= 1):
                raise OutOfRange(f"leading order p must be an integer >= 1, got {self.p!r}")
        if k is FunctionalKind.ARG_SUM and not 0 < self.gamma <= 1:
            raise OutOfRange(f"argument weight needs gamma in (0, 1], got {self.gamma}")

    # convenience constructors, one per kind
    @classmethod
    def starlike(cls):
        return cls(FunctionalKind.STARLIKE)

    @classmethod
    def convex(cls):
        return cls(FunctionalKind.CONVEX)

    @classmethod
    def mixed(cls, lam: float):
        return cls(FunctionalKind.MIXED, lam=lam)

    @classmethod
    def u_func(cls, alpha: float):
        return cls(FunctionalKind.U_FUNC, alpha=alpha)

    @classmethod
    def slit1_lhs(cls, alpha: float, beta: float):
        return cls(FunctionalKind.SLIT1_LHS, alpha=alpha, beta=beta)

    @classmethod
    def tilted_lhs(cls, lam: float):
        return cls(FunctionalKind.TILTED_LHS, lam=lam)

    @classmethod
    def thm3_lhs(cls, gamma: float, delta: float, alpha: float, p: int = 1):
        return cls(FunctionalKind.THM3_LHS, gamma=gamma, delta=delta, alpha=alpha, p=p)

    @classmethod
    def two_fn_ratio(cls, gamma: float, delta: float):
        return cls(FunctionalKind.TWO_FN_RATIO, gamma=gamma, delta=delta)

    @classmethod
    def two_fn_power(cls, gamma: float, delta: float, alpha: float):
        return cls(FunctionalKind.TWO_FN_POWER, gamma=gamma, delta=delta, alpha=alpha)

    @classmethod
    def arg_sum(cls, gamma: float):
        return cls(FunctionalKind.ARG_SUM, gamma=gamma)


def _guard(den: np.ndarray, factor: str, z: np.ndarray) -> None:
    mag = np.abs(den)
    if np.any(mag < _ZERO_TOL):
        flat = np.asarray(z, dtype=complex).ravel()
        idx = int(np.argmin(np.asarray(mag).ravel()))
        witness = complex(flat[idx]) if flat.size > 1 else complex(flat[0])
        raise DivisionByZeroInFunctional(factor, witness=witness)


# kinds whose expression reads f''; the rest need the jet of f to order 1
_READS_F2 = frozenset({
    FunctionalKind.CONVEX,
    FunctionalKind.MIXED,
    FunctionalKind.THM3_LHS,
    FunctionalKind.TWO_FN_RATIO,
    FunctionalKind.TWO_FN_POWER,
})


def _jet(f: AnalyticFunction, z: np.ndarray, order: int) -> list[np.ndarray]:
    # a scalar z gives 0-d arrays, as the expressions below expect
    return [np.asarray(v, dtype=complex) for v in f.jet(z, order)]


def ratio_target(f: AnalyticFunction, g: AnalyticFunction, z: ComplexLike) -> ComplexLike:
    """z f'/G, the quantity the two-function ratio condition controls."""
    z = np.asarray(z, dtype=complex)
    (g0,) = _jet(g, z, 0)
    _guard(g0, "g", z)
    _, f1 = _jet(f, z, 1)
    return z * f1 / g0


def power_target(f: AnalyticFunction, g: AnalyticFunction, alpha: float, z: ComplexLike) -> ComplexLike:
    """f' (z/f)^(1-a) (z/G)^a, the mixed-power quantity of the same corollary."""
    z = np.asarray(z, dtype=complex)
    f0, f1 = _jet(f, z, 1)
    (g0,) = _jet(g, z, 0)
    _guard(f0, "f", z)
    _guard(g0, "g", z)
    return f1 * principal_power(z / f0, 1 - alpha) * principal_power(z / g0, alpha)


def evaluate_functional(
    spec: FunctionalSpec,
    f: AnalyticFunction,
    z: ComplexLike,
    g: Optional[AnalyticFunction] = None,
) -> ComplexLike:
    """Evaluate the selected expression at z (scalar or array).

    z = 0 is outside the contract: every sampling grid excludes the
    origin, and the removable limits there are never substituted.
    ARG_SUM returns its real value embedded as a complex number.
    """
    kind = spec.kind
    if kind in (FunctionalKind.TWO_FN_RATIO, FunctionalKind.TWO_FN_POWER) and g is None:
        raise MissingSecondFunction(f"{kind.value} needs a second function")
    zz = np.asarray(z, dtype=complex)
    scalar = zz.ndim == 0

    jet = _jet(f, zz, 2 if kind in _READS_F2 else 1)
    f0, f1 = jet[0], jet[1]

    def starlike():
        _guard(f0, "f", zz)
        return zz * f1 / f0

    def convex():
        _guard(f1, "f'", zz)
        return 1 + zz * jet[2] / f1

    if kind is FunctionalKind.STARLIKE:
        out = starlike()
    elif kind is FunctionalKind.CONVEX:
        out = convex()
    elif kind is FunctionalKind.MIXED:
        out = spec.lam * starlike() + (1 - spec.lam) * convex()
    elif kind is FunctionalKind.U_FUNC:
        _guard(f0, "f", zz)
        out = f1 * principal_power(zz / f0, spec.alpha + 1)
    elif kind is FunctionalKind.SLIT1_LHS:
        _guard(f0, "h", zz)
        out = principal_power(f0, 2 / (spec.alpha + spec.beta)) + zz * f1 / f0
    elif kind is FunctionalKind.TILTED_LHS:
        _guard(f0, "h", zz)
        out = np.exp(-1j * spec.lam) * f0 + zz * f1 / f0
    elif kind is FunctionalKind.THM3_LHS:
        _guard(f0, "f", zz)
        u = f1 * principal_power(zz / f0, spec.alpha + 1)
        out = spec.gamma * u + spec.delta * (convex() - (spec.alpha + 1) * zz * f1 / f0 + spec.alpha)
    elif kind is FunctionalKind.TWO_FN_RATIO:
        g0, g1 = _jet(g, zz, 1)
        _guard(g0, "g", zz)
        out = spec.gamma * (zz * f1 / g0) + spec.delta * (convex() - zz * g1 / g0)
    elif kind is FunctionalKind.TWO_FN_POWER:
        g0, g1 = _jet(g, zz, 1)
        _guard(f0, "f", zz)
        _guard(g0, "g", zz)
        a = spec.alpha
        w = f1 * principal_power(zz / f0, 1 - a) * principal_power(zz / g0, a)
        out = spec.gamma * w + spec.delta * (convex() - (1 - a) * zz * f1 / f0 - a * zz * g1 / g0)
    elif kind is FunctionalKind.ARG_SUM:
        _guard(f0, "h", zz)
        inner = 1 + zz * f1 / (f0 * f0)
        out = np.asarray(principal_arg(f0) + spec.gamma * principal_arg(inner), dtype=complex)
    else:  # pragma: no cover - enum is exhaustive
        raise AssertionError(kind)

    if scalar:
        return complex(out)
    return out
