"""Closed-form constants, forbidden-set geometry, and 1-D oracles.

Every bound here is the attained extremum of an explicit one-variable
objective over x > 0; the closed forms are paired with the objectives so
golden-section search can re-derive each value independently:

* ``slit_ray_objective``      for the two-ray bounds of ``slit_constants``
* ``tilt_ray_objective``      for the imaginary-ray bound ``a_min``
* ``weighted_ray_objective``  for the y-bound of ``thm3_constants``
* ``arg_kernel``              for the maxima M_1, M_2 of ``arg_theorem_constants``

Geometry conventions: a slit is a finite set of closed vertical rays
{anchor + i t s : t >= 0} with s = +1 (UP) or -1 (DOWN); the bound value
sits at the anchor, boundary included.  Safe regions are half-planes,
rectangles, disks, or ellipses described by ``RegionSpec``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

from .errors import (
    DegenerateDenominator,
    DegenerateSum,
    DiskRequiresLambdaZero,
    InvalidBracket,
    OutOfRange,
)
from .params import Param

# ----------------------------------------------------------------------
# parameter domains, each declared once: the closed forms below check
# them, and the functionals, the classes and the theorem cases reuse them

# an order above 2**53 is not exact in the float arithmetic of the closed forms
ORDER_N, ORDER_P = (Param(name, "an integer in [1, 2**53]") for name in ("n", "p"))
SECTOR_ORDERS = tuple(Param(name, "(-1, 1]", "sector order {name} must lie in") for name in ("alpha", "beta"))
ARG_ORDERS = tuple(Param(name, "(-1, 1)", "need {name} in") for name in ("alpha", "beta"))
WEIGHTS = (Param("gamma", "(0, inf)"), Param("delta", "(0, inf)"))
ARG_WEIGHT = Param("gamma", "(0, 1]", "need gamma in")
STRONG_ORDER = Param("alpha", "(0, 1)", "need alpha in")
MIXED_WEIGHT = Param("lam", "[0, 1)", "need lambda in")
TILT = Param("lam", "[0, pi/2)", "need lambda in")
# lam and alpha of the class U(lam, alpha) that the radius theorems start from
RADIUS_LAMBDA = Param("lam", "(0, 1]", "need lambda in")
RADIUS_ORDER = Param("alpha", "(0, 1]", "need alpha in")
# the bracket width at which optimize_1d and poly_root_bisect stop
STOP_WIDTH = Param("tol", "(0, inf)", "tolerance must lie in")


def _check(params: tuple[Param, ...], *values) -> list:
    """The values, each checked against its parameter's domain, integers made int."""
    return [param.check(v, OutOfRange) for param, v in zip(params, values)]


# ----------------------------------------------------------------------
# geometry containers


class Direction(Enum):
    UP = 1
    DOWN = -1


@dataclass(frozen=True)
class Ray:
    """Closed vertical ray {anchor + i*t*s : t >= 0}, s given by direction."""

    anchor: complex
    direction: Direction


@dataclass(frozen=True)
class SlitSpec:
    rays: tuple[Ray, ...]


class RegionKind(Enum):
    HALF_PLANE = "half_plane"
    RECTANGLE = "rectangle"
    DISK = "disk"
    ELLIPSE = "ellipse"


@dataclass(frozen=True)
class RegionSpec:
    """Safe region in the w-plane; fields beyond ``kind`` are kind-specific.

    HALF_PLANE: Re w > x.
    RECTANGLE : |Re w| <= x and |Im w| < y (x = 0 degenerates to a segment).
    DISK      : |w - center| < radius.
    ELLIPSE   : two-focus sum < 2*max(x, y); c = sqrt(|x^2 - y^2|), foci on
                the real axis when major_is_x else on the imaginary axis.
    """

    kind: RegionKind
    x: float = 0.0
    y: float = 0.0
    center: complex = 0j
    radius: float = 0.0
    c: float = 0.0
    major_is_x: bool = True


class Thm3Constants(NamedTuple):
    x: float
    y_min: float
    slit: SlitSpec


class StrongOrders(NamedTuple):
    delta: float
    convex_order: float


class OptResult(NamedTuple):
    x_star: float
    f_star: float


@dataclass(frozen=True)
class ArgConstants:
    """Window edges and ray maxima for the weighted-argument condition."""

    delta1: float
    delta2: float
    M1: float
    M2: float
    x_star1: float
    x_star2: float


# ----------------------------------------------------------------------
# sector half-angle


def eta(alpha: float, beta: float) -> float:
    """Half-angle offset ((alpha-beta)/(alpha+beta)) * pi/2.

    Defined for alpha, beta in (-1, 1] with alpha + beta > 0; lies in
    (-pi/2, pi/2) exactly when additionally |alpha - beta| < alpha + beta,
    i.e. both orders are positive.
    """
    _check(SECTOR_ORDERS, alpha, beta)
    if alpha + beta <= 0:
        raise DegenerateSum(f"need alpha + beta > 0, got {alpha + beta}")
    return ((alpha - beta) / (alpha + beta)) * (math.pi / 2)


def _eta_acute(alpha: float, beta: float) -> float:
    # bounds below divide by cos(eta); that needs |eta| < pi/2
    e = eta(alpha, beta)
    if not abs(alpha - beta) < alpha + beta:
        raise OutOfRange(
            f"need |alpha - beta| < alpha + beta (both orders positive), got ({alpha}, {beta})"
        )
    return e


# ----------------------------------------------------------------------
# slit constants for the sector condition


def slit_constants(alpha: float, beta: float, n: int) -> SlitSpec:
    """Anchors of the two forbidden vertical rays for order-n functions.

    With s = (alpha+beta)n and K = sqrt(1 + 4 cos^2(eta)/s):

        ray 1: DOWN from  sin(eta)/K - i (s/(2 cos eta)) (K - sin eta)
        ray 2: UP   from -sin(eta)/K + i (s/(2 cos eta)) (K + sin eta)
    """
    n = ORDER_N.check(n, OutOfRange)
    e = _eta_acute(alpha, beta)
    s = (alpha + beta) * n
    ce, se = math.cos(e), math.sin(e)
    k = math.sqrt(1 + 4 * ce * ce / s)
    x1 = se / k
    y1_max = -(s / (2 * ce)) * (k - se)
    y2_min = (s / (2 * ce)) * (k + se)
    return SlitSpec(
        rays=(
            Ray(complex(x1, y1_max), Direction.DOWN),
            Ray(complex(-x1, y2_min), Direction.UP),
        )
    )


def c_lambda(lam: float) -> float:
    """Symmetric ray bound (1-lam) sqrt(1 + 2/(1-lam)) for lam in [0, 1)."""
    MIXED_WEIGHT.check(lam, OutOfRange)
    return (1 - lam) * math.sqrt(1 + 2 / (1 - lam))


def a_min(lam: float) -> float:
    """Imaginary-axis ray bound sec(lam) sqrt(1 + 2 cos lam) - tan(lam)."""
    TILT.check(lam, OutOfRange)
    c = math.cos(lam)
    return math.sqrt(1 + 2 * c) / c - math.tan(lam)


def thm3_constants(gamma: float, delta: float, p: int, lam: float) -> Thm3Constants:
    """Ray anchors for the weighted condition with weights gamma, delta.

    x      = gamma delta sin(lam) / sqrt(delta (delta + 2 p gamma cos^2 lam))
    y_min  = sec(lam) sqrt(delta (delta + 2 p gamma cos^2 lam)) - delta tan(lam)

    and the slit is the UP ray from -x + i y_min together with the DOWN
    ray from x - i y_min.
    """
    gamma, delta, p, lam = _check((*WEIGHTS, ORDER_P, TILT), gamma, delta, p, lam)
    c = math.cos(lam)
    # two roots, not the root of the product, which underflows to 0 for tiny weights
    root = math.sqrt(delta) * math.sqrt(delta + 2 * p * gamma * c * c)
    x = gamma * delta * math.sin(lam) / root
    y_min = root / c - delta * math.tan(lam)
    slit = SlitSpec(
        rays=(
            Ray(complex(-x, y_min), Direction.UP),
            Ray(complex(x, -y_min), Direction.DOWN),
        )
    )
    return Thm3Constants(x, y_min, slit)


def build_region(
    kind: RegionKind,
    x: float = 0.0,
    y: float = 0.0,
    p: int = 1,
    gamma: float = 1.0,
    delta: float = 1.0,
) -> RegionSpec:
    """Safe region whose containment implies the two-ray condition.

    x and y are the half-plane/rectangle parameters from
    :func:`thm3_constants`.  The disk variant |w - p*gamma| < delta + p*gamma
    exists only in the untilted case, detected here by x == 0.
    """
    # each check is written so that a NaN fails it
    if kind is RegionKind.HALF_PLANE:
        if not math.isfinite(x):
            raise OutOfRange(f"half-plane needs a finite x, got {x}")
        return RegionSpec(RegionKind.HALF_PLANE, x=x)
    if kind is RegionKind.RECTANGLE:
        # x = 0 (untilted) degenerates to the open vertical segment
        if not (0 <= x < math.inf and 0 < y < math.inf):
            raise OutOfRange(f"rectangle needs finite x >= 0 and y > 0, got ({x}, {y})")
        return RegionSpec(RegionKind.RECTANGLE, x=x, y=y)
    if kind is RegionKind.DISK:
        if not abs(x) <= 1e-12:
            raise DiskRequiresLambdaZero(f"disk region needs an untilted condition (x = 0), got x = {x}")
        gamma, delta, p = _check((*WEIGHTS, ORDER_P), gamma, delta, p)
        return RegionSpec(RegionKind.DISK, center=complex(p * gamma, 0), radius=delta + p * gamma)
    if kind is RegionKind.ELLIPSE:
        if not (0 < x < math.inf and 0 < y < math.inf):
            raise OutOfRange(f"ellipse needs finite x > 0 and y > 0, got ({x}, {y})")
        c = math.sqrt(abs(x * x - y * y))
        return RegionSpec(RegionKind.ELLIPSE, x=x, y=y, c=c, major_is_x=x >= y)
    raise OutOfRange(f"unknown region kind {kind!r}")


# ----------------------------------------------------------------------
# weighted-argument window


def arg_kernel(alpha: float, beta: float, j: int) -> Callable[[float], float]:
    """The branch-j kernel N_j(x) = 4 x^(s/2) / ((x + 1/x) sec eta + (-1)^j 2 tan eta).

    Positive and unimodal on x > 0; its maximum is the constant M_j.
    """
    if j not in (1, 2):
        raise OutOfRange(f"branch index must be 1 or 2, got {j}")
    e = _eta_acute(alpha, beta)
    s = alpha + beta
    sec_e = 1 / math.cos(e)
    tan_e = math.tan(e)
    sign = -1.0 if j == 1 else 1.0

    def kernel(x: float) -> float:
        if x <= 0:
            raise OutOfRange(f"kernel domain is x > 0, got {x}")
        return 4 * x ** (s / 2) / ((x + 1 / x) * sec_e + sign * 2 * tan_e)

    return kernel


def arg_theorem_constants(alpha: float, beta: float, gamma: float) -> ArgConstants:
    """Window edges delta_1 < 0 < delta_2 for the weighted-argument condition.

    M_j is the kernel maximum, taken at the closed-form abscissa

        x*_j = ((-1)^j s/(2-s)) sin(eta) + sqrt((2+s)/(2-s)) cos(eta),

    s = alpha + beta (which must stay below 2).  For orders far apart,
    such as (alpha, beta) = (0.9, 0.1), an abscissa x*_j falls outside the
    kernel's domain x > 0: OutOfRange, naming both orders.
    """
    ARG_WEIGHT.check(gamma, OutOfRange)
    _check(ARG_ORDERS, alpha, beta)
    e = _eta_acute(alpha, beta)
    s = alpha + beta
    if 2 - s <= 0:
        raise DegenerateSum(f"need alpha + beta < 2, got {s}")
    ce, se = math.cos(e), math.sin(e)
    root = math.sqrt((2 + s) / (2 - s))
    x_stars = []
    ms = []
    for j in (1, 2):
        sign = -1.0 if j == 1 else 1.0
        xs = sign * (s / (2 - s)) * se + root * ce
        if not xs > 0:
            raise OutOfRange(f"need x*_{j} > 0, got {xs} for alpha = {alpha}, beta = {beta}")
        x_stars.append(xs)
        ms.append(arg_kernel(alpha, beta, j)(xs))

    def edge(order: float, m: float) -> float:
        half = (1 - order) * math.pi / 2
        return (2 * gamma / math.pi) * math.atan(
            s * math.sin(half) / (s * math.cos(half) + m)
        )

    delta1 = -(beta + edge(beta, ms[0]))
    delta2 = alpha + edge(alpha, ms[1])
    return ArgConstants(delta1, delta2, ms[0], ms[1], x_stars[0], x_stars[1])


def m_alpha(alpha: float) -> float:
    """Symmetric-order kernel maximum 4/(q^((1-a)/2) + q^(-(1+a)/2)), q = (1+a)/(1-a)."""
    STRONG_ORDER.check(alpha, OutOfRange)
    q = (1 + alpha) / (1 - alpha)
    return 4 / (q ** ((1 - alpha) / 2) + q ** (-(1 + alpha) / 2))


def strong_orders(alpha: float, gamma: float) -> StrongOrders:
    """Strong starlikeness/convexity orders for the symmetric window.

    delta = alpha + (2 gamma/pi) atan[2 alpha sin((1-a)pi/2) /
            (2 alpha cos((1-a)pi/2) + M(alpha))], and the convexity order
    is ((1-gamma) alpha + delta)/gamma.
    """
    _check((STRONG_ORDER, ARG_WEIGHT), alpha, gamma)
    m = m_alpha(alpha)
    half = (1 - alpha) * math.pi / 2
    delta = alpha + (2 * gamma / math.pi) * math.atan(
        2 * alpha * math.sin(half) / (2 * alpha * math.cos(half) + m)
    )
    return StrongOrders(delta, ((1 - gamma) * alpha + delta) / gamma)


# ----------------------------------------------------------------------
# tilt angle


def lambda_tilt(b: float, m: float) -> float:
    """Tilt angle atan2(b sin(m pi), b cos(m pi) + 1), in (-pi/2, pi/2)."""
    if not 0 <= b <= 1:
        raise OutOfRange(f"need b in [0, 1], got {b}")
    if not -1 <= m <= 1:
        raise OutOfRange(f"need m in [-1, 1], got {m}")
    num = b * math.sin(m * math.pi)
    den = b * math.cos(m * math.pi) + 1
    if abs(complex(den, num)) < 1e-12:
        raise DegenerateDenominator(f"1 + b e^(i m pi) vanishes for b = {b}, m = {m}")
    return math.atan2(num, den)


# ----------------------------------------------------------------------
# sub-disk radii


def radius_convexity(lam: float, alpha: float) -> float:
    """Convexity radius: positive root of 1 - (lam + 2(alpha+1)) r - (lam+1) r^2.

    lam in (0, 1]; alpha in [0, 1] (the alpha = 0 endpoint is included,
    the closed form stays valid there).
    """
    RADIUS_LAMBDA.check(lam, OutOfRange)
    if not 0 <= alpha <= 1:
        raise OutOfRange(f"need alpha in [0, 1], got {alpha}")
    b = lam + 2 * (alpha + 1)
    disc = lam * lam + 8 * lam + 4 * alpha * lam + 4 * alpha * alpha + 8 * alpha + 8
    return (-b + math.sqrt(disc)) / (2 * (lam + 1))


def radius_inv_alpha_convexity(lam: float, alpha: float) -> float:
    """1/alpha-convexity radius: positive root of alpha - (4 alpha + lam) r - (alpha + lam) r^2."""
    _check((RADIUS_LAMBDA, RADIUS_ORDER), lam, alpha)
    b = lam + 4 * alpha
    disc = lam * lam + 20 * alpha * alpha + 12 * lam * alpha
    return (-b + math.sqrt(disc)) / (2 * (lam + alpha))


# ----------------------------------------------------------------------
# 1-D extremum oracle


def optimize_1d(
    fn: Callable[[float], float],
    bracket: tuple[float, float],
    mode: str = "min",
    tol: float = 1e-10,
) -> OptResult:
    """Golden-section search for a unimodal objective on [lo, hi].

    mode is "min" or "max"; unimodality is the caller's responsibility
    (all objectives in this package are unimodal on their brackets).  It
    stops at width tol > 0, or once no probe lies strictly inside the bracket.
    """
    tol = STOP_WIDTH.check(tol, OutOfRange)
    lo, hi = bracket
    if not lo < hi:
        raise InvalidBracket(f"need lo < hi, got ({lo}, {hi})")
    if mode not in ("min", "max"):
        raise OutOfRange(f"mode must be 'min' or 'max', got {mode!r}")
    sign = 1.0 if mode == "min" else -1.0
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = sign * fn(c)
    fd = sign * fn(d)
    while b - a > tol and a < c < b and a < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = sign * fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = sign * fn(d)
    x_star = (a + b) / 2
    return OptResult(x_star, fn(x_star))


# ----------------------------------------------------------------------
# the objectives behind the closed forms (oracle side)


def slit_ray_objective(alpha: float, beta: float, n: int, j: int) -> Callable[[float], float]:
    """Objective whose minimum over x > 0, scaled by s cos(eta)/2, gives the
    ray-j bound magnitude of :func:`slit_constants`:

        f_j(x) = 2x/s + (x + 1/x) sec^2(eta)/2 + (-1)^j sin(eta)/cos^2(eta).
    """
    if j not in (1, 2):
        raise OutOfRange(f"branch index must be 1 or 2, got {j}")
    n = ORDER_N.check(n, OutOfRange)
    e = _eta_acute(alpha, beta)
    s = (alpha + beta) * n
    ce, se = math.cos(e), math.sin(e)
    sign = -1.0 if j == 1 else 1.0

    def objective(x: float) -> float:
        return 2 * x / s + (x + 1 / x) / (2 * ce * ce) + sign * se / (ce * ce)

    return objective


def tilt_ray_objective(lam: float, j: int) -> Callable[[float], float]:
    """Objective x + (x + 1/x) sec(lam)/2 + (-1)^j tan(lam); branch 1 attains
    :func:`a_min`, branch 2 attains a_min + 2 tan(lam)."""
    if j not in (1, 2):
        raise OutOfRange(f"branch index must be 1 or 2, got {j}")
    TILT.check(lam, OutOfRange)
    sec = 1 / math.cos(lam)
    t = math.tan(lam)
    sign = -1.0 if j == 1 else 1.0

    def objective(x: float) -> float:
        return x + (x + 1 / x) * sec / 2 + sign * t

    return objective


def weighted_ray_objective(gamma: float, delta: float, p: int, lam: float) -> Callable[[float], float]:
    """Objective p gamma cos(lam) x + delta (x + 1/x) sec(lam)/2 - delta tan(lam),
    whose minimum over x > 0 is the y-bound of :func:`thm3_constants`."""
    gamma, delta, p, lam = _check((*WEIGHTS, ORDER_P, TILT), gamma, delta, p, lam)
    c = math.cos(lam)
    t = math.tan(lam)

    def objective(x: float) -> float:
        return p * gamma * c * x + delta * (x + 1 / x) / (2 * c) - delta * t

    return objective
