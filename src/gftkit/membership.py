"""Grid sampling of the disk and numerical class-membership verdicts.

Verdicts are grid-relative: HOLDS means the defining strict inequality
held with margin >= eps at every sample, FAILS means some sample
violated it outright (margin < 0), and the thin band [0, eps) as well
as any evaluation failure yields UNDECIDED.  Sampling cannot certify a
"for all |z| < 1" statement; reports carry margins, not proofs.

Margins are measured in the scale natural to each class: real-part
slack for the half-plane classes, radians for the sector classes, and
lam - sup|U - 1| for the bounded-deviation class.  CLASSES declares each
class once: its CLI token, its parameters with their domains, its margin
and the derivatives of f whose zeros make that margin singular.  The
radius search counts those zeros inside each ring it reads from the ring's
own samples (class_reader), by the argument principle, so no polynomial
roots are taken.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import AnalyticFunction, Variant, _finite, _guard, _keep_logs_on, principal_arg
from .constants import RADIUS_LAMBDA, RADIUS_ORDER, SECTOR_ORDERS, Direction, RegionKind, RegionSpec, SlitSpec
from .errors import BadGridSpec, EvaluationError, OutOfRange
from .functionals import FUNCTIONALS, FunctionalSpec, evaluate_functional
from .params import Param, add_constructors, check_fields

# 18 evenly spaced rings plus a cluster near the boundary where the
# extremes of every bounded functional concentrate; 23 rings total.
DEFAULT_RADII: tuple[float, ...] = (
    0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50,
    0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90,
    0.925, 0.95, 0.975, 0.99, 0.995,
)
DEFAULT_ANGLES = 720
# the samples per ring: a grid's, and a radius search's; at the top end a
# ring array takes 1 MiB, room for dense re-checks at 20,000 angles
ANGLES = Param("angles", "an integer in [8, 2**16]", "angles per ring must be")


@lru_cache(maxsize=8)
def unit_circle(angles: int) -> np.ndarray:
    """exp(2 pi i k/K) for k < K, built once per angle count and read-only."""
    k = np.arange(angles)
    ring = np.exp(2j * np.pi * k / angles)
    ring.flags.writeable = False
    return ring


def ring_points(radii: np.ndarray, ks: Sequence[int] | slice, angles: int) -> np.ndarray:
    """The points r exp(2 pi i k/angles) for r in radii (outer) and k in ks,
    a sequence of angle indices or slice(None) for the whole ring.

    Every grid, ring, ray and point is built here, so a point has the same
    bits, and by class_margins the same margin, in whichever of them it lies.
    """
    return (radii[:, None] * unit_circle(angles)[None, ks]).ravel()


@dataclass(frozen=True)
class DiskGrid:
    """Deterministic sampling r * exp(2 pi i k/K) of the open disk, no origin."""

    radii: tuple[float, ...]
    angles_per_ring: int

    def __post_init__(self):
        if not self.radii:
            raise BadGridSpec("need at least one radius")
        if any(not 0 < r < 1 for r in self.radii):
            raise BadGridSpec(f"radii must lie in (0, 1), got {self.radii}")
        object.__setattr__(self, "angles_per_ring", ANGLES.check(self.angles_per_ring, BadGridSpec))
        object.__setattr__(self, "radii", tuple(sorted(self.radii)))
        pts = ring_points(np.asarray(self.radii), slice(None), self.angles_per_ring)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return len(self.radii) * self.angles_per_ring


def sample_grid(radii: Sequence[float], angles_per_ring: int) -> DiskGrid:
    return DiskGrid(tuple(float(r) for r in radii), angles_per_ring)


@lru_cache(maxsize=1)
def default_grid() -> DiskGrid:
    """The default 23x720 grid, built once; the core keeps logs on its points alone."""
    grid = DiskGrid(DEFAULT_RADII, DEFAULT_ANGLES)
    _keep_logs_on(grid.points)
    return grid


class Verdict(Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    UNDECIDED = "UNDECIDED"


def classify(margin: float, eps: float) -> Verdict:
    if math.isnan(margin):
        return Verdict.UNDECIDED
    if margin >= eps:
        return Verdict.HOLDS
    if margin < 0:
        return Verdict.FAILS
    return Verdict.UNDECIDED


@dataclass(frozen=True)
class MembershipReport:
    verdict: Verdict
    margin: float
    witness: Optional[complex]
    samples_checked: int

    def to_json(self) -> dict:
        w = None if self.witness is None else [self.witness.real, self.witness.imag]
        return {
            "verdict": self.verdict.value,
            "margin": None if math.isnan(self.margin) else self.margin,
            "witness": w,
            "samples": self.samples_checked,
        }


class ClassKind(Enum):
    G = "G"
    P_TILT = "P_TILT"
    U = "U"
    R = "R"
    STARLIKE = "STARLIKE"
    CONVEX = "CONVEX"
    STRONGLY_STARLIKE = "STRONGLY_STARLIKE"
    M_ALPHA = "M_ALPHA"


@dataclass(frozen=True)
class ClassSpec:
    """Which defining inequality to test, with its parameters.

    One constructor per kind, named after it in lower case, takes the
    parameters of its CLASSES entry in order, e.g. ClassSpec.u(lam, alpha)
    or ClassSpec.convex(); those fields are checked against their domains.
    """

    kind: ClassKind
    alpha: float = 0.0
    beta: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        check_fields(self, CLASSES[self.kind].params, OutOfRange)


def sector_margins(values: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Pointwise distance (radians) of arg(values) to the sector edges
    -beta*pi/2 and alpha*pi/2; negative where the sector is violated.

    Principal arguments, no unwrapping: for orders <= 1 the target sector
    never wraps, so a value on the negative real axis (arg = pi) is a
    genuine violation whenever the sector misses angle pi.
    """
    args = principal_arg(values)
    upper = alpha * math.pi / 2 - args
    lower = args + beta * math.pi / 2
    return np.minimum(upper, lower)


# ----------------------------------------------------------------------
# the class margins, each pointwise on the points z


def _lowest(values: np.ndarray, points: np.ndarray) -> tuple[float, complex]:
    idx = int(np.argmin(values))
    return float(values[idx]), complex(points[idx])


def _u_deviation(spec: "ClassSpec", f: AnalyticFunction, z: np.ndarray, w: dict) -> np.ndarray:
    return np.abs(np.asarray(evaluate_functional(FunctionalSpec.u_func(spec.alpha), f, z), dtype=complex) - 1)


# the functionals of the shape quotients, by order
_QUOTIENTS = (FunctionalSpec.starlike(), FunctionalSpec.convex())


def _jet_quotients(
    f: AnalyticFunction, z: np.ndarray, orders: tuple[int, ...], reach: Optional[float] = None
) -> list[np.ndarray]:
    """The shape quotients z f'/f (order 0) and 1 + z f''/f' (order 1) from the jet, in order."""
    return [np.asarray(evaluate_functional(_QUOTIENTS[k], f, z), dtype=complex) for k in orders]


def _taylor_quotients(
    f: AnalyticFunction, z: np.ndarray, orders: tuple[int, ...], reach: Optional[float] = None
) -> list[np.ndarray]:
    """A Taylor series' shape quotients with no jet-memo entry: from f, f'
    and f'' by Horner's rule, each quotient after its functional's guard and
    from its functional's own expression, so with the jet's bits."""
    jet: list[np.ndarray] = []
    out = []
    for k in orders:
        spec = _QUOTIENTS[k]
        entry = FUNCTIONALS[spec.kind]
        while len(jet) <= k + 1:  # z f'/f reads f and f', 1 + z f''/f' also f''
            jet.append(f._eval_taylor(z, len(jet)))
        _guard(jet[k], entry.divides_by[0], z)
        out.append(entry.evaluate(spec, z, jet, None))
    return out


class _Class(NamedTuple):
    token: str  # the CLI name
    params: tuple[Param, ...]  # in CLI grammar order, named as ClassSpec fields
    # (spec, f, z, w) -> the margin at each point, negative where the
    # inequality fails; with a bound, the deviation at each point instead.
    # w maps each order that ``quotients`` lists to the shape quotient at
    # each point, and a shape class reads f through w alone
    margins: Callable
    # derivative orders of f whose zeros make the margin singular: one that
    # divides by f or f' (or takes the argument of a value that vanishes
    # with it) is unbounded, or sweeps every angle, near such a zero, so the
    # property fails there; class_reader counts the zeros of each inside a
    # ring from the shape quotient of that order, whichever values the
    # margin reads.  Order -1 stands for f/z, singular at the origin unless
    # f(0) = 0 (closed_form_bound)
    singular: tuple[int, ...]
    # (spec) -> the bound that the deviation must stay below: the margin is
    # bound - deviation and the worst point is the first largest deviation,
    # which bound - deviation can tie with an earlier point after rounding
    bound: Optional[Callable[["ClassSpec"], float]] = None
    # the orders of the shape quotients that the margin reads: 0 for z f'/f,
    # 1 for 1 + z f''/f'; () for a class that reads the jet
    quotients: tuple[int, ...] = ()


CLASSES: dict[ClassKind, _Class] = {
    ClassKind.STARLIKE: _Class("starlike", (), lambda s, f, z, w: np.real(w[0]), (0,), quotients=(0,)),
    ClassKind.CONVEX: _Class("convex", (), lambda s, f, z, w: np.real(w[1]), (1,), quotients=(1,)),
    # R reads f/z, which has a pole at the origin when f(0) != 0: Re f/z is
    # unbounded below near it, so the ring at tol fails and R's radius is 0.
    # P_TILT reads f, analytic on the whole disk.
    ClassKind.R: _Class("R", (), lambda s, f, z, w: np.real(f.eval(z, 0) / z), (-1,)),
    ClassKind.G: _Class(
        "G",
        SECTOR_ORDERS,
        lambda s, f, z, w: sector_margins(f.eval(z, 0), s.alpha, s.beta),
        (0,),
    ),
    ClassKind.P_TILT: _Class(
        "P_TILT",
        (Param("lam", "(-pi/2, pi/2)", "tilt must lie in"),),
        lambda s, f, z, w: np.real(np.exp(1j * s.lam) * f.eval(z, 0)),
        (),
    ),
    ClassKind.U: _Class(
        "U",
        (RADIUS_LAMBDA, RADIUS_ORDER),
        _u_deviation,
        (0,),
        lambda s: s.lam,
    ),
    # definitional identity: the sector test applied to z f'/f
    ClassKind.STRONGLY_STARLIKE: _Class(
        "SS",
        (Param("alpha", "(0, 1]", "strong order must lie in"),),
        lambda s, f, z, w: sector_margins(w[0], s.alpha, s.alpha),
        (0, 1),
        quotients=(0,),
    ),
    # alpha * (1 + z f''/f') + (1 - alpha) * z f'/f; read as its margin class at alpha 0 or 1
    ClassKind.M_ALPHA: _Class(
        "M", (Param("alpha"),), lambda s, f, z, w: np.real(s.alpha * w[1] + (1 - s.alpha) * w[0]), (0, 1), quotients=(0, 1)
    ),
}
add_constructors(ClassSpec, CLASSES)
# the classes of M_alpha's two terms alone, by order: its margin classes
_SHAPE_CLASSES = (ClassSpec.starlike(), ClassSpec.convex())


def _quotient_mean(
    f: AnalyticFunction, z: np.ndarray, w: np.ndarray, order: int, r: float, origin: int
) -> tuple[complex, complex]:
    """The mean of w, the shape quotient of the given order on the ring z of
    radius r, less origin, its value at the origin, and the mean of z w, each
    less the ring's share of a product's factor poles
    (AnalyticFunction._pole_aliasing): the count of the zeros of f (order 0)
    or f' (order 1) inside the ring, as a complex number, and their sum."""
    mean = complex(w.sum()) / w.size - f._pole_aliasing(order, r, w.size) - origin
    return mean, complex((z * w).sum()) / w.size - f._pole_aliasing(order, r, w.size, True)


def closed_form_bound(spec: ClassSpec, f: AnalyticFunction) -> float:
    """The radius from which on no ring of the class passes, where a closed
    form gives it and a zero count would not: 0 for R when f(0) != 0, as
    f/z then has a pole at the origin; for a class that counts zeros, a
    Moebius product's first factor zero 1/|u| (|u| > 1), where f has a zero
    or a pole, so that a zero and a pole inside a ring cannot cancel in its
    count; inf otherwise."""
    orders = CLASSES[margin_class(spec).kind].singular
    if -1 in orders and f._origin_order(0) == 0:
        return 0.0
    if f._largest_u > 1 and max(orders, default=-1) >= 0:
        return min(1 / abs(u) for u, _ in f.terms if abs(u) > 1)
    return math.inf


def margin_class(spec: ClassSpec) -> ClassSpec:
    """The class whose CLASSES entry the margins and searches of spec read:
    M_alpha with one term of weight 1 (alpha 0, -0.0 or 1) is STARLIKE or
    CONVEX, and any other spec is its own.  Two specs with the same margin
    class have the same radius for every function."""
    if spec.kind is ClassKind.M_ALPHA and spec.alpha in (0, 1):
        return _SHAPE_CLASSES[int(spec.alpha)]
    return spec


def _class_values(spec: ClassSpec, f: AnalyticFunction, quotients: Callable, counted: Sequence[int] = ()) -> Callable:
    """(z, reach) -> the class margin of f at each point of z, or for a class
    with a bound the deviation, and the shape quotients read, by order: those
    of the margin and those of the counted orders, in one quotients(z,
    orders, reach) call, made only where there are any.  spec is a margin
    class (margin_class); its margin and quotient orders are fixed here."""
    cls = CLASSES[spec.kind]
    orders = tuple(sorted({*cls.quotients, *counted}))

    def values(z: np.ndarray, reach: Optional[float]) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        w = dict(zip(orders, quotients(z, orders, reach))) if orders else {}
        return cls.margins(spec, f, z, w), w

    return values


def _worst(spec: ClassSpec, values: np.ndarray) -> tuple[np.ndarray, int]:
    """The margins from _class_values' values and the index of the worst."""
    bound = CLASSES[spec.kind].bound
    if bound is None:
        return values, int(values.argmin())
    return bound(spec) - values, int(values.argmax())


def class_margins(spec: ClassSpec, f: AnalyticFunction, z: np.ndarray) -> tuple[np.ndarray, int]:
    """The class margin of f at each point of z, negative where the defining
    inequality fails, and the index of the worst point.

    check_membership reports that point and its margin.  A shape class
    (STARLIKE, CONVEX, STRONGLY_STARLIKE, M_ALPHA) reads f through its
    shape quotients, from the jet as evaluate_functional gives them; the
    other classes read the jet directly.  Each margin depends on its own
    point alone, bit for bit, so a point's margin is the same whichever
    array it is evaluated in.  Raises EvaluationError where f or its
    functional cannot be evaluated, and NonFiniteValue, witnessed by the
    first such point, where a margin overflows or turns NaN.  The radius
    search reads these margins through class_reader, which takes the same
    class dispatch (_class_values) once per search and reads a shape
    class's quotients with no jet-memo entry.
    """
    values = _class_values(margin_class(spec), f, functools.partial(_jet_quotients, f))
    return _worst(spec, _finite(f"{CLASSES[spec.kind].token} margin", z, lambda: values(z, None)[0]))


# a read of one radius search: (points z, none of them 0, a radius that none
# of them lies beyond) -> the class margins at z, the index of the worst
# point and the zero count of z; None where the margins cannot be read.
# The zero count gives for each singular order of the class the mean over z
# of that order's shape quotient (see class_reader) less its value at the
# origin, which on a ring is the number of zeros of the order's factor
# inside it; called with moment=True, that mean as a complex number paired
# with the first moment, which on a ring is the sum of those zeros.  None
# where it cannot be read
ZeroCount = Callable[..., Optional[list]]
MarginRead = Callable[[np.ndarray, float], Optional[tuple[np.ndarray, int, ZeroCount]]]


def class_reader(spec: ClassSpec, f: AnalyticFunction) -> MarginRead:
    """The margin read of one radius search: the class margins of f at the
    points it is given, with the class's margin, its quotient orders and
    the member's variant fixed here, once per search, and the count of the
    zeros that make the margin singular inside a ring.

    A shape class reads a Moebius member's quotients in closed form
    (AnalyticFunction._shape_quotients, its factor bound taken from the
    read's reach) and a Taylor member's by Horner's rule
    (_taylor_quotients); neither fills the jet memo.  Every other class
    reads the jet, as class_margins does.  Each read takes one np.errstate;
    its margins are, bit for bit, those of the public shape_quotients for a
    Moebius shape class and those of class_margins otherwise.  A read that
    raises, or whose arithmetic overflows, is None: the search never asks
    where, so a shape class's overflow is computed once.

    The count is taken by the argument principle: the mean of Re z F'/F
    over a ring is the number of zeros of F inside it, its order at the
    origin included, and the trapezoid rule of the ring's samples gives
    that mean with an error that falls geometrically in the angle count,
    unless a zero lies within a few sample spacings of the ring.  For the
    zeros of f (order 0) the quotient is z f'/f, for those of f' (order 1)
    it is 1 + z f''/f', one more than z f''/f'.  Every class reads the
    quotients of its counted orders as a shape class does, in the one
    quotients call that reads its margin's, and sums them by one mean
    (means, below): in the read itself where every point passes (a read
    whose sum overflows is None as well), and for a read that fails by its
    samples when asked, in an np.errstate of its own.  The value at the
    origin, from the coefficients (AnalyticFunction._origin_order), is
    subtracted, so a zero at the origin is never counted: it cancels in the
    quotients.  A Moebius product's factor poles -1/u lie outside every
    ring but leave a share in the mean of a ring near them, which
    AnalyticFunction._pole_aliasing gives in closed form and the count
    subtracts.  Asked with moment=True, the count gives the mean of z times
    each quotient instead, the sum of the zeros inside, paired with the
    quotient's complex mean (_quotient_mean): one zero inside is then
    located.  R's pole of f/z at the origin is closed_form_bound's.
    """
    if f.variant is Variant.MOBIUS_POWER_PRODUCT:
        quotients = f._shape_quotients
    else:
        quotients = functools.partial(_taylor_quotients, f)
    spec = margin_class(spec)
    counted = [k for k in CLASSES[spec.kind].singular if k >= 0]
    origin = [k + f._origin_order(k) for k in counted]
    values = _class_values(spec, f, quotients, counted)

    def means(w: dict[int, np.ndarray], reach: float) -> list[float]:
        # the mean of Re w[k] over a ring of radius reach for each counted
        # order k, less its value at the origin and less the ring's share of
        # the factor poles, which _pole_aliasing gives as 0 at once for
        # most rings
        got = []
        for k, o in zip(counted, origin):
            size = w[k].size
            got.append(float(np.add.reduce(w[k].real)) / size - o - f._pole_aliasing(k, reach, size).real)
        return got

    def zeros(z: np.ndarray, reach: float, w: dict[int, np.ndarray], moment: bool) -> Optional[list]:
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                if moment:
                    return [_quotient_mean(f, z, w[k], k, reach, o) for k, o in zip(counted, origin)]
                return means(w, reach)
        except FloatingPointError:
            return None

    def read(z: np.ndarray, reach: float) -> Optional[tuple[np.ndarray, int, ZeroCount]]:
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                out, w = values(z, reach)
                margins, worst = _worst(spec, out)
                got = means(w, reach) if margins[worst] > 0 else None  # every point passes
        except (FloatingPointError, EvaluationError):
            return None
        return margins, worst, lambda moment=False: got if got is not None and not moment else zeros(z, reach, w, moment)

    return read


def check_membership(
    spec: ClassSpec,
    f: AnalyticFunction,
    grid: Optional[DiskGrid] = None,
    eps: float = 1e-9,
) -> MembershipReport:
    """Grid verdict for the defining inequality of the selected class.

    An evaluation error, or a margin that overflows or turns NaN, gives
    UNDECIDED with no samples checked, witnessed by the point where it
    arose.
    """
    grid = grid or default_grid()
    z = grid.points
    try:
        margins, worst = class_margins(spec, f, z)
    except EvaluationError as exc:
        return MembershipReport(Verdict.UNDECIDED, math.nan, exc.witness, 0)
    margin = float(margins[worst])
    return MembershipReport(classify(margin, eps), margin, complex(z[worst]), z.size)


# ----------------------------------------------------------------------
# forbidden-set predicates


class SlitCheck(NamedTuple):
    avoided: bool
    min_distance: float
    witness: complex


class RegionCheck(NamedTuple):
    contained: bool
    margin: float
    witness: complex


def ray_distances(values: np.ndarray, anchor: complex, direction: Direction) -> np.ndarray:
    """Euclidean distance of each value to the closed vertical ray."""
    values = np.asarray(values, dtype=complex)
    t = direction.value * (values.imag - anchor.imag)
    horizontal = np.abs(values.real - anchor.real)
    to_anchor = np.abs(values - anchor)
    return np.where(t >= 0, horizontal, to_anchor)


def slit_avoidance(values: Sequence[complex], slit: SlitSpec, eps: float = 1e-9) -> SlitCheck:
    """Whether every value keeps distance > eps from every ray of the slit."""
    vals = np.asarray(values, dtype=complex).ravel()
    if vals.size == 0:
        raise BadGridSpec("no values supplied")
    if not slit.rays:
        return SlitCheck(True, math.inf, complex(vals[0]))
    dist = np.full(vals.shape, np.inf)
    for ray in slit.rays:
        dist = np.minimum(dist, ray_distances(vals, ray.anchor, ray.direction))
    d, witness = _lowest(dist, vals)
    return SlitCheck(d > eps, d, witness)


def region_containment(values: Sequence[complex], region: RegionSpec, eps: float = 1e-9) -> RegionCheck:
    """Whether every value satisfies the region inequality with slack >= eps."""
    vals = np.asarray(values, dtype=complex).ravel()
    if vals.size == 0:
        raise BadGridSpec("no values supplied")
    k = region.kind
    if k is RegionKind.HALF_PLANE:
        margins = vals.real - region.x
    elif k is RegionKind.RECTANGLE:
        margins = np.minimum(region.x - np.abs(vals.real), region.y - np.abs(vals.imag))
    elif k is RegionKind.DISK:
        margins = region.radius - np.abs(vals - region.center)
    elif k is RegionKind.ELLIPSE:
        c = region.c
        if region.major_is_x:
            total = np.abs(vals - c) + np.abs(vals + c)
            margins = 2 * region.x - total
        else:
            total = np.abs(vals - 1j * c) + np.abs(vals + 1j * c)
            margins = 2 * region.y - total
    else:  # pragma: no cover
        raise OutOfRange(f"unknown region kind {k!r}")
    m, witness = _lowest(margins, vals)
    return RegionCheck(m >= eps, m, witness)
