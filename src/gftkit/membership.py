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

from .core import AnalyticFunction, _finite, _keep_logs_on, principal_arg
from .constants import RADIUS_LAMBDA, RADIUS_ORDER, SECTOR_ORDERS, Direction, RegionKind, RegionSpec, SlitSpec
from .errors import BadGridSpec, EvaluationError, OutOfRange
from .functionals import FunctionalSpec, evaluate_functional
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
        return 1 / f._largest_u
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


def _margins(spec: ClassSpec, f: AnalyticFunction, z: np.ndarray, quotients: Callable) -> tuple[np.ndarray, int]:
    """class_margins with the shape quotients read from quotients(z, orders, reach)."""
    values = _class_values(margin_class(spec), f, quotients)
    return _worst(spec, _finite(f"{CLASSES[spec.kind].token} margin", z, lambda: values(z, None)[0]))


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
    class's quotients from the member's own f._shape_quotients, with no
    jet-memo entry.
    """
    return _margins(spec, f, z, functools.partial(_jet_quotients, f))


# the reads of one radius search (class_reader): ring reads, counts and ends
# the ring |z| = r at the given angles, (r, angles) -> (end, margin, worst);
# margins reads the class margins alone, of the same arithmetic, for the
# points of a ray or a ring that no count is asked of, None where they
# cannot be read
class SearchReader(NamedTuple):
    ring: Callable[[float, int], tuple[float, float, Optional[int]]]
    margins: Callable[[np.ndarray, float], Optional[np.ndarray]]


def _read(read: Callable) -> Callable:
    """read inside one np.errstate that raises numpy's float errors, and None
    where it raises one of them or an EvaluationError: the read of a radius
    search that the search treats as failed."""

    def guarded(*args):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return read(*args)
        except (FloatingPointError, EvaluationError):
            return None

    return guarded


# a count within this of an integer is that integer: on 12,000 random
# convex rings none was wrong at 720 angles, and a zero must lie within
# about 3e-4 relative of the ring to leave the mean farther from one
_COUNT_SLACK = 1e-6
# how far past a zero located by a count's first moment a ring ends,
# relative to the ring: ten times the largest error of the moment, 9.2e-7,
# on 3699 random one-zero rings whose count lay within _COUNT_SLACK, so no
# passing ring is skipped, and a tenth of the default tol, so the search's
# bracket stays as narrow as the zero allows
_ZERO_SLACK = 1e-5
# the most angles a ring is read at: the top of ANGLES' domain
_MAX_ANGLES = 2**16


def class_reader(spec: ClassSpec, f: AnalyticFunction) -> SearchReader:
    """The reads of one radius search of f, with the class's margin, its
    quotient orders and the member's quotient read fixed here, once per
    search: ring(r, angles) reads, counts and ends the ring |z| = r, and
    margins(z, reach) reads the class margins alone at the points of a ray
    or of a ring.

    A shape class reads its quotients from f._shape_quotients, which each
    representation owns (see the core module): a Moebius member's in closed
    form, its factor bound taken from the read's reach, and a Taylor
    member's by Horner's rule, with the jet's bits; neither fills the jet
    memo.  Every other class reads the jet, as class_margins does.  Each
    read takes its margins in one np.errstate (_read); they are, bit for
    bit, those of the public shape_quotients for a shape class (for a
    Taylor member also those of class_margins) and those of class_margins
    for every other class, and a margins read's are its ring read's.  A read
    that raises, or whose arithmetic overflows, is None: the search never
    asks where, so a shape class's overflow is computed once.

    ring gives (end, margin, worst): the worst class margin by the ring's
    samples, NaN read as -inf, the angle index of its worst point, and the
    radius from which rings fail, r unless a zero is located below it.  The
    ring passes when margin > 0.  Every readable ring counts the zeros of
    each singular order inside it by the argument principle: the mean of
    Re z F'/F over a ring is the number of zeros of F inside it, its order
    at the origin included, and the trapezoid rule of the ring's samples
    gives that mean with an error that falls geometrically in the angle
    count, unless a zero lies within a few sample spacings of the ring.
    The quotient is z f'/f for the zeros of f (order 0) and 1 + z f''/f',
    one more than z f''/f', for those of f' (order 1); every class reads
    those of its counted orders in the one quotients call that reads its
    margin's, and the ring read takes their means in its own np.errstate,
    whether its samples pass or fail.  Their value at the origin
    (AnalyticFunction._origin_order) is subtracted, so a zero at the origin
    is never counted, and so is the share of a Moebius product's factor
    poles -1/u, which lie outside every ring, in the mean of a ring near
    them (AnalyticFunction._pole_aliasing).  While a mean lies more than
    _COUNT_SLACK from an integer, a ring that passes by its samples is read
    again at twice the angles, up to _MAX_ANGLES, for its count alone
    (_zero_count).  A ring whose count shows a singular zero inside, or
    that passes by its samples with its count undecided, fails with margin
    -inf and no worst point, as near such a zero the worst point marks the
    zero rather than where the margin falls through 0.  Where each order
    has at most one zero inside, the mean of z times its quotient is that
    zero, with an error of about the complex mean's distance from its count
    times r: trusted within _COUNT_SLACK, it ends the ring at the nearest
    zero, widened by _ZERO_SLACK r (_first_zero).  R's pole of f/z at the
    origin is closed_form_bound's.
    """
    read, moments, margins = _reads(spec, f)
    return SearchReader(functools.partial(_ring_end, read, moments), margins)


def _reads(spec: ClassSpec, f: AnalyticFunction) -> tuple[Callable, Callable, Callable]:
    """class_reader's reads of points, each None where it cannot be read:
    read(z, reach) -> the class margins at z, the index of the worst point,
    the count's mean for each counted order and the shape quotients read, by
    order; moments(z, reach, w) -> for each counted order, the complex mean
    of its quotient in w and the mean of z times it, which on a ring is the
    sum of the zeros inside; margins(z, reach) -> the class margins alone."""
    spec = margin_class(spec)
    counted = [(k, k + f._origin_order(k)) for k in CLASSES[spec.kind].singular if k >= 0]
    values = _class_values(spec, f, f._shape_quotients, [k for k, _ in counted])

    @_read
    def read(z: np.ndarray, reach: float) -> tuple[np.ndarray, int, list[float], dict[int, np.ndarray]]:
        out, w = values(z, reach)
        margins, worst = _worst(spec, out)
        # the mean of Re w[k] over a ring of radius reach for each counted
        # order k, less its value at the origin and less the ring's share of
        # the factor poles, which _pole_aliasing gives as 0 at once for
        # most rings
        means = [
            float(np.add.reduce(w[k].real)) / w[k].size - o - f._pole_aliasing(k, reach, w[k].size).real
            for k, o in counted
        ]
        return margins, worst, means, w

    @_read
    def moments(z: np.ndarray, reach: float, w: dict[int, np.ndarray]) -> list[tuple[complex, complex]]:
        return [
            (
                complex(w[k].sum()) / w[k].size - f._pole_aliasing(k, reach, w[k].size) - o,
                complex((z * w[k]).sum()) / w[k].size - f._pole_aliasing(k, reach, w[k].size, True),
            )
            for k, o in counted
        ]

    @_read
    def margins(z: np.ndarray, reach: float) -> np.ndarray:
        return _worst(spec, values(z, reach)[0])[0]

    return read, moments, margins


def _ring_end(read: Callable, moments: Callable, r: float, angles: int) -> tuple[float, float, Optional[int]]:
    """SearchReader.ring from the point reads of _reads; see class_reader."""
    z = ring_points(np.array([r]), slice(None), angles)
    got = read(z, r)
    margin = math.nan if got is None else float(got[0][got[1]])
    if math.isnan(margin):
        return r, -math.inf, None
    _, worst, means, w = got
    counts = _zero_count(read, r, angles, means, reread=margin > 0)
    if counts is not None and any(counts):
        return _first_zero(lambda: moments(z, r, w), counts, r), -math.inf, None
    if counts is None and margin > 0:
        return r, -math.inf, None
    return r, margin, worst


def _zero_count(read: Callable, r: float, angles: int, means: list[float], reread: bool = True) -> Optional[list[int]]:
    """The zeros inside the ring |z| = r of each counted order, from the
    means of its read; None when undecided or when a re-read is None."""
    while True:
        counts = []
        for m in means:
            counts.append(round(m))
            if abs(m - counts[-1]) > _COUNT_SLACK:
                break
        else:
            return counts
        if not reread:
            return None
        angles *= 2
        got = None if angles > _MAX_ANGLES else read(ring_points(np.array([r]), slice(None), angles), r)
        if got is None:
            return None
        means = got[2]


def _first_zero(moments: Callable, counts: list[int], r: float) -> float:
    """The end of a ring of radius r whose counts show singular zeros inside,
    from each order's complex mean and first moment, as moments() gives them."""
    if max(counts) > 1 or min(counts) < 0:
        return r
    got = moments() or ()
    located = [abs(s) for c, (m, s) in zip(counts, got) if c and abs(m - c) <= _COUNT_SLACK]
    if len(located) < sum(counts):
        return r
    return min(r, min(located) + _ZERO_SLACK * r)


def _report(
    spec: ClassSpec, f: AnalyticFunction, z: np.ndarray, quotients: Callable, eps: float = 1e-9
) -> MembershipReport:
    """The verdict of the margins of f at z (_margins), at their worst point;
    UNDECIDED with no samples checked, witnessed by the point where it
    arose, where they cannot be evaluated or are not finite."""
    try:
        margins, worst = _margins(spec, f, z, quotients)
    except EvaluationError as exc:
        return MembershipReport(Verdict.UNDECIDED, math.nan, exc.witness, 0)
    margin = float(margins[worst])
    return MembershipReport(classify(margin, eps), margin, complex(z[worst]), z.size)


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
    return _report(spec, f, grid.points, functools.partial(_jet_quotients, f), eps)


def ring_membership(spec: ClassSpec, f: AnalyticFunction, grid: DiskGrid) -> MembershipReport:
    """check_membership with the shape quotients read as the radius search
    reads a ring (f._shape_quotients): a shape class of a Moebius member in
    closed form, with no logarithm, exponential or jet-memo entry, and of a
    Taylor member with the jet's bits and no memo entry; every other class
    reads the jet.  The closed form's margins agree with the jet's to
    rounding.  They differ in kind only where the jet cannot be evaluated
    but the quotients can: a jet that overflows while its quotients stay
    finite is decided here, as the radius search decides it, and an
    overflow is witnessed by the first point where a quotient is not
    finite rather than the first where the jet is not."""
    return _report(spec, f, grid.points, f._shape_quotients)


# ----------------------------------------------------------------------
# forbidden-set predicates


# the verdict of each is classify's, of min_distance or margin
class SlitCheck(NamedTuple):
    min_distance: float
    witness: complex


class RegionCheck(NamedTuple):
    margin: float
    witness: complex


def ray_distances(values: np.ndarray, anchor: complex, direction: Direction) -> np.ndarray:
    """Euclidean distance of each value to the closed vertical ray."""
    values = np.asarray(values, dtype=complex)
    t = direction.value * (values.imag - anchor.imag)
    horizontal = np.abs(values.real - anchor.real)
    to_anchor = np.abs(values - anchor)
    return np.where(t >= 0, horizontal, to_anchor)


def slit_avoidance(values: Sequence[complex], slit: SlitSpec) -> SlitCheck:
    """The least distance of the values from the rays of the slit, and the first value at it."""
    vals = np.asarray(values, dtype=complex).ravel()
    if vals.size == 0:
        raise BadGridSpec("no values supplied")
    if not slit.rays:
        return SlitCheck(math.inf, complex(vals[0]))
    dist = np.full(vals.shape, np.inf)
    for ray in slit.rays:
        dist = np.minimum(dist, ray_distances(vals, ray.anchor, ray.direction))
    return SlitCheck(*_lowest(dist, vals))


def region_containment(values: Sequence[complex], region: RegionSpec) -> RegionCheck:
    """The least slack of the values in the region inequality, and the first value at it."""
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
    return RegionCheck(*_lowest(margins, vals))
