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
and the derivatives of f whose zeros make that margin singular, which
singular_radius reduces to the first such zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import AnalyticFunction, principal_arg
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


@lru_cache(maxsize=8)
def unit_circle(angles: int) -> np.ndarray:
    """exp(2 pi i k/K) for k < K, built once per angle count and read-only."""
    k = np.arange(angles)
    ring = np.exp(2j * np.pi * k / angles)
    ring.flags.writeable = False
    return ring


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
        if self.angles_per_ring < 8:
            raise BadGridSpec(f"need at least 8 angles per ring, got {self.angles_per_ring}")
        object.__setattr__(self, "radii", tuple(sorted(self.radii)))
        ring = unit_circle(self.angles_per_ring)
        pts = (np.asarray(self.radii)[:, None] * ring[None, :]).ravel()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return len(self.radii) * self.angles_per_ring


def sample_grid(radii: Sequence[float], angles_per_ring: int) -> DiskGrid:
    return DiskGrid(tuple(float(r) for r in radii), int(angles_per_ring))


@lru_cache(maxsize=1)
def default_grid() -> DiskGrid:
    return DiskGrid(DEFAULT_RADII, DEFAULT_ANGLES)


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


_STARLIKE, _CONVEX = FunctionalSpec.starlike(), FunctionalSpec.convex()


def _starlike(f: AnalyticFunction, z: np.ndarray) -> np.ndarray:
    return np.asarray(evaluate_functional(_STARLIKE, f, z), dtype=complex)


def _convex(f: AnalyticFunction, z: np.ndarray) -> np.ndarray:
    return np.asarray(evaluate_functional(_CONVEX, f, z), dtype=complex)


def _u_deviation(spec: "ClassSpec", f: AnalyticFunction, z: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(evaluate_functional(FunctionalSpec.u_func(spec.alpha), f, z), dtype=complex) - 1)


def _m_weights(spec: "ClassSpec") -> dict[int, float]:
    """M_alpha's terms by the derivative order each divides by, with their
    weights: 1 - alpha on z f'/f (order 0) and alpha on 1 + z f''/f' (order
    1).  A term of weight 0 drops out."""
    return {k: w for k, w in ((0, 1 - spec.alpha), (1, spec.alpha)) if w != 0}


def _m_margins(spec: "ClassSpec", f: AnalyticFunction, z: np.ndarray) -> np.ndarray:
    weights = _m_weights(spec)
    if len(weights) == 1:  # the other term's weight is 0, so this one's is 1
        return np.real((_convex if 1 in weights else _starlike)(f, z))
    s, c = _starlike(f, z), _convex(f, z)
    return np.real(spec.alpha * c + (1 - spec.alpha) * s)


class _Class(NamedTuple):
    token: str  # the CLI name
    params: tuple[Param, ...]  # in CLI grammar order, named as ClassSpec fields
    # (spec, f, z) -> the margin at each point, negative where the inequality
    # fails; with a bound, the deviation at each point instead
    margins: Callable
    # derivative orders of f whose zeros make the margin singular: one that
    # divides by f or f' (or takes the argument of a value that vanishes
    # with it) is unbounded, or sweeps every angle, near such a zero, so the
    # property fails there; radii searches below the first one.  Order -1
    # stands for f/z, singular at the origin unless f(0) = 0
    singular: Callable[["ClassSpec"], tuple[int, ...]]
    # (spec) -> the bound that the deviation must stay below: the margin is
    # bound - deviation and the worst point is the first largest deviation,
    # which bound - deviation can tie with an earlier point after rounding
    bound: Optional[Callable[["ClassSpec"], float]] = None


CLASSES: dict[ClassKind, _Class] = {
    ClassKind.STARLIKE: _Class("starlike", (), lambda s, f, z: np.real(_starlike(f, z)), lambda s: (0,)),
    ClassKind.CONVEX: _Class("convex", (), lambda s, f, z: np.real(_convex(f, z)), lambda s: (1,)),
    # R reads f/z, which has a pole at the origin when f(0) != 0: Re f/z is
    # unbounded below near it, so the ring at tol fails and R's radius is 0.
    # P_TILT reads f, analytic on the whole disk.
    ClassKind.R: _Class("R", (), lambda s, f, z: np.real(f.eval(z, 0) / z), lambda s: (-1,)),
    ClassKind.G: _Class(
        "G",
        SECTOR_ORDERS,
        lambda s, f, z: sector_margins(f.eval(z, 0), s.alpha, s.beta),
        lambda s: (0,),
    ),
    ClassKind.P_TILT: _Class(
        "P_TILT",
        (Param("lam", "(-pi/2, pi/2)", "tilt must lie in"),),
        lambda s, f, z: np.real(np.exp(1j * s.lam) * f.eval(z, 0)),
        lambda s: (),
    ),
    ClassKind.U: _Class("U", (RADIUS_LAMBDA, RADIUS_ORDER), _u_deviation, lambda s: (0,), lambda s: s.lam),
    # definitional identity: the sector test applied to z f'/f
    ClassKind.STRONGLY_STARLIKE: _Class(
        "SS",
        (Param("alpha", "(0, 1]", "strong order must lie in"),),
        lambda s, f, z: sector_margins(_starlike(f, z), s.alpha, s.alpha),
        lambda s: (0, 1),
    ),
    # alpha * (1 + z f''/f') + (1 - alpha) * z f'/f: a term of weight 0 drops out
    ClassKind.M_ALPHA: _Class("M", (Param("alpha"),), _m_margins, lambda s: tuple(_m_weights(s))),
}
add_constructors(ClassSpec, CLASSES)


def singular_radius(spec: ClassSpec, f: AnalyticFunction) -> float:
    """Smallest |z| in [0, 1) where the class margin of f is singular: the
    first zero of a derivative order that its CLASSES entry lists as
    singular (f.zero_radius); inf if none."""
    return min((f.zero_radius(k) for k in CLASSES[spec.kind].singular(spec)), default=math.inf)


def class_margins(spec: ClassSpec, f: AnalyticFunction, z: np.ndarray) -> tuple[np.ndarray, int]:
    """The class margin of f at each point of z, negative where the defining
    inequality fails, and the index of the worst point.

    check_membership reports that point and its margin.  Each margin
    depends on its own point alone, bit for bit, so a point's margin is the
    same whichever array it is evaluated in.  Raises FloatingPointError
    where a margin overflows or turns NaN, and EvaluationError where f or
    its functional cannot be evaluated.
    """
    cls = CLASSES[spec.kind]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        values = cls.margins(spec, f, z)
        if cls.bound is None:
            return values, int(np.argmin(values))
        return cls.bound(spec) - values, int(np.argmax(values))


def check_membership(
    spec: ClassSpec,
    f: AnalyticFunction,
    grid: Optional[DiskGrid] = None,
    eps: float = 1e-9,
) -> MembershipReport:
    """Grid verdict for the defining inequality of the selected class.

    An evaluation error, or a margin that overflows or turns NaN, gives
    UNDECIDED with no samples checked.
    """
    grid = grid or default_grid()
    z = grid.points
    try:
        margins, worst = class_margins(spec, f, z)
    except FloatingPointError:
        return MembershipReport(Verdict.UNDECIDED, math.nan, None, 0)
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
