"""Numerical radius estimates: largest sampled disk on which a property holds.

Every class margin is superharmonic in z wherever its functional is
analytic: it is the real part or the argument of a functional, a minimum
of such terms, or lam - |U - 1|.  By the minimum principle the worst
margin on the disk of radius r then lies on the circle of radius r and
can only fall as r grows, until the first zero of a factor that the
functional divides by or takes the argument of.  The search therefore
finds that singular radius from polynomial roots (for R, whose f/z has a
pole at the origin unless f(0) = 0, it is 0 or none) and searches the
rings below it.  The roots do not locate one other break: U takes the
principal power of z/f, which jumps where z/f crosses the negative real
axis.  The tests compare the search with an outward ring march over the
shipped families and find no disagreement.

Three consequences shape the search.  When no singularity lies inside
the ring at 1 - tol, that ring is read first: if it passes, so does every
smaller one, and the radius is 1 - tol after one ring (most members of
the shipped families end here).  When it fails, its worst point names the
direction in which the margin breaks, and the search aims along that ray
before it reads another ring: the margin at 128 radii of the ray, read in
one vectorized call, locates the ray's first zero, and the ring just below
it is read.  A point's margin does not depend on the other points it is
evaluated with, so the ray's own point just above the zero, when it
fails, fails the ring through it without that ring being read; and when
the ring below the zero passes, so does every smaller ring, the ring at
tol among them.  Where the worst point holds still as r grows, as on the
Moebius-ratio family's radii of 1/2, a radius then costs 2 rings.  Where
it moves, the ring below the zero fails and its own worst point aims
again, at most three times.  Then, and whenever a singularity lies inside
the ring at 1 - tol, the ring at tol is read and the ring margin, not
just its sign, locates the radius: it is continuous and falling in r, so
an ITP search (interpolate, truncate, project; Oliveira and Takahashi,
ACM TOMS 47(1), 2021) narrows the bracket in hand by regula falsi where
the margin is near linear and falls back to bisection steps where it is
not.  Its projection keeps it within ceil(log2(width/tol)) rings, the
count of a plain bisection; the aims can add at most three to that, and
on the test matrix of 852 searches no search reads more rings than
bisection (1788 in all, against 2434 by ITP alone and 3699 by bisection).

The ring test is one-sided in the permissive direction (a violation can
hide between samples) but with 720 angles per ring the estimates land
within the search tolerance of the true radius for every function
handled here; the tests cross-check against closed forms, dense scans,
plain bisection and an outward ring march.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

from .core import AnalyticFunction
from .errors import BadFamilySpec, EvaluationError, InvalidBracket, NoSignChange, OutOfRange
from .membership import ClassSpec, DiskGrid, check_membership, class_margins, singular_radius, unit_circle
from .params import Param

if TYPE_CHECKING:
    from .theorems import FamilyMember


def poly_root_bisect(
    coeffs: Sequence[float], bracket: tuple[float, float], tol: float = 1e-12
) -> float:
    """Root of sum(coeffs[k] * r^k) in the bracket, by bisection.

    Requires a sign change across the bracket; an exact zero at an
    endpoint is accepted as the root.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise InvalidBracket(f"need lo < hi, got ({lo}, {hi})")

    def val(r: float) -> float:
        acc = 0.0
        for c in reversed(list(coeffs)):
            acc = acc * r + c
        return acc

    flo, fhi = val(lo), val(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise NoSignChange(f"no sign change on ({lo}, {hi}): f(lo)={flo:g}, f(hi)={fhi:g}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = val(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ring_margin(f: AnalyticFunction, spec: ClassSpec, r: float, angles: int) -> tuple[float, Optional[int]]:
    """The worst class margin on the ring |z| = r, with NaN read as -inf, and
    the angle index of its worst point (None when the ring has no margin)."""
    rep = check_membership(spec, f, DiskGrid((r,), angles), eps=0.0)
    if math.isnan(rep.margin):
        return -math.inf, None
    return rep.margin, round(cmath.phase(rep.witness) * angles / (2 * math.pi)) % angles


def _ring_passes(f: AnalyticFunction, spec: ClassSpec, r: float, angles: int) -> bool:
    return _ring_margin(f, spec, r, angles)[0] > 0


def _points(radii: np.ndarray, ks: Sequence[int], angles: int) -> np.ndarray:
    """The points r exp(2 pi i k/angles) for r in radii (outer) and k in ks.

    Each is the point that the ring at r samples at angle k, built by the
    same product as DiskGrid's, so it has the same bits and, by
    class_margins, the same margin.
    """
    return (radii[:, None] * unit_circle(angles)[None, ks]).ravel()


def _point_margins(f: AnalyticFunction, spec: ClassSpec, z: np.ndarray) -> Optional[np.ndarray]:
    """The class margins at the points z, or None where they cannot be evaluated."""
    try:
        return class_margins(spec, f, z)[0]
    except (FloatingPointError, EvaluationError):
        return None


# the search tolerance: above 0 so the ring at tol is a ring, not the
# origin (5e-324 underflows every sample to 0), and far enough from 0 that
# 1 - tol stays below 1 (1e-300 rounds it to 1); 1e-12 keeps both with
# room, at most 40 rings per radius
TOLERANCE = Param("tol", "[1e-12, 0.5)", "tolerance must lie in")

# ITP constants (Oliveira and Takahashi 2021), each with its reason:
_ITP_K1 = 0.4  # per unit of starting width; of 0.1 to 1.6 it read the fewest rings in the tests
_ITP_K2 = 2  # the truncation shrinks with the bracket squared, keeping regula falsi's fast steps
_ITP_N0 = 0  # no slack: never more rings than bisection's ceil(log2(width/tol))

# the aim along the failing ring's worst ray, each constant with its reason:
# radii sampled along the ray in one vectorized call, under a fifth of the
# points of a 720-angle ring.  At 64 or fewer, linear interpolation misses
# the zero of the Moebius-ratio family's radii of 1/2 by more than 0.45 tol
# (their margin falls to -1e4 at the ring at 1 - tol), and a radius-envelope
# round reads 66 rings instead of 50; 256 saves 2% of the test matrix's
# rings for twice the points
_AIM_SAMPLES = 128
# the ring read at (zero - 0.45 tol) and the point read at (zero + 0.45 tol)
# bracket the interpolated zero 0.9 tol wide: within tol with room to spare
# for rounding, and as far from the zero as that allows
_AIM_OFFSET = 0.45
# points of the ring at tol read with the first ray, one every 22.5
# degrees: a failing one fails that ring, which settles the radius at 0
# before any aimed ring is read.  Where a ring at tol fails on the test
# matrix, it fails on half its points or more
_TOL_SAMPLES = 16
# rays aimed before ITP takes over: a third failing aimed ring means the
# worst point moves around the ring as r grows, which a ray from one
# ring's worst point does not follow
_AIMS = 3


def property_radius(
    f: AnalyticFunction,
    spec: ClassSpec,
    grid_angles: int = 720,
    tol: float = 1e-4,
) -> float:
    """Radius of the largest sampled disk on which the class inequality holds.

    Below the singular radius rho of the class functional (see the module
    docstring) the ring margin falls as r grows, so the passing rings form
    an interval [tol, r*).  When rho lies beyond 1 - tol the ring there is
    read first and settles the search when it passes: the result is then
    1 - tol, from one ring.  When it fails, its worst point aims the search
    (_aim_search), which most often closes the bracket with one more ring.
    Otherwise the ring at tol is read (0.0 when it fails or rho lies inside
    it), and an ITP search on the ring margin (_margin_search) narrows the
    bracket in hand, at most [tol, min(rho, 1 - tol)] with rho counted as a
    failing ring of margin -inf, to a width <= tol.  The passing end is
    returned.
    """
    tol = TOLERANCE.check(tol, OutOfRange)
    rho = singular_radius(spec, f)
    if rho <= tol:
        return 0.0
    passing, failing, worst = None, (min(rho, 1 - tol), -math.inf), None
    if rho > 1 - tol:
        m_hi, worst = _ring_margin(f, spec, 1 - tol, grid_angles)
        if m_hi > 0:
            return 1 - tol
        failing = (1 - tol, m_hi)
    if worst is not None:
        passing, failing = _aim_search(f, spec, grid_angles, tol, failing, worst)
    if passing is None:
        m_lo, _ = _ring_margin(f, spec, tol, grid_angles)
        if not m_lo > 0:
            return 0.0
        passing = (tol, m_lo)
    return _margin_search(f, spec, grid_angles, tol, passing, failing)


def _aim_search(
    f: AnalyticFunction,
    spec: ClassSpec,
    angles: int,
    tol: float,
    failing: tuple[float, float],
    worst: int,
) -> tuple[Optional[tuple[float, float]], tuple[float, float]]:
    """Narrow the bracket between the ring at tol and a failing (radius,
    margin) pair along the ray through the failing ring's worst point, at
    angle index worst.

    The margin along that ray turns negative no earlier than the ring
    margin, and where the worst point holds still, at the same radius.
    Each aim reads the margin at _AIM_SAMPLES radii of the ray, from tol to
    the failing end (the first aim also reads _TOL_SAMPLES points of the
    ring at tol and stops when one fails), and interpolates its first zero
    linearly between the last passing and the first failing sample.  A
    failing point fails the ring through it, so that sample becomes the
    failing end without a ring read.  Then the ring at zero - 0.45 tol is
    read.  When it fails, it
    becomes the failing end and its own worst point aims again, at most
    _AIMS times.  When it passes, so does every smaller ring, the ring at
    tol among them, which is therefore not read; the ray's point at
    zero + 0.45 tol is read alone, and when that point fails, so does the
    ring through it: the bracket is then 0.9 tol wide and closed.  Returns
    the passing (radius, margin) pair, None when no ring passed, and the
    failing pair in hand.
    """
    hi, m_hi = failing
    ring_tol = _points(np.array([tol]), np.arange(0, angles, max(1, angles // _TOL_SAMPLES)), angles)
    for aim in range(_AIMS):
        radii = np.linspace(tol, hi, _AIM_SAMPLES)
        ray = _points(radii, [worst], angles)
        m = _point_margins(f, spec, np.concatenate([ray, ring_tol]) if aim == 0 else ray)
        if m is None or not (m[0] > 0 and m[_AIM_SAMPLES:].min(initial=math.inf) > 0):
            break  # the ray cannot be read, or the ring at tol fails
        m = m[:_AIM_SAMPLES]
        if m.min() > 0:
            break  # the ray does not change sign
        i = int(np.argmax(~(m > 0)))  # the first failing sample
        (r0, r1), (m0, m1) = radii[i - 1 : i + 1], m[i - 1 : i + 1]
        zero = float(r0 + (r1 - r0) * (m0 / (m0 - m1)))
        if r1 < hi:
            hi, m_hi = float(r1), float(m1)
        x = zero - _AIM_OFFSET * tol
        if not tol < x < hi:
            break
        m_x, k = _ring_margin(f, spec, x, angles)
        if not m_x > 0:
            hi, m_hi, worst = x, m_x, k
            if k is None:
                break
            continue
        near = zero + _AIM_OFFSET * tol
        if near < hi:
            m_near = _point_margins(f, spec, _points(np.array([near]), [worst], angles))
            if m_near is not None and not m_near[0] > 0:
                hi, m_hi = near, float(m_near[0])
        return (x, m_x), (hi, m_hi)
    return None, (hi, m_hi)


def _margin_search(
    f: AnalyticFunction,
    spec: ClassSpec,
    angles: int,
    tol: float,
    passing: tuple[float, float],
    failing: tuple[float, float],
) -> float:
    """ITP search for the last passing ring between a passing and a failing
    (radius, margin) pair; the passing radius once they lie within tol.

    Each step interpolates the zero of the margin linearly (regula falsi),
    truncates that point toward the midpoint and projects it into the
    interval around the midpoint that still ends within tol after
    ceil(log2(width/tol)) steps, so no bracket outlives a bisection's.
    While the failing margin is -inf (the end at rho, or a ring whose
    margin is NaN) there is nothing to interpolate and the step bisects.
    """
    (lo, m_lo), (hi, m_hi) = passing, failing
    width = hi - lo
    steps = max(0, math.ceil(math.log2(width / tol))) + _ITP_N0
    k1 = _ITP_K1 / width
    # a hair inside tol, so rounding never leaves the last bracket an ulp too wide
    reach = tol * (1 - 1e-9)
    j = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        x = mid
        if math.isfinite(m_hi):
            slack = max(0.0, 0.5 * (reach * 2.0 ** (steps - j) - (hi - lo)))
            falsi = (m_hi * lo - m_lo * hi) / (m_hi - m_lo)
            toward = math.copysign(1.0, mid - falsi)
            delta = k1 * (hi - lo) ** _ITP_K2
            x = falsi + toward * delta if delta <= abs(mid - falsi) else mid
            if abs(x - mid) > slack:
                x = mid - toward * slack
        m, _ = _ring_margin(f, spec, x, angles)
        if m > 0:
            lo, m_lo = x, m
        else:
            hi, m_hi = x, m
        j += 1
    return lo


class FamilyRadius(NamedTuple):
    radius: float
    witness_label: str


def family_property_radius(
    family: Sequence[FamilyMember],
    spec: ClassSpec,
    grid_angles: int = 720,
    tol: float = 1e-4,
) -> FamilyRadius:
    """Smallest per-member property radius over a family, with the extremal label."""
    members = list(family)
    if not members:
        raise BadFamilySpec("empty family")
    best: Optional[FamilyRadius] = None
    for mem in members:
        r = property_radius(mem.f, spec, grid_angles, tol)
        if best is None or r < best.radius:
            best = FamilyRadius(r, mem.label)
    return best


# ----------------------------------------------------------------------
# sharp kernel estimates used by the radius arguments


def _ring(r: float, angles: int) -> np.ndarray:
    if not 0 < r < 1:
        raise OutOfRange(f"ring radius must lie in (0, 1), got {r}")
    if angles < 8:
        raise OutOfRange(f"need at least 8 angles, got {angles}")
    return r * unit_circle(angles)


def caratheodory_log_derivative_min(u: float, v: float, r: float, angles: int = 720) -> float:
    """min over |z| = r of Re(z psi'/psi) for psi = (1 + u z)/(1 - v z)."""
    if not 0 <= u <= 1 or not 0 <= v <= 1:
        raise OutOfRange(f"coefficients must lie in [0, 1], got ({u}, {v})")
    z = _ring(r, angles)
    vals = z * (u / (1 + u * z) + v / (1 - v * z))
    return float(np.min(vals.real))


def caratheodory_log_derivative_bound(r: float) -> float:
    """Sharp lower bound -2r/(1 - r^2) for the ratio psi range."""
    if not 0 < r < 1:
        raise OutOfRange(f"radius must lie in (0, 1), got {r}")
    return -2 * r / (1 - r * r)


def constant_schwarz_term_min(c: complex, r: float, angles: int = 720) -> float:
    """min over |z| = r of Re(c z/(1 + c z)) for a constant of modulus <= 1."""
    if abs(c) > 1 + 1e-12:
        raise OutOfRange(f"constant must have modulus <= 1, got |c| = {abs(c)}")
    z = _ring(r, angles)
    w = c * z
    vals = w / (1 + w)
    return float(np.min(vals.real))


def constant_schwarz_term_bound(r: float) -> float:
    """Sharp lower bound -r/(1 - r) for the constant-coefficient term."""
    if not 0 < r < 1:
        raise OutOfRange(f"radius must lie in (0, 1), got {r}")
    return -r / (1 - r)
