"""Numerical radius estimates: largest sampled disk on which a property holds.

Every class margin is superharmonic in z wherever its functional is
analytic: it is the real part or the argument of a functional, a minimum
of such terms, or lam - |U - 1|.  By the minimum principle the worst
margin on the disk of radius r then lies on the circle of radius r and
can only fall as r grows, until the first zero of a factor that the
functional divides by or takes the argument of.  The search therefore
finds that singular radius from polynomial roots and bisects on the
rings below it.  The roots do not locate one other break: U takes the
principal power of z/f, which jumps where z/f crosses the negative real
axis.  The tests compare the search with an outward ring march over the
shipped families and find no disagreement.

The ring test is one-sided in the permissive direction (a violation can
hide between samples) but with 720 angles per ring the estimates land
within the bisection tolerance of the true radius for every function
handled here; the tests cross-check against closed forms, dense scans
and an outward ring march.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import _COEFF_TOL, AnalyticFunction, Variant
from .errors import BadFamilySpec, InvalidBracket, NoSignChange, OutOfRange
from .membership import CLASSES, ClassSpec, DiskGrid, check_membership
from .theorems import FamilyMember, FunctionFamily, make_family


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


def _ring_passes(f: AnalyticFunction, spec: ClassSpec, r: float, angles: int) -> bool:
    rep = check_membership(spec, f, DiskGrid((r,), angles), eps=0.0)
    if math.isnan(rep.margin):
        return False
    return rep.margin > 0


def _mobius_derivative_poly(f: AnalyticFunction) -> np.ndarray:
    """Coefficients, lowest first, of q prod(1 + u_i z) + z sum e_i u_i prod_{j != i}(1 + u_j z).

    f' = z^(q-1) g (q + z sum e_i u_i/(1 + u_i z)) with g zero-free on the
    disk, so off the origin f' vanishes exactly where this polynomial does.
    """
    factors = [np.array([1, u], dtype=complex) for u, _ in f.terms]

    def product(skip: int) -> np.ndarray:
        acc = np.ones(1, dtype=complex)
        for i, fac in enumerate(factors):
            if i != skip:
                acc = np.convolve(acc, fac)
        return acc

    out = f.q * product(-1)
    for i, (u, e) in enumerate(f.terms):
        out[1:] += e * u * product(i)
    return out


def _zero_radius(f: AnalyticFunction, order: int) -> float:
    """Smallest |z| in (0, 1) at which f (order 0) or f' (order 1) vanishes; inf if none."""
    if f.variant is Variant.TAYLOR:
        coeffs = np.asarray(f.coeffs, dtype=complex)
        if order:
            coeffs = coeffs[1:] * np.arange(1, coeffs.size)
    elif order == 0:
        return math.inf  # 1 + u z has no zero in the open disk when |u| <= 1
    else:
        coeffs = _mobius_derivative_poly(f)
    # a zero at the origin cancels in the functionals (or fails the ring
    # at tol); low coefficients within the tags' slack of 0 are part of it
    nonzero = np.flatnonzero(np.abs(coeffs) > _COEFF_TOL)
    if nonzero.size == 0:
        return math.inf
    radii = np.abs(np.roots(coeffs[nonzero[0] :][::-1]))
    inside = radii[radii < 1]
    return float(inside.min()) if inside.size else math.inf


def _singular_radius(f: AnalyticFunction, spec: ClassSpec) -> float:
    """Smallest |z| in (0, 1) where the class functional of f is singular; inf if none."""
    orders = CLASSES[spec.kind].singular(spec)
    return min((_zero_radius(f, k) for k in orders), default=math.inf)


def property_radius(
    f: AnalyticFunction,
    spec: ClassSpec,
    grid_angles: int = 720,
    tol: float = 1e-4,
) -> float:
    """Radius of the largest sampled disk on which the class inequality holds.

    Below the singular radius rho of the class functional (see the module
    docstring) the passing rings form an interval [tol, r*), so a plain
    bisection on [tol, min(rho, 1 - tol)], with rho counted as a failing
    ring, finds r* to tol.  Returns 1 - tol when the functional has no
    singularity in the disk and the ring at 1 - tol passes, and 0.0 when
    the innermost ring fails or rho lies inside it.
    """
    if not 0 < tol < 0.5:
        raise OutOfRange(f"tolerance must lie in (0, 0.5), got {tol}")
    rho = _singular_radius(f, spec)
    if rho <= tol or not _ring_passes(f, spec, tol, grid_angles):
        return 0.0
    lo, hi = tol, min(rho, 1 - tol)
    if rho > 1 - tol and _ring_passes(f, spec, hi, grid_angles):
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _ring_passes(f, spec, mid, grid_angles):
            lo = mid
        else:
            hi = mid
    return lo


class FamilyRadius(NamedTuple):
    radius: float
    witness_label: str


def family_property_radius(
    family: Union[FunctionFamily, Sequence[FamilyMember]],
    spec: ClassSpec,
    grid_angles: int = 720,
    tol: float = 1e-4,
) -> FamilyRadius:
    """Smallest per-member property radius over a family, with the extremal label."""
    members = make_family(family)
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
    k = np.arange(angles)
    return r * np.exp(2j * np.pi * k / angles)


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
