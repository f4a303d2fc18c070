"""Radius search (a margin search over rings that pass by their samples and
by their count of singular zeros, aimed along the failing ring's worst
ray, checked against plain bisection and the outward ring march it
replaced), the zero counts checked against polynomial roots, the pointwise
class margins it reads, the quadratic root oracle, and the envelope
property that ties empirical radii to the closed forms."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gftkit import (
    ATag,
    AnalyticFunction,
    BadFamilySpec,
    BadGridSpec,
    ClassKind,
    ClassSpec,
    DiskGrid,
    EvaluationError,
    FamilyMember,
    FunctionalSpec,
    HTag,
    InvalidBracket,
    NoSignChange,
    OutOfRange,
    Verdict,
    caratheodory_log_derivative_bound,
    caratheodory_log_derivative_min,
    check_membership,
    constant_schwarz_term_bound,
    constant_schwarz_term_min,
    default_grid,
    evaluate_functional,
    family_property_radius,
    half_plane_map,
    koebe_like,
    make_family,
    mobius_ratio_family,
    poly_root_bisect,
    property_radius,
    radius_convexity,
    radius_inv_alpha_convexity,
    random_taylor_family,
    sample_grid,
    sector_margins,
    sector_power_family,
)
from gftkit import radii
from gftkit.membership import class_margins, class_reader, closed_form_bound, ring_points, unit_circle


def _ring_passes(f, spec, r, angles) -> bool:
    """Whether the class margin is positive at every point of the ring |z| = r
    and no singular zero lies inside it."""
    return radii._ring_margin(class_reader(spec, f), r, angles)[0] > 0


def _ring_count(spec, f, r, angles=720):
    """The singular zeros inside the ring |z| = r by order, as the search
    counts them (None when undecided or unreadable), and the point counts of
    the ring's read and of its re-reads."""
    read, sizes = class_reader(spec, f), []

    def counted(z, reach):
        sizes.append(z.size)
        return read(z, reach)

    got = counted(ring_points(np.array([r]), slice(None), angles), r)
    return (None if got is None else radii._zero_count(counted, r, angles, got[2])), sizes


# ---------------------------------------------------------------------------
# quadratic root oracle


def test_bisection_reproduces_quadratic_formula_roots():
    got = poly_root_bisect([1, -5, -2], (0, 1))
    assert got == pytest.approx((math.sqrt(33) - 5) / 4, abs=1e-12)
    got2 = poly_root_bisect([1, -3, -1], (0, 1))
    assert got2 == pytest.approx((math.sqrt(13) - 3) / 2, abs=1e-12)


def test_bisection_on_a_linear_polynomial():
    assert poly_root_bisect([1, -2], (0, 1)) == pytest.approx(0.5, abs=1e-12)


def test_bisection_accepts_a_root_at_the_endpoint():
    assert poly_root_bisect([0, 1], (0, 1)) == 0.0


def test_bisection_error_paths():
    with pytest.raises(NoSignChange):
        poly_root_bisect([1, 1], (0, 1))
    with pytest.raises(InvalidBracket):
        poly_root_bisect([1, -2], (1, 0))


@pytest.mark.parametrize("tol, root", [("0.0", False), ("-1.0", False), ("float('nan')", False),
                                       ("float('inf')", False), ("1e-17", True), ("5e-324", True)])
def test_bisection_stops_at_the_float_spacing_or_rejects_its_tolerance(tol, root):
    # in a child with a timeout, as a bisection that does not stop hangs; a
    # tol below the float spacing at the root stops where the midpoint
    # rounds to an end, a tol that is no finite width > 0 is rejected
    code = ("from gftkit import OutOfRange, poly_root_bisect\n"
            "try:\n"
            f"    print(repr(poly_root_bisect([-2, 0, 1], (0, 2), tol={tol})))\n"
            "except OutOfRange:\n"
            "    print('OutOfRange')\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10)
    assert out.returncode == 0, out.stderr
    if root:
        assert abs(float(out.stdout) - math.sqrt(2)) <= 2 * math.ulp(math.sqrt(2))
    else:
        assert out.stdout == "OutOfRange\n"


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.75, 1.0])
def test_convexity_radius_is_the_root_of_its_quadratic(lam):
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        root = poly_root_bisect([1, -(lam + 2 * alpha + 2), -(lam + 1)], (0, 1))
        assert root == pytest.approx(radius_convexity(lam, alpha), abs=1e-10)


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.75, 1.0])
def test_weighted_radius_is_the_root_of_its_quadratic(lam):
    for alpha in (0.25, 0.5, 0.75, 1.0):
        root = poly_root_bisect([alpha, -(lam + 4 * alpha), -(lam + alpha)], (0, 1))
        assert root == pytest.approx(radius_inv_alpha_convexity(lam, alpha), abs=1e-10)


# ---------------------------------------------------------------------------
# per-function radius search


def test_whole_disk_convexity_saturates_the_search():
    assert property_radius(half_plane_map(), ClassSpec.convex()) == pytest.approx(0.9999, abs=1e-12)


def test_quadratic_loses_convexity_at_one_quarter():
    f = AnalyticFunction.taylor([0, 1, -1], ATag(1))
    got = property_radius(f, ClassSpec.convex())
    assert got == pytest.approx(0.25, abs=2e-4)


def test_search_returns_the_first_failure_not_the_last():
    """The pass-set over rings need not be an interval: this function recovers
    convexity on outer rings after failing on a middle band, and the search
    must still report the inner edge of the bad band."""
    f = AnalyticFunction.taylor([0, 1, 1], ATag(1))
    outer_ring = check_membership(ClassSpec.convex(), f, sample_grid([0.7], 720))
    assert outer_ring.verdict is Verdict.HOLDS
    got = property_radius(f, ClassSpec.convex())
    assert got == pytest.approx(0.25, abs=2e-4)


def test_koebe_like_anchors():
    kb = koebe_like()
    assert property_radius(kb, ClassSpec.starlike()) == pytest.approx(0.9999, abs=1e-12)
    assert property_radius(kb, ClassSpec.convex()) == pytest.approx(2 - math.sqrt(3), abs=1e-3)


def test_radius_agrees_with_a_cumulative_two_dimensional_scan():
    # independent oracle: walk outward over a dense (r, theta) lattice and
    # find the innermost radius whose ring minimum goes negative
    f = AnalyticFunction.taylor([0, 1, -1], ATag(1))
    radii = np.linspace(0.01, 0.99, 197)
    theta = np.linspace(0, 2 * math.pi, 360, endpoint=False)
    ring = np.exp(1j * theta)
    first_bad = None
    for r in radii:
        z = r * ring
        vals = 1 + z * f.eval(z, 2) / f.eval(z, 1)
        if np.min(vals.real) < 0:
            first_bad = r
            break
    assert first_bad is not None
    got = property_radius(f, ClassSpec.convex())
    assert abs(got - first_bad) < 6e-3


def test_radius_tolerance_validation():
    hp = half_plane_map()
    for tol in (0.0, 0.5, -0.1, 5e-324, 1e-300, math.nan):
        with pytest.raises(OutOfRange, match=r"tolerance must lie in \[1e-12, 0.5\)"):
            property_radius(hp, ClassSpec.convex(), tol=tol)
    assert property_radius(hp, ClassSpec.convex(), tol=1e-12) == 1 - 1e-12


def test_coarse_tolerance_collapses_to_zero_when_the_first_ring_fails():
    # with tol = 0.3 the march starts at r = 0.3, already past the good disk
    assert property_radius(koebe_like(), ClassSpec.convex(), tol=0.3) == 0.0


# ---------------------------------------------------------------------------
# the outward ring march as an oracle for the search
#
# The march assumes nothing about the margins: it walks a ladder of rings
# outward to the first failing one, then bisects between it and the last
# ring that passed.  It is what property_radius did before the search was
# bounded by the singular radius, and reads up to 257 rings where the
# search reads at most 16.  Blocks of rings are checked together first,
# which finds the same first failing ring with fewer calls.

_MARCH_STEPS = 256
_BLOCK = 16


def _rings_pass(f, spec, rings, grid_angles):
    # a grid's margin is the minimum of its rings' margins, so a block of
    # rings passes exactly when each of its rings passes
    rep = check_membership(spec, f, DiskGrid(tuple(rings), grid_angles), eps=0.0)
    return rep.margin > 0  # False for NaN


def march_radius(f, spec, grid_angles=720, tol=1e-4):
    ladder = [float(r) for r in np.linspace(tol, 1 - tol, _MARCH_STEPS + 1)]
    lo = hi = None
    for start in range(0, len(ladder), _BLOCK):
        block = ladder[start : start + _BLOCK]
        if _rings_pass(f, spec, block, grid_angles):
            lo = block[-1]
            continue
        for r in block:
            if _ring_passes(f, spec, r, grid_angles):
                lo = r
            else:
                hi = r
                break
        break
    if hi is None:
        return 1 - tol
    if lo is None:
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _ring_passes(f, spec, mid, grid_angles):
            lo = mid
        else:
            hi = mid
    return lo


ORACLE_SPECS = {
    "convex": ClassSpec.convex(),
    "starlike": ClassSpec.starlike(),
    "m_alpha(0.5)": ClassSpec.m_alpha(0.5),
    "m_alpha(1)": ClassSpec.m_alpha(1.0),
    "m_alpha(2)": ClassSpec.m_alpha(2.0),
    "R": ClassSpec.r(),
    "g(1,1)": ClassSpec.g(1, 1),
    "g(.5,.5)": ClassSpec.g(0.5, 0.5),
    "p_tilt(.3)": ClassSpec.p_tilt(0.3),
    "u(1,1)": ClassSpec.u(1, 1),
    "u(.5,.5)": ClassSpec.u(0.5, 0.5),
    "strongly_starlike(.5)": ClassSpec.strongly_starlike(0.5),
}


def _oracle_members():
    out = make_family(mobius_ratio_family()) + make_family(sector_power_family())
    for seed in range(4):
        for tag in ("A", "H"):
            out += make_family(random_taylor_family(seed, 6, 4, tag))
    out.append(FamilyMember("z+z^2", AnalyticFunction.taylor([0, 1, 1], ATag(1))))
    out.append(FamilyMember("z-z^2", AnalyticFunction.taylor([0, 1, -1], ATag(1))))
    return out


ORACLE_MEMBERS = _oracle_members()

# The matrix is 852 searches, and the march needs up to 257 rings for
# each; at 720 angles that takes about 40 s (and agrees as well).  Both
# searches read the same ring predicate at any angle count, so 90 angles
# test the search strategy at an eighth of the points.  The named cases
# below use the default 720.
ORACLE_ANGLES = 90


@pytest.mark.parametrize("name", list(ORACLE_SPECS))
def test_bisection_agrees_with_the_ring_march(name):
    spec = ORACLE_SPECS[name]
    tol = 1e-4
    off = []
    for mem in ORACLE_MEMBERS:
        want = march_radius(mem.f, spec, ORACLE_ANGLES, tol)
        got = property_radius(mem.f, spec, ORACLE_ANGLES, tol)
        if not abs(got - want) < tol:
            off.append((mem.label, want, got))
    assert not off, f"{name}: the search differs from the march on {off}"


# ---------------------------------------------------------------------------
# the pointwise class margins that the rings and the aimed rays read


def _reference_report(spec, f, z):
    """(margin, witness) written out class by class: the first lowest
    margin, and for U the first largest |U - 1|, which lam - |U - 1| can
    tie with an earlier point."""

    def starlike():
        return np.asarray(evaluate_functional(FunctionalSpec.starlike(), f, z), dtype=complex)

    def convex():
        return np.asarray(evaluate_functional(FunctionalSpec.convex(), f, z), dtype=complex)

    kind = spec.kind
    if kind is ClassKind.U:
        u = np.asarray(evaluate_functional(FunctionalSpec.u_func(spec.alpha), f, z), dtype=complex)
        dev = np.abs(u - 1)
        idx = int(np.argmax(dev))
        return float(spec.lam - dev[idx]), complex(z[idx])
    values = {
        ClassKind.STARLIKE: lambda: np.real(starlike()),
        ClassKind.CONVEX: lambda: np.real(convex()),
        ClassKind.R: lambda: np.real(f.eval(z, 0) / z),
        ClassKind.G: lambda: sector_margins(f.eval(z, 0), spec.alpha, spec.beta),
        ClassKind.P_TILT: lambda: np.real(np.exp(1j * spec.lam) * f.eval(z, 0)),
        ClassKind.STRONGLY_STARLIKE: lambda: sector_margins(starlike(), spec.alpha, spec.alpha),
        ClassKind.M_ALPHA: lambda: np.real(spec.alpha * convex() + (1 - spec.alpha) * starlike()),
    }[kind]()
    idx = int(np.argmin(values))
    return float(values[idx]), complex(z[idx])


def _bits(x: complex) -> tuple[str, str]:
    return float(x.real).hex(), float(x.imag).hex()


@pytest.mark.parametrize("name", list(ORACLE_SPECS))
def test_pointwise_margins_reduce_to_the_membership_report_bit_for_bit(name):
    spec = ORACLE_SPECS[name]
    grid = DiskGrid((0.3, 0.7, 0.95), ORACLE_ANGLES)
    z = grid.points
    for mem in ORACLE_MEMBERS:
        rep = check_membership(spec, mem.f, grid, eps=0.0)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            want_margin, want_witness = _reference_report(spec, mem.f, z)
        values, worst = class_margins(spec, mem.f, z)
        assert values.shape == z.shape
        assert float(values[worst]).hex() == float(np.min(values)).hex() == rep.margin.hex() == want_margin.hex()
        assert _bits(z[worst]) == _bits(rep.witness) == _bits(want_witness), mem.label


def test_a_point_has_the_same_margin_alone_as_in_its_ring():
    """The aimed search counts a ring as failing from the margin of one of
    its points read alone, so the margin that the search reads there (the
    closed form for a Moebius shape class, else the jet) must be the one it
    reads on the ring, bit for bit, and the ring's worst index must be the
    worst point's."""
    matched = 0
    for spec in ORACLE_SPECS.values():
        for mem in ORACLE_MEMBERS:
            search = class_reader(spec, mem.f)
            for r in (0.5, 0.95):
                points = ring_points(np.array([r]), slice(None), ORACLE_ANGLES)
                assert points.view(np.int64).tolist() == DiskGrid((r,), ORACLE_ANGLES).points.view(np.int64).tolist()
                read = search(points, r)
                if read is None:
                    continue
                ring, worst, _ = read
                got = radii._ring_margin(search, r, ORACLE_ANGLES)
                # a ring that passes by its samples fails, unpointed, by its count
                assert got == (float(ring[worst]), worst) or (got == (-math.inf, None) and ring[worst] > 0)
                for k in range(0, ORACLE_ANGLES, 7):
                    alone = search(ring_points(np.array([r]), [k], ORACLE_ANGLES), r)
                    assert alone is not None and alone[0].shape == (1,)
                    assert float(alone[0][0]).hex() == float(ring[k]).hex(), (mem.label, r, k)
                    matched += 1
    assert matched > 20000


def _taylor_members() -> list:
    """The Taylor members of random_taylor_family(s, 6, 4) for s < 8, of the
    random family with its default degree and count, and of every case's
    default family."""
    from gftkit.core import Variant
    from gftkit.theorems import CASE_IDS, TheoremCase, default_family_for

    members = [m for s in range(8) for m in random_taylor_family(s, 6, 4)] + random_taylor_family(0)
    members += [m for case_id in sorted(CASE_IDS) for m in default_family_for(TheoremCase.make(case_id))]
    return [m for m in members if m.f.variant is Variant.TAYLOR]


# the point sets a search reads: rings, from the ring at tol to the ring at
# 1 - tol, rays of the aim's 128 radii, and single points
_READS = (
    [ring_points(np.array([r]), slice(None), 720) for r in (1e-4, 0.3, 0.7, 0.95, 1 - 1e-4)]
    + [ring_points(np.linspace(1e-4, 1 - 1e-4, 128), [k], 720) for k in (0, 97, 360, 611)]
    + [ring_points(np.array([r]), [k], 720) for r, k in ((0.5, 3), (0.9, 359), (1 - 1e-4, 500))]
)


def _margins_or_error(spec, f, z):
    """class_margins as (margin bytes, worst index), or the type of its error."""
    try:
        values, worst = class_margins(spec, f, z)
    except EvaluationError as exc:
        return type(exc)
    return values.tobytes(), worst


def _read(spec, f, z):
    """The search reader's margins at z as (margin bytes, worst index), or
    None where it reads none; every read reaches no farther than max |z|."""
    got = class_reader(spec, f)(z, float(np.abs(z).max()))
    return None if got is None else (got[0].tobytes(), got[1])


@pytest.mark.parametrize("spec", [ClassSpec.convex(), ClassSpec.starlike(), ClassSpec.m_alpha(0.5),
                                  ClassSpec.m_alpha(1.0)], ids=["convex", "starlike", "m_alpha(0.5)", "m_alpha(1)"])
def test_a_taylor_member_reads_the_jet_bits_on_every_ring_ray_and_point(spec):
    """The search reads a Taylor member's shape quotients from f, f' and f''
    by Horner's rule, not from the jet memo, with the jet's margins bit for
    bit and the same worst point, or the same error, on every ring, ray and
    point."""
    members = _taylor_members()
    assert len(members) == 99
    for mem in members:
        for z in _READS:
            jet = _margins_or_error(spec, mem.f, z)
            assert _read(spec, mem.f, z) == (None if isinstance(jet, type) else jet), (mem.label, z.size)


@pytest.mark.parametrize(
    "spec, f",
    [
        (ClassSpec.r(), make_family(mobius_ratio_family((0.9,), (0.9,)))[0].f),
        (ClassSpec.g(1, 1), make_family(random_taylor_family(1, 6, 4, "H"))[3].f),
        (ClassSpec.g(0.5, 0.5), make_family(random_taylor_family(1, 6, 4, "H"))[3].f),
        (ClassSpec.p_tilt(0.3), make_family(random_taylor_family(1, 6, 4, "H"))[3].f),
    ],
    ids=["R-ratio(0.9,0.9)", "g(1,1)-H-random[1:3]", "g(.5,.5)-H-random[1:3]", "p_tilt(.3)-H-random[1:3]"],
)
def test_zeros_of_unread_factors_do_not_cut_the_search(spec, f):
    """These classes never divide by f' (nor, for R and P_TILT, by f), so a
    zero of f' inside the disk must not stop the search short."""
    assert _ring_count(ClassSpec.convex(), f, 0.9)[0] == [1]
    assert property_radius(f, spec) == pytest.approx(0.9999, abs=1e-12)
    assert march_radius(f, spec) == pytest.approx(0.9999, abs=1e-12)


def test_a_zero_of_f_prime_inside_the_first_ring_fails_the_property():
    """f' = 1 + 2e4 z vanishes at -5e-5, inside the ring at tol = 1e-4.
    Every ring passes, so a march reports the whole disk; but 1 + z f''/f'
    has a pole there and its real part is unbounded below near it."""
    f = AnalyticFunction.taylor([0, 1, 1e4], ATag(1))
    spec = ClassSpec.convex()
    assert _ring_count(spec, f, 1e-4) == ([1], [720])
    assert _ring_count(spec, f, 4.9e-5)[0] == [0]
    assert march_radius(f, spec) == pytest.approx(0.9999, abs=1e-12)
    assert property_radius(f, spec) == 0.0
    near_pole = check_membership(spec, f, sample_grid([4.99e-5], 720))
    assert near_pole.verdict is Verdict.FAILS


def test_a_large_coefficient_does_not_hide_a_zero_near_the_origin():
    """f' = 1 + 5e13 z^4 vanishes at |z| = 3.76e-4: the constant term is
    small against the leading one but is no rounding noise.  Convexity
    fails on a thin band of rings below that zero, which the march's
    ladder (one ring per 0.0039) steps over."""
    f = AnalyticFunction.taylor([0, 1, 0, 0, 0, 1e13], ATag(1))
    spec = ClassSpec.convex()
    rho = 5e13**-0.25
    assert _ring_count(spec, f, rho * 1.01)[0] == [4] and _ring_count(spec, f, rho * 0.99)[0] == [0]
    got = property_radius(f, spec)
    assert 0 < got < rho
    assert _ring_passes(f, spec, got, 720)
    assert not _ring_passes(f, spec, got + 1e-4, 720)
    assert march_radius(f, spec) == pytest.approx(0.9999, abs=1e-12)


def _mobius_derivative_poly(f) -> np.ndarray:
    """Coefficients, lowest first, of q prod(1 + u_i z) + z sum e_i u_i prod_{j != i}(1 + u_j z).

    f' = z^(q-1) g (q + z sum e_i u_i/(1 + u_i z)) with g zero-free on the
    disk, so off the origin f' vanishes exactly where this polynomial does:
    the roots oracle of the zero counts.
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


def _root_moduli(coeffs) -> np.ndarray:
    """|z| of the roots of sum(coeffs[k] z^k) off the origin: low coefficients
    within 1e-12 of 0 are a zero at the origin, and high ones within 1e-12 of
    the largest are dropped, whose roots lie beyond 1e11 and would
    otherwise swamp np.roots' companion matrix."""
    coeffs = np.asarray(coeffs, dtype=complex)
    keep = np.flatnonzero(np.abs(coeffs) > 1e-12 * max(1.0, np.abs(coeffs).max()))
    if keep.size < 2:
        return np.array([])
    return np.abs(np.roots(coeffs[keep[0] : keep[-1] + 1][::-1]))


def _roots_inside(coeffs, r) -> tuple[int, float]:
    """How many roots of sum(coeffs[k] z^k) lie in 0 < |z| < r, and the least
    relative distance of a root to the circle |z| = r."""
    roots = _root_moduli(coeffs)
    gap = float(np.min(np.abs(roots - r)) / r) if roots.size else math.inf
    return int(np.count_nonzero(roots < r)), gap


def test_mobius_derivative_roots_are_zeros_of_f_prime():
    for mem in make_family(mobius_ratio_family()) + make_family(sector_power_family()):
        coeffs = _mobius_derivative_poly(mem.f)
        for z in np.roots(coeffs[::-1]):
            if 1e-9 < abs(z) < 1:
                assert abs(mem.f.eval(complex(z), 1)) < 1e-9, mem.label


def test_singular_radius_per_class():
    """Each class counts the zeros of the factors its CLASSES entry names as
    singular, so its rings fail from the first such zero on; R's pole of f/z
    at the origin is closed_form_bound's."""
    zmz2 = AnalyticFunction.taylor([0, 1, -1], ATag(1))  # f' = 0 at 1/2, f = 0 at 1
    assert _ring_count(ClassSpec.convex(), zmz2, 0.49)[0] == [0]
    assert _ring_count(ClassSpec.convex(), zmz2, 0.51)[0] == [1]
    assert _ring_count(ClassSpec.starlike(), zmz2, 0.99)[0] == [0]
    assert _ring_count(ClassSpec.m_alpha(0.0), zmz2, 0.99)[0] == [0]
    assert _ring_count(ClassSpec.m_alpha(2.0), zmz2, 0.51)[0] == [0, 1]
    assert _ring_count(ClassSpec.r(), zmz2, 0.99)[0] == []
    assert closed_form_bound(ClassSpec.r(), zmz2) == math.inf == closed_form_bound(ClassSpec.convex(), zmz2)
    shifted = AnalyticFunction.taylor([0.25, 1], HTag(0.25))  # f = 0 at -1/4
    # G reads f alone, but counts its zeros from z f'/f as U does
    assert _ring_count(ClassSpec.g(1, 1), shifted, 0.24)[0] == [0]
    assert _ring_count(ClassSpec.g(1, 1), shifted, 0.26)[0] == [1]
    assert _ring_count(ClassSpec.u(1, 1), shifted, 0.26)[0] == [1]
    assert _ring_count(ClassSpec.p_tilt(0.3), shifted, 0.99)[0] == []
    # f/z has a pole at the origin: R fails on the ring at tol, although
    # Re f/z = 1 + Re(0.25/z) is positive on the ring at 1 - tol
    assert closed_form_bound(ClassSpec.r(), shifted) == 0.0
    assert check_membership(ClassSpec.r(), shifted, sample_grid([1e-4], 720)).verdict is Verdict.FAILS
    assert check_membership(ClassSpec.r(), shifted, sample_grid([0.9999], 720)).verdict is Verdict.HOLDS
    assert property_radius(shifted, ClassSpec.r()) == 0.0 == march_radius(shifted, ClassSpec.r())
    # z^2 (1 + z): a double zero at the origin is removable, and f' = z (2 + 3z)
    # vanishes at 2/3, which strong starlikeness counts as well
    cubic = AnalyticFunction.taylor([0, 0, 1, 1], ATag(2))
    assert _ring_count(ClassSpec.strongly_starlike(0.5), cubic, 0.66)[0] == [0, 0]
    assert _ring_count(ClassSpec.strongly_starlike(0.5), cubic, 0.68)[0] == [0, 1]


# ---------------------------------------------------------------------------
# zero counts from the ring's own samples, against polynomial roots


def test_a_radius_search_takes_no_roots_and_no_eigenvalues(monkeypatch, capsys):
    """No search reaches numpy's root finder or its eigenvalue solvers, so a
    process that runs radii never starts LAPACK: every class on the
    Moebius-ratio family and on random:3,6,4, and gftkit radius itself."""
    from gftkit import cli
    from gftkit.membership import CLASSES

    def forbidden(*args, **kwargs):
        raise AssertionError("a radius search reached numpy's roots or eigenvalues")

    for module, name in ((np, "roots"), (np.linalg, "eig"), (np.linalg, "eigvals")):
        monkeypatch.setattr(module, name, forbidden)
    specs = {spec.kind: spec for spec in ORACLE_SPECS.values()}
    assert set(specs) == set(CLASSES)
    members = make_family(mobius_ratio_family()) + make_family(random_taylor_family(3, 6, 4))
    radii_found = [property_radius(mem.f, spec) for spec in specs.values() for mem in members]
    assert len(radii_found) == 8 * 29 and 0 < max(radii_found)
    assert cli.main(["radius", "--lambda", "1", "--alpha", "0.5"]) == 0
    assert "family_envelope" in capsys.readouterr().out


# 1-3 factors (1 + u z)^e, u anywhere in the disk, e in {+-1, +-2} or in (-3, 3)
COUNTED_FACTORS = st.lists(
    st.tuples(
        st.floats(0.0, 1.0),
        st.floats(0.0, 2 * math.pi, exclude_max=True),
        st.one_of(st.sampled_from([1.0, -1.0, 2.0, -2.0]), st.floats(-3.0, 3.0, exclude_min=True, exclude_max=True)),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(COUNTED_FACTORS, st.floats(0.05, 0.9999))
def test_zero_counts_match_the_roots_on_drawn_products(factors, r):
    """The zeros of f' inside the ring, as convexity counts them, are the
    roots of the derivative polynomial inside r; f itself has none.  A
    count stays undecided only for a root within 3e-4 relative of the ring,
    and a single zero is located within 1e-6 r by the count's first moment."""
    f = AnalyticFunction.mobius(1, [(m * cmath.exp(1j * t), e) for m, t, e in factors])
    inside, gap = _roots_inside(_mobius_derivative_poly(f), r)
    counts, _ = _ring_count(ClassSpec.m_alpha(0.5), f, r)
    if counts is None:
        assert gap < 3e-4
        return
    assert counts == [0, inside]
    read = class_reader(ClassSpec.convex(), f)
    got = read(ring_points(np.array([r]), slice(None), 720), r)
    first = radii._zero_count(read, r, 720, got[2], reread=False)
    if first == [1]:
        located = radii._first_zero(got[2], first, r) - radii._ZERO_SLACK * r
        root = _root_moduli(_mobius_derivative_poly(f)).min()
        assert located == r - radii._ZERO_SLACK * r or abs(located - root) < 1e-6 * r


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(COUNTED_FACTORS, st.floats(0.05, 0.9999))
# z/(1 + z) and z/(1 - iz): a factor pole 1e-4 outside the ring, whose share
# in the mean (AnalyticFunction._pole_aliasing) both counts subtract
@example([(1.0, 0.0, -1.0)], 0.9999)
@example([(1.0, 1.5 * math.pi, -1.0)], 0.9999)
def test_a_count_asked_for_is_the_count_of_the_read(factors, r):
    """Strong starlikeness counts inside the read where every point passes,
    and only when asked where the read fails by its samples.  On the same
    ring points, the in-read count of a passing strongly_starlike(1.0) and
    the asked-for count of a failing strongly_starlike(0.01) are the same
    means, bit for bit: one mean serves both."""
    f = AnalyticFunction.mobius(1, [(m * cmath.exp(1j * t), e) for m, t, e in factors])
    z = ring_points(np.array([r]), slice(None), 720)
    passing, failing = (class_reader(ClassSpec.strongly_starlike(a), f)(z, r) for a in (1.0, 0.01))
    if passing is None or failing is None or not passing[0][passing[1]] > 0 or failing[0][failing[1]] > 0:
        return
    in_read, asked = passing[2](), failing[2]()
    assert len(in_read) == 2 and [m.hex() for m in in_read] == [m.hex() for m in asked]


@pytest.mark.parametrize(
    "spec, members",
    [
        (ClassSpec.strongly_starlike(1.0), [AnalyticFunction.mobius(1, [(0.2, -1)]),
                                            AnalyticFunction.taylor([0, 1, 0.1], ATag(1))]),
        (ClassSpec.g(1, 1), [AnalyticFunction.mobius(0, [(0.2, 1)]), AnalyticFunction.taylor([1, 0.1], HTag(1, 1))]),
        (ClassSpec.u(1, 1), [AnalyticFunction.mobius(1, [(0.2, -1)]),
                             AnalyticFunction.taylor([0, 1, 0.1], ATag(1))]),
    ],
    ids=["SS(1)", "G(1,1)", "U(1,1)"],
)
def test_a_passing_read_counts_and_asking_reads_nothing(monkeypatch, spec, members):
    """A read takes the quotients of its margin and of its counted orders in
    one call, and a read that passes counts them there: asking its count
    reads no quotient again, on a Moebius and on a Taylor member, for the
    classes whose margin reads fewer orders than they count."""
    from gftkit import membership

    calls = []
    for owner, name in ((AnalyticFunction, "_shape_quotients"), (membership, "_taylor_quotients")):
        inner = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _inner=inner, **k: calls.append(1) or _inner(*a, **k))
    for f in members:
        read = class_reader(spec, f)
        calls.clear()
        margins, worst, count = read(ring_points(np.array([0.3]), slice(None), 720), 0.3)
        assert margins[worst] > 0 and len(calls) == 1, f
        counts = count()
        assert len(calls) == 1 and [round(m) for m in counts] == [0] * len(counts) and counts, f


@pytest.mark.parametrize("tag", ["A", "H"])
def test_zero_counts_match_the_roots_on_taylor_polynomials(tag):
    """Starlikeness, G and U count the zeros of f and convexity those of f',
    each against the roots of the coefficients, on A_1 and H random
    polynomials: G and U, which read the jet, count from the same shape
    quotient as starlikeness."""
    checked = 0
    for seed in range(8):
        for mem in random_taylor_family(seed, 6, 4, tag):
            cs = np.asarray(mem.f.coeffs)
            for r in (0.3, 0.6, 0.9, 0.9999):
                for spec, coeffs in (
                    (ClassSpec.starlike(), cs),
                    (ClassSpec.convex(), cs[1:] * np.arange(1, cs.size)),
                    (ClassSpec.g(1, 1), cs),
                    (ClassSpec.u(1, 1), cs),
                ):
                    inside, gap = _roots_inside(coeffs, r)
                    counts, _ = _ring_count(spec, mem.f, r)
                    assert counts == [inside] or (counts is None and gap < 3e-4), (mem.label, r, spec)
                    checked += counts is not None
    assert checked == 8 * 4 * 4 * 4


def test_a_zero_near_the_ring_is_decided_by_a_re_read_or_fails_it():
    """f' = 1 - 2z vanishes at 1/2.  A ring 1e-3 relative inside that zero
    leaves the 720-angle mean 0.49 from an integer; re-reads at twice the
    angles decide it at 23040.  At 1e-4 relative the mean is still 1.4e-3
    from an integer at 46080 angles, the last doubling within 2**16: the
    count stays undecided and the ring fails."""
    f = AnalyticFunction.taylor([0, 1, -1], ATag(1))
    doublings = [720 * 2**k for k in range(7)]
    assert _ring_count(ClassSpec.convex(), f, 0.5 / (1 + 1e-3)) == ([0], doublings[:6])
    assert _ring_count(ClassSpec.convex(), f, 0.5 * (1 + 1e-3)) == ([1], doublings[:6])
    assert _ring_count(ClassSpec.convex(), f, 0.5 / (1 + 1e-4)) == (None, doublings)
    assert radii._ring_margin(class_reader(ClassSpec.convex(), f), 0.5 * (1 + 1e-4), 720) == (-math.inf, None)


def test_a_ring_that_passes_by_its_samples_fails_by_its_count():
    """z - z^2 loses convexity at 1/4, and f' vanishes at 1/2: on the ring at
    0.52 that zero's pole faces outward, so every sample passes, but the
    count shows the zero inside and the ring fails, with no worst point."""
    f = AnalyticFunction.taylor([0, 1, -1], ATag(1))
    spec = ClassSpec.convex()
    assert check_membership(spec, f, sample_grid([0.52], 720)).verdict is Verdict.HOLDS
    assert _ring_count(spec, f, 0.52) == ([1], [720])
    assert radii._ring_margin(class_reader(spec, f), 0.52, 720) == (-math.inf, None)
    assert property_radius(f, spec) == pytest.approx(0.25, abs=1e-4)


def test_the_outer_ring_locates_a_single_zero_inside(monkeypatch):
    """The ring at 1 - tol that shows one singular zero inside puts the
    failing end at that zero, located by the count's first moment, and
    aims no ray: strong starlikeness of ratio(u=0.5, v=0.5), whose f'
    vanishes at 2 - 2 sqrt(2), fails that ring by its samples; convexity of
    z - z^2, whose f' vanishes at 1/2, by its count."""
    ratio = {m.label: m.f for m in make_family(mobius_ratio_family())}["ratio(u=0.5, v=0.5)"]
    for spec, f, zero in (
        (ClassSpec.strongly_starlike(0.5), ratio, 2 * math.sqrt(2) - 2),
        (ClassSpec.convex(), AnalyticFunction.taylor([0, 1, -1], ATag(1)), 0.5),
    ):
        (end, margin), worst = radii._outer_ring(class_reader(spec, f), 1 - 1e-4, 720)
        assert margin == -math.inf and worst is None
        assert 0 < end - zero < 1e-5 + 1e-9
    # a zero of f' per order located, or two of one order not: z - z^2 + z^3/3
    # has f' = (1 - z)^2, a double zero on the circle; (1 - 2z)(1 - 2.5z) two inside
    two = AnalyticFunction.taylor([0, 1, -2.25, 5 / 3], ATag(1))
    assert _ring_count(ClassSpec.convex(), two, 0.9)[0] == [2]
    (end, margin), worst = radii._outer_ring(class_reader(ClassSpec.convex(), two), 1 - 1e-4, 720)
    assert (end, margin, worst) == (1 - 1e-4, -math.inf, None)


@pytest.mark.parametrize("make", [lambda: AnalyticFunction.taylor([0, 1, 1], ATag(1))])
def test_m_alpha_one_after_convex_has_the_radius_of_a_fresh_search(make):
    # M_1 is convexity: its search after the convex search of a Taylor
    # member gives the radius a search on a new object gives, bit for bit
    # (neither search reads the jet memo, see below)
    f = make()
    property_radius(f, ClassSpec.convex())
    got = property_radius(f, ClassSpec.m_alpha(1.0))
    want = property_radius(make(), ClassSpec.m_alpha(1.0))
    assert got.hex() == want.hex() and got < 1 - 1e-4


@pytest.mark.parametrize("make", [lambda: AnalyticFunction.taylor([0, 1, 1], ATag(1)), koebe_like,
                                  lambda: AnalyticFunction.mobius(1, [(0.8j, -1.5), (-0.6, 0.5)])]
                         + [pytest.param(lambda i=i: _oracle_members()[i].f, id=mem.label)
                            for i, mem in enumerate(ORACLE_MEMBERS)])
def test_m_alpha_with_one_term_has_the_margins_of_its_margin_class(make):
    from gftkit.membership import margin_class

    f = make()
    for spec, plain in ((ClassSpec.m_alpha(1.0), ClassSpec.convex()), (ClassSpec.m_alpha(0.0), ClassSpec.starlike())):
        assert margin_class(spec) == plain
        assert closed_form_bound(spec, f) == closed_form_bound(plain, f)
        for r in (0.3, 0.95):
            assert _ring_count(spec, f, r) == _ring_count(plain, f, r)
        assert margin_class(spec) is margin_class(spec)  # built once, not per call
        for z in _READS:
            assert _margins_or_error(spec, f, z) == _margins_or_error(plain, f, z)
            assert _read(spec, f, z) == _read(plain, f, z)
        assert property_radius(f, spec).hex() == property_radius(make(), plain).hex()
    assert margin_class(ClassSpec.m_alpha(-0.0)) == ClassSpec.starlike()
    for spec in (ClassSpec.m_alpha(0.5), ClassSpec.convex(), ClassSpec.u(1.0, 1.0)):
        assert margin_class(spec) is spec


def _counting_reads(monkeypatch):
    """The point count of every read of the searches from here on, in order."""
    sizes = []
    inner = radii.class_reader

    def reader(spec, f):
        read = inner(spec, f)
        return lambda z, reach: sizes.append(z.size) or read(z, reach)

    monkeypatch.setattr(radii, "class_reader", reader)
    return sizes


def test_an_overflowing_ring_is_read_once(monkeypatch):
    # the search discards the witness of a ring it cannot read, so finding
    # that witness would compute the ring a second time
    f = AnalyticFunction.mobius(1, [(1.0, 1e308)])  # s = 1e308/(1 + z) overflows near -1
    reads = _counting_reads(monkeypatch)
    closed = []
    inner = AnalyticFunction._shape_quotients
    monkeypatch.setattr(AnalyticFunction, "_shape_quotients", lambda *args: closed.append(1) or inner(*args))
    assert radii._ring_margin(radii.class_reader(ClassSpec.convex(), f), 0.95, 720) == (-math.inf, None)
    assert reads == [720] and len(closed) == 1
    # check_membership still names the first point where the margin overflows
    rep = check_membership(ClassSpec.convex(), f, sample_grid([0.95], 720))
    assert rep.verdict is Verdict.UNDECIDED and rep.witness is not None and abs(rep.witness) == pytest.approx(0.95)


def test_each_search_reads_the_pinned_point_counts(monkeypatch):
    """A member whose first ring passes takes one read.  A stationary aim
    reads the failing ring, the ray with 16 points of the ring at tol, the
    ring below the ray's zero and the ray's point above it; a moving aim
    reads a ray and the ring below its zero once more for each further
    aim, and the point above the zero only after the last, passing ring."""
    reads = _counting_reads(monkeypatch)
    ratio = {m.label: m.f for m in make_family(mobius_ratio_family())}
    cases = [
        (half_plane_map(), [720], 0.9999),
        (ratio["ratio(u=0.5, v=0)"], [720, 144, 720, 1], 0.5),
        (ratio["ratio(u=-0.5, v=0.9)"], [720, 144, 720, 128, 720, 128, 720, 1], 0.7913),
    ]
    for spec in (ClassSpec.convex(), ClassSpec.m_alpha(1.0)):
        for f, want, radius in cases:
            reads.clear()
            assert property_radius(f, spec) == pytest.approx(radius, abs=1e-4)
            assert reads == want


def _reference_read(spec, f, z):
    """The margins at z as (margin bytes, worst index) from the checked
    arithmetic, None where it raises: a Moebius shape class from the public
    shape_quotients and its margin class's entry, every other class and
    member from class_margins."""
    from gftkit.core import Variant
    from gftkit.membership import CLASSES, margin_class

    plain = margin_class(spec)
    cls = CLASSES[plain.kind]
    if not cls.quotients or f.variant is not Variant.MOBIUS_POWER_PRODUCT:
        got = _margins_or_error(spec, f, z)
        return None if isinstance(got, type) else got
    orders = cls.quotients
    try:
        w = f.shape_quotients(z, orders)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            values = cls.margins(plain, f, z, dict(zip(orders, w)))
    except (EvaluationError, FloatingPointError):
        return None
    return values.tobytes(), int(values.argmin())


@pytest.mark.parametrize("name", list(ORACLE_SPECS))
def test_the_reader_has_the_margins_of_the_checked_arithmetic(name):
    """Bit for bit, with the same worst point, on the rings, rays and points
    a search reads."""
    spec = ORACLE_SPECS[name]
    read = 0
    for mem in ORACLE_MEMBERS:
        for z in _READS:
            want = _reference_read(spec, mem.f, z)
            assert _read(spec, mem.f, z) == want, (mem.label, z.size)
            read += want is not None
    assert read > 0.9 * len(ORACLE_MEMBERS) * len(_READS)


def test_a_read_past_the_factor_bound_scans_each_factor_as_before():
    """|u| = 1 + 1e-9 puts the factor's zero at 1/|u|, inside the ring at
    1 - 1e-12: the factor bound fails there, so each factor is scanned point
    by point, and a read gives the margins, or None where the public
    quotients raise, as the checked arithmetic does."""
    from gftkit import SingularPoint

    u, r = -(1 + 1e-9), 1 - 1e-12
    assert not abs(u) * r * (1 + 1e-15) < 1 - 1e-13
    ring = ring_points(np.array([r]), slice(None), 720)
    through_zero = np.array([0.5, -1 / u])
    for e in (1.0, -1.0):
        f = AnalyticFunction.mobius(1, [(u, e), (0.5j, 0.5)])
        for spec in (ClassSpec.convex(), ClassSpec.starlike(), ClassSpec.m_alpha(0.5),
                     ClassSpec.strongly_starlike(0.5)):
            for z, reach in ((ring, r), (through_zero, 1 / abs(u))):
                got = class_reader(spec, f)(z, reach)
                assert (None if got is None else (got[0].tobytes(), got[1])) == _reference_read(spec, f, z)
        # the scan, not an overflow, is what rejects the point on the factor's zero
        for quotients in (lambda: f._shape_quotients(through_zero, (0, 1), 1 / abs(u)),
                          lambda: f.shape_quotients(through_zero, (0, 1))):
            with pytest.raises(SingularPoint) as info, np.errstate(over="raise", invalid="raise", divide="raise"):
                quotients()
            assert info.value.witness == through_zero[1]


@pytest.mark.parametrize("e", [1.0, -1.0], ids=["zero", "pole"])
def test_a_factor_vanishing_inside_the_disk_bounds_the_radius(e):
    """mobius accepts |u| up to 1 + 1e-9, so a factor 1 + u z can vanish at
    1/|u| < 1: f has a zero (e > 0) or a pole (e < 0) there, and no radius
    of a class that divides by f may pass it."""
    u = -(1 + 1e-9)
    f = AnalyticFunction.mobius(1, [(u, e)])
    two = AnalyticFunction.mobius(1, [(0.5, 2.0), (1j * u, e)])
    for spec in (ClassSpec.starlike(), ClassSpec.convex(), ClassSpec.m_alpha(1.0)):
        assert closed_form_bound(spec, f) == 1 / abs(u) == closed_form_bound(spec, two)
        assert closed_form_bound(spec, AnalyticFunction.mobius(1, [(-1.0, e)])) == math.inf
    # R and P_TILT count no zeros, so no count can see the factor's two sides cancel
    assert closed_form_bound(ClassSpec.p_tilt(0.3), f) == math.inf == closed_form_bound(ClassSpec.r(), f)
    for spec in (ClassSpec.starlike(), ClassSpec.convex(), ClassSpec.strongly_starlike(0.5), ClassSpec.m_alpha(0.5)):
        for tol in (1e-12, 1e-11, 1e-4):
            assert property_radius(f, spec, tol=tol) <= 1 / abs(u)


@pytest.mark.parametrize("spec", [ClassSpec.convex(), ClassSpec.m_alpha(1.0)], ids=["convex", "m_alpha(1)"])
def test_a_mobius_shape_class_search_takes_no_log_or_exp_and_grows_no_jet(spec, monkeypatch):
    """The search reads a Moebius member's shape quotients in closed form:
    its rings, rays and points take no complex logarithm or exponential and
    grow no jet, where each ring once took a log per factor and an exp."""
    f = koebe_like()
    unit_circle(720)  # the ring's exponentials, built once per angle count
    calls = []
    for name in ("log", "exp"):
        inner = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _inner=inner, _name=name, **k: calls.append(_name) or _inner(*a, **k))
    grow = AnalyticFunction._grow
    monkeypatch.setattr(AnalyticFunction, "_grow", lambda *args: calls.append("jet") or grow(*args))
    rings = _counting_rings(monkeypatch)
    got = property_radius(f, spec)
    assert calls == [] and len(rings) >= 2
    assert got == pytest.approx(2 - math.sqrt(3), abs=1e-3)


def test_the_angle_count_is_checked_at_entry():
    """An integer in [8, 2**16] (an integral float counts, as in every
    integer domain), checked before any shortcut and before any ring is read."""
    f = AnalyticFunction.mobius(1, [(0.5, 1.0)])  # z (1 + z/2): 1 + z f''/f' = (1 + 2z)/(1 + z)
    want = property_radius(f, ClassSpec.convex())
    assert want == pytest.approx(0.5, abs=1e-4)
    assert property_radius(f, ClassSpec.convex(), grid_angles=720.0).hex() == want.hex()
    for bad in (720.5, 7, 4, 0, -720, True, "720", math.nan, 2**16 + 1, 2**63, 10**20):
        with pytest.raises(BadGridSpec, match="angles"):
            property_radius(f, ClassSpec.convex(), grid_angles=bad)
    # f/z has a pole at the origin, so rho = 0 <= tol and no ring is read
    shifted = AnalyticFunction.taylor([0.25, 1], HTag(0.25))
    assert property_radius(shifted, ClassSpec.r()) == 0.0
    with pytest.raises(BadGridSpec, match="angles"):
        property_radius(shifted, ClassSpec.r(), grid_angles=4)
    with pytest.raises(BadGridSpec, match="angles"):
        family_property_radius([FamilyMember("hp", half_plane_map())], ClassSpec.convex(), grid_angles=720.5)


def _counting_rings(monkeypatch):
    """The radii of the rings read from here on, in order; a count's re-reads
    of a ring at more angles are not rings of the search."""
    calls = []
    inner = radii._read_ring

    def counted(*args):
        calls.append(args[1])
        return inner(*args)

    monkeypatch.setattr(radii, "_read_ring", counted)
    return calls


def test_bisection_reads_a_logarithmic_number_of_rings(monkeypatch):
    """The margin search reads the two ends and at most a bisection's
    ceil(log2(width/tol)) rings between them; a passing outer ring settles
    the search alone."""
    calls = _counting_rings(monkeypatch)
    got = property_radius(koebe_like(), ClassSpec.convex())
    assert got == pytest.approx(2 - math.sqrt(3), abs=1e-3)
    assert len(calls) <= 2 + math.ceil(math.log2(1 / 1e-4))
    calls.clear()
    assert property_radius(half_plane_map(), ClassSpec.convex()) == pytest.approx(0.9999, abs=1e-12)
    assert calls == [pytest.approx(0.9999, abs=1e-12)]


# ---------------------------------------------------------------------------
# plain bisection as a reference for the margin search
#
# The same bracket as property_radius, read in the same order (the ring at
# 1 - tol when the closed-form bound rho lies beyond it, then the ring at
# tol), narrowed by halving on the pass/fail bit alone, the zero count
# included: what property_radius did before it read the margin itself.


def bisect_radius(f, spec, grid_angles=720, tol=1e-4):
    rho = closed_form_bound(spec, f)
    if rho <= tol:
        return 0.0
    lo, hi = tol, min(rho, 1 - tol)
    if rho > 1 - tol and _ring_passes(f, spec, hi, grid_angles):
        return hi
    if not _ring_passes(f, spec, lo, grid_angles):
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _ring_passes(f, spec, mid, grid_angles):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("name", list(ORACLE_SPECS))
def test_margin_search_reads_no_more_rings_than_bisection(name, monkeypatch):
    spec = ORACLE_SPECS[name]
    tol = 1e-4
    calls = _counting_rings(monkeypatch)
    worse, off = [], []
    for mem in ORACLE_MEMBERS:
        calls.clear()
        want = bisect_radius(mem.f, spec, ORACLE_ANGLES, tol)
        bisected = len(calls)
        calls.clear()
        got = property_radius(mem.f, spec, ORACLE_ANGLES, tol)
        if len(calls) > bisected:
            worse.append((mem.label, bisected, len(calls)))
        if not abs(got - want) < tol:
            off.append((mem.label, want, got))
    assert not worse, f"{name}: (member, bisection rings, search rings) {worse}"
    assert not off, f"{name}: the search differs from bisection on {off}"


def test_an_aimed_search_closes_the_bracket_with_one_more_ring(monkeypatch):
    """ratio(u=-0.5, v=0) loses convexity at 1/2 on the real axis, where the
    failing outer ring has its worst point: the ray through it locates the
    radius, and the ring 0.9 tol below it passes, so the ring at tol is not
    read.  ITP alone reads that ring and 6 more."""
    f = next(m.f for m in make_family(mobius_ratio_family()) if m.label == "ratio(u=-0.5, v=0)")
    spec, tol = ClassSpec.convex(), 1e-4
    calls = _counting_rings(monkeypatch)
    got = property_radius(f, spec, tol=tol)
    assert len(calls) == 2 and calls[0] == 1 - tol
    assert got == calls[1] == pytest.approx(0.5, abs=tol)
    assert _ring_passes(f, spec, got, 720) and not _ring_passes(f, spec, got + tol, 720)
    read = class_reader(spec, f)
    (m_lo, _), (m_hi, _) = radii._ring_margin(read, tol, 720), radii._ring_margin(read, 1 - tol, 720)
    calls.clear()
    itp = radii._margin_search(read, 720, tol, (tol, m_lo), (1 - tol, m_hi))
    assert len(calls) == 6 and abs(itp - got) < tol


def test_a_failing_point_of_the_ring_at_tol_ends_the_aim(monkeypatch):
    """P_TILT fails on half of every ring about the origin when f(0) = 0:
    the first ray call finds a failing point of the ring at tol, so no
    aimed ring is read, and the ring at tol settles the radius at 0."""
    spec, tol = ClassSpec.p_tilt(0.3), 1e-4
    f = next(m.f for m in make_family(mobius_ratio_family()) if m.label == "ratio(u=0, v=0.9)")
    calls = _counting_rings(monkeypatch)
    assert property_radius(f, spec, tol=tol) == 0.0
    assert calls == [1 - tol, tol]


def test_the_oracle_matrix_reads_at_most_2000_rings(monkeypatch):
    # 3855 by plain bisection, 2542 by ITP alone, 1870 aimed
    calls = _counting_rings(monkeypatch)
    for spec in ORACLE_SPECS.values():
        for mem in ORACLE_MEMBERS:
            property_radius(mem.f, spec, ORACLE_ANGLES, 1e-4)
    assert len(calls) <= 2000


# 1-2 factors (1 + u z)^e with |u| <= 1: convexity and M_alpha(1) break
# inside the disk for most draws, so nearly every example searches
MOBIUS_FACTORS = st.lists(
    st.tuples(
        st.floats(0.2, 1.0),
        st.floats(0.0, 2 * math.pi, exclude_max=True),
        st.floats(-2.0, 2.0).filter(lambda e: abs(e) > 1e-3),
    ),
    min_size=1,
    max_size=2,
)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(MOBIUS_FACTORS)
def test_margin_search_matches_bisection_on_drawn_products(factors):
    f = AnalyticFunction.mobius(1, [(m * cmath.exp(1j * t), e) for m, t, e in factors])
    tol, angles = 1e-4, ORACLE_ANGLES
    for spec in (ClassSpec.convex(), ClassSpec.m_alpha(1.0)):
        got = property_radius(f, spec, angles, tol)
        assert abs(got - bisect_radius(f, spec, angles, tol)) < tol
        if 0 < got < 1 - tol:
            # the ring a tol farther out fails by its samples or by its count
            assert _ring_passes(f, spec, got, angles)
            assert not _ring_passes(f, spec, got + tol, angles)


# ---------------------------------------------------------------------------
# family envelope


def test_single_member_family():
    out = family_property_radius([FamilyMember("hp", half_plane_map())], ClassSpec.convex())
    assert out.radius == pytest.approx(0.9999, abs=1e-12)
    assert out.witness_label == "hp"


def test_family_minimum_selects_the_worst_member():
    fam = [FamilyMember("hp", half_plane_map()), FamilyMember("kb", koebe_like())]
    out = family_property_radius(fam, ClassSpec.convex())
    assert out.witness_label == "kb"
    assert out.radius == pytest.approx(2 - math.sqrt(3), abs=1e-3)


def test_family_spec_objects_are_expanded():
    fam = mobius_ratio_family((0.0,), (0.0, 0.5))
    out = family_property_radius(fam, ClassSpec.convex())
    assert out.radius == pytest.approx(0.9999, abs=1e-12)


def test_empty_family_is_rejected():
    with pytest.raises(BadFamilySpec):
        family_property_radius([], ClassSpec.convex())


def test_closed_forms_lower_bound_the_family_envelope():
    """Gate the ratio family by the two memberships, then compare each
    surviving member's empirical radius against the closed form for every
    parameter pair on the grid."""
    tol = 1e-4
    grid = default_grid()
    members = make_family(mobius_ratio_family())
    r_pass = {
        mem.label: check_membership(ClassSpec.r(), mem.f, grid).verdict is Verdict.HOLDS
        for mem in members
    }
    # the convexity radius of a member does not depend on the gate parameters
    conv_radius = {mem.label: property_radius(mem.f, ClassSpec.convex(), tol=tol) for mem in members}
    weighted_radius = {
        alpha: {
            mem.label: property_radius(mem.f, ClassSpec.m_alpha(1 / alpha), tol=tol)
            for mem in members
        }
        for alpha in (0.25, 0.5, 0.75, 1.0)
    }
    for lam in (0.25, 0.5, 0.75, 1.0):
        for alpha in (0.25, 0.5, 0.75, 1.0):
            gate = ClassSpec.u(lam, alpha)
            kept = [
                mem for mem in members
                if r_pass[mem.label]
                and check_membership(gate, mem.f, grid).verdict is Verdict.HOLDS
            ]
            assert kept, f"no member passes the gate at ({lam}, {alpha})"
            floor_conv = radius_convexity(lam, alpha) - 2 * tol
            floor_weighted = radius_inv_alpha_convexity(lam, alpha) - 2 * tol
            for mem in kept:
                assert conv_radius[mem.label] >= floor_conv
                assert weighted_radius[alpha][mem.label] >= floor_weighted


# ---------------------------------------------------------------------------
# the two proof estimates as standalone numeric facts


def test_log_derivative_lower_bound_over_the_ratio_grid():
    worst = 0.0
    for u in (0.0, 0.25, 0.5, 0.75, 1.0):
        for v in (0.0, 0.25, 0.5, 0.75, 1.0):
            for r in [k / 10 for k in range(1, 10)]:
                margin = caratheodory_log_derivative_min(u, v, r) - caratheodory_log_derivative_bound(r)
                worst = min(worst, margin)
    assert worst >= -1e-9


def test_constant_term_lower_bound_over_sampled_constants():
    consts = (1.0, -1.0, 0.5, -0.5, 0.0, 1j, -1j, 0.3 + 0.4j, -0.6 + 0.8j, 0.9j)
    worst = 0.0
    for c in consts:
        for r in [k / 10 for k in range(1, 10)]:
            margin = constant_schwarz_term_min(c, r) - constant_schwarz_term_bound(r)
            worst = min(worst, margin)
    assert worst >= -1e-9


def test_estimate_helpers_validate_their_domains():
    with pytest.raises(OutOfRange):
        caratheodory_log_derivative_min(1.2, 0.5, 0.5)
    with pytest.raises(OutOfRange):
        caratheodory_log_derivative_min(0.5, 0.5, 1.0)
    for angles in (4, 720.5):  # 720.5 used to build 721 points
        with pytest.raises(OutOfRange, match="angles"):
            caratheodory_log_derivative_min(0.5, 0.5, 0.5, angles=angles)
    assert caratheodory_log_derivative_min(0.5, 0.5, 0.5, angles=720.0) == caratheodory_log_derivative_min(0.5, 0.5, 0.5)
    with pytest.raises(OutOfRange):
        constant_schwarz_term_min(1.5, 0.5)
    for c in (math.nan, complex(0, math.nan)):  # a NaN compares False with every bound
        with pytest.raises(OutOfRange):
            constant_schwarz_term_min(c, 0.5)
    with pytest.raises(OutOfRange):
        constant_schwarz_term_min(0.5, 0.0)
