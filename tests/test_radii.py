"""Radius search (a margin search below the first singularity, aimed along
the failing ring's worst ray, checked against plain bisection and the
outward ring march it replaced), the pointwise class margins it reads, the
quadratic root oracle, and the envelope property that ties empirical radii
to the closed forms."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gftkit import (
    ATag,
    AnalyticFunction,
    BadFamilySpec,
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
from gftkit import core, radii
from gftkit.membership import class_margins, singular_radius


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
            if radii._ring_passes(f, spec, r, grid_angles):
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
        if radii._ring_passes(f, spec, mid, grid_angles):
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
    its points read alone, so that margin must be the ring's, bit for bit."""
    matched = 0
    for spec in ORACLE_SPECS.values():
        for mem in ORACLE_MEMBERS:
            for r in (0.5, 0.95):
                try:
                    ring, _ = class_margins(spec, mem.f, DiskGrid((r,), ORACLE_ANGLES).points)
                except (FloatingPointError, EvaluationError):
                    continue
                for k in range(0, ORACLE_ANGLES, 7):
                    point = radii._points(np.array([r]), [k], ORACLE_ANGLES)
                    assert _bits(point[0]) == _bits(DiskGrid((r,), ORACLE_ANGLES).points[k])
                    alone = radii._point_margins(mem.f, spec, point)
                    assert alone is not None and alone.shape == (1,)
                    assert float(alone[0]).hex() == float(ring[k]).hex(), (mem.label, r, k)
                    matched += 1
    assert matched > 20000


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
    assert singular_radius(ClassSpec.convex(), f) < 0.9
    assert property_radius(f, spec) == pytest.approx(0.9999, abs=1e-12)
    assert march_radius(f, spec) == pytest.approx(0.9999, abs=1e-12)


def test_a_zero_of_f_prime_inside_the_first_ring_fails_the_property():
    """f' = 1 + 2e4 z vanishes at -5e-5, inside the ring at tol = 1e-4.
    Every ring passes, so a march reports the whole disk; but 1 + z f''/f'
    has a pole there and its real part is unbounded below near it."""
    f = AnalyticFunction.taylor([0, 1, 1e4], ATag(1))
    spec = ClassSpec.convex()
    assert singular_radius(spec, f) == pytest.approx(5e-5, rel=1e-9)
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
    rho = singular_radius(spec, f)
    assert rho == pytest.approx(5e13 ** -0.25, rel=1e-9)
    got = property_radius(f, spec)
    assert 0 < got < rho
    assert radii._ring_passes(f, spec, got, 720)
    assert not radii._ring_passes(f, spec, got + 1e-4, 720)
    assert march_radius(f, spec) == pytest.approx(0.9999, abs=1e-12)


def test_mobius_derivative_roots_are_zeros_of_f_prime():
    for mem in make_family(mobius_ratio_family()) + make_family(sector_power_family()):
        coeffs = core._mobius_derivative_poly(mem.f)
        for z in np.roots(coeffs[::-1]):
            if 1e-9 < abs(z) < 1:
                assert abs(mem.f.eval(complex(z), 1)) < 1e-9, mem.label


def test_singular_radius_per_class():
    zmz2 = AnalyticFunction.taylor([0, 1, -1], ATag(1))  # f' = 0 at 1/2, f = 0 at 1
    assert singular_radius(ClassSpec.convex(), zmz2) == pytest.approx(0.5)
    assert singular_radius(ClassSpec.starlike(), zmz2) == math.inf
    assert singular_radius(ClassSpec.m_alpha(0.0), zmz2) == math.inf
    assert singular_radius(ClassSpec.m_alpha(2.0), zmz2) == pytest.approx(0.5)
    assert singular_radius(ClassSpec.r(), zmz2) == math.inf
    shifted = AnalyticFunction.taylor([0.25, 1], HTag(0.25))  # f = 0 at -1/4
    assert singular_radius(ClassSpec.g(1, 1), shifted) == pytest.approx(0.25)
    assert singular_radius(ClassSpec.p_tilt(0.3), shifted) == math.inf
    # f/z has a pole at the origin: R fails on the ring at tol, although
    # Re f/z = 1 + Re(0.25/z) is positive on the ring at 1 - tol
    assert singular_radius(ClassSpec.r(), shifted) == 0.0
    assert check_membership(ClassSpec.r(), shifted, sample_grid([1e-4], 720)).verdict is Verdict.FAILS
    assert check_membership(ClassSpec.r(), shifted, sample_grid([0.9999], 720)).verdict is Verdict.HOLDS
    assert property_radius(shifted, ClassSpec.r()) == 0.0 == march_radius(shifted, ClassSpec.r())
    # z^2 (1 + z): a double zero at the origin is removable
    cubic = AnalyticFunction.taylor([0, 0, 1, 1], ATag(2))
    assert singular_radius(ClassSpec.strongly_starlike(0.5), cubic) == pytest.approx(2 / 3)


@pytest.mark.parametrize("make", [koebe_like, lambda: AnalyticFunction.taylor([0, 1, 1], ATag(1))])
def test_m_alpha_one_after_convex_evaluates_no_ring_again(make, monkeypatch):
    # M_1 is convexity: its search reads the rings the convex search just
    # read, all of them from the jet memo
    f = make()
    property_radius(f, ClassSpec.convex())
    cold = []
    inner = AnalyticFunction._grow
    monkeypatch.setattr(AnalyticFunction, "_grow", lambda *args: cold.append(args) or inner(*args))
    got = property_radius(f, ClassSpec.m_alpha(1.0))
    assert cold == []
    want = property_radius(make(), ClassSpec.m_alpha(1.0))  # a new object: every ring cold
    assert len(cold) > 2
    assert got.hex() == want.hex() and got < 1 - 1e-4


def _counting_rings(monkeypatch):
    """The radii of the rings read from here on, in order."""
    calls = []
    inner = radii._ring_margin

    def counted(*args):
        calls.append(args[2])
        return inner(*args)

    monkeypatch.setattr(radii, "_ring_margin", counted)
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
# 1 - tol when rho lies beyond it, then the ring at tol), narrowed by
# halving on the pass/fail bit alone: what property_radius did before it
# read the margin itself.


def bisect_radius(f, spec, grid_angles=720, tol=1e-4):
    rho = singular_radius(spec, f)
    if rho <= tol:
        return 0.0
    lo, hi = tol, min(rho, 1 - tol)
    if rho > 1 - tol and radii._ring_passes(f, spec, hi, grid_angles):
        return hi
    if not radii._ring_passes(f, spec, lo, grid_angles):
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if radii._ring_passes(f, spec, mid, grid_angles):
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
    assert radii._ring_passes(f, spec, got, 720) and not radii._ring_passes(f, spec, got + tol, 720)
    (m_lo, _), (m_hi, _) = radii._ring_margin(f, spec, tol, 720), radii._ring_margin(f, spec, 1 - tol, 720)
    calls.clear()
    itp = radii._margin_search(f, spec, 720, tol, (tol, m_lo), (1 - tol, m_hi))
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
    # 3699 by plain bisection, 2434 by ITP alone, 1788 aimed
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
            assert radii._ring_passes(f, spec, got, angles)
            rho = singular_radius(spec, f)
            if got + tol < rho:
                assert not radii._ring_passes(f, spec, got + tol, angles)
            else:  # the bracket closed on the singular radius
                assert rho - got <= tol


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
    with pytest.raises(OutOfRange):
        constant_schwarz_term_min(1.5, 0.5)
    with pytest.raises(OutOfRange):
        constant_schwarz_term_min(0.5, 0.0)
