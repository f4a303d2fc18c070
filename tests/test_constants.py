"""Closed-form constants against independent numeric oracles.

Every slit height, window edge, and radius that has a printed formula is
cross-checked here by direct one-dimensional optimization of the matching
ray objective, or by an explicitly assembled quadratic root.
"""

import math

import pytest

from gftkit import (
    DegenerateDenominator,
    DegenerateSum,
    Direction,
    DiskRequiresLambdaZero,
    InvalidBracket,
    OutOfRange,
    RegionKind,
    a_min,
    arg_kernel,
    arg_theorem_constants,
    build_region,
    c_lambda,
    eta,
    lambda_tilt,
    m_alpha,
    optimize_1d,
    radius_convexity,
    radius_inv_alpha_convexity,
    region_containment,
    slit_constants,
    slit_ray_objective,
    strong_orders,
    thm3_constants,
    tilt_ray_objective,
    weighted_ray_objective,
)
from gftkit.membership import Verdict, classify

# documented parameter grid for the slit sweep: every admissible pair here
# has both orders positive, so the half-angle stays acute
SLIT_PAIRS = [(a, b) for a in (0.1, 0.25, 0.5, 0.75, 1.0) for b in (0.1, 0.25, 0.5, 0.75, 1.0)]


# ---------------------------------------------------------------------------
# sector half-angle


def test_half_angle_of_balanced_orders_is_zero():
    assert eta(1, 1) == 0.0
    assert eta(0.3, 0.3) == 0.0


def test_half_angle_example():
    assert eta(0.5, 0.25) == pytest.approx(math.pi / 6, abs=1e-15)


def test_half_angle_is_antisymmetric():
    for a, b in ((0.5, 0.25), (0.75, 0.1), (1.0, 0.4)):
        assert eta(a, b) == pytest.approx(-eta(b, a), abs=1e-15)


def test_half_angle_domain():
    with pytest.raises(DegenerateSum):
        eta(0.5, -0.5)
    with pytest.raises(OutOfRange):
        eta(1.2, 0.5)


# ---------------------------------------------------------------------------
# slit anchors and heights


def test_balanced_slit_is_vertical_with_symmetric_heights():
    s = slit_constants(1, 1, 1)
    down, up = s.rays
    assert down.direction is Direction.DOWN
    assert up.direction is Direction.UP
    assert down.anchor.real == 0.0 and up.anchor.real == 0.0
    root3 = math.sqrt(3)
    assert down.anchor.imag == pytest.approx(-root3, abs=1e-15)
    assert up.anchor.imag == pytest.approx(root3, abs=1e-15)


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75, 1.0])
def test_balanced_slit_height_equals_the_mixed_height(a):
    # the two formulas share every intermediate, so equality is exact
    s = slit_constants(a, a, 1)
    assert s.rays[1].anchor.real == 0.0
    assert s.rays[1].anchor.imag == c_lambda(1 - a)


def test_general_slit_anchor_values():
    s = slit_constants(0.75, 0.5, 1)
    down, up = s.rays
    assert down.anchor.real == pytest.approx(0.156588754468, rel=1e-9)
    assert up.anchor.real == pytest.approx(-0.156588754468, rel=1e-9)
    assert down.anchor.imag == pytest.approx(-1.09379232974, rel=1e-9)
    assert up.anchor.imag == pytest.approx(1.49994195003, rel=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_slit_heights_match_ray_objective_minima(n):
    """Each height must equal (s cos(eta)/2) times the golden-section minimum
    of the matching objective, independently of the printed closed form."""
    for a, b in SLIT_PAIRS:
        s_sum = (a + b) * n
        e = eta(a, b)
        pref = s_sum * math.cos(e) / 2
        spec = slit_constants(a, b, n)
        lo_height = -spec.rays[0].anchor.imag
        hi_height = spec.rays[1].anchor.imag
        m1 = optimize_1d(slit_ray_objective(a, b, n, 1), (1e-4, 100.0)).f_star
        m2 = optimize_1d(slit_ray_objective(a, b, n, 2), (1e-4, 100.0)).f_star
        assert lo_height == pytest.approx(pref * m1, abs=1e-8)
        assert hi_height == pytest.approx(pref * m2, abs=1e-8)


def test_slit_anchor_signs_and_directions():
    for a, b in ((0.75, 0.5), (0.5, 0.75), (1.0, 0.1)):
        s = slit_constants(a, b, 2)
        down, up = s.rays
        assert down.direction is Direction.DOWN and up.direction is Direction.UP
        assert down.anchor.imag < 0 < up.anchor.imag
        # mirrored real parts
        assert down.anchor.real == pytest.approx(-up.anchor.real, abs=1e-15)


def test_slit_rejects_inadmissible_orders():
    with pytest.raises(OutOfRange):
        slit_constants(-0.5, 1.0, 1)  # half-angle not acute
    with pytest.raises(DegenerateSum):
        slit_constants(0.5, -0.5, 1)
    with pytest.raises(OutOfRange):
        slit_constants(1, 1, 0)


# ---------------------------------------------------------------------------
# vertical-slit heights for the weighted expressions


def test_mixed_height_examples():
    assert c_lambda(0) == pytest.approx(math.sqrt(3), abs=1e-12)
    assert c_lambda(0.5) == pytest.approx(0.5 * math.sqrt(5), abs=1e-13)


def test_mixed_height_is_strictly_decreasing():
    xs = [0.99 * k / 99 for k in range(100)]
    vals = [c_lambda(x) for x in xs]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


def test_mixed_height_domain():
    with pytest.raises(OutOfRange):
        c_lambda(1.0)
    with pytest.raises(OutOfRange):
        c_lambda(-0.1)


def test_tilt_height_examples():
    assert a_min(0) == math.sqrt(3)
    assert a_min(math.pi / 6) == pytest.approx(1.3312446092724948, abs=1e-14)


def test_tilt_height_positive_up_to_the_right_edge():
    for k in range(50):
        lam = (math.pi / 2 - 0.01) * k / 49
        assert a_min(lam) > 0


def test_tilt_height_domain():
    with pytest.raises(OutOfRange):
        a_min(math.pi / 2)
    with pytest.raises(OutOfRange):
        a_min(-0.01)


@pytest.mark.parametrize("lam", [0.0, math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3])
def test_tilt_height_matches_both_ray_objectives(lam):
    # branch 1 attains the height itself, branch 2 sits 2 tan(lam) higher
    got1 = optimize_1d(tilt_ray_objective(lam, 1), (1e-4, 100.0)).f_star
    got2 = optimize_1d(tilt_ray_objective(lam, 2), (1e-4, 100.0)).f_star
    assert got1 == pytest.approx(a_min(lam), abs=1e-8)
    assert got2 == pytest.approx(a_min(lam) + 2 * math.tan(lam), abs=1e-8)


# ---------------------------------------------------------------------------
# weighted tilted slit


def test_weighted_slit_reduces_to_the_balanced_slit():
    t = thm3_constants(1, 1, 1, 0.0)
    assert t.x == 0.0
    assert t.y_min == pytest.approx(math.sqrt(3), abs=1e-15)
    base = slit_constants(1, 1, 1)
    got = {(round(r.anchor.real, 14), round(r.anchor.imag, 12), r.direction) for r in t.slit.rays}
    want = {(round(r.anchor.real, 14), round(r.anchor.imag, 12), r.direction) for r in base.rays}
    assert got == want


def test_weighted_slit_spot_values():
    assert thm3_constants(2, 1, 1, 0.0).y_min == pytest.approx(math.sqrt(5), abs=1e-14)
    t = thm3_constants(1, 1, 1, math.pi / 6)
    assert t.x == pytest.approx(0.3162277660168379, abs=1e-14)
    assert t.y_min == pytest.approx(1.248391589160928, abs=1e-14)
    t2 = thm3_constants(1, 1, 2, math.pi / 6)
    assert t2.x == pytest.approx(0.25, abs=1e-14)
    assert t2.y_min == pytest.approx(math.sqrt(3), abs=1e-13)


def test_weighted_slit_ray_layout():
    t = thm3_constants(1.5, 0.5, 1, math.pi / 4)
    up, down = t.slit.rays
    assert up.direction is Direction.UP and down.direction is Direction.DOWN
    assert up.anchor == pytest.approx(complex(-t.x, t.y_min), abs=1e-15)
    assert down.anchor == pytest.approx(complex(t.x, -t.y_min), abs=1e-15)


@pytest.mark.parametrize(
    "gamma, delta, p, lam",
    [(1, 1, 1, 0.0), (2, 1, 1, 0.0), (1, 1, 2, math.pi / 6), (1.5, 0.5, 1, math.pi / 4), (0.75, 2, 3, 0.3)],
)
def test_weighted_height_matches_ray_objective_minimum(gamma, delta, p, lam):
    t = thm3_constants(gamma, delta, p, lam)
    got = optimize_1d(weighted_ray_objective(gamma, delta, p, lam), (1e-4, 100.0)).f_star
    assert got == pytest.approx(t.y_min, abs=1e-8)


def test_weighted_slit_domain():
    with pytest.raises(OutOfRange):
        thm3_constants(0.0, 1.0, 1, 0.0)
    with pytest.raises(OutOfRange):
        thm3_constants(1.0, 1.0, 0, 0.0)
    with pytest.raises(OutOfRange):
        thm3_constants(1.0, 1.0, 1, math.pi / 2)


# ---------------------------------------------------------------------------
# forbidden regions


def test_disk_region_for_unit_weights():
    r = build_region(RegionKind.DISK, p=1, gamma=1.0, delta=1.0)
    assert r.center == 1 + 0j
    assert r.radius == pytest.approx(2.0, abs=1e-15)
    (slack,) = region_containment([1 + 0j], r)
    assert classify(slack, 1e-9) is Verdict.HOLDS and slack == pytest.approx(2.0, abs=1e-15)


def test_ellipse_region_focus_layout():
    r = build_region(RegionKind.ELLIPSE, x=3.0, y=1.0)
    assert r.major_is_x
    assert r.c == pytest.approx(math.sqrt(8), abs=1e-14)
    assert classify(region_containment([0j], r)[0], 1e-9) is Verdict.HOLDS


@pytest.mark.parametrize("kind, x, y, error", [
    (RegionKind.HALF_PLANE, math.nan, 0.0, OutOfRange),
    (RegionKind.HALF_PLANE, math.inf, 0.0, OutOfRange),
    (RegionKind.HALF_PLANE, -math.inf, 0.0, OutOfRange),
    (RegionKind.RECTANGLE, math.nan, 1.0, OutOfRange),
    (RegionKind.RECTANGLE, 0.5, math.nan, OutOfRange),
    (RegionKind.RECTANGLE, math.inf, 1.0, OutOfRange),
    (RegionKind.ELLIPSE, math.nan, 1.0, OutOfRange),
    (RegionKind.ELLIPSE, 1.0, math.nan, OutOfRange),
    (RegionKind.ELLIPSE, 1.0, math.inf, OutOfRange),
    (RegionKind.DISK, math.nan, 0.0, DiskRequiresLambdaZero),  # abs(nan) > 1e-12 is False
])
def test_region_bounds_must_be_finite(kind, x, y, error):
    with pytest.raises(error):
        build_region(kind, x=x, y=y)


# ---------------------------------------------------------------------------
# argument window


def test_argument_window_spot_values():
    ac = arg_theorem_constants(0.5, 0.25, 0.75)
    assert ac.delta1 == pytest.approx(-0.33769568537922773, abs=1e-14)
    assert ac.delta2 == pytest.approx(0.6360486176343588, abs=1e-14)
    assert ac.M1 == pytest.approx(3.4430609975547157, abs=1e-13)
    assert ac.M2 == pytest.approx(1.280226508052644, abs=1e-13)
    assert ac.x_star1 == pytest.approx(0.9845232578665132, abs=1e-13)
    assert ac.x_star2 == pytest.approx(1.584523257866513, abs=1e-13)


def test_argument_window_is_symmetric_for_balanced_orders():
    for a in (0.1, 0.3, 0.5, 0.7, 0.9):
        for gam in (0.25, 0.5, 0.75, 1.0):
            ac = arg_theorem_constants(a, a, gam)
            assert ac.delta1 == pytest.approx(-ac.delta2, abs=1e-14)
            assert ac.M1 == pytest.approx(ac.M2, abs=1e-13)


@pytest.mark.parametrize("a", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_kernel_extremum_matches_printed_maximizer_for_balanced_orders(a):
    """For balanced orders the printed maximizer is the true argmax, so the
    golden-section maximum of the kernel reproduces both pieces."""
    ac = arg_theorem_constants(a, a, 1.0)
    want_x = math.sqrt((1 + a) / (1 - a))
    for j, m_closed, x_closed in ((1, ac.M1, ac.x_star1), (2, ac.M2, ac.x_star2)):
        assert x_closed == pytest.approx(want_x, abs=1e-13)
        res = optimize_1d(arg_kernel(a, a, j), (0.01, 10.0), mode="max")
        assert res.f_star == pytest.approx(m_closed, abs=1e-8)
        assert res.x_star == pytest.approx(x_closed, abs=1e-6)


@pytest.mark.parametrize("alpha, beta, j", [(0.9, 0.1, 1), (0.99, 0.01, 1), (0.1, 0.9, 2)])
def test_argument_window_rejects_orders_whose_maximizer_is_not_positive(alpha, beta, j):
    """For orders far apart the closed-form abscissa x*_j is negative, where
    the kernel is not defined; the error names both orders and the condition."""
    with pytest.raises(OutOfRange, match=rf"need x\*_{j} > 0, got -.* for alpha = {alpha}, beta = {beta}"):
        arg_theorem_constants(alpha, beta, 0.75)


def test_kernel_formula_spot_value():
    # direct assembly of the kernel at one point
    a, b, x = 0.5, 0.25, 1.5
    s = a + b
    e = eta(a, b)
    want = 4 * x ** (s / 2) / ((x + 1 / x) / math.cos(e) + 2 * math.tan(e))
    assert arg_kernel(a, b, 2)(x) == pytest.approx(want, abs=1e-14)


def test_peak_size_examples():
    assert m_alpha(0.5) == pytest.approx(2.279507056954778, abs=1e-14)
    with pytest.raises(OutOfRange):
        m_alpha(0.0)
    with pytest.raises(OutOfRange):
        m_alpha(1.0)


# ---------------------------------------------------------------------------
# strong orders


def test_strong_orders_spot_values():
    so = strong_orders(0.5, 0.5)
    assert so.delta == pytest.approx(0.5740000317362274, abs=1e-14)
    assert so.convex_order == pytest.approx(1.6480000634724548, abs=1e-14)


def test_strong_order_equals_the_balanced_window_edge():
    for a in (0.1, 0.3, 0.5, 0.7, 0.9):
        for gam in (0.25, 0.5, 0.75, 1.0):
            so = strong_orders(a, gam)
            ac = arg_theorem_constants(a, a, gam)
            assert so.delta == pytest.approx(ac.delta2, abs=1e-12)
            assert so.convex_order == pytest.approx(((1 - gam) * a + so.delta) / gam, abs=1e-12)


def test_strong_orders_domain():
    with pytest.raises(OutOfRange):
        strong_orders(1.0, 0.5)
    with pytest.raises(OutOfRange):
        strong_orders(0.5, 0.0)
    with pytest.raises(OutOfRange):
        strong_orders(0.5, 1.5)


# ---------------------------------------------------------------------------
# tilt angle of a rotated disk automorphism


def test_tilt_angle_examples():
    assert lambda_tilt(1, 0.5) == pytest.approx(math.pi / 4, abs=1e-15)
    assert lambda_tilt(0, 0.3) == 0.0
    assert lambda_tilt(0, -0.8) == 0.0
    assert lambda_tilt(0.5, 0.9) == pytest.approx(0.2864937924606281, abs=1e-14)


def test_tilt_angle_is_odd_in_the_rotation():
    for b in (0.25, 0.5, 0.75, 1.0):
        for m in (0.1, 0.4, 0.8):
            assert lambda_tilt(b, -m) == pytest.approx(-lambda_tilt(b, m), abs=1e-15)


def test_tilt_angle_degenerate_pair():
    with pytest.raises(DegenerateDenominator):
        lambda_tilt(1.0, 1.0)
    with pytest.raises(DegenerateDenominator):
        lambda_tilt(1.0, -1.0)


# ---------------------------------------------------------------------------
# convexity radii


def test_radius_examples():
    assert radius_convexity(1, 0) == pytest.approx((math.sqrt(17) - 3) / 4, abs=1e-12)
    assert radius_convexity(1, 1) == pytest.approx((math.sqrt(33) - 5) / 4, abs=1e-12)
    assert radius_inv_alpha_convexity(0.5, 0.5) == pytest.approx((math.sqrt(33) - 5) / 4, abs=1e-13)


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_unit_weight_radius_matches_quadratic_formula(alpha):
    want = (-(3 + 2 * alpha) + math.sqrt(17 + 12 * alpha + 4 * alpha * alpha)) / 4
    assert radius_convexity(1, alpha) == pytest.approx(want, abs=1e-12)


def test_radii_agree_on_the_shared_edge():
    for k in range(11):
        lam = 0.01 + 0.99 * k / 10
        assert radius_convexity(lam, 1) == pytest.approx(radius_inv_alpha_convexity(lam, 1), abs=1e-13)


def test_radius_is_decreasing_in_the_order():
    vals = [radius_convexity(1, k / 10) for k in range(11)]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


def test_radius_domains():
    with pytest.raises(OutOfRange):
        radius_convexity(0.0, 0.5)
    with pytest.raises(OutOfRange):
        radius_convexity(1.5, 0.5)
    with pytest.raises(OutOfRange):
        radius_convexity(1.0, -0.1)
    with pytest.raises(OutOfRange):
        radius_inv_alpha_convexity(0.5, 0.0)


# ---------------------------------------------------------------------------
# one-dimensional search


def test_search_finds_parabola_minimum():
    res = optimize_1d(lambda x: (x - 2) ** 2, (0.0, 5.0))
    assert res.x_star == pytest.approx(2.0, abs=1e-8)
    assert res.f_star == pytest.approx(0.0, abs=1e-15)


def test_search_on_x_plus_reciprocal():
    res = optimize_1d(lambda x: x + 1 / x, (0.2, 5.0))
    assert res.x_star == pytest.approx(1.0, abs=1e-6)
    assert res.f_star == pytest.approx(2.0, abs=1e-12)


def test_search_maximum_mode():
    res = optimize_1d(lambda x: 4 - (x - 3) ** 2, (0.0, 10.0), mode="max")
    assert res.x_star == pytest.approx(3.0, abs=1e-6)
    assert res.f_star == pytest.approx(4.0, abs=1e-12)


def test_search_rejects_bad_inputs():
    with pytest.raises(InvalidBracket):
        optimize_1d(lambda x: x, (1.0, 0.5))
    with pytest.raises(OutOfRange):
        optimize_1d(lambda x: x, (0.0, 1.0), mode="extreme")


def _counted(fn, limit=10_000):
    """fn, raising once it has been called more than limit times, so a
    search that does not stop fails instead of hanging."""
    calls = []

    def counted(x):
        calls.append(x)
        if len(calls) > limit:
            raise RuntimeError(f"more than {limit} objective calls")
        return fn(x)

    return counted


def test_search_stops_where_no_probe_fits_inside_the_bracket():
    # a tol below the float spacing at the optimum is never reached: the
    # search stops once rounding leaves no probe strictly inside the bracket
    for tol in (1e-17, 1e-300, 5e-324):
        res = optimize_1d(_counted(lambda x: (x - 0.3) ** 2), (0, 2), tol=tol)
        assert res.x_star == pytest.approx(0.3, abs=1e-7)


def test_search_tolerance_must_be_a_finite_width():
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(OutOfRange):
            optimize_1d(_counted(lambda x: (x - 0.3) ** 2), (0, 2), tol=tol)
