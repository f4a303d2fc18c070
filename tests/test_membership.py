"""Grid construction, verdict semantics, and the slit/region checks."""

import math

import numpy as np
import pytest

from gftkit import (
    ATag,
    AnalyticFunction,
    BadGridSpec,
    ClassSpec,
    DEFAULT_RADII,
    FunctionalSpec,
    HTag,
    OutOfRange,
    RegionKind,
    Verdict,
    build_region,
    check_membership,
    default_grid,
    evaluate_functional,
    half_plane_map,
    koebe_like,
    region_containment,
    sample_grid,
    sector_map,
    slit_avoidance,
    slit_constants,
)


# ---------------------------------------------------------------------------
# grids


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid.radii) == 23
    assert grid.angles_per_ring == 720
    assert len(grid.points) == 23 * 720
    assert all(z != 0 for z in grid.points)
    assert grid.radii == DEFAULT_RADII


def test_single_ring_grid():
    grid = sample_grid([0.5], 8)
    assert len(grid.points) == 8
    assert all(abs(abs(z) - 0.5) < 1e-15 for z in grid.points)


def test_grid_points_come_from_one_cached_unit_circle_bit_for_bit():
    from gftkit import radii
    from gftkit.membership import unit_circle

    for rs, angles in ((DEFAULT_RADII, 720), ((0.0001, 0.9999), 90), ((0.5,), 8), ((0.3, 0.1), 181)):
        k = np.arange(angles)
        ring = np.exp(2j * np.pi * k / angles)  # the points as each grid built them
        want = (np.asarray(sorted(rs))[:, None] * ring[None, :]).ravel()
        got = sample_grid(rs, angles).points
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert radii._ring(rs[0], angles).view(np.int64).tolist() == (rs[0] * ring).view(np.int64).tolist()
    assert unit_circle(720) is unit_circle(720)
    with pytest.raises(ValueError):
        unit_circle(720)[0] = 0


def test_grid_validation():
    with pytest.raises(BadGridSpec):
        sample_grid([0.99], 4)  # too few angles
    with pytest.raises(BadGridSpec):
        sample_grid([], 720)
    with pytest.raises(BadGridSpec):
        sample_grid([0.5, 1.0], 720)  # boundary radius
    with pytest.raises(BadGridSpec):
        sample_grid([0.0, 0.5], 720)


# ---------------------------------------------------------------------------
# membership verdicts


def test_sector_class_holds_for_the_matching_sector_power():
    rep = check_membership(ClassSpec.g(0.5, 0.5), sector_map(0.5, 0.0), default_grid())
    assert rep.verdict is Verdict.HOLDS
    assert rep.margin == pytest.approx(0.0025062604165880797, abs=1e-14)
    assert rep.samples_checked == 16560


def test_u_class_of_the_half_plane_map_has_unit_margin():
    # the deviation |U - 1| is identically zero, so the margin is the full lambda
    rep = check_membership(ClassSpec.u(1.0, 1.0), half_plane_map(), default_grid())
    assert rep.verdict is Verdict.HOLDS
    assert rep.margin == pytest.approx(1.0, abs=1e-12)


def test_positive_ratio_class_of_a_quadratic():
    f = AnalyticFunction.taylor([0, 1, 1], ATag(1))
    rep = check_membership(ClassSpec.r(), f, default_grid())
    assert rep.verdict is Verdict.HOLDS
    assert rep.margin == pytest.approx(0.005, abs=1e-14)


def test_convexity_of_the_half_plane_map():
    rep = check_membership(ClassSpec.convex(), half_plane_map(), default_grid())
    assert rep.verdict is Verdict.HOLDS
    assert rep.margin == pytest.approx(0.0025062656641604564, abs=1e-14)


def test_convexity_fails_far_from_the_origin():
    rep = check_membership(ClassSpec.convex(), koebe_like(), default_grid())
    assert rep.verdict is Verdict.FAILS
    assert rep.margin < 0
    assert rep.witness is not None
    assert abs(rep.witness) > 0.9


def test_convexity_holds_on_an_inner_subgrid():
    # shrinking the outer radius can only help; the small-disk verdict flips
    # back to HOLDS well inside the convexity radius
    grid = sample_grid([0.05, 0.1, 0.15, 0.2, 0.25], 720)
    rep = check_membership(ClassSpec.convex(), koebe_like(), grid)
    assert rep.verdict is Verdict.HOLDS
    assert rep.margin == pytest.approx(0.06666666666666654, abs=1e-12)


def test_margin_inside_the_eps_band_is_undecided():
    f = AnalyticFunction.taylor([1, 1], HTag(1))  # 1 + z, min Re = 0.005
    rep = check_membership(ClassSpec.p_tilt(0.0), f, default_grid())
    assert rep.verdict is Verdict.HOLDS
    assert rep.margin == pytest.approx(0.005, abs=1e-14)
    banded = check_membership(ClassSpec.p_tilt(0.0), f, default_grid(), eps=0.01)
    assert banded.verdict is Verdict.UNDECIDED
    assert banded.margin == rep.margin


def test_evaluation_error_yields_undecided_with_witness():
    # 1 + z f''/f' of z + z^2 blows up at z = -1/2, which sits on the default grid
    f = AnalyticFunction.taylor([0, 1, 1], ATag(1))
    rep = check_membership(ClassSpec.convex(), f, default_grid())
    assert rep.verdict is Verdict.UNDECIDED
    assert math.isnan(rep.margin)
    assert rep.witness == pytest.approx(-0.5, abs=1e-12)
    assert rep.samples_checked == 0


def test_off_axis_grid_sees_the_genuine_failure():
    # an odd angle count misses the singular point and the verdict resolves
    f = AnalyticFunction.taylor([0, 1, 1], ATag(1))
    rep = check_membership(ClassSpec.convex(), f, sample_grid(DEFAULT_RADII, 719))
    assert rep.verdict is Verdict.FAILS
    assert rep.margin < 0


def test_strongly_starlike_equals_sector_class_of_the_log_derivative():
    """Same class, two routes: the derivative assembly inside the checker and
    the closed-form target map must produce the same report."""
    ss = check_membership(ClassSpec.strongly_starlike(0.5), koebe_like(), default_grid())
    target = AnalyticFunction.mobius(0, [(1, 1.0), (-1, -1.0)])  # (1+z)/(1-z)
    gg = check_membership(ClassSpec.g(0.5, 0.5), target, default_grid())
    assert ss.verdict is gg.verdict is Verdict.FAILS
    assert ss.margin == pytest.approx(gg.margin, abs=1e-12)


def test_weighted_convexity_matches_the_mixed_expression():
    grid = sample_grid([0.3, 0.6], 64)
    rep = check_membership(ClassSpec.m_alpha(0.7), koebe_like(), grid)
    pts = np.array(grid.points)
    vals = evaluate_functional(FunctionalSpec.mixed(0.3), koebe_like(), pts)
    assert rep.margin == pytest.approx(float(np.min(vals.real)), abs=1e-13)


def test_a_term_of_weight_zero_drops_out_of_the_weighted_convexity():
    """f = z - 2z^2 vanishes at 1/2, where z f'/f has a pole; M_1 gives that
    term weight 0, so it reads 1 + z f''/f' alone, as convexity does."""
    f, grid = AnalyticFunction.taylor([0, 1, -2], ATag(1)), sample_grid([0.5], 8)
    convex = check_membership(ClassSpec.convex(), f, grid)
    assert convex.verdict is Verdict.HOLDS and convex.margin == pytest.approx(5 / 3)
    assert check_membership(ClassSpec.m_alpha(1.0), f, grid) == convex
    # alpha = 0 leaves z f'/f alone, which is starlikeness
    h = half_plane_map()
    assert check_membership(ClassSpec.m_alpha(0.0), h, grid) == check_membership(ClassSpec.starlike(), h, grid)


def test_weighted_convexity_allows_weights_above_one():
    rep = check_membership(ClassSpec.m_alpha(2.0), half_plane_map(), default_grid())
    assert rep.verdict is Verdict.FAILS
    assert rep.margin == pytest.approx(-0.49624060150375926, abs=1e-13)


def test_class_parameter_validation():
    with pytest.raises(OutOfRange):
        ClassSpec.g(1.2, 0.5)
    with pytest.raises(OutOfRange):
        ClassSpec.strongly_starlike(0.0)
    with pytest.raises(OutOfRange):
        ClassSpec.strongly_starlike(1.5)
    with pytest.raises(OutOfRange):
        ClassSpec.u(0.0, 1.0)
    with pytest.raises(OutOfRange):
        ClassSpec.u(1.0, 0.0)
    with pytest.raises(OutOfRange):
        ClassSpec.p_tilt(math.pi / 2)


def test_class_parameters_must_be_finite():
    # M's weight may be any finite real (0, 0.7 and 2.0 are used above)
    for make in (lambda: ClassSpec.m_alpha(math.inf), lambda: ClassSpec.m_alpha(math.nan),
                 lambda: ClassSpec.p_tilt(math.nan), lambda: ClassSpec.g(0.5, math.nan)):
        with pytest.raises(OutOfRange):
            make()


def test_an_overflowing_margin_is_undecided():
    rep = check_membership(ClassSpec.m_alpha(1e308), koebe_like(), sample_grid([0.5], 8))
    assert rep.verdict is Verdict.UNDECIDED
    assert math.isnan(rep.margin)


def test_report_serialization_shape():
    rep = check_membership(ClassSpec.p_tilt(0.0), AnalyticFunction.taylor([1, 1], HTag(1)), default_grid())
    blob = rep.to_json()
    assert blob["verdict"] == "HOLDS"
    assert blob["samples"] == 16560
    assert isinstance(blob["witness"], list) and len(blob["witness"]) == 2
    assert blob["witness"][0] == pytest.approx(-0.995)


# ---------------------------------------------------------------------------
# slit avoidance


def test_point_opposite_the_slit_measures_to_the_anchor():
    s = slit_constants(1, 1, 1)
    chk = slit_avoidance([1 + 0j], s)
    assert chk.avoided
    assert chk.min_distance == pytest.approx(2.0, abs=1e-15)  # hypot(1, sqrt3)
    assert chk.witness == 1 + 0j


def test_point_on_the_slit_is_not_avoided():
    chk = slit_avoidance([2j], slit_constants(1, 1, 1))
    assert not chk.avoided
    assert chk.min_distance == 0.0


def test_point_beside_the_slit_measures_horizontally():
    chk = slit_avoidance([1 + 5j], slit_constants(1, 1, 1))
    assert chk.avoided
    assert chk.min_distance == pytest.approx(1.0, abs=1e-15)


def test_origin_distance_is_the_slit_height():
    chk = slit_avoidance([0j], slit_constants(1, 1, 1))
    assert chk.min_distance == pytest.approx(math.sqrt(3), abs=1e-15)


def test_half_plane_image_avoids_the_balanced_slit():
    # 1 + z f''/f' of z/(1-z) fills the right half-plane; the slit lives on
    # the imaginary axis at heights >= sqrt(3)
    grid = default_grid()
    pts = np.array(grid.points)
    vals = evaluate_functional(FunctionalSpec.convex(), half_plane_map(), pts)
    chk = slit_avoidance(list(vals), slit_constants(1, 1, 1))
    assert chk.avoided
    assert chk.min_distance > 0


def test_slit_avoidance_requires_values():
    with pytest.raises(BadGridSpec):
        slit_avoidance([], slit_constants(1, 1, 1))


# ---------------------------------------------------------------------------
# region containment


def test_disk_region_membership():
    r = build_region(RegionKind.DISK, p=1, gamma=1.0, delta=1.0)
    chk = region_containment([1 + 0j], r)
    assert chk.contained
    assert chk.margin == pytest.approx(2.0, abs=1e-15)


def test_half_plane_boundary_is_outside():
    r = build_region(RegionKind.HALF_PLANE, x=2.0)
    chk = region_containment([2 + 0j], r)
    assert not chk.contained


def test_ellipse_center_is_inside_either_orientation():
    tall = build_region(RegionKind.ELLIPSE, x=1.0, y=3.0)
    wide = build_region(RegionKind.ELLIPSE, x=3.0, y=1.0)
    assert not tall.major_is_x
    assert wide.major_is_x
    assert region_containment([0j], tall).contained
    assert region_containment([0j], wide).contained


def test_ellipse_two_focus_sum_boundary():
    # major axis along x: the vertex (X, 0) attains the focus-sum exactly
    r = build_region(RegionKind.ELLIPSE, x=3.0, y=1.0)
    chk = region_containment([3.0 + 0j], r)
    assert not chk.contained


def test_region_containment_requires_values():
    with pytest.raises(BadGridSpec):
        region_containment([], build_region(RegionKind.DISK))
