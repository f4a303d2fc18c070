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
    DiskGrid,
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
from gftkit.membership import classify


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
    # for 720.5 DiskGrid once built 721 points and sample_grid 720; 2**63
    # once built an empty ring and 10**20 failed in numpy: every count is
    # checked before any array is built
    for angles in (720.5, 7.0, True, "720", 2**16 + 1, 2**63, 10**20):
        with pytest.raises(BadGridSpec, match="angles"):
            DiskGrid((0.5,), angles)
        with pytest.raises(BadGridSpec, match="angles"):
            sample_grid([0.5], angles)
    assert sample_grid([0.5], 2**16).points.size == 2**16
    grid = DiskGrid((0.5,), 720.0)  # an integral float is an integer
    assert grid.angles_per_ring == 720 and type(grid.angles_per_ring) is int and grid.points.size == 720


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


def test_each_class_declares_its_orders_as_tuples():
    """singular lists the orders whose zeros make a margin singular (-1 for
    f/z, 0 for f, 1 for f'), quotients the shape quotients the margin reads
    (0 for z f'/f, 1 for 1 + z f''/f'); each quotient's order is singular,
    as a quotient is unbounded near its zeros."""
    from gftkit.membership import CLASSES

    for kind, cls in CLASSES.items():
        assert type(cls.singular) is tuple and set(cls.singular) <= {-1, 0, 1}, kind
        assert type(cls.quotients) is tuple and set(cls.quotients) <= {0, 1}, kind
        assert set(cls.quotients) <= set(cls.singular), kind


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
    assert rep.witness == 0.5  # the first point where the margin overflows


# ring_membership: the jet's check with the shape quotients read as the
# radius search reads a ring; the radius cases conclude with it


def test_a_vanishing_derivative_is_undecided_on_both_readings():
    # f = z(1 - z) has f' = 1 - 2z = 0 at z = 0.5, a point of the ring
    from gftkit.membership import ring_membership

    f = AnalyticFunction.mobius(1, [(-1, 1)])
    for check in (check_membership, ring_membership):
        rep = check(ClassSpec.convex(), f, sample_grid([0.5], 720))
        assert rep.verdict is Verdict.UNDECIDED and math.isnan(rep.margin), check
        assert rep.witness == 0.5 + 0j and rep.samples_checked == 0, check


def test_a_jet_that_overflows_under_finite_quotients_is_decided_on_the_ring():
    # (1 + 0.9z)^-300 overflows the jet at z = -0.5, but its quotients stay
    # finite: the ring fails at 0.5, as the radius search reads it
    from gftkit.membership import ring_membership

    f = AnalyticFunction.mobius(1, [(0.9, -300.0)])
    grid = sample_grid([0.5], 720)
    jet = check_membership(ClassSpec.convex(), f, grid)
    assert jet.verdict is Verdict.UNDECIDED and math.isnan(jet.margin) and jet.witness == 0.5
    rep = ring_membership(ClassSpec.convex(), f, grid)
    assert rep.verdict is Verdict.FAILS and rep.margin == pytest.approx(-91.40630527117573, rel=1e-12)
    assert rep.witness == 0.5 + 0j and rep.samples_checked == 720


def test_overflowing_quotients_are_witnessed_where_a_quotient_is_not_finite():
    # (1 + z)^1e308: the jet overflows at 0.5, its first point; the closed
    # form's s' = -1e308/(1 + z)^2 first overflows at angle 4 pi/5
    from gftkit.membership import ring_membership

    f = AnalyticFunction.mobius(1, [(1, 1e308)])
    grid = sample_grid([0.5], 720)
    assert check_membership(ClassSpec.convex(), f, grid).witness == 0.5
    rep = ring_membership(ClassSpec.convex(), f, grid)
    assert rep.verdict is Verdict.UNDECIDED and math.isnan(rep.margin) and rep.samples_checked == 0
    assert rep.witness == grid.points[288]
    assert rep.witness == pytest.approx(-0.4045084971874737 + 0.2938926261462366j, abs=1e-15)


def test_the_edge_members_of_ring_membership_hold_no_radius_hypothesis():
    # the three members above never reach a radius case's conclusion: the
    # U and R gate, read on the jet, fails or is undecided for each
    from gftkit import FamilyMember, TheoremCase, verify_theorem

    family = [FamilyMember(str(t), AnalyticFunction.mobius(1, t)) for t in ([(-1, 1)], [(0.9, -300.0)], [(1, 1e308)])]
    for case_id in ("T41", "C42", "T43", "C44"):
        rows = verify_theorem(TheoremCase.make(case_id), family).rows
        assert [r.hyp_verdict for r in rows] == [Verdict.FAILS, Verdict.UNDECIDED, Verdict.UNDECIDED], case_id
        assert all(r.concl_verdict is None and r.error is None for r in rows), case_id


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
    assert classify(chk.min_distance, 1e-9) is Verdict.HOLDS
    assert chk.min_distance == pytest.approx(2.0, abs=1e-15)  # hypot(1, sqrt3)
    assert chk.witness == 1 + 0j


def test_point_on_the_slit_is_not_avoided():
    chk = slit_avoidance([2j], slit_constants(1, 1, 1))
    assert classify(chk.min_distance, 1e-9) is not Verdict.HOLDS
    assert chk.min_distance == 0.0


def test_point_beside_the_slit_measures_horizontally():
    chk = slit_avoidance([1 + 5j], slit_constants(1, 1, 1))
    assert classify(chk.min_distance, 1e-9) is Verdict.HOLDS
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
    assert classify(chk.min_distance, 1e-9) is Verdict.HOLDS
    assert chk.min_distance > 0


def test_slit_avoidance_requires_values():
    with pytest.raises(BadGridSpec):
        slit_avoidance([], slit_constants(1, 1, 1))


# ---------------------------------------------------------------------------
# region containment


def test_disk_region_membership():
    r = build_region(RegionKind.DISK, p=1, gamma=1.0, delta=1.0)
    chk = region_containment([1 + 0j], r)
    assert classify(chk.margin, 1e-9) is Verdict.HOLDS
    assert chk.margin == pytest.approx(2.0, abs=1e-15)


def test_half_plane_boundary_is_outside():
    r = build_region(RegionKind.HALF_PLANE, x=2.0)
    chk = region_containment([2 + 0j], r)
    assert classify(chk.margin, 1e-9) is not Verdict.HOLDS


def test_ellipse_center_is_inside_either_orientation():
    tall = build_region(RegionKind.ELLIPSE, x=1.0, y=3.0)
    wide = build_region(RegionKind.ELLIPSE, x=3.0, y=1.0)
    assert not tall.major_is_x
    assert wide.major_is_x
    assert classify(region_containment([0j], tall).margin, 1e-9) is Verdict.HOLDS
    assert classify(region_containment([0j], wide).margin, 1e-9) is Verdict.HOLDS


def test_ellipse_two_focus_sum_boundary():
    # major axis along x: the vertex (X, 0) attains the focus-sum exactly
    r = build_region(RegionKind.ELLIPSE, x=3.0, y=1.0)
    chk = region_containment([3.0 + 0j], r)
    assert classify(chk.margin, 1e-9) is not Verdict.HOLDS


def test_region_containment_requires_values():
    with pytest.raises(BadGridSpec):
        region_containment([], build_region(RegionKind.DISK))
