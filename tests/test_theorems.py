"""Families, lemma checks, case plumbing, and implication scans."""

import cmath
import math
import os

import numpy as np
import pytest

from gftkit import (
    CASE_IDS,
    AnalyticFunction,
    BadFamilySpec,
    DegenerateDenominator,
    EvaluationError,
    FamilyMember,
    HTag,
    OutOfRange,
    TheoremCase,
    ValidationError,
    Verdict,
    default_family_for,
    default_grid,
    koebe_like,
    lambda_tilt,
    make_family,
    mobius_ratio_family,
    principal_arg,
    random_taylor_family,
    sample_grid,
    sector_map,
    sector_margins,
    sector_power_family,
    verify_lemma_tilt,
    verify_theorem,
)


# ---------------------------------------------------------------------------
# sector powers


def test_sector_map_unit_parameters_is_the_half_plane_target():
    h = sector_map(1, 0)
    z = 0.37 - 0.21j
    assert h.eval(z) == pytest.approx((1 + z) / (1 - z), abs=1e-14)


def test_sector_map_arg_range_shrinks_with_the_exponent():
    ring = sample_grid([0.995], 2048)
    pts = np.array(ring.points)
    args = principal_arg(sector_map(0.5, 0.0).eval(pts))
    assert args.min() > -math.pi / 4 - 1e-12
    assert args.max() < math.pi / 4 + 1e-12
    # endpoints nearly attained on the outer ring
    assert abs(args.min() + math.pi / 4) < 0.01
    assert abs(args.max() - math.pi / 4) < 0.01


def test_sector_map_rotation_skews_the_range():
    ring = sample_grid([0.995], 2048)
    pts = np.array(ring.points)
    a, m = 0.5, 0.4
    args = principal_arg(sector_map(a, m).eval(pts))
    assert args.min() > -a * (1 - m) * math.pi / 2 - 1e-12
    assert args.max() < a * (1 + m) * math.pi / 2 + 1e-12


def test_sector_map_validation():
    with pytest.raises(OutOfRange):
        sector_map(0.0, 0.0)
    with pytest.raises(OutOfRange):
        sector_map(1.2, 0.0)
    with pytest.raises(OutOfRange):
        sector_map(1.0, 1.0)


def test_sector_margins_sign_convention():
    vals = np.array([1 + 0j, -1 + 0.0001j])
    out = sector_margins(vals, 1.0, 1.0)
    assert out[0] == pytest.approx(math.pi / 2, abs=1e-12)
    assert out[1] < 0  # lands just past the upper edge
    inside = sector_margins(np.array([np.exp(0.3j)]), 0.5, 0.5)
    assert inside[0] == pytest.approx(math.pi / 4 - 0.3, abs=1e-12)


# ---------------------------------------------------------------------------
# tilt lemma


def test_tilt_lemma_zero_shrink_reduces_to_a_shifted_disk():
    rep = verify_lemma_tilt(0, 0.3)
    assert rep.verdict is Verdict.HOLDS
    assert rep.margin == pytest.approx(0.005, abs=1e-12)


def test_tilt_lemma_boundary_pair_holds():
    rep = verify_lemma_tilt(1, 0.5)
    assert rep.verdict is Verdict.HOLDS
    assert rep.margin == pytest.approx(0.0017721974465828543, abs=1e-12)
    assert rep.samples_checked == 16560


def test_tilt_lemma_matches_the_least_tilted_real_part():
    """verify_lemma_tilt checks membership in P_TILT(-lam) at eps = 0: its
    margin and witness are the first least Re(e^{-i lam} h) over the grid
    points, bit for bit, HOLDS exactly where that margin is >= 0."""
    grid = default_grid()
    for b in (0.0, 0.5, 1.0):
        for m in (-0.9, -0.5, -0.1, 0.1, 0.5, 0.9):
            lam = lambda_tilt(b, m)
            u = cmath.exp(1j * math.pi * m)
            h = AnalyticFunction.mobius(0, [(u, 1), (-b + 0j, -1)] if b != 0 else [(u, 1)])
            values = np.real(np.exp(-1j * lam) * np.asarray(h.eval(grid.points, 0), dtype=complex))
            idx = int(np.argmin(values))
            rep = verify_lemma_tilt(b, m)
            assert rep.margin.hex() == float(values[idx]).hex() and rep.witness == complex(grid.points[idx]), (b, m)
            assert (rep.verdict is Verdict.HOLDS) == (rep.margin >= 0) and rep.verdict is not Verdict.UNDECIDED
            assert rep.samples_checked == grid.size


def test_tilt_lemma_degenerate_pair_is_rejected():
    with pytest.raises(DegenerateDenominator):
        verify_lemma_tilt(1.0, 1.0)


def test_tilt_lemma_parameter_validation():
    with pytest.raises(OutOfRange):
        verify_lemma_tilt(1.5, 0.0)
    with pytest.raises(OutOfRange):
        verify_lemma_tilt(0.5, 1.5)


# ---------------------------------------------------------------------------
# families


def test_ratio_family_cardinality_and_labels():
    members = make_family(mobius_ratio_family())
    assert len(members) == 25
    assert members[0].label == "ratio(u=-0.9, v=-0.9)"
    assert any(m.label == "ratio(u=0, v=0)" for m in members)


def test_sector_family_cardinality():
    members = make_family(sector_power_family())
    assert len(members) == 12
    assert members[0].label == "sector(a=0.25, m=-0.2)"


def test_random_family_is_reproducible():
    one = make_family(random_taylor_family(seed=7, degree=10, count=5))
    two = make_family(random_taylor_family(seed=7, degree=10, count=5))
    assert [m.label for m in one] == [m.label for m in two]
    z = 0.4 + 0.3j
    for a, b in zip(one, two):
        assert a.f.eval(z) == b.f.eval(z)
    other = make_family(random_taylor_family(seed=8, degree=10, count=5))
    assert any(a.f.eval(z) != b.f.eval(z) for a, b in zip(one, other))


def test_random_family_tags_show_in_labels():
    a_members = make_family(random_taylor_family(seed=3, count=2))
    h_members = make_family(random_taylor_family(seed=3, count=2, tag="H"))
    assert a_members[0].label.startswith("A1-random[3:")
    assert h_members[0].label.startswith("H-random[3:")


def test_family_validation():
    with pytest.raises(BadFamilySpec):
        make_family(random_taylor_family(seed=1, count=0))
    with pytest.raises(BadFamilySpec):
        make_family(random_taylor_family(seed=1, degree=1))
    with pytest.raises(BadFamilySpec):
        make_family(random_taylor_family(seed=1, tag="Q"))
    for build in (lambda: mobius_ratio_family((), (0.5,)), lambda: sector_power_family((0.5,), ())):
        with pytest.raises(BadFamilySpec):
            build()


def test_random_family_parameters_are_checked_at_construction():
    # a negative seed used to reach numpy and fail with its ValueError
    for args in ((-1,), (1.5,), (1, 2.5), (1, 8, 10, "a")):
        with pytest.raises(BadFamilySpec):
            random_taylor_family(*args)
    assert make_family(random_taylor_family(3.0, 4.0, 2.0))[1].label == "A1-random[3:1]"


def test_random_family_degree_and_count_are_bounded():
    # each member is built in a Python loop over its degree, so a degree or
    # count of 10**11 once ran for minutes; both are rejected before any
    # member is built
    for args in ((1, 65), (1, 10**11), (1, 8, 1025), (1, 8, 10**11)):
        with pytest.raises(BadFamilySpec):
            random_taylor_family(*args)
    assert len(random_taylor_family(1, 64, 1)[0].f.coeffs) == 65
    assert len(random_taylor_family(1, 2, 1024)) == 1024


# ---------------------------------------------------------------------------
# case plumbing


def test_case_construction_and_defaults():
    case = TheoremCase.make("T41")
    assert case.id == "T41"
    assert dict(case.params) == {"alpha": 1.0, "lam": 1.0}


def test_case_accepts_the_spelled_out_tilt_key():
    case = TheoremCase.make("T41", **{"lambda": 0.5, "alpha": 1.0})
    assert dict(case.params)["lam"] == 0.5


@pytest.mark.parametrize("params", [{"lam": 0.5, "lambda": 1.0}, {"lambda": 1.0, "lam": 0.5}])
def test_case_rejects_both_spellings_of_the_tilt_key(params):
    # either order used to keep whichever key came last
    with pytest.raises(ValidationError, match="lam or lambda, not both"):
        TheoremCase.make("T41", **params)


def test_case_rejects_unknown_ids_and_parameters():
    with pytest.raises(ValidationError):
        TheoremCase.make("T99")
    with pytest.raises(ValidationError):
        TheoremCase.make("T41", bogus=1.0)


def test_a_case_built_directly_is_checked_and_filled_as_make_builds_it():
    """TheoremCase itself checks each parameter against its domain and fills
    the defaults, so a case built without make is the case make builds, and
    one outside the domains is refused before any scan."""
    assert TheoremCase("T41") == TheoremCase.make("T41")
    assert TheoremCase("C35", (("lam", 0.5),)) == TheoremCase.make("C35", lam=0.5)
    assert type(TheoremCase("T31", (("n", 2.0),)).params_dict["n"]) is int
    for case_id, params, match in (
        ("C35", (("alpha", 1.0), ("lam", 0.5)), "parameter 'alpha'"),
        ("T41", (("bogus", 1.0),), "not 'bogus'"),
        ("T99", (), "unknown case id"),
        (["T41"], (), "unknown case id"),
        ("T41", 5, r"\(name, value\) pairs"),
        ("T41", (("lam",),), r"\(name, value\) pairs"),
    ):
        with pytest.raises(ValidationError, match=match):
            TheoremCase(case_id, params)
    assert verify_theorem(TheoremCase("T41")).to_json() == verify_theorem(TheoremCase.make("T41")).to_json()


@pytest.mark.parametrize(
    "case_id, params",
    [
        ("T41", {"lam": "x"}),
        ("T41", {"lam": None}),
        ("T41", {"alpha": True}),
        ("T41", {"lam": float("nan")}),
        ("T41", {"lam": float("inf")}),
        ("T41", {"alpha": 10**400}),
        ("T31", {"n": 1.5}),
        ("T31", {"n": "1"}),
        ("T35", {"p": 2.5}),
        ("C37I", {"p": float("-inf")}),
        ("C38", {"kind": 3}),
        ("C38", {"kind": "square"}),
        ("C35", {"alpha": 1.0}),
        ("T41", {"alpha": 0.0}),  # radius_convexity takes 0, the U gate does not
        ("T35", {"p": 1e308}),  # beyond 2**53; used to overflow in thm3_constants
        ("C37II", {"p": 2**53 + 1}),
    ],
)
def test_case_parameters_are_type_checked(case_id, params):
    with pytest.raises(ValidationError, match="parameter"):
        TheoremCase.make(case_id, **params)


def test_integral_float_orders_become_integers():
    case = TheoremCase.make("T31", n=2.0)
    assert dict(case.params)["n"] == 2 and type(dict(case.params)["n"]) is int
    assert dict(TheoremCase.make("T41", lam=1).params)["lam"] == 1  # numbers kept as given


def test_default_families_are_nonempty_for_every_case():
    for cid in ("T31", "C32", "T34", "T35", "C38", "T39", "T41", "T43"):
        members = default_family_for(TheoremCase.make(cid))
        assert len(members) >= 5


# ---------------------------------------------------------------------------
# implication scans


def test_scan_counts_for_the_convexity_radius_case():
    rep = verify_theorem(TheoremCase.make("T41"))
    assert rep.cases_total == 7
    assert rep.hypothesis_holds_count == 7
    assert rep.conclusion_failures == []
    assert rep.errors == []
    assert any(r.label == "f=z" for r in rep.rows)


def test_scan_records_vacuous_members_without_failing():
    rep = verify_theorem(TheoremCase.make("C310"))
    assert rep.cases_total == 5
    assert rep.hypothesis_holds_count == 4
    assert rep.conclusion_failures == []
    vacuous = [r for r in rep.rows if r.hyp_verdict is not Verdict.HOLDS]
    assert len(vacuous) == 1
    assert vacuous[0].label == "f=z/(1-0.5z)"
    assert vacuous[0].hyp_margin == pytest.approx(-0.28031509794622955, abs=1e-12)
    assert vacuous[0].concl_verdict is None


def test_scan_counts_for_the_weighted_radius_case():
    rep = verify_theorem(TheoremCase.make("T43"))
    assert rep.cases_total == 7
    assert rep.hypothesis_holds_count == 5
    assert rep.conclusion_failures == []


def test_a_radius_case_scales_the_grid_once(monkeypatch):
    """The scan reads the default grid, so each radius case builds its
    scaled grid once, not once per member whose conclusion it reads."""
    from gftkit import membership

    default_grid()
    built = []
    inner = membership.DiskGrid.__post_init__
    monkeypatch.setattr(membership.DiskGrid, "__post_init__", lambda self: built.append(self.radii) or inner(self))
    for case_id in ("T41", "C42", "T43", "C44"):
        built.clear()
        rep = verify_theorem(TheoremCase.make(case_id))
        assert len(built) == 1 and rep.hypothesis_holds_count > 1, case_id


def test_explicit_family_single_member():
    rep = verify_theorem(TheoremCase.make("C33"), family=[FamilyMember("hp", AnalyticFunction.mobius(1, [(-1, -1.0)]))])
    assert rep.cases_total == 1
    assert rep.hypothesis_holds_count == 1
    assert rep.conclusion_failures == []


def test_empty_family_is_rejected():
    with pytest.raises(BadFamilySpec):
        verify_theorem(TheoremCase.make("T41"), family=[])


def test_slit_and_mixed_hypotheses_agree_under_the_power_substitution():
    """Feeding the half-exponent log-derivative through the slit check must
    reproduce the mixed-expression check on the original function."""
    h = AnalyticFunction.mobius(0, [(1, 0.5), (-1, -0.5)])  # sqrt((1+z)/(1-z))
    rep_slit = verify_theorem(
        TheoremCase.make("T31", alpha=0.5, beta=0.5, n=1), family=[FamilyMember("h", h)]
    )
    rep_mixed = verify_theorem(
        TheoremCase.make("C32", lam=0.5), family=[FamilyMember("f", koebe_like())]
    )
    a, b = rep_slit.rows[0], rep_mixed.rows[0]
    assert a.hyp_verdict is b.hyp_verdict is Verdict.HOLDS
    assert a.hyp_margin == pytest.approx(b.hyp_margin, rel=1e-9)


def test_disk_hypothesis_implies_the_slit_hypothesis():
    # the forbidden disk contains the slit anchors, so containment is the
    # stronger requirement on identical samples
    rep_disk = verify_theorem(TheoremCase.make("C38"))
    rep_slit = verify_theorem(TheoremCase.make("T35", gamma=1.0, delta=1.0, alpha=0.5, lam=0.0, p=1))
    disk_held = {r.label for r in rep_disk.rows if r.hyp_verdict is Verdict.HOLDS}
    slit_held = {r.label for r in rep_slit.rows if r.hyp_verdict is Verdict.HOLDS}
    assert disk_held <= slit_held


def test_report_serialization_shapes():
    rep = verify_theorem(TheoremCase.make("T41"))
    blob = rep.to_json()
    assert sorted(blob.keys()) == [
        "case", "counterexamples", "errors", "functions_scanned", "hypothesis_holds", "params", "rows",
    ]
    assert blob["case"] == "T41"
    assert blob["functions_scanned"] == 7
    row = blob["rows"][0]
    assert set(row.keys()) == {"label", "hypothesis", "conclusion", "error"}
    text = rep.to_csv()
    lines = text.splitlines()
    assert lines[0] == "label,hyp_verdict,hyp_margin,concl_verdict,concl_margin,error"
    assert len(lines) == 8


def test_csv_is_deterministic():
    case = TheoremCase.make("C42")
    assert verify_theorem(case).to_csv() == verify_theorem(case).to_csv()


@pytest.mark.parametrize("case_id", sorted(CASE_IDS))
def test_threads_sharing_partners_give_the_serial_report(case_id):
    # four callers scan at once in threads of their own: C37's rows share f
    # and partner G objects, so the threads evaluate the same functions on
    # the same grid at once; C311 reads each f in both its hypothesis and
    # its conclusion; every case's factor and z/f logs are kept per thread,
    # whatever the serial scan left in this one
    import sys
    from concurrent.futures import ThreadPoolExecutor

    case = TheoremCase.make(case_id)
    serial = verify_theorem(case).to_json()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            reports = [fut.result(timeout=120) for fut in [pool.submit(verify_theorem, case) for _ in range(4)]]
    finally:
        sys.setswitchinterval(old)
    assert [rep.to_json() for rep in reports] == [serial] * 4


def test_c37_partners_are_verified_once_and_shared(monkeypatch):
    from gftkit import theorems

    case = TheoremCase.make("C37I")
    first = default_family_for(case)
    assert len(first) == 9 and all(m.g is not None for m in first)  # three f's, each with three partners
    checks = []
    inner = theorems.check_membership
    monkeypatch.setattr(theorems, "check_membership", lambda *args, **kw: checks.append(args) or inner(*args, **kw))
    again = default_family_for(case)
    assert checks == []
    assert [m.label for m in again] == [m.label for m in first]
    assert all(a.g is b.g for a, b in zip(again, first))


def test_a_partner_that_is_not_starlike_is_rejected(monkeypatch):
    from gftkit import theorems

    # z/(1 - z)^3: Re(z f'/f) = Re(1 + 3z/(1 - z)) < 0 at z = -r for r > 1/2
    monkeypatch.setattr(theorems, "_C37_PARTNERS", theorems._C37_PARTNERS[:2] + (((-1 + 0j, -3.0),),))
    theorems._starlike_partners.cache_clear()
    try:
        with pytest.raises(BadFamilySpec, match=r"partner g=z\(1\+0.3z\) is not starlike"):
            verify_theorem(TheoremCase.make("C37I"))
    finally:
        theorems._starlike_partners.cache_clear()  # the next call verifies the shipped partners


def test_an_error_in_one_members_hypothesis_lands_in_its_row(monkeypatch):
    from gftkit import theorems

    entry = theorems.CASES["T41"]
    hypothesis, conclusion = entry.build(**TheoremCase.make("T41").params_dict)
    base = verify_theorem(TheoremCase.make("T41"))
    bad_label = base.rows[2].label
    for exc in (OutOfRange("no such order"), FloatingPointError("overflow encountered in multiply")):
        def failing(member, grid, exc=exc):
            if member.label == bad_label:
                raise exc
            return hypothesis(member, grid)

        monkeypatch.setitem(theorems.CASES, "T41", entry._replace(build=lambda **kw: (failing, conclusion)))
        rep = verify_theorem(TheoremCase.make("T41"))
        row = rep.rows[2]
        assert row.hyp_verdict is Verdict.UNDECIDED and row.error == str(exc) and row.concl_verdict is None
        assert rep.errors == [(bad_label, str(exc))]
        assert [r.to_json() for r in rep.rows if r.label != bad_label] == \
            [r.to_json() for r in base.rows if r.label != bad_label]

    def broken(member, grid):
        raise KeyError("a fault, not a verdict")

    monkeypatch.setitem(theorems.CASES, "T41", entry._replace(build=lambda **kw: (broken, conclusion)))
    with pytest.raises(KeyError):
        verify_theorem(TheoremCase.make("T41"))


def test_c35_reports_a_vanishing_p_minus_alpha_in_its_row():
    # p - alpha = 0.75 + 1.5z vanishes at z = -0.5, a point of the default grid
    member = FamilyMember("p=1+1.5z", AnalyticFunction.taylor([1, 1.5], HTag(1)))
    row = verify_theorem(TheoremCase.make("C35"), [member]).rows[0]
    assert row.hyp_verdict is Verdict.UNDECIDED and math.isnan(row.hyp_margin) and row.concl_verdict is None
    assert row.error == "factor p - alpha vanished during evaluation"
    assert row.hyp_witness == pytest.approx(-0.5, abs=1e-15)


# kind of field -> (case, the name in theorems whose call raises, whether
# the hypothesis or the conclusion raises, and the functional kind it raises
# for, if only one)
_RAISING_FIELDS = {
    "slit": ("T31", "slit_avoidance", "hypothesis", None),
    "region": ("C38", "region_containment", "hypothesis", None),
    "window": ("T39", "evaluate_functional", "hypothesis", None),
    "tilt": ("T35", "evaluate_functional", "conclusion", "u"),
    "class": ("T34", "class_margins", "conclusion", None),
    "radius gate": ("T41", "class_margins", "hypothesis", None),
    "radius conclusion": ("T41", "_margins", "conclusion", None),
}


@pytest.mark.parametrize("exc", [EvaluationError("the field raised", 0.25 + 0.5j), FloatingPointError("overflow")],
                         ids=["evaluation", "floating-point"])
@pytest.mark.parametrize("kind", list(_RAISING_FIELDS))
def test_every_kind_of_field_that_raises_lands_in_its_row_by_one_rule(monkeypatch, kind, exc):
    """A hypothesis that raises leaves its row UNDECIDED with a NaN margin,
    the error's witness and its message; a conclusion that raises leaves
    the held hypothesis and no conclusion verdict, with the message."""
    from gftkit import theorems

    case_id, name, part, only = _RAISING_FIELDS[kind]
    case = TheoremCase.make(case_id)
    member = default_family_for(case)[0]
    inner = getattr(theorems, name)

    def raising(*args, **kwargs):
        if only is None or args[0].kind.value == only:
            raise exc
        return inner(*args, **kwargs)

    monkeypatch.setattr(theorems, name, raising)
    rep = verify_theorem(case, [member])
    (row,) = rep.rows
    assert row.error == str(exc) and rep.errors == [(member.label, str(exc))]
    assert row.concl_verdict is None and math.isnan(row.concl_margin) and row.concl_witness is None
    assert row.to_json()["conclusion"] is None
    if part == "hypothesis":
        assert row.hyp_verdict is Verdict.UNDECIDED and math.isnan(row.hyp_margin)
        assert row.hyp_witness == getattr(exc, "witness", None)
    else:
        assert row.hyp_verdict is Verdict.HOLDS and math.isfinite(row.hyp_margin)


def test_each_row_is_its_fields_margin_read_at_its_witness_alone(monkeypatch):
    """verify_theorem reads a field at its worst point alone: in a default
    round, the margin that a row's field gives at the row's witness alone is
    the row's margin, bit for bit.  A slit's or a region's witness is a value
    F(z), read again through slit_avoidance or region_containment; a radius
    case's conclusion reads f's own shape quotients, as it reads its scaled
    grid."""
    from gftkit import theorems
    from gftkit.membership import _margins

    forbidden = []  # (the margins read, the slit or region) of each forbidden-set read
    for name in ("slit_avoidance", "region_containment"):
        inner = getattr(theorems, name)
        monkeypatch.setattr(theorems, name, lambda v, s, _inner=inner: forbidden.append((_inner, s)) or _inner(v, s))
    z = default_grid().points
    read = {"point": 0, "value": 0}
    for case_id in sorted(CASE_IDS):
        case = TheoremCase.make(case_id)
        hypothesis, conclusion = theorems.CASES[case_id].build(**case.params_dict)
        members = {m.label: m for m in default_family_for(case)}
        for row in verify_theorem(case).rows:
            member = members[row.label]
            for field, margin, witness in ((hypothesis, row.hyp_margin, row.hyp_witness),
                                           (conclusion, row.concl_margin, row.concl_witness)):
                if math.isnan(margin):
                    continue
                forbidden.clear()
                field(member, z)
                if forbidden:
                    margins, region = forbidden[0]
                    again, kind = margins([witness], region), "value"
                elif field is conclusion and case_id in _RADIUS_CASES:
                    prop, lam_alpha = _RADIUS_CASES[case_id]
                    spec = theorems.RADIUS_PROPERTIES[prop][1](lam_alpha(case.params_dict)[1])
                    again, kind = _margins(spec, member.f, np.array([witness]), member.f._shape_quotients)[0], "point"
                else:
                    again, kind = field(member, np.array([witness]))[0], "point"
                assert again.shape == (1,) and float(again[0]).hex() == margin.hex(), (case_id, row.label)
                read[kind] += 1
    assert read == {"point": 192, "value": 94}


def test_c44_after_c42_computes_none_of_the_factor_logs_c42_kept(monkeypatch, log_memo):
    from gftkit import core

    for _ in range(2):  # a log is kept from its second ask
        verify_theorem(TheoremCase.make("C42"))
    kept = {what for what in log_memo.logs if what[0] == "1 + uz"}
    asked, computed = [], []  # on the grid, where logs are kept
    inner = core._LogMemo.log

    def spy(self, z, what, compute):
        if not core._on_log_points(z):
            return inner(self, z, what, compute)
        asked.append(what)
        return inner(self, z, what, lambda: computed.append(what) or compute())

    monkeypatch.setattr(core._LogMemo, "log", spy)
    verify_theorem(TheoremCase.make("C44"))
    assert kept & set(asked)  # C44 reads factors C42 left behind
    assert not kept & set(computed)


def test_a_second_default_round_takes_69_logs_on_the_grid(monkeypatch, log_memo):
    from types import SimpleNamespace

    from gftkit import core

    core._jet_memo.entries.clear()  # no jet of an earlier test saves the first round a log
    logs = []

    def counting_log(w, *args, **kwargs):
        if np.size(w) == 23 * 720 and np.iscomplexobj(w):
            logs.append(1)
        return np.log(w, *args, **kwargs)

    def scan_round():
        for case_id in sorted(CASE_IDS):
            verify_theorem(TheoremCase.make(case_id))

    scan_round()  # the use counts of one round decide what the next keeps
    monkeypatch.setattr(core, "np", SimpleNamespace(**{**vars(np), "log": counting_log}))
    scan_round()
    # 89 while the radius cases' conclusions took the logs of their scaled
    # grid; the third round takes 64 and later rounds settle at 63
    assert len(logs) == 69


def test_a_cold_default_round_takes_102_logs():
    # one fresh process, one thread, all 16 cases once: every log asked for
    # is computed unless an earlier case of the round kept it
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "from types import SimpleNamespace\n"
        "import numpy as np\n"
        "from gftkit import core\n"
        "from gftkit.theorems import CASE_IDS, TheoremCase, verify_theorem\n"
        "logs = []\n"
        "def log(w, *args, **kwargs):\n"
        "    logs.append(np.size(w))\n"
        "    return np.log(w, *args, **kwargs)\n"
        "core.np = SimpleNamespace(**{**vars(np), 'log': log})\n"
        "for case_id in sorted(CASE_IDS):\n"
        "    verify_theorem(TheoremCase.make(case_id))\n"
        "print(len(logs), sorted(set(logs)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                                                    env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    # 122 while the radius cases' conclusions took 20 logs on their scaled
    # grids, and 135 before that, when the memo kept eight grid logs
    assert out.stdout == f"102 {[23 * 720]}\n"


# ---------------------------------------------------------------------------
# the radius cases' conclusions, read as the radius search reads a ring

# case -> (property, its (lam, alpha) from the case's parameters)
_RADIUS_CASES = {
    "T41": ("convexity", lambda p: (p["lam"], p["alpha"])),
    "C42": ("convexity", lambda p: (1.0, p["alpha"])),
    "T43": ("inv_alpha_convexity", lambda p: (p["lam"], p["alpha"])),
    "C44": ("inv_alpha_convexity", lambda p: (p["lam"], 1.0)),
}
_RADIUS_POINTS = {
    "T41": ({}, {"lam": 0.5, "alpha": 0.5}, {"lam": 0.3, "alpha": 0.8}),
    "C42": ({}, {"alpha": 0.25}, {"alpha": 1.0}),
    "T43": ({}, {"lam": 1.0, "alpha": 0.3}, {"lam": 0.2, "alpha": 1.0}),
    "C44": ({}, {"lam": 0.25}, {"lam": 1.0}),
}
_RADIUS_FAMILIES = {
    "default": None,
    "random:3,6,4": lambda: random_taylor_family(3, 6, 4),
    "sector": sector_power_family,
}


@pytest.mark.parametrize("family", sorted(_RADIUS_FAMILIES))
@pytest.mark.parametrize(
    "case_id, params",
    [(case_id, params) for case_id, points in _RADIUS_POINTS.items() for params in points],
    ids=lambda v: v if isinstance(v, str) else ",".join(f"{k}={x:g}" for k, x in v.items()) or "defaults",
)
def test_a_radius_conclusion_has_the_jets_verdict_witness_and_margin(monkeypatch, case_id, params, family):
    """Each member's conclusion, read with no logarithm, exponential or
    jet-memo entry, against check_membership on the scaled grid, the jet's
    reading, which every other case's conclusion takes.  Every member is
    read, held hypothesis or not.  A member whose hypothesis holds has the
    jet's witness; another may have the point mirrored in the real axis,
    where a real-symmetric map's margins tie to rounding (the sector maps
    with m = 0), so its witness is a point where the jet's margin ties the
    least."""
    from gftkit import core, theorems
    from gftkit.membership import check_membership, class_margins, classify

    case = TheoremCase.make(case_id, **params)
    prop, lam_alpha = _RADIUS_CASES[case_id]
    closed, concluded = theorems.RADIUS_PROPERTIES[prop]
    lam, alpha = lam_alpha(case.params_dict)
    radius, spec = closed(lam, alpha), concluded(alpha)
    hypothesis, conclusion = theorems.CASES[case_id].build(**case.params_dict)
    build = _RADIUS_FAMILIES[family]
    members = default_family_for(case) if build is None else build()
    grid = default_grid()
    scaled = sample_grid([radius * r for r in grid.radii], grid.angles_per_ring)

    calls = []
    for name in ("log", "exp"):
        inner = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _name=name, _inner=inner, **k: calls.append(_name) or _inner(*a, **k))
    def read(field, member):
        margins, worst, at = field(member, grid.points)
        return float(margins[worst]), complex(at[worst])

    got = []
    for member in members:
        entries = list(core._jet_memo.entries)
        got.append(read(conclusion, member))
        assert core._jet_memo.entries == entries, member.label
    assert calls == []
    monkeypatch.undo()

    for member, (margin, witness) in zip(members, got):
        want = check_membership(spec, member.f, scaled)
        assert classify(margin, 1e-9) is want.verdict, member.label
        assert margin == pytest.approx(want.margin, rel=1e-12, abs=0, nan_ok=True), member.label
        if witness != want.witness:
            assert classify(read(hypothesis, member)[0], 1e-9) is not Verdict.HOLDS, member.label
            jet = class_margins(spec, member.f, scaled.points)[0]
            assert jet[scaled.points == witness] == pytest.approx(want.margin, rel=1e-12, abs=0), member.label


def test_a_default_round_takes_no_log_off_the_grid(monkeypatch, log_memo):
    """Every logarithm of a Moebius factor or of z/f that a default round
    asks for, each on the points it evaluates, is asked on the default
    grid's points, where the log memo keeps it: the radius cases'
    conclusions on their scaled grids ask for none (they asked for 20)."""
    from gftkit import core

    on_grid = []
    inner = core._LogMemo.log

    def spy(self, z, what, compute):
        on_grid.append(core._on_log_points(z))
        return inner(self, z, what, compute)

    monkeypatch.setattr(core._LogMemo, "log", spy)
    for case_id in sorted(CASE_IDS):
        verify_theorem(TheoremCase.make(case_id))
    assert on_grid and all(on_grid), f"{on_grid.count(False)} of {len(on_grid)} logs asked off the grid"
