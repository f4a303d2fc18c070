"""Families, lemma checks, case plumbing, and implication scans."""

import math
import os

import numpy as np
import pytest

from gftkit import (
    CASE_IDS,
    AnalyticFunction,
    BadFamilySpec,
    DegenerateDenominator,
    FamilyMember,
    OutOfRange,
    TheoremCase,
    ValidationError,
    Verdict,
    default_family_for,
    koebe_like,
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


def test_tilt_lemma_accepts_a_custom_grid():
    rep = verify_lemma_tilt(0.5, 0.25, grid=sample_grid([0.5, 0.9], 90))
    assert rep.verdict is Verdict.HOLDS
    assert rep.samples_checked == 180


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


def test_thread_count_does_not_change_the_report(monkeypatch):
    case = TheoremCase.make("T41")
    base = verify_theorem(case)
    monkeypatch.setenv("GFT_THREADS", "4")
    threaded = verify_theorem(case)
    assert threaded.hypothesis_holds_count == base.hypothesis_holds_count
    assert [r.hyp_margin for r in threaded.rows] == [r.hyp_margin for r in base.rows]


@pytest.mark.parametrize("case_id", sorted(CASE_IDS))
def test_threads_sharing_partners_give_the_serial_report(monkeypatch, case_id):
    # C37's rows share f and partner G objects, so worker threads evaluate
    # the same functions on the same grid at once; C311 reads each f in
    # both its hypothesis and its conclusion; every case's factor and z/f
    # logs are kept per thread, whatever the serial scans left in this one
    case = TheoremCase.make(case_id)
    monkeypatch.delenv("GFT_THREADS", raising=False)
    serial = verify_theorem(case).to_json()
    monkeypatch.setenv("GFT_THREADS", "4")
    assert verify_theorem(case).to_json() == serial


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


@pytest.mark.parametrize("raw", ["two threads", "0"])
def test_bad_thread_count_warns_and_scans_with_one_thread(monkeypatch, raw):
    case = TheoremCase.make("T41")
    base = verify_theorem(case)
    monkeypatch.setenv("GFT_THREADS", raw)
    with pytest.warns(RuntimeWarning, match="GFT_THREADS") as caught:
        fallback = verify_theorem(case)
    assert len(caught) == 1 and repr(raw) in str(caught[0].message)
    assert [r.hyp_margin for r in fallback.rows] == [r.hyp_margin for r in base.rows]


def test_an_error_in_one_members_hypothesis_lands_in_its_row(monkeypatch):
    from gftkit import theorems

    entry = theorems.CASES["T41"]
    hypothesis, conclusion = entry.build(**TheoremCase.make("T41").params_dict)
    base = verify_theorem(TheoremCase.make("T41"))
    bad_label = base.rows[2].label
    for exc in (OutOfRange("no such order"), FloatingPointError("overflow encountered in multiply")):
        def failing(member, grid, eps, exc=exc):
            if member.label == bad_label:
                raise exc
            return hypothesis(member, grid, eps)

        monkeypatch.setitem(theorems.CASES, "T41", entry._replace(build=lambda **kw: (failing, conclusion)))
        rep = verify_theorem(TheoremCase.make("T41"))
        row = rep.rows[2]
        assert row.hyp_verdict is Verdict.UNDECIDED and row.error == str(exc) and row.concl_verdict is None
        assert rep.errors == [(bad_label, str(exc))]
        assert [r.to_json() for r in rep.rows if r.label != bad_label] == \
            [r.to_json() for r in base.rows if r.label != bad_label]

    def broken(member, grid, eps):
        raise KeyError("a fault, not a verdict")

    monkeypatch.setitem(theorems.CASES, "T41", entry._replace(build=lambda **kw: (broken, conclusion)))
    with pytest.raises(KeyError):
        verify_theorem(TheoremCase.make("T41"))


def test_c44_after_c42_computes_none_of_the_factor_logs_c42_kept(monkeypatch, log_memo):
    from gftkit import core

    monkeypatch.delenv("GFT_THREADS", raising=False)  # the scans fill this thread's memo
    verify_theorem(TheoremCase.make("C42"))
    kept = {(points.tag, what) for points, what in log_memo.logs if what[0] == "1 + uz"}
    asked, computed = [], []
    inner = core._LogMemo.log

    def spy(self, z, what, compute):
        key = (core._points_tag(z), what)
        asked.append(key)
        return inner(self, z, what, lambda: computed.append(key) or compute())

    monkeypatch.setattr(core._LogMemo, "log", spy)
    verify_theorem(TheoremCase.make("C44"))
    assert kept & set(asked)  # C44 reads factors C42 left behind
    assert not kept & set(computed)


def test_a_default_round_takes_at_most_120_logs_on_the_grid(monkeypatch, log_memo):
    from types import SimpleNamespace

    from gftkit import core

    logs = []

    def counting_log(w, *args, **kwargs):
        if np.size(w) == 23 * 720 and np.iscomplexobj(w):
            logs.append(1)
        return np.log(w, *args, **kwargs)

    def scan_round():
        for case_id in sorted(CASE_IDS):
            verify_theorem(TheoremCase.make(case_id))

    monkeypatch.delenv("GFT_THREADS", raising=False)
    scan_round()  # the use counts of one round decide what the next keeps
    monkeypatch.setattr(core, "np", SimpleNamespace(**{**vars(np), "log": counting_log}))
    scan_round()
    assert 0 < len(logs) <= 120  # 181 when each case computed its own
