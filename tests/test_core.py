"""Evaluation, series, branch-cut, and serialization behavior of the core."""

import json
import math

import numpy as np
import pytest

from gftkit import (
    ATag,
    AnalyticFunction,
    EvaluationError,
    HTag,
    NonFiniteValue,
    OrderOutOfRange,
    SingularPoint,
    ValidationError,
    half_plane_map,
    identity_map,
    koebe_like,
    principal_arg,
    principal_power,
)


# ---------------------------------------------------------------------------
# principal branch helpers


def test_principal_power_square_of_i_is_minus_one():
    w = principal_power(1j, 2.0)
    assert w == pytest.approx(-1 + 0j, abs=1e-15)


def test_principal_power_sqrt_of_minus_one_is_plus_i():
    # the cut is the negative real axis; -1 itself maps to +i
    w = principal_power(-1, 0.5)
    assert w == pytest.approx(1j, abs=1e-15)


def test_principal_power_continuous_from_above_the_cut():
    w = principal_power(-1 + 0.001j, 0.5)
    assert principal_arg(w) == pytest.approx(1.5702963269615633, abs=1e-12)


def test_principal_arg_vectorizes():
    zs = np.array([1 + 0j, 1j, -1j])
    out = principal_arg(zs)
    assert out.shape == (3,)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(math.pi / 2)
    assert out[2] == pytest.approx(-math.pi / 2)


def test_power_of_modulus_one_base_stays_finite():
    vals = principal_power(np.exp(1j * np.linspace(-3, 3, 101)), 0.75)
    assert np.all(np.isfinite(vals))
    assert np.allclose(np.abs(vals), 1.0, atol=1e-14)


# ---------------------------------------------------------------------------
# Taylor variant


def test_taylor_identity_map_evaluates_exactly():
    f = identity_map()
    z = 0.3 + 0.4j
    assert f.eval(z) == z
    assert f.eval(z, order=1) == 1
    assert f.eval(z, order=2) == 0


def test_taylor_polynomial_derivatives_are_exact():
    # f(z) = z - z^2:  f' = 1 - 2z,  f'' = -2
    f = AnalyticFunction.taylor([0, 1, -1], ATag(1))
    z = 0.25 - 0.1j
    assert f.eval(z) == pytest.approx(z - z * z, abs=1e-16)
    assert f.eval(z, order=1) == pytest.approx(1 - 2 * z, abs=1e-16)
    assert f.eval(z, order=2) == pytest.approx(-2 + 0j, abs=1e-16)


def test_taylor_rejects_coefficients_breaking_the_normalization():
    with pytest.raises(ValidationError):
        AnalyticFunction.taylor([0.5, 1], ATag(1))  # c0 must be 0
    with pytest.raises(ValidationError):
        AnalyticFunction.taylor([0, 0.9], ATag(1))  # c1 must be 1
    with pytest.raises(ValidationError):
        AnalyticFunction.taylor([1, 0.5, 2], HTag(1, 2))  # c1 pinned to 0


def test_taylor_accepts_matching_tags():
    AnalyticFunction.taylor([0, 1, 5j], ATag(1))
    AnalyticFunction.taylor([0, 0, 1, -3], ATag(2))
    AnalyticFunction.taylor([2j, 0, 0, 7], HTag(2j, 3))


def test_eval_order_out_of_range():
    f = identity_map()
    with pytest.raises(OrderOutOfRange):
        f.eval(0.1, order=3)
    with pytest.raises(OrderOutOfRange):
        f.eval(0.1, order=-1)


# ---------------------------------------------------------------------------
# Mobius-power-product variant


def test_mobius_half_plane_map_matches_closed_form():
    f = half_plane_map()  # z/(1-z)
    z = 0.3 + 0.2j
    assert f.eval(z) == pytest.approx(z / (1 - z), abs=1e-15)
    assert f.eval(z, order=1) == pytest.approx(1 / (1 - z) ** 2, abs=1e-15)
    assert f.eval(z, order=2) == pytest.approx(2 / (1 - z) ** 3, abs=1e-15)


def test_mobius_koebe_like_derivatives():
    f = koebe_like()  # z/(1-z)^2
    z = -0.2 + 0.35j
    assert f.eval(z) == pytest.approx(z / (1 - z) ** 2, abs=1e-15)
    assert f.eval(z, order=1) == pytest.approx((1 + z) / (1 - z) ** 3, abs=1e-15)
    assert f.eval(z, order=2) == pytest.approx((4 + 2 * z) / (1 - z) ** 4, abs=1e-15)


def test_mobius_fractional_power_product_eval():
    # ((1+z)/(1-z))^(1/2) built as (1+z)^(1/2) * (1-z)^(-1/2)
    f = AnalyticFunction.mobius(0, [(1, 0.5), (-1, -0.5)])
    z = 0.4 - 0.25j
    want = principal_power((1 + z) / (1 - z), 0.5)
    assert f.eval(z) == pytest.approx(want, abs=1e-14)


def test_mobius_rejects_roots_inside_the_disk():
    with pytest.raises(ValidationError):
        AnalyticFunction.mobius(0, [(1.5, 1.0)])  # 1+1.5z vanishes at |z|=2/3


def test_mobius_leading_power_makes_origin_singular():
    # z^q with q != 0 is evaluated through the principal log, so z=0 is
    # rejected outright rather than special-cased
    f = koebe_like()
    with pytest.raises(SingularPoint):
        f.eval(0)


def test_mobius_singular_at_factor_zero_on_the_circle():
    f = half_plane_map()
    with pytest.raises(SingularPoint):
        f.eval(1.0)


# ---------------------------------------------------------------------------
# series extraction


def test_taylor_coefficients_of_koebe_like():
    coeffs = koebe_like().taylor_coefficients(6)
    want = [0, 1, 2, 3, 4, 5, 6]
    assert len(coeffs) == 7
    for got, exp in zip(coeffs, want):
        assert got == pytest.approx(exp, abs=1e-12)


def test_taylor_coefficients_of_half_plane_map():
    coeffs = half_plane_map().taylor_coefficients(5)
    assert coeffs[0] == pytest.approx(0, abs=1e-15)
    for c in coeffs[1:]:
        assert c == pytest.approx(1, abs=1e-12)


def test_taylor_coefficients_reject_negative_leading_power():
    f = AnalyticFunction.mobius(-1, [(0.5, 1.0)])
    with pytest.raises(ValidationError):
        f.taylor_coefficients(4)


@pytest.mark.parametrize("builder", [half_plane_map, koebe_like])
def test_to_taylor_converges_inside_the_disk(builder):
    f = builder()
    p = f.to_taylor(80)
    zs = 0.7 * np.exp(1j * np.linspace(0, 2 * math.pi, 64, endpoint=False))
    err = np.max(np.abs(p.eval(zs) - f.eval(zs)))
    assert err < 1e-8


def test_to_taylor_of_fractional_power_product():
    f = AnalyticFunction.mobius(1, [(0.5j, 1.5), (-0.25, -0.5)])
    p = f.to_taylor(80)
    zs = 0.6 * np.exp(1j * np.linspace(0, 2 * math.pi, 48, endpoint=False))
    assert np.max(np.abs(p.eval(zs) - f.eval(zs))) < 1e-10


# ---------------------------------------------------------------------------
# derivatives vs finite differences (light version; the acceptance suite
# runs the full 200-point sweep)


def _fd1(f, z, h=1e-5):
    return (f.eval(z + h) - f.eval(z - h)) / (2 * h)


def _fd2(f, z, h=1e-4):
    return (f.eval(z + h) - 2 * f.eval(z) + f.eval(z - h)) / (h * h)


@pytest.mark.parametrize(
    "f",
    [
        half_plane_map(),
        koebe_like(),
        AnalyticFunction.mobius(0, [(0.3 + 0.4j, 0.75), (-1, -0.25)]),
        AnalyticFunction.taylor([0, 1, -0.5, 0.25j], ATag(1)),
    ],
)
def test_closed_form_derivatives_match_finite_differences(f):
    z = 0.31 + 0.22j
    d1 = f.eval(z, order=1)
    d2 = f.eval(z, order=2)
    assert abs(_fd1(f, z) - d1) / max(1.0, abs(d1)) < 1e-6
    assert abs(_fd2(f, z) - d2) / max(1.0, abs(d2)) < 1e-6


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_taylor():
    f = AnalyticFunction.taylor([0, 1, 0.5 - 2j], ATag(1))
    blob = json.dumps(f.to_json())
    back = AnalyticFunction.from_json(blob)
    z = 0.4 + 0.1j
    assert back.eval(z) == f.eval(z)


def test_json_round_trip_mobius():
    f = AnalyticFunction.mobius(1, [(-1, -2.0), (0.5j, 0.25)])
    back = AnalyticFunction.from_json(f.to_json())
    z = -0.3 + 0.44j
    assert back.eval(z) == f.eval(z)
    assert back.eval(z, order=2) == f.eval(z, order=2)


def test_json_round_trip_h_tag():
    f = AnalyticFunction.taylor([1 + 1j, 0, 0.25], HTag(1 + 1j, 2))
    back = AnalyticFunction.from_json(f.to_json())
    assert back.eval(0.2) == f.eval(0.2)


def test_from_json_rejects_malformed_payloads():
    with pytest.raises(ValidationError):
        AnalyticFunction.from_json({"variant": "nope"})
    with pytest.raises(ValidationError):
        AnalyticFunction.from_json({"variant": "mobius", "q": 0, "terms": [[1, -1]]})
    with pytest.raises(ValidationError):
        AnalyticFunction.from_json("not json at all {{{")


@pytest.mark.parametrize(
    "payload",
    [
        {"variant": "taylor", "tag": {"class": "A", "p": 1}, "coeffs": [[0, 0], [1, 0, 5]]},
        {"variant": "taylor", "tag": {"class": "A", "p": 1}, "coeffs": [[0, 0], [1]]},
        {"variant": "taylor", "tag": {"class": "A", "p": 1}, "coeffs": [[0, 0], 1]},
        {"variant": "taylor", "tag": {"class": "H", "a": [1, 0, 0], "n": 1}, "coeffs": [[1, 0]]},
        {"variant": "mobius", "q": 1, "terms": [[[0.5, 0], 1, 2]]},
        {"variant": "mobius", "q": 1, "terms": [[[0.5, 0, 0], 1]]},
        {"variant": "mobius", "q": 1, "terms": [[0.5]]},
    ],
)
def test_from_json_rejects_pairs_and_terms_of_the_wrong_length(payload):
    # [1, 0, 5] used to raise "too many values to unpack", and [1, 0, 0] was cut to 1
    with pytest.raises(ValidationError, match="must be a pair"):
        AnalyticFunction.from_json(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {"variant": "taylor", "tag": {"class": "A", "p": 1}, "coeffs": [[0, 0], [1, 0], [10**400, 0]]},
        {"variant": "mobius", "q": 1, "terms": [[[0.5, 0], "x"]]},
        {"variant": "mobius", "q": 1, "terms": [[[0.5, 0], 10**400]]},
    ],
)
def test_from_json_rejects_values_that_are_no_float(payload):
    with pytest.raises(ValidationError, match="malformed function description"):
        AnalyticFunction.from_json(payload)


def test_mobius_prefactor_exponent_stays_in_the_float_range():
    assert AnalyticFunction.mobius(-(2**53), []).q == -(2**53)
    with pytest.raises(ValidationError, match="2\\*\\*53"):
        AnalyticFunction.from_json({"variant": "mobius", "q": -1e308, "terms": []})


def test_vectorized_eval_matches_scalar_loop():
    f = AnalyticFunction.mobius(0, [(0.8j, 0.5), (-0.7, -1.0)])
    zs = 0.5 * np.exp(1j * np.linspace(0, 6, 17))
    batch = f.eval(zs, order=1)
    single = np.array([f.eval(z, order=1) for z in zs])
    assert np.allclose(batch, single, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "payload",
    [
        {"variant": "taylor", "tag": {"class": "A", "p": 1.9}, "coeffs": [[0, 0], [1, 0]]},
        {"variant": "taylor", "tag": {"class": "A", "p": "1"}, "coeffs": [[0, 0], [1, 0]]},
        {"variant": "taylor", "tag": {"class": "A", "p": True}, "coeffs": [[0, 0], [1, 0]]},
        {"variant": "taylor", "tag": {"class": "H", "a": [1, 0], "n": 2.5}, "coeffs": [[1, 0]]},
        {"variant": "taylor", "tag": {"class": "H", "a": [1, 0], "n": float("nan")}, "coeffs": [[1, 0]]},
        {"variant": "mobius", "q": 1.5, "terms": []},
        {"variant": "mobius", "q": float("inf"), "terms": []},
        {"variant": "mobius", "q": None, "terms": []},
    ],
)
def test_from_json_rejects_non_integral_orders(payload):
    # int() used to truncate these, so "p": 1.9 was checked as A_1
    with pytest.raises(ValidationError, match="must be an integer"):
        AnalyticFunction.from_json(payload)


def test_from_json_accepts_integral_floats_for_orders():
    f = AnalyticFunction.from_json({"variant": "taylor", "tag": {"class": "A", "p": 2.0},
                                    "coeffs": [[0, 0], [0, 0], [1, 0]]})
    assert f.tag == ATag(2)
    assert AnalyticFunction.from_json({"variant": "mobius", "q": 1.0, "terms": []}).q == 1


@pytest.mark.parametrize(
    "payload",
    [
        '{"variant": "taylor", "tag": {"class": "A", "p": 1}, "coeffs": [[0, 0], [1, 0], [NaN, 0]]}',
        '{"variant": "taylor", "tag": {"class": "A", "p": 1}, "coeffs": [[0, 0], [1, 0], [0, Infinity]]}',
        '{"variant": "mobius", "q": 1, "terms": [[[NaN, 0], 1]]}',
        '{"variant": "mobius", "q": 1, "terms": [[[0.5, 0], NaN]]}',
        '{"variant": "mobius", "q": 1, "terms": [[[0.5, 0], -Infinity]]}',
    ],
)
def test_from_json_rejects_non_finite_coefficients_and_exponents(payload):
    # a NaN coefficient used to reach the functionals and print numpy warnings
    with pytest.raises(ValidationError, match="finite"):
        AnalyticFunction.from_json(payload)


def test_constructors_reject_non_finite_values_but_keep_huge_finite_exponents():
    with pytest.raises(ValidationError):
        AnalyticFunction.taylor([0, 1, math.nan], ATag(1))
    with pytest.raises(ValidationError):
        AnalyticFunction.mobius(1, [(complex(0.5, math.inf), 1.0)])
    assert AnalyticFunction.mobius(1, [(0.5, 1e308)]).terms == ((0.5 + 0j, 1e308),)


# ---------------------------------------------------------------------------
# jets: one evaluation per (function, point set), bit-identical to the
# per-order formulas


def _reference_eval(f, z, order):
    """The per-order formulas, each order evaluated from scratch."""
    z = np.asarray(z, dtype=complex)
    if f.variant.value == "taylor":
        cs = f.coeffs
        for _ in range(order):
            cs = tuple(k * c for k, c in enumerate(cs))[1:]
        if not cs:
            return np.zeros_like(z)
        acc = np.full_like(z, cs[-1])
        for c in reversed(cs[:-1]):
            acc = acc * z + c
        return acc
    q = f.q
    bases = [(1 + u * z, u, e) for u, e in f.terms]
    logg = np.zeros_like(z)
    for b, _, e in bases:
        logg = logg + e * np.log(b)
    g = np.exp(logg)
    if order == 0:
        return z**q * g if q != 0 else g
    s = np.zeros_like(z)
    for b, u, e in bases:
        s = s + e * u / b
    if order == 1:
        return g * s if q == 0 else z ** (q - 1) * g * (q + z * s)
    sp = np.zeros_like(z)
    for b, u, e in bases:
        sp = sp - e * u * u / (b * b)
    if q == 0:
        return g * (s * s + sp)
    return z ** (q - 2) * g * (q * (q - 1) + 2 * q * z * s + z * z * (s * s + sp))


def _bits(x):
    return np.asarray(x, dtype=complex).tobytes()


JET_FUNCTIONS = [
    AnalyticFunction.mobius(0, [(0.5, 1.5), (-0.9j, -0.3)]),
    AnalyticFunction.mobius(1, [(-1, -2.0), (0.3 + 0.4j, 0.75)]),
    AnalyticFunction.mobius(2, [(0.6 - 0.2j, -1.25), (-0.4, 2.0)]),
    AnalyticFunction.mobius(1, []),
    AnalyticFunction.taylor([0, 1, -0.5, 0.25j, 0.1 - 0.2j], ATag(1)),
    AnalyticFunction.taylor([1 + 1j, 0, 0.25, -0.3j], HTag(1 + 1j, 2)),
    AnalyticFunction.taylor([2.0], HTag(2.0, 1)),
]


@pytest.mark.parametrize("f", JET_FUNCTIONS)
def test_jet_matches_eval_and_the_per_order_formulas_bit_for_bit(f):
    zs = 0.97 * np.exp(1j * np.linspace(0, 2 * math.pi, 257)) * np.linspace(0.05, 1, 257)
    for z in (zs, zs[::3], complex(zs[40]), 0.31 - 0.22j):
        for order in (0, 1, 2):
            jet = f.jet(z, order)
            assert len(jet) == order + 1
            for k, value in enumerate(jet):
                assert _bits(value) == _bits(f.eval(z, k)) == _bits(_reference_eval(f, z, k))
            if np.ndim(z) == 0:
                assert all(type(v) is complex for v in jet)


def test_a_leading_z_enters_without_a_power_bit_for_bit():
    # q = 1 multiplies by z itself, not z**1; the values must not move
    f = AnalyticFunction.mobius(1, [(-1, -2.0), (0.3 + 0.4j, 0.75)])
    signed_zeros = np.array([complex(-0.3, -0.0), complex(0.0, -0.5), complex(-0.0, 0.2), complex(0.4, 0.0)])
    for z in (0.9 * np.exp(1j * np.linspace(0, 2 * math.pi, 23 * 720)).reshape(23, 720), signed_zeros, 0.4 - 0.0j):
        z = np.asarray(z, dtype=complex)
        assert _bits(f.eval(z, 0)) == _bits(z**1 * _reference_eval(AnalyticFunction.mobius(0, f.terms), z, 0))


def test_jet_default_order_and_range():
    f = koebe_like()
    assert len(f.jet(0.2)) == 3
    with pytest.raises(OrderOutOfRange):
        f.jet(0.2, 3)


def test_jet_arrays_are_read_only():
    f = koebe_like()
    f0, f1, f2 = f.jet(np.array([0.1 + 0.2j, -0.3j]))
    for arr in (f0, f1, f2, f.eval(np.array([0.5j]), 1)):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_jet_memo_never_serves_a_mutated_point_array():
    f = AnalyticFunction.mobius(0, [(0.5, 1.5)])
    z = np.array([0.1 + 0.2j, -0.3j, 0.4])
    before = f.jet(z, 2)
    z[1] = 0.7j  # same array object, new value
    after = f.jet(z, 2)
    for k in range(3):
        assert _bits(after[k]) == _bits(_reference_eval(f, z, k))
        assert after[k][1] != before[k][1]


def test_jet_memo_shares_one_evaluation_and_grows_the_order():
    f = AnalyticFunction.mobius(1, [(-0.5, -1.0)])
    z = np.array([0.2 + 0.1j, -0.6j])
    f0, f1 = f.jet(z, 1)
    same = f.jet(z.copy(), 2)
    assert same[0] is f0 and same[1] is f1
    assert _bits(same[2]) == _bits(_reference_eval(f, z, 2))
    assert f.eval(z, 0) is f0


def test_jet_memo_keys_on_the_function_object_and_bits():
    f = AnalyticFunction.mobius(1, [(-0.5, -1.0)])
    twin = AnalyticFunction.mobius(1, [(-0.5, -1.0)])  # equal, not the same object
    z = np.array([0.5 + 0j])
    assert twin.jet(z, 0)[0] is not f.jet(z, 0)[0]
    assert f.jet(np.array([complex(0.5, -0.0)]), 0)[0] is not f.jet(z, 0)[0]


@pytest.fixture
def memo():
    """This thread's jet memo, emptied."""
    from gftkit import core

    for entry in list(core._jet_memo.recency):
        core._jet_memo._evict(entry)
    return core._jet_memo


def _memo_arrays(entry):
    return [entry.key, *entry.values, *(a for a in (entry.g, entry.s) if a is not None), *entry.powers.values()]


def _memo_bytes(memo):
    """The bytes the memo's arrays take, as the budget counts each array."""
    from gftkit.core import _ARRAY_OVERHEAD

    return sum(a.nbytes + _ARRAY_OVERHEAD for entry in memo.recency for a in _memo_arrays(entry))


DEFAULT_SIZED = 0.9 * np.exp(1j * np.linspace(0, 2 * math.pi, 23 * 720)).reshape(23, 720)


@pytest.mark.parametrize(
    "make",
    [lambda u: AnalyticFunction.mobius(1, [(u, -1.0)]), lambda u: AnalyticFunction.taylor([0, 1, u], ATag(1))],
    ids=["mobius", "taylor"],
)
def test_a_default_grid_entry_keeps_exactly_one_other(memo, make):
    # a Taylor entry holds four arrays, but a new one counts its full six
    f, g, h = (make(u) for u in (0.1, 0.2, 0.3))
    f0, g0 = f.jet(DEFAULT_SIZED, 2)[0], g.jet(DEFAULT_SIZED, 2)[0]
    assert f.jet(DEFAULT_SIZED, 0)[0] is f0  # f is now the most recent, g the oldest
    h0 = h.jet(DEFAULT_SIZED, 2)[0]
    assert [e.f for e in memo.recency] == [f, h]
    assert g.jet(DEFAULT_SIZED, 0)[0] is not g0  # g was evicted; recomputing it evicts f
    assert h.jet(DEFAULT_SIZED, 0)[0] is h0
    assert [e.f for e in memo.recency] == [g, h]


def test_third_function_evicts_the_least_recently_used_jet(memo):
    # the budget holds two default-grid entries, so a third one evicts
    z = DEFAULT_SIZED
    f, g, h = (AnalyticFunction.mobius(1, [(u, -1.0)]) for u in (0.1, 0.2, 0.3))
    f0, g0 = f.jet(z, 0)[0], g.jet(z, 0)[0]
    assert f.jet(z, 0)[0] is f0  # f is now the most recent, g the oldest
    h0 = h.jet(z, 0)[0]
    assert g.jet(z, 0)[0] is not g0  # g was evicted; recomputing it evicts f
    assert h.jet(z, 0)[0] is h0
    assert f.jet(z, 0)[0] is not f0


def test_a_power_on_a_default_grid_entry_keeps_the_other(memo):
    # a scan's entry holds f, f', f'' and one power (z/f)^c at most
    f, g = (AnalyticFunction.mobius(1, [(u, -1.0)]) for u in (0.1, 0.2))
    f.jet(DEFAULT_SIZED, 2), f.quotient_power(DEFAULT_SIZED, 0.5)
    g.jet(DEFAULT_SIZED, 1), g.quotient_power(DEFAULT_SIZED, 0.5)
    assert [e.f for e in memo.recency] == [f, g]


def test_powers_beyond_the_budget_evict_the_other_entry(memo):
    from gftkit.core import _JET_MEMO_BYTES

    f, g = (AnalyticFunction.mobius(1, [(u, -1.0)]) for u in (0.1, 0.2))
    f.jet(DEFAULT_SIZED, 2), g.jet(DEFAULT_SIZED, 1)  # four arrays, and five until f''
    for c in (0.5, 0.75, 1.25):
        g.quotient_power(DEFAULT_SIZED, c)
    assert [e.f for e in memo.recency] == [f, g]  # 4 + 8 of 12 arrays
    g.quotient_power(DEFAULT_SIZED, 1.5)
    assert [e.f for e in memo.recency] == [g] and _memo_bytes(memo) <= memo.nbytes <= _JET_MEMO_BYTES


def test_many_ring_entries_survive_together(memo, monkeypatch):
    f = AnalyticFunction.mobius(1, [(-0.5, -2.0), (0.3j, 0.5)])
    rings = [r * np.exp(1j * np.linspace(0, 2 * math.pi, 720, endpoint=False)) for r in np.linspace(0.01, 0.99, 60)]
    first = [f.jet(z, 2) for z in rings]
    cold = []
    monkeypatch.setattr(AnalyticFunction, "_grow", lambda *args: cold.append(args))
    for z, jet in zip(rings, first):
        assert all(a is b for a, b in zip(f.jet(z, 2), jet))
    assert cold == [] and len(memo.recency) == 60


def test_memo_bytes_never_exceed_the_budget(memo):
    from gftkit.core import _JET_MEMO_BYTES

    rng = np.random.default_rng(7)
    fns = [
        AnalyticFunction.mobius(1, [(-0.5, -1.0)]),
        AnalyticFunction.mobius(2, [(0.6 - 0.2j, -1.25), (-0.4, 2.0)]),
        AnalyticFunction.taylor([0, 1, -0.5, 0.25j], ATag(1)),
    ]
    point_sets = [0.3 - 0.2j, DEFAULT_SIZED[0, :7], DEFAULT_SIZED[3, :], DEFAULT_SIZED[:12], DEFAULT_SIZED]
    point_sets += [0.5 * z for z in point_sets]
    for _ in range(300):
        f = fns[rng.integers(len(fns))]
        z = point_sets[rng.integers(len(point_sets))]
        if rng.random() < 0.3:
            c = (0.5, 1.25, -0.75, 2.0)[rng.integers(4)]
            got = f.quotient_power(z, c)
            assert _bits(got) == _bits(principal_power(z / _reference_eval(f, np.asarray(z), 0), c))
        else:
            order = int(rng.integers(3))
            jet = f.jet(z, order)
            assert _bits(jet[order]) == _bits(_reference_eval(f, np.asarray(z, dtype=complex), order))
        assert _memo_bytes(memo) <= memo.nbytes == sum(e.bound() for e in memo.recency) <= _JET_MEMO_BYTES
        assert sorted(map(id, memo.recency)) == sorted(id(e) for b in memo.index.values() for e in b)


def test_jet_memo_is_per_thread():
    from concurrent.futures import ThreadPoolExecutor

    f = koebe_like()
    z = np.array([0.4j, 0.1])
    mine = f.jet(z, 1)
    with ThreadPoolExecutor(max_workers=1) as pool:
        theirs = pool.submit(f.jet, z, 1).result()
    assert theirs[0] is not mine[0]
    assert _bits(theirs[0]) == _bits(mine[0]) and _bits(theirs[1]) == _bits(mine[1])


def test_threads_alternating_functions_always_get_their_own_jets():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    z = 0.9 * np.exp(1j * np.linspace(0, 2 * math.pi, 720, endpoint=False))
    fns = [AnalyticFunction.mobius(1, [(u, -1.0), (0.5j, 0.5)]) for u in (0.1, -0.4, 0.7)]
    want = [[_bits(_reference_eval(f, z, k)) for k in range(3)] for f in fns]

    exponents = (0.5, 1.75)
    want_powers = [[_bits(principal_power(z / _reference_eval(f, z, 0), c)) for c in exponents] for f in fns]

    def work(seed):
        for i in range(60):
            j = (seed + i) % 3
            order = (seed * i) % 3
            if [_bits(v) for v in fns[j].jet(z, order)] != want[j][: order + 1]:
                return False
            k = (seed + 2 * i) % 2
            if _bits(fns[j].quotient_power(z, exponents[k])) != want_powers[j][k]:
                return False
        return True

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [fut.result(timeout=60) for fut in [pool.submit(work, s) for s in range(8)]]
    finally:
        sys.setswitchinterval(old)
    assert results == [True] * 8


@pytest.fixture
def log_count(monkeypatch, log_memo):
    """The point counts of the logs of z/f the core has computed since the test began."""
    from gftkit import core

    calls = []
    inner = core._LogMemo.log

    def counting(self, z, what, compute):
        if what[0] == "z/f":
            return inner(self, z, what, lambda: calls.append(z.size) or compute())
        return inner(self, z, what, compute)

    monkeypatch.setattr(core._LogMemo, "log", counting)
    return calls


def _kept_powers(f, z):
    from gftkit import core

    return sorted(core._jet_memo.entry(f, np.asarray(z, dtype=complex)).powers)


@pytest.mark.parametrize("z", [np.array([0.3 + 0.4j, -0.6, 0.2j]), 0.3 + 0.4j])
def test_quotient_power_is_the_principal_power_kept_per_exponent(log_count, z):
    from gftkit import FunctionalSpec, evaluate_functional

    f = AnalyticFunction.mobius(1, [(-0.5, -1.0), (0.2j, 0.5)])
    first = f.quotient_power(z, 1.5)
    assert _bits(first) == _bits(principal_power(np.asarray(z) / np.asarray(f.eval(z, 0)), 1.5))
    assert type(first) is (complex if np.ndim(z) == 0 else np.ndarray)
    again = f.quotient_power(np.array(z, copy=True), 1.5)  # same bits, another array
    assert _bits(again) == _bits(first) and len(log_count) == 1
    evaluate_functional(FunctionalSpec.u_func(0.5), f, z)  # reads the kept (z/f)^1.5
    for c in (0.5, -0.0, 0.0):  # -0.0 and 0.0 may differ in signed zeros: kept apart
        got = f.quotient_power(z, c)
        assert _bits(got) == _bits(principal_power(np.asarray(z) / np.asarray(f.eval(z, 0)), c))
    assert _kept_powers(f, z) == sorted(float(c).hex() for c in (1.5, 0.5, -0.0, 0.0))
    twin = AnalyticFunction.mobius(1, [(-0.5, -1.0), (0.2j, 0.5)])  # equal value, another object
    assert _bits(twin.quotient_power(z, 0.75)) == _bits(principal_power(np.asarray(z) / np.asarray(f.eval(z, 0)), 0.75))
    assert len(log_count) == 1  # every exponent, and the twin, raise the one kept log


def test_kept_powers_are_read_only_and_shared():
    f = koebe_like()
    z = np.array([0.1 + 0.2j, -0.3j])
    power = f.quotient_power(z, 0.75)
    assert f.quotient_power(z, 0.75) is power
    with pytest.raises(ValueError):
        power[0] = 0


def test_a_power_that_overflows_is_not_kept(log_count):
    from types import SimpleNamespace

    from gftkit import ClassSpec, FunctionalSpec, Verdict, check_membership, evaluate_functional

    f = AnalyticFunction.mobius(0, [])  # f = 1, so (z/f)^2 overflows at z = 1e200
    z = np.array([0.5, 1e200, 2.0])
    for _ in range(2):
        with pytest.raises(NonFiniteValue) as info:
            evaluate_functional(FunctionalSpec.u_func(1.0), f, z)
        assert info.value.witness == 1e200
        rep = check_membership(ClassSpec.u(1.0, 1.0), f, SimpleNamespace(points=z))
        assert rep.verdict is Verdict.UNDECIDED and rep.witness == 1e200
    with np.errstate(over="ignore"):
        first = f.quotient_power(z, 2.0)
        second = f.quotient_power(z, 2.0)
    assert np.isinf(first[1]) and _bits(second) == _bits(first)
    assert second is not first and _kept_powers(f, z) == []  # evaluated again: nothing was kept
    assert log_count == [3]  # z/f itself is finite, so its log was kept


def _log_memo_bytes(memo):
    """The bytes the log memo's arrays take, each point set once, as its budget counts them."""
    from gftkit.core import _ARRAY_OVERHEAD

    sets = {id(points): points.key for points, _ in memo.logs}
    return sum(np.asarray(a).nbytes + _ARRAY_OVERHEAD for a in [*sets.values(), *memo.logs.values()])


def _folded_log(w):
    """np.log with -0.0 turned to +0.0 in the imaginary part of negative reals."""
    w = np.asarray(w, dtype=complex)
    im = np.where((w.imag == 0) & (w.real < 0), 0.0, w.imag)
    return np.log(w.real + 1j * im)


def test_kept_logs_equal_fresh_logs_bit_for_bit(log_memo):
    # z/f = 1/(1 - 2z) is negative real at real z > 1/2, where the signed
    # zero of the imaginary part decides between the two edges of the cut
    fns = [
        AnalyticFunction.taylor([0, 1, -2], ATag(1)),
        AnalyticFunction.mobius(1, [(-0.5, -1.0), (complex(-0.0, 0.9), 0.5)]),
        AnalyticFunction.mobius(1, [(-0.5, -1.0), (0.9j, 0.5)]),  # u differs from the last in a signed zero
        AnalyticFunction.mobius(2, [(-1, -2.0), (0.3 + 0.4j, 0.75)]),
    ]
    by_value = {f._value_bits: f for f in fns}
    signed = np.array([complex(0.75, -0.0), 0.75 + 0j, complex(-0.6, -0.0), 0.8 - 0.3j, complex(0.9, -0.0)])
    point_sets = [signed, signed[::-1], DEFAULT_SIZED[5], DEFAULT_SIZED[:3], complex(0.7, -0.0)]
    rng = np.random.default_rng(11)
    for _ in range(120):
        f = fns[rng.integers(len(fns))]
        z = np.asarray(point_sets[rng.integers(len(point_sets))], dtype=complex)
        c = (0.5, -1.25, 2.0)[rng.integers(3)]
        got = f.quotient_power(z.copy(), c)
        assert _bits(got) == _bits(principal_power(z / _reference_eval(f, z, 0), c))
        for (points, what), log in log_memo.logs.items():
            if what[0] == "1 + uz":
                u = complex(float.fromhex(what[1]), float.fromhex(what[2]))
                assert _bits(log) == _bits(np.log(1 + u * points.key))
            else:
                g = by_value[what[1:]]
                assert _bits(log) == _bits(_folded_log(points.key / _reference_eval(g, points.key, 0)))
    assert {what[0] for _, what in log_memo.logs} == {"1 + uz", "z/f"}


def test_two_hundred_rings_stay_within_the_log_memo_bounds(log_memo, monkeypatch):
    from gftkit import core

    monkeypatch.setattr(core, "_LOG_COUNTS", 64)
    fns = [AnalyticFunction.mobius(1, [(u, -1.0), (0.5j, 0.5)]) for u in (0.1, -0.4, 0.7)]
    angles = np.exp(1j * np.linspace(0, 2 * math.pi, 720, endpoint=False))
    for k, r in enumerate(np.linspace(0.01, 0.99, 200)):
        z = r * angles
        f = fns[k % 3]
        f.jet(z, 2)
        f.quotient_power(z, 0.5)
        assert _log_memo_bytes(log_memo) == log_memo.nbytes <= core._LOG_MEMO_BYTES
        assert len(log_memo.logs) <= core._LOG_ENTRIES and len(log_memo.counts) <= 64
        assert list(log_memo.uses) == list(log_memo.logs)
        sets = [p for bucket in log_memo.index.values() for p in bucket]
        assert sorted(map(id, sets)) == sorted({id(p) for p, _ in log_memo.logs})
        assert all(p.kept == sum(q is p for q, _ in log_memo.logs) for p in sets)


def test_a_default_grid_log_is_shared_by_functions_with_the_factor(log_memo):
    from gftkit import core

    f, g = (AnalyticFunction.mobius(1, [(-0.5, e)]) for e in (-1.0, 2.0))
    f.jet(DEFAULT_SIZED, 0)
    (points,) = {p for p, _ in log_memo.logs}
    g.jet(DEFAULT_SIZED.copy(), 0)
    assert len(log_memo.logs) == 1  # g read f's log of 1 - 0.5z
    assert core._jet_memo.entry(g, DEFAULT_SIZED).key is points.key  # one private copy of the grid


def test_jet_overflow_is_an_evaluation_error_at_the_first_bad_point():
    f = AnalyticFunction.mobius(1, [(0.5, 1e308)])
    z = np.array([1e-300j, 0.5, 0.5j, -0.5])
    with pytest.raises(NonFiniteValue) as info:  # no numpy warning escapes either
        f.jet(z, 0)
    assert isinstance(info.value, EvaluationError)
    assert info.value.witness == 0.5  # f(1e-300i) is finite
    with pytest.raises(NonFiniteValue) as info:
        f.eval(z, 2)
    assert info.value.witness == 1e-300j  # f'' holds (f'/f)^2 = (5e307)^2 there


def test_jet_underflow_to_zero_is_legal():
    f = AnalyticFunction.mobius(0, [(0.5, -2000.0)])
    assert f.eval(0.99, 0) == 0


# ---------------------------------------------------------------------------
# zeros of f and f' in the disk, kept on the function


def test_singular_radii_are_computed_once_per_function_and_order(monkeypatch):
    from gftkit import core

    zmz2 = AnalyticFunction.taylor([0, 1, -1], ATag(1))  # f' = 0 at 1/2, f = 0 at 1
    want = core._roots_radius(zmz2, 1)
    calls = []
    inner = np.roots
    monkeypatch.setattr(np, "roots", lambda c: calls.append(c) or inner(c))
    assert zmz2.zero_radius(1) == want == zmz2.zero_radius(1) == 0.5
    assert len(calls) == 1
    twin = AnalyticFunction.taylor([0, 1, -1], ATag(1))  # equal, not the same object
    assert twin == zmz2 and twin.zero_radius(1) == want and len(calls) == 2
    assert zmz2.zero_radius(0) == math.inf and len(calls) == 3  # order 0 is its own entry
    assert zmz2.zero_radius(-1) == math.inf and len(calls) == 3  # f(0) = 0 needs no roots
    with pytest.raises(OrderOutOfRange):
        zmz2.zero_radius(2)


def test_threads_share_the_singular_radii_safely():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from gftkit import core

    fns = [AnalyticFunction.taylor([0, 1, k / 97, -k / 211], ATag(1)) for k in range(192)]
    want = [core._roots_radius(f, 1) for f in fns]

    def work(seed):
        return all(fns[j].zero_radius(1) == want[j] for j in np.random.default_rng(seed).integers(len(fns), size=400))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [fut.result(timeout=60) for fut in [pool.submit(work, s) for s in range(8)]]
    finally:
        sys.setswitchinterval(old)
    assert results == [True] * 8
    assert all(f._zero_radii == {1: w} for f, w in zip(fns, want))
