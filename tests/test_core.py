"""Evaluation, series, branch-cut, and serialization behavior of the core."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gftkit import (
    ATag,
    AnalyticFunction,
    DivisionByZeroInFunctional,
    EvaluationError,
    HTag,
    NonFiniteValue,
    OrderOutOfRange,
    SingularPoint,
    ValidationError,
    default_grid,
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


def test_a_derivative_order_is_read_as_an_integer():
    """An integral float is its integer, as in every integer domain; a bool,
    a fractional float or a string is no order, in eval, jet and the shape
    quotients alike, where 1.0 once failed to slice, True read f' and [0.0]
    passed as order 0."""
    f = koebe_like()
    z = np.array([0.5, 0.25j])
    assert f.jet(0.5, 1.0) == f.jet(0.5, 1) and f.eval(0.5, 2.0) == f.eval(0.5, 2)
    assert [v.tobytes() for v in f.shape_quotients(z, (1.0,))] == [f.shape_quotients(z, (1,))[0].tobytes()]
    for bad in (True, False, 1.5, "1", None, math.nan):
        with pytest.raises(OrderOutOfRange, match="order"):
            f.eval(0.5, bad)
        with pytest.raises(OrderOutOfRange, match="order"):
            f.jet(0.5, bad)
        with pytest.raises(OrderOutOfRange, match="order"):
            f.shape_quotients(z, (0, bad))


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


def test_a_coefficient_count_is_read_as_an_integer():
    """n = 2.0 is 2, as in every integer domain; a fractional n raised
    TypeError, and True returned two coefficients."""
    for f in (half_plane_map(), half_plane_map().to_taylor(6)):
        assert f.taylor_coefficients(2.0) == f.taylor_coefficients(2)
        assert f.to_taylor(2.0).coeffs == f.to_taylor(2).coeffs
        for bad in (2.5, True, "2", math.inf):
            with pytest.raises(ValidationError, match="integer"):
                f.taylor_coefficients(bad)
            with pytest.raises(ValidationError, match="integer"):
                f.to_taylor(bad)


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


_FINITE = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)
_TAIL = st.lists(_FINITE, max_size=4)

# (build, k): build(k) is a drawn function whose tag order (A_p's p, H[a, n]'s
# n) or prefactor exponent q is k, so the order can be spelled another way
FUNCTIONS = st.one_of(
    st.builds(lambda p, tail: (lambda k: AnalyticFunction.taylor([0] * p + [1] + tail, ATag(k)), p),
              st.integers(1, 3), _TAIL),
    st.builds(lambda a, n, tail: (lambda k: AnalyticFunction.taylor([a] + [0] * (n - 1) + tail, HTag(a, k)), n),
              _FINITE, st.integers(1, 3), _TAIL),
    st.builds(lambda q, terms: (lambda k: AnalyticFunction.mobius(k, terms), q),
              st.integers(-2, 3),
              st.lists(st.tuples(st.builds(cmath.rect, st.floats(0, 1), st.floats(-math.pi, math.pi)),
                                 st.floats(-3, 3)), max_size=3)),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(FUNCTIONS, st.sampled_from(["int", "float", "bool"]))
def test_json_round_trip_keeps_every_bit(drawn, spelling):
    """from_json(to_json) gives back an equal function with the same value
    bits and the same jet bits on a ring; an order spelled as a bool is
    rejected and one spelled as an integral float is read as its integer."""
    build, k = drawn
    if spelling == "bool":
        for b in (False, True):
            with pytest.raises(ValidationError, match="must be an integer"):
                build(b)
        return
    f = build(float(k) if spelling == "float" else k)
    assert f == build(k)
    back = AnalyticFunction.from_json(json.dumps(f.to_json()))
    assert back == f and back._value_bits == f._value_bits
    z = 0.6 * np.exp(2j * math.pi * np.arange(64) / 64)
    assert [v.tobytes() for v in back.jet(z, 2)] == [v.tobytes() for v in f.jet(z, 2)]


def test_each_representation_holds_its_two_fields_and_the_base_none():
    from dataclasses import fields, is_dataclass

    from gftkit import Variant

    assert not is_dataclass(AnalyticFunction)
    with pytest.raises(TypeError):  # no longer builds an unchecked function
        AnalyticFunction(Variant.TAYLOR, coeffs=(0j, 1 + 0j), tag=None)
    taylor = AnalyticFunction.taylor([0, 1], ATag(1))
    assert [x.name for x in fields(taylor)] == ["coeffs", "tag"] and taylor.variant is Variant.TAYLOR
    assert [x.name for x in fields(koebe_like())] == ["q", "terms"]
    assert koebe_like().variant is Variant.MOBIUS_POWER_PRODUCT


def test_from_json_rejects_malformed_payloads():
    with pytest.raises(ValidationError):
        AnalyticFunction.from_json({"variant": "nope"})
    with pytest.raises(ValidationError):
        AnalyticFunction.from_json({"variant": "mobius", "q": 0, "terms": [[1, -1]]})
    with pytest.raises(ValidationError):
        AnalyticFunction.from_json("not json at all {{{")


def test_from_json_rejects_an_integer_of_more_than_4300_digits():
    with pytest.raises(ValidationError, match="payload is not valid JSON"):
        AnalyticFunction.from_json('{"variant": "mobius", "q": 1' + "0" * 5000 + ', "terms": []}')


def test_from_json_rejects_a_payload_nested_too_deeply():
    with pytest.raises(ValidationError, match="nested too deeply"):
        AnalyticFunction.from_json("[" * 100000 + "]" * 100000)


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
    # and so do the constructors, which rejected ATag(2.0)
    assert type(ATag(2.0).p) is int and type(HTag(1, 3.0).n) is int
    assert AnalyticFunction.mobius(1.0, []).to_json() == identity_map().to_json()


@pytest.mark.parametrize(
    "build",
    [lambda: ATag(True), lambda: HTag(1, True), lambda: AnalyticFunction.mobius(True, []),
     lambda: ATag(1.5), lambda: HTag(1, "2"), lambda: AnalyticFunction.mobius(None, [])],
    ids=["ATag(True)", "HTag(1, True)", "mobius(True)", "ATag(1.5)", "HTag(1, '2')", "mobius(None)"],
)
def test_tags_and_products_read_their_orders_as_from_json_does(build):
    # a bool used to be taken as an integer, and its to_json() then failed to load
    with pytest.raises(ValidationError, match="must be an integer"):
        build()


@pytest.mark.parametrize("a", [math.nan, complex(0, math.inf), -math.inf, 10**400, "1", None],
                         ids=["nan", "inf j", "-inf", "10**400", "'1'", "None"])
def test_h_tags_need_a_finite_complex_value(a):
    # abs(c_0 - nan) > tol is False, so a NaN a used to pass the tag check
    with pytest.raises(ValidationError, match="finite complex"):
        HTag(a)


@pytest.mark.parametrize("tag", [None, "A1", 1, (1,)])
def test_a_taylor_series_needs_an_a_or_h_tag(tag):
    with pytest.raises(ValidationError, match="ATag or an HTag"):
        AnalyticFunction.taylor([0, 1], tag)


@pytest.mark.parametrize(
    "payload",
    [
        '{"variant": "taylor", "tag": {"class": "A", "p": 1}, "coeffs": [[0, 0], [1, 0], [NaN, 0]]}',
        '{"variant": "taylor", "tag": {"class": "A", "p": 1}, "coeffs": [[0, 0], [1, 0], [0, Infinity]]}',
        '{"variant": "mobius", "q": 1, "terms": [[[NaN, 0], 1]]}',
        '{"variant": "mobius", "q": 1, "terms": [[[0.5, 0], NaN]]}',
        '{"variant": "mobius", "q": 1, "terms": [[[0.5, 0], -Infinity]]}',
        # abs(c_0 - nan) > tol is False, so a NaN tag value used to pass the tag check
        '{"variant": "taylor", "tag": {"class": "H", "a": [NaN, 0], "n": 1}, "coeffs": [[1, 0], [0.1, 0]]}',
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


@pytest.mark.parametrize("q", [-1, 0, 1, 2, 3])
def test_leading_powers_of_z_keep_every_order_bit_for_bit(q):
    # f, f' and f'' take z**q, z**(q - 1) and z**(q - 2): an array's power 1
    # is z itself and its power 0 exact ones, each with the bits of z**q
    from gftkit import default_grid

    f = AnalyticFunction.mobius(q, [(-1, -2.0), (0.3 + 0.4j, 0.75)])
    grid = default_grid().points
    signed_zeros = np.array([complex(-0.3, -0.0), complex(0.0, -0.5), complex(-0.0, 0.2), complex(0.4, 0.0)])
    for z in (grid, 0.37 * grid, signed_zeros, 0.4 - 0.0j, complex(-0.0, -0.6), signed_zeros[2:3]):
        for order in (0, 1, 2):
            jet = AnalyticFunction.mobius(q, f.terms).jet(z, order)  # a new object: no kept jet
            assert [_bits(v) for v in jet] == [_bits(_reference_eval(f, z, k)) for k in range(order + 1)]


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

    core._jet_memo.entries.clear()
    return core._jet_memo


DEFAULT_SIZED = 0.9 * np.exp(1j * np.linspace(0, 2 * math.pi, 23 * 720)).reshape(23, 720)


@pytest.mark.parametrize(
    "make",
    [lambda u: AnalyticFunction.mobius(1, [(u, -1.0)]), lambda u: AnalyticFunction.taylor([0, 1, u], ATag(1))],
    ids=["mobius", "taylor"],
)
def test_a_default_grid_entry_keeps_exactly_one_other(memo, make):
    f, g, h = (make(u) for u in (0.1, 0.2, 0.3))
    f0, g0 = f.jet(DEFAULT_SIZED, 2)[0], g.jet(DEFAULT_SIZED, 2)[0]
    assert f.jet(DEFAULT_SIZED, 0)[0] is f0  # f is now the most recent, g the oldest
    h0 = h.jet(DEFAULT_SIZED, 2)[0]
    assert [e.f for e in memo.entries] == [f, h]
    assert g.jet(DEFAULT_SIZED, 0)[0] is not g0  # g was evicted; recomputing it evicts f
    assert h.jet(DEFAULT_SIZED, 0)[0] is h0
    assert [e.f for e in memo.entries] == [g, h]


def test_third_function_evicts_the_least_recently_used_jet(memo):
    # the memo holds two entries, so a third one evicts
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
    assert [e.f for e in memo.entries] == [f, g]


def test_a_second_exponent_replaces_the_first_and_both_entries_stay(memo):
    f, g = (AnalyticFunction.mobius(1, [(u, -1.0)]) for u in (0.1, 0.2))
    f.jet(DEFAULT_SIZED, 2), g.jet(DEFAULT_SIZED, 1)
    first = g.quotient_power(DEFAULT_SIZED, 0.5)
    assert g.quotient_power(DEFAULT_SIZED, 0.5) is first
    second = g.quotient_power(DEFAULT_SIZED, 0.75)
    assert [e.f for e in memo.entries] == [f, g]
    assert memo.entries[-1].power[0] == (0.75).hex() and memo.entries[-1].power[1] is second
    again = g.quotient_power(DEFAULT_SIZED, 0.5)  # computed again, and kept in place of 0.75
    assert again is not first and _bits(again) == _bits(first)
    assert memo.entries[-1].power[1] is again and [e.f for e in memo.entries] == [f, g]


def test_memo_keeps_two_entries_with_one_power_each(memo):
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
            assert memo.entries[-1].power[0] == float(c).hex() and _bits(memo.entries[-1].power[1]) == _bits(got)
        else:
            order = int(rng.integers(3))
            jet = f.jet(z, order)
            assert _bits(jet[order]) == _bits(_reference_eval(f, np.asarray(z, dtype=complex), order))
        assert 1 <= len(memo.entries) <= 2 and memo.entries[-1].f is f


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
    """The exponents, as hex digits, kept with this thread's jet of f on z: the last one read, if any."""
    from gftkit import core

    (entry,) = [e for e in core._jet_memo.entries if e.holds(f, np.asarray(z, dtype=complex))]
    return [] if entry.power is None else [entry.power[0]]


@pytest.mark.parametrize("z", [default_grid().points, default_grid().points.copy()])
def test_quotient_power_is_the_principal_power_kept_per_exponent(log_count, z):
    # on the default grid, and on an array with its bits
    from gftkit import FunctionalSpec, evaluate_functional

    f = AnalyticFunction.mobius(1, [(-0.5, -1.0), (0.2j, 0.5)])
    first = f.quotient_power(z, 1.5)
    assert _bits(first) == _bits(principal_power(np.asarray(z) / np.asarray(f.eval(z, 0)), 1.5))
    assert type(first) is np.ndarray
    again = f.quotient_power(np.array(z, copy=True), 1.5)  # same bits, another array
    assert _bits(again) == _bits(first) and len(log_count) == 1
    evaluate_functional(FunctionalSpec.u_func(0.5), f, z)  # reads the kept (z/f)^1.5
    for c in (0.5, -0.0, 0.0):  # -0.0 and 0.0 may differ in signed zeros: kept apart
        got = f.quotient_power(z, c)
        assert _bits(got) == _bits(principal_power(np.asarray(z) / np.asarray(f.eval(z, 0)), c))
    assert _kept_powers(f, z) == [(0.0).hex()]  # each exponent replaced the last
    twin = AnalyticFunction.mobius(1, [(-0.5, -1.0), (0.2j, 0.5)])  # equal value, another object
    assert _bits(twin.quotient_power(z, 0.75)) == _bits(principal_power(np.asarray(z) / np.asarray(f.eval(z, 0)), 0.75))
    # a log is kept from its second ask: the exponent 0.5 computes it again
    # and keeps it, and every later exponent, and the twin, raise that one
    assert len(log_count) == 2


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
    # on the grid, where logs are kept: (z/f)^-400 overflows on the inner rings
    grid = default_grid().points
    log_count.clear()
    with np.errstate(over="ignore"):
        first = f.quotient_power(grid, -400.0)
        second = f.quotient_power(grid, -400.0)
    assert np.isinf(first[0]) and _bits(second) == _bits(first)
    assert second is not first and _kept_powers(f, grid) == []  # evaluated again: nothing was kept
    # z/f itself is finite, so its log was kept at its second ask
    assert log_count == [grid.size, grid.size]


def _folded_log(w):
    """np.log with -0.0 turned to +0.0 in the imaginary part of negative reals."""
    w = np.asarray(w, dtype=complex)
    im = np.where((w.imag == 0) & (w.real < 0), 0.0, w.imag)
    return np.log(w.real + 1j * im)


def test_kept_logs_equal_fresh_logs_bit_for_bit(log_memo):
    # z/f = 1/(1 - 1.6z) is negative real at real z > 5/8, as on the grid's
    # ray at angle 0, where the signed zero of the imaginary part decides
    # between the two edges of the cut
    fns = [
        AnalyticFunction.taylor([0, 1, -1.6], ATag(1)),
        AnalyticFunction.mobius(1, [(-0.5, -1.0), (complex(-0.0, 0.9), 0.5)]),
        AnalyticFunction.mobius(1, [(-0.5, -1.0), (0.9j, 0.5)]),  # u differs from the last in a signed zero
        AnalyticFunction.mobius(2, [(-1, -2.0), (0.3 + 0.4j, 0.75)]),
    ]
    by_value = {f._value_bits: f for f in fns}
    points = default_grid().points
    fresh = {}  # what -> the log computed from scratch on the grid
    rng = np.random.default_rng(11)
    for _ in range(120):
        f = fns[rng.integers(len(fns))]
        c = (0.5, -1.25, 2.0)[rng.integers(3)]
        got = f.quotient_power(points.copy(), c)  # the grid's bits
        assert _bits(got) == _bits(principal_power(points / _reference_eval(f, points, 0), c))
        for what, log in log_memo.logs.items():
            if what not in fresh and what[0] == "1 + uz":
                u = complex(float.fromhex(what[1]), float.fromhex(what[2]))
                fresh[what] = np.log(1 + u * points)
            elif what not in fresh:
                g = by_value[what[1:]]
                fresh[what] = _folded_log(points / _reference_eval(g, points, 0))
            assert _bits(log) == _bits(fresh[what])
    assert {what[0] for what in log_memo.logs} == {"1 + uz", "z/f"}


def test_two_hundred_members_on_the_grid_stay_within_the_log_memo_bounds(log_memo, monkeypatch):
    from gftkit import core

    monkeypatch.setattr(core, "_LOG_COUNTS", 64)
    z = default_grid().points
    for k, u in enumerate(np.linspace(-0.9, 0.9, 200)):
        f = AnalyticFunction.mobius(1, [(u, -1.0), (0.5j, 0.5)])
        # an equal value, another object: it asks for the logs of f's factor
        # and z/f a second time, which keeps them; 1 + 0.5iz is shared
        for g in (f, AnalyticFunction.mobius(1, f.terms)):
            g.jet(z, 0)
            g.quotient_power(z, 0.5)
        assert len(log_memo.logs) == min(2 * k + 3, core._LOG_SLOTS)
        assert len(log_memo.counts) <= 64
        assert set(log_memo.logs) <= set(log_memo.counts)  # a kept log's count is never dropped


def test_a_default_grid_log_is_shared_by_functions_with_the_factor(log_memo):
    from gftkit import core

    grid = default_grid().points
    f, h, g = (AnalyticFunction.mobius(1, [(-0.5, e)]) for e in (-1.0, 0.5, 2.0))
    f.jet(grid, 0)
    assert not log_memo.logs  # a log is kept from its second ask
    h.jet(grid.copy(), 0)
    g.jet(grid.copy(), 0)
    assert len(log_memo.logs) == 1  # g read the kept log of 1 - 0.5z
    assert core._jet_memo.entry(g, grid).key is core._log_points  # one private copy of the grid
    assert core._log_points is not grid and not core._log_points.flags.writeable


def test_a_scaled_grid_computes_its_logs_on_every_ask_and_keeps_none(log_memo, monkeypatch):
    # the default grid's shape, other bits: logs are kept on the grid alone
    from gftkit import core

    computed = []
    inner = core._LogMemo.log
    monkeypatch.setattr(core._LogMemo, "log",
                        lambda self, z, what, compute: inner(self, z, what, lambda: computed.append(what) or compute()))
    for z in (0.5 * default_grid().points, 0.3 + 0.4j):
        for _ in range(3):
            f = AnalyticFunction.mobius(1, [(-0.5, -1.0), (0.3j, 0.5)])  # a new object: no jet is reused
            assert _bits(f.jet(z, 0)[0]) == _bits(_reference_eval(f, z, 0))
            assert _bits(f.quotient_power(z, 0.5)) == _bits(principal_power(z / _reference_eval(f, z, 0), 0.5))
    assert len(computed) == 2 * 3 * 3  # two factors and z/f, each time
    assert not log_memo.logs and not log_memo.counts


def test_a_changed_default_grid_point_gets_fresh_logs(log_memo):
    grid = default_grid().points
    fns = [AnalyticFunction.mobius(1, [(-0.5, -1.0), (0.3j, 0.5)]) for _ in range(3)]  # equal values, no shared jet
    for f in fns[:2]:
        f.jet(grid, 0), f.quotient_power(grid, 0.5)
    assert len(log_memo.logs) == 3  # two factors and z/f, kept at their second ask
    old = grid[7]
    grid.flags.writeable = True
    try:
        grid[7] = 0.123 + 0.456j
        f = fns[2]
        assert _bits(f.jet(grid, 0)[0]) == _bits(_reference_eval(f, grid, 0))
        assert _bits(f.quotient_power(grid, 0.5)) == _bits(principal_power(grid / _reference_eval(f, grid, 0), 0.5))
    finally:
        grid[7] = old
        grid.flags.writeable = False


def test_logs_asked_for_once_are_not_kept(log_memo):
    # the gate of gftkit radius reads each member's z/f, and its factors, on
    # the default grid once; none of those logs is read again
    from gftkit import ClassSpec, check_membership, default_grid

    for u in np.linspace(-0.9, 0.9, 12):
        check_membership(ClassSpec.u(1.0, 1.0), AnalyticFunction.mobius(1, [(u, -1.0)]), default_grid())
    assert not log_memo.logs


def _one_shot_verify(case_id: str) -> tuple[int, list, int]:
    """A fresh process's ``gftkit verify --case case_id``, in one thread: its
    exit code, the size of each log the core took, and the number of logs
    its log memo still holds at the end."""
    import ast
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import contextlib, io, sys\n"
        "from types import SimpleNamespace\n"
        "import numpy as np\n"
        "from gftkit import cli, core\n"
        "logs = []\n"
        "def log(w, *args, **kwargs):\n"
        "    logs.append(int(np.size(w)))\n"
        "    return np.log(w, *args, **kwargs)\n"
        "core.np = SimpleNamespace(**{**vars(np), 'log': log})\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '--case', sys.argv[1]])\n"
        "print(repr((code, logs, len(core._log_memo.logs))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                                                    env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script, case_id], capture_output=True, text=True, env=env,
                         check=True)
    return ast.literal_eval(out.stdout)


def test_a_one_shot_c37i_verify_takes_five_logs():
    # C37's partner check asks for the factor logs of its two partners, one
    # each, and the scan then asks for each again and keeps it: a one-shot
    # verify computes those two twice and the third factor once
    code, logs, _ = _one_shot_verify("C37I")
    assert (code, logs) == (0, [23 * 720] * 5)


def test_a_one_shot_t41_verify_ends_holding_no_log():
    # the radius gate reads each member's z/f and factors on the grid once,
    # and the conclusion reads its quotients with no log: no log is asked twice
    code, logs, kept = _one_shot_verify("T41")
    assert code == 0 and logs and kept == 0


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
# what the radius search's zero counts read from the function itself


def test_origin_orders_of_f_and_f_prime():
    """The order of the zero of f (0) or f' (1) at the origin, the value
    there of z f'/f or z f''/f', which a zero count subtracts; leading
    coefficients within the tags' slack of 0 are part of the zero."""
    cases = [
        (AnalyticFunction.taylor([0, 1, -1], ATag(1)), 1, 0),
        (AnalyticFunction.taylor([0, 0, 1, 1], ATag(2)), 2, 1),
        (AnalyticFunction.taylor([0.25, 1], HTag(0.25)), 0, 0),
        (AnalyticFunction.taylor([1, 0, 0, 2], HTag(1, 3)), 0, 2),
        (AnalyticFunction.taylor([1e-13, 1e-13, 1], HTag(0)), 2, 1),
        (AnalyticFunction.taylor([3], HTag(3)), 0, 0),  # f' = 0: no coefficient counts
        (AnalyticFunction.mobius(1, [(0.5, -2.0)]), 1, 0),
        (AnalyticFunction.mobius(2, [(0.5, -2.0)]), 2, 1),
        (AnalyticFunction.mobius(-1, [(0.5, 1.0)]), -1, -2),
        (AnalyticFunction.mobius(0, [(0.5, 1.0)]), 0, 0),
        # s = sum e u/(1 + u z) = 0.5/(1 + 0.5 z) - 0.5/(1 - 0.5 z) = -0.5 z + ...
        (AnalyticFunction.mobius(0, [(0.5, 1.0), (-0.5, 1.0)]), 0, 1),
        (AnalyticFunction.mobius(0, []), 0, 0),
    ]
    for f, f_order, f1_order in cases:
        assert (f._origin_order(0), f._origin_order(1)) == (f_order, f1_order), f
    # the orders are those of the quotients at points near the origin
    z = np.array([1e-7, 1e-7j])
    for f, f_order, f1_order in cases[:4] + cases[6:11]:
        f0, f1, f2 = f.jet(z, 2)
        assert np.allclose(z * f1 / f0, f_order, atol=1e-5)
        if f1_order or f.variant.value == "mobius":
            assert np.allclose(z * f2 / f1, f1_order, atol=1e-5)


@pytest.mark.parametrize("order", [0, 1])
def test_pole_aliasing_is_the_ring_mean_of_the_factor_poles(order):
    """The ring's mean of a product's pole terms c u z/(1 + u z), and of z
    times them, in closed form: against the sum over the ring's points,
    also for a factor whose pole lies 1e-4 outside the ring."""
    from gftkit.membership import ring_points

    f = AnalyticFunction.mobius(1, [(-1.0, -2.0), (0.6j, 1.5), (0.3 - 0.2j, -1.0)])
    for r, angles in ((0.5, 90), (0.9, 720), (1 - 1e-4, 720), (1 - 1e-4, 46080)):
        z = ring_points(np.array([r]), slice(None), angles)
        terms = sum((e if order == 0 else e - 1) * u * z / (1 + u * z) for u, e in f.terms)
        want, want_moment = terms.mean(), (z * terms).mean()
        scale = np.abs(terms).max()
        assert abs(f._pole_aliasing(order, r, angles) - want) <= 1e-12 * scale
        assert abs(f._pole_aliasing(order, r, angles, moment=True) - want_moment) <= 1e-12 * scale
    assert AnalyticFunction.taylor([0, 1, 1], ATag(1))._pole_aliasing(order, 0.9, 720) == 0


def test_threads_search_radii_safely():
    """A radius search keeps nothing on the function or the module, so
    threads that search the same functions at once get the radii of a
    search alone."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from gftkit import ClassSpec, property_radius

    fns = [AnalyticFunction.taylor([0, 1, k / 97, -k / 211], ATag(1)) for k in range(48)]
    want = [property_radius(f, ClassSpec.convex()) for f in fns]

    def work(seed):
        picks = np.random.default_rng(seed).integers(len(fns), size=24)
        return all(property_radius(fns[j], ClassSpec.convex()) == want[j] for j in picks)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [fut.result(timeout=60) for fut in [pool.submit(work, s) for s in range(8)]]
    finally:
        sys.setswitchinterval(old)
    assert results == [True] * 8


# ---------------------------------------------------------------------------
# the shape quotients z f'/f and 1 + z f''/f', in closed form for a product


def _functional_quotients(f, z):
    from gftkit import FunctionalSpec, evaluate_functional

    return [np.asarray(evaluate_functional(spec, f, z)) for spec in (FunctionalSpec.starlike(), FunctionalSpec.convex())]


# q in {0, 1, 2}, 1-3 factors (1 + u z)^e with |u| <= 1, and a ring radius
MOBIUS_PRODUCTS = st.tuples(
    st.sampled_from([0, 1, 2]),
    st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi, exclude_max=True), st.floats(-2.0, 2.0)),
        min_size=1,
        max_size=3,
    ),
    st.floats(0.05, 0.95),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(MOBIUS_PRODUCTS)
def test_closed_form_quotients_match_the_functionals_on_drawn_products(drawn):
    """Within 1e-12 of max(1, |value|), fixed beforehand; points where
    |z f'/f| <= 1e-3, near a zero of f', are skipped for 1 + z f''/f'."""
    q, factors, r = drawn
    f = AnalyticFunction.mobius(q, [(m * cmath.exp(1j * t), e) for m, t, e in factors])
    z = r * np.exp(2j * math.pi * np.arange(32) / 32)
    try:
        want = _functional_quotients(f, z)
    except EvaluationError as exc:  # f' = 0 everywhere, as for f = 1
        with pytest.raises(type(exc)):
            f.shape_quotients(z, (0, 1))
        return
    got = f.shape_quotients(z, (0, 1))
    assert [f.shape_quotients(z, (k,))[0].tobytes() for k in (0, 1)] == [v.tobytes() for v in got]
    near_zero = np.abs(want[0]) <= 1e-3
    for k, (g, w) in enumerate(zip(got, want)):
        off = np.abs(g - w) > 1e-12 * np.maximum(1, np.abs(w))
        assert not np.any(off & ~near_zero if k else off), (k, z[off])


def test_closed_form_quotients_fill_no_memo_and_take_no_log(monkeypatch, log_memo):
    from gftkit import ClassSpec, core, property_radius
    from gftkit.membership import class_reader, unit_circle

    f = AnalyticFunction.mobius(2, [(-0.5, -1.0), (0.3j, 1.5)])
    z = 0.7 * np.exp(2j * math.pi * np.arange(16) / 16)
    unit_circle(720)  # the search's rings, built once per angle count
    before = list(core._jet_memo.entries)
    calls = []
    for name in ("log", "exp"):
        inner = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _inner=inner, _name=name, **k: calls.append(_name) or _inner(*a, **k))
    starlike, convex = f.shape_quotients(z, (0, 1))
    assert calls == [] and core._jet_memo.entries == before and not log_memo.logs
    assert starlike.shape == convex.shape == z.shape
    scalar = f.shape_quotients(complex(z[3]), (1, 0))
    assert scalar == [convex[3], starlike[3]] and all(type(v) is complex for v in scalar)

    # whole radius searches, of a Moebius and of a Taylor member, leave both
    # memos as they were: the same objects in the same order, the same counts
    taylor = AnalyticFunction.taylor([0, 1, 0.4, -0.3j], ATag(1))
    for member in (f, taylor):
        member.jet(z, 2)  # an entry each, which the searches must neither move nor drop
    calls.clear()

    def memos() -> list:
        held = [x for e in core._jet_memo.entries for x in (e.f, e.key, *e.values, e.power)]
        held += [x for item in log_memo.logs.items() for x in item]
        return held + [dict(log_memo.counts)]

    held = memos()
    for member in (f, taylor):
        for spec in (ClassSpec.convex(), ClassSpec.m_alpha(0.5), ClassSpec.strongly_starlike(0.5)):
            assert 0 < property_radius(member, spec) < 1
    now = memos()
    assert len(now) == len(held) and all(a is b for a, b in zip(now[:-1], held[:-1])) and now[-1] == held[-1]
    assert calls == []

    # a ring that overflows, or on which f' vanishes, reads as unreadable
    unreadable = [
        (AnalyticFunction.mobius(1, [(1.0, 1e308)]), 0.95),  # s = 1e308/(1 + z) overflows
        (AnalyticFunction.taylor([0, 1, 1e308], ATag(1)), 0.95),  # f' = 1 + 2e308 z overflows
        (AnalyticFunction.mobius(1, [(1, 1.0)]), 0.5),  # f = z (1 + z): f' = 0 at -1/2
        (AnalyticFunction.taylor([0, 1, 1], ATag(1)), 0.5),  # f = z + z^2: f' = 0 at -1/2
    ]
    for member, r in unreadable:
        assert class_reader(ClassSpec.convex(), member).ring(r, 720) == (r, -math.inf, None)


def test_closed_form_quotients_raise_the_jet_errors():
    cases = [
        # the factor 1 - z vanishes at 1
        (koebe_like(), np.array([0.5, 1.0]), SingularPoint, 1.0),
        # z^2 at 0
        (AnalyticFunction.mobius(2, [(0.5, 1.0)]), np.array([0.5j, 0.0]), SingularPoint, 0j),
        # f = z (1 + z): f' = 1 + 2z vanishes at -1/2
        (AnalyticFunction.mobius(1, [(1, 1.0)]), np.array([0.25, -0.5]), DivisionByZeroInFunctional, -0.5),
        # f = 1 - z^2/4, q = 0: f' = -z/2 vanishes at 0
        (AnalyticFunction.mobius(0, [(0.5, 1.0), (-0.5, 1.0)]), np.array([0.3, 0.0]), DivisionByZeroInFunctional, 0j),
    ]
    for f, z, error, witness in cases:
        for read in (lambda: _functional_quotients(f, z), lambda: f.shape_quotients(z, (0, 1))):
            with pytest.raises(error) as info:
                read()
            assert info.value.witness == witness
    # z f'/f alone divides by neither f' nor, in closed form, f
    f = AnalyticFunction.mobius(1, [(1, 1.0)])
    (starlike,) = f.shape_quotients(np.array([0.25, -0.5]), (0,))
    assert starlike[1] == 0 and starlike[0] == pytest.approx(1.5 / 1.25)  # (1 + 2z)/(1 + z)


def test_closed_form_overflow_is_an_evaluation_error_at_the_first_bad_point():
    f = AnalyticFunction.mobius(1, [(1.0, 1e308)])  # s = 1e308/(1 + z) overflows at z = -0.9
    with pytest.raises(NonFiniteValue) as info:  # no numpy warning escapes either
        f.shape_quotients(np.array([0.5, -0.9, -0.95]), (0, 1))
    assert info.value.witness == -0.9


def test_taylor_quotients_are_the_functionals_bits_and_orders_are_0_or_1():
    """A Taylor series' shape quotients are the jet's, bit for bit, as the
    functionals read them, and raise their errors: DivisionByZeroInFunctional
    where f (order 0) or f' (order 1) vanishes."""
    z = 0.7 * np.exp(2j * math.pi * np.arange(16) / 16)
    for f in (AnalyticFunction.taylor([0, 1, 0.5, -0.2j], ATag(1)),
              AnalyticFunction.taylor([1 + 1j, 0, 0.25, -0.3j], HTag(1 + 1j, 2))):
        got = f.shape_quotients(z, (0, 1))
        assert [v.tobytes() for v in got] == [v.tobytes() for v in _functional_quotients(f, z)]
        assert f.shape_quotients(complex(z[3]), (1,)) == [complex(got[1][3])]
    cases = [
        (AnalyticFunction.taylor([1, 2], HTag(1)), np.array([0.25, -0.5]), "f", (0,)),  # f = 1 + 2z
        (AnalyticFunction.taylor([0, 1, 1], ATag(1)), np.array([0.25, -0.5]), "f'", (0, 1)),  # f' = 1 + 2z
    ]
    for f, z, factor, orders in cases:
        for read in (lambda: _functional_quotients(f, z), lambda: f.shape_quotients(z, orders)):
            with pytest.raises(DivisionByZeroInFunctional, match=factor) as info:
                read()
            assert info.value.witness == -0.5
    with pytest.raises(OrderOutOfRange):
        koebe_like().shape_quotients(np.array([0.5]), (2,))
