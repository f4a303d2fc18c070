"""Each selectable expression is rebuilt here from raw derivatives and the
library value must match the independent assembly."""

import math

import numpy as np
import pytest

from gftkit import (
    ATag,
    AnalyticFunction,
    DegenerateSum,
    DivisionByZeroInFunctional,
    FunctionalKind,
    FunctionalSpec,
    HTag,
    MissingSecondFunction,
    NonFiniteValue,
    OutOfRange,
    default_grid,
    evaluate_functional,
    half_plane_map,
    koebe_like,
    power_target,
    principal_arg,
    principal_power,
    ratio_target,
    sample_grid,
)


def _starlike(f, z):
    return z * f.eval(z, 1) / f.eval(z)


def _convex(f, z):
    return 1 + z * f.eval(z, 2) / f.eval(z, 1)


def test_starlike_expression_of_half_plane_map():
    f = half_plane_map()
    # z f'/f = 1/(1-z)
    assert evaluate_functional(FunctionalSpec.starlike(), f, 0.5) == pytest.approx(2.0, abs=1e-14)
    z = 0.2 - 0.3j
    assert evaluate_functional(FunctionalSpec.starlike(), f, z) == pytest.approx(1 / (1 - z), abs=1e-14)


def test_convex_expression_of_half_plane_map():
    f = half_plane_map()
    z = 0.25 + 0.4j
    want = (1 + z) / (1 - z)
    assert evaluate_functional(FunctionalSpec.convex(), f, z) == pytest.approx(want, abs=1e-14)


def test_mixed_weight_zero_is_the_convex_expression():
    f = koebe_like()
    zs = 0.6 * np.exp(1j * np.linspace(0.1, 6.1, 25))
    mixed = evaluate_functional(FunctionalSpec.mixed(0.0), f, zs)
    conv = evaluate_functional(FunctionalSpec.convex(), f, zs)
    assert np.max(np.abs(mixed - conv)) < 1e-13


def test_mixed_weight_is_a_convex_combination():
    f = koebe_like()
    z = 0.33 - 0.21j
    lam = 0.3
    want = lam * _starlike(f, z) + (1 - lam) * _convex(f, z)
    got = evaluate_functional(FunctionalSpec.mixed(lam), f, z)
    assert got == pytest.approx(want, abs=1e-13)


def test_u_expression_of_half_plane_map_is_identically_one():
    # f'(z/f)^2 = (1-z)^2/(1-z)^2
    f = half_plane_map()
    zs = 0.9 * np.exp(1j * np.linspace(0, 2 * math.pi, 32, endpoint=False))
    vals = evaluate_functional(FunctionalSpec.u_func(1.0), f, zs)
    assert np.max(np.abs(vals - 1)) < 1e-12


def test_u_expression_half_exponent_of_koebe_like():
    # f'(z/f)^{3/2} collapses to 1+z
    f = koebe_like()
    z = 0.3 + 0.55j
    got = evaluate_functional(FunctionalSpec.u_func(0.5), f, z)
    assert got == pytest.approx(1 + z, abs=1e-13)


def test_slit_lhs_with_unit_exponent():
    h = AnalyticFunction.mobius(0, [(1, 1.0), (-1, -1.0)])  # (1+z)/(1-z)
    z = 0.37 - 0.18j
    want = h.eval(z) + z * h.eval(z, 1) / h.eval(z)
    got = evaluate_functional(FunctionalSpec.slit1_lhs(1.0, 1.0), h, z)
    assert got == pytest.approx(want, abs=1e-13)


def test_slit_lhs_fractional_exponent_uses_principal_branch():
    h = AnalyticFunction.mobius(0, [(1, 0.5), (-1, -0.5)])
    z = -0.2 + 0.4j
    hv = h.eval(z)
    want = principal_power(hv, 2 / (0.5 + 0.5)) + z * h.eval(z, 1) / hv
    got = evaluate_functional(FunctionalSpec.slit1_lhs(0.5, 0.5), h, z)
    assert got == pytest.approx(want, abs=1e-13)


def test_slit_lhs_of_the_constant_one_is_one():
    h = AnalyticFunction.taylor([1], HTag(1))
    got = evaluate_functional(FunctionalSpec.slit1_lhs(0.75, 0.5), h, 0.6j)
    assert got == pytest.approx(1.0, abs=1e-15)


def test_tilted_lhs_matches_manual_assembly():
    h = AnalyticFunction.mobius(0, [(1, 1.0), (-1, -1.0)])
    lam = math.pi / 4
    z = 0.41 + 0.12j
    want = np.exp(-1j * lam) * h.eval(z) + z * h.eval(z, 1) / h.eval(z)
    got = evaluate_functional(FunctionalSpec.tilted_lhs(lam), h, z)
    assert got == pytest.approx(want, abs=1e-13)


def test_weighted_sum_decomposes_into_simpler_expressions():
    """The three-parameter expression is gamma*U + delta*(convex - (a+1)*starlike + a)."""
    f = koebe_like()
    gamma, delta, alpha = 1.5, 0.5, 0.5
    spec = FunctionalSpec.thm3_lhs(gamma, delta, alpha)
    for z in (0.3, 0.2 + 0.5j, -0.6j, -0.45 + 0.1j):
        u = evaluate_functional(FunctionalSpec.u_func(alpha), f, z)
        want = gamma * u + delta * (_convex(f, z) - (alpha + 1) * _starlike(f, z) + alpha)
        got = evaluate_functional(spec, f, z)
        assert got == pytest.approx(want, abs=1e-12)


def test_two_function_ratio_matches_manual_assembly():
    f, g = koebe_like(), half_plane_map()
    gamma, delta = 1.25, 0.75
    z = 0.28 - 0.33j
    G = g.eval(z)
    want = gamma * z * f.eval(z, 1) / G + delta * (_convex(f, z) - z * g.eval(z, 1) / G)
    got = evaluate_functional(FunctionalSpec.two_fn_ratio(gamma, delta), f, z, g=g)
    assert got == pytest.approx(want, abs=1e-12)


def test_two_function_power_matches_manual_assembly():
    f, g = koebe_like(), half_plane_map()
    gamma, delta, alpha = 1.0, 2.0, 0.25
    z = 0.31 + 0.27j
    first = f.eval(z, 1) * principal_power(z / f.eval(z), 1 - alpha) * principal_power(z / g.eval(z), alpha)
    second = _convex(f, z) - (1 - alpha) * _starlike(f, z) - alpha * z * g.eval(z, 1) / g.eval(z)
    want = gamma * first + delta * second
    got = evaluate_functional(FunctionalSpec.two_fn_power(gamma, delta, alpha), f, z, g=g)
    assert got == pytest.approx(want, abs=1e-12)


def test_ratio_and_power_targets_match_evaluate_functional():
    f, g = koebe_like(), half_plane_map()
    z = 0.2 + 0.4j
    assert ratio_target(f, g, z) == pytest.approx(z * f.eval(z, 1) / g.eval(z), abs=1e-14)
    alpha = 0.5
    want = f.eval(z, 1) * principal_power(z / f.eval(z), 1 - alpha) * principal_power(z / g.eval(z), alpha)
    assert power_target(f, g, alpha, z) == pytest.approx(want, abs=1e-13)


def test_argument_sum_is_real_and_matches_manual_assembly():
    h = AnalyticFunction.mobius(0, [(1, 1.0), (-1, -1.0)])
    gamma = 0.75
    z = 0.3j
    hv = h.eval(z)
    want = principal_arg(hv) + gamma * principal_arg(1 + z * h.eval(z, 1) / hv**2)
    got = evaluate_functional(FunctionalSpec.arg_sum(gamma), h, z)
    assert got.imag == 0
    assert got.real == pytest.approx(want, abs=1e-13)


def test_argument_sum_of_positive_constant_is_zero():
    h = AnalyticFunction.taylor([2], HTag(2))
    got = evaluate_functional(FunctionalSpec.arg_sum(1.0), h, 0.5)
    assert got == 0


# ---------------------------------------------------------------------------
# error paths


def test_two_function_kinds_require_the_partner():
    f = koebe_like()
    with pytest.raises(MissingSecondFunction):
        evaluate_functional(FunctionalSpec.two_fn_ratio(1, 1), f, 0.3)
    with pytest.raises(MissingSecondFunction):
        evaluate_functional(FunctionalSpec.two_fn_power(1, 1, 0.5), f, 0.3)


def test_zero_of_f_inside_the_disk_is_reported_with_the_factor():
    f = AnalyticFunction.taylor([0, 1, -2], ATag(1))  # vanishes at z = 1/2
    with pytest.raises(DivisionByZeroInFunctional) as exc:
        evaluate_functional(FunctionalSpec.starlike(), f, 0.5)
    assert exc.value.factor == "f"
    assert exc.value.witness == pytest.approx(0.5)


def test_spec_validation_rejects_out_of_range_parameters():
    with pytest.raises(OutOfRange):
        FunctionalSpec.mixed(1.0)
    with pytest.raises(OutOfRange):
        FunctionalSpec.tilted_lhs(math.pi / 2)
    with pytest.raises(OutOfRange):
        FunctionalSpec.u_func(1.5)
    with pytest.raises(DegenerateSum):
        FunctionalSpec.slit1_lhs(0.3, -0.3)
    with pytest.raises(OutOfRange):
        FunctionalSpec.thm3_lhs(0.0, 1.0, 0.5)
    with pytest.raises(OutOfRange):
        FunctionalSpec.thm3_lhs(1.0, 1.0, 0.5, p=0)
    with pytest.raises(OutOfRange):
        FunctionalSpec.arg_sum(0.0)
    with pytest.raises(OutOfRange):
        FunctionalSpec.arg_sum(1.5)


@pytest.mark.parametrize(
    "make",
    [
        lambda: FunctionalSpec.thm3_lhs(math.nan, 1.0, 0.5),
        lambda: FunctionalSpec.two_fn_ratio(1.0, math.inf),
        lambda: FunctionalSpec.two_fn_power(math.nan, 1.0, 0.5),
        lambda: FunctionalSpec.thm3_lhs(1.0, 1.0, 0.5, p=1.9),
        lambda: FunctionalSpec.slit1_lhs(1.5, 0.5),
        lambda: FunctionalSpec.mixed(math.nan),
    ],
)
def test_spec_validation_rejects_non_finite_and_non_integral_parameters(make):
    # NaN weights used to pass the gamma <= 0 test
    with pytest.raises(OutOfRange):
        make()


def test_constructors_take_the_table_parameters_in_order():
    import inspect

    assert str(inspect.signature(FunctionalSpec.thm3_lhs)) == "(gamma, delta, alpha, p=1)"
    spec = FunctionalSpec.thm3_lhs(1.0, 2.0, 0.5, p=2.0)
    assert (spec.gamma, spec.delta, spec.alpha, spec.p) == (1.0, 2.0, 0.5, 2)
    assert type(spec.p) is int
    assert FunctionalSpec.convex() == FunctionalSpec(FunctionalKind.CONVEX)
    with pytest.raises(TypeError):
        FunctionalSpec.mixed(0.5, 0.5)


def test_an_overflowing_value_raises_non_finite_value_with_a_witness():
    zs = np.array([0.1, 0.9])
    with pytest.raises(NonFiniteValue) as exc:
        evaluate_functional(FunctionalSpec.thm3_lhs(1e308, 1e308, 0.5), koebe_like(), zs)
    assert exc.value.witness == 0.9


def test_power_target_checks_alpha_and_raises_on_overflow():
    """No numpy warning escapes (pytest turns RuntimeWarning into an error)."""
    f, g = AnalyticFunction.mobius(1, []), AnalyticFunction.mobius(1, [(0.5, 1.0)])
    for alpha in (3000.0, math.nan, -0.1):
        with pytest.raises(OutOfRange, match=r"alpha must lie in \[0, 1\]"):
            power_target(f, g, alpha, [0.5, -0.9])
    # f' reaches 1.8e300 and z/G 2e10 at 0.9, so the product overflows there
    big = AnalyticFunction.taylor([0, 1, 1e300], ATag(1))
    with pytest.raises(NonFiniteValue) as exc:
        power_target(big, AnalyticFunction.mobius(1, [(0.9, -40.0)]), 1.0, np.array([0.1, 0.9]))
    assert exc.value.witness == 0.9


def test_ratio_target_raises_on_overflow_without_a_warning():
    """z f'/G overflows at 0.995, where f' = (1+z)^999 (1 + 1001 z) and G = z(1-z)^5;
    no numpy warning escapes (pytest turns RuntimeWarning into an error)."""
    f, g = AnalyticFunction.mobius(1, [(1.0, 1000.0)]), AnalyticFunction.mobius(1, [(-1.0, 5.0)])
    with pytest.raises(NonFiniteValue, match="ratio_target is not finite") as exc:
        ratio_target(f, g, np.array([0.995, 0.5]))
    assert exc.value.witness == 0.995


def test_vectorized_evaluation_matches_pointwise():
    f = koebe_like()
    spec = FunctionalSpec.mixed(0.4)
    zs = 0.7 * np.exp(1j * np.linspace(0, 2 * math.pi, 19, endpoint=False))
    batch = evaluate_functional(spec, f, zs)
    single = np.array([evaluate_functional(spec, f, z) for z in zs])
    assert np.allclose(batch, single, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# the powers (z/f)^c come from the jet memo, bit for bit as the inline
# expressions gave them


def _parent_values(f, g, z, alpha):
    """U, THM3, TWO_FN_POWER and power_target as written before the powers were kept."""
    z = np.asarray(z, dtype=complex)
    f0, f1, f2 = (np.asarray(v, dtype=complex) for v in f.jet(z, 2))
    g0, g1 = (np.asarray(v, dtype=complex) for v in g.jet(z, 1))
    gamma, delta, a = 1.25, 0.75, alpha
    u = f1 * principal_power(z / f0, alpha + 1)
    convex = 1 + z * f2 / f1
    thm3 = gamma * (f1 * principal_power(z / f0, alpha + 1)) + delta * (convex - (alpha + 1) * z * f1 / f0 + alpha)
    w = f1 * principal_power(z / f0, 1 - a) * principal_power(z / g0, a)
    power2 = gamma * w + delta * (convex - (1 - a) * z * f1 / f0 - a * z * g1 / g0)
    target = f1 * principal_power(z / f0, 1 - alpha) * principal_power(z / g0, alpha)
    return u, thm3, power2, target


def _library_values(f, g, z, alpha):
    return (
        evaluate_functional(FunctionalSpec.u_func(alpha), f, z),
        evaluate_functional(FunctionalSpec.thm3_lhs(1.25, 0.75, alpha), f, z),
        evaluate_functional(FunctionalSpec.two_fn_power(1.25, 0.75, alpha), f, z, g=g),
        power_target(f, g, alpha, z),
    )


def _value_bits(v):
    return np.array(v, dtype=complex).reshape(-1).view(np.int64).tolist()


# 23 x 720 points (265 KB, where numpy reuses a temporary operand) and 1800
POWER_GRIDS = (
    np.asarray(default_grid().points),
    np.asarray(sample_grid([k / 10 for k in range(1, 10)] + [0.95], 180).points),
    np.array([0.3 - 0.2j, 0.7j, -0.55 + 0.1j]),
    0.41 + 0.23j,
)


@pytest.mark.parametrize("make_f", [
    lambda: AnalyticFunction.mobius(1, [(-0.5 + 0.2j, -1.3), (0.3 + 0.1j, 0.7)]),
    koebe_like,
    lambda: AnalyticFunction.taylor([0, 1, 0.2 - 0.1j, -0.05j, 0.01], ATag(1)),
])
def test_kept_powers_give_the_inline_values_bit_for_bit(make_f):
    f, g = make_f(), AnalyticFunction.mobius(1, [(-0.4, -1.0)])
    for z in POWER_GRIDS:
        for alpha in (0.4, 1.0):
            parent = _parent_values(f, g, z, alpha)
            for _ in range(2):  # computed, then read back from the memo
                got = _library_values(f, g, z, alpha)
                assert [_value_bits(v) for v in got] == [_value_bits(v) for v in parent]
            if np.ndim(z) == 0:
                assert [type(v) for v in got] == [complex] * 4
