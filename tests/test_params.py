"""Param domain checks: the error class and text for every parameter of the tables."""

import math

import pytest

from gftkit import params
from gftkit.errors import BadFamilySpec, OutOfRange, ValidationError
from gftkit.params import Param


def _reachable() -> dict[tuple[str, str, str], Param]:
    """Every Param of CLASSES, FUNCTIONALS, FAMILIES, CASES and constants,
    and the search tolerance and angle count, by (name, domain, what)."""
    from gftkit import constants, functionals, membership, radii, theorems

    found = [p for table in (membership.CLASSES, functionals.FUNCTIONALS, theorems.FAMILIES)
             for entry in table.values() for p in entry.params]
    found += [p for case in theorems.CASES.values() for p in case.params]
    for value in vars(constants).values():
        group = value if isinstance(value, tuple) else (value,)
        found += [p for p in group if isinstance(p, Param)]
    found += [radii.TOLERANCE, membership.ANGLES]
    out: dict[tuple[str, str, str], Param] = {}
    for p in found:
        out.setdefault((p.name, p.domain, p.what), p)
    return out


# each parameter's values below, at an open end of, and above its domain,
# NaN, a bool and a value of the wrong kind (a string, or a non-integer for
# an integer domain), with the message each is rejected with, frozen as
# they read before the domains were parsed once per Param
REJECTED = {
    ("alpha", "(-1, 1)", "need {name} in"): [
        (-2.0, "need alpha in (-1, 1), got -2.0"),
        (-1.0, "need alpha in (-1, 1), got -1.0"),
        (2.0, "need alpha in (-1, 1), got 2.0"),
        (1.0, "need alpha in (-1, 1), got 1.0"),
        (math.nan, "need alpha in (-1, 1), got nan"),
        (True, "need alpha in (-1, 1), got True"),
        ('0.5', "need alpha in (-1, 1), got '0.5'"),
        (math.inf, "need alpha in (-1, 1), got inf"),
    ],
    ("alpha", "(-1, 1]", "sector order {name} must lie in"): [
        (-2.0, "sector order alpha must lie in (-1, 1], got -2.0"),
        (-1.0, "sector order alpha must lie in (-1, 1], got -1.0"),
        (2.0, "sector order alpha must lie in (-1, 1], got 2.0"),
        (math.nan, "sector order alpha must lie in (-1, 1], got nan"),
        (True, "sector order alpha must lie in (-1, 1], got True"),
        ('0.5', "sector order alpha must lie in (-1, 1], got '0.5'"),
        (math.inf, "sector order alpha must lie in (-1, 1], got inf"),
    ],
    ("alpha", "(0, 1)", "need alpha in"): [
        (-1.0, "need alpha in (0, 1), got -1.0"),
        (0.0, "need alpha in (0, 1), got 0.0"),
        (2.0, "need alpha in (0, 1), got 2.0"),
        (1.0, "need alpha in (0, 1), got 1.0"),
        (math.nan, "need alpha in (0, 1), got nan"),
        (True, "need alpha in (0, 1), got True"),
        ('0.5', "need alpha in (0, 1), got '0.5'"),
        (math.inf, "need alpha in (0, 1), got inf"),
    ],
    ("alpha", "(0, 1]", "need alpha in"): [
        (-1.0, "need alpha in (0, 1], got -1.0"),
        (0.0, "need alpha in (0, 1], got 0.0"),
        (2.0, "need alpha in (0, 1], got 2.0"),
        (math.nan, "need alpha in (0, 1], got nan"),
        (True, "need alpha in (0, 1], got True"),
        ('0.5', "need alpha in (0, 1], got '0.5'"),
        (math.inf, "need alpha in (0, 1], got inf"),
    ],
    ("alpha", "(0, 1]", "strong order must lie in"): [
        (-1.0, "strong order must lie in (0, 1], got -1.0"),
        (0.0, "strong order must lie in (0, 1], got 0.0"),
        (2.0, "strong order must lie in (0, 1], got 2.0"),
        (math.nan, "strong order must lie in (0, 1], got nan"),
        (True, "strong order must lie in (0, 1], got True"),
        ('0.5', "strong order must lie in (0, 1], got '0.5'"),
        (math.inf, "strong order must lie in (0, 1], got inf"),
    ],
    ("alpha", "[0, 1)", "order must lie in"): [
        (-1.0, "order must lie in [0, 1), got -1.0"),
        (2.0, "order must lie in [0, 1), got 2.0"),
        (1.0, "order must lie in [0, 1), got 1.0"),
        (math.nan, "order must lie in [0, 1), got nan"),
        (True, "order must lie in [0, 1), got True"),
        ('0.5', "order must lie in [0, 1), got '0.5'"),
        (math.inf, "order must lie in [0, 1), got inf"),
    ],
    ("alpha", "[0, 1]", ""): [
        (-1.0, "alpha must lie in [0, 1], got -1.0"),
        (2.0, "alpha must lie in [0, 1], got 2.0"),
        (math.nan, "alpha must lie in [0, 1], got nan"),
        (True, "alpha must lie in [0, 1], got True"),
        ('0.5', "alpha must lie in [0, 1], got '0.5'"),
        (math.inf, "alpha must lie in [0, 1], got inf"),
    ],
    ("alpha", "a finite real", ""): [
        (math.nan, "alpha must be a finite real, got nan"),
        (True, "alpha must be a finite real, got True"),
        ('0.5', "alpha must be a finite real, got '0.5'"),
        (math.inf, "alpha must be a finite real, got inf"),
    ],
    ("angles", "an integer in [8, 2**16]", "angles per ring must be"): [
        (7, "angles per ring must be an integer in [8, 2**16], got 7"),
        (65537, "angles per ring must be an integer in [8, 2**16], got 65537"),
        (math.nan, "angles must be an integer, got nan"),
        (True, "angles must be an integer, got True"),
        (2.5, "angles must be an integer, got 2.5"),
    ],
    ("beta", "(-1, 1)", "need {name} in"): [
        (-2.0, "need beta in (-1, 1), got -2.0"),
        (-1.0, "need beta in (-1, 1), got -1.0"),
        (2.0, "need beta in (-1, 1), got 2.0"),
        (1.0, "need beta in (-1, 1), got 1.0"),
        (math.nan, "need beta in (-1, 1), got nan"),
        (True, "need beta in (-1, 1), got True"),
        ('0.5', "need beta in (-1, 1), got '0.5'"),
        (math.inf, "need beta in (-1, 1), got inf"),
    ],
    ("beta", "(-1, 1]", "sector order {name} must lie in"): [
        (-2.0, "sector order beta must lie in (-1, 1], got -2.0"),
        (-1.0, "sector order beta must lie in (-1, 1], got -1.0"),
        (2.0, "sector order beta must lie in (-1, 1], got 2.0"),
        (math.nan, "sector order beta must lie in (-1, 1], got nan"),
        (True, "sector order beta must lie in (-1, 1], got True"),
        ('0.5', "sector order beta must lie in (-1, 1], got '0.5'"),
        (math.inf, "sector order beta must lie in (-1, 1], got inf"),
    ],
    ("count", "an integer in [1, 1024]", ""): [
        (0, "count must be an integer in [1, 1024], got 0"),
        (1025, "count must be an integer in [1, 1024], got 1025"),
        (math.nan, "count must be an integer, got nan"),
        (True, "count must be an integer, got True"),
        (2.5, "count must be an integer, got 2.5"),
    ],
    ("degree", "an integer in [2, 64]", ""): [
        (1, "degree must be an integer in [2, 64], got 1"),
        (65, "degree must be an integer in [2, 64], got 65"),
        (math.nan, "degree must be an integer, got nan"),
        (True, "degree must be an integer, got True"),
        (2.5, "degree must be an integer, got 2.5"),
    ],
    ("delta", "(0, inf)", ""): [
        (-1.0, "delta must lie in (0, inf), got -1.0"),
        (0.0, "delta must lie in (0, inf), got 0.0"),
        (math.nan, "delta must lie in (0, inf), got nan"),
        (True, "delta must lie in (0, inf), got True"),
        ('0.5', "delta must lie in (0, inf), got '0.5'"),
        (math.inf, "delta must lie in (0, inf), got inf"),
    ],
    ("gamma", "(0, 1]", "need gamma in"): [
        (-1.0, "need gamma in (0, 1], got -1.0"),
        (0.0, "need gamma in (0, 1], got 0.0"),
        (2.0, "need gamma in (0, 1], got 2.0"),
        (math.nan, "need gamma in (0, 1], got nan"),
        (True, "need gamma in (0, 1], got True"),
        ('0.5', "need gamma in (0, 1], got '0.5'"),
        (math.inf, "need gamma in (0, 1], got inf"),
    ],
    ("gamma", "(0, inf)", ""): [
        (-1.0, "gamma must lie in (0, inf), got -1.0"),
        (0.0, "gamma must lie in (0, inf), got 0.0"),
        (math.nan, "gamma must lie in (0, inf), got nan"),
        (True, "gamma must lie in (0, inf), got True"),
        ('0.5', "gamma must lie in (0, inf), got '0.5'"),
        (math.inf, "gamma must lie in (0, inf), got inf"),
    ],
    ("kind", "{half_plane, rectangle, disk, ellipse}", ""): [
        ('B', "kind must lie in {half_plane, rectangle, disk, ellipse}, got 'B'"),
        (1, "kind must lie in {half_plane, rectangle, disk, ellipse}, got 1"),
        (True, "kind must lie in {half_plane, rectangle, disk, ellipse}, got True"),
        (math.nan, "kind must lie in {half_plane, rectangle, disk, ellipse}, got nan"),
        (None, "kind must lie in {half_plane, rectangle, disk, ellipse}, got None"),
    ],
    ("lam", "(-pi/2, pi/2)", "tilt must lie in"): [
        (-2.5707963267948966, "tilt must lie in (-pi/2, pi/2), got -2.5707963267948966"),
        (-1.5707963267948966, "tilt must lie in (-pi/2, pi/2), got -1.5707963267948966"),
        (2.5707963267948966, "tilt must lie in (-pi/2, pi/2), got 2.5707963267948966"),
        (1.5707963267948966, "tilt must lie in (-pi/2, pi/2), got 1.5707963267948966"),
        (math.nan, "tilt must lie in (-pi/2, pi/2), got nan"),
        (True, "tilt must lie in (-pi/2, pi/2), got True"),
        ('0.5', "tilt must lie in (-pi/2, pi/2), got '0.5'"),
        (math.inf, "tilt must lie in (-pi/2, pi/2), got inf"),
    ],
    ("lam", "(0, 1]", "need lambda in"): [
        (-1.0, "need lambda in (0, 1], got -1.0"),
        (0.0, "need lambda in (0, 1], got 0.0"),
        (2.0, "need lambda in (0, 1], got 2.0"),
        (math.nan, "need lambda in (0, 1], got nan"),
        (True, "need lambda in (0, 1], got True"),
        ('0.5', "need lambda in (0, 1], got '0.5'"),
        (math.inf, "need lambda in (0, 1], got inf"),
    ],
    ("lam", "[0, 1)", "need lambda in"): [
        (-1.0, "need lambda in [0, 1), got -1.0"),
        (2.0, "need lambda in [0, 1), got 2.0"),
        (1.0, "need lambda in [0, 1), got 1.0"),
        (math.nan, "need lambda in [0, 1), got nan"),
        (True, "need lambda in [0, 1), got True"),
        ('0.5', "need lambda in [0, 1), got '0.5'"),
        (math.inf, "need lambda in [0, 1), got inf"),
    ],
    ("lam", "[0, pi/2)", "need lambda in"): [
        (-1.0, "need lambda in [0, pi/2), got -1.0"),
        (2.5707963267948966, "need lambda in [0, pi/2), got 2.5707963267948966"),
        (1.5707963267948966, "need lambda in [0, pi/2), got 1.5707963267948966"),
        (math.nan, "need lambda in [0, pi/2), got nan"),
        (True, "need lambda in [0, pi/2), got True"),
        ('0.5', "need lambda in [0, pi/2), got '0.5'"),
        (math.inf, "need lambda in [0, pi/2), got inf"),
    ],
    ("n", "an integer in [1, 2**53]", ""): [
        (0, "n must be an integer in [1, 2**53], got 0"),
        (9007199254740993, "n must be an integer in [1, 2**53], got 9007199254740993"),
        (math.nan, "n must be an integer, got nan"),
        (True, "n must be an integer, got True"),
        (2.5, "n must be an integer, got 2.5"),
    ],
    ("p", "an integer in [1, 2**53]", ""): [
        (0, "p must be an integer in [1, 2**53], got 0"),
        (9007199254740993, "p must be an integer in [1, 2**53], got 9007199254740993"),
        (math.nan, "p must be an integer, got nan"),
        (True, "p must be an integer, got True"),
        (2.5, "p must be an integer, got 2.5"),
    ],
    ("seed", "an integer in [0, inf)", ""): [
        (-1, "seed must be an integer in [0, inf), got -1"),
        (math.nan, "seed must be an integer, got nan"),
        (True, "seed must be an integer, got True"),
        (2.5, "seed must be an integer, got 2.5"),
    ],
    ("tag", "{A, H}", ""): [
        ('B', "tag must lie in {A, H}, got 'B'"),
        (1, "tag must lie in {A, H}, got 1"),
        (True, "tag must lie in {A, H}, got True"),
        (math.nan, "tag must lie in {A, H}, got nan"),
        (None, "tag must lie in {A, H}, got None"),
    ],
    ("tol", "[1e-12, 0.5)", "tolerance must lie in"): [
        (-0.999999999999, "tolerance must lie in [1e-12, 0.5), got -0.999999999999"),
        (0.0, "tolerance must lie in [1e-12, 0.5), got 0.0"),  # gftkit radius --tol 0
        (1.5, "tolerance must lie in [1e-12, 0.5), got 1.5"),
        (0.5, "tolerance must lie in [1e-12, 0.5), got 0.5"),
        (math.nan, "tolerance must lie in [1e-12, 0.5), got nan"),
        (True, "tolerance must lie in [1e-12, 0.5), got True"),
        ('0.5', "tolerance must lie in [1e-12, 0.5), got '0.5'"),
        (math.inf, "tolerance must lie in [1e-12, 0.5), got inf"),
    ],
}


def test_every_table_parameter_is_frozen_here():
    assert sorted(_reachable()) == sorted(REJECTED)


@pytest.mark.parametrize("key", sorted(REJECTED))
def test_rejected_values_raise_the_given_class_with_the_frozen_text(key):
    param = _reachable()[key]
    for error in (ValidationError, OutOfRange, BadFamilySpec):
        for value, message in REJECTED[key]:
            with pytest.raises(ValidationError) as info:
                param.check(value, error)
            assert type(info.value) is error and str(info.value) == message, value


def _check_all(value) -> None:
    for param in _reachable().values():
        try:
            param.check(value)
        except ValidationError:
            pass


def test_a_domain_is_parsed_once_per_param(monkeypatch):
    calls = []
    inner = params._bound
    monkeypatch.setattr(params, "_bound", lambda text: calls.append(text) or inner(text))
    fresh = Param("tol", "[1e-12, 0.5)", "tolerance must lie in")
    assert fresh.check(0.25) == 0.25 and calls == ["1e-12", "0.5"]
    assert fresh.check(1e-12) == 1e-12 and calls == ["1e-12", "0.5"]  # no _bound on a second check
    with pytest.raises(ValidationError):
        fresh.check(0.5)
    assert len(calls) == 2
    _check_all(0.5)
    before = len(calls)
    _check_all(0.5)
    assert len(calls) == before


def test_an_accepted_value_builds_no_error():
    built = []

    class Spy(OutOfRange):
        def __init__(self, message):
            built.append(message)
            super().__init__(message)

    angles = Param("angles", "an integer in [8, 2**16]", "angles per ring must be")
    assert angles.check(720.0, Spy) == 720 and type(angles.check(720.0, Spy)) is int
    assert Param("kind", "{A, H}").check("H", Spy) == "H"
    assert Param("alpha").check(-3.5, Spy) == -3.5
    assert built == []
    with pytest.raises(Spy):
        angles.check(7, Spy)
    assert built == ["angles per ring must be an integer in [8, 2**16], got 7"]

