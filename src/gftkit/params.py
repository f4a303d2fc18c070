"""Parameter domains, declared once per table entry.

The class, functional, family and case tables declare each parameter once
as a Param with its domain, and a domain that several of them share, such
as the tilt in [0, pi/2), is one Param in ``constants``, where the closed
forms check it too; the CLI grammar, its help text and the domain checks
of the specs and cases are all read from those declarations, and
add_constructors gives a spec dataclass one constructor per table
entry.  This module needs no numpy, so the CLI can check its own
options before any numerical module is loaded.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import ValidationError


def _as_integer(value, what: str, error: type = ValidationError) -> int:
    """An integer given as an int or an integral float; anything else is rejected."""
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real) and float(value).is_integer():
            return int(value)
    raise error(f"{what} must be an integer, got {value!r}")


def _finite_real(value) -> bool:
    """Whether value is a real number, not a bool, neither infinite nor NaN."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def parse_json(text: str, what: str):
    """text parsed as JSON; ValidationError, naming what, where it is not
    valid JSON or is nested too deeply to parse."""
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer of more than 4300 digits
        raise ValidationError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError(f"{what} is nested too deeply to parse") from None


def _bound(text: str) -> float:
    """An interval end: a number, inf, pi/k or 2**k, optionally negated."""
    num, _, k = text.replace("pi", repr(math.pi)).partition("/")
    base, _, power = num.partition("**")
    return float(base) ** float(power or 1) / float(k or 1)


@dataclass(frozen=True)
class Param:
    """One parameter of a table entry, with its domain.

    ``domain`` is an interval of finite reals such as ``(-1, 1]`` or
    ``[0, pi/2)``, ``a finite real``, ``an integer in`` an interval such as
    ``[1, 2**53]``, or a set of strings such as ``{A, H}``.  ``what`` opens
    the error message, with ``{name}`` filled in; ``optional`` marks a
    trailing parameter that the CLI grammar may leave out.
    """

    name: str
    domain: str = "a finite real"
    what: str = ""
    optional: bool = False

    def parse(self, text: str):
        """The value a CLI field spells; ValueError if it is no number."""
        if self.domain.startswith("{"):
            return text.strip()
        return int(text) if self.domain.startswith("an integer") else float(text)

    @functools.cached_property
    def _parsed(self) -> tuple:
        """The domain read once: (the members of a set or None, whether it is
        integral, the interval as (lo, hi, lo closed, hi closed) or None)."""
        d = self.domain
        if d.startswith("{"):
            return tuple(d[1:-1].split(", ")), False, None
        integral = d.startswith("an integer")
        d = d.removeprefix("an integer in ")
        if d[0] not in "([":
            return None, integral, None
        lo, hi = (_bound(t) for t in d[1:-1].split(", "))
        return None, integral, (lo, hi, d[0] == "[", d[-1] == "]")

    def check(self, value, error: type = ValidationError):
        """The value, an integer as int, if it lies in the domain; else raise error."""
        members, integral, interval = self._parsed
        if members is not None:
            if value not in members:
                raise self._error(value, error)
            return value
        checked = _as_integer(value, self.name, error) if integral else value
        if not (integral or _finite_real(value)):
            raise self._error(value, error)
        if interval is not None:
            lo, hi, lo_in, hi_in = interval
            if not (lo < checked < hi or (checked == lo and lo_in) or (checked == hi and hi_in)):
                raise self._error(value, error)
        return checked

    def _error(self, value, error: type) -> Exception:
        """The error for a value outside the domain, the value shown as given."""
        d = self.domain
        what = self.what or "{name} must " + ("lie in" if d[0] in "([{" else "be")
        shown = repr(value) if isinstance(value, str) else value
        return error(f"{what.format(name=self.name)} {d}, got {shown}")


def check_fields(spec, params: Sequence[Param], error: type) -> None:
    """Check each parameter field of a frozen spec in place, integers made int."""
    for p in params:
        object.__setattr__(spec, p.name, p.check(getattr(spec, p.name), error))


_POSITIONAL, _REQUIRED = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty


def add_constructors(spec_type: type, table: dict) -> None:
    """Give a spec dataclass one classmethod per kind in its table, named
    kind.name.lower() and taking the kind's parameters in table order; an
    optional parameter defaults to its field's default."""
    defaults = {f.name: f.default for f in dataclasses.fields(spec_type)}
    for kind, entry in table.items():
        sig = inspect.Signature([
            inspect.Parameter(p.name, _POSITIONAL, default=defaults[p.name] if p.optional else _REQUIRED)
            for p in entry.params
        ])
        setattr(spec_type, kind.name.lower(), classmethod(_constructor(kind, sig)))


def _constructor(kind: Enum, sig: inspect.Signature):
    def make(cls, *args, **kwargs):
        return cls(kind, **sig.bind(*args, **kwargs).arguments)

    make.__name__ = make.__qualname__ = kind.name.lower()
    cls_param = inspect.Parameter("cls", _POSITIONAL)
    make.__signature__ = sig.replace(parameters=[cls_param, *sig.parameters.values()])
    return make
