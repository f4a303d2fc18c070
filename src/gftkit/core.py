"""Analytic test functions on the unit disk with exact derivatives.

Two representations are supported, each a private frozen dataclass under
AnalyticFunction that holds its two fields and is the only code reading
them; ``f.variant`` names it, and no other module branches on it.

Truncated Taylor series (coeffs, tag)
    f(z) = sum c_k z^k with an explicit normalization tag.  Tag A_p pins
    c_0 = ... = c_{p-1} = 0 and c_p = 1 (f(z) = z^p + ...); tag H[a, n]
    pins c_0 = a and, for n > 1, c_1 = ... = c_{n-1} = 0.

Mobius power products (q, terms)
    f(z) = z^q * prod (1 + u_i z)^{e_i} with |u_i| <= 1 and real e_i.
    Each power is the continuous branch equal to 1 at z = 0; since
    1 + u z lies in the disk B(1, 1), which avoids the closed negative
    real axis, that branch coincides with the principal one and

        f'/f = q/z + sum e_i u_i / (1 + u_i z)

    gives closed-form first and second derivatives with no truncation
    error.  The product form is used for theorem scans (derivatives are
    exact); the Taylor form accepts arbitrary user series.

Evaluation is vectorized: ``z`` may be a complex scalar or a numpy
array, and the result has the same shape.  ``jet(z, order)`` returns
(f, f', ..., f^(order)) from one pass: for a product, one logarithm
per factor (or one kept from an earlier call, see below) and one
exponential serve every order.  ``eval(z, order)`` is the last element of
that jet.  ``shape_quotients(z, orders)`` gives z f'/f and 1 + z f''/f'
with no memo entry: a product's in closed form from the factors' log
derivative, with no logarithm or exponential, and a series' with the
jet's bits.  The radius search reads them through their unchecked core,
``_shape_quotients(z, orders, reach)``, inside the one ``np.errstate`` of
each read of its reader (membership.class_reader), with ``reach`` the
largest radius the read asks for, which bounds a product's factors in
place of a pass over |z|.  The search counts the zeros of f or f' inside
a ring from the mean of those quotients over it (argument principle),
less their value at the origin (``_origin_order``) and a product's
factor-pole share (``_pole_aliasing``): no polynomial roots are taken.

Each thread keeps the jets of its two most recently used (function,
point set) pairs, so a theorem scan that reads z f'/f in the hypothesis
and 1 + z f''/f' in the conclusion evaluates f once, and C37's
alternation between f and its partner G stays cached.  A hit needs the
same function object and a point array with the shape and bits of a
private copy taken at the first call (on the default grid, the log
memo's copy of it, see below), so changing the caller's array in place is
never served a stale jet; the cached arrays are read-only.  An entry also
keeps the last principal power (z/f)^c read through ``quotient_power``,
when every value of it is finite, so U, THM3 and the two-function power
forms raise z/f to an exponent once per point set (a scan reads one
exponent per function and point set); a new exponent replaces it.  An
entry holds the copy, f, f' and f'' (a product also its factor product
and log derivative until f'' is reached) and the power, each of the
point set's size, about 1.3 MB on the default grid, and keeps its point
set's copy and its function alive until it is dropped.  A kept power
enters a product as a fresh copy on the right, ``f1 * P``: numpy then
multiplies into it from 256 KiB up (P * f1), as it did into the
temporary of the inline ``f1 * principal_power(z / f, c)``, and computes
f1 * P below that; with FMA the two orders differ in low bits, so the
copy keeps every value bit for bit.

Each thread also keeps complex logarithms on the default grid by value, in
a log memo of its own, since a log outlives the two jets kept: cases
rebuild their families from the same factors and functions, so a log is
asked for again long after the jet that first took it was dropped.  It
keeps log(1 + uz) of each Mobius factor, keyed by the bits of u, and the
principal log of z/f that ``quotient_power`` raises, keyed by the bits
of the function's coefficients or prefactor and terms rather than by the
object.  membership.default_grid hands the memo one read-only private
copy of the grid's points (_keep_logs_on), which jet entries on the grid
take as their key; a log is served or kept only on that copy or on points
with its bits, and on any other point set it is computed each time.  A
warm default scan round takes 63 logarithms on the grid where each case
alone, from an empty memo, took 148; the radius cases read their
conclusions' quotients in closed form and ask for no log off the grid.
A log is kept from its second ask on, so one asked for once takes no
slot: a one-shot ``gftkit verify --case T41`` ends holding no log.  The
memo keeps sixteen logs, 4.2 MB per thread, the knee of the measured log
traffic (see _LOG_SLOTS), by use count and then recency (see _LogMemo); a
hit costs about 5 us, 20 us when it compares the bits of another array,
against about 2 ms for the log.
A factor's log enters e * log(1 + uz) and a power is exp(c * log(z/f)),
the operations that computed them before, so every value stays the same
bit for bit.  A jet that overflows or turns NaN raises NonFiniteValue at
its first non-finite point instead of printing numpy warnings; underflow
to 0 stays legal.  Non-finite coefficients and exponents are rejected
when a function is built.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import numbers
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DivisionByZeroInFunctional,
    NonFiniteValue,
    OrderOutOfRange,
    SingularPoint,
    ValidationError,
    ZeroBase,
)
from .params import _as_integer, _finite_real

ComplexLike = Union[complex, np.ndarray]

_COEFF_TOL = 1e-12  # slack when validating tag-pinned coefficients
_ZERO_TOL = 1e-14  # a denominator or a Mobius factor this small is treated as vanished


def principal_power(w: ComplexLike, c: float) -> ComplexLike:
    """w**c via the principal logarithm, Arg w in (-pi, pi].

    numpy places negative reals with a -0.0 imaginary part on the lower
    edge of the cut (Arg = -pi); those are folded back to +0.0 so the
    half-open convention holds for every input.
    """
    out = np.exp(c * _principal_log(w))
    if out.ndim == 0:
        return complex(out)
    return out


def _principal_log(w: ComplexLike) -> ComplexLike:
    """log w with Arg w in (-pi, pi], as principal_power takes it; ZeroBase at 0."""
    w = np.asarray(w, dtype=complex)
    if np.any(w == 0):
        raise ZeroBase("principal power of 0 is undefined", witness=0j)
    return np.log(_fold_signed_zero(w))


def _fold_signed_zero(w: np.ndarray) -> np.ndarray:
    """The complex array w with -0.0 turned to +0.0 in the imaginary part of
    negative reals, so they lie on the upper edge of the cut (Arg = pi);
    elsewhere the sign of a zero imaginary part cannot change the argument."""
    re, im = np.real(w), np.imag(w)
    return re + 1j * np.where((im == 0.0) & (re < 0.0), 0.0, im)


def principal_arg(w: ComplexLike) -> Union[float, np.ndarray]:
    """Argument in (-pi, pi], with the negative real axis mapped to +pi.

    Same signed-zero fold as :func:`principal_power`; np.angle alone
    would report -pi for negative reals carrying a -0.0 imaginary part.
    """
    out = np.angle(_fold_signed_zero(np.asarray(w, dtype=complex)))
    if out.ndim == 0:
        return float(out)
    return out


def _guard(den: np.ndarray, factor: str, z: np.ndarray) -> None:
    """DivisionByZeroInFunctional, witnessed by the smallest denominator, where
    the factor that den holds vanishes."""
    mag = np.abs(den)
    if (mag < _ZERO_TOL).any():
        flat = np.asarray(z, dtype=complex).ravel()
        idx = int(np.argmin(np.asarray(mag).ravel()))
        witness = complex(flat[idx]) if flat.size > 1 else complex(flat[0])
        raise DivisionByZeroInFunctional(factor, witness=witness)


def _finite(what: str, z: np.ndarray, compute):
    """compute() with numpy's float errors raised: a value that overflows or
    turns NaN raises NonFiniteValue at its first non-finite point instead of
    printing numpy warnings.  compute() gives one value per point of z, or a
    sequence of such values.  Finding that point computes the values again."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return compute()
    except FloatingPointError:
        with np.errstate(all="ignore"):
            finite = np.isfinite(np.asarray(compute())).reshape(-1, z.size).all(axis=0)
        bad = np.flatnonzero(~finite)
        witness = complex(z.ravel()[bad[0]]) if bad.size else None
        raise NonFiniteValue(f"{what} is not finite", witness=witness) from None


class Variant(Enum):
    TAYLOR = "taylor"
    MOBIUS_POWER_PRODUCT = "mobius"


@dataclass(frozen=True)
class ATag:
    """Normalization f(z) = z^p + c_{p+1} z^{p+1} + ..., p >= 1."""

    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", _as_integer(self.p, "tag p"))
        if self.p < 1:
            raise ValidationError(f"tag A_p needs integer p >= 1, got {self.p!r}")


@dataclass(frozen=True)
class HTag:
    """Normalization f(0) = a with c_1 = ... = c_{n-1} = 0 when n > 1."""

    a: complex
    n: int = 1

    def __post_init__(self):
        a = self.a
        if not (isinstance(a, numbers.Complex) and _finite_real(a.real) and _finite_real(a.imag)):
            raise ValidationError(f"tag H[a,n] needs a finite complex a, got {a!r}")
        object.__setattr__(self, "a", complex(a))
        object.__setattr__(self, "n", _as_integer(self.n, "tag n"))
        if self.n < 1:
            raise ValidationError(f"tag H[a,n] needs integer n >= 1, got {self.n!r}")


Tag = Union[ATag, HTag]


# ----------------------------------------------------------------------
# jet memo: each thread's two most recently used (function, point set) jets


class _Jet:
    """Derivatives of one function on one point set, keyed by a private copy.

    ``values`` holds f, f', ... up to the highest order computed so far;
    ``g`` and ``s`` carry a Mobius product's factor product and log
    derivative until f'' is reached; ``power`` holds the last finite
    principal power (z/f)^c read, as (the hex digits of c, the array).
    """

    __slots__ = ("f", "key", "values", "g", "s", "power")

    def __init__(self, f: "AnalyticFunction", z: np.ndarray):
        self.f = f
        self.key = _log_points if _on_log_points(z) else z.copy()
        self.values: list[np.ndarray] = []
        self.g = self.s = None
        self.power: Optional[tuple[str, np.ndarray]] = None

    def push(self, value: np.ndarray) -> None:
        value = np.asarray(value)  # 0-d arithmetic yields numpy scalars
        value.flags.writeable = False
        self.values.append(value)

    def holds(self, f: "AnalyticFunction", z: np.ndarray) -> bool:
        return self.f is f and _same_points(self.key, z)


def _bits(z: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(z).reshape(-1).view(np.int64)


def _same_points(key: np.ndarray, z: np.ndarray) -> bool:
    """Whether z has the shape and the bits of the point set key; bitwise,
    so signed zeros and NaN payloads never share a jet or a log."""
    return key is z or (key.shape == z.shape and np.array_equal(_bits(key), _bits(z)))


class _JetMemo(threading.local):
    """One thread's two most recently used jets, the most recent last."""

    def __init__(self):
        self.entries: list[_Jet] = []

    def entry(self, f: "AnalyticFunction", z: np.ndarray) -> _Jet:
        """The jet of f on z, new and empty unless it is still kept."""
        for entry in self.entries:
            if entry.holds(f, z):
                self.entries.remove(entry)
                break
        else:
            entry = _Jet(f, z)
            del self.entries[:-1]  # a new entry drops the older one
        self.entries.append(entry)
        return entry


_jet_memo = _JetMemo()


# ----------------------------------------------------------------------
# log memo: each thread's complex logarithms of Mobius factors and of z/f on
# the default grid, keyed by value, kept by use count in sixteen slots

# a scan round asks for 151 factor and z/f logs on the default grid, 46 of
# them distinct, since the cases build their families from shared factors
# and functions (C42/C44/T41/T43 from one family).  Grid logs computed in a
# warm round of all 16 cases, by logs kept: 8: 96, 12: 83, 14: 75,
# 15: 71, 16: 63, 17: 62, 18: 57, 20: 55, 24: 47.  Up to sixteen, each
# 265 KB slot saves about four logs of 2 ms; past it, about two
_LOG_SLOTS = 16
# the most use counts remembered, of logs kept or not
_LOG_COUNTS = 1024

# a read-only private copy of the default grid's points: the one point set
# logs are kept on, set by membership.default_grid
_log_points: Optional[np.ndarray] = None


def _keep_logs_on(points: np.ndarray) -> None:
    """Keep logs on a read-only private copy of points from now on."""
    global _log_points
    copy = points.copy()
    copy.flags.writeable = False
    _log_points = copy


def _on_log_points(z: np.ndarray) -> bool:
    """Whether z has the shape and the bits of the points logs are kept on."""
    return _log_points is not None and _same_points(_log_points, z)


class _LogMemo(threading.local):
    """One thread's logarithms on the default grid, by use count then recency,
    in _LOG_SLOTS slots.

    ``logs`` and ``counts`` are keyed by what a log is the log of (the
    bits of a factor's u, or z/f with the bits of a function's value).  A
    log is served or kept only when the asked points are _log_points or
    have its bits; on any other point set it is computed each time and
    neither served nor counted.  ``counts`` holds how often each key was
    asked for, the most recently asked last, whether its log is kept or
    not, so a log that leaves and comes back keeps its count; a kept log's
    count is never dropped.  A log is kept from its second ask on, and by
    no other rule, so a log that is asked for once takes no slot and evicts
    no kept log.  A new log evicts the log asked for least often when every
    slot is taken, unless that log was asked for more often than it: then
    it is not kept.  Among logs asked for equally often the most recently
    used goes first, because a scan reads its members in the same order in
    every case, so the logs kept earliest are asked for again first.  Only
    logs finite at every point are kept, so a kept log never skips a
    floating-point error its computation raised.
    """

    def __init__(self):
        self.logs: dict[tuple, np.ndarray] = {}  # what -> log, least recently used first
        self.counts: dict[tuple, int] = {}  # what -> uses, least recently asked first

    def log(self, z: np.ndarray, what: tuple, compute) -> ComplexLike:
        """The kept log of what on z, a point set no caller writes to, else compute()."""
        if not _on_log_points(z):
            return compute()
        count = self.counts.pop(what, 0) + 1
        self.counts[what] = count
        if len(self.counts) > _LOG_COUNTS:
            del self.counts[next(k for k in self.counts if k not in self.logs)]
        value = self.logs.pop(what, None)
        if value is not None:
            self.logs[what] = value  # most recently used last
            return value
        value = compute()
        if count > 1 and np.all(np.isfinite(value)):
            value.flags.writeable = False
            while len(self.logs) >= _LOG_SLOTS:
                victim = min(reversed(self.logs), key=self.counts.__getitem__)  # the most recent of the least used
                if self.counts[victim] > count:
                    return value
                del self.logs[victim]
            self.logs[what] = value
        return value


_log_memo = _LogMemo()


def _non_finite(f: "AnalyticFunction", z: np.ndarray, order: int) -> NonFiniteValue:
    """The error for a jet that overflowed, witnessed by its first non-finite point."""
    scratch = _Jet(f, z)
    with np.errstate(all="ignore"):
        f._grow(scratch, z, order)
    bad = np.flatnonzero(~np.all([np.isfinite(v) for v in scratch.values], axis=0))
    witness = complex(z.ravel()[bad[0]]) if bad.size else None
    return NonFiniteValue(f"f or a derivative up to order {order} is not finite", witness=witness)


def _z_power(z: np.ndarray, n: int) -> ComplexLike:
    """z**n with the bits numpy gives it, for z with no zero point (a product
    with q != 0 raises SingularPoint at 0 first): an array z itself for
    n = 1 and exact ones for n = 0, where numpy's generic complex power loop
    costs about ten times z**2.  z**-1 is not bitwise 1/z, so other n keep
    z**n, and so does a 0-d z: z**n is then a numpy scalar, whose products
    round apart from an array's in the last bit."""
    if z.ndim and n in (0, 1):
        return z if n else np.ones_like(z)
    return z**n


def _pair(value, what: str) -> list:
    """A JSON [x, y] pair, such as a complex number [re, im]; else ValidationError."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ValidationError(f"{what} must be a pair [x, y], got {value!r}")
    return value


class AnalyticFunction:
    """Immutable test function; build via :meth:`taylor` or :meth:`mobius`.

    Each representation (_TaylorSeries, _MobiusProduct) owns its jet
    growth, shape quotients, zero-count facts, log-memo key, series and JSON.
    """

    variant: Variant

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def taylor(coeffs: Sequence[complex], tag: Tag) -> "AnalyticFunction":
        return _TaylorSeries(coeffs, tag)

    @staticmethod
    def mobius(q: int, terms: Sequence[tuple[complex, float]]) -> "AnalyticFunction":
        return _MobiusProduct(q, terms)

    # ------------------------------------------------------------------
    # evaluation

    def eval(self, z: ComplexLike, order: int = 0) -> ComplexLike:
        """Value (order 0) or exact derivative (order 1, 2) at z."""
        return self.jet(z, order)[-1]  # jet checks the order

    def jet(self, z: ComplexLike, order: int = 2) -> tuple[ComplexLike, ...]:
        """(f, f', ..., f^(order)) at z, exact, for order 0, 1 or 2.

        Arrays come back read-only and may be shared with later calls:
        each thread keeps the jets of its two most recently used
        (function, point set) pairs (see the module docstring), so a
        functional that reads f, f' and f'' on the grid, and a second
        functional of the same f on the same grid, evaluate the Mobius
        logarithms and exponential once.
        """
        # an integral float counts; a bool, a fraction or a string does not
        order = _as_integer(order, "derivative order", OrderOutOfRange)
        if order not in (0, 1, 2):
            raise OrderOutOfRange(f"derivative order must be 0, 1 or 2, got {order}")
        z = np.asarray(z, dtype=complex)
        out = self._entry(z, order).values[: order + 1]
        if z.ndim == 0:
            return tuple(complex(v) for v in out)
        return tuple(out)

    def quotient_power(self, z: ComplexLike, c: float) -> ComplexLike:
        """The principal (z/f)^c at z, as principal_power(z / f, c) gives it.

        The last power read is kept with this thread's jet of f on z, when
        every value in it is finite, so the hypothesis and the conclusion
        of a scan raise z/f to the same exponent once; another exponent
        replaces it.  A kept array comes back read-only and shared with
        later calls.
        """
        z = np.asarray(z, dtype=complex)
        entry = self._entry(z, 0)
        key = float(c).hex()  # bitwise, so -0.0 and 0.0 never share a power
        if entry.power is not None and entry.power[0] == key:
            power = entry.power[1]
        else:
            quotient = ("z/f",) + self._value_bits
            log = _log_memo.log(entry.key, quotient, lambda: _principal_log(z / entry.values[0]))
            power = np.asarray(np.exp(c * log))
            if np.all(np.isfinite(power)):
                power.flags.writeable = False
                entry.power = (key, power)
        return complex(power) if z.ndim == 0 else power

    def shape_quotients(self, z: ComplexLike, orders: Sequence[int]) -> list[ComplexLike]:
        """z f'/f (order 0) and 1 + z f''/f' (order 1) at z, for each order
        given, with no jet-memo entry: a Taylor series' are its jet's, bit
        for bit, and a Mobius product's agree with its jet's to rounding.

        A product's are rational in z: with s = f'/f - q/z = sum e u/(1 + u
        z) and s' = -sum e u^2/(1 + u z)^2, z f'/f is p = q + z s and 1 + z
        f''/f' is p + z p'/p, p' = s + z s' (for q = 0, p = z s and the z
        cancels: p + p'/s), computed with no logarithm or exponential.
        Raises the jet's errors: SingularPoint at a product's vanishing
        factor or, for q != 0, at 0; DivisionByZeroInFunctional where f (a
        series, order 0) or f' (order 1) vanishes; NonFiniteValue where a
        value overflows or turns NaN.
        """
        orders = [_as_integer(k, "shape quotient order", OrderOutOfRange) for k in orders]
        if not set(orders) <= {0, 1}:
            raise OrderOutOfRange(f"shape quotient orders must be 0 or 1, got {tuple(orders)}")
        z = np.asarray(z, dtype=complex)
        out = _finite("shape quotients", z, lambda: self._shape_quotients(z, orders))
        return [complex(v) for v in out] if z.ndim == 0 else out

    def _entry(self, z: np.ndarray, order: int) -> "_Jet":
        """This thread's memo entry of f on z, grown up to the given order."""
        entry = _jet_memo.entry(self, z)
        if len(entry.values) <= order:
            try:
                with np.errstate(over="raise", invalid="raise"):
                    self._grow(entry, z, order)
            except FloatingPointError:
                raise _non_finite(self, z, order) from None
        return entry

    # ------------------------------------------------------------------
    # series conversion

    def taylor_coefficients(self, n: int) -> tuple[complex, ...]:
        """Coefficients c_0..c_n of the Maclaurin expansion."""
        n = _as_integer(n, "coefficient index n")
        if n < 0:
            raise ValidationError("need n >= 0 coefficients")
        return self._maclaurin(n)

    # ------------------------------------------------------------------
    # JSON interchange: complex numbers are [re, im] pairs

    @staticmethod
    def from_json(data: Union[str, dict]) -> "AnalyticFunction":
        if isinstance(data, str):
            try:
                data = json.loads(data)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"payload is not valid JSON: {exc}") from exc
            except RecursionError:
                raise ValidationError("payload is nested too deeply to parse") from None
        try:
            variant = data["variant"]
            if variant == "taylor":
                raw = data["tag"]
                if raw["class"] == "A":
                    tag: Tag = ATag(raw["p"])
                elif raw["class"] == "H":
                    tag = HTag(complex(*_pair(raw["a"], "tag a")), raw.get("n", 1))
                else:
                    raise ValidationError(f"unknown tag class {raw['class']!r}")
                coeffs = [complex(*_pair(c, "a coefficient")) for c in data["coeffs"]]
                return _TaylorSeries(coeffs, tag)
            if variant == "mobius":
                terms = []
                for term in data["terms"]:
                    u, e = _pair(term, "a term [u, e]")
                    terms.append((complex(*_pair(u, "a term's u")), float(e)))
                return _MobiusProduct(data["q"], terms)
        except ValidationError:
            raise
        except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
            # ValueError and OverflowError: float("x"), or an integer beyond the float range
            raise ValidationError(f"malformed function description: {exc}") from exc
        raise ValidationError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class _TaylorSeries(AnalyticFunction):
    """f(z) = sum c_k z^k, with the coefficients its tag pins checked."""

    coeffs: tuple[complex, ...]
    tag: Tag
    variant = Variant.TAYLOR
    _largest_u = 0.0  # no factor poles

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        for c in cs:
            if not cmath.isfinite(c):
                raise ValidationError(f"coefficients must be finite, got {c}")
        tag = self.tag
        # the coefficients the tag pins, each checked to within _COEFF_TOL
        if isinstance(tag, ATag):
            if len(cs) <= tag.p:
                raise ValidationError(f"tag A_{tag.p} needs at least {tag.p + 1} coefficients")
            name, pins = f"A_{tag.p}", [0] * tag.p + [1]
        elif isinstance(tag, HTag):
            if not cs:
                raise ValidationError("empty coefficient list")
            name, pins = f"H[{tag.a},{tag.n}]", [tag.a] + [0] * (min(tag.n, len(cs)) - 1)
        else:
            raise ValidationError(f"a Taylor series needs an ATag or an HTag, got {tag!r}")
        for k, want in enumerate(pins):
            if abs(cs[k] - want) > _COEFF_TOL:
                raise ValidationError(f"tag {name} requires c_{k} = {want}, got {cs[k]}")
        object.__setattr__(self, "coeffs", cs)

    @functools.cached_property
    def _value_bits(self) -> tuple:
        """The coefficients as bits: the log memo's key for f, the same for two
        functions that evaluate to equal bits on equal points."""
        return (self.variant.value, np.array(self.coeffs, dtype=complex).tobytes())

    def _origin_order(self, order: int) -> int:
        """The order of the zero of f (order 0) or f' (order 1) at the origin,
        leading coefficients within _COEFF_TOL of 0, the tags' slack, counted
        as part of it; 0 if no coefficient lies beyond it."""
        for k, c in enumerate(self.coeffs[order:]):
            if abs((k + 1) * c if order else c) > _COEFF_TOL:
                return k
        return 0

    def _pole_aliasing(self, order: int, r: float, angles: int, moment: bool = False) -> complex:
        """0: a Taylor series has no factor poles (see _MobiusProduct._pole_aliasing)."""
        return 0j

    @functools.cached_property
    def _derivative_coeffs(self) -> tuple[tuple[complex, ...], ...]:
        """The coefficients of f, f' and f'', each from the one before, taken once."""
        out = [self.coeffs]
        for _ in range(2):
            out.append(tuple(k * c for k, c in enumerate(out[-1]))[1:])
        return tuple(out)

    def _horner(self, z: np.ndarray, order: int) -> np.ndarray:
        """f (order 0) or its derivative of the given order at z, by Horner's rule."""
        cs = self._derivative_coeffs[order]
        if not cs:
            return np.zeros_like(z)
        acc = np.full_like(z, cs[-1])
        for c in reversed(cs[:-1]):
            acc = acc * z + c
        return acc

    def _grow(self, entry: "_Jet", z: np.ndarray, order: int) -> None:
        while len(entry.values) <= order:
            entry.push(self._horner(z, len(entry.values)))

    def _shape_quotients(
        self, z: np.ndarray, orders: Sequence[int], reach: Optional[float] = None
    ) -> list[np.ndarray]:
        """shape_quotients unchecked, as _MobiusProduct's, reach unread: each
        quotient after its functional's guard and from its functional's
        expression on f, f' and f'' by Horner's rule, so with the jet's bits."""
        jet: list[np.ndarray] = []
        out = []
        for k in orders:
            while len(jet) <= k + 1:  # z f'/f reads f and f', 1 + z f''/f' also f''
                jet.append(self._horner(z, len(jet)))
            _guard(jet[k], ("f", "f'")[k], z)
            out.append(z * jet[1] / jet[0] if k == 0 else 1 + z * jet[2] / jet[1])
        return out

    def _maclaurin(self, n: int) -> tuple[complex, ...]:
        cs = self.coeffs[: n + 1]
        return cs + (0j,) * (n + 1 - len(cs))

    def to_taylor(self, n: int) -> "AnalyticFunction":
        """The series truncated or padded to degree n, with its own tag."""
        return _TaylorSeries(self.taylor_coefficients(n), self.tag)

    def to_json(self) -> dict:
        if isinstance(self.tag, ATag):
            tag = {"class": "A", "p": self.tag.p}
        else:
            tag = {"class": "H", "a": [self.tag.a.real, self.tag.a.imag], "n": self.tag.n}
        return {
            "variant": "taylor",
            "tag": tag,
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
        }


@dataclass(frozen=True)
class _MobiusProduct(AnalyticFunction):
    """f(z) = z^q prod (1 + u z)^e over the terms (u, e), |u| <= 1."""

    q: int
    terms: tuple[tuple[complex, float], ...]
    variant = Variant.MOBIUS_POWER_PRODUCT

    def __post_init__(self):
        q = _as_integer(self.q, "prefactor exponent q")
        if abs(q) > 2**53:  # z**q and q(q - 1) are computed in floats
            raise ValidationError(f"prefactor exponent must satisfy |q| <= 2**53, got {q}")
        terms = tuple((complex(u), float(e)) for u, e in self.terms)
        for u, e in terms:
            if not (cmath.isfinite(u) and math.isfinite(e)):
                raise ValidationError(f"term ({u}, {e}) must be finite")
            if abs(u) > 1 + 1e-9:
                raise ValidationError(f"term base coefficient must satisfy |u| <= 1, got |{u}|")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "terms", terms)

    @functools.cached_property
    def _value_bits(self) -> tuple:
        """The prefactor and the terms as bits: the log memo's key for f."""
        return (self.variant.value, self.q, np.array(self.terms, dtype=complex).reshape(-1).tobytes())

    def _origin_order(self, order: int) -> int:
        """The order of the zero of f (order 0) or f' (order 1) at the origin,
        negative for a pole: q, and q - 1 for f' when q != 0; for q = 0, f' =
        g s with g(0) = 1 and s = sum e u/(1 + u z), whose k-th coefficient
        (-1)^k sum e u^(k+1) counts as 0 within _COEFF_TOL, as in a series."""
        if order == 0 or self.q != 0:
            return self.q - order
        for k in range(len(self.terms)):
            if abs(sum(e * u ** (k + 1) for u, e in self.terms)) > _COEFF_TOL:
                return k
        return 0

    @functools.cached_property
    def _largest_u(self) -> float:
        """The largest |u| of the factors; 1/_largest_u is the first factor zero or pole."""
        return max((abs(u) for u, _ in self.terms), default=0.0)

    def _pole_aliasing(self, order: int, r: float, angles: int, moment: bool = False) -> complex:
        """The mean, over the ring of points r exp(2 pi i k/angles), of the
        terms c u z/(1 + u z) of z f'/f (order 0, c = e) or 1 + z f''/f'
        (order 1, c = e - 1), which hold the factors' poles -1/u, or with
        moment, of z times them.

        With p = q + z s (or s for q = 0) written as P/prod(1 + u z), 1 + z
        f''/f' is q (or 1) + z P'/P + sum (e - 1) u z/(1 + u z), and z f'/f
        is q + sum e u z/(1 + u z).  Each pole term has mean 0 over the circle
        |z| = r < 1/|u|, and so has z times it, but u z/(1 + u z) =
        -sum_{n >= 1} (-u z)^n and the ring's mean of z^n is r^n where angles
        divides n, 0 elsewhere: with W = (-u r)^angles the ring's mean is
        1 - 1/(1 - W), and that of z times the term (1/(1 - W) - 1)/u, 1 - W
        taken by expm1 to stay accurate as |u| r nears 1.  A zero count
        subtracts them, so a factor pole on or near the unit circle leaves no
        trace in the count of a ring close to it.  A factor whose
        (|u| r)^angles is below 1e-17 adds less than rounding and is skipped,
        and so are all when the largest |u| does; so is one whose pole lies on
        or inside the ring (|u| r >= 1), where the series does not hold and
        membership.closed_form_bound ends the search first.
        """
        if (self._largest_u * r) ** angles < 1e-17:
            return 0j
        total = 0j
        for u, e in self.terms:
            c = e if order == 0 else e - 1
            if c and 1e-17 <= (abs(u) * r) ** angles < 1:
                d = -np.expm1(angles * cmath.log(-u * r))
                total += c * ((1 / d - 1) / u if moment else 1 - 1 / d)
        return complex(total)

    def _factors(self, z: np.ndarray, reach: Optional[float] = None) -> list[tuple[np.ndarray, complex, float]]:
        """(1 + u z, u, e) for each term; SingularPoint where a formula is singular.

        reach, when given, bounds |z| and promises no point is 0, so neither
        is read from z: it is widened by 1e-15, over the few ulps by which a
        computed |z| can exceed the radius its point was built at, so each
        factor is scanned point by point whenever the largest |z| would
        have it scanned.
        """
        if reach is None:
            mags = np.abs(z)
            if self.q != 0 and (mags == 0).any():
                # z^q and the q/z terms make 0 a zero or pole of the formulas;
                # grids never include it, so no removable-case handling here.
                raise SingularPoint("mobius-product formulas are singular at z = 0 when q != 0", witness=0j)
            reach = mags.max(initial=0.0)  # NaN if a point is
        else:
            reach = reach * (1 + 1e-15)
        bases = [(1 + u * z, u, e) for u, e in self.terms]
        for b, u, _ in bases:
            # |1 + u z| >= 1 - |u| |z|, so a factor is checked point by point
            # only where that bound cannot keep it from vanishing
            if not abs(u) * reach < 1 - 1e-13 and (np.abs(b) < _ZERO_TOL).any():
                bad = z.ravel()[int(np.argmin(np.abs(b)))]
                raise SingularPoint(f"factor 1 + ({u})z vanishes", witness=complex(bad))
        return bases

    def _grow(self, entry: "_Jet", z: np.ndarray, order: int) -> None:
        # g = prod (1 + u z)^e, s = g'/g and s' are built once per point
        # set and each order is the same closed form as in the module
        # docstring; g and s are kept on the entry until f'' is reached.
        q = self.q
        bases = self._factors(z)
        if not entry.values:
            logg = np.zeros_like(z)
            for b, u, e in bases:
                factor = ("1 + uz", u.real.hex(), u.imag.hex())
                logg = logg + e * _log_memo.log(entry.key, factor, functools.partial(np.log, b))
            g = np.exp(logg)
            entry.g = g
            entry.push(g if q == 0 else _z_power(z, q) * g)
        g = entry.g
        if order >= 1 and len(entry.values) == 1:
            s = np.zeros_like(z)
            for b, u, e in bases:
                s = s + e * u / b
            entry.s = s
            entry.push(g * s if q == 0 else _z_power(z, q - 1) * g * (q + z * s))
        if order == 2 and len(entry.values) == 2:
            s = entry.s
            sp = np.zeros_like(z)
            for b, u, e in bases:
                sp = sp - e * u * u / (b * b)
            if q == 0:
                entry.push(g * (s * s + sp))
            else:
                entry.push(_z_power(z, q - 2) * g * (q * (q - 1) + 2 * q * z * s + z * z * (s * s + sp)))
            entry.g = entry.s = None

    def _shape_quotients(
        self, z: np.ndarray, orders: Sequence[int], reach: Optional[float] = None
    ) -> list[np.ndarray]:
        """shape_quotients unchecked: orders 0 or 1, z a complex array, run
        where numpy raises FloatingPointError (_finite).

        reach, when given, is a radius that no point of z lies beyond, and
        no point is 0: the radius search passes the radius it asks for, so
        the factor bound needs no pass over |z| (see _factors).  The
        quotients are the same, bit for bit, with or without it."""
        q, bases = self.q, self._factors(z, reach)
        # s = sum e t and s' = -sum e t^2 with t = u/(1 + u z)
        s = sp = 0
        for b, u, e in bases:
            t = u / b
            et = e * t
            s, sp = s + et, sp - et * t
        p = z * s if q == 0 else q + z * s
        out = {0: p}
        if 1 in orders:
            dp = s + z * sp
            _guard(s if q == 0 else p, "f'", z)
            out[1] = p + (dp / s if q == 0 else z * dp / p)
        return [out[k] for k in orders]

    def _maclaurin(self, n: int) -> tuple[complex, ...]:
        """The expansion of each (1 + u z)^e by the generalized binomial
        recurrence b_k = b_{k-1} (e - k + 1) u / k, the factors convolved,
        shifted by the z^q prefactor (q < 0 has a pole at 0 and is rejected)."""
        if self.q < 0:
            raise ValidationError("z^q with q < 0 has no Maclaurin expansion")
        acc = np.zeros(n + 1, dtype=complex)
        acc[0] = 1
        for u, e in self.terms:
            term = np.zeros(n + 1, dtype=complex)
            term[0] = 1
            for k in range(1, n + 1):
                term[k] = term[k - 1] * (e - k + 1) * u / k
            acc = np.convolve(acc, term)[: n + 1]
        out = np.zeros(n + 1, dtype=complex)
        if self.q <= n:
            out[self.q :] = acc[: n + 1 - self.q]
        return tuple(out)

    def to_taylor(self, n: int) -> "AnalyticFunction":
        """Truncated Taylor form with a tag inferred from the leading term."""
        cs = self.taylor_coefficients(n)
        return _TaylorSeries(cs, ATag(self.q) if self.q >= 1 else HTag(cs[0], 1))

    def to_json(self) -> dict:
        return {
            "variant": "mobius",
            "q": self.q,
            "terms": [[[u.real, u.imag], e] for u, e in self.terms],
        }


# ----------------------------------------------------------------------
# ready-made building blocks used throughout the test families

def identity_map() -> AnalyticFunction:
    """f(z) = z."""
    return AnalyticFunction.mobius(1, [])


def half_plane_map() -> AnalyticFunction:
    """f(z) = z/(1-z), the right-half-plane map of the starlike family."""
    return AnalyticFunction.mobius(1, [(-1, -1.0)])


def koebe_like() -> AnalyticFunction:
    """f(z) = z/(1-z)^2."""
    return AnalyticFunction.mobius(1, [(-1, -2.0)])
