"""Analytic test functions on the unit disk with exact derivatives.

Two representations are supported.

Truncated Taylor series
    f(z) = sum c_k z^k with an explicit normalization tag.  Tag A_p pins
    c_0 = ... = c_{p-1} = 0 and c_p = 1 (f(z) = z^p + ...); tag H[a, n]
    pins c_0 = a and, for n > 1, c_1 = ... = c_{n-1} = 0.

Mobius power products
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
that jet.  ``zero_radius(order)`` is the smallest |z| at which f or f'
vanishes in the disk, from polynomial roots, kept on the function object.

Each thread keeps the jets of its most recently used (function, point
set) pairs within a budget of 3.2 MB, two full entries on the default
23x720 grid, so a theorem scan that reads z f'/f in the hypothesis and
1 + z f''/f' in the conclusion evaluates f once, and the radius searches
of two properties of one function evaluate each ring once.  A hit needs
the same function object and a point array with the shape and bits of a
private copy taken at the first call (or the log memo's copy of the same
points, see below), so changing the caller's array in place is never
served a stale jet; the cached arrays are read-only.  An
entry also keeps the principal power (z/f)^c for each exponent c read
through ``quotient_power``, when every value of it is finite, so U, THM3
and the two-function power forms raise z/f to an exponent once per point
set.  An entry holds the copy, f, f' and f'' (a product also its factor
product and log derivative until f'' is reached) and one array per
exponent read (one in a scan), each of the point set's size, 265 KB on
the default grid.  A new entry evicts the least recently used ones until
the rest and the new one at its full size of six arrays fit the budget,
so on the default grid it keeps exactly one other, and a 720-point ring
keeps up to 66 other rings read up to f''.  An entry keeps its point
set's copy and its function alive until it is evicted.  A kept power
enters a product as a fresh copy on the right, ``f1 * P``: numpy then
multiplies into it from 256 KiB up (P * f1), as it did into the
temporary of the inline ``f1 * principal_power(z / f, c)``, and computes
f1 * P below that; with FMA the two orders differ in low bits, so the
copy keeps every value bit for bit.

Each thread also keeps complex logarithms by value, in a log memo with a
budget of its own, so the radius rings that the jet memo keeps are not
evicted for them: log(1 + uz) of each Mobius factor, keyed by the bits of
u, and the principal log of z/f that ``quotient_power`` raises, keyed by
the bits of the function's coefficients or prefactor and terms rather
than by the object, each on a point set matched by shape and bits.  Cases
rebuild their families from the same factors and functions, so a default
scan round takes 116 logarithms on the grid where each case alone took
181.  The logs on one point set share one private copy of it, which later
jet entries on the same points take as their key instead of a copy of
their own.  The memo keeps eight default-grid logs and the grid's copy,
2.4 MB, and at most 32 logs and 1024 use counts, by use count and then
recency (see _LogMemo); a hit on the grid costs about 5 us, 20 us when it
compares the bits of another array, against about 2 ms for the log.  A factor's log enters e * log(1 + uz) and a power
is exp(c * log(z/f)), the operations that computed them before, so every
value stays the same bit for bit.  A jet that overflows or turns NaN raises
NonFiniteValue at its first non-finite point instead of printing numpy
warnings; underflow to 0 stays legal.  Non-finite coefficients and
exponents are rejected when a function is built.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    NonFiniteValue,
    OrderOutOfRange,
    SingularPoint,
    ValidationError,
    ZeroBase,
)
from .params import _as_integer

ComplexLike = Union[complex, np.ndarray]

_COEFF_TOL = 1e-12  # slack when validating tag-pinned coefficients


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
    re = np.real(w)
    im = np.imag(w)
    # -0.0 -> +0.0 on the negative real axis only; elsewhere signed zero
    # of the imaginary part cannot change the argument.
    im = np.where((im == 0.0) & (re < 0.0), 0.0, im)
    return np.log(re + 1j * im)


def principal_arg(w: ComplexLike) -> Union[float, np.ndarray]:
    """Argument in (-pi, pi], with the negative real axis mapped to +pi.

    Same signed-zero fold as :func:`principal_power`; np.angle alone
    would report -pi for negative reals carrying a -0.0 imaginary part.
    """
    w = np.asarray(w, dtype=complex)
    re = np.real(w)
    im = np.imag(w)
    im = np.where((im == 0.0) & (re < 0.0), 0.0, im)
    out = np.angle(re + 1j * im)
    if out.ndim == 0:
        return float(out)
    return out


class Variant(Enum):
    TAYLOR = "taylor"
    MOBIUS_POWER_PRODUCT = "mobius"


@dataclass(frozen=True)
class ATag:
    """Normalization f(z) = z^p + c_{p+1} z^{p+1} + ..., p >= 1."""

    p: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and self.p >= 1):
            raise ValidationError(f"tag A_p needs integer p >= 1, got {self.p!r}")


@dataclass(frozen=True)
class HTag:
    """Normalization f(0) = a with c_1 = ... = c_{n-1} = 0 when n > 1."""

    a: complex
    n: int = 1

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValidationError(f"tag H[a,n] needs integer n >= 1, got {self.n!r}")


Tag = Union[ATag, HTag]


def _validate_taylor(coeffs: tuple[complex, ...], tag: Tag) -> None:
    if isinstance(tag, ATag):
        p = tag.p
        if len(coeffs) <= p:
            raise ValidationError(f"tag A_{p} needs at least {p + 1} coefficients")
        for k in range(p):
            if abs(coeffs[k]) > _COEFF_TOL:
                raise ValidationError(f"tag A_{p} requires c_{k} = 0, got {coeffs[k]}")
        if abs(coeffs[p] - 1) > _COEFF_TOL:
            raise ValidationError(f"tag A_{p} requires c_{p} = 1, got {coeffs[p]}")
    else:
        if not coeffs:
            raise ValidationError("empty coefficient list")
        if abs(coeffs[0] - tag.a) > _COEFF_TOL:
            raise ValidationError(f"tag H[{tag.a},{tag.n}] requires c_0 = {tag.a}, got {coeffs[0]}")
        for k in range(1, min(tag.n, len(coeffs))):
            if abs(coeffs[k]) > _COEFF_TOL:
                raise ValidationError(f"tag H[a,{tag.n}] requires c_{k} = 0, got {coeffs[k]}")


# ----------------------------------------------------------------------
# jet memo: each thread's recently used (function, point set) jets, kept
# within a byte budget

# what an array costs beyond its data: the ndarray object (112 bytes on
# CPython 3.11), rounded up, so a memo of scalar jets stays bounded too
_ARRAY_OVERHEAD = 128
# the most arrays a new entry may come to hold: key, f, f', f'', g and s
_ENTRY_ARRAYS = 6
# two full entries on the default 23x720 grid, the most the memo held when
# it kept two entries of any size: on that grid an entry still keeps one
# other (C37I/II alternate between f and its partner G), while a 720-point
# ring entry keeps up to 66 others, more than the 45 rings the radius
# searches of one gated family read
_JET_MEMO_BYTES = 2 * _ENTRY_ARRAYS * (23 * 720 * 16 + _ARRAY_OVERHEAD)


class _Jet:
    """Derivatives of one function on one point set, keyed by a private copy.

    ``values`` holds f, f', ... up to the highest order computed so far;
    ``g`` and ``s`` carry a Mobius product's factor product and log
    derivative until f'' is reached; ``powers`` holds the finite
    principal powers (z/f)^c read so far.  ``tag`` is the memo's index
    key and ``charge`` the bytes the memo counts for the entry.
    """

    __slots__ = ("f", "key", "values", "g", "s", "powers", "tag", "charge")

    def __init__(self, f: "AnalyticFunction", z: np.ndarray, tag: tuple = ()):
        self.f = f
        self.key = _log_memo.private_copy(z)
        self.values: list[np.ndarray] = []
        self.g = self.s = None
        self.powers: dict[str, np.ndarray] = {}  # (z/f)^c by the hex digits of c
        self.tag = tag
        self.charge = 0

    def push(self, value: np.ndarray) -> None:
        value = np.asarray(value)  # 0-d arithmetic yields numpy scalars
        value.flags.writeable = False
        self.values.append(value)

    def holds(self, f: "AnalyticFunction", z: np.ndarray) -> bool:
        # bitwise, so signed zeros and NaN payloads never share a jet
        return self.f is f and self.key.shape == z.shape and np.array_equal(_bits(self.key), _bits(z))

    def bound(self) -> int:
        """The most bytes the entry can hold after any later call.

        A product keeps g and s next to f and f' until f'' is pushed, so
        it peaks at five arrays of the key's size; after that, and for a
        Taylor series, an entry holds four.  Each power kept adds its own.
        """
        growing = self.g is not None or (not self.values and self.f.variant is Variant.MOBIUS_POWER_PRODUCT)
        arrays = 5 if growing else 4
        return arrays * (self.key.nbytes + _ARRAY_OVERHEAD) + sum(
            p.nbytes + _ARRAY_OVERHEAD for p in self.powers.values()
        )


def _bits(z: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(z).reshape(-1).view(np.int64)


def _points_tag(z: np.ndarray) -> tuple:
    """The shape and the bits of the first and last point: a cheap index key for a point set."""
    return (z.shape,) + ((z.flat[0].tobytes(), z.flat[-1].tobytes()) if z.size else ())


class _JetMemo(threading.local):
    """One thread's jets, least recently used first, within _JET_MEMO_BYTES.

    Entries are indexed by the function object, the shape and the bits of
    the first and last point, so a lookup compares the full key of few
    entries, usually one.  ``nbytes`` is the sum of the entries' charges;
    a charge is the entry's bound, which is never below the bytes its
    arrays take.  A new entry first evicts the least recently used ones
    until the rest and the new entry at its full size fit the budget; an
    entry that comes to need more (a power kept) evicts others the same
    way.  An entry too large for the budget alone is kept alone.
    """

    def __init__(self):
        self.recency: dict[_Jet, None] = {}  # least recently used first
        self.index: dict[tuple, list[_Jet]] = {}
        self.nbytes = 0

    def entry(self, f: "AnalyticFunction", z: np.ndarray) -> _Jet:
        """The jet of f on z, new and empty unless it is still kept."""
        tag = (id(f),) + _points_tag(z)
        bucket = self.index.get(tag, ())
        for entry in bucket:
            if entry.holds(f, z):
                del self.recency[entry]
                self.recency[entry] = None  # most recently used last
                return entry
        entry = _Jet(f, z, tag)
        self._make_room(_ENTRY_ARRAYS * (entry.key.nbytes + _ARRAY_OVERHEAD), None)
        self.index.setdefault(tag, []).append(entry)
        self.recency[entry] = None
        self.recharge(entry)
        return entry

    def recharge(self, entry: _Jet) -> None:
        """Count the entry's bound again, evicting others if it grew."""
        charge = entry.bound()
        self.nbytes += charge - entry.charge
        entry.charge = charge
        self._make_room(0, entry)

    def _make_room(self, extra: int, keep: Optional[_Jet]) -> None:
        """Evict the least recently used entries but keep until extra bytes more fit."""
        if self.nbytes + extra <= _JET_MEMO_BYTES:
            return
        for old in list(self.recency):
            if old is not keep:
                self._evict(old)
                if self.nbytes + extra <= _JET_MEMO_BYTES:
                    return

    def _evict(self, entry: _Jet) -> None:
        del self.recency[entry]
        bucket = self.index[entry.tag]
        bucket.remove(entry)
        if not bucket:
            del self.index[entry.tag]
        self.nbytes -= entry.charge


_jet_memo = _JetMemo()


# ----------------------------------------------------------------------
# log memo: each thread's complex logarithms of Mobius factors and of z/f,
# keyed by value, kept by use count within a byte budget of its own

# eight logs on the default 23x720 grid and the copy of the grid they
# share: a scan round asks for 169 factor and z/f logs there, 62 of them
# distinct, since the cases build their families from shared factors and
# functions (C42/C44/T41/T43 from one family); eight kept by use count
# leave about 104 to compute
_LOG_MEMO_BYTES = 9 * (23 * 720 * 16 + _ARRAY_OVERHEAD)
# the most logs kept whatever their size, so that picking the one to evict
# stays cheap when a radius search reads ring after ring
_LOG_ENTRIES = 32
# the most use counts remembered, of logs kept or not
_LOG_COUNTS = 1024


class _Points:
    """A point set the log memo keeps logs on: a private copy, its index key, how many logs it keeps."""

    __slots__ = ("key", "tag", "kept")

    def __init__(self, key: np.ndarray, tag: tuple):
        self.key = key
        self.tag = tag
        self.kept = 0


def _nbytes(a) -> int:
    return np.asarray(a).nbytes + _ARRAY_OVERHEAD


class _LogMemo(threading.local):
    """One thread's logarithms, by use count then recency, within _LOG_MEMO_BYTES.

    A log is kept under what it is the log of (the bits of a factor's u,
    or z/f with the bits of a function's value) and its point set, matched
    by shape and bits.  The logs on one point set share one private copy
    of it: the jet memo's copy from the first call, which later jet entries
    on the same points take too, so the memo copies nothing.  ``counts``
    holds how often each (point-set index key, what) was asked for, the
    most recently asked last, whether its log is kept or not, so a log that
    leaves and comes back keeps its count; ``uses`` holds the count of each
    kept log, in the order of ``logs``.  A new log evicts the logs asked
    for least often until it fits the bytes and the entry count, unless
    one of them was asked for more often than it: then it is not kept.
    Among logs asked for equally often the most recently used goes first,
    because a scan reads its members in the same order in every case, so
    the logs kept earliest are asked for again first.  A point set goes
    with its last log.  Only logs finite at every point are kept, so a
    kept log never skips a floating-point error its computation raised.
    """

    def __init__(self):
        self.index: dict[tuple, list[_Points]] = {}  # point sets by _points_tag
        self.logs: dict[tuple, ComplexLike] = {}  # (point set, what) -> log, least recently used first
        self.uses: dict[tuple, int] = {}  # the same keys in the same order -> uses when last asked for
        self.counts: dict[tuple, int] = {}  # (point-set tag, what) -> uses, least recently asked first
        self.nbytes = 0

    def private_copy(self, z: np.ndarray) -> np.ndarray:
        """A copy of z that no caller writes to: the one logs are kept on, if any."""
        points = self._find(z, _points_tag(z))
        return z.copy() if points is None else points.key

    def _find(self, z: np.ndarray, tag: tuple) -> Optional[_Points]:
        # bitwise, so signed zeros never share a log
        return next((p for p in self.index.get(tag, ()) if p.key is z or np.array_equal(_bits(p.key), _bits(z))),
                    None)

    def log(self, z: np.ndarray, what: tuple, compute) -> ComplexLike:
        """The kept log of what on z, a point set no caller writes to, else compute()."""
        tag = _points_tag(z)
        count = self.counts.pop((tag, what), 0) + 1
        self.counts[(tag, what)] = count
        if len(self.counts) > _LOG_COUNTS:
            del self.counts[next(iter(self.counts))]
        points = self._find(z, tag)
        value = self.logs.pop((points, what), None)
        if value is None:
            value = compute()
            if np.all(np.isfinite(value)):
                self._keep(points or _Points(z, tag), what, value, count)
        else:
            del self.uses[(points, what)]
            self.logs[(points, what)] = value  # most recently used last
            self.uses[(points, what)] = count
        return value

    def _keep(self, points: _Points, what: tuple, value: ComplexLike, count: int) -> None:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        size = _nbytes(value)
        while self.nbytes + size + (0 if points.kept else _nbytes(points.key)) > _LOG_MEMO_BYTES \
                or len(self.logs) >= _LOG_ENTRIES:
            if not self.logs:
                return  # too large for the budget alone
            victim = min(reversed(self.uses), key=self.uses.__getitem__)  # the most recent of the least used
            if self.uses[victim] > count:
                return
            self._evict(victim)
        if not points.kept:
            self.index.setdefault(points.tag, []).append(points)
            self.nbytes += _nbytes(points.key)
        points.kept += 1
        self.logs[(points, what)] = value
        self.uses[(points, what)] = count
        self.nbytes += size

    def _evict(self, key: tuple) -> None:
        points = key[0]
        self.nbytes -= _nbytes(self.logs.pop(key))
        del self.uses[key]
        points.kept -= 1
        if not points.kept:
            bucket = self.index[points.tag]
            bucket.remove(points)
            if not bucket:
                del self.index[points.tag]
            self.nbytes -= _nbytes(points.key)


_log_memo = _LogMemo()


def _non_finite(f: "AnalyticFunction", z: np.ndarray, order: int) -> NonFiniteValue:
    """The error for a jet that overflowed, witnessed by its first non-finite point."""
    scratch = _Jet(f, z)
    with np.errstate(all="ignore"):
        f._grow(scratch, z, order)
    bad = np.flatnonzero(~np.all([np.isfinite(v) for v in scratch.values], axis=0))
    witness = complex(z.ravel()[bad[0]]) if bad.size else None
    return NonFiniteValue(f"f or a derivative up to order {order} is not finite", witness=witness)


def _pair(value, what: str) -> list:
    """A JSON [x, y] pair, such as a complex number [re, im]; else ValidationError."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ValidationError(f"{what} must be a pair [x, y], got {value!r}")
    return value


@dataclass(frozen=True)
class AnalyticFunction:
    """Immutable test function; build via :meth:`taylor` or :meth:`mobius`."""

    variant: Variant
    coeffs: tuple[complex, ...] | None = None
    tag: Tag | None = None
    q: int | None = None
    terms: tuple[tuple[complex, float], ...] | None = None

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def taylor(cls, coeffs: Sequence[complex], tag: Tag) -> "AnalyticFunction":
        cs = tuple(complex(c) for c in coeffs)
        for c in cs:
            if not cmath.isfinite(c):
                raise ValidationError(f"coefficients must be finite, got {c}")
        _validate_taylor(cs, tag)
        return cls(Variant.TAYLOR, coeffs=cs, tag=tag)

    @classmethod
    def mobius(cls, q: int, terms: Sequence[tuple[complex, float]]) -> "AnalyticFunction":
        if not isinstance(q, int):
            raise ValidationError(f"prefactor exponent must be an integer, got {q!r}")
        if abs(q) > 2**53:  # z**q and q(q - 1) are computed in floats
            raise ValidationError(f"prefactor exponent must satisfy |q| <= 2**53, got {q}")
        ts = []
        for u, e in terms:
            u, e = complex(u), float(e)
            if not (cmath.isfinite(u) and math.isfinite(e)):
                raise ValidationError(f"term ({u}, {e}) must be finite")
            if abs(u) > 1 + 1e-9:
                raise ValidationError(f"term base coefficient must satisfy |u| <= 1, got |{u}|")
            ts.append((u, e))
        return cls(Variant.MOBIUS_POWER_PRODUCT, q=q, terms=tuple(ts))

    # ------------------------------------------------------------------
    # evaluation

    @functools.cached_property
    def _value_bits(self) -> tuple:
        """The coefficients or the prefactor and terms as bits: the log memo's key for f.

        Two functions with equal bits evaluate to equal bits on equal
        points, whichever object computes them.
        """
        if self.variant is Variant.TAYLOR:
            return (self.variant.value, np.array(self.coeffs, dtype=complex).tobytes())
        return (self.variant.value, self.q, np.array(self.terms, dtype=complex).reshape(-1).tobytes())

    @functools.cached_property
    def _zero_radii(self) -> dict[int, float]:
        return {}

    def zero_radius(self, order: int) -> float:
        """Smallest |z| in (0, 1) at which f (order 0) or f' (order 1) vanishes; inf if none.

        Order -1 stands for f/z, whose pole at the origin cancels only when
        f(0) = 0: its radius is 0 when f(0) != 0.  Each radius is computed
        from polynomial roots once and kept on this object for its lifetime,
        so the radius searches of two properties of one function read the
        same roots.  An equal function that is another object computes them
        again, since equal functions may differ in the sign of a zero
        coefficient.
        """
        if order not in (-1, 0, 1):
            raise OrderOutOfRange(f"zero order must be -1, 0 or 1, got {order}")
        radius = self._zero_radii.get(order)
        if radius is None:  # threads that race here compute the same value
            radius = self._zero_radii[order] = _roots_radius(self, order)
        return radius

    def eval(self, z: ComplexLike, order: int = 0) -> ComplexLike:
        """Value (order 0) or exact derivative (order 1, 2) at z."""
        return self.jet(z, order)[order]

    def jet(self, z: ComplexLike, order: int = 2) -> tuple[ComplexLike, ...]:
        """(f, f', ..., f^(order)) at z, exact, for order 0, 1 or 2.

        Arrays come back read-only and may be shared with later calls:
        each thread keeps the jets of its most recently used (function,
        point set) pairs, up to 3.2 MB (see the module docstring), so a
        functional that reads f, f' and f'' on the grid, and a second
        functional of the same f on the same grid, evaluate the Mobius
        logarithms and exponential once.
        """
        z = np.asarray(z, dtype=complex)
        out = self._entry(z, order).values[: order + 1]
        if z.ndim == 0:
            return tuple(complex(v) for v in out)
        return tuple(out)

    def quotient_power(self, z: ComplexLike, c: float) -> ComplexLike:
        """The principal (z/f)^c at z, as principal_power(z / f, c) gives it.

        The power is kept with this thread's jet of f on z, one array per
        exponent, when every value in it is finite, so the hypothesis and
        the conclusion of a scan raise z/f to the same exponent once.  A
        kept array comes back read-only and shared with later calls.
        """
        z = np.asarray(z, dtype=complex)
        entry = self._entry(z, 0)
        key = float(c).hex()  # bitwise, so -0.0 and 0.0 never share a power
        power = entry.powers.get(key)
        if power is None:
            quotient = ("z/f",) + self._value_bits
            log = _log_memo.log(entry.key, quotient, lambda: _principal_log(z / entry.values[0]))
            power = np.asarray(np.exp(c * log))
            if np.all(np.isfinite(power)):
                power.flags.writeable = False
                entry.powers[key] = power
                _jet_memo.recharge(entry)
        return complex(power) if z.ndim == 0 else power

    def _entry(self, z: np.ndarray, order: int) -> "_Jet":
        """This thread's memo entry of f on z, grown up to the given order."""
        if order not in (0, 1, 2):
            raise OrderOutOfRange(f"derivative order must be 0, 1 or 2, got {order}")
        entry = _jet_memo.entry(self, z)
        if len(entry.values) <= order:
            try:
                with np.errstate(over="raise", invalid="raise"):
                    self._grow(entry, z, order)
            except FloatingPointError:
                raise _non_finite(self, z, order) from None
            _jet_memo.recharge(entry)  # a product drops g and s with f''
        return entry

    def _grow(self, entry: "_Jet", z: np.ndarray, order: int) -> None:
        """Extend the entry's jet on z up to the given order."""
        if self.variant is Variant.MOBIUS_POWER_PRODUCT:
            self._grow_mobius(entry, z, order)
            return
        while len(entry.values) <= order:
            entry.push(self._eval_taylor(z, len(entry.values)))

    def _eval_taylor(self, z: np.ndarray, order: int) -> np.ndarray:
        cs = self.coeffs
        for _ in range(order):
            cs = tuple(k * c for k, c in enumerate(cs))[1:]
        if not cs:
            return np.zeros_like(z)
        acc = np.full_like(z, cs[-1])
        for c in reversed(cs[:-1]):
            acc = acc * z + c
        return acc

    def _grow_mobius(self, entry: "_Jet", z: np.ndarray, order: int) -> None:
        # g = prod (1 + u z)^e, s = g'/g and s' are built once per point
        # set and each order is the same closed form as in the module
        # docstring; g and s are kept on the entry until f'' is reached.
        q = self.q
        bases = [(1 + u * z, u, e) for u, e in self.terms]
        if not entry.values:
            if q != 0 and np.any(z == 0):
                # z^q and the q/z terms make 0 a zero or pole of the formulas;
                # grids never include it, so no removable-case handling here.
                raise SingularPoint("mobius-product formulas are singular at z = 0 when q != 0", witness=0j)
            for b, u, _ in bases:
                if np.any(np.abs(b) < 1e-14):
                    bad = z.ravel()[int(np.argmin(np.abs(b)))]
                    raise SingularPoint(f"factor 1 + ({u})z vanishes", witness=complex(bad))
            logg = np.zeros_like(z)
            for b, u, e in bases:
                factor = ("1 + uz", u.real.hex(), u.imag.hex())
                logg = logg + e * _log_memo.log(entry.key, factor, functools.partial(np.log, b))
            g = np.exp(logg)
            entry.g = g
            # an array z**1 is z, bit for bit, so q = 1 skips the power (a
            # 0-d z**1 is a numpy scalar, whose product rounds differently);
            # z ** (q - 1) and z ** (q - 2) stay, since a product by 1 + 0j
            # can flip signed zeros
            entry.push(g if q == 0 else (z if q == 1 and z.ndim else z**q) * g)
        g = entry.g
        if order >= 1 and len(entry.values) == 1:
            s = np.zeros_like(z)
            for b, u, e in bases:
                s = s + e * u / b
            entry.s = s
            entry.push(g * s if q == 0 else z ** (q - 1) * g * (q + z * s))
        if order == 2 and len(entry.values) == 2:
            s = entry.s
            sp = np.zeros_like(z)
            for b, u, e in bases:
                sp = sp - e * u * u / (b * b)
            if q == 0:
                entry.push(g * (s * s + sp))
            else:
                entry.push(z ** (q - 2) * g * (q * (q - 1) + 2 * q * z * s + z * z * (s * s + sp)))
            entry.g = entry.s = None

    # ------------------------------------------------------------------
    # series conversion

    def taylor_coefficients(self, n: int) -> tuple[complex, ...]:
        """Coefficients c_0..c_n of the Maclaurin expansion.

        For a product form the expansion of each (1 + u z)^e uses the
        generalized binomial recurrence b_k = b_{k-1} (e - k + 1) u / k,
        the factors are convolved, and the z^q prefactor shifts the
        result (q < 0 has a pole at 0 and is rejected).
        """
        if n < 0:
            raise ValidationError("need n >= 0 coefficients")
        if self.variant is Variant.TAYLOR:
            cs = self.coeffs[: n + 1]
            return cs + (0j,) * (n + 1 - len(cs))
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
        if self.variant is Variant.TAYLOR:
            return AnalyticFunction.taylor(cs, self.tag)
        if self.q >= 1:
            tag: Tag = ATag(self.q)
        else:
            tag = HTag(cs[0], 1)
        return AnalyticFunction.taylor(cs, tag)

    # ------------------------------------------------------------------
    # JSON interchange: complex numbers are [re, im] pairs

    def to_json(self) -> dict:
        if self.variant is Variant.TAYLOR:
            if isinstance(self.tag, ATag):
                tag = {"class": "A", "p": self.tag.p}
            else:
                tag = {"class": "H", "a": [self.tag.a.real, self.tag.a.imag], "n": self.tag.n}
            return {
                "variant": "taylor",
                "tag": tag,
                "coeffs": [[c.real, c.imag] for c in self.coeffs],
            }
        return {
            "variant": "mobius",
            "q": self.q,
            "terms": [[[u.real, u.imag], e] for u, e in self.terms],
        }

    @classmethod
    def from_json(cls, data: Union[str, dict]) -> "AnalyticFunction":
        if isinstance(data, str):
            try:
                data = json.loads(data)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"payload is not valid JSON: {exc}") from exc
        try:
            variant = data["variant"]
            if variant == "taylor":
                raw = data["tag"]
                if raw["class"] == "A":
                    tag: Tag = ATag(_as_integer(raw["p"], "tag p"))
                elif raw["class"] == "H":
                    a = complex(*_pair(raw["a"], "tag a"))
                    tag = HTag(a, _as_integer(raw.get("n", 1), "tag n"))
                else:
                    raise ValidationError(f"unknown tag class {raw['class']!r}")
                coeffs = [complex(*_pair(c, "a coefficient")) for c in data["coeffs"]]
                return cls.taylor(coeffs, tag)
            if variant == "mobius":
                terms = []
                for term in data["terms"]:
                    u, e = _pair(term, "a term [u, e]")
                    terms.append((complex(*_pair(u, "a term's u")), float(e)))
                return cls.mobius(_as_integer(data["q"], "prefactor exponent q"), terms)
        except ValidationError:
            raise
        except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
            # ValueError and OverflowError: float("x"), or an integer beyond the float range
            raise ValidationError(f"malformed function description: {exc}") from exc
        raise ValidationError(f"unknown variant {variant!r}")


# ----------------------------------------------------------------------
# zeros of f and f' in the disk, from polynomial roots


def _mobius_derivative_poly(f: AnalyticFunction) -> np.ndarray:
    """Coefficients, lowest first, of q prod(1 + u_i z) + z sum e_i u_i prod_{j != i}(1 + u_j z).

    f' = z^(q-1) g (q + z sum e_i u_i/(1 + u_i z)) with g zero-free on the
    disk, so off the origin f' vanishes exactly where this polynomial does.
    """
    factors = [np.array([1, u], dtype=complex) for u, _ in f.terms]

    def product(skip: int) -> np.ndarray:
        acc = np.ones(1, dtype=complex)
        for i, fac in enumerate(factors):
            if i != skip:
                acc = np.convolve(acc, fac)
        return acc

    out = f.q * product(-1)
    for i, (u, e) in enumerate(f.terms):
        out[1:] += e * u * product(i)
    return out


def _roots_radius(f: AnalyticFunction, order: int) -> float:
    """f.zero_radius(order) from the polynomial roots, not kept."""
    if order < 0:
        f0 = f.coeffs[0] if f.variant is Variant.TAYLOR else float(f.q == 0)
        return 0.0 if abs(f0) > _COEFF_TOL else math.inf
    if f.variant is Variant.TAYLOR:
        coeffs = np.asarray(f.coeffs, dtype=complex)
        if order:
            coeffs = coeffs[1:] * np.arange(1, coeffs.size)
    elif order == 0:
        return math.inf  # 1 + u z has no zero in the open disk when |u| <= 1
    else:
        coeffs = _mobius_derivative_poly(f)
    # a zero at the origin cancels in the functionals (or fails the ring at
    # tol); low coefficients within the tags' slack of 0 are part of it
    nonzero = np.flatnonzero(np.abs(coeffs) > _COEFF_TOL)
    if nonzero.size == 0:
        return math.inf
    radii = np.abs(np.roots(coeffs[nonzero[0] :][::-1]))
    inside = radii[radii < 1]
    return float(inside.min()) if inside.size else math.inf


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
