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
per factor and one exponential serve every order.  ``eval(z, order)``
is the last element of that jet.

Each thread keeps the jets of its last two (function, point set) pairs,
so a theorem scan that reads z f'/f in the hypothesis and 1 + z f''/f'
in the conclusion evaluates f once.  A hit needs the same function
object and a point array with the shape and bits of a private copy
taken at the first call, so changing the caller's array in place is
never served a stale jet; the cached arrays are read-only.  On the
default 23x720 grid an entry holds at most five complex arrays of
265 KB.  A jet that overflows or turns NaN raises NonFiniteValue at its
first non-finite point instead of printing numpy warnings; underflow to
0 stays legal.
"""

from __future__ import annotations

import json
import numbers
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .errors import (
    NonFiniteValue,
    OrderOutOfRange,
    SingularPoint,
    ValidationError,
    ZeroBase,
)

ComplexLike = Union[complex, np.ndarray]

_COEFF_TOL = 1e-12  # slack when validating tag-pinned coefficients


def principal_power(w: ComplexLike, c: float) -> ComplexLike:
    """w**c via the principal logarithm, Arg w in (-pi, pi].

    numpy places negative reals with a -0.0 imaginary part on the lower
    edge of the cut (Arg = -pi); those are folded back to +0.0 so the
    half-open convention holds for every input.
    """
    w = np.asarray(w, dtype=complex)
    if np.any(w == 0):
        raise ZeroBase("principal power of 0 is undefined", witness=0j)
    re = np.real(w)
    im = np.imag(w)
    # -0.0 -> +0.0 on the negative real axis only; elsewhere signed zero
    # of the imaginary part cannot change the argument.
    im = np.where((im == 0.0) & (re < 0.0), 0.0, im)
    w = re + 1j * im
    out = np.exp(c * np.log(w))
    if out.ndim == 0:
        return complex(out)
    return out


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
# jet memo: the last few (function, point set) jets of each thread

_JET_MEMO_SIZE = 2  # C37I/II alternate between f and its partner G on one grid
_jet_memo = threading.local()


class _Jet:
    """Derivatives of one function on one point set, keyed by a private copy.

    ``values`` holds f, f', ... up to the highest order computed so far;
    ``g`` and ``s`` carry a Mobius product's factor product and log
    derivative until f'' is reached.
    """

    __slots__ = ("f", "key", "values", "g", "s")

    def __init__(self, f: "AnalyticFunction", z: np.ndarray):
        self.f = f
        self.key = z.copy()
        self.values: list[np.ndarray] = []
        self.g = self.s = None

    def push(self, value: np.ndarray) -> None:
        value = np.asarray(value)  # 0-d arithmetic yields numpy scalars
        value.flags.writeable = False
        self.values.append(value)

    def holds(self, f: "AnalyticFunction", z: np.ndarray) -> bool:
        # bitwise, so signed zeros and NaN payloads never share a jet
        return self.f is f and self.key.shape == z.shape and np.array_equal(_bits(self.key), _bits(z))


def _bits(z: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(z).reshape(-1).view(np.int64)


def _memo_entry(f: "AnalyticFunction", z: np.ndarray) -> _Jet:
    """This thread's jet of f on z, new and empty unless it is one of the last few."""
    entries = _jet_memo.__dict__.setdefault("entries", [])
    for i, entry in enumerate(entries):
        if entry.holds(f, z):
            entries.append(entries.pop(i))  # most recently used last
            return entry
    entry = _Jet(f, z)
    entries.append(entry)
    if len(entries) > _JET_MEMO_SIZE:
        del entries[0]
    return entry


def _non_finite(f: "AnalyticFunction", z: np.ndarray, order: int) -> NonFiniteValue:
    """The error for a jet that overflowed, witnessed by its first non-finite point."""
    scratch = _Jet(f, z)
    with np.errstate(all="ignore"):
        f._grow(scratch, z, order)
    bad = np.flatnonzero(~np.all([np.isfinite(v) for v in scratch.values], axis=0))
    witness = complex(z.ravel()[bad[0]]) if bad.size else None
    return NonFiniteValue(f"f or a derivative up to order {order} is not finite", witness=witness)


def _as_integer(value, what: str) -> int:
    """An integer given as an int or an integral float; anything else is rejected."""
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real) and float(value).is_integer():
            return int(value)
    raise ValidationError(f"{what} must be an integer, got {value!r}")


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
        _validate_taylor(cs, tag)
        return cls(Variant.TAYLOR, coeffs=cs, tag=tag)

    @classmethod
    def mobius(cls, q: int, terms: Sequence[tuple[complex, float]]) -> "AnalyticFunction":
        if not isinstance(q, int):
            raise ValidationError(f"prefactor exponent must be an integer, got {q!r}")
        ts = []
        for u, e in terms:
            u = complex(u)
            if abs(u) > 1 + 1e-9:
                raise ValidationError(f"term base coefficient must satisfy |u| <= 1, got |{u}|")
            ts.append((u, float(e)))
        return cls(Variant.MOBIUS_POWER_PRODUCT, q=q, terms=tuple(ts))

    # ------------------------------------------------------------------
    # evaluation

    def eval(self, z: ComplexLike, order: int = 0) -> ComplexLike:
        """Value (order 0) or exact derivative (order 1, 2) at z."""
        return self.jet(z, order)[order]

    def jet(self, z: ComplexLike, order: int = 2) -> tuple[ComplexLike, ...]:
        """(f, f', ..., f^(order)) at z, exact, for order 0, 1 or 2.

        Arrays come back read-only and may be shared with later calls:
        each thread keeps the jets of its last two (function, point set)
        pairs, so a functional that reads f, f' and f'' on the grid, and
        a second functional of the same f on the same grid, evaluate the
        Mobius logarithms and exponential once.
        """
        if order not in (0, 1, 2):
            raise OrderOutOfRange(f"derivative order must be 0, 1 or 2, got {order}")
        z = np.asarray(z, dtype=complex)
        entry = _memo_entry(self, z)
        if len(entry.values) <= order:
            try:
                with np.errstate(over="raise", invalid="raise"):
                    self._grow(entry, z, order)
            except FloatingPointError:
                raise _non_finite(self, z, order) from None
        out = entry.values[: order + 1]
        if z.ndim == 0:
            return tuple(complex(v) for v in out)
        return tuple(out)

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
            for b, _, e in bases:
                logg = logg + e * np.log(b)
            g = np.exp(logg)
            entry.g = g
            entry.push(z**q * g if q != 0 else g)
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
                    a = raw["a"]
                    tag = HTag(complex(a[0], a[1]), _as_integer(raw.get("n", 1), "tag n"))
                else:
                    raise ValidationError(f"unknown tag class {raw['class']!r}")
                coeffs = [complex(re, im) for re, im in data["coeffs"]]
                return cls.taylor(coeffs, tag)
            if variant == "mobius":
                terms = [(complex(u[0], u[1]), float(e)) for u, e in data["terms"]]
                return cls.mobius(_as_integer(data["q"], "prefactor exponent q"), terms)
        except (KeyError, TypeError, IndexError) as exc:
            raise ValidationError(f"malformed function description: {exc}") from exc
        raise ValidationError(f"unknown variant {variant!r}")


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
