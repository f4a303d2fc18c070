"""Implication checks: hypothesis functional vs. concluded property, per function.

Each registered case pairs a grid-checkable hypothesis (a forbidden slit
or region for one functional, or an argument window) with a concluded
membership statement.  verify_theorem scans a family of functions and
reports, per member, whether the hypothesis held and whether the
conclusion then held; a conclusion failure under a held hypothesis is a
counterexample and the scan reports it with a witness point.

A hypothesis that fails on the grid makes that member vacuous, never a
counterexample.  Grid checks of slit avoidance are permissive (a value
can dodge the slit between samples), so these scans probe implications
rather than prove them; margins quantify how comfortably each side held.
"""

from __future__ import annotations

import cmath
import math
import numbers
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import AnalyticFunction, _as_integer, principal_arg
from .constants import (
    Direction,
    Ray,
    RegionKind,
    SlitSpec,
    a_min,
    arg_theorem_constants,
    build_region,
    c_lambda,
    lambda_tilt,
    radius_convexity,
    radius_inv_alpha_convexity,
    slit_constants,
    strong_orders,
    thm3_constants,
)
from .errors import (
    BadFamilySpec,
    DivisionByZeroInFunctional,
    EvaluationError,
    OutOfRange,
    ValidationError,
)
from .functionals import FunctionalSpec, evaluate_functional
from .membership import (
    ClassSpec,
    DiskGrid,
    MembershipReport,
    Verdict,
    check_membership,
    classify,
    default_grid,
    sample_grid,
    sector_margins,
    slit_avoidance,
    region_containment,
)

# ======================================================================
# function families
# ======================================================================


class FamilyKind(Enum):
    SECTOR_POWERS = "sector"
    MOBIUS_RATIOS = "mobius"
    RANDOM_TAYLOR = "random"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class FamilyMember:
    label: str
    f: AnalyticFunction
    g: Optional[AnalyticFunction] = None


@dataclass(frozen=True)
class FunctionFamily:
    kind: FamilyKind
    a_values: tuple[float, ...] = ()
    m_values: tuple[float, ...] = ()
    u_values: tuple[float, ...] = ()
    v_values: tuple[float, ...] = ()
    seed: int = 0
    degree: int = 8
    count: int = 10
    tag: str = "A"
    members: tuple[FamilyMember, ...] = ()


def sector_map(a: float, m: float) -> AnalyticFunction:
    """Normalized map onto a rotated sector: ((1 + e^{i m pi} z)/(1 - z))^a.

    Image arguments sweep [-a(1-m)pi/2, a(1+m)pi/2] as z runs over the disk.
    """
    if not 0 < a <= 1:
        raise OutOfRange(f"sector aperture must lie in (0, 1], got {a}")
    if not -1 < m < 1:
        raise OutOfRange(f"sector rotation must lie in (-1, 1), got {m}")
    u = cmath.exp(1j * math.pi * m)
    return AnalyticFunction.mobius(0, [(u, a), (-1.0 + 0j, -a)])


_DECAY = 0.15


def _random_taylor(seed: int, degree: int, count: int, tag: str) -> list[FamilyMember]:
    # decay 0.15 keeps every draw comfortably inside the classes the
    # default scans conclude; see the membership margins in the tests
    from .core import ATag, HTag

    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        if tag == "A":
            coeffs = [0j, 1 + 0j]
            lead = 1
            fn_tag = "A1"
        else:
            coeffs = [1 + 0j]
            lead = 0
            fn_tag = "H"
        for k in range(lead + 1, degree + 1):
            rho = rng.uniform(0.0, 1.0)
            phi = rng.uniform(0.0, 2 * math.pi)
            coeffs.append(rho * _DECAY ** (k - lead) * cmath.exp(1j * phi))
        t = ATag(1) if tag == "A" else HTag(1 + 0j, 1)
        f = AnalyticFunction.taylor(coeffs, t)
        out.append(FamilyMember(f"{fn_tag}-random[{seed}:{i}]", f))
    return out


def make_family(family: FunctionFamily) -> list[FamilyMember]:
    """Expand a family description into labelled members, deterministically."""
    k = family.kind
    if k is FamilyKind.EXPLICIT:
        if not family.members:
            raise BadFamilySpec("explicit family has no members")
        return list(family.members)
    if k is FamilyKind.SECTOR_POWERS:
        if not family.a_values or not family.m_values:
            raise BadFamilySpec("sector family needs aperture and rotation grids")
        return [
            FamilyMember(f"sector(a={a:g}, m={m:g})", sector_map(a, m))
            for a in family.a_values
            for m in family.m_values
        ]
    if k is FamilyKind.MOBIUS_RATIOS:
        if not family.u_values or not family.v_values:
            raise BadFamilySpec("ratio family needs both coefficient grids")
        out = []
        for u in family.u_values:
            for v in family.v_values:
                terms = []
                if u != 0:
                    terms.append((u + 0j, 1))
                if v != 0:
                    terms.append((-v + 0j, -1))
                f = AnalyticFunction.mobius(1, terms)
                out.append(FamilyMember(f"ratio(u={u:g}, v={v:g})", f))
        return out
    if k is FamilyKind.RANDOM_TAYLOR:
        if family.count < 1 or family.degree < 2:
            raise BadFamilySpec("random family needs count >= 1 and degree >= 2")
        if family.tag not in ("A", "H"):
            raise BadFamilySpec(f"random family tag must be 'A' or 'H', got {family.tag!r}")
        return _random_taylor(family.seed, family.degree, family.count, family.tag)
    raise BadFamilySpec(f"unknown family kind {k!r}")  # pragma: no cover


_DEFAULT_UV = (-0.9, -0.5, 0.0, 0.5, 0.9)


def mobius_ratio_family(u_values=_DEFAULT_UV, v_values=_DEFAULT_UV) -> FunctionFamily:
    return FunctionFamily(FamilyKind.MOBIUS_RATIOS, u_values=tuple(u_values), v_values=tuple(v_values))


def sector_power_family(
    a_values=(0.25, 0.5, 0.75, 1.0), m_values=(-0.2, 0.0, 0.2)
) -> FunctionFamily:
    return FunctionFamily(FamilyKind.SECTOR_POWERS, a_values=tuple(a_values), m_values=tuple(m_values))


def random_taylor_family(seed: int, degree: int = 8, count: int = 10, tag: str = "A") -> FunctionFamily:
    return FunctionFamily(FamilyKind.RANDOM_TAYLOR, seed=seed, degree=degree, count=count, tag=tag)


# ======================================================================
# the tilted half-plane lemma
# ======================================================================


def verify_lemma_tilt(b: float, m: float, grid: Optional[DiskGrid] = None) -> MembershipReport:
    """Check min Re(e^{-i lam} h) >= 0 for h = (1 + e^{i m pi} z)/(1 - b z),
    with lam the tilt angle of the coefficient pair (b, m).

    Verdict at eps = 0: the bound is sharp (the infimum over the disk is
    exactly 0 in degenerate corners), so any nonnegative grid minimum
    counts as HOLDS.
    """
    grid = grid or default_grid()
    lam = lambda_tilt(b, m)
    u = cmath.exp(1j * math.pi * m)
    h = AnalyticFunction.mobius(0, [(u, 1), (-b + 0j, -1)] if b != 0 else [(u, 1)])
    w = np.asarray(h.eval(grid.points, 0), dtype=complex)
    vals = np.real(np.exp(-1j * lam) * w)
    idx = int(np.argmin(vals))
    margin = float(vals[idx])
    verdict = Verdict.HOLDS if margin >= 0 else Verdict.FAILS
    return MembershipReport(verdict, margin, complex(grid.points[idx]), grid.points.size)


# ======================================================================
# case registry
# ======================================================================

ParamValue = Union[float, int, str]


def _check_param(case_id: str, key: str, value, default: ParamValue) -> ParamValue:
    """A case parameter takes values of its default's type: a string, an
    integer (integral floats are converted) or a finite real number."""
    what = f"case {case_id} parameter {key!r}"
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ValidationError(f"{what} must be a string, got {value!r}")
        return value
    try:
        finite = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValidationError(f"{what} must be a finite number, got {value!r}")
    if isinstance(default, int):
        return _as_integer(value, what)
    return value


@dataclass(frozen=True)
class TheoremCase:
    """An implication to scan, identified by an opaque id plus parameters."""

    id: str
    params: tuple[tuple[str, ParamValue], ...] = ()

    @classmethod
    def make(cls, case_id: str, **params: ParamValue) -> "TheoremCase":
        if case_id not in CASE_IDS:
            raise ValidationError(f"unknown case id {case_id!r}; known: {sorted(CASE_IDS)}")
        defaults = dict(_REGISTRY[case_id].defaults)
        for key, value in params.items():
            if key == "lambda":  # spelled-out JSON key for the tilt parameter
                key = "lam"
            if key not in defaults:
                raise ValidationError(f"case {case_id} takes {sorted(defaults)}, not {key!r}")
            defaults[key] = _check_param(case_id, key, value, defaults[key])
        return cls(case_id, tuple(sorted(defaults.items())))

    @property
    def params_dict(self) -> dict:
        return dict(self.params)


@dataclass
class MemberOutcome:
    label: str
    hyp_verdict: Verdict
    hyp_margin: float
    hyp_witness: Optional[complex] = None
    concl_verdict: Optional[Verdict] = None
    concl_margin: float = math.nan
    concl_witness: Optional[complex] = None
    error: Optional[str] = None

    def to_json(self) -> dict:
        def pt(w):
            return None if w is None else [w.real, w.imag]

        def num(x):
            return None if math.isnan(x) else x

        return {
            "label": self.label,
            "hypothesis": {
                "verdict": self.hyp_verdict.value,
                "margin": num(self.hyp_margin),
                "witness": pt(self.hyp_witness),
            },
            "conclusion": None
            if self.concl_verdict is None
            else {
                "verdict": self.concl_verdict.value,
                "margin": num(self.concl_margin),
                "witness": pt(self.concl_witness),
            },
            "error": self.error,
        }


@dataclass
class VerificationReport:
    case_id: str
    params: dict
    cases_total: int
    hypothesis_holds_count: int
    conclusion_failures: list[tuple[str, Optional[complex], float]]
    errors: list[tuple[str, str]]
    rows: list[MemberOutcome] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def counterexample_found(self) -> bool:
        return bool(self.conclusion_failures)

    def to_json(self) -> dict:
        return {
            "case": self.case_id,
            "params": self.params,
            "functions_scanned": self.cases_total,
            "hypothesis_holds": self.hypothesis_holds_count,
            "counterexamples": [
                {"label": lbl, "witness": None if w is None else [w.real, w.imag], "margin": m}
                for lbl, w, m in self.conclusion_failures
            ],
            "errors": [{"label": lbl, "message": msg} for lbl, msg in self.errors],
            "rows": [r.to_json() for r in self.rows],
        }

    def to_csv(self) -> str:
        lines = ["label,hyp_verdict,hyp_margin,concl_verdict,concl_margin,error"]
        for r in self.rows:
            cv = "" if r.concl_verdict is None else r.concl_verdict.value
            cm = "" if math.isnan(r.concl_margin) else f"{r.concl_margin:.12g}"
            err = (r.error or "").replace(",", ";").replace("\n", " ")
            lines.append(
                f"{r.label},{r.hyp_verdict.value},{r.hyp_margin:.12g},{cv},{cm},{err}"
            )
        return "\n".join(lines) + "\n"


Check = Callable[[FamilyMember, DiskGrid, float], tuple[float, Optional[complex]]]


@dataclass(frozen=True)
class _CaseImpl:
    hypothesis: Check
    conclusion: Check
    default_family: Callable[[], list[FamilyMember]]


@dataclass(frozen=True)
class _CaseDef:
    defaults: dict
    build: Callable[[dict], _CaseImpl]
    needs_partner: bool = False


# ---------------------------------------------------------------- helpers


def _functional_slit_hyp(spec: FunctionalSpec, slit: SlitSpec) -> Check:
    def hyp(member, grid, eps):
        vals = evaluate_functional(spec, member.f, grid.points, g=member.g)
        chk = slit_avoidance(vals, slit, eps)
        return chk.min_distance, chk.witness

    return hyp


def _membership_concl(spec: ClassSpec) -> Check:
    def concl(member, grid, eps):
        rep = check_membership(spec, member.f, grid, eps)
        return rep.margin, rep.witness

    return concl


def _tilted_positivity(values: np.ndarray, points: np.ndarray, lam: float):
    vals = np.real(np.exp(-1j * lam) * values)
    idx = int(np.argmin(vals))
    return float(vals[idx]), complex(points[idx])


def _window_margin(values: np.ndarray, points: np.ndarray, lo: float, hi: float):
    margins = np.minimum(values - lo, hi - values)
    idx = int(np.argmin(margins))
    return float(margins[idx]), complex(points[idx])


def _symmetric_slit(height: float) -> SlitSpec:
    return SlitSpec(
        (
            Ray(complex(0.0, height), Direction.UP),
            Ray(complex(0.0, -height), Direction.DOWN),
        )
    )


def _const(value: complex, label: str) -> FamilyMember:
    from .core import HTag

    return FamilyMember(label, AnalyticFunction.taylor([value], HTag(value, 1)))


def _h_poly(coeffs, label) -> FamilyMember:
    from .core import HTag

    return FamilyMember(label, AnalyticFunction.taylor(coeffs, HTag(coeffs[0], 1)))


def _a_mobius(terms, label) -> FamilyMember:
    return FamilyMember(label, AnalyticFunction.mobius(1, terms))


def _near_constant_h(extra=()) -> list[FamilyMember]:
    base = [
        _const(1 + 0j, "h=1"),
        _h_poly([1 + 0j, 0.2 + 0j], "h=1+0.2z"),
        _h_poly([1 + 0j, -0.15 + 0j, 0.08 + 0j], "h=1-0.15z+0.08z^2"),
        _h_poly([1 + 0j, 0.1j], "h=1+0.1iz"),
    ]
    return base + list(extra)


def _ratio_members(v_values) -> list[FamilyMember]:
    out = [FamilyMember("f=z", AnalyticFunction.mobius(1, []))]
    for v in v_values:
        sign = "-" if v >= 0 else "+"
        out.append(_a_mobius([(-v + 0j, -1)], f"f=z/(1{sign}{abs(v):g}z)"))
    return out


# ---------------------------------------------------------------- case builders


def _build_t31(p: dict) -> _CaseImpl:
    alpha, beta, n = p["alpha"], p["beta"], p["n"]
    slit = slit_constants(alpha, beta, n)
    spec = FunctionalSpec.slit1_lhs(alpha, beta)
    concl = ClassSpec.g(alpha, beta)

    def family():
        sectors = [
            FamilyMember("sector(a=0.4, m=0)", sector_map(0.4, 0.0)),
            FamilyMember("sector(a=0.4, m=0.5)", sector_map(0.4, 0.5)),
            FamilyMember("sector(a=0.3, m=-0.3)", sector_map(0.3, -0.3)),
        ]
        return _near_constant_h(sectors) + _random_taylor(11, 8, 5, "H")

    return _CaseImpl(_functional_slit_hyp(spec, slit), _membership_concl(concl), family)


def _build_c32(p: dict) -> _CaseImpl:
    lam = p["lam"]
    slit = _symmetric_slit(c_lambda(lam))
    spec = FunctionalSpec.mixed(lam)

    def family():
        return _ratio_members((0.5, -0.5, 0.75, -0.75)) + [
            _a_mobius([(0.25 + 0j, 1)], "f=z(1+0.25z)")
        ] + _random_taylor(5, 8, 5, "A")

    return _CaseImpl(
        _functional_slit_hyp(spec, slit),
        _membership_concl(ClassSpec.starlike()),
        family,
    )


def _build_c33(p: dict) -> _CaseImpl:
    slit = _symmetric_slit(c_lambda(0.0))
    spec = FunctionalSpec.convex()

    def family():
        return _ratio_members((0.5, -0.5, 0.75, -0.75)) + [
            _a_mobius([(0.25 + 0j, 1)], "f=z(1+0.25z)")
        ] + _random_taylor(7, 8, 5, "A")

    return _CaseImpl(
        _functional_slit_hyp(spec, slit),
        _membership_concl(ClassSpec.starlike()),
        family,
    )


def _build_t34(p: dict) -> _CaseImpl:
    lam = p["lam"]
    slit = _symmetric_slit(a_min(lam))
    spec = FunctionalSpec.tilted_lhs(lam)

    def family():
        # sector apertures kept inside the tilted half-plane target:
        # need a(1-m) < 1 - 2 lam/pi and a(1+m) < 1 + 2 lam/pi
        sectors = [
            FamilyMember("sector(a=0.5, m=0.3)", sector_map(0.5, 0.3)),
            FamilyMember("sector(a=0.9, m=0.4)", sector_map(0.9, 0.4)),
            FamilyMember("sector(a=0.8, m=0.2)", sector_map(0.8, 0.2)),
        ]
        return _near_constant_h(sectors) + _random_taylor(13, 8, 5, "H")

    return _CaseImpl(
        _functional_slit_hyp(spec, slit),
        _membership_concl(ClassSpec.p_tilt(-lam)),
        family,
    )


def _build_c35(p: dict) -> _CaseImpl:
    lam, alpha = p["lam"], p["alpha"]
    if not 0 <= alpha < 1:
        raise OutOfRange(f"order must lie in [0, 1), got {alpha}")
    slit = _symmetric_slit(a_min(lam))
    target = alpha * math.cos(lam)

    def hyp(member, grid, eps):
        z = grid.points
        p0 = np.asarray(member.f.eval(z, 0), dtype=complex)
        p1 = np.asarray(member.f.eval(z, 1), dtype=complex)
        den = p0 - alpha
        bad = np.abs(den) < 1e-14
        if np.any(bad):
            w = complex(z[np.argmax(bad)])
            raise DivisionByZeroInFunctional("p - alpha", w)
        h = den / (1 - alpha)
        vals = np.exp(-1j * lam) * h + z * p1 / den
        chk = slit_avoidance(vals, slit, eps)
        return chk.min_distance, chk.witness

    def concl(member, grid, eps):
        z = grid.points
        p0 = np.asarray(member.f.eval(z, 0), dtype=complex)
        vals = np.real(np.exp(-1j * lam) * p0) - target
        idx = int(np.argmin(vals))
        return float(vals[idx]), complex(z[idx])

    def family():
        return [
            _const(1 + 0j, "p=1"),
            _h_poly([1 + 0j, 0.2 + 0j], "p=1+0.2z"),
            _h_poly([1 + 0j, -0.25 + 0j], "p=1-0.25z"),
            _h_poly([1 + 0j, 0.15j], "p=1+0.15iz"),
        ] + _random_taylor(17, 8, 4, "H")

    return _CaseImpl(hyp, concl, family)


def _t35_family() -> list[FamilyMember]:
    return [
        FamilyMember("f=z", AnalyticFunction.mobius(1, [])),
        _a_mobius([(0.2 + 0j, 1)], "f=z(1+0.2z)"),
        _a_mobius([(-0.2 + 0j, 1)], "f=z(1-0.2z)"),
        _a_mobius([(0.2 + 0j, -1)], "f=z/(1+0.2z)"),
        _a_mobius([(0.15 + 0j, 2)], "f=z(1+0.15z)^2"),
        _a_mobius([(-0.15 + 0j, -2)], "f=z/(1-0.15z)^2"),
    ] + _random_taylor(19, 8, 5, "A")


def _u_positivity_concl(alpha: float, lam: float) -> Check:
    spec = FunctionalSpec.u_func(alpha)

    def concl(member, grid, eps):
        vals = np.asarray(evaluate_functional(spec, member.f, grid.points), dtype=complex)
        return _tilted_positivity(vals, grid.points, lam)

    return concl


def _build_t35(p: dict) -> _CaseImpl:
    gamma, delta, alpha, lam, pp = p["gamma"], p["delta"], p["alpha"], p["lam"], p["p"]
    consts = thm3_constants(gamma, delta, pp, lam)
    spec = FunctionalSpec.thm3_lhs(gamma, delta, alpha, pp)
    return _CaseImpl(
        _functional_slit_hyp(spec, consts.slit),
        _u_positivity_concl(alpha, lam),
        _t35_family,
    )


_C37_PARTNERS = ((), ((-0.4 + 0j, -1),), ((0.3 + 0j, 1),))
_C37_PARTNER_LABELS = ("g=z", "g=z/(1-0.4z)", "g=z(1+0.3z)")


def _starlike_partners() -> list[tuple[str, AnalyticFunction]]:
    out = []
    for terms, lbl in zip(_C37_PARTNERS, _C37_PARTNER_LABELS):
        g = AnalyticFunction.mobius(1, list(terms))
        rep = check_membership(ClassSpec.starlike(), g)
        if rep.verdict is not Verdict.HOLDS:
            raise BadFamilySpec(f"partner {lbl} is not starlike on the grid")
        out.append((lbl, g))
    return out


def _paired_family() -> list[FamilyMember]:
    firsts = [
        ("f=z", AnalyticFunction.mobius(1, [])),
        ("f=z(1+0.2z)", AnalyticFunction.mobius(1, [(0.2 + 0j, 1)])),
        ("f=z/(1-0.3z)", AnalyticFunction.mobius(1, [(0.3 + 0j, -1)])),
    ]
    partners = _starlike_partners()
    return [
        FamilyMember(f"{fl}, {gl}", f, g) for fl, f in firsts for gl, g in partners
    ]


def attach_partners(members: Sequence[FamilyMember]) -> list[FamilyMember]:
    """Pair single functions with the verified starlike partner list."""
    partners = None  # verified on first use: paired families need none
    out = []
    for mem in members:
        if mem.g is not None:
            out.append(mem)
            continue
        if partners is None:
            partners = _starlike_partners()
        for gl, g in partners:
            out.append(FamilyMember(f"{mem.label}, {gl}", mem.f, g))
    return out


def _build_c37i(p: dict) -> _CaseImpl:
    gamma, delta, lam, pp = p["gamma"], p["delta"], p["lam"], p["p"]
    consts = thm3_constants(gamma, delta, pp, lam)
    spec = FunctionalSpec.two_fn_ratio(gamma, delta)

    def concl(member, grid, eps):
        from .functionals import ratio_target

        vals = ratio_target(member.f, member.g, grid.points)
        return _tilted_positivity(np.asarray(vals, dtype=complex), grid.points, lam)

    return _CaseImpl(_functional_slit_hyp(spec, consts.slit), concl, _paired_family)


def _build_c37ii(p: dict) -> _CaseImpl:
    gamma, delta, alpha, lam, pp = p["gamma"], p["delta"], p["alpha"], p["lam"], p["p"]
    consts = thm3_constants(gamma, delta, pp, lam)
    spec = FunctionalSpec.two_fn_power(gamma, delta, alpha)

    def concl(member, grid, eps):
        from .functionals import power_target

        vals = power_target(member.f, member.g, alpha, grid.points)
        return _tilted_positivity(np.asarray(vals, dtype=complex), grid.points, lam)

    return _CaseImpl(_functional_slit_hyp(spec, consts.slit), concl, _paired_family)


def _build_c38(p: dict) -> _CaseImpl:
    gamma, delta, alpha, lam, pp = p["gamma"], p["delta"], p["alpha"], p["lam"], p["p"]
    try:
        kind = RegionKind(str(p["kind"]))
    except ValueError:
        raise ValidationError(
            f"region kind must be one of {[k.value for k in RegionKind]}, got {p['kind']!r}"
        ) from None
    consts = thm3_constants(gamma, delta, pp, lam)
    region = build_region(kind, x=consts.x, y=consts.y_min, p=pp, gamma=gamma, delta=delta)
    spec = FunctionalSpec.thm3_lhs(gamma, delta, alpha, pp)

    def hyp(member, grid, eps):
        vals = evaluate_functional(spec, member.f, grid.points)
        chk = region_containment(vals, region, eps)
        return chk.margin, chk.witness

    return _CaseImpl(hyp, _u_positivity_concl(alpha, lam), _t35_family)


def _build_t39(p: dict) -> _CaseImpl:
    alpha, beta, gamma = p["alpha"], p["beta"], p["gamma"]
    consts = arg_theorem_constants(alpha, beta, gamma)
    lo = consts.delta1 * math.pi / 2
    hi = consts.delta2 * math.pi / 2
    spec = FunctionalSpec.arg_sum(gamma)

    def hyp(member, grid, eps):
        vals = np.real(
            np.asarray(evaluate_functional(spec, member.f, grid.points), dtype=complex)
        )
        return _window_margin(vals, grid.points, lo, hi)

    def concl(member, grid, eps):
        w = np.asarray(member.f.eval(grid.points, 0), dtype=complex)
        margins = sector_margins(w, alpha, beta)
        idx = int(np.argmin(margins))
        return float(margins[idx]), complex(grid.points[idx])

    def family():
        sectors = [
            FamilyMember("sector(a=0.2, m=0.2)", sector_map(0.2, 0.2)),
            FamilyMember("sector(a=0.3, m=0.5)", sector_map(0.3, 0.5)),
            FamilyMember("sector(a=0.15, m=-0.2)", sector_map(0.15, -0.2)),
        ]
        return [
            _const(1 + 0j, "h=1"),
            _h_poly([1 + 0j, 0.15 + 0j], "h=1+0.15z"),
            _h_poly([1 + 0j, -0.1 + 0j, 0.05 + 0j], "h=1-0.1z+0.05z^2"),
        ] + sectors + _random_taylor(29, 8, 4, "H")

    return _CaseImpl(hyp, concl, family)


def _weighted_arg_values(f: AnalyticFunction, z: np.ndarray, gamma: float) -> np.ndarray:
    s = np.asarray(evaluate_functional(FunctionalSpec.starlike(), f, z), dtype=complex)
    c = np.asarray(evaluate_functional(FunctionalSpec.convex(), f, z), dtype=complex)
    return (1 - gamma) * principal_arg(s) + gamma * principal_arg(c)


def _build_c310(p: dict) -> _CaseImpl:
    alpha, beta, gamma = p["alpha"], p["beta"], p["gamma"]
    consts = arg_theorem_constants(alpha, beta, gamma)
    lo = consts.delta1 * math.pi / 2
    hi = consts.delta2 * math.pi / 2

    def hyp(member, grid, eps):
        vals = _weighted_arg_values(member.f, grid.points, gamma)
        return _window_margin(vals, grid.points, lo, hi)

    def concl(member, grid, eps):
        s = np.asarray(
            evaluate_functional(FunctionalSpec.starlike(), member.f, grid.points),
            dtype=complex,
        )
        margins = sector_margins(s, alpha, beta)
        idx = int(np.argmin(margins))
        return float(margins[idx]), complex(grid.points[idx])

    def family():
        # v = 0.5 exceeds the conclusion sector but also leaves the
        # hypothesis window on the same rings, so it stays vacuous
        return _ratio_members((0.1, 0.25, 0.5)) + [
            _a_mobius([(0.1 + 0j, 1)], "f=z(1+0.1z)")
        ]

    return _CaseImpl(hyp, concl, family)


def _build_c311(p: dict) -> _CaseImpl:
    alpha, gamma = p["alpha"], p["gamma"]
    orders = strong_orders(alpha, gamma)
    half = orders.delta * math.pi / 2

    def hyp(member, grid, eps):
        vals = _weighted_arg_values(member.f, grid.points, gamma)
        return _window_margin(vals, grid.points, -half, half)

    def concl(member, grid, eps):
        z = grid.points
        s = np.asarray(evaluate_functional(FunctionalSpec.starlike(), member.f, z), dtype=complex)
        c = np.asarray(evaluate_functional(FunctionalSpec.convex(), member.f, z), dtype=complex)
        m1 = sector_margins(s, alpha, alpha)
        m2 = sector_margins(c, orders.convex_order, orders.convex_order)
        margins = np.minimum(m1, m2)
        idx = int(np.argmin(margins))
        return float(margins[idx]), complex(z[idx])

    def family():
        return _ratio_members((0.3, -0.3, 0.55, -0.55)) + [
            _a_mobius([(0.2 + 0j, 1)], "f=z(1+0.2z)")
        ] + _random_taylor(31, 8, 4, "A")

    return _CaseImpl(hyp, concl, family)


def _scaled_grid(grid: DiskGrid, factor: float) -> DiskGrid:
    return sample_grid([factor * r for r in grid.radii], grid.angles_per_ring)


def _radius_case(lam: float, alpha: float, radius: float, concl_spec: ClassSpec) -> _CaseImpl:
    u_spec = ClassSpec.u(lam, alpha)
    r_spec = ClassSpec.r()

    def hyp(member, grid, eps):
        ru = check_membership(u_spec, member.f, grid, eps)
        rr = check_membership(r_spec, member.f, grid, eps)
        if math.isnan(ru.margin) or math.isnan(rr.margin):
            bad = ru if math.isnan(ru.margin) else rr
            return math.nan, bad.witness
        if ru.margin <= rr.margin:
            return ru.margin, ru.witness
        return rr.margin, rr.witness

    def concl(member, grid, eps):
        inner = _scaled_grid(grid, radius)
        rep = check_membership(concl_spec, member.f, inner, eps)
        return rep.margin, rep.witness

    def family():
        return _ratio_members((0.5, -0.5, 0.9, -0.9)) + [
            _a_mobius([(0.3 + 0j, 1)], "f=z(1+0.3z)"),
            _a_mobius([(-0.3 + 0j, 1)], "f=z(1-0.3z)"),
        ]

    return _CaseImpl(hyp, concl, family)


def _build_t41(p: dict) -> _CaseImpl:
    lam, alpha = p["lam"], p["alpha"]
    return _radius_case(lam, alpha, radius_convexity(lam, alpha), ClassSpec.convex())


def _build_c42(p: dict) -> _CaseImpl:
    alpha = p["alpha"]
    return _radius_case(1.0, alpha, radius_convexity(1.0, alpha), ClassSpec.convex())


def _build_t43(p: dict) -> _CaseImpl:
    lam, alpha = p["lam"], p["alpha"]
    radius = radius_inv_alpha_convexity(lam, alpha)
    return _radius_case(lam, alpha, radius, ClassSpec.m_alpha(1.0 / alpha))


def _build_c44(p: dict) -> _CaseImpl:
    lam = p["lam"]
    radius = radius_inv_alpha_convexity(lam, 1.0)
    return _radius_case(lam, 1.0, radius, ClassSpec.m_alpha(1.0))


_PI6 = math.pi / 6

_REGISTRY: dict[str, _CaseDef] = {
    "T31": _CaseDef({"alpha": 0.75, "beta": 0.5, "n": 1}, _build_t31),
    "C32": _CaseDef({"lam": 0.5}, _build_c32),
    "C33": _CaseDef({}, _build_c33),
    "T34": _CaseDef({"lam": _PI6}, _build_t34),
    "C35": _CaseDef({"lam": _PI6, "alpha": 0.25}, _build_c35),
    "T35": _CaseDef(
        {"gamma": 1.0, "delta": 1.0, "alpha": 0.5, "lam": _PI6, "p": 1}, _build_t35
    ),
    "C37I": _CaseDef(
        {"gamma": 1.0, "delta": 1.0, "lam": 0.0, "p": 1}, _build_c37i, needs_partner=True
    ),
    "C37II": _CaseDef(
        {"gamma": 1.0, "delta": 1.0, "alpha": 0.5, "lam": 0.0, "p": 1},
        _build_c37ii,
        needs_partner=True,
    ),
    "C38": _CaseDef(
        {"gamma": 1.0, "delta": 1.0, "alpha": 0.5, "lam": 0.0, "p": 1, "kind": "disk"},
        _build_c38,
    ),
    "T39": _CaseDef({"alpha": 0.5, "beta": 0.25, "gamma": 0.75}, _build_t39),
    "C310": _CaseDef({"alpha": 0.5, "beta": 0.25, "gamma": 0.75}, _build_c310),
    "C311": _CaseDef({"alpha": 0.5, "gamma": 0.75}, _build_c311),
    "T41": _CaseDef({"lam": 1.0, "alpha": 1.0}, _build_t41),
    "C42": _CaseDef({"alpha": 0.5}, _build_c42),
    "T43": _CaseDef({"lam": 0.5, "alpha": 0.5}, _build_t43),
    "C44": _CaseDef({"lam": 0.5}, _build_c44),
}

CASE_IDS = frozenset(_REGISTRY)


def default_family_for(case: TheoremCase) -> list[FamilyMember]:
    impl = _REGISTRY[case.id].build(case.params_dict)
    return impl.default_family()


def _thread_count() -> int:
    raw = os.environ.get("GFT_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        # stacklevel 3 names verify_theorem's caller, so the default filter
        # shows one warning per calling line rather than one per scan
        warnings.warn(f"ignoring GFT_THREADS={raw!r} (need an integer >= 1); scanning with 1 thread",
                      RuntimeWarning, stacklevel=3)
        return 1
    return n


def verify_theorem(
    case: TheoremCase,
    family: Union[FunctionFamily, Sequence[FamilyMember], None] = None,
    grid: Optional[DiskGrid] = None,
    eps: float = 1e-9,
) -> VerificationReport:
    """Scan a family against one implication; see the module docstring."""
    grid = grid or default_grid()
    cdef = _REGISTRY.get(case.id)
    if cdef is None:
        raise ValidationError(f"unknown case id {case.id!r}")
    impl = cdef.build(case.params_dict)

    if family is None:
        members = impl.default_family()
    elif isinstance(family, FunctionFamily):
        members = make_family(family)
    else:
        members = list(family)
        if not members:
            raise BadFamilySpec("empty member list")
    if cdef.needs_partner:
        members = attach_partners(members)

    start = time.perf_counter()

    def scan(member: FamilyMember) -> MemberOutcome:
        try:
            h_margin, h_witness = impl.hypothesis(member, grid, eps)
        except EvaluationError as exc:
            return MemberOutcome(
                member.label, Verdict.UNDECIDED, math.nan, exc.witness, error=str(exc)
            )
        h_verdict = classify(h_margin, eps)
        out = MemberOutcome(member.label, h_verdict, h_margin, h_witness)
        if h_verdict is not Verdict.HOLDS:
            return out
        try:
            c_margin, c_witness = impl.conclusion(member, grid, eps)
        except EvaluationError as exc:
            out.error = str(exc)
            return out
        out.concl_margin = c_margin
        out.concl_witness = c_witness
        out.concl_verdict = classify(c_margin, eps)
        return out

    workers = _thread_count()
    if workers > 1 and len(members) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(scan, members))
    else:
        rows = [scan(m) for m in members]

    failures = [
        (r.label, r.concl_witness, r.concl_margin)
        for r in rows
        if r.concl_verdict is Verdict.FAILS
    ]
    errors = [(r.label, r.error) for r in rows if r.error]
    holds = sum(1 for r in rows if r.hyp_verdict is Verdict.HOLDS)
    return VerificationReport(
        case_id=case.id,
        params=case.params_dict,
        cases_total=len(rows),
        hypothesis_holds_count=holds,
        conclusion_failures=failures,
        errors=errors,
        rows=rows,
        elapsed=time.perf_counter() - start,
    )
