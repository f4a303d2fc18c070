"""Implication checks: hypothesis functional vs. concluded property, per function.

CASES declares each of the paper's sixteen implications once: its
parameters (each a Param, with its domain, and a default), a builder that
takes them by name and returns the grid-checkable hypothesis (a forbidden
slit or region for one functional, or an argument window) and the
concluded membership statement, its default family, and whether each
function is scanned with the verified starlike partners G.  The domains
are the closed forms' own Params from ``constants``, so TheoremCase
rejects a value outside them before any work; a condition across
parameters is checked by the closed form that needs it.  verify_theorem
scans a family of functions and reports, per member, whether the
hypothesis held and whether the conclusion then held; a conclusion
failure under a held hypothesis is a counterexample and the scan reports
it with a witness point.

A hypothesis that fails on the grid makes that member vacuous, never a
counterexample.  Grid checks of slit avoidance are permissive (a value
can dodge the slit between samples), so these scans probe implications
rather than prove them; margins quantify how comfortably each side held.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import ATag, AnalyticFunction, HTag, _guard, principal_arg
from .constants import (
    ARG_ORDERS,
    ARG_WEIGHT,
    MIXED_WEIGHT,
    ORDER_N,
    ORDER_P,
    RADIUS_LAMBDA,
    RADIUS_ORDER,
    SECTOR_ORDERS,
    STRONG_ORDER,
    TILT,
    WEIGHTS,
    RegionKind,
    SlitSpec,
    arg_theorem_constants,
    build_region,
    lambda_tilt,
    radius_convexity,
    radius_inv_alpha_convexity,
    strong_orders,
    thm3_constants,
)
from .errors import BadFamilySpec, GftError, OutOfRange, ValidationError
from .functionals import (
    EXPONENT,
    FunctionalKind,
    FunctionalSpec,
    evaluate_functional,
    functional_slit,
    power_target,
    ratio_target,
)
from .membership import (
    ClassSpec,
    DiskGrid,
    MembershipReport,
    Verdict,
    _jet_quotients,
    _lowest,
    check_membership,
    classify,
    default_grid,
    ring_membership,
    sample_grid,
    sector_margins,
    slit_avoidance,
    region_containment,
)
from .params import Param

# ======================================================================
# function families
# ======================================================================


@dataclass(frozen=True)
class FamilyMember:
    label: str
    f: AnalyticFunction
    g: Optional[AnalyticFunction] = None


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


def _sectors(*pairs: tuple[float, float]) -> list[FamilyMember]:
    return [FamilyMember(f"sector(a={a:g}, m={m:g})", sector_map(a, m)) for a, m in pairs]


def make_family(family: Sequence[FamilyMember]) -> list[FamilyMember]:
    """The members of a family as a list."""
    return list(family)


_DEFAULT_UV = (-0.9, -0.5, 0.0, 0.5, 0.9)


def mobius_ratio_family(u_values=_DEFAULT_UV, v_values=_DEFAULT_UV) -> list[FamilyMember]:
    """z (1 + u z)/(1 - v z) for each u and v; a factor with coefficient 0 is left out."""
    u_values, v_values = tuple(u_values), tuple(v_values)
    if not u_values or not v_values:
        raise BadFamilySpec("ratio family needs both coefficient grids")
    out = []
    for u in u_values:
        for v in v_values:
            terms = []
            if u != 0:
                terms.append((u + 0j, 1))
            if v != 0:
                terms.append((-v + 0j, -1))
            f = AnalyticFunction.mobius(1, terms)
            out.append(FamilyMember(f"ratio(u={u:g}, v={v:g})", f))
    return out


def sector_power_family(a_values=(0.25, 0.5, 0.75, 1.0), m_values=(-0.2, 0.0, 0.2)) -> list[FamilyMember]:
    """sector_map(a, m) for each aperture a and rotation m."""
    a_values, m_values = tuple(a_values), tuple(m_values)
    if not a_values or not m_values:
        raise BadFamilySpec("sector family needs aperture and rotation grids")
    return _sectors(*((a, m) for a in a_values for m in m_values))


def random_taylor_family(seed: int, degree: int = 8, count: int = 10, tag: str = "A") -> list[FamilyMember]:
    """count seeded random Taylor polynomials of the given degree, tagged A_1 or H[1, 1]."""
    args = (seed, degree, count, tag)
    return _random_taylor(*(p.check(v, BadFamilySpec) for p, v in zip(FAMILIES["random"].params, args)))


class _Family(NamedTuple):
    params: tuple[Param, ...]  # in CLI grammar order, named as the builder's arguments
    build: Callable[..., Optional[list[FamilyMember]]]  # None stands for the case's default family


FAMILIES: dict[str, _Family] = {
    "default": _Family((), lambda: None),
    "mobius": _Family((), mobius_ratio_family),
    "sector": _Family((), sector_power_family),
    "random": _Family(
        (
            Param("seed", "an integer in [0, inf)"),
            # coefficient k is at most 0.15^(k-1) of the leading one, below
            # double-precision resolution from k = 20 on, so a higher degree
            # adds terms that round away while its loop costs time and memory
            Param("degree", "an integer in [2, 64]"),
            # each member is built and scanned in a Python loop, so the count
            # bounds the work of one family; 1024 is 100 times the default
            Param("count", "an integer in [1, 1024]"),
            Param("tag", "{A, H}", optional=True),
        ),
        random_taylor_family,
    ),
}


# ======================================================================
# the tilted half-plane lemma
# ======================================================================


def verify_lemma_tilt(b: float, m: float, grid: Optional[DiskGrid] = None) -> MembershipReport:
    """Check min Re(e^{-i lam} h) >= 0 for h = (1 + e^{i m pi} z)/(1 - b z),
    with lam the tilt angle of the coefficient pair (b, m).

    The check is membership in P_TILT(-lam) at eps = 0: the bound is sharp
    (the infimum over the disk is exactly 0 in degenerate corners), so any
    nonnegative grid minimum counts as HOLDS.
    """
    lam = lambda_tilt(b, m)
    u = cmath.exp(1j * math.pi * m)
    h = AnalyticFunction.mobius(0, [(u, 1), (-b + 0j, -1)] if b != 0 else [(u, 1)])
    return check_membership(ClassSpec.p_tilt(-lam), h, grid, eps=0.0)


# ======================================================================
# the case table
# ======================================================================

ParamValue = Union[float, int, str]


@dataclass(frozen=True)
class TheoremCase:
    """An implication to scan, identified by its CASES id plus parameters.

    The parameters given, as (name, value) pairs, are checked against their
    domains, and the others take their defaults: params holds them all,
    sorted by name."""

    id: str
    params: tuple[tuple[str, ParamValue], ...] = ()

    def __post_init__(self):
        entry = CASES.get(self.id) if isinstance(self.id, str) else None
        if entry is None:
            raise ValidationError(f"unknown case id {self.id!r}; known: {sorted(CASE_IDS)}")
        params = {param.name: param for param in entry.params}
        values = {param.name: default for param, default in entry.params.items()}
        try:
            given = dict(self.params)
        except (TypeError, ValueError):
            raise ValidationError(f"case {self.id} takes (name, value) pairs, got {self.params!r}") from None
        for key, value in given.items():
            if key not in params:
                raise ValidationError(f"case {self.id} takes {sorted(params)}, not {key!r}")
            try:
                values[key] = params[key].check(value)
            except ValidationError as exc:
                raise ValidationError(f"case {self.id} parameter {key!r}: {exc}") from None
        object.__setattr__(self, "params", tuple(sorted(values.items())))

    @classmethod
    def make(cls, case_id: str, **given: ParamValue) -> "TheoremCase":
        """The case with the given parameters by keyword; ``lambda`` spells the key ``lam`` out."""
        if "lambda" in given:
            if "lam" in given:
                raise ValidationError(f"case {case_id} takes lam or lambda, not both")
            given["lam"] = given.pop("lambda")
        return cls(case_id, tuple(given.items()))

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
    """A scan's rows, one per member, and the counts read from them."""

    case_id: str
    params: dict
    rows: list[MemberOutcome]

    @property
    def cases_total(self) -> int:
        return len(self.rows)

    @property
    def hypothesis_holds_count(self) -> int:
        return sum(1 for r in self.rows if r.hyp_verdict is Verdict.HOLDS)

    @property
    def conclusion_failures(self) -> list[tuple[str, Optional[complex], float]]:
        """(label, witness, margin) of each counterexample: a conclusion that failed under a held hypothesis."""
        return [(r.label, r.concl_witness, r.concl_margin) for r in self.rows if r.concl_verdict is Verdict.FAILS]

    @property
    def errors(self) -> list[tuple[str, str]]:
        return [(r.label, r.error) for r in self.rows if r.error]

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


# (member, grid) -> (margin, witness)
Check = Callable[[FamilyMember, DiskGrid], tuple[float, Optional[complex]]]
# (member, z) -> one value per point of z
Pointwise = Callable[[FamilyMember, np.ndarray], np.ndarray]


# ---------------------------------------------------------------- helpers


def _avoids(values: Pointwise, slit: SlitSpec) -> Check:
    """The values at the grid points keep off the slit: the least distance and its first point."""

    return lambda member, grid: slit_avoidance(values(member, grid.points), slit)


def _functional_slit_hyp(spec: FunctionalSpec, lam: float = 0.0, n: int = 1) -> Check:
    """The hypothesis that the functional's image avoids its slit."""
    return _avoids(lambda member, z: evaluate_functional(spec, member.f, z, g=member.g), functional_slit(spec, lam, n))


def _membership_concl(spec: ClassSpec) -> Check:
    """f lies in the class on the grid."""

    def concl(member, grid):
        rep = check_membership(spec, member.f, grid)
        return rep.margin, rep.witness

    return concl


def _pointwise(margins: Pointwise) -> Check:
    """The check that reads margins(member, z) on the grid points: the least
    margin and the first point where it is taken."""

    def check(member, grid):
        z = grid.points
        return _lowest(margins(member, z), z)

    return check


def _tilted(values: Pointwise, lam: float) -> Check:
    """Re(e^{-i lam} values) >= 0 at every grid point."""
    return _pointwise(lambda member, z: np.real(np.exp(-1j * lam) * values(member, z)))


def _window(values: Pointwise, lo: float, hi: float) -> Check:
    """lo <= values <= hi at every grid point, for real values."""

    def margins(member, z):
        v = values(member, z)
        return np.minimum(v - lo, hi - v)

    return _pointwise(margins)


def _h_poly(coeffs, label) -> FamilyMember:
    return FamilyMember(label, AnalyticFunction.taylor(coeffs, HTag(coeffs[0], 1)))


def _a_mobius(terms, label) -> FamilyMember:
    return FamilyMember(label, AnalyticFunction.mobius(1, terms))


def _near_constant_h(extra=()) -> list[FamilyMember]:
    base = [
        _h_poly([1 + 0j], "h=1"),
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


# ------------------------------------------- case builders and default families
# a builder takes its case's parameters by name and returns the hypothesis
# and the conclusion; a condition across parameters is checked by the
# closed form that needs it


def _t31(alpha: float, beta: float, n: int) -> tuple[Check, Check]:
    spec = FunctionalSpec.slit1_lhs(alpha, beta)
    return _functional_slit_hyp(spec, n=n), _membership_concl(ClassSpec.g(alpha, beta))


def _t31_family() -> list[FamilyMember]:
    sectors = _sectors((0.4, 0.0), (0.4, 0.5), (0.3, -0.3))
    return _near_constant_h(sectors) + _random_taylor(11, 8, 5, "H")


def _starlike_slit(spec: FunctionalSpec) -> tuple[Check, Check]:
    """C32 and C33: the image of the functional avoids its slit, so f is starlike."""
    return _functional_slit_hyp(spec), _membership_concl(ClassSpec.starlike())


def _starlike_family(seed: int) -> list[FamilyMember]:
    return _ratio_members((0.5, -0.5, 0.75, -0.75)) + [
        _a_mobius([(0.25 + 0j, 1)], "f=z(1+0.25z)")
    ] + _random_taylor(seed, 8, 5, "A")


def _t34(lam: float) -> tuple[Check, Check]:
    return _functional_slit_hyp(FunctionalSpec.tilted_lhs(lam)), _membership_concl(ClassSpec.p_tilt(-lam))


def _t34_family() -> list[FamilyMember]:
    # sector apertures kept inside the tilted half-plane target at the
    # default lam: need a(1-m) < 1 - 2 lam/pi and a(1+m) < 1 + 2 lam/pi
    sectors = _sectors((0.5, 0.3), (0.9, 0.4), (0.8, 0.2))
    return _near_constant_h(sectors) + _random_taylor(13, 8, 5, "H")


def _c35(lam: float, alpha: float) -> tuple[Check, Check]:
    target = alpha * math.cos(lam)

    def values(member, z):
        p0 = np.asarray(member.f.eval(z, 0), dtype=complex)
        p1 = np.asarray(member.f.eval(z, 1), dtype=complex)
        den = p0 - alpha
        _guard(den, "p - alpha", z)
        h = den / (1 - alpha)
        return np.exp(-1j * lam) * h + z * p1 / den

    hyp = _avoids(values, functional_slit(FunctionalSpec.tilted_lhs(lam)))
    return hyp, _pointwise(lambda member, z: np.real(np.exp(-1j * lam) * member.f.eval(z, 0)) - target)


def _c35_family() -> list[FamilyMember]:
    return [
        _h_poly([1 + 0j], "p=1"),
        _h_poly([1 + 0j, 0.2 + 0j], "p=1+0.2z"),
        _h_poly([1 + 0j, -0.25 + 0j], "p=1-0.25z"),
        _h_poly([1 + 0j, 0.15j], "p=1+0.15iz"),
    ] + _random_taylor(17, 8, 4, "H")


def _u_positivity_concl(alpha: float, lam: float) -> Check:
    spec = FunctionalSpec.u_func(alpha)
    return _tilted(lambda member, z: evaluate_functional(spec, member.f, z), lam)


def _t35(gamma: float, delta: float, alpha: float, lam: float, p: int) -> tuple[Check, Check]:
    spec = FunctionalSpec.thm3_lhs(gamma, delta, alpha, p)
    return _functional_slit_hyp(spec, lam), _u_positivity_concl(alpha, lam)


def _t35_family() -> list[FamilyMember]:
    return [
        FamilyMember("f=z", AnalyticFunction.mobius(1, [])),
        _a_mobius([(0.2 + 0j, 1)], "f=z(1+0.2z)"),
        _a_mobius([(-0.2 + 0j, 1)], "f=z(1-0.2z)"),
        _a_mobius([(0.2 + 0j, -1)], "f=z/(1+0.2z)"),
        _a_mobius([(0.15 + 0j, 2)], "f=z(1+0.15z)^2"),
        _a_mobius([(-0.15 + 0j, -2)], "f=z/(1-0.15z)^2"),
    ] + _random_taylor(19, 8, 5, "A")


_C37_PARTNERS = ((), ((-0.4 + 0j, -1),), ((0.3 + 0j, 1),))
_C37_PARTNER_LABELS = ("g=z", "g=z/(1-0.4z)", "g=z(1+0.3z)")


@functools.cache
def _starlike_partners() -> tuple[tuple[str, AnalyticFunction], ...]:
    """The C37 partners, verified starlike on the default grid once per process.

    Every call returns the same objects, so a scan's rows share each G.
    """
    out = []
    for terms, lbl in zip(_C37_PARTNERS, _C37_PARTNER_LABELS):
        g = AnalyticFunction.mobius(1, list(terms))
        rep = check_membership(ClassSpec.starlike(), g)
        if rep.verdict is not Verdict.HOLDS:
            raise BadFamilySpec(f"partner {lbl} is not starlike on the grid")
        out.append((lbl, g))
    return tuple(out)


def attach_partners(members: Sequence[FamilyMember]) -> list[FamilyMember]:
    """Pair single functions with the verified starlike partner list."""
    out = []
    for mem in members:
        if mem.g is not None:
            out.append(mem)
        else:
            out.extend(FamilyMember(f"{mem.label}, {gl}", mem.f, g) for gl, g in _starlike_partners())
    return out


def _c37_family() -> list[FamilyMember]:
    """The first functions of C37; the scan pairs each with every partner."""
    return [
        FamilyMember("f=z", AnalyticFunction.mobius(1, [])),
        _a_mobius([(0.2 + 0j, 1)], "f=z(1+0.2z)"),
        _a_mobius([(0.3 + 0j, -1)], "f=z/(1-0.3z)"),
    ]


def _c37i(gamma: float, delta: float, lam: float, p: int) -> tuple[Check, Check]:
    spec = FunctionalSpec(FunctionalKind.TWO_FN_RATIO, gamma=gamma, delta=delta, p=p)
    return _functional_slit_hyp(spec, lam), _tilted(lambda member, z: ratio_target(member.f, member.g, z), lam)


def _c37ii(gamma: float, delta: float, alpha: float, lam: float, p: int) -> tuple[Check, Check]:
    spec = FunctionalSpec(FunctionalKind.TWO_FN_POWER, gamma=gamma, delta=delta, alpha=alpha, p=p)
    concl = _tilted(lambda member, z: power_target(member.f, member.g, alpha, z), lam)
    return _functional_slit_hyp(spec, lam), concl


def _c38(gamma: float, delta: float, alpha: float, lam: float, p: int, kind: str) -> tuple[Check, Check]:
    consts = thm3_constants(gamma, delta, p, lam)
    region = build_region(RegionKind(kind), x=consts.x, y=consts.y_min, p=p, gamma=gamma, delta=delta)
    spec = FunctionalSpec.thm3_lhs(gamma, delta, alpha, p)

    def hyp(member, grid):
        return region_containment(evaluate_functional(spec, member.f, grid.points), region)

    return hyp, _u_positivity_concl(alpha, lam)


def _arg_window(alpha: float, beta: float, gamma: float) -> tuple[float, float]:
    consts = arg_theorem_constants(alpha, beta, gamma)
    return consts.delta1 * math.pi / 2, consts.delta2 * math.pi / 2


def _t39(alpha: float, beta: float, gamma: float) -> tuple[Check, Check]:
    lo, hi = _arg_window(alpha, beta, gamma)
    spec = FunctionalSpec.arg_sum(gamma)
    hyp = _window(lambda member, z: np.real(evaluate_functional(spec, member.f, z)), lo, hi)
    return hyp, _pointwise(lambda member, z: sector_margins(member.f.eval(z, 0), alpha, beta))


def _t39_family() -> list[FamilyMember]:
    sectors = _sectors((0.2, 0.2), (0.3, 0.5), (0.15, -0.2))
    return [
        _h_poly([1 + 0j], "h=1"),
        _h_poly([1 + 0j, 0.15 + 0j], "h=1+0.15z"),
        _h_poly([1 + 0j, -0.1 + 0j, 0.05 + 0j], "h=1-0.1z+0.05z^2"),
    ] + sectors + _random_taylor(29, 8, 4, "H")


def _weighted_arg_values(f: AnalyticFunction, z: np.ndarray, gamma: float) -> np.ndarray:
    s, c = _jet_quotients(f, z, (0, 1))
    return (1 - gamma) * principal_arg(s) + gamma * principal_arg(c)


def _c310(alpha: float, beta: float, gamma: float) -> tuple[Check, Check]:
    lo, hi = _arg_window(alpha, beta, gamma)
    hyp = _window(lambda member, z: _weighted_arg_values(member.f, z, gamma), lo, hi)
    return hyp, _pointwise(lambda member, z: sector_margins(_jet_quotients(member.f, z, (0,))[0], alpha, beta))


def _c310_family() -> list[FamilyMember]:
    # v = 0.5 exceeds the conclusion sector but also leaves the
    # hypothesis window on the same rings, so it stays vacuous
    return _ratio_members((0.1, 0.25, 0.5)) + [
        _a_mobius([(0.1 + 0j, 1)], "f=z(1+0.1z)")
    ]


def _c311(alpha: float, gamma: float) -> tuple[Check, Check]:
    orders = strong_orders(alpha, gamma)
    half = orders.delta * math.pi / 2

    def margins(member, z):
        s, c = _jet_quotients(member.f, z, (0, 1))
        m1 = sector_margins(s, alpha, alpha)
        m2 = sector_margins(c, orders.convex_order, orders.convex_order)
        return np.minimum(m1, m2)

    hyp = _window(lambda member, z: _weighted_arg_values(member.f, z, gamma), -half, half)
    return hyp, _pointwise(margins)


def _c311_family() -> list[FamilyMember]:
    return _ratio_members((0.3, -0.3, 0.55, -0.55)) + [
        _a_mobius([(0.2 + 0j, 1)], "f=z(1+0.2z)")
    ] + _random_taylor(31, 8, 4, "A")


def radius_gate(lam: float, alpha: float) -> Check:
    """The hypothesis of the radius cases, f in U(lam, alpha) and in R: the
    smaller of the two margins, or NaN if either check is undecided."""
    u_spec = ClassSpec.u(lam, alpha)
    r_spec = ClassSpec.r()

    def hyp(member, grid):
        ru = check_membership(u_spec, member.f, grid)
        rr = check_membership(r_spec, member.f, grid)
        if math.isnan(ru.margin) or math.isnan(rr.margin):
            bad = ru if math.isnan(ru.margin) else rr
            return math.nan, bad.witness
        if ru.margin <= rr.margin:
            return ru.margin, ru.witness
        return rr.margin, rr.witness

    return hyp


# the radius theorems: per property, its closed-form radius given (lam, alpha)
# and the class that holds inside that radius given alpha
RADIUS_PROPERTIES: dict[str, tuple[Callable[[float, float], float], Callable[[float], ClassSpec]]] = {
    "convexity": (lambda lam, alpha: radius_convexity(lam, alpha), lambda alpha: ClassSpec.convex()),
    "inv_alpha_convexity": (
        lambda lam, alpha: radius_inv_alpha_convexity(lam, alpha),
        lambda alpha: ClassSpec.m_alpha(1.0 / alpha),
    ),
}


def _radius_case(lam: float, alpha: float, prop: str) -> tuple[Check, Check]:
    closed, concluded = RADIUS_PROPERTIES[prop]
    radius, spec = closed(lam, alpha), concluded(alpha)
    # the grid that verify_theorem scans, with every radius times the closed
    # form's, built once per case
    grid = default_grid()
    scaled = sample_grid([radius * r for r in grid.radii], grid.angles_per_ring)

    def concl(member, _):
        # f lies in the class on the scaled grid, its margins read as the
        # radius search reads a ring
        rep = ring_membership(spec, member.f, scaled)
        return rep.margin, rep.witness

    return radius_gate(lam, alpha), concl


def _radius_family() -> list[FamilyMember]:
    return _ratio_members((0.5, -0.5, 0.9, -0.9)) + [
        _a_mobius([(0.3 + 0j, 1)], "f=z(1+0.3z)"),
        _a_mobius([(-0.3 + 0j, 1)], "f=z(1-0.3z)"),
    ]


class _Case(NamedTuple):
    params: dict[Param, ParamValue]  # each parameter with its default
    build: Callable[..., tuple[Check, Check]]  # the parameters by name -> (hypothesis, conclusion)
    family: Callable[[], list[FamilyMember]]  # the default family
    partner: bool = False  # each f is scanned with every verified starlike partner G


_PI6 = math.pi / 6
_UNIT_WEIGHTS = dict.fromkeys(WEIGHTS, 1.0)
_REGION = Param("kind", "{" + ", ".join(kind.value for kind in RegionKind) + "}")

CASES: dict[str, _Case] = {
    "T31": _Case({SECTOR_ORDERS[0]: 0.75, SECTOR_ORDERS[1]: 0.5, ORDER_N: 1}, _t31, _t31_family),
    "C32": _Case({MIXED_WEIGHT: 0.5}, lambda lam: _starlike_slit(FunctionalSpec.mixed(lam)),
                 functools.partial(_starlike_family, 5)),
    "C33": _Case({}, lambda: _starlike_slit(FunctionalSpec.convex()), functools.partial(_starlike_family, 7)),
    "T34": _Case({TILT: _PI6}, _t34, _t34_family),
    "C35": _Case({TILT: _PI6, Param("alpha", "[0, 1)", "order must lie in"): 0.25}, _c35, _c35_family),
    "T35": _Case({**_UNIT_WEIGHTS, EXPONENT: 0.5, TILT: _PI6, ORDER_P: 1}, _t35, _t35_family),
    "C37I": _Case({**_UNIT_WEIGHTS, TILT: 0.0, ORDER_P: 1}, _c37i, _c37_family, partner=True),
    "C37II": _Case({**_UNIT_WEIGHTS, EXPONENT: 0.5, TILT: 0.0, ORDER_P: 1}, _c37ii, _c37_family, partner=True),
    "C38": _Case({**_UNIT_WEIGHTS, EXPONENT: 0.5, TILT: 0.0, ORDER_P: 1, _REGION: "disk"}, _c38, _t35_family),
    "T39": _Case({ARG_ORDERS[0]: 0.5, ARG_ORDERS[1]: 0.25, ARG_WEIGHT: 0.75}, _t39, _t39_family),
    "C310": _Case({ARG_ORDERS[0]: 0.5, ARG_ORDERS[1]: 0.25, ARG_WEIGHT: 0.75}, _c310, _c310_family),
    "C311": _Case({STRONG_ORDER: 0.5, ARG_WEIGHT: 0.75}, _c311, _c311_family),
    "T41": _Case({RADIUS_LAMBDA: 1.0, RADIUS_ORDER: 1.0},
                 lambda lam, alpha: _radius_case(lam, alpha, "convexity"), _radius_family),
    "C42": _Case({RADIUS_ORDER: 0.5}, lambda alpha: _radius_case(1.0, alpha, "convexity"), _radius_family),
    "T43": _Case({RADIUS_LAMBDA: 0.5, RADIUS_ORDER: 0.5},
                 lambda lam, alpha: _radius_case(lam, alpha, "inv_alpha_convexity"), _radius_family),
    "C44": _Case({RADIUS_LAMBDA: 0.5}, lambda lam: _radius_case(lam, 1.0, "inv_alpha_convexity"), _radius_family),
}

CASE_IDS = frozenset(CASES)


def default_family_for(case: TheoremCase) -> list[FamilyMember]:
    """The members verify_theorem scans when it is given no family."""
    entry = CASES[case.id]
    members = entry.family()
    return attach_partners(members) if entry.partner else members


def verify_theorem(case: TheoremCase, family: Optional[Sequence[FamilyMember]] = None) -> VerificationReport:
    """Scan a family against one implication on the default grid, each
    verdict at eps 1e-9 (classify); see the module docstring."""
    grid, eps = default_grid(), 1e-9
    entry = CASES[case.id]
    hypothesis, conclusion = entry.build(**case.params_dict)

    members = entry.family() if family is None else list(family)
    if not members:
        raise BadFamilySpec("empty member list")
    if entry.partner:  # a member that has its partner already is kept as it is
        members = attach_partners(members)

    # a GftError or a floating-point error raised for one member lands in
    # its row; any other exception is a fault and ends the scan
    def scan(member: FamilyMember) -> MemberOutcome:
        try:
            h_margin, h_witness = hypothesis(member, grid)
        except (GftError, FloatingPointError) as exc:
            return MemberOutcome(
                member.label, Verdict.UNDECIDED, math.nan, getattr(exc, "witness", None), error=str(exc)
            )
        h_verdict = classify(h_margin, eps)
        out = MemberOutcome(member.label, h_verdict, h_margin, h_witness)
        if h_verdict is not Verdict.HOLDS:
            return out
        try:
            c_margin, c_witness = conclusion(member, grid)
        except (GftError, FloatingPointError) as exc:
            out.error = str(exc)
            return out
        out.concl_margin = c_margin
        out.concl_witness = c_witness
        out.concl_verdict = classify(c_margin, eps)
        return out

    rows = [scan(m) for m in members]
    return VerificationReport(case.id, case.params_dict, rows)
