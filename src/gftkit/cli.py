"""Command line front end.

Exit codes: 0 success, 2 invalid input or usage, 3 a verification scan
found a counterexample.  All emitted numbers are formatted to 12
significant digits and the output contains no timestamps, so repeated
invocations with the same arguments produce identical bytes.

Each subcommand imports the modules it runs when it runs.  ``constants``
needs only the closed forms and no numpy, and so do ``--help`` and
``constants --help``.  The others need numpy: ``check`` loads ``core``,
``functionals`` and ``membership``, ``dump`` also ``theorems`` for its
slit geometry, ``verify`` loads ``theorems`` and ``radius`` also
``radii``.  A subcommand's arguments, with the grammar help read from its
vocabulary table, are added only when argparse parses that subcommand
(``_Subcommand``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import cache, partial
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .constants import (
    TILT,
    a_min,
    arg_theorem_constants,
    c_lambda,
    eta,
    m_alpha,
    radius_convexity,
    radius_inv_alpha_convexity,
    slit_constants,
    strong_orders,
    thm3_constants,
)
from .errors import EvaluationError, GftError, ValidationError
from .params import Param

if TYPE_CHECKING:
    from .core import AnalyticFunction
    from .membership import DiskGrid


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(obj):
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return None
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit_json(obj) -> None:
    print(json.dumps(_round12(obj), sort_keys=True))


# ---------------------------------------------------------------- parsing


def _usage(table: dict) -> str:
    """The grammar of every token in a vocabulary, as "a, b or c"."""
    forms = []
    for token, (params, _) in table.items():
        required = ",".join(p.name for p in params if not p.optional)
        optional = "".join(f"[,{p.name}]" for p in params if p.optional)
        forms.append(f"{token}:{required}{optional}" if params else token)
    return ", ".join(forms[:-1]) + " or " + forms[-1]


def _parse_spec(text: str, table: dict, noun: str):
    """Build what a "token:v1,v2,..." string names in one vocabulary table.

    The table maps each token to its parameters and the callable that
    takes them by name; the callable checks their domains.
    """
    head, _, rest = text.partition(":")
    token = head.strip()
    if token not in table:
        raise ValidationError(f"unknown {noun} {token!r}; use {_usage(table)}")
    params, make = table[token]
    parts = rest.split(",") if rest else []
    arities = range(sum(not p.optional for p in params), len(params) + 1)
    if len(parts) not in arities:
        raise ValidationError(f"{token} takes {' or '.join(map(str, arities))} parameters, got {len(parts)}")
    try:
        values = {p.name: p.parse(t) for p, t in zip(params, parts)}
    except ValueError as exc:
        raise ValidationError(f"bad number in {token!r}: {exc}") from None
    return make(**values)


# each vocabulary's CLI table, built from its library table on first use;
# the names _CLASSES, _FUNCTIONALS and _FAMILIES read them as module attributes


@cache
def _classes() -> dict:
    from .membership import CLASSES, ClassSpec

    return {e.token: (e.params, partial(ClassSpec, kind)) for kind, e in CLASSES.items()}


@cache
def _functionals() -> dict:
    from .functionals import FUNCTIONALS, FunctionalSpec

    return {kind.value: (e.params, partial(FunctionalSpec, kind)) for kind, e in FUNCTIONALS.items()}


@cache
def _families() -> dict:
    from .theorems import FAMILIES

    return {token: (e.params, e.build) for token, e in FAMILIES.items()}


_TABLES = {"_CLASSES": _classes, "_FUNCTIONALS": _functionals, "_FAMILIES": _families}


def __getattr__(name: str):
    if name in _TABLES:
        return _TABLES[name]()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load_fn(path: str) -> AnalyticFunction:
    from .core import AnalyticFunction

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read function file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"function file {path} is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"function file {path} is not valid UTF-8: {exc}") from None
    return AnalyticFunction.from_json(data)


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


_GRID_HELP = "default, coarse, fine, or r1,r2,...@angles (e.g. 0.3,0.6,0.9@360)"


def _parse_grid(profile: Optional[str]) -> DiskGrid:
    from .membership import default_grid, sample_grid

    if profile is None or profile == "default":
        return default_grid()
    if profile == "coarse":
        return sample_grid([k / 10 for k in range(1, 10)] + [0.95], 180)
    if profile == "fine":
        return sample_grid(default_grid().radii, 1440)
    radii_part, sep, angle_part = profile.partition("@")
    if sep:
        try:
            radii = [float(t) for t in radii_part.split(",") if t.strip()]
            angles = int(angle_part)
        except ValueError as exc:
            raise ValidationError(f"bad grid profile {profile!r}: {exc}") from None
        return sample_grid(radii, angles)
    raise ValidationError(f"unknown grid profile {profile!r}; use {_GRID_HELP}")


# ---------------------------------------------------------------- constants


def _cmd_constants(args) -> int:
    lines: list[tuple[str, float]] = []
    dropped: list[str] = []

    def emit(names: str, thunk) -> None:
        """Add the values thunk returns under the given names; if one is out of domain, say why on stderr."""
        try:
            values = thunk()
        except GftError as exc:
            dropped.append(f"gftkit: dropped {names}: {exc}")
            return
        lines.extend((name, float(v)) for name, v in zip(names.split(), values))

    alpha, beta, lam = args.alpha, args.beta, args.lam
    gamma, delta = args.gamma, args.delta

    if alpha is not None and beta is not None:
        emit("sector_half_angle", lambda: [eta(alpha, beta)])
        n = args.n if args.n is not None else 1

        def slit_anchors():
            down, up = slit_constants(alpha, beta, n).rays
            return down.anchor.real, down.anchor.imag, up.anchor.imag

        emit("slit_x1 slit_y1 slit_y2", slit_anchors)
        if gamma is not None:
            window = attrgetter("delta1", "delta2", "M1", "M2")
            emit("window_delta1 window_delta2 window_M1 window_M2",
                 lambda: window(arg_theorem_constants(alpha, beta, gamma)))
    if gamma is not None and delta is not None:
        p = args.p if args.p is not None else 1
        tilt = lam if lam is not None else 0.0
        emit("weighted_slit_x weighted_slit_y",
             lambda: attrgetter("x", "y_min")(thm3_constants(gamma, delta, p, tilt)))
    if alpha is not None and gamma is not None and beta is None:
        emit("strong_arg_bound strong_convex_order",
             lambda: attrgetter("delta", "convex_order")(strong_orders(alpha, gamma)))
    if alpha is not None:
        emit("ratio_bound", lambda: [m_alpha(alpha)])
    if lam is not None:
        emit("mixed_slit_height", lambda: [c_lambda(lam)])
        emit("tilted_slit_height", lambda: [a_min(lam)])
        if alpha is not None:
            emit("radius_convexity", lambda: [radius_convexity(lam, alpha)])
            emit("radius_inv_alpha_convexity", lambda: [radius_inv_alpha_convexity(lam, alpha)])

    for note in dropped:
        print(note, file=sys.stderr)
    if not lines:
        if not dropped:
            print("gftkit: no constants apply to the given parameters", file=sys.stderr)
        return 2
    if args.json:
        _emit_json({name: value for name, value in lines})
    else:
        for name, value in lines:
            print(f"{name} = {_fmt(value)}")
    return 0


# ---------------------------------------------------------------- check


_EPS = Param("eps", "[0, inf)", "--eps must lie in")


def _cmd_check(args) -> int:
    from .membership import check_membership

    spec = _parse_spec(args.cls, _classes(), "class")
    eps = _EPS.check(args.eps)
    f = _load_fn(args.fn)
    grid = _parse_grid(args.grid)
    rep = check_membership(spec, f, grid, eps)
    _emit_json(rep.to_json())
    return 0


# ---------------------------------------------------------------- verify


def _parse_family(text: Optional[str]):
    return _parse_spec("default" if text is None else text, _families(), "family")


def _cmd_verify(args) -> int:
    from .theorems import TheoremCase, verify_theorem

    try:
        params = json.loads(args.params) if args.params else {}
    except ValueError as exc:  # also an integer of more than 4300 digits
        raise ValidationError(f"--params is not valid JSON: {exc}") from None
    if not isinstance(params, dict):
        raise ValidationError("--params must be a JSON object")
    case = TheoremCase.make(args.case, **params)
    family = _parse_family(args.family)
    rep = verify_theorem(case, family)
    _emit_json(rep.to_json())
    if args.out:
        _write(Path(args.out), rep.to_csv())
    return 3 if rep.counterexample_found else 0


# ---------------------------------------------------------------- radius


def _cmd_radius(args) -> int:
    from .membership import Verdict, classify, default_grid
    from .radii import TOLERANCE, family_property_radius
    from .theorems import RADIUS_PROPERTIES, mobius_ratio_family, radius_gate

    lam, alpha = args.lam, args.alpha
    gate = radius_gate(lam, alpha)  # validates lam, alpha up front
    tol = TOLERANCE.check(args.tol, ValidationError)
    family = _parse_family(args.family) or mobius_ratio_family()
    grid, eps = default_grid(), 1e-9
    kept = [mem for mem in family if classify(gate(mem, grid, eps)[0], eps) is Verdict.HOLDS]
    if not kept:
        raise ValidationError("no family member passes the membership gate for these parameters")

    rows: list[tuple[str, float, float, str]] = []
    for name, (closed, concluded) in RADIUS_PROPERTIES.items():
        env = family_property_radius(kept, concluded(alpha), tol=tol)
        rows.append((name, closed(lam, alpha), env.radius, env.witness_label))
    for name, closed, envelope, witness in rows:
        print(
            f"{name}: closed_form = {_fmt(closed)}, family_envelope = {_fmt(envelope)}, "
            f"witness = {witness}"
        )
    if args.out:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["property", "lambda", "alpha", "closed_form_R", "empirical_family_R", "witness_params"]
        )
        for name, closed, envelope, witness in rows:
            writer.writerow([name, _fmt(lam), _fmt(alpha), _fmt(closed), _fmt(envelope), witness])
        _write(Path(args.out), buf.getvalue())
    return 0


# ---------------------------------------------------------------- dump


def _cmd_dump(args) -> int:
    from .functionals import evaluate_functional
    from .theorems import functional_slit

    spec = _parse_spec(args.functional, _functionals(), "functional")
    # the tilt of the weighted slits; the other slits ignore it, but every
    # functional takes the same --lambda
    lam = TILT.check(0.0 if args.lam is None else args.lam)
    f = _load_fn(args.fn)
    g = _load_fn(args.fn2) if args.fn2 else None
    grid = _parse_grid(args.grid)
    values = evaluate_functional(spec, f, grid.points, g=g)
    slit = functional_slit(spec, lam)  # before any file is written
    lines = ["re_z,im_z,re_w,im_w"]
    for z, w in zip(grid.points, values):
        lines.append(f"{_fmt(z.real)},{_fmt(z.imag)},{_fmt(w.real)},{_fmt(w.imag)}")
    geometry = {
        "rays": [
            {"anchor": [ray.anchor.real, ray.anchor.imag], "direction": ray.direction.name.lower()}
            for ray in slit.rays
        ]
    }
    out = Path(args.out)
    side = out.with_name(out.stem + ".geometry.json")
    _write(out, "\n".join(lines) + "\n")
    try:
        _write(side, json.dumps(_round12(geometry), sort_keys=True) + "\n")
    except ValidationError:
        out.unlink()  # no samples without their geometry
        raise
    print(f"wrote {out} and {side}")
    return 0


# ---------------------------------------------------------------- driver


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser that adds its arguments when it is parsed.

    argparse parses only the chosen subcommand, and both the usage line
    and --help are printed from inside that parse, so their text is as if
    the arguments had been there from the start; the other subcommands
    never read their vocabulary tables or the modules behind them.
    """

    def __init__(self, *args, add_arguments, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            self._add_arguments(self)
            self._add_arguments = None
        return super().parse_known_args(args, namespace)


def _constants_arguments(p: argparse.ArgumentParser) -> None:
    for flag in ("--alpha", "--beta", "--gamma", "--delta"):
        p.add_argument(flag, type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_constants)


def _check_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--class", dest="cls", required=True, help=_usage(_classes()))
    p.add_argument("--fn", required=True, help="JSON file describing the function")
    p.add_argument("--grid", help=_GRID_HELP)
    p.add_argument("--eps", type=float, default=1e-9, help="margin below which a verdict is UNDECIDED")
    p.set_defaults(run=_cmd_check)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case", required=True)
    p.add_argument("--params", help="JSON object overriding case parameters")
    p.add_argument("--family", help=_usage(_families()))
    p.add_argument("--out", help="write per-member CSV here")
    p.set_defaults(run=_cmd_verify)


def _radius_arguments(p: argparse.ArgumentParser) -> None:
    from .radii import TOLERANCE

    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--family", help=_usage(_families()) + "; default means mobius")
    p.add_argument("--tol", type=float, default=1e-4, help=f"radius search tolerance in {TOLERANCE.domain}")
    p.add_argument("--out", help="write CSV here")
    p.set_defaults(run=_cmd_radius)


def _dump_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--functional", required=True, help=_usage(_functionals()))
    p.add_argument("--fn", required=True)
    p.add_argument("--fn2", help="second function for the two-function functionals")
    p.add_argument("--lambda", dest="lam", type=float, help="tilt for the slit geometry sidecar")
    p.add_argument("--grid", help=_GRID_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_dump)


_SUBCOMMANDS = {
    "constants": ("print the closed-form constants that apply", _constants_arguments),
    "check": ("grid membership verdict for one function", _check_arguments),
    "verify": ("scan a family against one implication", _verify_arguments),
    "radius": ("closed-form radius vs family envelope", _radius_arguments),
    "dump": ("sample one functional over the grid to CSV", _dump_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gftkit",
        description="numerical toolkit for sector and radius estimates of disk maps",
    )
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Subcommand)
    for name, (help_text, add_arguments) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=help_text, add_arguments=add_arguments)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except ValidationError as exc:
        print(f"gftkit: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"gftkit: evaluation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
