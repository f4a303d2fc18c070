"""The three benchmark workloads and their correctness gates.

Each workload is built once from the seed (its set-up), then runs whole
rounds of a fixed operation mix.  A round times each operation from the
outside and returns the raw outputs; ``check`` compares those outputs with
the values frozen in ``expected.json`` and names every operation that
failed, so a perturbed expectation can be shown to trip the gate.

- scan-default: ``verify_theorem`` over the 16 cases with their shipped
  default families on the default 23x720 grid.  The families fix their own
  seeds, so this workload ignores the benchmark seed.
- radius-envelope: the library work of ``gftkit radius --lambda 1 --alpha 1``
  on the Moebius-ratio family, repeated on ``random_taylor_family(seed, 6, 4)``.
- cli-batch: a fixed mix of seven ``python -m gftkit.cli`` subprocesses; only
  the ``radius`` command depends on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from clock import Stopwatch

from gftkit import cli, radii, theorems
from gftkit.constants import radius_convexity, radius_inv_alpha_convexity
from gftkit.core import HTag, AnalyticFunction, half_plane_map
from gftkit.membership import ClassSpec, DiskGrid, Verdict, check_membership, default_grid

BENCH_DIR = Path(__file__).resolve().parent
TOL = 1e-4  # the radius search tolerance, also the radius comparison tolerance
CHILD_TIMEOUT_S = 120


@dataclass
class Round:
    watch: Stopwatch
    work: int = 0  # units counted by ops_per_s
    outputs: list = field(default_factory=list)  # what check() reads

    @property
    def latencies(self) -> list[float]:
        """Adjusted seconds, one per operation."""
        return self.watch.adjusted()


def load_expected() -> dict:
    return json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))


def round12(obj):
    """Numbers as the CLI prints them: %.12g, non-finite as null.

    A copy of the CLI's private helper, so the gate does not depend on how
    the CLI is organised.
    """
    if isinstance(obj, float):
        return None if not math.isfinite(obj) else float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(v) for v in obj]
    return obj


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest(report) -> str:
    return sha256(json.dumps(round12(report.to_json()), sort_keys=True).encode())


# ======================================================================
# scan-default


def verify_case(case_id: str):
    return theorems.verify_theorem(theorems.TheoremCase.make(case_id))


class ScanDefault:
    name = "scan-default"
    unit_of_work = "members scanned"

    def __init__(self, seed: int, expected: dict, tmp: Path):
        self.expected = expected
        self.case_ids = sorted(theorems.CASE_IDS)
        default_grid()

    def warm_up(self) -> None:
        theorems.verify_theorem(theorems.TheoremCase.make("T34"))

    def run_round(self, calibrated: bool = True) -> Round:
        rnd = Round(Stopwatch(calibrated))
        for case_id in self.case_ids:
            try:
                rep = rnd.watch.time(verify_case, case_id)
            except Exception as exc:  # an operation that raises is a failed operation
                rep = exc
            else:
                rnd.work += rep.cases_total
            rnd.outputs.append((case_id, rep))
        return rnd

    def check(self, rnd: Round) -> list[str]:
        failures = []
        for case_id, rep in rnd.outputs:
            want = self.expected["scan"][case_id]
            if isinstance(rep, Exception):
                failures.append(f"{case_id}: raised {rep!r}")
            elif rep.counterexample_found:
                failures.append(f"{case_id}: counterexample {rep.conclusion_failures[0]}")
            elif (rep.cases_total, rep.hypothesis_holds_count) != (want["cases_total"], want["hyp_holds"]):
                failures.append(f"{case_id}: {rep.cases_total} scanned / {rep.hypothesis_holds_count} held, "
                                f"want {want['cases_total']} / {want['hyp_holds']}")
            elif report_digest(rep) != want["digest"]:
                failures.append(f"{case_id}: report digest differs")
        return failures


# ======================================================================
# radius-envelope


def radius_gate() -> tuple[ClassSpec, ClassSpec]:
    """The membership gate of ``gftkit radius --lambda 1 --alpha 1``."""
    return ClassSpec.u(1.0, 1.0), ClassSpec.r()


RADIUS_CLASSES = (("convex", ClassSpec.convex()), ("m_alpha", ClassSpec.m_alpha(1.0)))


def closed_forms() -> dict[str, float]:
    return {"convex": radius_convexity(1.0, 1.0), "m_alpha": radius_inv_alpha_convexity(1.0, 1.0)}


def gated_members(family) -> list:
    gate = radius_gate()
    grid = default_grid()
    return [m for m in theorems.make_family(family)
            if all(check_membership(s, m.f, grid).verdict is Verdict.HOLDS for s in gate)]


def ring_passes(f: AnalyticFunction, spec: ClassSpec, r: float) -> bool:
    rep = check_membership(spec, f, DiskGrid((r,), 720), eps=0.0)
    return not math.isnan(rep.margin) and rep.margin > 0


def envelope_failures(frozen: Optional[dict], closed: float, radius: float, label: str,
                      member_radii: dict[str, float]) -> list[str]:
    """Gate on one family envelope; ``frozen`` is None for seeds without frozen values."""
    out = []
    if closed > radius + TOL:
        out.append(f"closed form {closed} exceeds envelope {radius}")
    if frozen is None:
        if label not in member_radii or member_radii[label] != radius or radius != min(member_radii.values()):
            out.append(f"envelope ({radius}, {label}) is not the smallest member radius")
        return out
    if abs(radius - frozen["radius"]) > TOL:
        out.append(f"envelope {radius} differs from {frozen['radius']}")
    # ties are common (every member can reach 1 - tol), so any member whose
    # frozen radius is within tol of the frozen envelope is a valid witness
    if label not in frozen["members"] or abs(frozen["members"][label] - frozen["radius"]) > TOL:
        out.append(f"witness {label} is not extremal")
    return out


class RadiusEnvelope:
    name = "radius-envelope"
    unit_of_work = "property_radius calls"

    def __init__(self, seed: int, expected: dict, tmp: Path):
        self.seed = seed
        self.expected = expected
        self.families = (
            ("mobius", theorems.mobius_ratio_family()),
            ("taylor", theorems.random_taylor_family(seed, 6, 4)),
        )
        self.closed = closed_forms()

    def frozen(self, family: str) -> Optional[dict]:
        if family == "mobius":
            return self.expected["radius"]["mobius"]
        return self.expected["radius"]["taylor"].get(str(self.seed))

    def warm_up(self) -> None:
        radii.property_radius(AnalyticFunction.mobius(1, []), ClassSpec.convex(), tol=TOL)

    def run_round(self, calibrated: bool = True) -> Round:
        rnd = Round(Stopwatch(calibrated))
        calls: list = []  # (f, radius) per property_radius call
        inner = radii.property_radius

        # family_property_radius looks property_radius up in its module, so
        # each call is timed there without changing the search itself
        def timed(f, spec, *args, **kwargs):
            r = rnd.watch.time(inner, f, spec, *args, **kwargs)
            calls.append((f, r))
            return r

        radii.property_radius = timed
        try:
            for fam_name, family in self.families:
                kept = gated_members(family)
                labels = {id(m.f): m.label for m in kept}
                for cls_name, spec in RADIUS_CLASSES:
                    first = len(calls)
                    try:
                        env = radii.family_property_radius(kept, spec, tol=TOL)
                    except Exception as exc:  # an operation that raises is a failed operation
                        env = exc
                    rnd.outputs.append((fam_name, cls_name, spec, env, len(kept),
                                        [(labels[id(f)], f, r) for f, r in calls[first:]]))
        finally:
            radii.property_radius = inner
        rnd.work = len(calls)
        return rnd

    def check(self, rnd: Round) -> list[str]:
        failures = []
        for fam_name, cls_name, spec, env, kept, members in rnd.outputs:
            where = f"{fam_name}/{cls_name}"
            frozen = self.frozen(fam_name)
            if isinstance(env, Exception):
                failures.extend(f"{where}: raised {env!r}" for _ in members or [None])
                continue
            frozen = None if frozen is None else frozen[cls_name]
            bad = envelope_failures(frozen, self.closed[cls_name], env.radius, env.witness_label,
                                    {label: r for label, _, r in members})
            if frozen is not None and kept != len(frozen["members"]):
                bad.append(f"gate kept {kept} members, want {len(frozen['members'])}")
            if bad:  # a wrong envelope fails every call that produced it
                failures.extend(f"{where}: {'; '.join(bad)}" for _ in members)
                continue
            for label, f, r in members:
                if frozen is not None:
                    want = frozen["members"].get(label)
                    if want is None or abs(r - want) > TOL:
                        failures.append(f"{where}: {label} radius {r}, want {want}")
                elif not 0 <= r <= 1 - TOL or (r > 0 and not ring_passes(f, spec, r)):
                    failures.append(f"{where}: {label} radius {r} fails its own ring")
        return failures


# ======================================================================
# cli-batch


def cli_commands(seed: int, tmp: Path) -> list[tuple[str, list[str]]]:
    mob, tay, out = str(tmp / "mobius.json"), str(tmp / "taylor.json"), str(tmp / "dump.csv")
    return [
        ("constants", ["constants", "--lambda", "1", "--alpha", "0"]),
        ("constants", ["constants", "--alpha", "0.75", "--beta", "0.5", "--json"]),
        ("check", ["check", "--class", "convex", "--fn", mob]),
        ("check", ["check", "--class", "G:0.75,0.5", "--grid", "coarse", "--fn", tay]),
        ("verify", ["verify", "--case", "T41"]),
        ("radius", ["radius", "--lambda", "1", "--alpha", "1", "--family", f"random:{seed},6,4"]),
        ("dump", ["dump", "--functional", "mixed:0.5", "--grid", "0.3,0.6@90", "--fn", mob, "--out", out]),
    ]


DUMP_FILES = ("dump.csv", "dump.geometry.json")


def write_cli_inputs(tmp: Path) -> None:
    taylor = AnalyticFunction.taylor([1, 0.2, 0.05j, -0.01], HTag(1 + 0j, 1))
    for name, f in (("mobius.json", half_plane_map()), ("taylor.json", taylor)):
        (tmp / name).write_text(json.dumps(f.to_json()), encoding="utf-8")


def run_cli_child(argv: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "gftkit.cli", *argv], capture_output=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout


def run_cli_inprocess(argv: list[str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


def parse_radius_stdout(text: str) -> dict[str, tuple[float, float, str]]:
    """property -> (closed form, envelope, witness) from ``gftkit radius`` output."""
    rows = {}
    for line in text.splitlines():
        name, _, rest = line.partition(": ")
        fields = dict(part.split(" = ", 1) for part in rest.split(", "))
        rows[name] = (float(fields["closed_form"]), float(fields["family_envelope"]), fields["witness"])
    return rows


class CliBatch:
    name = "cli-batch"
    unit_of_work = "CLI commands"

    def __init__(self, seed: int, expected: dict, tmp: Path, in_process: bool = False):
        self.seed = seed
        self.tmp = tmp
        self.expected = expected
        self.commands = cli_commands(seed, tmp)
        self.run_one = run_cli_inprocess if in_process else run_cli_child
        write_cli_inputs(tmp)

    def warm_up(self) -> None:
        self.run_one(self.commands[0][1])

    def run_round(self, calibrated: bool = True) -> Round:
        rnd = Round(Stopwatch(calibrated))
        for sub, argv in self.commands:
            for name in DUMP_FILES:
                (self.tmp / name).unlink(missing_ok=True)
            try:
                code, stdout = rnd.watch.time(self.run_one, argv)
            except Exception as exc:  # an operation that raises is a failed operation
                code, stdout = exc, b""
            rnd.work += 1
            files = [sha256((self.tmp / n).read_bytes()) if (self.tmp / n).exists() else None
                     for n in DUMP_FILES] if sub == "dump" else []
            # paths differ between checkouts; the frozen output is tmp-relative
            text = stdout.decode("utf-8", "replace").replace(str(self.tmp) + os.sep, "")
            rnd.outputs.append((sub, argv, code, text, files))
        return rnd

    def check(self, rnd: Round) -> list[str]:
        failures = []
        frozen_cli = self.expected["cli"]
        for i, (sub, argv, code, text, files) in enumerate(rnd.outputs):
            what = " ".join(argv[:3])
            if code != 0:
                failures.append(f"{what}: exit {code!r}")
            elif sub == "radius":
                failures.extend(f"{what}: {msg}" for msg in self._radius_failures(text))
            elif sha256(text.encode()) != frozen_cli[i]["stdout_sha256"] or files != frozen_cli[i]["files"]:
                failures.append(f"{what}: output differs from the frozen bytes")
        return failures

    def _radius_failures(self, text: str) -> list[str]:
        try:
            rows = parse_radius_stdout(text)
        except (ValueError, KeyError) as exc:
            return [f"unparsable output {exc!r}"]
        frozen = self.expected["radius"]["taylor"].get(str(self.seed))
        out = []
        names = {"convex": "convexity", "m_alpha": "inv_alpha_convexity"}
        for cls_name, closed in closed_forms().items():
            if names[cls_name] not in rows:
                out.append(f"missing {names[cls_name]} row")
                continue
            printed_closed, radius, label = rows[names[cls_name]]
            if abs(printed_closed - closed) > TOL:
                out.append(f"closed form {printed_closed}, want {closed}")
            if frozen is not None:
                out.extend(envelope_failures(frozen[cls_name], closed, radius, label, {}))
            elif not (0 <= radius <= 1 - TOL and closed <= radius + TOL
                      and label.startswith(f"A1-random[{self.seed}:")):
                out.append(f"envelope ({radius}, {label}) out of range")
        return out


WORKLOADS = {w.name: w for w in (ScanDefault, RadiusEnvelope, CliBatch)}

