"""gftkit benchmark: timed end-to-end runs and a separate traced run.

Usage (from the repository root):

    python3 bench/run.py --workload scan-default --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30        # every workload in turn
    python3 bench/run.py --self-test                          # quick check of the harness

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; lines before it start with
``#`` and name every metric with its unit and sample count.  The exit code
is 0 only when every operation passed its correctness check.

The benchmark runs against the working tree's ``src/`` and needs nothing
installed beyond numpy.  See README.md in this directory for the workloads
and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import NoReturn, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("scan-default", "radius-envelope", "cli-batch")

PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
TAIL_Q = 0.8  # the highest percentile with ten samples beyond it in every workload's run
TAIL_SAMPLES = 10
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "latency_ms_p50": "ms",
    "latency_ms_p80": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

CLASSES = ("g", "p_tilt", "u", "r", "starlike", "convex", "strongly_starlike", "m_alpha")
FUNCTIONALS = ("starlike", "convex", "mixed", "u", "slit1", "tilted", "thm3", "ratio2", "power2",
               "argsum", "ratio_target", "power_target")
SUBCOMMANDS = ("constants", "check", "verify", "radius", "dump")


def _per_layer() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    out: dict[str, str] = {}

    def span(prefix: str, *whats: str) -> None:
        for what in whats:
            out[f"{prefix}.{what}"] = "s" if what == "self_s" else "count"

    for variant in ("mobius", "taylor"):
        for order in range(3):
            span(f"core.eval.{variant}.o{order}", "calls", "points", "self_s")
    for kind in FUNCTIONALS:
        span(f"functionals.evaluate.{kind}", "calls", "points", "self_s")
    for kind in CLASSES:
        span(f"membership.check.{kind}", "calls", "points", "self_s")
    span("membership.slit_avoidance", "calls", "self_s")
    span("membership.region_containment", "calls", "self_s")
    span("membership.grid", "builds", "points", "self_s")
    out["membership.undecided"] = "count"
    span("theorems.verify", "calls", "self_s")
    for name in ("members", "hyp_holds", "concl_evaluated", "errors"):
        out[f"theorems.{name}"] = "count"
    out["theorems.concl_ratio"] = "ratio"
    span("radii.property_radius", "calls", "self_s")
    span("radii.family_property_radius", "calls", "self_s")
    for name in ("rings", "rings.mobius", "rings.taylor", "ring_points"):
        out[f"radii.{name}"] = "count"
    out["radii.rings_per_radius"] = "ratio"
    span("constants", "calls", "self_s")
    out["cli.startup_ms"] = "ms"
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}.ms_p50"] = "ms"
    out["trace.untraced_round_s"] = "s"
    out["trace.overhead_ratio"] = "ratio"
    return out


PER_LAYER = _per_layer()


# ======================================================================
# process hygiene


def pinned_environment() -> Optional[dict[str, str]]:
    """The environment every benchmark process runs in, or None if already in it."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("GFT_THREADS", None)  # one thread: scans run members sequentially
    paths = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    return None if env == dict(os.environ) else env


def fail(message: str, code: int = 2) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(code)


def enter_benchmark_environment() -> None:
    """Re-run this script under the pinned environment if needed, then import gftkit.

    The hash seed and the thread pins only take effect in a fresh interpreter.
    """
    if not (SRC / "gftkit" / "__init__.py").is_file():
        fail(f"gftkit sources not found under {SRC.relative_to(ROOT)}/; run from a full checkout")
    env = pinned_environment()
    if env is not None:
        os.execve(sys.executable, [sys.executable, str(Path(sys.argv[0]).resolve()), *sys.argv[1:]], env)
    # one CPU for the benchmark and the children it starts: the two virtual
    # CPUs of a shared host run at different speeds, and the reference
    # kernel only calibrates the CPU it runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import gftkit

    if Path(gftkit.__file__).resolve().parent != (SRC / "gftkit").resolve():
        fail(f"imported gftkit from {gftkit.__file__}, not from the working tree")


def provenance(seed: int) -> dict:
    import hashlib

    import numpy

    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=False)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gftkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": max(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "GFT_THREADS": "unset",
        **PINNED_ENV,
    }


# ======================================================================
# measurement


@dataclass
class Result:
    metrics: dict[str, float]
    samples: dict[str, int]
    attempted: int
    failures: list[str]
    workload: object = None
    last_round: object = None
    notes: list[str] = field(default_factory=list)


def run_rounds(step, seconds: float, min_samples: int = 0) -> list:
    """Whole rounds until the next would overrun ``seconds``; at least ``min_samples`` operations."""
    rounds, samples = [], 0
    start = time.perf_counter()
    while True:
        rnd = step()
        rounds.append(rnd)
        if min_samples:
            samples += len(rnd.latencies)
        used = time.perf_counter() - start
        if samples >= min_samples and used * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the order statistics.

    A round's operations form clusters of similar times (one per case,
    member or command); an interpolated percentile that falls between two
    clusters jumps with the clusters' extreme samples, this estimate does not.
    """
    import numpy as np

    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    if min(a, b) <= 1:
        raise ValueError(f"{n} samples are too few for a {q} quantile")
    steps = 20  # integration steps per order statistic
    t = np.linspace(0.0, 1.0, steps * n + 1)
    with np.errstate(divide="ignore"):  # the Beta density is 0 at the ends for a, b > 1
        log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())  # scaled to its mode; only the weights' ratios matter
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    weights = np.diff(cdf[::steps])
    return float(weights @ xs / weights.sum())


def make_workload(name: str, seed: int, tmp: Path, in_process: bool = False):
    import workloads

    cls = workloads.WORKLOADS[name]
    kwargs = {"in_process": True} if in_process else {}
    return cls(seed, workloads.load_expected(), tmp, **kwargs)


def time_children(argv: list[str], repeats: int):
    from clock import Stopwatch

    watch = Stopwatch()
    for _ in range(repeats):
        proc = watch.time(subprocess.run, argv, capture_output=True, timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            fail(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr.decode()[-400:]}", 1)
    return watch


def timed_run(name: str, seed: int, seconds: float, tmp: Path, min_samples: Optional[int] = None,
              setup_repeats: int = SETUP_REPEATS) -> Result:
    from clock import REFERENCE_NOMINAL_S

    wl = make_workload(name, seed, tmp)
    wl.warm_up()
    if min_samples is None:
        min_samples = math.ceil(TAIL_SAMPLES / (1 - TAIL_Q))
    rounds = run_rounds(wl.run_round, seconds, min_samples)
    who = resource.RUSAGE_CHILDREN if name == "cli-batch" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    latencies = [x for r in rounds for x in r.latencies]
    raw = [x for r in rounds for x in r.watch.raw]
    if not latencies:
        fail(f"{name}: no operation was timed", 1)
    failures = [msg for r in rounds for msg in wl.check(r)]

    setup = time_children([sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                           "--seed", str(seed), "--setup-only"], setup_repeats)
    n = len(latencies)
    work = sum(r.work for r in rounds)
    refs = [x for r in rounds for x in r.watch.refs]
    return Result(
        metrics={
            "latency_ms_p50": 1000 * quantile(latencies, 0.5),
            "latency_ms_p80": 1000 * quantile(latencies, TAIL_Q),
            "ops_per_s": work / sum(latencies),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": median(setup.adjusted()),
        },
        samples={"latency_ms_p50": n, "latency_ms_p80": n, "ops_per_s": n,
                 "peak_rss_mb": 1, "setup_s": len(setup.raw)},
        attempted=n,
        failures=failures,
        workload=wl,
        last_round=rounds[-1],
        notes=[f"{len(rounds)} rounds, {work} {wl.unit_of_work}",
               f"unadjusted: latency p50 {1000 * quantile(raw, 0.5):.6g} ms, "
               f"p80 {1000 * quantile(raw, TAIL_Q):.6g} ms, {work / sum(raw):.6g} ops/s, "
               f"setup {median(setup.raw):.6g} s; reference kernel median {1000 * median(refs):.4g} ms "
               f"(nominal {1000 * REFERENCE_NOMINAL_S:g} ms)"],
    )


def layer_values(tracer) -> dict[str, float]:
    """Per-layer values of one traced round; layers the round never entered read 0."""
    values = {name: 0 for name in PER_LAYER}
    for name, (calls, points, self_s) in tracer.layers().items():
        for what, value in (("calls", calls), ("builds", calls), ("points", points), ("self_s", self_s)):
            if f"{name}.{what}" in values:
                values[f"{name}.{what}"] = value
    for name, count in tracer.counts.items():
        if name in values:
            values[name] = count
    members = values["theorems.members"]
    values["theorems.concl_ratio"] = values["theorems.concl_evaluated"] / members if members else 0
    calls = values["radii.property_radius.calls"]
    values["radii.rings_per_radius"] = values["radii.rings"] / calls if calls else 0
    return values


def traced_run(name: str, seed: int, seconds: float, tmp: Path) -> Result:
    from spans import Tracer

    # the CLI is called in-process here so that its calls into the library are traced
    wl = make_workload(name, seed, tmp, in_process=name == "cli-batch")
    wl.warm_up()

    def pair():
        plain = wl.run_round()
        tracer = Tracer()
        with tracer.installed():
            traced = wl.run_round(calibrated=False)
        return plain, traced, layer_values(tracer)

    pairs = run_rounds(pair, seconds)
    metrics = {k: median(p[2][k] for p in pairs) for k in PER_LAYER}
    untraced = sum(sum(p[0].watch.raw) for p in pairs)
    metrics["trace.untraced_round_s"] = untraced / len(pairs)
    metrics["trace.overhead_ratio"] = sum(sum(p[1].watch.raw) for p in pairs) / untraced
    if name == "cli-batch":
        startup = time_children([sys.executable, "-c", "import gftkit.cli"], STARTUP_REPEATS)
        metrics["cli.startup_ms"] = 1000 * median(startup.adjusted())
        for sub in SUBCOMMANDS:
            times = [t for p in pairs for out, t in zip(p[0].outputs, p[0].latencies) if out[0] == sub]
            metrics[f"cli.{sub}.ms_p50"] = 1000 * median(times)
    rounds = [r for p in pairs for r in (p[0], p[1])]
    failures = [msg for r in rounds for msg in wl.check(r)]
    return Result(
        metrics=metrics,
        samples={k: len(pairs) for k in PER_LAYER},
        attempted=sum(len(r.latencies) for r in rounds),
        failures=failures,
        workload=wl,
        last_round=rounds[-1],
        notes=[f"{len(pairs)} untraced + {len(pairs)} traced rounds"],
    )


# ======================================================================
# entry points


def with_tmp(fn, *args, **kwargs):
    """Run fn with a scratch directory inside the checkout, removed afterwards."""
    parent = ROOT / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=parent))
    try:
        return fn(*args, tmp=tmp, **kwargs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # not empty while another run uses it
            parent.rmdir()


def report(result: Result, units: dict[str, str], info: dict) -> int:
    print(f"# provenance {json.dumps(info, sort_keys=True)}")
    for note in result.notes:
        print(f"# {note}")
    for name, unit in units.items():
        print(f"# {name} = {result.metrics[name]:.6g} {unit} (n={result.samples[name]})")
    failed = len(result.failures)
    print(f"# failed_frac = {failed / result.attempted:.6g} ({failed}/{result.attempted} operations)")
    for msg in result.failures[:20]:
        print(f"# FAILED {msg}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and imports stay per workload."""
    worst = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        print(f"# == {name}", flush=True)
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, timeout=600, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return worst


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true",
                        help="run each workload once and check the metrics and the correctness gate")
    args = parser.parse_args(argv)

    enter_benchmark_environment()
    if args.self_test:
        from selftest import self_test

        return self_test(args.seed)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        with_tmp(lambda tmp: make_workload(args.workload, args.seed, tmp).warm_up())
        return 0
    if args.trace:
        result = with_tmp(traced_run, args.workload, args.seed, args.seconds)
        units = PER_LAYER
    else:
        result = with_tmp(timed_run, args.workload, args.seed, args.seconds)
        units = END_TO_END
    return report(result, units, provenance(args.seed))


if __name__ == "__main__":
    sys.exit(main())
