"""Short check of the harness itself: ``python3 bench/run.py --self-test``.

Runs each workload for one round, timed and traced, and fails unless
- BENCHMARK.json declares exactly the metrics and units run.py reports,
- every metric is present with a numeric value,
- every operation passes the correctness gate,
- a deliberately perturbed expectation makes the gate fail,
- the traced scan counts the members and held hypotheses frozen in
  expected.json, and no radius work.
It also prints the per-layer counts recorded in README.md for comparison.
"""

from __future__ import annotations

import json

import run

PERTURB = {
    "scan-default": lambda exp: exp["scan"]["C310"].update(digest="0" * 64),
    "radius-envelope": lambda exp: exp["radius"]["mobius"]["convex"].update(
        radius=exp["radius"]["mobius"]["convex"]["radius"] + 0.01),
    "cli-batch": lambda exp: exp["cli"][0].update(stdout_sha256="0" * 64),
}


def function_self_times(metrics: dict) -> list[tuple[float, str]]:
    """Self seconds summed per traced function, largest first."""
    totals: dict[str, float] = {}
    for name, value in metrics.items():
        if name.endswith(".self_s"):
            parts = name.split(".")
            key = ".".join(parts[:3] if parts[0] == "core" else parts[:2])
            totals[key] = totals.get(key, 0.0) + value
    return sorted(((v, k) for k, v in totals.items()), reverse=True)


def self_test(seed: int) -> int:
    problems = []
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        if {m["name"]: m["unit"] for m in declared[key]} != units:
            problems.append(f"BENCHMARK.json {key} differs from the metrics run.py reports")

    for name in run.WORKLOAD_NAMES:
        timed = run.with_tmp(run.timed_run, name, seed, 0, min_samples=1, setup_repeats=1)
        traced = run.with_tmp(run.traced_run, name, seed, 0)
        for kind, result, units in (("timed", timed, run.END_TO_END), ("traced", traced, run.PER_LAYER)):
            missing = [m for m in units if not isinstance(result.metrics.get(m), (int, float))]
            if missing:
                problems.append(f"{name} {kind}: no value for {missing}")
            problems.extend(f"{name} {kind}: {msg}" for msg in result.failures)
        wl = timed.workload
        PERTURB[name](wl.expected)
        if not wl.check(timed.last_round):
            problems.append(f"{name}: a perturbed expectation did not trip the correctness gate")

        m = traced.metrics
        if name == "scan-default":
            frozen = wl.expected["scan"].values()
            want = (sum(c["cases_total"] for c in frozen), sum(c["hyp_holds"] for c in frozen))
            if (m["theorems.members"], m["theorems.hyp_holds"]) != want:
                problems.append(f"scan: traced {m['theorems.members']} members / {m['theorems.hyp_holds']} "
                                f"held, frozen {want[0]} / {want[1]}")
            busy_radii = [k for k in run.PER_LAYER if k.startswith("radii.") and m[k]]
            if busy_radii:
                problems.append(f"scan: radius layer did work: {busy_radii}")
        print(f"# {name}: members={m['theorems.members']} hyp_holds={m['theorems.hyp_holds']} "
              f"radii.rings={m['radii.rings']} (mobius {m['radii.rings.mobius']}, "
              f"taylor {m['radii.rings.taylor']}) overhead={m['trace.overhead_ratio']:.3f}")
        top = ", ".join(f"{k} {v:.3f}s" for v, k in function_self_times(m)[:4])
        print(f"#   largest self times: {top}", flush=True)

    for msg in problems:
        print(f"# PROBLEM {msg}")
    print("self-test: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1
