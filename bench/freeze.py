"""Write expected.json, the outputs the benchmark's correctness gate compares with.

    python3 bench/freeze.py

Rerun only when a change is meant to alter gftkit's outputs, and say so in
that change: the frozen values are what make a faster but wrong program
fail the benchmark.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

FROZEN_TAYLOR_SEEDS = range(32)


def envelope(family, spec) -> dict:
    import workloads
    from gftkit import radii

    kept = workloads.gated_members(family)
    env = radii.family_property_radius(kept, spec, tol=workloads.TOL)
    return {
        "radius": env.radius,
        "witness": env.witness_label,
        "members": {m.label: radii.property_radius(m.f, spec, tol=workloads.TOL) for m in kept},
    }


def freeze(tmp: Path) -> dict:
    import workloads
    from gftkit import theorems

    scan = {}
    for case_id in sorted(theorems.CASE_IDS):
        rep = theorems.verify_theorem(theorems.TheoremCase.make(case_id))
        scan[case_id] = {"cases_total": rep.cases_total, "hyp_holds": rep.hypothesis_holds_count,
                         "digest": workloads.report_digest(rep)}

    def envelopes(family) -> dict:
        return {name: envelope(family, spec) for name, spec in workloads.RADIUS_CLASSES}

    radius = {
        "mobius": envelopes(theorems.mobius_ratio_family()),
        "taylor": {str(s): envelopes(theorems.random_taylor_family(s, 6, 4)) for s in FROZEN_TAYLOR_SEEDS},
    }

    batch = workloads.CliBatch(0, {}, tmp)
    cli = []
    for sub, argv, code, text, files in batch.run_round().outputs:
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        # the radius output depends on the seed and is compared within tol instead
        cli.append(None if sub == "radius" else
                   {"argv": argv[:3], "stdout_sha256": workloads.sha256(text.encode()), "files": files})
    return {"scan": scan, "radius": radius, "cli": cli}


def main() -> int:
    run.enter_benchmark_environment()
    expected = run.with_tmp(freeze)
    path = run.BENCH_DIR / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
