"""Layer numbers for the baseline rows of ROADMAP.md: ``python3 bench/baseline.py``.

- ``check_membership(convex)`` on the default 23x720 grid for the Koebe
  map z/(1-z)^2 as a Moebius product and as its degree-8 Taylor polynomial;
- ``property_radius(koebe, convex)``.

Each row is the median of repeated calls, timed with the benchmark's
reference-adjusted stopwatch (raw medians alongside), on one pinned CPU.
"""

from __future__ import annotations

import sys
from statistics import median

import run

REPEATS = {"check": 60, "radius": 15}


def main() -> int:
    run.enter_benchmark_environment()
    from clock import Stopwatch

    from gftkit.core import koebe_like
    from gftkit.membership import ClassSpec, check_membership, default_grid
    from gftkit.radii import property_radius

    mobius = koebe_like()
    taylor = mobius.to_taylor(8)
    convex = ClassSpec.convex()
    grid = default_grid()
    rows = [
        ("check_membership(convex), Moebius Koebe map", "check",
         lambda: check_membership(convex, mobius, grid)),
        ("check_membership(convex), degree-8 Taylor Koebe", "check",
         lambda: check_membership(convex, taylor, grid)),
        ("property_radius(koebe, convex)", "radius", lambda: property_radius(mobius, convex)),
    ]
    for label, kind, call in rows:
        call()  # warm-up
        watch = Stopwatch()
        for _ in range(REPEATS[kind]):
            watch.time(call)
        print(f"{label}: {1000 * median(watch.adjusted()):.3g} ms "
              f"(raw {1000 * median(watch.raw):.3g} ms, n={REPEATS[kind]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
