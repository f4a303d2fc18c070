"""In-memory spans around calls into gftkit's public functions.

gftkit modules import each other with ``from .x import y``, so a function
is reachable under several module attributes.  ``Tracer.installed()``
replaces every binding of each traced function in the gftkit modules with
a wrapper that records a span (name, start, end, parent, points) and
restores the originals on exit.  Nothing inside gftkit is edited.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded (GFT_THREADS unset), so children
never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from collections import Counter, defaultdict
from typing import Callable, Iterator, Optional

import numpy as np
from gftkit.membership import default_grid

MODULES = ("gftkit", "gftkit.core", "gftkit.constants", "gftkit.functionals",
           "gftkit.membership", "gftkit.radii", "gftkit.theorems", "gftkit.cli")

# the closed forms are counted where theorems and cli bind them, so calls
# between constants' own helpers are not counted twice
CONSTANTS_BOUND_IN = ("gftkit.theorems", "gftkit.cli")


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, points]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def parent_name(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def call(self, name: str, points: int, fn: Callable, args, kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, points]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def layers(self) -> dict[str, list]:
        """name -> [calls, points, self seconds]."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0, 0.0])
        for i, (name, start, end, _, points) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += points
            agg[2] += (end - start) - child[i]
        return out

    # ------------------------------------------------------------------
    # wrapping

    def _wrap(self, orig: Callable, key: Callable, after: Optional[Callable] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            name, points = key(*args, **kwargs)
            result = tracer.call(name, points, orig, args, kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        mods = {name: importlib.import_module(name) for name in MODULES}
        core, membership = mods["gftkit.core"], mods["gftkit.membership"]
        patches: list[tuple[object, str, object]] = []

        def patch(owner, attr: str, new) -> None:
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        def patch_function(orig: Callable, key: Callable, after=None, where=MODULES) -> None:
            wrapper = self._wrap(orig, key, after)
            for modname in where:
                for attr, value in list(vars(mods[modname]).items()):
                    if value is orig:
                        patch(mods[modname], attr, wrapper)

        patch(core.AnalyticFunction, "eval", self._wrap(core.AnalyticFunction.eval, _eval_key))
        patch(membership.DiskGrid, "__post_init__",
              self._wrap(membership.DiskGrid.__post_init__, _grid_key))

        fn = mods["gftkit.functionals"]
        patch_function(fn.evaluate_functional,
                       lambda spec, f, z, g=None: (f"functionals.evaluate.{spec.kind.value}", np.size(z)))
        patch_function(fn.ratio_target,
                       lambda f, g, z: ("functionals.evaluate.ratio_target", np.size(z)))
        patch_function(fn.power_target,
                       lambda f, g, alpha, z: ("functionals.evaluate.power_target", np.size(z)))
        patch_function(membership.check_membership, _check_key, self._after_check)
        patch_function(membership.slit_avoidance,
                       lambda values, slit, eps=1e-9: ("membership.slit_avoidance", np.size(values)))
        patch_function(membership.region_containment,
                       lambda values, region, eps=1e-9: ("membership.region_containment", np.size(values)))
        radii = mods["gftkit.radii"]
        patch_function(radii.property_radius, lambda *a, **k: ("radii.property_radius", 0))
        patch_function(radii.family_property_radius, lambda *a, **k: ("radii.family_property_radius", 0))
        patch_function(mods["gftkit.theorems"].verify_theorem,
                       lambda *a, **k: ("theorems.verify", 0), self._after_verify)

        constants = mods["gftkit.constants"]
        for attr, value in list(vars(constants).items()):
            if inspect.isfunction(value) and value.__module__ == constants.__name__ and not attr.startswith("_"):
                patch_function(value, lambda *a, **k: ("constants", 0), where=CONSTANTS_BOUND_IN)
        try:
            yield self
        finally:
            for owner, attr, old in reversed(patches):
                setattr(owner, attr, old)

    # ------------------------------------------------------------------
    # counters read off results

    def _after_check(self, rep, spec, f, grid=None, eps=1e-9) -> None:
        if rep.verdict.value == "UNDECIDED":
            self.counts["membership.undecided"] += 1
        if self.parent_name() == "radii.property_radius" and grid is not None:
            self.counts["radii.rings"] += len(grid.radii)
            self.counts[f"radii.rings.{f.variant.value}"] += len(grid.radii)
            self.counts["radii.ring_points"] += grid.size

    def _after_verify(self, rep, *args, **kwargs) -> None:
        self.counts["theorems.members"] += rep.cases_total
        self.counts["theorems.hyp_holds"] += rep.hypothesis_holds_count
        self.counts["theorems.concl_evaluated"] += sum(r.concl_verdict is not None for r in rep.rows)
        self.counts["theorems.errors"] += len(rep.errors)


def _eval_key(self, z, order=0):
    return f"core.eval.{self.variant.value}.o{order}", np.size(z)


def _grid_key(self):
    return "membership.grid", len(self.radii) * self.angles_per_ring


def _check_key(spec, f, grid=None, eps=1e-9):
    return f"membership.check.{spec.kind.value.lower()}", (grid or default_grid()).size
