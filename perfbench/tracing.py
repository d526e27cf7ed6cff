"""Per-layer tracing of mdlab from outside the package.

`Tracer.install()` replaces every public function of the layer modules, at
the module attribute and at every other mdlab module global that is bound to
the same function, by a wrapper that records a span.  Calls made inside a
module go through its globals, so they are traced too.  The evaluator and
derivative of each MatrixField that a `witnesses` factory returns are wrapped
as well, so field evaluation is the `witnesses` layer and the integration
around it the `topology` layer.  `uninstall()` puts every original back;
nothing under src/ is changed.

A span's self time is its duration minus the spans of other layers under
it.  A layer's time counts only its outermost spans, so calls between
functions of one layer are not counted twice.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import statistics
import sys
import time
from collections import Counter

LAYERS = ("liealg", "orbits", "foliation", "intlinalg", "ktheory", "witnesses",
          "topology", "invariants", "cli")

# Per-layer metric names and units, in the order they are printed.
METRICS = {
    "witnesses.value_s": "s",
    "witnesses.partial_s": "s",
    "witnesses.points": "count",
    "witnesses.points_per_grid_point": "ratio",
    "topology.winding_3d.self_s": "s",
    "topology.chern_2d.self_s": "s",
    "topology.winding_1d_s": "s",
    "topology.grid_points": "count",
    "topology.grid_points_per_s": "1/s",
    "topology.winding_3d.residual_max": "1",
    "topology.chern_2d.order": "1",
    "invariants.F2_s": "s",
    "invariants.F3_s": "s",
    "invariants.self_s": "s",
    "ktheory.solve_six_term_s": "s",
    "ktheory.solve_six_term_calls": "count",
    "ktheory.exactness_tests": "count",
    "ktheory.completions_per_test": "ratio",
    "intlinalg.snf_s": "s",
    "intlinalg.oracle_s": "s",
    "intlinalg.calls": "count",
    "orbits.md_verify_s": "s",
    "orbits.covectors_per_s": "1/s",
    "orbits.flow_vs_closed_form_s": "s",
    "orbits.expm_calls": "count",
    "foliation.preservation_s": "s",
    "foliation.leafspace_s": "s",
    "foliation.integrability_s": "s",
    "foliation.fibration_s": "s",
    "foliation.act_calls": "count",
    "liealg.build_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class _Forward:
    """Attribute proxy: the given overrides, everything else from the target."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, key):
        return getattr(self._target, key)


class Tracer:
    def __init__(self):
        self.mods = {name: importlib.import_module(f"mdlab.{name}") for name in LAYERS}
        self._patches: list[tuple[object, str, object]] = []
        self.stack: list[list] = []
        self._fn: dict[tuple[str, str], list] = {}
        self._layer: dict[str, list] = {}
        self.counts = Counter()     # named work counts
        self.kind_time = Counter()  # index_invariant kind -> seconds
        self.integrals: list[tuple[str, str, tuple, float, float]] = []

    def reset(self):
        """Zero every statistic in place; the wrappers hold references to them."""
        self.stack.clear()
        for st in self._fn.values():
            st[:] = [0, 0.0, 0.0, 0]
        for st in self._layer.values():
            st[:] = [0, 0.0]
        self.counts.clear()
        self.kind_time.clear()
        self.integrals.clear()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer, name, fn, on_result=None):
        # Per function: calls, time and self time of its outermost calls, and
        # the current nesting depth.  Per layer: entries from outside, self time.
        st = self._fn.setdefault((layer, name), [0, 0.0, 0.0, 0])
        ly = self._layer.setdefault(layer, [0, 0.0])
        stack = self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]  # layer, time of other layers' spans under it
            stack.append(frame)
            st[3] += 1
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                st[0] += 1
                st[3] -= 1
                foreign = frame[1]
                if not st[3]:
                    st[1] += dt
                    st[2] += dt - foreign
                if stack and stack[-1][0] == layer:
                    stack[-1][1] += foreign
                else:
                    if stack:
                        stack[-1][1] += dt
                    ly[0] += 1
                    ly[1] += dt - foreign
            if on_result is not None:
                on_result(args, kwargs, out, dt)
            return out

        return traced

    # -- installation --------------------------------------------------------

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            ("topology", "chern_2d"): self._on_integral,
            ("topology", "winding_3d"): self._on_integral,
            ("orbits", "md_verify"): self._on_md_verify,
            ("ktheory", "solve_six_term"): self._on_six_term,
            ("invariants", "index_invariant"): self._on_index_invariant,
        }
        wrapped = {}
        for layer, mod in self.mods.items():
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                if layer == "witnesses" and name != "build_witness":
                    fn = self._witness_factory(fn)
                if layer == "intlinalg" and name == "subgroup_equal":
                    fn = self._count_exactness_test(fn)
                wrapped[id(vars(mod)[name])] = self._wrap(layer, name, fn,
                                                          hooks.get((layer, name)))
        # Rebind every mdlab global that holds one of the wrapped functions.
        for modname, mod in list(sys.modules.items()):
            if modname != "mdlab" and not modname.startswith("mdlab."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._set(mod, attr, wrapped[id(value)])
        orbits = self.mods["orbits"]
        scipy = orbits.scipy
        expm = scipy.linalg.expm

        def counted_expm(*args, **kwargs):
            self.counts["expm"] += 1
            return expm(*args, **kwargs)

        self._set(orbits, "scipy", _Forward(scipy, linalg=_Forward(scipy.linalg,
                                                                    expm=counted_expm)))

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- hooks ---------------------------------------------------------------

    def _witness_factory(self, factory):
        topology = self.mods["topology"]

        @functools.wraps(factory)
        def make(*args, **kwargs):
            field = factory(*args, **kwargs)
            if not isinstance(field, topology.MatrixField) \
                    or getattr(field.evaluator, "counts_points", False):
                return field
            changes = {"evaluator": self._points(self._wrap("witnesses", "value",
                                                            field.evaluator))}
            if field.derivative is not None:
                changes["derivative"] = self._points(self._wrap("witnesses", "partial",
                                                                field.derivative))
            return dataclasses.replace(field, **changes)

        return make

    def _points(self, fn):
        def count(pts, *args):
            self.counts["points"] += len(pts)
            return fn(pts, *args)

        count.counts_points = True
        return count

    def _count_exactness_test(self, fn):
        # Runs inside the span of subgroup_equal; the caller's span is below it.
        @functools.wraps(fn)
        def test(*args, **kwargs):
            if len(self.stack) > 1 and self.stack[-2][0] == "ktheory":
                self.counts["exactness_tests"] += 1
            return fn(*args, **kwargs)

        return test

    def _on_integral(self, args, kwargs, res, dt):
        kind = "chern_2d" if len(res.grid) == 2 else "winding_3d"
        self.counts["grid_points"] += math.prod(res.grid)
        self.integrals.append((kind, res.name, tuple(res.grid), res.raw, res.residual))

    def _on_md_verify(self, args, kwargs, rep, dt):
        self.counts["covectors"] += rep.n_samples

    def _on_six_term(self, args, kwargs, sols, dt):
        self.counts["completions"] += len(sols)

    def _on_index_invariant(self, args, kwargs, res, dt):
        self.kind_time[res.kind] += dt

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last reset()."""
        c, t, fs = (Counter({k: v[i] for k, v in self._fn.items()}) for i in range(3))
        layer_self = Counter({k: v[1] for k, v in self._layer.items()})
        entries = Counter({k: v[0] for k, v in self._layer.items()})
        n = self.counts
        integral_s = t["topology", "chern_2d"] + t["topology", "winding_3d"]
        residuals_3d = [r for kind, _, _, _, r in self.integrals if kind == "winding_3d"]
        return {
            "witnesses.value_s": t["witnesses", "value"],
            "witnesses.partial_s": t["witnesses", "partial"],
            "witnesses.points": n["points"],
            "witnesses.points_per_grid_point": _ratio(n["points"], n["grid_points"]),
            "topology.winding_3d.self_s": fs["topology", "winding_3d"],
            "topology.chern_2d.self_s": fs["topology", "chern_2d"],
            "topology.winding_1d_s": t["topology", "winding_1d"],
            "topology.grid_points": n["grid_points"],
            "topology.grid_points_per_s": _ratio(n["grid_points"], integral_s),
            "topology.winding_3d.residual_max": max(residuals_3d, default=0.0),
            "topology.chern_2d.order": self.chern_order(),
            "invariants.F2_s": self.kind_time["F2"],
            "invariants.F3_s": self.kind_time["F3"],
            "invariants.self_s": layer_self["invariants"],
            "ktheory.solve_six_term_s": t["ktheory", "solve_six_term"],
            "ktheory.solve_six_term_calls": c["ktheory", "solve_six_term"],
            "ktheory.exactness_tests": n["exactness_tests"],
            "ktheory.completions_per_test": _ratio(n["completions"], n["exactness_tests"]),
            "intlinalg.snf_s": t["intlinalg", "snf"],
            "intlinalg.oracle_s": t["intlinalg", "minor_gcd_invariant_factors"],
            "intlinalg.calls": entries["intlinalg"],
            "orbits.md_verify_s": t["orbits", "md_verify"],
            "orbits.covectors_per_s": _ratio(n["covectors"], t["orbits", "md_verify"]),
            "orbits.flow_vs_closed_form_s": t["orbits", "flow_vs_closed_form"],
            "orbits.expm_calls": n["expm"],
            "foliation.preservation_s": t["foliation", "preservation_check"],
            "foliation.leafspace_s": t["foliation", "stratum_invariant_report"],
            "foliation.integrability_s": t["foliation", "integrability_check"],
            "foliation.fibration_s": t["foliation", "f1_fibration_check"],
            "foliation.act_calls": c["foliation", "act"],
            "liealg.build_s": t["liealg", "build_md5"],
            "cli.self_s": layer_self["cli"],
        }

    def chern_order(self) -> float:
        """Smallest observed order of the phat_disk Chern integral over grid doublings.

        The order between grids n and 2n is log2(|raw_n - 1| / |raw_2n - 1|);
        0 where fewer than two grids were integrated.
        """
        errs = {grid[0]: abs(raw - 1.0) for kind, name, grid, raw, _ in self.integrals
                if kind == "chern_2d" and name == "phat_disk"}
        orders = [math.log2(errs[n] / errs[2 * n]) for n in sorted(errs)
                  if 2 * n in errs and errs[2 * n] > 0.0]
        return min(orders, default=0.0)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
