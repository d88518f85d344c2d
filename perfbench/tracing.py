"""Span tracing of okounkov's layers from outside the package.

`Tracer.install(mods)` rebinds module attributes (and a few class
attributes) of the okounkov modules to timing wrappers.  A call made
through `module.func`, or through a same-module global, then records a
span `(name, start_ns, end_ns, parent, op)`; calls that bypass the module
attribute (names bound by `from .x import f`) are not seen, which is why
only non-trivial functions are wrapped: `intersect`, `dot`, `RadVal`
arithmetic and the like stay unwrapped and count toward their caller.
`uninstall()` restores every original attribute.

Spans stay in memory; `layer_metrics()` turns them into per-layer self
time (a span's duration minus what its child spans cover) and exact work
counters, and `dump()` writes them out once the run is over.
"""
from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter

# Layer -> wrapped attributes, in the order the package depends on them.
# "Class.method" entries are rebound on the class.  `numbers` is too
# fine-grained to wrap; its time shows up in its callers.
LAYERS = {
    "linalg": ["rref", "rank", "nullspace", "solve", "det", "primitive"],
    "lp": ["feasible_nonneg", "in_cone", "in_convex_hull", "maximize"],
    "polytope": [
        "hull", "cone_base", "affine_image", "minkowski_sum", "contains",
        "intersect_subspace", "volume", "inverted_slice_simplex",
        "_vertices_from_constraints", "Polytope.halfspaces", "Polytope.dim",
    ],
    "toric": [
        "Fan.__post_init__", "ToricFlagSpec.validate", "divisor_polytope",
        "flag_matrix", "extended_body_toric", "lattice_points",
        "monomial_valuation", "semigroup_body_approx", "load_fixture",
        "fixture_names",
    ],
    "surface": [
        "SurfaceModel.__post_init__", "neg_curve_classes", "is_psef",
        "is_nef", "zariski", "check_zariski", "is_big", "vol", "base_loci",
        "surface_body_outer",
    ],
    "invariants": [
        "seshadri_eps", "nakayama_mu", "xi_constant", "check_eps_eq_xi",
        "slice_volume_check", "bounds_sandwich", "containment_bound",
        "origin_criterion", "positive_xi_criterion", "nagata_check",
        "is_standard_form", "conditional_non_effectivity",
        "irrationality_certificate", "homogeneous_eps", "nef_boundary_check",
    ],
    "registry": ["invariant_setup", "model_for"],
    "render": ["render_svg"],
    "cli": ["main"],
}

def _count_lp(counts, args, kwargs, result):
    A = args[0]
    counts["lp.calls"] += 1
    counts["lp.cells"] += len(A) * (len(A[0]) if A else 0)
    counts["lp.feasible"] += result is not None


def _count_lp_max(counts, args, kwargs, result):
    A = args[1]
    counts["lp.calls"] += 1
    counts["lp.cells"] += len(A) * (len(A[0]) if A else 0)
    counts["lp.feasible"] += 1


def _count_psef(counts, args, kwargs, result):
    counts["surface.is_psef.calls"] += 1
    counts["surface.is_psef.true"] += bool(result)


def _count_zariski(counts, args, kwargs, result):
    counts["surface.zariski.calls"] += 1
    counts["surface.zariski.support_total"] += len(result.negative_support)


def _count_nakayama(counts, args, kwargs, result):
    counts["invariants.nakayama.calls"] += 1


def _count_halfspaces(counts, args, kwargs, result):
    counts["polytope.halfspaces.calls"] += 1
    counts["polytope.facets_out"] += len(result[0])


def _count_volume(counts, args, kwargs, result):
    counts["polytope.volume.calls"] += 1


def _count_lattice(counts, args, kwargs, result):
    counts["toric.lattice_points.count"] += len(result)


def _count_linalg(counts, args, kwargs, result):
    counts["linalg.calls"] += 1


AFTER = {
    "lp.feasible_nonneg": _count_lp,
    "lp.maximize": _count_lp_max,
    "surface.is_psef": _count_psef,
    "surface.zariski": _count_zariski,
    "invariants.nakayama_mu": _count_nakayama,
    "polytope.Polytope.halfspaces": _count_halfspaces,
    "polytope.volume": _count_volume,
    "toric.lattice_points": _count_lattice,
}
for _name in LAYERS["linalg"]:
    AFTER["linalg." + _name] = _count_linalg


class TracingIncomplete(Exception):
    pass


class Tracer:
    """Collects spans and counters while installed on the okounkov modules."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._saved: list = []

    def _wrap(self, name, fn, after):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op)
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        return traced

    def _hull_wrapper(self, name, fn):
        # hull() may be handed a one-shot iterable; materialise it once so
        # the points can be counted and still reach the real hull.
        inner = self._wrap(name, fn, None)
        counts = self.counts

        @functools.wraps(fn)
        def hull(points, ambient_dim):
            pts = list(points)
            result = inner(pts, ambient_dim)
            counts["polytope.hull.calls"] += 1
            counts["polytope.hull.points_in"] += len(pts)
            counts["polytope.hull.kept"] += len(result.vertices)
            return result

        return hull

    def install(self, mods) -> None:
        """Rebind every attribute in LAYERS on the modules in `mods`.

        An attribute the program no longer has is an error, not an idle
        layer: a refactor that renames or moves one must update LAYERS,
        or that layer's figures would fall to zero and read as a speed-up.
        """
        if self._saved:
            raise RuntimeError("tracer already installed")
        missing = []
        for layer, names in LAYERS.items():
            module = getattr(mods, layer)
            for attr in names:
                owner_name, _, fname = attr.rpartition(".")
                owner = (getattr(module, owner_name, None) if owner_name
                         else module)
                original = getattr(owner, "__dict__", {}).get(fname)
                span_name = f"{layer}.{attr}"
                if original is None:
                    missing.append(span_name)
                    continue
                if span_name == "polytope.hull":
                    wrapped = self._hull_wrapper(span_name, original)
                else:
                    wrapped = self._wrap(span_name, original,
                                         AFTER.get(span_name))
                self._saved.append((owner, fname, original))
                setattr(owner, fname, wrapped)
        if missing:
            self.uninstall()
            raise TracingIncomplete(
                "okounkov has no " + ", ".join(missing)
                + "; update tracing.LAYERS")

    def uninstall(self) -> None:
        while self._saved:
            owner, fname, original = self._saved.pop()
            setattr(owner, fname, original)

    def layer_metrics(self, traced_s: float, scales: list[float]) -> dict:
        """Per-layer self time, share of the traced op time, and counters.

        Span times of op i are multiplied by `scales[i]`, the same speed
        scaling as the op's own time, so that `traced_s` is their unit.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_s = Counter()
        model_build_s = 0.0
        grid_points = 0
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            scale = scales[op] / 1e9
            self_s[name.partition(".")[0]] += (end - start - child_ns[idx]) \
                * scale
            if name == "surface.SurfaceModel.__post_init__":
                model_build_s += (end - start) * scale
            # A grid point of a surface body is evaluated by one is_psef
            # call made directly from surface_body_outer.
            if (name == "surface.is_psef" and parent >= 0 and
                    self.spans[parent][0] == "surface.surface_body_outer"):
                grid_points += 1
        c = self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.share"] = self_s[layer] / traced_s
        out["surface.model_build_s"] = model_build_s
        out.update({
            "lp.calls": c["lp.calls"],
            "lp.cells": c["lp.cells"],
            "lp.feasible_ratio": _ratio(c["lp.feasible"], c["lp.calls"]),
            "surface.is_psef.calls": c["surface.is_psef.calls"],
            "surface.is_psef.true_ratio": _ratio(
                c["surface.is_psef.true"], c["surface.is_psef.calls"]),
            "surface.zariski.calls": c["surface.zariski.calls"],
            "surface.zariski.support_total":
                c["surface.zariski.support_total"],
            "surface.body.grid_points": grid_points,
            "invariants.nakayama.calls": c["invariants.nakayama.calls"],
            "polytope.hull.calls": c["polytope.hull.calls"],
            "polytope.hull.points_in": c["polytope.hull.points_in"],
            "polytope.hull.kept_ratio": _ratio(
                c["polytope.hull.kept"], c["polytope.hull.points_in"]),
            "polytope.halfspaces.calls": c["polytope.halfspaces.calls"],
            "polytope.facets_out": c["polytope.facets_out"],
            "polytope.volume.calls": c["polytope.volume.calls"],
            "linalg.calls": c["linalg.calls"],
            "toric.lattice_points.count": c["toric.lattice_points.count"],
        })
        return out

    def dump(self, path) -> None:
        """Write the spans (times in ns from the first span) as gzip JSON."""
        t0 = self.spans[0][1] if self.spans else 0
        with gzip.open(path, "wt") as fh:
            json.dump({
                "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                "spans": [[n, s - t0, e - t0, p, op]
                          for n, s, e, p, op in self.spans],
                "counters": dict(sorted(self.counts.items())),
            }, fh, separators=(",", ":"))


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", ".share")) or metric == "trace_overhead":
        return "ratio"
    return "count"


def _ratio(num, den) -> float:
    return num / den if den else 0.0
