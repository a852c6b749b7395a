"""Span recorder for the traced benchmark run.

install() wraps the public functions of each mexp module (module-level
functions and public classmethods) in every mexp namespace that binds them,
so `mexp.cheeger_vertex`, `mexp.inequalities.cheeger_vertex` and
`mexp.cheeger.cheeger_vertex` all record.  Spans stay in memory; the layer of
a span is the module that defines the function.  A span's self time is its
duration minus the time covered by its child spans.  uninstall() restores
the originals, so an untraced pass runs the program unchanged.

Observers derive the exact counters after a call returns (subsets per
flavor and integer width, optimizer iterations, eigen-residuals).  Their
own time is charged to no span.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import oracle

LAYERS = ("cheeger", "spectral", "poincare", "inequalities", "walks", "graphs", "rationals", "families", "cli")

THEOREMS = {
    "verify_cheeger_sandwich": "cheeger-sandwich",
    "verify_measured_sandwich": "measured-sandwich",
    "verify_gap_controls": "gap-controls",
    "distance_gap_bound": "distance-bound",
    "verify_poincare_to_cheeger": "poincare-to-cheeger",
    "verify_coarea": "coarea",
    "verify_lp_poincare": "lp-poincare",
}
ENERGY = ("lp_energy_pair", "lp_energy_ratio", "measured_lp_check")


@dataclass
class Span:
    ident: int
    parent: int | None
    op: int | None
    layer: str
    name: str
    start: float
    end: float
    self_s: float


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.counts: dict = defaultdict(float)
        self.max_residual = 0.0
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    # -- installation ----------------------------------------------------------

    def install(self):
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "mexp" or name.startswith("mexp."))
        }
        wrappers = {}
        for name, mod in modules.items():
            layer = name.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == name:
                    wrappers[id(obj)] = (obj, self._wrap(layer, obj))
                elif inspect.isclass(obj) and obj.__module__ == name:
                    for meth, raw in list(vars(obj).items()):
                        if isinstance(raw, classmethod) and not meth.startswith("_"):
                            self._patch(obj, meth, classmethod(self._wrap(layer, raw.__func__)))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, layer: str, fn):
        name = fn.__name__
        observer = OBSERVERS.get((layer, name))
        signature = inspect.signature(fn)
        stack = self._stack
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans.append(
                    Span(frame[0], parent[0] if parent else None, self.op, layer, name, start, end, end - start - frame[1])
                )
            if observer is not None:
                began = time.perf_counter()
                observer(self, signature.bind(*args, **kwargs).arguments, result, spans[-1])
                if parent is not None:
                    parent[1] += time.perf_counter() - began
            return result

        return traced

    # -- metrics -----------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer numbers per traced pass over the op list."""
        per = max(passes, 1)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for s in self.spans:
            calls[s.layer] += 1
            self_s[s.layer] += s.self_s
        c = self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer] / per, "count")
            out[f"{layer}.self_s"] = (self_s[layer] / per, "s")
        out["cheeger.subsets"] = (sum(c[f"subsets.{f}"] for f in FLAVORS) / per, "count")
        for key in FLAVORS + WIDTHS:
            out[f"cheeger.{key}.ns_per_subset"] = (_ratio(c[f"self_s.{key}"] * 1e9, c[f"subsets.{key}"]), "ns")
        for size in ("small", "mid", "large"):
            out[f"spectral.eig.{size}.ms_per_call"] = (self._mean_ms(f"eig.{size}"), "ms")
        out["spectral.coarea.ms_per_call"] = (self._mean_ms("coarea"), "ms")
        out["spectral.max_residual"] = (self.max_residual, "1")
        out["poincare.iterations"] = (c["lp.iterations"] / per, "count")
        out["poincare.converged_ratio"] = (_ratio(c["lp.converged"], c["lp.calls"]), "1")
        out["poincare.ms_per_iteration"] = (_ratio(c["lp.s"] * 1e3, c["lp.iterations"]), "ms")
        energy = [s for s in self.spans if s.layer == "poincare" and s.name in ENERGY]
        out["poincare.energy.calls"] = (len(energy) / per, "count")
        out["poincare.energy.self_s"] = (sum(s.self_s for s in energy) / per, "s")
        for theorem in THEOREMS.values():
            out[f"inequalities.{theorem}.ms_per_call"] = (self._mean_ms("theorem." + theorem), "ms")
        for kind in ("report", "certificate"):
            out[f"families.{kind}.ms_per_call"] = (self._mean_ms(kind), "ms")
        return out

    def _mean_ms(self, key: str) -> float:
        return _ratio(self.counts[f"{key}.s"] * 1e3, self.counts[f"{key}.calls"])

    def dump(self) -> list:
        return [[s.ident, s.parent, s.op, s.layer, s.name, s.start, s.end, s.self_s] for s in self.spans]


FLAVORS = ("vertex", "conductance", "profile")
WIDTHS = ("float53", "int64", "bigint")


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no such work in this workload."""
    return num / den if den else 0.0


# -- observers -------------------------------------------------------------------


def _count_subsets(rec: Recorder, flavor: str, width: str, subsets: int, span: Span):
    for key in (flavor, width):
        rec.counts[f"subsets.{key}"] += subsets
        rec.counts[f"self_s.{key}"] += span.self_s


def _observe_vertex(rec, args, result, span):
    graph = args["graph"]
    _count_subsets(rec, "vertex", oracle.vertex_width(graph.measure), 1 << graph.n, span)


def _observe_conductance(rec, args, result, span):
    walk = args["walk"]
    constraint = args.get("constraint")
    # mexp reads a missing constraint as the vertex measure m, not mu
    constraint = walk.graph.measure if constraint is None else constraint
    width = oracle.conductance_width(walk.a.values(), constraint)
    _count_subsets(rec, "conductance", width, 1 << walk.graph.n, span)


def _observe_profile(rec, args, result, span):
    graph = args["graph"]
    masses = oracle.scaled(graph.measure)
    total = sum(masses)
    runs = 0
    for alpha in result.alphas:
        lo = max(1, -((-alpha.numerator * total) // alpha.denominator))
        runs += lo <= total // 2
    _count_subsets(rec, "profile", oracle.width(total), runs * len(result.radii) << graph.n, span)


def _observe_eigenpairs(rec, args, result, span):
    op = args["op"]
    w, vecs = result
    residual = op.stiffness @ vecs - (op.mass_diagonal[:, None] * vecs) * np.asarray(w)[None, :]
    rec.max_residual = max(rec.max_residual, float(np.sqrt((residual * residual).sum(axis=0)).max()))
    _count_call(rec, "eig." + ("small" if op.n <= 12 else "mid" if op.n <= 64 else "large"), span)


def _observe_optimizer(rec, args, result, span):
    _count_call(rec, "lp", span)
    rec.counts["lp.converged"] += bool(result.converged)
    rec.counts["lp.iterations"] += result.iterations


def _count_call(rec: Recorder, key: str, span: Span):
    rec.counts[f"{key}.calls"] += 1
    rec.counts[f"{key}.s"] += span.end - span.start


def _timed(key: str):
    return lambda rec, args, result, span: _count_call(rec, key, span)


OBSERVERS = {
    ("cheeger", "cheeger_vertex"): _observe_vertex,
    ("cheeger", "cheeger_conductance"): _observe_conductance,
    ("cheeger", "asymptotic_profile"): _observe_profile,
    ("spectral", "eigenpairs"): _observe_eigenpairs,
    ("spectral", "coarea_check"): _timed("coarea"),
    ("poincare", "optimal_lp_constant"): _observe_optimizer,
    ("families", "family_report"): _timed("report"),
    ("families", "generalised_certificate"): _timed("certificate"),
    **{("inequalities", fn): _timed("theorem." + theorem) for fn, theorem in THEOREMS.items()},
}
