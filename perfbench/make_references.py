"""Regenerate perfbench/references.json, the stored inputs and exact answers
for the enum-exact workload's large instances (n = 16..24) and for the
ACCEPT-09 product base used by spectral-families.

Run from the repository root:  python3 perfbench/make_references.py

Instances are drawn once with mexp's own generators and stored as plain
data, so the benchmark's inputs do not move when a generator changes.  Each
reference value comes from oracle.py's exhaustive integer enumeration,
which shares no code with mexp; the file records that method and how long
each reference took.  It takes about half a minute on one core.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
from mexp import auxiliary_walk, from_conductance  # noqa: E402
from mexp.families import (  # noqa: E402
    probability_counting_measure,
    product_segment,
    random_conductance,
    random_connected_graph,
    random_positive_measure,
    random_regular,
)

VARIANTS = 4
PRIMES = [p for p in range(101, 2000) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
ALPHAS = ("1/8", "1/4", "1/2")
RADII = (1, 2)

# (slot, flavor, n, graph kind, measure kind, walk kind)
SLOTS = (
    ("vertex-float53-n24", "vertex", 24, "sparse", "small", None),
    ("vertex-float53-n22", "vertex", 22, "sparse", "small", None),
    ("vertex-float53-n20", "vertex", 20, "sparse", "small", None),
    ("vertex-float53-n18", "vertex", 18, "sparse", "small", None),
    ("conductance-float53-n20", "conductance", 20, "cubic", "small", "random"),
    ("conductance-float53-n18", "conductance", 18, "cubic", "small", "random"),
    ("profile-float53-n18", "profile", 18, "sparse", "small", None),
    ("vertex-int64-n20", "vertex", 20, "sparse", "2^55", None),
    ("conductance-int64-n18", "conductance", 18, "cubic", "2^55", "auxiliary"),
    ("profile-int64-n16", "profile", 16, "sparse", "2^55", None),
    ("vertex-bigint-n18", "vertex", 18, "sparse", "primes", None),
    ("conductance-bigint-n16", "conductance", 16, "cubic", "primes", "auxiliary"),
    ("conductance-bigint-sum-n16", "conductance", 16, "cubic", "small", "2^60"),
    ("profile-bigint-n16", "profile", 16, "sparse", "primes", None),
)


def fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def make_instance(slot_index: int, variant: int, spec) -> dict:
    slot, flavor, n, graph_kind, measure_kind, walk_kind = spec
    seed = 1000 * slot_index + variant
    rng = random.Random(seed)
    if graph_kind == "sparse":
        graph = random_connected_graph(n, rng, extra_edges=0.15)
        recipe = f"random_connected_graph({n}, Random({seed}), extra_edges=0.15)"
    else:
        graph = random_regular(n, 3, rng)
        recipe = f"random_regular({n}, 3, Random({seed}))"
    if measure_kind == "small":
        measure = random_positive_measure(n, rng)
        recipe += "; random_positive_measure"
    elif measure_kind == "2^55":
        measure = [Fraction(2 ** 55 + rng.randrange(16)) for _ in range(n)]
        recipe += "; masses 2^55 + randrange(16)"
    else:
        measure = [Fraction(rng.randrange(1, 9), p) for p in rng.sample(PRIMES, n)]
        recipe += "; masses randrange(1, 9)/p over distinct primes p in [101, 2000)"
    graph = graph.with_measure(measure)
    walk = constraint = None
    entry = {
        "slot": slot,
        "variant": variant,
        "flavor": flavor,
        "n": n,
        "edges": [list(e) for e in graph.edges],
        "measure": [fmt(m) for m in graph.measure],
    }
    if flavor == "conductance":
        if walk_kind == "random":
            walk = from_conductance(graph, random_conductance(graph, rng))
            recipe += "; random_conductance; constraint mu"
            constraint = walk.mu
        elif walk_kind == "auxiliary":
            walk = auxiliary_walk(graph)
            recipe += "; auxiliary_walk; constraint m"
            constraint = graph.measure
        else:
            walk = from_conductance(graph, {e: 2 ** 60 + rng.randrange(16) for e in graph.edges})
            recipe += "; conductance 2^60 + randrange(16); constraint mu"
            constraint = walk.mu
        entry["conductance"] = [[u, v, fmt(a)] for (u, v), a in sorted(walk.a.items())]
        entry["constraint"] = "mu" if constraint is walk.mu else "measure"
        entry["width"] = oracle.conductance_width(walk.a.values(), constraint)
    else:
        entry["width"] = oracle.vertex_width(graph.measure)
    if flavor == "profile":
        entry["alphas"] = list(ALPHAS)
        entry["radii"] = list(RADII)
    entry["recipe"] = recipe
    return entry, graph, walk, constraint


def reference(entry, graph, walk, constraint) -> dict:
    started = time.perf_counter()
    n = entry["n"]
    if entry["flavor"] == "vertex":
        value, mask = oracle.cheeger_vertex(n, graph.edges, graph.measure)
        out = {"value": fmt(value), "witness": mask}
    elif entry["flavor"] == "conductance":
        value, mask = oracle.cheeger_conductance(n, dict(walk.a), constraint)
        out = {"value": fmt(value), "witness": mask}
    else:
        table = oracle.profile(n, graph.edges, graph.measure, [Fraction(a) for a in ALPHAS], RADII)
        out = {"values": {f"{fmt(a)}@{r}": (None if v is None else fmt(v)) for (a, r), v in table.items()}}
    out["seconds"] = round(time.perf_counter() - started, 2)
    return out


def main() -> int:
    entries = []
    for i, spec in enumerate(SLOTS):
        for variant in range(VARIANTS):
            entry, graph, walk, constraint = make_instance(i, variant, spec)
            entry["reference"] = reference(entry, graph, walk, constraint)
            print(f"{entry['slot']} v{variant}: {entry['reference']}", file=sys.stderr, flush=True)
            entries.append(entry)

    base = random_regular(10, 3, random.Random(90_900), probability_counting_measure(10))
    segment = product_segment(base, 1)
    started = time.perf_counter()
    value, mask = oracle.cheeger_vertex(segment.n, segment.edges, segment.measure)
    product = {
        "recipe": "random_regular(10, 3, Random(90900), probability_counting_measure(10)), as in ACCEPT-09",
        "edges": [list(e) for e in base.edges],
        "segment1_vertex_cheeger": {
            "value": fmt(value),
            "witness": mask,
            "seconds": round(time.perf_counter() - started, 2),
        },
    }
    doc = {
        "method": (
            "Instances drawn once with mexp.families generators (recipe per entry) and stored "
            "as data. References by perfbench/oracle.py: exhaustive enumeration of all 2^n subsets "
            "in Python integers on denominator-cleared values, ties to the smallest mask; no "
            "floats and no code shared with mexp. 'seconds' is the oracle's run time."
        ),
        "product_base": product,
        "instances": entries,
    }
    (HERE / "references.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
