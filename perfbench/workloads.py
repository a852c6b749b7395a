"""The four workloads: seeded op lists over mexp's public functions.

Each workload function is the benchmark's set-up: it makes the inputs with
mexp's constructors and generators and returns the op list.  An op calls
mexp through module attributes looked up at call time
(`mexp.cheeger_vertex`), so the span recorder and test stubs see every call.  Reference answers are
computed by `Op.reference`, outside set-up and outside the timed passes.
`check` returns a description of what is wrong with an output, or None.
Inputs that reproduce the program's known defects are kept out of the op
lists and made by `known_defects` instead.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

HERE = Path(__file__).resolve().parent
THEOREMS = (
    "cheeger-sandwich",
    "measured-sandwich",
    "gap-controls",
    "distance-bound",
    "poincare-to-cheeger",
    "coarea",
    "lp-poincare",
)


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    reference: Callable[[], object]
    check: Callable[[object, object], "str | None"]


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]


def build(mexp, name: str, seed: int, tiny: bool, workdir: Path) -> Workload:
    make = {
        "enum-exact": enum_exact,
        "verify-sweep": verify_sweep,
        "spectral-families": spectral_families,
        "lp-optimizer": lp_optimizer,
    }[name]
    return make(mexp, random.Random(seed), tiny, workdir)


def known_defects(mexp, name: str, seed: int, tiny: bool) -> list[Op]:
    """Ops that reproduce defects of the program known at the time the
    benchmark was written.  They are run and checked once per run, after the
    timed passes, and reported apart from the workload's result, which covers
    only ops the program is expected to get right."""
    if name != "enum-exact":
        return []
    rng = random.Random(f"known-defects-{seed}")
    # ROADMAP item 2: on the int64 path (2^53 <= scaled total < 2^62) the
    # float-ordered engine can lose the true minimizer, about 1% of these
    ops = [_small_cheeger_op(mexp, rng, 4 + i % 5, ("vertex", "conductance", "profile")[i % 3], int64=True)
           for i in range(15 if tiny else 600)]
    # cheeger_conductance raises OverflowError once a single scaled
    # conductance exceeds int64 (masses with distinct prime denominators)
    ops.extend(_stored_cheeger_op(mexp, entry) for entry in _stored_instances() if entry["slot"] in DEFECT_SLOTS)
    return ops


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# -- enum-exact ----------------------------------------------------------------

DEFECT_SLOTS = ("conductance-bigint-n16",)


def _stored_instances() -> list[dict]:
    return json.loads((HERE / "references.json").read_text(encoding="utf-8"))["instances"]


def enum_exact(mexp, rng: random.Random, tiny: bool, workdir: Path) -> Workload:
    slots: dict[str, list] = {}
    for entry in _stored_instances():
        if entry["slot"] not in DEFECT_SLOTS:
            slots.setdefault(entry["slot"], []).append(entry)
    ops = []
    for slot, variants in slots.items():
        entry = rng.choice(variants)
        if not tiny or entry["n"] <= 16:
            ops.append(_stored_cheeger_op(mexp, entry))
    small = [_small_cheeger_op(mexp, rng, 4 + i % 5, ("vertex", "conductance", "profile")[i % 3], int64=False)
             for i in range(15 if tiny else 600)]
    warmup = small[:3]
    ops.extend(small)
    rng.shuffle(ops)
    return Workload(ops, warmup)


def _stored_cheeger_op(mexp, entry) -> Op:
    n = entry["n"]
    graph = mexp.MeasuredGraph.build(n, [tuple(e) for e in entry["edges"]], [Fraction(m) for m in entry["measure"]])
    ref = entry["reference"]
    label = entry["slot"]
    if entry["flavor"] == "vertex":
        value = Fraction(ref["value"])
        return Op(
            label,
            lambda: mexp.cheeger_vertex(graph, cap=n),
            lambda: (value, ref["witness"]),
            lambda out, r: _vertex_problem(graph, out, r),
        )
    if entry["flavor"] == "conductance":
        walk = mexp.from_conductance(graph, {(u, v): Fraction(a) for u, v, a in entry["conductance"]})
        constraint = walk.mu if entry["constraint"] == "mu" else graph.measure
        value = Fraction(ref["value"])
        return Op(
            label,
            lambda: mexp.cheeger_conductance(walk, constraint, cap=n),
            lambda: (value, ref["witness"]),
            lambda out, r: _cut_problem(walk, constraint, out, r),
        )
    alphas = [Fraction(a) for a in entry["alphas"]]
    radii = tuple(entry["radii"])
    table = {}
    for key, v in ref["values"].items():
        alpha, radius = key.split("@")
        table[(Fraction(alpha), int(radius))] = None if v is None else Fraction(v)
    return Op(
        label,
        lambda: mexp.asymptotic_profile(graph, alphas, cap=n, radii=radii),
        lambda: table,
        _profile_problem,
    )


def _small_cheeger_op(mexp, rng: random.Random, n: int, flavor: str, int64: bool) -> Op:
    if int64:
        masses = [2 ** 55 + rng.randrange(16) for _ in range(n)]
    else:
        masses = mexp.families.random_positive_measure(n, rng)
    graph = mexp.families.random_connected_graph(n, rng, extra_edges=0.2, measure=masses)
    label = f"small-{'int64' if int64 else 'float53'}-{flavor}"
    if flavor == "vertex":
        return Op(
            label,
            lambda: mexp.cheeger_vertex(graph),
            lambda: oracle.cheeger_vertex(n, graph.edges, graph.measure),
            lambda out, r: _vertex_problem(graph, out, r),
        )
    if flavor == "conductance":
        walk = mexp.auxiliary_walk(graph)
        return Op(
            label,
            lambda: mexp.cheeger_conductance(walk, graph.measure),
            lambda: oracle.cheeger_conductance(n, dict(walk.a), graph.measure),
            lambda out, r: _cut_problem(walk, graph.measure, out, r),
        )
    alphas = (Fraction(1, 4), Fraction(1, 2))
    return Op(
        label,
        lambda: mexp.asymptotic_profile(graph, alphas, radii=(1, 2)),
        lambda: oracle.profile(n, graph.edges, graph.measure, alphas, (1, 2)),
        _profile_problem,
    )


def _vertex_problem(graph, cert, ref):
    value, mask = ref
    if cert.value != value:
        return f"value {cert.value} != exact {value}"
    if cert.witness.mask != mask:
        return f"witness mask {cert.witness.mask} is not the smallest minimizer {mask}"
    return oracle.vertex_witness_problem(graph.n, graph.edges, graph.measure, cert.witness.mask, cert.value)


def _cut_problem(walk, constraint, cert, ref):
    value, mask = ref
    if cert.value != value:
        return f"value {cert.value} != exact {value}"
    if cert.witness.mask != mask:
        return f"witness mask {cert.witness.mask} is not the smallest minimizer {mask}"
    return oracle.cut_witness_problem(walk.graph.n, dict(walk.a), constraint, cert.witness.mask, cert.value)


def _profile_problem(result, table):
    got = {key: result.values.get(key, "missing") for key in table}
    if got != table:
        wrong = [k for k in table if got[k] != table[k]]
        return f"profile differs at (alpha, R) = {wrong[:3]}"
    return None


# -- verify-sweep --------------------------------------------------------------


def verify_sweep(mexp, rng: random.Random, tiny: bool, workdir: Path) -> Workload:
    families = mexp.families
    ops = []
    for i in range(14 if tiny else 140):
        theorem = THEOREMS[i % 7]
        n = 3 + (i // 7) % 10
        graph = _connected_graph(mexp, rng, n)
        conductance = families.random_conductance(graph, rng)
        walk = mexp.from_conductance(graph, conductance)
        seed = rng.randrange(1 << 31)
        p = (1.5, 2.0, 3.0)[(i // 7) % 3]
        trials = 100 if theorem == "coarea" else 200
        order = list(range(n))
        rng.shuffle(order)
        cut = rng.randrange(1, n)
        set_a, set_b = sorted(order[:cut]), sorted(order[cut : rng.randrange(cut + 1, n + 1)])
        if i % 10 == 9:
            path = workdir / f"verify-{i}.json"
            path.write_text(mexp.dump_graph(graph, conductance), encoding="utf-8")
            argv = ["verify", "--input", str(path), "--theorem", theorem, "--seed", str(seed),
                    "--trials", str(trials), "--p", str(p),
                    "--set-a", ",".join(map(str, set_a)), "--set-b", ",".join(map(str, set_b))]
            call = _cli_call(mexp, argv)
        else:
            call = _verifier_call(mexp, theorem, graph, walk, p, trials, seed, set_a, set_b)
        ops.append(Op(f"verify/{theorem}", call, _verify_reference(theorem, graph, walk), _verify_problem))
    return Workload(ops, ops[:10])


def _connected_graph(mexp, rng: random.Random, n: int):
    """Random spanning tree plus 30% of the remaining pairs, with a random
    rational measure.  The edge count depends on n only, so an op's cost
    does not drift with the seed."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges.update(rng.sample(others, round(0.3 * len(others))))
    return mexp.MeasuredGraph.build(n, sorted(edges), mexp.families.random_positive_measure(n, rng))


def _verifier_call(mexp, theorem, graph, walk, p, trials, seed, set_a, set_b):
    n = graph.n
    calls = {
        "cheeger-sandwich": lambda: mexp.verify_cheeger_sandwich(walk),
        "measured-sandwich": lambda: mexp.verify_measured_sandwich(graph),
        "gap-controls": lambda: mexp.verify_gap_controls(graph),
        "distance-bound": lambda: mexp.distance_gap_bound(
            walk, mexp.VertexSubset.from_indices(n, set_a), mexp.VertexSubset.from_indices(n, set_b)
        ),
        "poincare-to-cheeger": lambda: mexp.verify_poincare_to_cheeger(graph),
        "coarea": lambda: mexp.verify_coarea(walk, trials=trials, seed=seed),
        "lp-poincare": lambda: mexp.verify_lp_poincare(walk, p, trials=trials, seed=seed),
    }
    report = calls[theorem]
    return lambda: (0, report().as_dict())


def _cli_call(mexp, argv):
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mexp.cli.main(argv)
        return code, json.loads(out.getvalue())["results"] if code in (0, 1) else out.getvalue()

    return call


def _verify_reference(theorem, graph, walk):
    """Exact Cheeger value and LAPACK gaps for the numbers a report quotes."""

    def reference():
        n = graph.n
        ref = {}
        if theorem in ("cheeger-sandwich", "lp-poincare"):
            ref["cheeger"] = oracle.cheeger_conductance(n, dict(walk.a), walk.mu)[0]
        elif theorem in ("measured-sandwich", "poincare-to-cheeger"):
            ref["cheeger"] = oracle.cheeger_vertex(n, graph.edges, graph.measure)[0]
        if theorem in ("cheeger-sandwich", "distance-bound"):
            ref["gap"] = oracle.gap(oracle.delta_eigenvalues(n, dict(walk.a)))
        elif theorem in ("measured-sandwich", "gap-controls", "poincare-to-cheeger"):
            ref["gap"] = oracle.gap(oracle.lambda_eigenvalues(n, graph.edges, graph.measure))
        if theorem == "gap-controls":
            aux = {(u, v): graph.measure[u] + graph.measure[v] for u, v in graph.edges}
            ref["aux_gap"] = oracle.gap(oracle.delta_eigenvalues(n, aux))
        return ref

    return reference


def _verify_problem(output, ref):
    code, report = output
    if code != 0:
        return f"exit code {code}: {str(report)[:200]}"
    if not report["holds"]:
        return f"report does not hold: {report['checks']}"
    inputs = report["inputs"]
    if "cheeger" in ref and Fraction(inputs["cheeger"]) != ref["cheeger"]:
        return f"cheeger {inputs['cheeger']} != exact {ref['cheeger']}"
    for key in ("gap", "aux_gap"):
        if key in ref and not _close(float(inputs[key]), ref[key], 1e-8):
            return f"{key} {inputs[key]} != LAPACK {ref[key]!r}"
    return None


# -- spectral-families ----------------------------------------------------------


def spectral_families(mexp, rng: random.Random, tiny: bool, workdir: Path) -> Workload:
    families = mexp.families
    doc = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    product = doc["product_base"]
    base = mexp.MeasuredGraph.build(
        10, [tuple(e) for e in product["edges"]], families.probability_counting_measure(10)
    )

    def cubic(n):
        return families.random_regular(n, 3, rng, measure=families.random_positive_measure(n, rng))

    ops = []
    for levels in (1, 2) if tiny else (3, 4, 5):
        segment = families.product_segment(base, levels)
        ops.append(_lambda_op(mexp, f"lambda/segment-n{segment.n}", segment))
        ops.append(_delta_op(mexp, f"delta/segment-n{segment.n}", mexp.auxiliary_walk(segment)))
    if not tiny:
        ops.append(_lambda_op(mexp, "lambda/segment-n100", families.product_segment(base, 9)))
    # enough n = 40 members that the median op falls inside their group
    for _ in range(1 if tiny else 10):
        graph = cubic(20 if tiny else 40)
        ops.append(_lambda_op(mexp, f"lambda/cubic-n{graph.n}", graph))
        ops.append(_delta_op(mexp, f"delta/cubic-n{graph.n}", mexp.auxiliary_walk(graph)))
    if not tiny:
        ops.append(_delta_op(mexp, "delta/cubic-n64", mexp.auxiliary_walk(cubic(64))))
    cycle_n, cube_d = (12, 3) if tiny else (48, 6)
    ops.append(_delta_op(mexp, f"delta/cycle-n{cycle_n}", mexp.auxiliary_walk(families.make_cycle(cycle_n)),
                         closed_form=oracle.cycle_walk_spectrum(cycle_n)))
    ops.append(_delta_op(mexp, f"delta/hypercube-d{cube_d}", mexp.auxiliary_walk(families.make_hypercube(cube_d)),
                         closed_form=oracle.hypercube_walk_spectrum(cube_d)))
    ops.append(_family_report_op(mexp, base, product["segment1_vertex_cheeger"]))
    members = tuple(cubic(n) for n in ((12, 16) if tiny else (16, 32, 64)))
    for p in (1.0, 2.0):
        ops.append(_certificate_op(mexp, members, p))
    warmup = [_lambda_op(mexp, "warmup", base), _delta_op(mexp, "warmup", mexp.auxiliary_walk(base))]
    return Workload(ops, warmup)


def _lambda_op(mexp, label, graph) -> Op:
    return Op(
        label,
        lambda: mexp.spectrum(mexp.lambda_operator(graph)),
        lambda: oracle.lambda_eigenvalues(graph.n, graph.edges, graph.measure),
        _spectrum_problem,
    )


def _delta_op(mexp, label, walk, closed_form=None) -> Op:
    return Op(
        label,
        lambda: mexp.spectrum(mexp.delta_operator(walk)),
        (lambda: closed_form) if closed_form is not None else (lambda: oracle.delta_eigenvalues(walk.graph.n, dict(walk.a))),
        _spectrum_problem,
    )


def _spectrum_problem(result, expected):
    got = np.asarray(result.eigenvalues)
    if got.shape != expected.shape:
        return f"{got.size} eigenvalues, expected {expected.size}"
    err = float(np.abs(got - expected).max())
    if err > 1e-8:
        return f"eigenvalues off by {err:.3e}"
    if result.zero_multiplicity != 1:
        return f"kernel dimension {result.zero_multiplicity} on a connected graph"
    if not _close(result.gap, float(expected[1]), 1e-8):
        return f"gap {result.gap!r} != {expected[1]!r}"
    return None


def _family_report_op(mexp, base, stored) -> Op:
    families = mexp.families
    members = tuple(families.product_segment(base, levels) for levels in (0, 1, 2))
    family = families.GraphFamily(members)
    threshold = Fraction(1, 50)

    def reference():
        exact = [oracle.cheeger_vertex(10, base.edges, base.measure)[0], Fraction(stored["value"]), None]
        gaps = [oracle.gap(oracle.lambda_eigenvalues(g.n, g.edges, g.measure)) for g in members]
        return exact, gaps

    def problem(report, ref):
        exact, gaps = ref
        for row, value, gap in zip(report.rows, exact, gaps):
            if row.cheeger != value:
                return f"member {row.index}: cheeger {row.cheeger} != {value}"
            if (row.error is None) != (value is not None):
                return f"member {row.index}: error {row.error!r} on a member of {row.size} vertices"
            if row.gap is None or not _close(row.gap, gap, 1e-8):
                return f"member {row.index}: gap {row.gap!r} != LAPACK {gap!r}"
        if not report.partial or report.expander_verdict is not (None if min(exact[:2]) >= threshold else False):
            return f"verdict {report.expander_verdict!r} (partial {report.partial}) is inconsistent"
        return None

    return Op("families/report", lambda: mexp.family_report(family, threshold), reference, problem)


def _certificate_op(mexp, members, p: float) -> Op:
    family = mexp.families.GraphFamily(members)
    cap = 22  # mexp's default: members above it use the spectral bound

    def problem(cert, ref):
        expected = tuple("exact" if g.n <= cap else "spectral-bound" for g in members)
        if cert.cheeger_sources != expected:
            return f"cheeger sources {cert.cheeger_sources} != {expected}"
        for row in cert.rows:
            if row.skipped is not None:
                continue
            if not (row.symmetric and row.probability and row.supported_off_cutoff):
                return f"member {row.index}: pair measure not symmetric, probability and off-cutoff"
            if row.max_tested_energy is not None and row.max_tested_energy > cert.energy_bound * (1 + 1e-9):
                return f"member {row.index}: energy {row.max_tested_energy} above bound {cert.energy_bound}"
        return None

    return Op(f"families/certificate-p{p:g}", lambda: mexp.generalised_certificate(family, p), lambda: None, problem)


# -- lp-optimizer ----------------------------------------------------------------


def lp_optimizer(mexp, rng: random.Random, tiny: bool, workdir: Path) -> Workload:
    families = mexp.families
    ops = []
    for i in range(3 if tiny else 21):
        n = 6 + i // 3
        p = (1.5, 2.0, 3.0)[i % 3]
        graph = _connected_graph(mexp, rng, n)
        walk = mexp.from_conductance(graph, families.random_conductance(graph, rng))
        ops.append(_optimizer_op(mexp, walk, p, rng.randrange(1 << 31)))
    small = mexp.auxiliary_walk(families.make_cycle(4))
    warmup = Op("warmup", lambda: mexp.optimal_lp_constant(small, 2.0, restarts=4, max_iters=20), None, None)
    return Workload(ops, [warmup])


def _optimizer_op(mexp, walk, p: float, seed: int) -> Op:
    n = walk.graph.n
    a = dict(walk.a)

    def reference():
        cheeger = oracle.cheeger_conductance(n, a, walk.mu)[0]
        gap = oracle.gap(oracle.delta_eigenvalues(n, a)) if p == 2.0 else None
        return oracle.cp_lower_bound(float(cheeger), p), gap

    def problem(est, ref):
        floor, gap = ref
        ratio = oracle.lp_ratio(n, a, est.minimizer, p)
        if not _close(est.estimate, ratio, 1e-9):
            return f"estimate {est.estimate!r} != energy ratio {ratio!r} at its minimizer"
        if est.estimate < floor * (1 - 1e-9):
            return f"estimate {est.estimate!r} below the proved floor c_p = {floor!r}"
        if gap is not None and abs(est.estimate - gap) > 1e-6:
            return f"p = 2 estimate {est.estimate!r} differs from the delta gap {gap!r} by more than 1e-6"
        return None

    return Op(f"optimal-lp/p{p:g}/n{n}", lambda: mexp.optimal_lp_constant(walk, p, restarts=64, seed=seed),
              reference, problem)
