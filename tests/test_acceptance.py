"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Stated time budgets are
calibration targets printed for reference, not asserted, since wall-clock
depends on the host.  Every randomized criterion is fully seeded.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import helpers
from mexp import (
    GraphFamily,
    MeasuredGraph,
    VertexSubset,
    auxiliary_walk,
    cheeger_conductance,
    cheeger_vertex,
    coarea_check,
    cp_formula,
    delta_gap,
    delta_operator,
    distance_gap_bound,
    from_conductance,
    full_support_perturbation,
    generalised_certificate,
    measured_gap,
    optimal_lp_constant,
    product_segment,
    spectrum,
    verify_auxiliary_walk,
    verify_cheeger_sandwich,
    verify_gap_controls,
    verify_measured_sandwich,
)
from mexp.families import (
    make_cycle,
    probability_counting_measure,
    random_regular,
)
from mexp.graphs import measure_of, vertex_boundary
from mexp.poincare import _energies, _walk_arrays
from mexp.rationals import format_rational


def _finish(num: int, ok: bool, description: str, started: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPT-{num:02d} {status} {description} [{time.monotonic() - started:.1f}s]{detail}")
    assert ok, f"criterion {num} failed: {description}{detail}"


def test_accept_01_cheeger_sandwich_suite():
    started = time.monotonic()
    violations = 0
    for i in range(500):
        rng = random.Random(10_000 + i)
        aux = helpers.rand_walk(rng, 3, 12, auxiliary_of_random_measure=True)
        plain = helpers.rand_walk(rng, 3, 12)
        for walk in (aux, plain):
            if not verify_cheeger_sandwich(walk, tol=1e-8).holds:
                violations += 1
    _finish(
        1,
        violations == 0,
        "c^2/2 <= gap <= 2c on 500 graphs x {auxiliary, random-conductance} walks (budget 60s)",
        started,
        f" violations={violations}",
    )


def test_accept_02_measured_sandwich_and_gap_controls():
    started = time.monotonic()
    violations = 0
    for i in range(500):
        rng = random.Random(20_000 + i)
        g = helpers.rand_connected(rng, 3, 12, measured=True)
        if not verify_measured_sandwich(g, tol=1e-8).holds:
            violations += 1
        if not verify_gap_controls(g, tol=1e-8).holds:
            violations += 1
    _finish(
        2,
        violations == 0,
        "measured sandwich + gap controls on 500 full-support instances each (budget 90s)",
        started,
        f" violations={violations}",
    )


def test_accept_03_auxiliary_walk_conditions():
    started = time.monotonic()
    violations = 0
    for i in range(500):
        rng = random.Random(30_000 + i)
        g = helpers.rand_connected(rng, 3, 12, measured=True)
        report = verify_auxiliary_walk(g)
        if not report.holds:
            violations += 1
    _finish(
        3,
        violations == 0,
        "auxiliary-walk conditions (1)-(4) exact on 500 instances (budget 30s)",
        started,
        f" violations={violations}",
    )


def test_accept_04_coarea_identity():
    started = time.monotonic()
    mismatches = 0
    for i in range(1000):
        rng = random.Random(40_000 + i)
        walk = helpers.rand_walk(rng, 3, 12)
        f = [Fraction(rng.randrange(0, 16), rng.randrange(1, 9)) for _ in range(walk.graph.n)]
        if not coarea_check(walk, f).equal:
            mismatches += 1
    _finish(
        4,
        mismatches == 0,
        "level-set energy identity exact on 1000 random rational functions (budget 20s)",
        started,
        f" mismatches={mismatches}",
    )


def test_accept_05_spectral_oracles():
    started = time.monotonic()
    ok = True
    detail = ""
    for n in range(3, 25):
        gap = delta_gap(auxiliary_walk(make_cycle(n)))
        expected = 1.0 - math.cos(2.0 * math.pi / n)
        if abs(gap - expected) > 1e-9:
            ok = False
            detail += f" cycle{n}: |{gap}-{expected}|>1e-9"
    k2 = MeasuredGraph.build(2, [(0, 1)], [1, 1])
    eigs = spectrum(delta_operator(auxiliary_walk(k2))).eigenvalues
    if abs(eigs[0]) > 1e-10 or abs(eigs[1] - 2.0) > 1e-10:
        ok = False
        detail += f" k2 spectrum {eigs}"
    for i in range(100):
        rng = random.Random(50_000 + i)
        g = helpers.possibly_disconnected(rng)
        walk = from_conductance(g, {e: Fraction(1) for e in g.edges})
        result = spectrum(delta_operator(walk))
        if result.zero_multiplicity != g.component_count:
            ok = False
            detail += f" components {g.component_count} vs {result.zero_multiplicity}"
    _finish(
        5,
        ok,
        "cycle gaps 1-cos(2pi/n) @1e-9 (n=3..24), K2 spectrum {0,2} @1e-10, kernel = components x100",
        started,
        detail,
    )


def test_accept_06_lp_poincare_suite():
    started = time.monotonic()
    ps = (1.0, 1.5, 2.0, 3.0, 4.0)
    ratio_violations = 0
    gap_mismatches = 0
    for i in range(200):
        rng = random.Random(60_000 + i)
        walk = helpers.rand_walk(rng, 3, 10)
        n = walk.graph.n
        c = float(cheeger_conductance(walk, walk.mu).value)
        eu, ev, aw, pairw = _walk_arrays(walk)
        batch = np.array([[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(1000)])
        for p in ps:
            edge, pair = _energies(eu, ev, aw, pairw, batch, p)
            ratios = edge / pair
            if not np.all(ratios >= cp_formula(c, p) - 1e-9):
                ratio_violations += int(np.sum(ratios < cp_formula(c, p) - 1e-9))
        est = optimal_lp_constant(walk, 2.0, restarts=64, seed=i)
        if abs(est.estimate - delta_gap(walk)) > 1e-6:
            gap_mismatches += 1
    _finish(
        6,
        ratio_violations == 0 and gap_mismatches == 0,
        "ratio >= c_p on 200 walks x 5 exponents x 1000 functions; p=2 optimum = gap @1e-6 (budget 300s)",
        started,
        f" ratio_violations={ratio_violations} gap_mismatches={gap_mismatches}",
    )


def test_accept_07_distance_bound():
    started = time.monotonic()
    violations = 0
    for i in range(500):
        rng = random.Random(70_000 + i)
        walk = helpers.rand_walk(rng, 3, 12)
        n = walk.graph.n
        vertices = list(range(n))
        rng.shuffle(vertices)
        size_a = rng.randrange(1, n)
        size_b = rng.randrange(1, n - size_a + 1)
        set_a = VertexSubset.from_indices(n, vertices[:size_a])
        set_b = VertexSubset.from_indices(n, vertices[size_a : size_a + size_b])
        if not distance_gap_bound(walk, set_a, set_b, tol=1e-8).holds:
            violations += 1
    _finish(
        7,
        violations == 0,
        "gap d(A,B)^2 <= (1/mu(A)+1/mu(B)) a(E-E_A-E_B) on 500 disjoint pairs (budget 30s)",
        started,
        f" violations={violations}",
    )


def test_accept_08_pair_identities():
    started = time.monotonic()
    bad_scalar = 0
    bad_vector = 0
    for i in range(1000):
        rng = random.Random(80_000 + i)
        walk = helpers.rand_walk(rng, 3, 10)
        n = walk.graph.n
        mu = np.array([float(m) for m in walk.mu])
        total = mu.sum()

        def identity_gap(f):
            f = f - (f @ mu) / total
            diff = f[:, None] - f[None, :]
            pair = float((diff ** 2 * np.outer(mu, mu)).sum()) / total
            direct = 2.0 * float(f @ (mu * f))
            scale = max(abs(pair), abs(direct), 1e-30)
            return abs(pair - direct) / scale

        if identity_gap(np.array([rng.gauss(0, 1) for _ in range(n)])) > 1e-10:
            bad_scalar += 1
        dims = 1 + i % 4
        gaps = [
            identity_gap(np.array([rng.gauss(0, 1) for _ in range(n)])) for _ in range(dims)
        ]
        if max(gaps) > 1e-10:
            bad_vector += 1
    _finish(
        8,
        bad_scalar == 0 and bad_vector == 0,
        "pair form equals 2||f||^2 for mean-zero f, scalar + coordinates d<=4, @1e-10 x1000",
        started,
        f" scalar={bad_scalar} vector={bad_vector}",
    )


def test_accept_09_product_and_perturbation():
    started = time.monotonic()
    # full-support perturbation: exact ratio bound on 200 instances
    ratio_failures = 0
    produced = 0
    i = 0
    while produced < 200:
        rng = random.Random(90_000 + i)
        i += 1
        instance = _perturbation_instance(rng)
        if instance is None:
            continue
        produced += 1
        g, bad, n = instance
        out = full_support_perturbation(g, bad, n)
        mass = measure_of(g, bad)
        boundary = vertex_boundary(g, bad)
        perturbed = g.with_measure(out)
        lhs = measure_of(perturbed, boundary) / measure_of(perturbed, bad)
        rhs = 2 * measure_of(g, boundary) / mass + Fraction(1, 1) / (n - mass)
        if lhs > rhs:
            ratio_failures += 1

    # product truncations over a random 3-regular base with counting
    # probability measure: exact Cheeger by enumeration while the subset
    # space fits (2^20, 2^30); past that the subset count (2^39..2^59) is
    # beyond any exact enumeration, and the criterion's inequality is instead
    # certified through the proved lower bound  cheeger >= s gap / (2(1+s)K).
    base = random_regular(10, 3, random.Random(90_900), probability_counting_measure(10))
    base_c = cheeger_vertex(base).value
    paper_bound = min(base_c / 18, Fraction(1, 8))
    threshold = paper_bound / 2
    print(
        f"  product base: cheeger={format_rational(base_c)}, "
        f"paper bound min(c/18,1/8)={format_rational(paper_bound)}, "
        f"acceptance threshold={format_rational(threshold)}"
    )
    product_ok = True
    detail = ""
    for segment in range(1, 6):
        trunc = product_segment(base, segment)
        if trunc.n <= 30:
            value = cheeger_vertex(trunc, cap=30).value
            holds = value >= threshold
            print(
                f"  segment {segment} (n={trunc.n}): exact cheeger="
                f"{format_rational(value)}={float(value):.4f} >= {float(threshold):.4f}: {holds}"
            )
        else:
            lam = measured_gap(trunc)
            lower = float(trunc.ratio_bound / (2 * (1 + trunc.ratio_bound) * trunc.max_valency)) * lam
            holds = lower >= float(threshold)
            print(
                f"  segment {segment} (n={trunc.n}): exact enumeration infeasible "
                f"(2^{trunc.n - 1} subsets); certified lower bound s*gap/(2(1+s)K)="
                f"{lower:.4f} >= {float(threshold):.4f}: {holds}"
            )
        if not holds:
            product_ok = False
            detail += f" segment{segment} below threshold"
    _finish(
        9,
        ratio_failures == 0 and product_ok,
        "perturbation ratio bound exact x200; product truncations 1..5 above min(c/18,1/8)/2 (budget 120s)",
        started,
        f" ratio_failures={ratio_failures}{detail}",
    )


def _perturbation_instance(rng):
    from mexp.families import random_connected_graph

    n_vertices = rng.randrange(4, 11)
    g = random_connected_graph(n_vertices, rng)
    weights = [Fraction(rng.randrange(0, 5)) for _ in range(n_vertices)]
    if not any(w == 0 for w in weights) or not any(w > 0 for w in weights):
        return None
    total = sum(weights)
    graph = g.with_measure([w / total for w in weights])
    support = [v for v in range(n_vertices) if weights[v] > 0]
    rng.shuffle(support)
    for size in range(1, len(support) + 1):
        bad = VertexSubset.from_indices(n_vertices, support[:size])
        mass = measure_of(graph, bad)
        if 0 < mass <= Fraction(1, 2):
            return graph, bad, rng.randrange(1, 6)
    return None


def test_accept_10_generalised_certificate():
    started = time.monotonic()
    rng = random.Random(100_000)
    members = tuple(
        random_regular(n, 3, rng, probability_counting_measure(n)) for n in (16, 32, 64)
    )
    family = GraphFamily(members=members)
    ok = True
    detail = ""
    for p in (1.0, 2.0):
        cert = generalised_certificate(family, p=p, seed=7)
        for row in cert.rows:
            if row.skipped is not None:
                ok = False
                detail += f" p={p} member {row.index} skipped"
                continue
            if not (row.symmetric and row.probability and row.supported_off_cutoff):
                ok = False
                detail += f" p={p} member {row.index} pair-measure checks failed"
            if sum(row.pair_measure.values(), Fraction(0)) != 1:
                ok = False
                detail += f" p={p} member {row.index} mass != 1"
            if row.off_diagonal_mass < Fraction(1, 8):
                ok = False
                detail += f" p={p} member {row.index} off-mass {row.off_diagonal_mass} < 1/8"
            accepted = [t for t in row.test_maps if t.accepted]
            if not accepted:
                ok = False
                detail += f" p={p} member {row.index} no accepted test maps"
            if any(t.energy > cert.energy_bound + 1e-8 for t in accepted):
                ok = False
                detail += f" p={p} member {row.index} energy above 8 kappa"
    _finish(
        10,
        ok,
        "pair measures symmetric/probability/off-cutoff, off-mass >= 1/8, energies <= 8 kappa "
        "on 3-regular n=16,32,64 for p=1,2 (budget 120s)",
        started,
        detail,
    )


def test_accept_11_determinism():
    started = time.monotonic()

    def sandwich_digest():
        rows = []
        for i in range(25):
            rng = random.Random(10_000 + i)
            walk = helpers.rand_walk(rng, 3, 12, auxiliary_of_random_measure=True)
            report = verify_cheeger_sandwich(walk)
            rows.append(
                {
                    "cheeger": report.inputs["cheeger"],
                    "witness": report.inputs["witness"],
                    "holds": report.holds,
                }
            )
        return json.dumps(rows, sort_keys=True)

    def certificate_digest():
        g = random_regular(16, 3, random.Random(123), probability_counting_measure(16))
        cert = generalised_certificate(GraphFamily(members=(g,)), p=1.0, seed=3)
        row = cert.rows[0]
        return json.dumps(
            {
                "gamma": format_rational(row.gamma),
                "nu": {f"{x},{y}": format_rational(w) for (x, y), w in sorted(row.pair_measure.items())},
                "off": format_rational(row.off_diagonal_mass),
            },
            sort_keys=True,
        )

    ok = sandwich_digest() == sandwich_digest() and certificate_digest() == certificate_digest()
    _finish(
        11,
        ok,
        "seeded suites reproduce rational report fields bit-identically on re-run",
        started,
    )
