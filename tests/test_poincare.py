import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import helpers
import oracles
from mexp import (
    MeasuredGraph,
    auxiliary_walk,
    cheeger_conductance,
    cp_formula,
    delta_gap,
    delta_operator,
    eigenpairs,
    from_conductance,
    kappa_constant,
    lambda_operator,
    lp_energy_pair,
    lp_energy_ratio,
    measured_gap,
    measured_lp_check,
    optimal_lp_constant,
)
from mexp.families import make_cycle
from mexp.poincare import _energies, _ratio_gradient, _ratio_hessian, _walk_arrays


def k2_walk(a=Fraction(1)):
    g = MeasuredGraph.build(2, [(0, 1)], [1, 1])
    return from_conductance(g, {(0, 1): a})


class TestCpFormula:
    def test_below_two_is_half_square(self):
        assert cp_formula(1.0, 1.5) == 0.5
        assert cp_formula(0.5, 1.0) == 0.125

    def test_at_two(self):
        assert cp_formula(1.0, 2.0) == pytest.approx(1.0 / 32.0, abs=1e-15)

    def test_at_four(self):
        # (4 / (16 * 2^1.5))^2 / 32 collapses to exactly 1/4096
        assert cp_formula(1.0, 4.0) == pytest.approx(1.0 / 4096.0, rel=1e-12)
        assert cp_formula(1.0, 4.0) == pytest.approx(2.4414e-4, rel=1e-4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cp_formula(0.0, 2.0)
        with pytest.raises(ValueError):
            cp_formula(1.0, 0.5)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_non_finite_exponent_rejected(self, p):
        w = k2_walk()
        for call in (
            lambda: cp_formula(1.0, p),
            lambda: lp_energy_pair(w, [0.0, 1.0], p),
            lambda: optimal_lp_constant(w, p, restarts=2),
        ):
            with pytest.raises(ValueError, match="finite number of at least 1"):
                call()


class TestKappa:
    def test_worked_value(self):
        assert kappa_constant(2, 0.5, 1.0, 1.0, 1.0) == pytest.approx(12.0)

    def test_zero_modulus(self):
        assert kappa_constant(2, 0.5, 1.0, 1.0, 0.0) == 0.0

    def test_homogeneous_in_modulus_at_p1(self):
        one = kappa_constant(3, 0.25, 0.7, 1.0, 1.0)
        two = kappa_constant(3, 0.25, 0.7, 1.0, 2.0)
        assert two == pytest.approx(2.0 * one)


class TestEnergyRatio:
    def test_ordered_pairs_double_the_edge_sum(self):
        rng = random.Random(1)
        for _ in range(15):
            w = helpers.rand_walk(rng, 2, 9)
            f = [rng.gauss(0, 1) for _ in range(w.graph.n)]
            p = rng.choice([1.0, 1.5, 2.0, 3.0])
            lhs, rhs = lp_energy_pair(w, f, p)
            assert lhs == pytest.approx(oracles.brute_edge_energy(w, f, p), rel=1e-12)
            assert rhs == pytest.approx(
                oracles.brute_pair_energy(list(w.mu), w.total_mu, f, p), rel=1e-12
            )
            half = sum(abs(f[u] - f[v]) ** p * float(w.a[(u, v)]) for u, v in w.graph.edges)
            assert lhs == pytest.approx(2.0 * half, rel=1e-12)

    def test_affine_invariance(self):
        rng = random.Random(2)
        w = helpers.rand_walk(rng, 4, 8)
        f = [rng.gauss(0, 1) for _ in range(w.graph.n)]
        for p in (1.0, 2.0, 3.0):
            base = lp_energy_ratio(w, f, p)
            moved = lp_energy_ratio(w, [2.5 * x - 7.0 for x in f], p)
            assert moved == pytest.approx(base, rel=1e-9)

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            lp_energy_ratio(k2_walk(), [1.0, 1.0], 2.0)

    def test_p2_gap_eigenvector_attains_gap(self):
        rng = random.Random(3)
        for _ in range(10):
            w = helpers.rand_walk(rng, 3, 10)
            op = delta_operator(w)
            vals, vecs = eigenpairs(op)
            idx = next(i for i, x in enumerate(vals) if x >= 1e-9)
            ratio = lp_energy_ratio(w, list(vecs[:, idx]), 2.0)
            assert ratio == pytest.approx(vals[idx], abs=1e-8)

    def test_k2_ratio_is_two_for_any_p(self):
        w = k2_walk(Fraction(7, 3))
        for p in (1.0, 1.5, 2.0, 3.0, 4.0):
            assert lp_energy_ratio(w, [0.4, -1.1], p) == pytest.approx(2.0, rel=1e-12)

    def test_vector_valued_extension_obeys_gap_bound(self):
        # p = 2 coordinate sums: sum_i edge_i >= gap * sum_i pair_i, d <= 4
        rng = random.Random(4)
        for _ in range(10):
            w = helpers.rand_walk(rng, 3, 9)
            gap = delta_gap(w)
            d = rng.randrange(1, 5)
            cols = [[rng.gauss(0, 1) for _ in range(w.graph.n)] for _ in range(d)]
            edge_total = 0.0
            pair_total = 0.0
            for col in cols:
                lhs, rhs = lp_energy_pair(w, col, 2.0)
                edge_total += lhs
                pair_total += rhs
            assert edge_total >= gap * pair_total - 1e-8

    def test_lower_bound_suite_small(self):
        rng = random.Random(5)
        for _ in range(10):
            w = helpers.rand_walk(rng, 3, 10)
            c = float(cheeger_conductance(w, w.mu).value)
            for p in (1.0, 1.5, 2.0, 3.0, 4.0):
                floor = cp_formula(c, p)
                for _ in range(50):
                    f = [rng.gauss(0, 1) for _ in range(w.graph.n)]
                    assert lp_energy_ratio(w, f, p) >= floor - 1e-9


class TestMeasuredCheck:
    def test_gap_eigenvector_attains_measured_gap(self):
        rng = random.Random(6)
        for _ in range(10):
            g = helpers.rand_connected(rng, 3, 9, measured=True)
            lam = measured_gap(g)
            vals, vecs = eigenpairs(lambda_operator(g))
            idx = next(i for i, x in enumerate(vals) if x >= 1e-9)
            check = measured_lp_check(g, list(vecs[:, idx]), 2.0)
            assert check.ratio == pytest.approx(lam, abs=1e-8)

    def test_translation_invariance(self):
        g = make_cycle(6)
        f = [0.0, 1.0, 2.0, 1.5, -1.0, 0.5]
        a = measured_lp_check(g, f, 2.0)
        b = measured_lp_check(g, [x + 11.0 for x in f], 2.0)
        assert a.ratio == pytest.approx(b.ratio, rel=1e-9)

    def test_antipodal_halves_on_cycle(self):
        g = make_cycle(6)
        check = measured_lp_check(g, [1, 1, 1, -1, -1, -1], 2.0)
        assert check.lhs == pytest.approx(32.0)
        assert check.rhs == pytest.approx(12.0)
        assert check.ratio == pytest.approx(8.0 / 3.0)
        assert check.ratio >= measured_gap(g) - 1e-9

    def test_zero_measure_rejected(self):
        g = MeasuredGraph.build(2, [(0, 1)], [1, 0])
        with pytest.raises(ValueError, match="zero measure"):
            measured_lp_check(g, [1.0, 0.0], 2.0)


class TestOptimizer:
    def test_p2_matches_gap(self):
        rng = random.Random(7)
        for i in range(8):
            w = helpers.rand_walk(rng, 3, 9)
            gap = delta_gap(w)
            est = optimal_lp_constant(w, 2.0, restarts=32, seed=i)
            assert est.estimate == pytest.approx(gap, abs=1e-6)

    def test_estimate_is_ratio_at_minimizer(self):
        rng = random.Random(8)
        for p in (1.0, 2.0, 3.0):
            w = helpers.rand_walk(rng, 3, 8)
            est = optimal_lp_constant(w, p, restarts=16, seed=3)
            assert est.estimate == pytest.approx(
                lp_energy_ratio(w, list(est.minimizer), p), abs=1e-12
            )

    def test_estimate_dominates_explicit_constant(self):
        rng = random.Random(9)
        for p in (1.0, 1.5, 2.0, 3.0):
            w = helpers.rand_walk(rng, 3, 8)
            c = float(cheeger_conductance(w, w.mu).value)
            est = optimal_lp_constant(w, p, restarts=16, seed=4)
            assert est.estimate >= cp_formula(c, p) - 1e-9

    def test_k2_is_flat(self):
        est = optimal_lp_constant(k2_walk(), 3.0, restarts=4, seed=0)
        assert est.estimate == pytest.approx(2.0, rel=1e-12)

    def test_deterministic(self):
        rng = random.Random(10)
        w = helpers.rand_walk(rng, 4, 8)
        a = optimal_lp_constant(w, 1.5, restarts=8, seed=42)
        b = optimal_lp_constant(w, 1.5, restarts=8, seed=42)
        assert a.estimate == b.estimate and a.minimizer == b.minimizer

    def test_stall_rule_loses_nothing_against_the_fixed_budget(self):
        # the full 800-iteration loop is the reference; stopping when the
        # best ratio stalls may not leave a worse estimate behind
        rng = random.Random(11)
        for i in range(4):
            w = helpers.rand_walk(rng, 3, 8)
            for p in (1.0, 1.5, 2.0, 3.0):
                est = optimal_lp_constant(w, p, restarts=16, seed=i)
                reference, _ = oracles.fixed_budget_lp_constant(w, p, restarts=16, seed=i, iters=800)
                assert est.estimate <= reference * (1 + 1e-9), (i, p)
                if p == 2.0:
                    assert est.converged and est.iterations < 800, (i, est.iterations)

    def test_newton_finish_loses_nothing_against_the_fixed_budget(self):
        # walks shaped like the benchmark's optimizer ops: n = 6..12, random
        # conductances, 64 restarts, the exponent cycling through 1.5, 2, 3
        rng = random.Random(14)
        for i in range(12):
            w = helpers.rand_walk(rng, 6 + i % 7, 6 + i % 7)
            p = (1.5, 2.0, 3.0)[i % 3]
            est = optimal_lp_constant(w, p, restarts=64, seed=i)
            reference, _ = oracles.fixed_budget_lp_constant(w, p, restarts=64, seed=i, iters=800)
            assert est.estimate <= reference * (1 + 1e-12), (i, p, est.estimate / reference - 1)

    def test_delta_start_row_converges_at_p2(self):
        rng = random.Random(15)
        for i in range(8):
            w = helpers.rand_walk(rng, 3, 12)
            est = optimal_lp_constant(w, 2.0, restarts=16, seed=i)
            assert est.converged and est.iterations <= 25, (i, est.iterations)
            assert est.estimate == pytest.approx(delta_gap(w), rel=1e-9)

    def test_minimizer_sign_is_canonical(self):
        rng = random.Random(16)
        for i, p in enumerate((1.5, 2.0, 3.0)):
            w = helpers.rand_walk(rng, 4, 9)
            f = optimal_lp_constant(w, p, restarts=8, seed=i).minimizer
            top = max(range(len(f)), key=lambda v: (abs(f[v]), -v))
            assert f[top] > 0, (p, f)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_hessian_matches_central_differences(self, p):
        rng = random.Random(17)
        eps = 1e-9 if p < 2 else 0.0
        for _ in range(4):
            w = helpers.rand_walk(rng, 9, 12)
            n = w.graph.n
            form = _walk_arrays(w)
            f = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
            h = 1e-6  # central differences err by O(h^2 / gap^3); the smallest gap here is 8.9e-4
            F = np.vstack([f, f + h * np.eye(n), f - h * np.eye(n)])
            edge, pair = oracles.lp_energies(oracles.lp_walk_arrays(w), F, p, eps)
            grads = _ratio_gradient(form, F, p, eps, edge, pair)
            numeric = (grads[1 : n + 1] - grads[n + 1 :]) / (2.0 * h)
            got = _ratio_hessian(form, f, p, eps, edge[0], pair[0], grads[0])
            assert np.abs(got - got.T).max() <= 1e-12 * np.abs(got).max()
            assert np.abs(got - numeric).max() <= 1e-6 * np.abs(got).max(), p

    def test_max_iters_caps_the_search(self):
        w = helpers.rand_walk(random.Random(12), 6, 9)
        est = optimal_lp_constant(w, 2.0, restarts=8, seed=1, max_iters=5)
        assert est.iterations == 5 and est.converged is False

    def test_incidence_gradient_matches_scattered_adds(self):
        rng = random.Random(13)
        w = helpers.rand_walk(rng, 9, 12)
        arrays = oracles.lp_walk_arrays(w)
        F = np.array([[rng.gauss(0.0, 1.0) for _ in range(w.graph.n)] for _ in range(64)])
        for p, eps in ((1.5, 1e-9), (2.0, 0.0), (3.0, 0.0)):
            edge, pair = oracles.lp_energies(arrays, F, p, eps)
            got = _ratio_gradient(_walk_arrays(w), F, p, eps, edge, pair)
            want = oracles.lp_ratio_gradient(arrays, F, p, eps, edge, pair)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), p

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            optimal_lp_constant(k2_walk(), 0.5)
        g = MeasuredGraph.build(4, [(0, 1), (2, 3)], [1, 1, 1, 1])
        w = from_conductance(g, {e: Fraction(1) for e in g.edges})
        with pytest.raises(ValueError, match="connected"):
            optimal_lp_constant(w, 2.0)


class TestPairForm:
    @pytest.mark.parametrize("eps", [0.0, 1e-9])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 6.0])
    def test_energies_match_ordered_pair_oracle(self, p, eps):
        rng = random.Random(18)
        for _ in range(6):
            w = helpers.rand_walk(rng, 3, 10)
            n = w.graph.n
            F = np.array([[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(8)])
            F[1, 1] = F[1, 0]  # one pair at d = 0
            F[2, : n // 2 + 1] = F[2, 0]  # most pairs at d = 0
            edge, pair = _energies(_walk_arrays(w), F, p, eps)
            want_edge, want_pair = oracles.lp_energies(oracles.lp_walk_arrays(w), F, p, eps)
            # the oracle's smoothed pair energy keeps the diagonal terms mu(u)^2 eps^p / mu(V)
            mu = np.array([float(m) for m in w.mu])
            want_pair = want_pair - eps**p * (mu * mu).sum() / float(w.total_mu)
            assert np.isfinite(edge).all() and np.isfinite(pair).all()
            assert edge == pytest.approx(want_edge, rel=1e-13, abs=0.0), (p, eps)
            assert pair == pytest.approx(want_pair, rel=1e-13, abs=0.0), (p, eps)

    def test_memory_grows_with_the_pairs_not_pairs_times_vertices(self):
        # a (pairs, n) incidence at n = 300 alone would be 358 MB, or 4000 n^2 bytes
        n = 300
        w = auxiliary_walk(make_cycle(n))
        f = np.cos(np.arange(n))
        tracemalloc.start()
        try:
            ratio = lp_energy_ratio(w, f, 1.5)
            energy_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            form = _walk_arrays(w)
            edge, pair = _energies(form, f[None, :], 3.0)
            grad = _ratio_gradient(form, f[None, :], 3.0, 0.0, edge, pair)[0]
            _ratio_hessian(form, f, 3.0, 0.0, edge[0], pair[0], grad)
            search_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ratio > 0.0
        assert energy_peak < 100 * n * n, energy_peak
        assert search_peak < 100 * n * n, search_peak

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_hessian_is_finite_and_symmetric_where_two_coordinates_meet(self, p):
        rng = random.Random(19)
        for _ in range(4):
            w = helpers.rand_walk(rng, 4, 10)
            form = _walk_arrays(w)
            f = np.array([rng.gauss(0.0, 1.0) for _ in range(w.graph.n)])
            f[1] = f[0]
            edge, pair = _energies(form, f[None, :], p)
            grad = _ratio_gradient(form, f[None, :], p, 0.0, edge, pair)[0]
            hess = _ratio_hessian(form, f, p, 0.0, edge[0], pair[0], grad)
            assert np.isfinite(hess).all(), p
            assert np.abs(hess - hess.T).max() <= 1e-12 * np.abs(hess).max(), p
