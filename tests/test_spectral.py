import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from mexp import (
    MeasuredGraph,
    auxiliary_walk,
    coarea_check,
    delta_operator,
    eigenpairs,
    from_conductance,
    lambda_operator,
    measured_gap,
    spectrum,
)
from mexp import spectral
from mexp.families import make_cycle, make_hypercube


def k2(m0=1, m1=1):
    return MeasuredGraph.build(2, [(0, 1)], [m0, m1])


class TestEigenpairs:
    def pencils(self, n):
        rng = random.Random(n)
        yield delta_operator(helpers.rand_walk(rng, n, n))
        yield delta_operator(helpers.rand_walk(rng, n, n, auxiliary_of_random_measure=True))
        yield lambda_operator(helpers.rand_connected(rng, n, n, measured=True))

    @pytest.mark.parametrize("n", [40, 100])
    def test_pencil_residuals(self, n):
        for op in self.pencils(n):
            w, v = eigenpairs(op)
            assert np.all(np.diff(w) >= 0)
            residual = op.stiffness @ v - (op.mass_diagonal[:, None] * v) * w[None, :]
            assert np.linalg.norm(residual, axis=0).max() <= 1e-10 * np.linalg.norm(op.stiffness)

    @pytest.mark.parametrize("n", [40, 100])
    def test_vectors_mass_orthonormal(self, n):
        for op in self.pencils(n):
            _, v = eigenpairs(op)
            gram = v.T @ (op.mass_diagonal[:, None] * v)
            assert np.abs(gram - np.eye(n)).max() <= 1e-10

    def test_cycle48_closed_form(self):
        # simple walk on C_n: 1 - cos(2 pi k / n), k = 0..n-1
        n = 48
        result = spectrum(delta_operator(auxiliary_walk(make_cycle(n))))
        expected = sorted(1.0 - math.cos(2.0 * math.pi * k / n) for k in range(n))
        assert np.allclose(result.eigenvalues, expected, rtol=0, atol=1e-12)
        assert result.gap == pytest.approx(oracles.cycle_gap(n), abs=1e-12)
        assert result.zero_multiplicity == 1

    def test_hypercube6_closed_form(self):
        # simple walk on Q_d: eigenvalue 2j/d with multiplicity C(d, j)
        d = 6
        result = spectrum(delta_operator(auxiliary_walk(make_hypercube(d))))
        expected = [2.0 * j / d for j in range(d + 1) for _ in range(math.comb(d, j))]
        assert np.allclose(result.eigenvalues, expected, rtol=0, atol=1e-12)
        assert result.gap == pytest.approx(2.0 / d, abs=1e-12)
        assert result.zero_multiplicity == 1


class TestSharedPencil:
    def test_lambda_is_delta_of_the_auxiliary_walk_with_mass_m(self):
        rng = random.Random(8)
        for _ in range(30):
            g = helpers.rand_connected(rng, 2, 14, measured=True)
            lam, delta = lambda_operator(g), delta_operator(auxiliary_walk(g))
            assert np.array_equal(lam.stiffness, delta.stiffness)
            assert np.array_equal(lam.mass_diagonal, np.array([float(m) for m in g.measure]))
            assert np.array_equal(delta.mass_diagonal, np.array([float(m) for m in auxiliary_walk(g).mu]))

    def test_stiffness_rows_sum_to_zero(self):
        rng = random.Random(9)
        for _ in range(30):
            g = helpers.rand_connected(rng, 2, 14, measured=True)
            for op in (lambda_operator(g), delta_operator(helpers.rand_walk(rng, 2, 14))):
                assert np.abs(op.stiffness.sum(axis=1)).max() <= 1e-12 * np.linalg.norm(op.stiffness)
                assert np.array_equal(op.stiffness, op.stiffness.T)


class TestDeltaOperator:
    def test_k2_any_conductance(self):
        for a in (Fraction(2), Fraction(1, 3), Fraction(7)):
            walk = from_conductance(k2(), {(0, 1): a})
            result = spectrum(delta_operator(walk))
            assert result.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
            assert result.eigenvalues[1] == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycle_gap_formula(self, n):
        walk = auxiliary_walk(make_cycle(n))
        assert spectrum(delta_operator(walk)).gap == pytest.approx(oracles.cycle_gap(n), abs=1e-9)

    def test_cycle_cosine_eigenvector(self):
        # f(j) = cos(2 pi j / n) satisfies the eigen equation at the gap
        n = 8
        walk = auxiliary_walk(make_cycle(n))
        op = delta_operator(walk)
        f = np.array(oracles.cycle_eigenvector(n, 1))
        lam = oracles.cycle_gap(n)
        residual = op.stiffness @ f - lam * op.mass_diagonal * f
        assert np.linalg.norm(residual) <= 1e-9
        assert oracles.rayleigh(op, f) == pytest.approx(lam, abs=1e-12)

    def test_constant_in_kernel(self):
        rng = random.Random(2)
        for _ in range(15):
            op = delta_operator(helpers.rand_walk(rng, 2, 10))
            assert abs(oracles.rayleigh(op, np.ones(op.n))) <= 1e-12

    def test_spectrum_in_unit_window(self):
        rng = random.Random(3)
        for _ in range(25):
            result = spectrum(delta_operator(helpers.rand_walk(rng, 2, 12)))
            assert all(-1e-9 <= x <= 2.0 + 1e-9 for x in result.eigenvalues)

    def test_zero_multiplicity_counts_components(self):
        rng = random.Random(4)
        for _ in range(20):
            g = helpers.possibly_disconnected(rng)
            walk = from_conductance(g, {e: Fraction(1) for e in g.edges})
            result = spectrum(delta_operator(walk))
            assert result.zero_multiplicity == g.component_count

    def test_weak_bridge_is_the_gap_not_kernel(self):
        # path a-b-c-d with conductances 1, 1/10^11, 1: connected, so the
        # kernel is one-dimensional and the gap is the tiny bridge mode
        # (9.9999999999e-12 in 50-digit arithmetic)
        g = MeasuredGraph.build(4, [(0, 1), (1, 2), (2, 3)], [1, 1, 1, 1])
        walk = from_conductance(g, {(0, 1): 1, (1, 2): Fraction(1, 10**11), (2, 3): 1})
        result = spectrum(delta_operator(walk))
        assert result.zero_multiplicity == 1
        assert result.gap == pytest.approx(1e-11, rel=1e-6)

    def test_kernel_vectors_constant_on_components(self):
        rng = random.Random(5)
        for _ in range(10):
            g = helpers.possibly_disconnected(rng)
            walk = from_conductance(g, {e: Fraction(1) for e in g.edges})
            op = delta_operator(walk)
            w, v = eigenpairs(op)
            comp = g._component_of
            for i, lam in enumerate(w):
                if lam >= 1e-9:
                    continue
                for c in range(g.component_count):
                    values = [v[x, i] for x in range(g.n) if comp[x] == c]
                    assert np.var(values) <= 1e-9

    def test_eigensolver_self_consistency(self):
        rng = random.Random(6)
        for _ in range(15):
            op = delta_operator(helpers.rand_walk(rng, 2, 12))
            w, v = eigenpairs(op)
            for i in range(op.n):
                res = np.linalg.norm(op.stiffness @ v[:, i] - w[i] * op.mass_diagonal * v[:, i])
                assert res <= 1e-8 * max(1.0, np.linalg.norm(v[:, i]))


class TestLambdaOperator:
    def test_k2_counting(self):
        op = lambda_operator(k2())
        assert np.array_equal(op.stiffness, np.array([[2.0, -2.0], [-2.0, 2.0]]))
        assert np.array_equal(op.mass_diagonal, np.array([1.0, 1.0]))
        result = spectrum(op)
        assert result.eigenvalues == pytest.approx((0.0, 4.0), abs=1e-10)

    def test_cycle_counting_gap(self):
        # pencil with conductance 2 and unit mass: gap 2 (2 - 2 cos(2 pi / 6)) = 2
        expected = 2.0 * (2.0 - 2.0 * math.cos(2.0 * math.pi / 6.0))
        assert measured_gap(make_cycle(6)) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(2.0)

    def test_constant_in_kernel(self):
        rng = random.Random(7)
        for _ in range(10):
            g = helpers.rand_connected(rng, 2, 10, measured=True)
            assert abs(oracles.rayleigh(lambda_operator(g), np.ones(g.n))) <= 1e-12

    def test_zero_measure_vertex_rejected(self):
        with pytest.raises(ValueError, match="zero measure"):
            lambda_operator(k2(1, 0))

    def test_best_constant_characterization(self):
        # the gap is the best constant lam with
        #   sum_{u~v} |f(u)-f(v)|^2 (m(u)+m(v)) >= 2 lam sum |f|^2 m
        # over m-mean-zero f: random f obey it, the gap eigenvector is tight
        rng = random.Random(8)
        for _ in range(12):
            g = helpers.rand_connected(rng, 2, 9, measured=True)
            lam = measured_gap(g)
            m = np.array([float(x) for x in g.measure])
            op = lambda_operator(g)

            def lhs(f):
                return 2.0 * sum(
                    (f[u] - f[v]) ** 2 * float(g.measure[u] + g.measure[v]) for u, v in g.edges
                )

            for _ in range(10):
                f = np.array([rng.gauss(0, 1) for _ in range(g.n)])
                f -= (f @ m) / m.sum()
                if np.linalg.norm(f) < 1e-9:
                    continue
                assert lhs(f) >= 2.0 * lam * float(f @ (m * f)) - 1e-8

            w, v = eigenpairs(op)
            idx = next(i for i, x in enumerate(w) if x >= 1e-9)
            tight = v[:, idx]
            assert lhs(tight) < 2.0 * lam * (1.0 + 1e-6) * float(tight @ (m * tight))


class TestRayleigh:
    def test_constant_is_zero(self):
        op = delta_operator(auxiliary_walk(make_cycle(5)))
        assert oracles.rayleigh(op, [3.0] * 5) == pytest.approx(0.0, abs=1e-12)

    def test_gap_eigenvector(self):
        rng = random.Random(9)
        for _ in range(10):
            op = delta_operator(helpers.rand_walk(rng, 3, 10))
            w, v = eigenpairs(op)
            idx = next(i for i, x in enumerate(w) if x >= 1e-9)
            assert oracles.rayleigh(op, v[:, idx]) == pytest.approx(w[idx], abs=1e-9)

    def test_k2_alternating(self):
        walk = from_conductance(k2(), {(0, 1): 1})
        assert oracles.rayleigh(delta_operator(walk), [1.0, -1.0]) == pytest.approx(2.0)


class TestPairIdentity:
    def test_k2_hand_value(self):
        # mean-zero pair identity: sum |f(u)-f(v)|^2 mu mu / mu(V) = 2 sum |f|^2 mu
        mu = [2.0, 2.0]
        f = [1.0, -1.0]
        pair = oracles.brute_pair_energy(mu, 4.0, f, 2.0)
        direct = 2.0 * sum(x * x * w for x, w in zip(f, mu))
        assert pair == pytest.approx(8.0) and direct == pytest.approx(8.0)

    def test_random_mean_zero(self):
        rng = random.Random(10)
        for _ in range(25):
            w = helpers.rand_walk(rng, 2, 10)
            mu = [float(x) for x in w.mu]
            total = sum(mu)
            f = [rng.gauss(0, 1) for _ in range(len(mu))]
            shift = sum(x * m for x, m in zip(f, mu)) / total
            f = [x - shift for x in f]
            pair = oracles.brute_pair_energy(mu, total, f, 2.0)
            direct = 2.0 * sum(x * x * m for x, m in zip(f, mu))
            assert pair == pytest.approx(direct, rel=1e-10, abs=1e-12)


def _coarea_inputs():
    """(walk, f) pairs: small rationals, bigint conductances, float entries,
    constant functions and functions with a single nonzero level."""
    rng = random.Random(2024)
    cases = []
    for _ in range(40):
        walk = helpers.rand_walk(rng, 2, 10)
        cases.append((walk, [Fraction(rng.randrange(0, 12), rng.randrange(1, 9)) for _ in range(walk.graph.n)]))
    for _ in range(15):
        walk = helpers.bigint_walk(rng)
        n = walk.graph.n
        cases.append((walk, [Fraction(rng.randrange(0, 1 << 40), rng.choice(helpers.LARGE_PRIMES)) for _ in range(n)]))
        cases.append((walk, [rng.random() for _ in range(n)]))
        cases.append((walk, [Fraction(rng.randrange(1, 99), rng.randrange(1, 99))] * n))
        level = rng.random()
        cases.append((walk, [level if rng.random() < 0.5 else 0 for _ in range(n)]))
    return cases


class TestCoarea:
    def test_square_cycle_indicator(self):
        g = make_cycle(4)
        walk = from_conductance(g, {e: Fraction(2) for e in g.edges})
        report = coarea_check(walk, [1, 1, 0, 0])
        assert report.direct == 4 and report.level_sum == 4 and report.equal

    def test_constant_function(self):
        walk = auxiliary_walk(make_cycle(5))
        report = coarea_check(walk, [Fraction(3, 7)] * 5)
        assert report.direct == 0 and report.level_sum == 0 and report.equal

    def test_negative_entry_rejected(self):
        walk = auxiliary_walk(make_cycle(4))
        with pytest.raises(ValueError, match="negative"):
            coarea_check(walk, [1, -1, 0, 0])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_identity_exact_on_random_input(self, seed):
        rng = random.Random(seed)
        walk = helpers.rand_walk(rng, 2, 10)
        f = [Fraction(rng.randrange(0, 12), rng.randrange(1, 9)) for _ in range(walk.graph.n)]
        report = coarea_check(walk, f)
        assert report.equal
        assert report.direct == report.level_sum

    def test_sides_equal_fraction_reference(self):
        floats = singles = constants = 0
        for walk, f in _coarea_inputs():
            report = coarea_check(walk, f)
            assert isinstance(report.direct, Fraction) and isinstance(report.level_sum, Fraction)
            assert (report.direct, report.level_sum) == oracles.coarea_sides(walk, f)
            assert report.equal
            levels = set(f) - {0}
            floats += isinstance(f[0], float) and max(Fraction(x).denominator for x in f) >= 1 << 52
            singles += len(levels) == 1 and 0 in f
            constants += len(set(f)) == 1
        assert floats >= 10 and singles >= 5 and constants >= 15

    def test_three_levels_by_hand(self):
        # the 4-cycle 0-1-2-3-0 with conductances 1, 2, 3, 1/2 and f = (0, 1/2, 3/2, 1),
        # so 2f = (0, 1, 3, 2): direct = (1/4)(1*1 + 2*8 + 3*5 + (1/2)*4) = 17/2, the level sets
        # {f >= 1/2}, {f >= 1}, {f >= 3/2} cut 3/2, 5/2 and 5, weighted by
        # 1/4, 3/4 and 5/4: 3/8 + 15/8 + 25/4 = 17/2
        graph = MeasuredGraph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1, 1, 1, 1])
        a = {(0, 1): 1, (1, 2): 2, (2, 3): 3, (0, 3): Fraction(1, 2)}
        report = coarea_check(from_conductance(graph, a), [0, Fraction(1, 2), Fraction(3, 2), 1])
        assert report.direct == Fraction(17, 2)
        assert report.level_sum == Fraction(17, 2)
        assert report.equal

    def test_level_sum_counts_every_cut(self, monkeypatch):
        # the identity always holds, so only a wrong cut can show that
        # level_sum is summed from its own level sets and not from direct
        import mexp.spectral

        cut = mexp.spectral._level_cut
        monkeypatch.setattr(mexp.spectral, "_level_cut", lambda edges, values, level: cut(edges, values, level) + 1)
        report = coarea_check(auxiliary_walk(make_cycle(5)), [0, 1, 2, 1, 0])
        # conductance 2 on every edge; levels 1 and 2 weigh 1 and 3
        assert report.direct == 16
        assert report.level_sum == 16 + 1 + 3
        assert not report.equal

    def test_batch_rows_match_the_fraction_reference(self, monkeypatch):
        # each row of one batch, in one block or in blocks of one or two rows,
        # has the per-trial Fraction reference's sides times the conductances' scale
        rng = random.Random(2025)
        dtypes = set()
        for i in range(45):
            walk = helpers.bigint_walk(rng) if i % 3 == 0 else helpers.rand_walk(rng, 2, 10)
            top = 1 << rng.choice((4, 20, 70))
            rows = [[rng.randrange(top) for _ in range(walk.graph.n)] for _ in range(rng.randrange(1, 12))]
            rows.append([rows[0][0]] * walk.graph.n)
            scale = walk.integer_conductances[1]
            expected = [tuple(side * scale for side in oracles.coarea_sides(walk, row)) for row in rows]
            for entries in (spectral._BLOCK_ENTRIES, 1, 2 * (walk.graph.n - 1) * len(walk.graph.edges)):
                monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", entries)
                direct, level_sum = spectral._coarea_sides(walk, rows)
                assert [(int(d), int(s)) for d, s in zip(direct, level_sum)] == expected
                dtypes.add(direct.dtype)
        assert dtypes == {np.dtype(np.int64), np.dtype(object)}

    @pytest.mark.parametrize("total, dtype", [(7, np.int64), (8, object)])
    def test_dtype_either_side_of_the_int64_bound(self, total, dtype):
        # sum(A) * max(F)^2 = total * 2^60: 7 * 2^60 < 2^63 keeps int64, while
        # 8 * 2^60 = 2^63 needs Python ints.  F = (M, 0, M, 0) cuts every edge
        # of the 4-cycle, so its direct side is the bound itself, where int64
        # would wrap
        graph = make_cycle(4)
        walk = from_conductance(graph, dict(zip(graph.edges, (1, 2, 2, total - 5))))
        top = 1 << 30
        rows = [[top, 0, top, 0], [top, top >> 1, 3, top], [0, 0, 0, 0]]
        direct, level_sum = spectral._coarea_sides(walk, rows)
        assert direct.dtype == dtype and level_sum.dtype == dtype
        assert int(direct[0]) == total << 60
        sides = [tuple(map(int, pair)) for pair in zip(direct, level_sum)]
        assert sides == [oracles.coarea_sides(walk, row) for row in rows]

    @pytest.mark.parametrize("rows_dtype", [np.int64, np.uint64])
    @pytest.mark.parametrize("build", ["bigint", "just-past-the-bound"])
    def test_array_rows_take_the_object_path_past_the_bound(self, build, rows_dtype):
        # verify_coarea passes its rows as an integer array, whose max is a numpy
        # integer: times a bigint sum(A) it overflowed, and near 2^63 it wrapped
        # and chose int64 where the sums overflow.  6300 = 15 * 420 is the
        # largest entry verify_coarea draws
        if build == "bigint":
            walk = helpers.bigint_walk(random.Random(29))
        else:
            graph = make_cycle(4)
            total = (1 << 63) // 6300**2 + 1  # sum(A) * 6300^2 just above 2^63
            walk = from_conductance(graph, dict(zip(graph.edges, (1, 2, 3, total - 6))))
        n = walk.graph.n
        rng = random.Random(290)
        rows = [[6300, 0] * (n // 2) + [6300] * (n % 2)]
        rows += [[rng.randrange(16) * (420 // rng.randrange(1, 8)) for _ in range(n)] for _ in range(6)]
        direct, level_sum = spectral._coarea_sides(walk, np.array(rows, dtype=rows_dtype))
        assert direct.dtype == object and level_sum.dtype == object
        scale = walk.integer_conductances[1]
        expected = [tuple(side * scale for side in oracles.coarea_sides(walk, row)) for row in rows]
        assert [(int(d), int(s)) for d, s in zip(direct, level_sum)] == expected
