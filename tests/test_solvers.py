import itertools
import warnings

import numpy as np
import pytest

from robusteig import (InputError, NormPair, SolverConfig,
                       SparseStochasticMatrix, UncertaintySpec,
                       averaged_power, dominant_eigenvector,
                       edge_list, from_edge_list, generate,
                       grid_oracle_minimize, mirror_descent_minimize,
                       pagerank, phi_value, regularized_power_method,
                       residual, suggest_epsilon, uniform_vector)
from robusteig import norms, solvers
from robusteig.graph_matrix import out_degrees
from robusteig.models import GridModelSpec, ModelVariant, model2_exact_scores
from robusteig.solvers import (STOP_GAP, STOP_MAX_ITER, STOP_PHI_INCREASE,
                               STOP_TOLERANCE, _entropic_step)

from conftest import (SEVEN_NODE_EDGES, SEVEN_NODE_XBAR, _g2_scan_loop,
                      _regularized_power_method_two_matvecs,
                      _restarted_cesaro_rounds,
                      random_stochastic_dense, web_graph)

L2L2 = UncertaintySpec(1.0, NormPair.L2_L2)

SWAP = SparseStochasticMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])

# 0 -> 1 -> 2 -> {0, 3..9} -> 1: a chain of period 3, whose power terms never settle
PERIOD_3_EDGES = ([(0, 1), (1, 2), (2, 0)] + [(2, j) for j in range(3, 10)]
                  + [(j, 1) for j in range(3, 10)])


def pagerank_linear_solve(P, alpha):
    """Independent oracle: solve (I - alpha P) x = (1 - alpha) e directly."""
    n = P.n
    return np.linalg.solve(np.eye(n) - alpha * P.to_dense(),
                           (1 - alpha) * uniform_vector(n))


class TestPagerank:
    def test_uniform_matrix_fixes_the_center(self):
        P = SparseStochasticMatrix.from_dense(np.full((3, 3), 1 / 3))
        report = pagerank(P, alpha=0.6, tol=1e-12)
        np.testing.assert_allclose(report.final, 1 / 3, atol=1e-12)
        assert report.stop_reason == STOP_TOLERANCE

    def test_seven_node_against_linear_solve(self, seven_node):
        report = pagerank(seven_node, alpha=0.85, tol=1e-12)
        expected = pagerank_linear_solve(seven_node, 0.85)
        np.testing.assert_allclose(report.final, expected, atol=1e-10)
        fp = 0.85 * seven_node.matvec(report.final) + 0.15 * uniform_vector(7)
        assert np.abs(fp - report.final).sum() <= 1e-10

    def test_swap_matrix_is_symmetric(self):
        report = pagerank(SWAP, alpha=0.5, tol=1e-14)
        np.testing.assert_allclose(report.final, [0.5, 0.5], atol=1e-12)

    def test_successive_iterates_contract_by_alpha(self, seven_node):
        alpha = 0.85
        e = uniform_vector(7)
        x = e.copy()
        prev_delta = None
        for _ in range(30):
            x_next = alpha * seven_node.matvec(x) + (1 - alpha) * e
            delta = np.abs(x_next - x).sum()
            if prev_delta is not None and prev_delta > 1e-14:
                assert delta <= alpha * prev_delta + 1e-14
            prev_delta = delta
            x = x_next

    @pytest.mark.parametrize("alpha,tol", [(0.85, 1e-10), (0.5, 1e-14), (0.99, 1e-8)])
    def test_in_place_step_matches_the_expression_bit_for_bit(self, alpha, tol):
        # the step as one expression, with new arrays each iteration, kept as
        # the reference for pagerank's in-place step
        P = web_graph(3000, 4)
        e = uniform_vector(P.n)
        x = e.copy()
        for k in range(1, 100_001):
            x_next = alpha * P.matvec(x) + (1.0 - alpha) * e
            delta = float(np.abs(x_next - x).sum())
            x = x_next
            if delta <= tol:
                break
        report = pagerank(P, alpha=alpha, tol=tol)
        assert report.iterations_used == k
        assert report.final.tobytes() == x.tobytes()

    def test_max_iter_reported(self, seven_node):
        report = pagerank(seven_node, alpha=0.85, tol=1e-12, max_iter=3)
        assert report.stop_reason == STOP_MAX_ITER
        assert report.iterations_used == 3

    def test_alpha_out_of_range_rejected(self, seven_node):
        with pytest.raises(ValueError):
            pagerank(seven_node, alpha=1.0)


class MatvecBudget:
    """A matrix that refuses matvecs beyond a fixed budget."""

    def __init__(self, inner, budget):
        self.inner, self.n, self.budget = inner, inner.n, budget

    def matvec(self, x):
        if self.budget == 0:
            raise RuntimeError("matvec budget exhausted")
        self.budget -= 1
        return self.inner.matvec(x)


def count_matvecs(solve, P, tol):
    """solve(P, tol) and the number of matvecs it made."""
    counter = MatvecBudget(P, 10**12)
    x = solve(counter, tol)
    return x, 10**12 - counter.budget


def two_clusters(gap):
    """Two complete clusters of 4 nodes; column j of each sends a quarter
    (first cluster) or three quarters (second) of the spectral gap over one
    weak link to node j of the other, so the stationary vector puts 3/4 of
    the mass on the first cluster."""
    m = 4
    dense = np.zeros((2 * m, 2 * m))
    dense[:m, :m] = (1 - gap / 4) / m
    dense[m:, m:] = (1 - 3 * gap / 4) / m
    dense[np.arange(m, 2 * m), np.arange(m)] = gap / 4
    dense[np.arange(m), np.arange(m, 2 * m)] = 3 * gap / 4
    return SparseStochasticMatrix.from_dense(dense)


class TestAveragedPower:
    def test_single_term_is_the_uniform_start(self, seven_node):
        np.testing.assert_array_equal(averaged_power(seven_node, 1), uniform_vector(7))

    def test_swap_matrix_average_is_exact(self):
        for K in (1, 2, 7, 100):
            x = averaged_power(SWAP, K)
            np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-15)
            assert residual(SWAP, x, "l1") <= 1e-15

    def test_seven_node_approaches_the_absorbing_cycle(self, seven_node):
        x = averaged_power(seven_node, 10_000)
        assert residual(seven_node, x, "l1") <= 2 / 10_000
        assert np.abs(x - SEVEN_NODE_XBAR).max() <= 1e-3

    def test_residual_law_on_random_matrices(self):
        for seed in range(5):
            P = SparseStochasticMatrix.from_dense(random_stochastic_dense(6, seed))
            for K in (1, 2, 3, 10, 57, 400):
                assert residual(P, averaged_power(P, K), "l1") <= 2 / K

    def test_matches_the_literal_loop(self, seven_node):
        # a long average, recomputed by explicit summation
        K = 5000
        current = uniform_vector(7)
        total = current.copy()
        for _ in range(K - 1):
            current = seven_node.matvec(current)
            total += current
        np.testing.assert_allclose(averaged_power(seven_node, K), total / K, atol=1e-13)

    def test_bad_term_count_rejected(self, seven_node):
        with pytest.raises(ValueError):
            averaged_power(seven_node, 0)


class TestDominantEigenvector:
    def test_seven_node(self, seven_node):
        x = dominant_eigenvector(seven_node, tol=1e-6)
        assert np.abs(x - SEVEN_NODE_XBAR).max() <= 1e-5
        assert residual(seven_node, x, "l1") <= 1e-6

    def test_identity_returns_uniform(self):
        P = SparseStochasticMatrix.from_dense(np.eye(4))
        np.testing.assert_allclose(dominant_eigenvector(P, 1e-4), 0.25, atol=1e-15)

    def test_model2_small_grid(self):
        P = generate(GridModelSpec(2, ModelVariant.MODEL2))
        x = dominant_eigenvector(P, tol=1e-6)
        np.testing.assert_allclose(x, [1 / 3, 1 / 6, 1 / 6, 1 / 3], atol=1e-6)

    def test_periodic_grid_meets_tol_and_the_exact_scores(self):
        # the Model 2 chain has period 2n-1, so plain power iteration never settles
        P = generate(GridModelSpec(20, ModelVariant.MODEL2))
        for tol in (1e-8, 1e-10):
            x = dominant_eigenvector(P, tol)
            assert residual(P, x, "l1") <= tol
            assert np.abs(x - model2_exact_scores(20)).sum() <= 1e-6

    def test_tight_tol_stops_long_before_the_2_over_tol_law(self):
        # ceil(2/tol) terms would be 2e10 matvecs; the restarted rounds meet
        # tol within a few thousand
        P = MatvecBudget(generate(GridModelSpec(30, ModelVariant.MODEL1)), 20_000)
        x = dominant_eigenvector(P, tol=1e-10)
        assert residual(P.inner, x, "l1") <= 1e-10

    def test_round_at_the_cap_is_certified_by_the_2_over_K_law(self):
        # a period-3 chain, so no power term meets tol; the first round of 64
        # terms leaves residual 0.0219 > tol, so the next round runs at the cap
        # ceil(2/tol) = 100 terms and returns unchecked
        chain = from_edge_list(edge_list(PERIOD_3_EDGES, 10))
        P = MatvecBudget(chain, 64 + 99)
        x = dominant_eigenvector(P, tol=0.02)
        assert P.budget == 0
        assert residual(chain, x, "l1") <= 0.02

    def test_first_checked_power_term_that_meets_tol(self, seven_node):
        # P^31 e, the sixth checked term, is within tol; the first round's
        # average, with residual 0.0223, is not
        P = MatvecBudget(seven_node, 32)
        x = dominant_eigenvector(P, tol=0.02)
        assert P.budget == 0
        assert residual(seven_node, x, "l1") <= 0.02
        term = uniform_vector(7)
        for _ in range(31):
            term = seven_node.matvec(term)
        np.testing.assert_array_equal(x, term)

    @pytest.mark.parametrize("tol, plain_count", [(1e-8, 1984), (1e-10, 4032)])
    def test_periodic_grid_gives_the_plain_rounds_bit_for_bit(self, tol, plain_count):
        P = generate(GridModelSpec(20, ModelVariant.MODEL2))
        want, count = count_matvecs(_restarted_cesaro_rounds, P, tol)
        assert count == plain_count
        budget = MatvecBudget(P, count)
        np.testing.assert_array_equal(dominant_eigenvector(budget, tol), want)
        assert budget.budget == 0

    @pytest.mark.parametrize("graph, tols", [
        ("seven-node", (0.5, 0.02, 1e-4, 1e-6, 1e-10)),
        ("model1", (1e-4, 1e-10)),
        ("period-3", (0.5, 0.02, 1e-6)),
    ])
    def test_never_more_matvecs_than_the_plain_rounds(self, seven_node, graph, tols):
        P = {"seven-node": seven_node,
             "model1": generate(GridModelSpec(30, ModelVariant.MODEL1)),
             "period-3": from_edge_list(edge_list(PERIOD_3_EDGES, 10))}[graph]
        for tol in tols:
            _, plain_count = count_matvecs(_restarted_cesaro_rounds, P, tol)
            x, count = count_matvecs(dominant_eigenvector, P, tol)
            assert count <= plain_count
            assert residual(P, x, "l1") <= tol

    @pytest.mark.parametrize("gap, plain_count",
                             [(1e-4, 131_008), (1e-5, 524_224), (1e-6, 64)])
    def test_weakly_linked_clusters_meet_tol_within_the_plain_rounds(self, gap, plain_count):
        # plain_count is what _restarted_cesaro_rounds makes at tol 1e-6, fixed
        # here because it takes seconds to recount; at gap 1e-6 the uniform
        # start's residual is already gap/2, within tol
        P = two_clusters(gap)
        budget = MatvecBudget(P, plain_count)
        x = dominant_eigenvector(budget, tol=1e-6)
        assert residual(P, x, "l1") <= 1e-6

    @pytest.mark.parametrize("tol", [2.0, 3.0, float("inf")])
    def test_tol_of_two_or_more_returns_the_uniform_vector(self, seven_node, tol):
        # every simplex vector has residual <= 2, so no matvec is needed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = dominant_eigenvector(MatvecBudget(seven_node, 0), tol)
        np.testing.assert_array_equal(x, uniform_vector(7))


class TestRegularizedPowerMethod:
    def test_seven_node_stops_at_the_fourth_update(self, seven_node):
        report = regularized_power_method(seven_node, L2L2)
        ks = [k for k, _ in report.phi_history]
        assert ks == [0, 1, 2, 3, 4]
        phis = [v for _, v in report.phi_history]
        assert phis[4] > phis[3]
        assert report.stop_reason == STOP_PHI_INCREASE
        assert report.iterations_used == 4
        # the returned iterate precedes the increase; rebuild it independently
        e = uniform_vector(7)
        x = e.copy()
        for k in range(1, 4):
            w = 1.0 / (k + 1)
            x = (1 - w) * seven_node.matvec(x) + w * e
        np.testing.assert_array_equal(report.final, x)

    def test_phi_decreases_until_the_stop(self, seven_node):
        report = regularized_power_method(seven_node, L2L2)
        phis = [v for _, v in report.phi_history]
        assert all(b < a for a, b in zip(phis[:-2], phis[1:-1]))

    def test_identity_matrix_never_stops_early(self):
        P = SparseStochasticMatrix.from_dense(np.eye(5))
        report = regularized_power_method(P, L2L2, max_iter=50)
        assert report.stop_reason == STOP_MAX_ITER
        phis = np.array([v for _, v in report.phi_history])
        np.testing.assert_allclose(phis, phis[0], atol=1e-14)

    def test_model2_converges_below_the_start(self):
        P = generate(GridModelSpec(20, ModelVariant.MODEL2))
        spec = UncertaintySpec(0.01, NormPair.L2_L2)
        report = regularized_power_method(P, spec)
        assert report.stop_reason == STOP_PHI_INCREASE
        assert report.objective.total <= phi_value(P, uniform_vector(P.n), spec)

    def test_iterates_stay_on_the_simplex(self, seven_node):
        report = regularized_power_method(seven_node, L2L2)
        assert report.final.min() >= 0
        assert abs(report.final.sum() - 1) <= 1e-9


def _seven_node_case(pair, budgets=None):
    P = from_edge_list(edge_list(SEVEN_NODE_EDGES, 7))
    return P, UncertaintySpec(1.0, pair, budgets), 200


def _web_case(pair):
    P = web_graph(300, 17)
    return P, UncertaintySpec(0.01, pair, 1.0 / out_degrees(P).astype(float)), 30


def _grid_case(pair):
    P = generate(GridModelSpec(20, ModelVariant.MODEL2))
    return P, UncertaintySpec(1.0, pair), 100_000


# (P, spec, max_iter) per norm pair, and the stop every pair reaches (None: mixed)
ALGORITHM1_CASES = {
    "seven-node": (_seven_node_case, None),
    "seven-node-uniform-0.3": (lambda pair: _seven_node_case(pair, 0.3), None),
    "web-inv-degree": (_web_case, STOP_MAX_ITER),
    "model2-grid-20": (_grid_case, STOP_PHI_INCREASE),
}


def _report_bits(report):
    return (report.final.tobytes(), report.phi_history, report.iterations_used,
            report.stop_reason, report.objective)


class TestAlgorithm1Work:
    """One matvec per iteration, with the iterates of the two-matvec loop."""

    @pytest.mark.parametrize("pair", list(NormPair))
    @pytest.mark.parametrize("case", ALGORITHM1_CASES)
    def test_one_matvec_per_iterate_and_the_same_bits(self, case, pair):
        build, stop = ALGORITHM1_CASES[case]
        P, spec, max_iter = build(pair)
        want = _regularized_power_method_two_matvecs(P, spec, max_iter=max_iter)
        calls = []

        def counted(x, method=P.matvec):
            calls.append(1)
            y = method(x)
            y.flags.writeable = False           # a write to P x anywhere raises
            return y

        P.matvec = counted
        report = regularized_power_method(P, spec, max_iter=max_iter)
        assert stop in (None, report.stop_reason)
        if report.stop_reason == STOP_PHI_INCREASE:
            assert len(calls) == report.iterations_used + 1
        else:
            assert len(calls) == max_iter + 1
        assert _report_bits(report) == _report_bits(want)

    @pytest.mark.parametrize("pair", list(NormPair))
    def test_mirror_descent_warm_start_keeps_its_bits(self, monkeypatch, pair):
        P, spec, _ = _grid_case(pair)
        config = SolverConfig(md_epochs=2, md_iters_per_epoch=20)
        report = mirror_descent_minimize(P, spec, config)
        monkeypatch.setattr(solvers, "regularized_power_method",
                            _regularized_power_method_two_matvecs)
        want = mirror_descent_minimize(P, spec, config)
        assert report.final.tobytes() == want.final.tobytes()
        assert report.phi_history == want.phi_history

    @pytest.mark.parametrize("pair", list(NormPair))
    def test_evaluate_reads_a_given_product_and_leaves_it(self, seven_node, pair):
        spec = UncertaintySpec(1.0, pair, 0.3)
        objective = norms.Objective(seven_node, spec)
        x = np.random.default_rng(21).dirichlet(np.ones(7))
        Px = seven_node.matvec(x)
        before = Px.tobytes()
        value, g = objective.evaluate(x, with_subgradient=True, Px=Px)
        assert Px.tobytes() == before
        want_value, want_g = objective.evaluate(x, with_subgradient=True)
        assert value == want_value
        assert g.tobytes() == want_g.tobytes()

    def test_evaluate_checks_the_shapes_of_a_given_product(self, seven_node):
        objective = norms.Objective(seven_node, L2L2)
        x = uniform_vector(7)
        with pytest.raises(InputError):
            objective.evaluate(x, Px=np.ones(6) / 6)
        with pytest.raises(InputError):
            objective.evaluate(np.ones(6) / 6, Px=x)


def _counted_seven_node():
    """The 7-node matrix, and the counts of its matvec and rmatvec calls."""
    P = from_edge_list(edge_list(SEVEN_NODE_EDGES, 7))
    counts = {"matvec": 0, "rmatvec": 0}
    for name in counts:
        def counted(v, name=name, method=getattr(P, name)):
            counts[name] += 1
            return method(v)
        setattr(P, name, counted)
    return P, counts


class TestMirrorDescent:
    def test_swap_matrix_center_is_optimal(self):
        report = mirror_descent_minimize(SWAP, L2L2)
        np.testing.assert_allclose(report.final, [0.5, 0.5], atol=1e-8)
        assert report.objective.total == pytest.approx(1 / np.sqrt(2), abs=1e-10)

    def test_beats_the_regularized_power_method(self, seven_node):
        md = mirror_descent_minimize(seven_node, L2L2)
        rp = regularized_power_method(seven_node, L2L2)
        start = phi_value(seven_node, uniform_vector(7), L2L2)
        assert md.objective.total <= rp.objective.total + 1e-9
        assert rp.objective.total <= start

    def test_tiny_budget_recovers_the_dominant_eigenvector(self):
        P = SparseStochasticMatrix.from_dense(random_stochastic_dense(3, seed=5, low=0.05))
        w, V = np.linalg.eig(P.to_dense())
        lead = np.abs(V[:, np.argmax(w.real)].real)
        lead /= lead.sum()
        report = mirror_descent_minimize(P, UncertaintySpec(1e-6, NormPair.L2_L2))
        assert np.abs(report.final - lead).max() <= 1e-4

    def test_huge_budget_pulls_toward_uniform(self):
        P = SparseStochasticMatrix.from_dense(random_stochastic_dense(5, seed=6, low=0.05))
        report = mirror_descent_minimize(P, UncertaintySpec(1e4, NormPair.L2_L2))
        assert np.abs(report.final - 0.2).max() <= 1e-3

    def test_two_starts_agree_on_the_strictly_convex_pair(self):
        P = SparseStochasticMatrix.from_dense(random_stochastic_dense(5, seed=7, low=0.05))
        spec = UncertaintySpec(1.0, NormPair.L2_L2)
        a = mirror_descent_minimize(P, spec)
        skewed = np.array([0.7, 0.1, 0.1, 0.05, 0.05])
        b = mirror_descent_minimize(P, spec, x0=skewed)
        assert np.abs(a.final - b.final).max() <= 1e-6

    @pytest.mark.parametrize("pair", list(NormPair))
    def test_one_matvec_and_one_rmatvec_per_step(self, pair):
        P, counts = _counted_seven_node()
        spec = UncertaintySpec(1.0, pair, column_budgets=0.5)
        config = SolverConfig(md_epochs=3, md_iters_per_epoch=20)
        report = mirror_descent_minimize(P, spec, config, x0=uniform_vector(7))
        assert report.iterations_used == 60
        setup = 4
        assert counts["matvec"] <= report.iterations_used + setup
        assert counts["rmatvec"] <= report.iterations_used + setup

    @pytest.mark.xfail(strict=True, reason="mirror descent stops above the l1g1 optimum "
                       "(phi 0.299039 against the LP's 20/69 = 0.289855); an exact LP "
                       "solve for l1g1 is ROADMAP item 2")
    def test_l1g1_reaches_the_lp_optimum_on_seven_node(self, seven_node):
        spec = UncertaintySpec(1.0, NormPair.L1_G1, 0.3)
        report = mirror_descent_minimize(seven_node, spec, SolverConfig(max_iter=200))
        assert report.objective.total <= 20 / 69 * (1 + 1e-6)

    def test_l2g2_trajectory_matches_the_loop_scan(self, monkeypatch):
        P = web_graph(300, 17)
        spec = UncertaintySpec(1.0, NormPair.L2_G2, 1.0 / out_degrees(P).astype(float))
        config = SolverConfig(md_epochs=2)
        report = mirror_descent_minimize(P, spec, config)
        monkeypatch.setattr(norms, "_g2_with_dual", lambda x, c, mass=None: _g2_scan_loop(x, c))
        want = mirror_descent_minimize(P, spec, config)
        assert report.iterations_used == want.iterations_used == 400
        assert report.final.tobytes() == want.final.tobytes()
        assert report.phi_history == want.phi_history

    @pytest.mark.parametrize("pair, eps", [(NormPair.L2_L2, 0.01), (NormPair.L1_G1, 0.3),
                                           (NormPair.L2_G2, 0.01)])
    def test_step_scale_keeps_the_trajectory(self, monkeypatch, pair, eps):
        # each step against one scaled by np.abs(g).max(), the epoch's gamma
        # taken from the count of steps so far; in each case some steps have
        # -min g > max g and others the reverse
        P = (from_edge_list(edge_list(SEVEN_NODE_EDGES, 7)) if pair is NormPair.L1_G1
             else web_graph(300, 19))
        spec = UncertaintySpec(eps, pair, 0.3)
        config = SolverConfig(md_epochs=3, md_iters_per_epoch=60)
        x0 = np.random.default_rng(20).dirichlet(np.ones(P.n))    # no warm start
        report = mirror_descent_minimize(P, spec, config, x0)
        steps = itertools.count()

        def abs_max_step(x, g, step):
            gamma = 1.0 / 2.0 ** (next(steps) // config.md_iters_per_epoch)
            return _entropic_step(x, g, gamma / float(np.abs(g).max()))

        monkeypatch.setattr(solvers, "_entropic_step", abs_max_step)
        want = mirror_descent_minimize(P, spec, config, x0)
        assert report.iterations_used == want.iterations_used == next(steps) == 180
        assert report.final.tobytes() == want.final.tobytes()
        assert report.phi_history == want.phi_history

    def test_entropic_step_matches_the_expression_bit_for_bit(self):
        rng = np.random.default_rng(18)
        n = 100_000
        x = rng.dirichlet(np.ones(n))
        g = rng.standard_normal(n) * 3.0
        for scale in (1e-3, 0.5, 2.0):           # steps as mirror descent scales them
            step = scale / float(np.abs(g).max())
            w = x * np.exp(-step * (g - g.max()))
            assert _entropic_step(x, g, step).tobytes() == (w / w.sum()).tobytes()

    def test_works_for_all_norm_pairs(self, seven_node):
        for pair in NormPair:
            spec = UncertaintySpec(1.0, pair)
            report = mirror_descent_minimize(
                seven_node, spec, SolverConfig(md_epochs=25, md_iters_per_epoch=100))
            assert report.objective.total <= phi_value(seven_node, uniform_vector(7), spec)
            assert report.final.min() >= 0
            assert abs(report.final.sum() - 1) <= 1e-9


def _criterion_8_matrices():
    rng = np.random.default_rng(1)
    for _ in range(3):
        A = rng.uniform(0.0, 1.0, (3, 3))
        yield SparseStochasticMatrix.from_dense(A / A.sum(axis=0))


class RecordingObjective(norms.Objective):
    """The objective of mirror descent, keeping phi of every point it evaluates."""

    values = []

    def evaluate(self, x, with_subgradient=False, **kwargs):
        value, g = super().evaluate(x, with_subgradient, **kwargs)
        self.values.append(value.total)
        return value, g


class TestGapCertificate:
    """lower_bound bounds min phi over the simplex from below; the gap stop."""

    def test_below_the_lp_optimum_on_seven_node_l1g1(self, seven_node):
        spec = UncertaintySpec(1.0, NormPair.L1_G1, 0.3)
        report = mirror_descent_minimize(seven_node, spec, SolverConfig(max_iter=200))
        assert report.lower_bound <= 20 / 69

    @pytest.mark.parametrize("pair", list(NormPair))
    def test_below_the_grid_oracle_on_criterion_8_matrices(self, pair):
        config = SolverConfig(md_epochs=4, md_iters_per_epoch=100)
        resolution = 1 / 100 if pair is NormPair.L2_G2 else 1 / 400
        for P in _criterion_8_matrices():
            for eps in (0.1, 1.0, 10.0):
                spec = UncertaintySpec(eps, pair)
                report = mirror_descent_minimize(P, spec, config, x0=uniform_vector(3))
                grid_best = phi_value(P, grid_oracle_minimize(P, spec, resolution), spec)
                assert report.lower_bound <= grid_best

    @pytest.mark.parametrize("pair", list(NormPair))
    @pytest.mark.parametrize("case", ["seven-node", "web-inv-degree", "model2-grid-20"])
    def test_below_phi_of_every_iterate(self, monkeypatch, case, pair):
        build, _ = ALGORITHM1_CASES[case]
        P, spec, max_iter = build(pair)
        monkeypatch.setattr(RecordingObjective, "values", [])
        monkeypatch.setattr(solvers, "Objective", RecordingObjective)
        config = SolverConfig(max_iter=max_iter, md_epochs=4, md_iters_per_epoch=100)
        report = mirror_descent_minimize(P, spec, config)
        # the warm start's values, the two starting points and one per step
        assert len(RecordingObjective.values) >= report.iterations_used + 2
        assert report.lower_bound <= min(RecordingObjective.values)
        assert all(report.lower_bound <= v for _, v in report.phi_history)

    @pytest.mark.parametrize("gap_tol", [1e-2, 1e-3, 1e-4])
    def test_a_gap_stop_meets_gap_tol(self, monkeypatch, seven_node, gap_tol):
        monkeypatch.setattr(solvers, "_GAP_TOL", gap_tol)
        grid = generate(GridModelSpec(20, ModelVariant.MODEL2))
        inv_degree = 1.0 / out_degrees(grid).astype(float)
        cases = [(seven_node, L2L2), (grid, L2L2),
                 (grid, UncertaintySpec(1.0, NormPair.L2_G2, inv_degree))]
        cases += [(P, UncertaintySpec(10.0, NormPair.L2_L2)) for P in _criterion_8_matrices()]
        for P, spec in cases:
            report = mirror_descent_minimize(P, spec)
            assert report.stop_reason == STOP_GAP
            total = report.objective.total
            assert total - report.lower_bound <= gap_tol * total

    def test_seven_node_l2l2_stops_at_857_steps(self, seven_node):
        report = mirror_descent_minimize(seven_node, L2L2)
        assert (report.stop_reason, report.iterations_used) == (STOP_GAP, 857)
        assert report.objective.total == pytest.approx(0.45185287886, abs=1e-11)

    def test_stopped_history_is_a_prefix_of_the_full_schedule(self, monkeypatch,
                                                               seven_node):
        stopped = mirror_descent_minimize(seven_node, L2L2)
        monkeypatch.setattr(solvers, "_GAP_TOL", 0.0)
        full = mirror_descent_minimize(seven_node, L2L2)
        assert stopped.stop_reason == STOP_GAP
        assert (full.stop_reason, full.iterations_used) == (STOP_MAX_ITER, 9000)
        assert full.phi_history[:len(stopped.phi_history)] == stopped.phi_history
        assert full.phi_history[len(stopped.phi_history)][0] > stopped.iterations_used
        assert full.objective.total <= stopped.objective.total
        assert full.lower_bound >= stopped.lower_bound

    def test_certified_start_takes_no_step(self, monkeypatch, seven_node):
        # a gap tolerance of 10 certifies any start whose bound is above -9 phi
        monkeypatch.setattr(solvers, "_GAP_TOL", 10.0)
        report = mirror_descent_minimize(seven_node, L2L2)
        assert (report.stop_reason, report.iterations_used) == (STOP_GAP, 0)
        assert report.phi_history == [(0, report.objective.total)]

    @pytest.mark.parametrize("pair", [NormPair.L2_L2, NormPair.L2_G2])   # l1g1 never stops
    def test_no_extra_matvec_or_rmatvec_while_the_stop_fires(self, monkeypatch, pair):
        P, counts = _counted_seven_node()
        spec = UncertaintySpec(1.0, pair, column_budgets=0.5)
        monkeypatch.setattr(solvers, "_GAP_TOL", 1e-2)
        report = mirror_descent_minimize(P, spec, x0=uniform_vector(7))
        assert report.stop_reason == STOP_GAP
        assert report.iterations_used > 0
        setup = 4
        assert counts["matvec"] <= report.iterations_used + setup
        assert counts["rmatvec"] <= report.iterations_used + setup

    def test_other_solvers_leave_it_unset(self, seven_node):
        assert pagerank(seven_node).lower_bound is None
        assert regularized_power_method(seven_node, L2L2).lower_bound is None


class TestGridOracle:
    def test_swap_matrix(self):
        x = grid_oracle_minimize(SWAP, L2L2, 1 / 1000)
        assert np.abs(x - 0.5).max() <= 1 / 1000

    def test_identity_three_nodes(self):
        P = SparseStochasticMatrix.from_dense(np.eye(3))
        x = grid_oracle_minimize(P, L2L2, 1 / 200)
        assert np.abs(x - 1 / 3).max() <= 1 / 200

    def test_huge_budget_lands_near_uniform(self):
        P = SparseStochasticMatrix.from_dense(random_stochastic_dense(3, seed=8))
        x = grid_oracle_minimize(P, UncertaintySpec(100.0, NormPair.L2_L2), 1 / 100)
        assert np.abs(x - 1 / 3).max() <= 1 / 100

    def test_matches_mirror_descent_on_non_euclidean_pairs(self):
        P = SparseStochasticMatrix.from_dense(random_stochastic_dense(3, seed=9))
        for pair in (NormPair.L1_G1, NormPair.L2_G2):
            spec = UncertaintySpec(0.5, pair)
            md = mirror_descent_minimize(P, spec)
            grid_best = phi_value(P, grid_oracle_minimize(P, spec, 1 / 400), spec)
            assert abs(md.objective.total - grid_best) <= 5e-3
            assert md.objective.total <= grid_best + 1e-9

    def test_large_matrices_rejected(self):
        P = SparseStochasticMatrix.from_dense(np.eye(5))
        with pytest.raises(ValueError):
            grid_oracle_minimize(P, L2L2, 1 / 10)


class TestSuggestEpsilon:
    def test_web_scale_heuristic(self):
        assert suggest_epsilon(10**6, 0.5, 20) == pytest.approx(35.36, abs=5e-3)

    def test_unit_case(self):
        assert suggest_epsilon(1, 1.0, 1.0) == 1.0

    def test_medium_grid(self):
        assert suggest_epsilon(40_000, 0.5, 20) == pytest.approx(7.07, abs=5e-3)

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            suggest_epsilon(0, 0.5, 20)
        with pytest.raises(ValueError):
            suggest_epsilon(10, 1.5, 20)
        with pytest.raises(ValueError):
            suggest_epsilon(10, 0.5, 0.0)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=1.5)
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)

    def test_accepts_the_benchmark_keywords(self):
        config = SolverConfig(alpha=0.85, tol=1e-10, max_iter=500, md_epochs=3,
                              md_iters_per_epoch=7)
        assert (config.max_iter, config.md_epochs, config.md_iters_per_epoch) == (500, 3, 7)

    @pytest.mark.parametrize("knob", [{"gamma0": 1.0}, {"step_policy": "geometric"}])
    def test_removed_step_knobs_are_rejected(self, knob):
        with pytest.raises(TypeError):
            SolverConfig(**knob)


def test_all_solver_outputs_are_score_vectors(seven_node):
    outputs = [
        pagerank(seven_node, 0.85, 1e-10).final,
        averaged_power(seven_node, 137),
        dominant_eigenvector(seven_node, 1e-4),
        regularized_power_method(seven_node, L2L2).final,
        mirror_descent_minimize(seven_node, L2L2,
                                SolverConfig(md_epochs=10, md_iters_per_epoch=50)).final,
    ]
    for x in outputs:
        assert x.min() >= 0
        assert abs(x.sum() - 1.0) <= 1e-9
