import itertools
import math
import tracemalloc
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
from robusteig.solvers import (STOP_GAP, STOP_LP, STOP_MAX_ITER, STOP_NOMINAL,
                               STOP_PHI_INCREASE, STOP_TOLERANCE, _entropic_step)

from conftest import (PERIOD_3_EDGES, SEVEN_NODE_EDGES, SEVEN_NODE_XBAR, _g2_scan_loop,
                      _poisson_gmres_loop, _regularized_power_method_two_matvecs,
                      _restarted_cesaro_rounds,
                      random_stochastic_dense, web_graph)

L2L2 = UncertaintySpec(1.0, NormPair.L2_L2)

SWAP = SparseStochasticMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])


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

    @pytest.mark.parametrize("max_iter", [1, 3, 100_000])
    def test_one_matvec_per_iteration_and_one_more(self, max_iter):
        # the start's product serves its objective and the first step, and
        # the last iterate's product its objective
        P = web_graph(3000, 4)
        counter = MatvecBudget(P, 10**12)
        report = pagerank(counter, alpha=0.85, tol=1e-10, max_iter=max_iter)
        assert 10**12 - counter.budget == report.iterations_used + 1
        want = pagerank(P, alpha=0.85, tol=1e-10, max_iter=max_iter)
        assert report.final.tobytes() == want.final.tobytes()
        objective = norms.Objective(P, L2L2)
        e = uniform_vector(P.n)
        assert report.phi_history == [
            (0, objective.evaluate(e)[0].total),
            (report.iterations_used, objective.evaluate(report.final)[0].total)]

    def test_max_iter_reported(self, seven_node):
        report = pagerank(seven_node, alpha=0.85, tol=1e-12, max_iter=3)
        assert report.stop_reason == STOP_MAX_ITER
        assert report.iterations_used == 3

    def test_alpha_out_of_range_rejected(self, seven_node):
        with pytest.raises(ValueError):
            pagerank(seven_node, alpha=1.0)


class MatvecBudget:
    """A matrix that refuses matvecs beyond a fixed budget.

    It reads every other attribute off the inner matrix, among them the link
    arrays and the kept period that graph_matrix.cyclic_period reads, so
    that a budgeted solve takes the period as the plain matrix would.
    """

    def __init__(self, inner, budget):
        self.inner, self.n, self.budget = inner, inner.n, budget

    def __getattr__(self, name):
        return getattr(self.inner, name)

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

    @pytest.mark.parametrize("side, budget", [(10, 200), (20, 250), (60, 320)])
    def test_periodic_grid_meets_tol_within_whole_period_rounds(self, side, budget):
        # Model 2 of side s has period 2s - 1.  Rounds of a whole number of
        # periods cancel its other unit-circle eigenvalues exactly; plain
        # doubling rounds, which shrink them only like 1/K, take 1984 (1e-8)
        # and 4032 (1e-10) matvecs on side 20
        P = generate(GridModelSpec(side, ModelVariant.MODEL2))
        for tol in (1e-8, 1e-10):
            x = dominant_eigenvector(MatvecBudget(P, budget), tol)
            assert residual(P, x, "l1") <= tol
            assert np.abs(x - model2_exact_scores(side)).sum() <= 1e-9

    @pytest.mark.parametrize("graph, tol, plain_count", [
        ("seven-node", 1e-4, 128), ("seven-node", 1e-10, 448),
        ("model1", 1e-10, 704), ("web-14", 1e-3, 960),
    ])
    def test_period_dividing_64_keeps_the_doubling_rounds_bit_for_bit(
            self, seven_node, monkeypatch, graph, tol, plain_count):
        # periods 2 (the seven-node graph's cycle {5, 6}) and 1 divide every
        # round length, so the rounds are those of plain doubling, the solve
        # with the period taken as 1; plain_count is their matvec count
        P = {"seven-node": seven_node,
             "model1": generate(GridModelSpec(30, ModelVariant.MODEL1)),
             "web-14": web_graph(2000, 14)}[graph]
        got, count = count_matvecs(dominant_eigenvector, P, tol)
        monkeypatch.setattr(solvers, "cyclic_period", lambda P: 1)
        want, want_count = count_matvecs(dominant_eigenvector, P, tol)
        assert count == want_count == plain_count
        assert got.tobytes() == want.tobytes()

    def test_first_round_that_meets_tol_runs_no_period_pass(self, monkeypatch):
        def refuse(P):
            raise AssertionError("the period pass ran")

        monkeypatch.setattr(solvers, "cyclic_period", refuse)
        P = web_graph(2000, 1)
        x = dominant_eigenvector(P, 1e-3)
        assert residual(P, x, "l1") <= 1e-3

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

    @pytest.mark.parametrize("tol", [2.0, 3.0])
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
    return _counted(from_edge_list(edge_list(SEVEN_NODE_EDGES, 7)))


def _counted(P):
    """P, and the counts of its matvec and rmatvec calls."""
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
    def test_one_matvec_and_one_rmatvec_per_step(self, monkeypatch, pair):
        # l1g1, kept from its LP, runs its schedule of 3 x 20 steps; the l2
        # pairs stop on the gap within that budget.  Setup: x0 and the uniform point
        monkeypatch.setattr(solvers, "_LP_MAX_N", 0)
        P, counts = _counted_seven_node()
        spec = UncertaintySpec(1.0, pair, column_budgets=0.5)
        config = SolverConfig(md_epochs=3, md_iters_per_epoch=20)
        report = mirror_descent_minimize(P, spec, config, x0=uniform_vector(7))
        if pair is NormPair.L1_G1:
            assert report.iterations_used == 60
        else:
            assert report.stop_reason == STOP_GAP and report.iterations_used < 60
        assert counts["matvec"] == counts["rmatvec"] == report.iterations_used + 2

    def test_l1g1_reaches_the_lp_optimum_on_seven_node(self, seven_node):
        # this P is reducible and its eps 1 lies above its eps_c of 0.533, so
        # the nominal pre-check declines and the LP solves it (the halving
        # schedule stopped at 0.299039)
        spec = UncertaintySpec(1.0, NormPair.L1_G1, 0.3)
        report = mirror_descent_minimize(seven_node, spec, SolverConfig(max_iter=200))
        assert report.stop_reason == STOP_LP
        assert report.objective.total <= 20 / 69 * (1 + 1e-6)

    def test_l2g2_trajectory_matches_the_loop_scan(self, monkeypatch):
        P = web_graph(300, 17)
        spec = UncertaintySpec(1.0, NormPair.L2_G2, 1.0 / out_degrees(P).astype(float))
        config = SolverConfig(md_epochs=2)
        monkeypatch.setattr(solvers, "_GAP_TOL", 0.0)         # the whole budget
        report = mirror_descent_minimize(P, spec, config)
        monkeypatch.setattr(norms, "_g2_with_dual",
                            lambda x, c, mass=None, dual=True, probe=None: _g2_scan_loop(x, c))
        want = mirror_descent_minimize(P, spec, config)
        assert report.iterations_used == want.iterations_used == 400
        assert report.final.tobytes() == want.final.tobytes()
        assert report.phi_history == want.phi_history

    @pytest.mark.parametrize("eps", [0.01, 0.3, 1.0])
    def test_step_scale_keeps_the_trajectory(self, monkeypatch, eps):
        # l1g1's schedule: each step against one scaled by np.abs(g).max(),
        # the epoch's gamma taken from the count of steps so far; in each case
        # some steps have -min g > max g and others the reverse
        monkeypatch.setattr(solvers, "_LP_MAX_N", 0)
        P = from_edge_list(edge_list(SEVEN_NODE_EDGES, 7))
        spec = UncertaintySpec(eps, NormPair.L1_G1, 0.3)
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


def _web_inv_degree(seed, pair, eps=1.0):
    """web_graph(2000, seed), counted, and the pair under inv-degree budgets."""
    P, counts = _counted(web_graph(2000, seed))
    return P, counts, UncertaintySpec(eps, pair, 1.0 / out_degrees(P).astype(float))


L2_PAIRS = [NormPair.L2_L2, NormPair.L2_G2]


class TestBarzilaiBorwein:
    """The l2 pairs' steps: Barzilai-Borwein quotients and a line search."""

    @pytest.mark.parametrize("pair, eps, seed", [(NormPair.L2_L2, 1.0, 2),
                                                 (NormPair.L2_G2, 1.0, 1),
                                                 (NormPair.L2_G2, 10.0, 1)])
    def test_stops_on_the_gap_within_a_few_hundred_evaluations(self, pair, eps, seed):
        # the halving schedule ran all 9000 steps at eps 1 on these graphs;
        # at eps 10, uncapped steps made entries near 0 oscillate and so did
        P, counts, spec = _web_inv_degree(seed, pair, eps)
        report = mirror_descent_minimize(P, spec, x0=uniform_vector(P.n))
        assert report.stop_reason == STOP_GAP
        assert report.iterations_used <= 500
        total = report.objective.total
        assert total - report.lower_bound <= 1e-3 * total
        assert counts["matvec"] == counts["rmatvec"] == report.iterations_used + 2

    @pytest.mark.parametrize("pair", L2_PAIRS)
    def test_a_budget_of_five_holds_while_the_line_search_backtracks(self, monkeypatch,
                                                                     pair):
        # a sufficient decrease no trial meets: every trial is rejected and
        # halves the step, and each counts against the budget
        P, counts, spec = _web_inv_degree(4, pair)
        monkeypatch.setattr(solvers, "_SUFFICIENT_DECREASE", 1e12)
        steps = []

        def recorded(x, g, step):
            steps.append(step)
            return _entropic_step(x, g, step)

        monkeypatch.setattr(solvers, "_entropic_step", recorded)
        config = SolverConfig(md_epochs=1, md_iters_per_epoch=5)
        report = mirror_descent_minimize(P, spec, config, x0=uniform_vector(P.n))
        assert (report.stop_reason, report.iterations_used) == (STOP_MAX_ITER, 5)
        assert counts["matvec"] == counts["rmatvec"] == 7
        assert steps == [steps[0] / 2.0 ** k for k in range(5)]

    @pytest.mark.parametrize("pair", L2_PAIRS)
    def test_never_above_x0_or_the_uniform_point(self, pair):
        P, _, spec = _web_inv_degree(5, pair)
        e = uniform_vector(P.n)
        for x0 in (np.random.default_rng(23).dirichlet(np.ones(P.n)), e):
            for budget in (1, 5, 50):
                config = SolverConfig(md_epochs=1, md_iters_per_epoch=budget)
                report = mirror_descent_minimize(P, spec, config, x0=x0)
                assert report.iterations_used <= budget
                assert report.objective.total <= phi_value(P, x0, spec)
                assert report.objective.total <= phi_value(P, e, spec)

    def test_steps_are_capped_where_the_quotient_is_larger(self, monkeypatch):
        # on this solve the quotient passes the cap, and no step's exponents
        # step (max g - g_j) pass it
        P, _, spec = _web_inv_degree(1, NormPair.L2_G2, 10.0)
        spans = []

        def recorded(x, g, step):
            spans.append(step * float(g.max() - g.min()))
            return _entropic_step(x, g, step)

        monkeypatch.setattr(solvers, "_entropic_step", recorded)
        mirror_descent_minimize(P, spec, x0=uniform_vector(P.n))
        assert max(spans) <= solvers._MAX_EXPONENT * (1 + 1e-12)
        assert sum(span >= solvers._MAX_EXPONENT * (1 - 1e-12) for span in spans) >= 5

    @pytest.mark.parametrize("step", [1.0, 1e10, 1e300])
    def test_a_capped_step_keeps_the_simplex_and_its_zeros(self, step):
        rng = np.random.default_rng(24)
        x = rng.dirichlet(np.ones(1000))
        x[::3] = 0.0
        x /= x.sum()
        g = rng.standard_normal(1000) * 50.0
        capped = min(step, solvers._MAX_EXPONENT / float(g.max() - g.min()))
        y = _entropic_step(x, g, capped)
        assert np.isfinite(y).all() and y.min() >= 0.0
        assert abs(y.sum() - 1.0) <= 1e-12
        assert (y[::3] == 0.0).all()
        if step == 1e300:                        # what the cap prevents: exp overflows
            with np.errstate(over="ignore", invalid="ignore"):
                assert not np.isfinite(_entropic_step(x, g, step)).all()

    @pytest.mark.parametrize("pair", L2_PAIRS)
    def test_a_start_with_zero_entries(self, pair):
        # near the optimum, with a third of the entries set to 0: better than
        # the uniform point, so the descent starts there; zeros stay zeros
        P, _, spec = _web_inv_degree(6, pair)
        x0 = mirror_descent_minimize(P, spec, x0=uniform_vector(P.n)).final.copy()
        x0[np.argsort(x0)[:P.n // 3]] = 0.0
        x0 /= x0.sum()
        assert phi_value(P, x0, spec) < phi_value(P, uniform_vector(P.n), spec)
        config = SolverConfig(md_epochs=1, md_iters_per_epoch=300)
        report = mirror_descent_minimize(P, spec, config, x0=x0)
        assert report.phi_history[0] == (0, phi_value(P, x0, spec))
        assert np.isfinite(report.final).all() and np.isfinite(report.lower_bound)
        assert (report.final[x0 == 0.0] == 0.0).all()
        assert report.lower_bound <= report.objective.total <= phi_value(P, x0, spec)


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
        monkeypatch.setattr(solvers, "_LP_MAX_N", 0)             # the descent's iterates
        monkeypatch.setattr(RecordingObjective, "values", [])
        monkeypatch.setattr(solvers, "Objective", RecordingObjective)
        config = SolverConfig(max_iter=max_iter, md_epochs=4, md_iters_per_epoch=100)
        report = mirror_descent_minimize(P, spec, config)
        if report.stop_reason == STOP_NOMINAL:
            # l1g1 on an irreducible P below eps_c: the nominal vector's one value
            assert len(RecordingObjective.values) == 1
        else:
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

    def test_seven_node_l2l2_stops_at_31_evaluations(self, seven_node):
        report = mirror_descent_minimize(seven_node, L2L2)
        assert (report.stop_reason, report.iterations_used) == (STOP_GAP, 31)
        assert report.objective.total == pytest.approx(0.45185290076, abs=1e-11)

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

    @pytest.mark.parametrize("pair", [NormPair.L2_L2, NormPair.L1_G1])
    def test_a_constant_subgradient_certifies_the_start(self, monkeypatch, pair):
        # every x is a fixed point of the identity, and at the uniform point
        # the subgradient, eps x / ||x||_2 or eps c, is constant: min g =
        # g . x = phi(x), so the gap stop fires before any step
        monkeypatch.setattr(solvers, "_nominal_certificate", lambda *args: None)
        monkeypatch.setattr(solvers, "_LP_MAX_N", 0)
        P = SparseStochasticMatrix.from_dense(np.eye(4))
        report = mirror_descent_minimize(P, UncertaintySpec(1.0, pair), x0=uniform_vector(4))
        assert (report.stop_reason, report.iterations_used) == (STOP_GAP, 0)

    def test_other_solvers_leave_it_unset(self, seven_node):
        assert pagerank(seven_node).lower_bound is None
        assert regularized_power_method(seven_node, L2L2).lower_bound is None


def _grid(variant, side):
    return generate(GridModelSpec(side, ModelVariant.from_string(variant)))


def _grid_weights(P, budgets):
    """c_j of inv-degree budgets, or a uniform c_j."""
    if budgets == "inv-degree":
        return 1.0 / out_degrees(P).astype(float)
    return np.full(P.n, budgets)


def _eps_c(P, c, tol=1e-10):
    """2 / (max v - min v) for the exact solution v of (P - I)^T v = g1(x) - z
    at x = dominant_eigenvector(P, tol), with weights c and g1's dual z there:
    the largest eps, with eps_j = eps c_j, at which u = eps v fits in the
    unit l_inf ball once centred."""
    x = dominant_eigenvector(P, tol)
    pen, z = norms._g1_with_dual(x, c)
    v = np.linalg.lstsq(P.to_dense().T - np.eye(P.n), pen - z, rcond=None)[0]
    spread = v.max() - v.min()
    return 2.0 / spread if spread else math.inf


# the small grids of the eps_c measurements: (variant, side, budgets)
SMALL_GRIDS = [("model1", 8, "inv-degree"), ("model1", 8, 0.3),
               ("model2", 6, "inv-degree"), ("model2", 6, 0.3)]


class TestNominalCertificate:
    """l1g1 on an irreducible P below eps_c: the dominant eigenvector, certified."""

    def test_the_periodic_grid_gets_the_stationary_vector(self):
        # the Model 2 grid of side 20 under inv-degree budgets, where the
        # halving schedule stopped 19.6% above the LP optimum 1/39
        P = _grid("model2", 20)
        spec = UncertaintySpec(1.0, NormPair.L1_G1, _grid_weights(P, "inv-degree"))
        report = mirror_descent_minimize(P, spec)
        total = report.objective.total
        assert report.stop_reason == STOP_NOMINAL
        assert abs(total - 1 / 39) <= 1e-6 / 39
        assert report.lower_bound <= 1 / 39 <= total
        assert total - report.lower_bound <= solvers._GAP_TOL * total
        assert report.phi_history == [(0, total)]
        assert np.abs(report.final - model2_exact_scores(20)).sum() <= 1e-6

    @pytest.mark.parametrize("variant, side, budgets", SMALL_GRIDS)
    def test_certifies_below_eps_c_and_declines_above(self, monkeypatch, variant, side,
                                                      budgets):
        # weights c fixed as eps moves, so that eps_c is one number.  A
        # certificate costs the Poisson solve's products and one rmatvec for
        # D; a decline costs what the certificate alone costs and goes on to
        # the descent, not to the LP
        monkeypatch.setattr(solvers, "_LP_MAX_N", 0)
        c = _grid_weights(_grid(variant, side), budgets)
        eps_c = _eps_c(_grid(variant, side), c)
        config = SolverConfig(md_epochs=1, md_iters_per_epoch=5)
        for factor, certified in ((0.5, True), (0.9, True), (0.99, True),
                                  (1.01, False), (1.1, False), (2.0, False)):
            eps = factor * eps_c
            spec = UncertaintySpec(eps, NormPair.L1_G1, eps * c)
            P, counts = _counted(_grid(variant, side))
            report = mirror_descent_minimize(P, spec, config, x0=uniform_vector(P.n))
            if not certified:
                alone, alone_counts = _counted(_grid(variant, side))
                objective = norms.Objective(alone, spec)
                assert solvers._nominal_certificate(alone, objective, config.tol) is None
                assert report.stop_reason != STOP_NOMINAL
                assert counts["rmatvec"] == alone_counts["rmatvec"] + report.iterations_used + 2
                continue
            assert report.stop_reason == STOP_NOMINAL
            assert counts["rmatvec"] == report.iterations_used + 1
            assert report.final.tobytes() == dominant_eigenvector(P, config.tol).tobytes()
            total = report.objective.total
            assert total == phi_value(P, report.final, spec)
            assert report.lower_bound <= total
            assert total - report.lower_bound <= solvers._GAP_TOL * total

    def test_a_linear_penalty_is_certified_at_every_eps(self):
        # the default eps/n budgets make g1 sum_j x_j / n: z = c and rhs = 0
        # up to rounding, so eps_c is infinite
        for eps in (0.01, 1.0, 100.0):
            spec = UncertaintySpec(eps, NormPair.L1_G1)
            report = mirror_descent_minimize(_grid("model2", 6), spec)
            assert report.stop_reason == STOP_NOMINAL
            assert report.objective.total - report.lower_bound <= \
                solvers._GAP_TOL * report.objective.total

    def test_a_reducible_matrix_declines_with_no_extra_work(self, monkeypatch):
        # the 7-node graph drains into the 2-cycle {5, 6}; the descent, not the LP
        monkeypatch.setattr(solvers, "_LP_MAX_N", 0)
        spec = UncertaintySpec(1.0, NormPair.L1_G1, 0.3)
        config = SolverConfig(max_iter=200, md_epochs=3, md_iters_per_epoch=20)
        P, counts = _counted_seven_node()
        report = mirror_descent_minimize(P, spec, config)
        monkeypatch.setattr(solvers, "_nominal_certificate", lambda *args: None)
        P, want_counts = _counted_seven_node()
        want = mirror_descent_minimize(P, spec, config)
        assert report.stop_reason == STOP_MAX_ITER
        assert counts == want_counts
        assert _report_bits(report) == _report_bits(want)
        assert report.lower_bound == want.lower_bound

    @pytest.mark.parametrize("pair", [NormPair.L2_L2, NormPair.L2_G2])
    def test_the_l2_pairs_never_take_it(self, monkeypatch, pair):
        def refuse(*args):
            raise AssertionError("the nominal pre-check ran on an l2 pair")

        monkeypatch.setattr(solvers, "_nominal_certificate", refuse)
        monkeypatch.setattr(solvers, "is_irreducible", refuse)
        # at eps 0.1, below the l2 pairs' eps_c on this grid
        config = SolverConfig(md_epochs=1, md_iters_per_epoch=20)
        report = mirror_descent_minimize(_grid("model2", 6), UncertaintySpec(0.1, pair, 0.03),
                                         config)
        assert report.stop_reason in (STOP_GAP, STOP_MAX_ITER)

    def test_a_coarse_nominal_vector_declines_before_the_poisson_solve(self, monkeypatch):
        # at tol 1e-2 the nominal vector's residual alone passes 1e-3 phi
        def refuse(*args):
            raise AssertionError("the Poisson equation was solved")

        monkeypatch.setattr(solvers, "_poisson_gmres", refuse)
        P = _grid("model2", 6)
        spec = UncertaintySpec(1.0, NormPair.L1_G1, _grid_weights(P, "inv-degree"))
        assert solvers._nominal_certificate(P, norms.Objective(P, spec), 1e-2) is None
        assert mirror_descent_minimize(P, spec, SolverConfig(tol=1e-2)).stop_reason == STOP_LP

    def test_a_series_past_its_budget_declines(self, monkeypatch):
        # the Poisson solve on this grid needs 38 products
        monkeypatch.setattr(solvers, "_POISSON_TERMS", 10)
        monkeypatch.setattr(solvers, "_LP_MAX_N", 0)               # the descent follows
        P, counts = _counted(_grid("model2", 20))
        spec = UncertaintySpec(1.0, NormPair.L1_G1, _grid_weights(P, "inv-degree"))
        config = SolverConfig(md_epochs=1, md_iters_per_epoch=5)
        report = mirror_descent_minimize(P, spec, config, x0=uniform_vector(P.n))
        assert (report.stop_reason, report.iterations_used) == (STOP_MAX_ITER, 5)
        assert counts["rmatvec"] == 10 + 5 + 2

    def test_the_periodic_grid_of_side_60_needs_no_lp(self, monkeypatch):
        # a lazy series ran past 10 000 terms here and HiGHS took 1-2 s
        P = _grid("model2", 60)
        spec = UncertaintySpec(1.0, NormPair.L1_G1, _grid_weights(P, "inv-degree"))
        results = _recorded_linprog(monkeypatch)
        report = mirror_descent_minimize(P, spec)
        total = report.objective.total
        assert results == []
        assert report.stop_reason == STOP_NOMINAL
        assert report.lower_bound <= total
        assert total - report.lower_bound <= solvers._GAP_TOL * total

    @pytest.mark.parametrize("edges, n, weight", [
        ([(0, 1), (1, 0)], 2, 0.8),                                    # 2-cycle
        ([(0, 1), (1, 2), (2, 0)], 3, 0.5),                            # 3-cycle
        ([(i, j) for i in range(3) for j in range(3) if i != j], 3, 0.5),  # K3
        ([(0, 0), (0, 1), (1, 0), (1, 1)], 2, 0.8),                    # self-loops
        ([(0, 0)], 1, 0.8),
    ], ids=["2-cycle", "3-cycle", "K3", "self-loops", "one-node"])
    def test_an_invariant_krylov_space_ends_the_solve(self, edges, n, weight):
        # the solve meets an exact zero direction within n products; it
        # neither divides by it nor warns, and certifies exactly below eps_c
        P = from_edge_list(edge_list(edges, n))
        c = np.full(n, weight)
        eps_c = _eps_c(P, c)
        for eps in (0.01, 1.0, 10.0):
            spec = UncertaintySpec(eps, NormPair.L1_G1, eps * c)
            counted, counts = _counted(from_edge_list(edge_list(edges, n)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = mirror_descent_minimize(counted, spec)
            assert (report.stop_reason == STOP_NOMINAL) == (eps < eps_c)
            if report.stop_reason == STOP_NOMINAL:
                assert report.iterations_used <= n
                assert counts["rmatvec"] == report.iterations_used + 1
                assert report.objective.total - report.lower_bound <= \
                    solvers._GAP_TOL * report.objective.total


class TestPoissonGmres:
    """The Krylov solve of the certificate's Poisson equation."""

    @pytest.mark.parametrize("variant, side", [("model1", 8), ("model1", 20),
                                               ("model2", 6), ("model2", 20)])
    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
    def test_the_true_residual_meets_tol(self, variant, side, tol):
        # the stop reads the residual off the Givens rotations, not off a product
        P = _grid(variant, side)
        x = dominant_eigenvector(P, 1e-12)
        pen, z = norms._g1_with_dual(x, _grid_weights(P, "inv-degree"))
        rhs = pen - z
        v, products = solvers._poisson_gmres(P, rhs, tol)
        assert 0 < products <= solvers._POISSON_TERMS
        assert np.abs(P.rmatvec(v) - v - rhs).max() <= tol * (1 + 1e-6)

    def test_an_exact_zero_direction_ends_the_solve(self):
        # on the 4-cycle, (P^T - I) q = -2 q exactly for q = (1, -1, 1, -1) / 2
        P = from_edge_list(edge_list([(0, 1), (1, 2), (2, 3), (3, 0)], 4))
        rhs = np.array([0.25, -0.25, 0.25, -0.25])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, products = solvers._poisson_gmres(P, rhs, 0.0)
        assert products == 1
        assert np.abs(P.rmatvec(v) - v - rhs).max() == 0.0

    def test_a_right_hand_side_off_the_range_is_declined(self):
        # (P^T - I) 1 = 0: no step can reduce the residual of rhs = 1
        P = from_edge_list(edge_list([(0, 1), (1, 0)], 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solvers._poisson_gmres(P, np.ones(2), 1e-3) is None

    @pytest.mark.parametrize("variant, side", [("model1", 8), ("model1", 20),
                                               ("model2", 6), ("model2", 20)])
    @pytest.mark.parametrize("restart", ["default", "every 3 products"])
    def test_matches_the_loop_with_temporaries_bit_for_bit(self, monkeypatch, variant,
                                                            side, restart):
        # one scratch vector for every scaled vector, and the max of r and
        # -r for ||r||_inf, against a new array for each
        P = _grid(variant, side)
        if restart != "default":
            monkeypatch.setattr(solvers, "_KRYLOV_ENTRIES", 3 * P.n)
        x = dominant_eigenvector(P, 1e-12)
        pen, z = norms._g1_with_dual(x, _grid_weights(P, "inv-degree"))
        for tol in (1e-3, 1e-9):
            v, products = solvers._poisson_gmres(P, pen - z, tol)
            want_v, want_products = _poisson_gmres_loop(P, pen - z, tol)
            assert products == want_products
            assert v.tobytes() == want_v.tobytes()

    def test_declines_where_the_loop_declines(self, monkeypatch):
        cycle = from_edge_list(edge_list([(0, 1), (1, 2), (2, 3), (3, 0)], 4))
        alternating = np.array([0.25, -0.25, 0.25, -0.25])
        pair = from_edge_list(edge_list([(0, 1), (1, 0)], 2))
        for P, rhs, tol in ((cycle, alternating, 0.0), (pair, np.ones(2), 1e-3)):
            got = solvers._poisson_gmres(P, rhs, tol)
            want = _poisson_gmres_loop(P, rhs, tol)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
        monkeypatch.setattr(solvers, "_POISSON_TERMS", 10)      # past its budget
        P = _grid("model2", 20)
        x = dominant_eigenvector(P, 1e-12)
        pen, z = norms._g1_with_dual(x, _grid_weights(P, "inv-degree"))
        assert solvers._poisson_gmres(P, pen - z, 1e-9) is None
        assert _poisson_gmres_loop(P, pen - z, 1e-9) is None

    def test_the_basis_is_bounded(self, monkeypatch):
        # restarts every 4 products hold about 4 n-vectors, not the 40 that
        # the side-20 grid would otherwise keep
        P = _grid("model1", 20)
        x = dominant_eigenvector(P, 1e-12)
        pen, z = norms._g1_with_dual(x, _grid_weights(P, "inv-degree"))
        peaks = {}
        for entries in (4 * P.n, solvers._KRYLOV_ENTRIES):
            monkeypatch.setattr(solvers, "_KRYLOV_ENTRIES", entries)
            tracemalloc.start()
            try:
                solved = solvers._poisson_gmres(P, pen - z, 1e-6)
                peaks[entries] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert solved is not None
        assert peaks[4 * P.n] <= (4 + 8) * 8 * P.n
        assert peaks[solvers._KRYLOV_ENTRIES] > 30 * 8 * P.n


def _recorded_linprog(monkeypatch, returned=None):
    """The results of scipy's linprog as the LP route calls it, or, with
    returned, what it returns instead: returned(res) of each real result."""
    from scipy import optimize
    results = []
    real = optimize.linprog

    def recorded(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return returned(results[-1]) if returned else results[-1]

    monkeypatch.setattr(optimize, "linprog", recorded)
    return results


def _web_above_eps_c():
    """web_graph(300, 5) at eps 10 under inv-degree budgets, where the
    nominal certificate declines."""
    P = web_graph(300, 5)
    return P, UncertaintySpec(10.0, NormPair.L1_G1, 1.0 / out_degrees(P).astype(float))


class TestL1g1LP:
    """l1g1 where the nominal certificate declines: an exact LP, certified."""

    def test_seven_node_reaches_20_over_69(self, seven_node):
        spec = UncertaintySpec(1.0, NormPair.L1_G1, 0.3)
        report = mirror_descent_minimize(seven_node, spec, SolverConfig(max_iter=200))
        total = report.objective.total
        assert report.stop_reason == STOP_LP
        assert abs(total - 20 / 69) <= 1e-9
        assert total == phi_value(seven_node, report.final, spec)
        assert report.lower_bound <= total
        assert total - report.lower_bound <= solvers._GAP_TOL * total
        assert report.phi_history == [(0, total)]
        assert report.final.min() >= 0.0 and abs(report.final.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("case", ["seven-node", "web-300"])
    def test_the_certificate_is_dual_feasible(self, monkeypatch, seven_node, case):
        # the marginals HiGHS returns lie in the dual sets up to its
        # tolerances, and the clipped (u, z) bound phi below at every vertex
        # and at random points of the simplex
        if case == "seven-node":
            P, spec = seven_node, UncertaintySpec(1.0, NormPair.L1_G1, 0.3)
        else:
            P, spec = _web_above_eps_c()
        results = _recorded_linprog(monkeypatch)
        report = mirror_descent_minimize(P, spec)
        assert report.stop_reason == STOP_LP and len(results) == 1
        n, eps, c = P.n, spec.epsilon, spec.weights(P.n)
        u = -results[0].eqlin.marginals[:n]
        z = -results[0].ineqlin.marginals / eps
        assert np.abs(u).max() <= 1.0 + 1e-9
        assert z.min() >= -1e-9 and (z - c).max() <= 1e-9 and z.sum() <= 1.0 + 1e-9
        u = np.clip(u, -1.0, 1.0)
        z = np.clip(z, 0.0, c)
        z /= max(1.0, float(z.sum()))
        h = P.rmatvec(u) - u + eps * z
        assert report.lower_bound == float(h.min())
        points = np.vstack([np.eye(n), np.random.default_rng(25).dirichlet(np.ones(n), 20)])
        for y in points:
            assert phi_value(P, y, spec) >= float(h @ y) >= report.lower_bound

    def test_marginals_outside_the_dual_sets_are_clipped_and_scaled(self, monkeypatch,
                                                                    seven_node):
        # u tripled past the l_inf ball, and every z_j at 2 c_j: clipped to
        # c_j they sum to 7 * 0.3 = 2.1 and are scaled by 1/2.1.  A gap
        # tolerance of 10 accepts the weaker bound, so that it is returned
        def returned(res):
            res.eqlin.marginals[:] *= 3.0
            res.ineqlin.marginals[:] = -2.0 * spec.epsilon * c
            return res

        spec = UncertaintySpec(1.0, NormPair.L1_G1, 0.3)
        c = spec.weights(7)
        monkeypatch.setattr(solvers, "_GAP_TOL", 10.0)
        results = _recorded_linprog(monkeypatch, returned)
        report = mirror_descent_minimize(seven_node, spec)
        assert report.stop_reason == STOP_LP
        u = np.clip(-results[0].eqlin.marginals[:7], -1.0, 1.0)
        assert np.abs(u).max() == 1.0
        h = seven_node.rmatvec(u) - u + spec.epsilon * (c / 2.1)
        assert report.lower_bound == pytest.approx(float(h.min()), abs=1e-15)
        for y in np.eye(7):
            assert phi_value(seven_node, y, spec) >= report.lower_bound

    def test_at_most_the_grid_oracle_on_criterion_8_matrices(self, monkeypatch):
        # these positive matrices are certified nominal at every eps, so the
        # certificate is bypassed to reach the LP; c = 0.3 and 0.5 make g1
        # nonlinear where eps is small
        monkeypatch.setattr(solvers, "_nominal_certificate", lambda *args: None)
        for P in _criterion_8_matrices():
            for eps in (0.1, 1.0, 10.0):
                for weight in (0.3, 0.5):
                    spec = UncertaintySpec(eps, NormPair.L1_G1, weight * eps)
                    report = mirror_descent_minimize(P, spec)
                    grid_best = phi_value(P, grid_oracle_minimize(P, spec, 1 / 400), spec)
                    assert report.stop_reason == STOP_LP
                    assert report.lower_bound <= report.objective.total <= grid_best

    def test_above_the_cap_the_halving_schedule_runs(self, monkeypatch, seven_node):
        spec = UncertaintySpec(1.0, NormPair.L1_G1, 0.3)
        config = SolverConfig(max_iter=200, md_epochs=3, md_iters_per_epoch=20)
        monkeypatch.setattr(solvers, "_LP_MAX_N", 7)
        assert mirror_descent_minimize(seven_node, spec, config).stop_reason == STOP_LP
        monkeypatch.setattr(solvers, "_LP_MAX_N", 6)
        results = _recorded_linprog(monkeypatch)
        report = mirror_descent_minimize(seven_node, spec, config)
        assert results == []
        assert (report.stop_reason, report.iterations_used) == (STOP_MAX_ITER, 60)

    def test_the_halving_schedule_stops_on_the_gap(self, monkeypatch):
        # on the identity phi is eps g1(x) = 0.9 x_0 + 0.1 x_1, whose
        # subgradient (0.9, 0.1) certifies the descent once x_0 is small
        monkeypatch.setattr(solvers, "_LP_MAX_N", 0)           # P is reducible
        P = SparseStochasticMatrix.from_dense(np.eye(2))
        spec = UncertaintySpec(1.0, NormPair.L1_G1, np.array([0.9, 0.1]))
        config = SolverConfig(md_epochs=3, md_iters_per_epoch=20)
        report = mirror_descent_minimize(P, spec, config, x0=uniform_vector(2))
        total = report.objective.total
        assert report.stop_reason == STOP_GAP
        assert 0 < report.iterations_used < 60
        assert report.lower_bound == pytest.approx(0.1, abs=1e-15)
        assert total - report.lower_bound <= solvers._GAP_TOL * total

    @pytest.mark.parametrize("failure", ["status-2", "certificate"])
    def test_a_failed_lp_falls_back_to_the_descent(self, monkeypatch, seven_node, failure):
        # status 2 is HiGHS's "infeasible"; zero marginals give u = z = 0 and
        # the bound D = 0, far from phi
        def returned(res):
            if failure == "status-2":
                res.status = 2
            else:
                res.eqlin.marginals[:] = 0.0
                res.ineqlin.marginals[:] = 0.0
            return res

        spec = UncertaintySpec(1.0, NormPair.L1_G1, 0.3)
        config = SolverConfig(max_iter=200, md_epochs=3, md_iters_per_epoch=20)
        results = _recorded_linprog(monkeypatch, returned)
        report = mirror_descent_minimize(seven_node, spec, config)
        assert len(results) == 1
        monkeypatch.setattr(solvers, "_LP_MAX_N", 0)
        want = mirror_descent_minimize(seven_node, spec, config)
        assert len(results) == 1
        assert report.stop_reason == STOP_MAX_ITER
        assert _report_bits(report) == _report_bits(want)
        assert report.lower_bound == want.lower_bound

    def test_two_calls_give_the_same_bytes(self):
        P, spec = _web_above_eps_c()
        first = mirror_descent_minimize(P, spec)
        second = mirror_descent_minimize(P, spec)
        assert first.stop_reason == STOP_LP
        assert _report_bits(first) == _report_bits(second)
        assert first.lower_bound == second.lower_bound


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

    @pytest.mark.parametrize("knobs", [{"md_epochs": -3, "md_iters_per_epoch": -1},
                                       {"md_epochs": 0}, {"md_iters_per_epoch": 0},
                                       {"md_iters_per_epoch": -1}])
    def test_descent_budget_below_one_rejected(self, knobs):
        # a budget of no evaluation returned max_iter after 0 steps
        with pytest.raises(ValueError, match="md_"):
            SolverConfig(**knobs)

    def test_accepts_the_benchmark_keywords(self):
        config = SolverConfig(alpha=0.85, tol=1e-10, max_iter=500, md_epochs=3,
                              md_iters_per_epoch=7)
        assert (config.max_iter, config.md_epochs, config.md_iters_per_epoch) == (500, 3, 7)

    @pytest.mark.parametrize("knob", [{"gamma0": 1.0}, {"step_policy": "geometric"}])
    def test_removed_step_knobs_are_rejected(self, knob):
        with pytest.raises(TypeError):
            SolverConfig(**knob)


@pytest.mark.parametrize("tol, message", [(float("inf"), "tol must be finite, got inf"),
                                          (float("nan"), "tol must be > 0, got nan"),
                                          (0.0, "tol must be > 0, got 0.0")],
                         ids=["inf", "nan", "zero"])
def test_tol_must_be_finite_and_positive(seven_node, tol, message):
    # tol inf stopped pagerank after one step, and the CLI printed "tol": Infinity
    for solve in (lambda: SolverConfig(tol=tol), lambda: dominant_eigenvector(seven_node, tol),
                  lambda: pagerank(seven_node, tol=tol)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve()


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
