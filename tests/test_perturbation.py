import tracemalloc

import numpy as np
import pytest

from robusteig import (InfeasiblePerturbationError, NormPair,
                       SparseStochasticMatrix, UncertaintySpec,
                       check_perturbation_bound, edge_list,
                       empirical_phi_lower_bound, from_edge_list, generate,
                       phi_value, sample_perturbation, uniform_vector,
                       validate, worst_case_rank1)
from robusteig.graph_matrix import out_degrees
from robusteig.models import GridModelSpec, ModelVariant
from robusteig.perturbation import PERTURBATION_SETS, pair_for_set, sampled_residuals

from conftest import (SEVEN_NODE_EDGES, _sample_perturbation_dense,
                      random_stochastic_dense, web_graph)

SWAP = SparseStochasticMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])


def perturbed_residual(P, xi, x, ord):
    return float(np.linalg.norm((P.to_dense() + xi) @ x - x, ord=ord))


class TestWorstCaseRank1:
    def test_attains_the_bound_at_the_uniform_point(self, seven_node):
        e = uniform_vector(7)
        xi = worst_case_rank1(seven_node, e, 1.0).materialize()
        attained = perturbed_residual(seven_node, xi, e, 2)
        expected = phi_value(seven_node, e, UncertaintySpec(1.0, NormPair.L2_L2))
        assert attained == pytest.approx(expected, abs=1e-12)
        assert attained == pytest.approx(0.57139, abs=1e-5)

    def test_fixed_point_uses_the_fallback_direction(self):
        P = SparseStochasticMatrix.from_dense(np.eye(3))
        x = np.array([0.2, 0.3, 0.5])
        pert = worst_case_rank1(P, x, eps=0.7)
        xi = pert.materialize()
        assert np.linalg.norm(xi, "fro") == pytest.approx(0.7, abs=1e-12)
        assert perturbed_residual(P, xi, x, 2) == pytest.approx(0.7 * np.linalg.norm(x),
                                                                abs=1e-12)

    def test_a_one_node_fixed_point_has_no_fallback_direction(self):
        P = from_edge_list(edge_list([(0, 0)], 1))
        with pytest.raises(ValueError, match="fallback direction needs dimension >= 2"):
            worst_case_rank1(P, np.array([1.0]), eps=1.0)

    def test_swap_matrix_vertex(self):
        xi = worst_case_rank1(SWAP, np.array([1.0, 0.0]), eps=0.5).materialize()
        assert perturbed_residual(SWAP, xi, np.array([1.0, 0.0]), 2) == pytest.approx(
            np.sqrt(2) + 0.5, abs=1e-12)

    def test_frobenius_norm_is_the_budget(self, seven_node):
        rng = np.random.default_rng(0)
        for eps in (1e-3, 0.3, 2.0):
            x = rng.dirichlet(np.ones(7))
            xi = worst_case_rank1(seven_node, x, eps).materialize()
            assert np.linalg.norm(xi, "fro") == pytest.approx(eps, abs=1e-10 * max(1, eps))
            assert np.abs(xi.sum(axis=0)).max() <= 1e-10 * max(1, eps)

    def test_apply_matches_materialize(self, seven_node):
        rng = np.random.default_rng(1)
        x = rng.dirichlet(np.ones(7))
        pert = worst_case_rank1(seven_node, x, 0.4)
        v = rng.standard_normal(7)
        np.testing.assert_allclose(pert.apply(v), pert.materialize() @ v, atol=1e-14)

    def test_invalid_inputs_rejected(self, seven_node):
        with pytest.raises(ValueError):
            worst_case_rank1(seven_node, uniform_vector(7), eps=0.0)
        with pytest.raises(ValueError):
            worst_case_rank1(seven_node, np.zeros(7), eps=1.0)

    @pytest.mark.parametrize("eps", [float("inf"), float("nan")])
    def test_non_finite_eps_rejected(self, seven_node, eps):
        # an infinite scale makes apply() NaN and -inf
        with pytest.raises(ValueError, match=f"eps must be finite and > 0, got {eps}$"):
            worst_case_rank1(seven_node, uniform_vector(7), eps)


class TestPerturbationBound:
    def test_two_dimensional_hand_case(self):
        report = check_perturbation_bound(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                                          eps=0.5, n_samples=200, rng_seed=0)
        assert report.bound == pytest.approx(1.5)
        assert report.equality_gap <= 1e-10
        assert report.bound_satisfied
        # the attaining perturbation is eps * a b^T / (||a|| ||b||)
        xi_star = 0.5 * np.outer([1.0, 0.0], [0.0, 1.0])
        np.testing.assert_allclose(xi_star, [[0, 0.5], [0, 0]])

    @pytest.mark.parametrize("a, b", [(np.zeros(2), np.array([1.0, 0.0])),
                                      (np.zeros(1), np.array([1.0]))],
                             ids=["two-entries", "one-entry"])
    def test_zero_left_vector_falls_back(self, a, b):
        report = check_perturbation_bound(a, b, eps=2.0, n_samples=100, rng_seed=1)
        assert report.bound == pytest.approx(2.0)
        assert report.equality_gap <= 1e-10

    @pytest.mark.parametrize("n_samples", [0, -2])
    def test_no_samples_rejected(self, n_samples):
        with pytest.raises(ValueError, match=f"n_samples must be >= 1, got {n_samples}$"):
            check_perturbation_bound(np.ones(3), np.ones(3), eps=0.5, n_samples=n_samples)

    @pytest.mark.parametrize("eps", [float("inf"), float("nan")])
    def test_non_finite_eps_rejected(self, eps):
        # every sample would be NaN, which max() skips: a check that never ran
        with pytest.raises(ValueError, match=f"eps must be finite and > 0, got {eps}$"):
            check_perturbation_bound(np.ones(3), np.ones(3), eps, n_samples=2)

    def test_attained_is_xi_star_times_b(self):
        rng = np.random.default_rng(4)
        for a, b in ((rng.standard_normal(6), rng.standard_normal(4)),
                     (np.zeros(3), rng.standard_normal(5)),
                     (rng.standard_normal(3), np.zeros(2))):
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            left = a / na if na > 0 else np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
            xi_star = 0.7 * np.outer(left, b / nb) if nb > 0 else np.zeros((a.size, b.size))
            report = check_perturbation_bound(a, b, 0.7, n_samples=1)
            assert report.attained == pytest.approx(np.linalg.norm(a + xi_star @ b), rel=1e-14)
            assert report.equality_gap <= 1e-12

    def test_sampled_values_never_exceed_the_bound(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(10)
        b = rng.standard_normal(10)
        report = check_perturbation_bound(a, b, eps=0.3, n_samples=10_000, rng_seed=3)
        assert report.max_sampled <= report.bound + 1e-10
        assert report.equality_gap <= 1e-10
        # with this many draws the best sample gets reasonably close
        assert report.max_sampled >= np.linalg.norm(a)


class TestSamplePerturbation:
    @pytest.mark.parametrize("set_name", PERTURBATION_SETS)
    def test_near_zero_budget_gives_near_zero_perturbation(self, seven_node, set_name):
        spec = UncertaintySpec(1e-300, pair_for_set(set_name))
        sample = sample_perturbation(seven_node, spec, set_name, rng_seed=0)
        assert np.abs(sample.xi).max() <= 1e-299

    @pytest.mark.parametrize("set_name", PERTURBATION_SETS)
    def test_column_sums_vanish(self, seven_node, set_name):
        spec = UncertaintySpec(0.5, pair_for_set(set_name))
        for seed in range(10):
            sample = sample_perturbation(seven_node, spec, set_name, rng_seed=seed)
            assert sample.max_column_sum <= 1e-12

    def test_stochastic_set_keeps_the_matrix_valid(self, seven_node):
        spec = UncertaintySpec(0.1, NormPair.L2_L2)
        sample = sample_perturbation(seven_node, spec, "xif", rng_seed=7)
        assert sample.frobenius <= 0.1
        assert sample.stochastic_ok
        perturbed = SparseStochasticMatrix.from_dense(seven_node.to_dense() + sample.xi)
        assert validate(perturbed, tol=1e-10).passed

    def test_inverse_degree_budgets_preserve_stochasticity(self, seven_node):
        budgets = 1.0 / out_degrees(seven_node).astype(float)
        spec = UncertaintySpec(float(budgets.sum()), NormPair.L1_G1, budgets)
        for seed in range(50):
            sample = sample_perturbation(seven_node, spec, "xi1", rng_seed=seed)
            perturbed = SparseStochasticMatrix.from_dense(seven_node.to_dense() + sample.xi)
            assert validate(perturbed, tol=1e-10).passed

    @pytest.mark.parametrize("set_name", ("xi1", "xi2"))
    def test_column_budgets_respected(self, seven_node, set_name):
        budgets = np.array([0.3, 0.05, 0.2, 0.1, 0.4, 0.25, 0.15])
        spec = UncertaintySpec(0.6, pair_for_set(set_name), budgets)
        for seed in range(20):
            sample = sample_perturbation(seven_node, spec, set_name, rng_seed=seed)
            per_col = np.abs(sample.xi).sum(axis=0)
            assert (per_col <= budgets + 1e-12).all()
            total = sample.total_l1 if set_name == "xi1" else sample.frobenius
            assert total <= 0.6 + 1e-12

    def test_same_seed_reproduces_the_sample(self, seven_node):
        spec = UncertaintySpec(0.2, NormPair.L2_L2)
        a = sample_perturbation(seven_node, spec, "xif", rng_seed=42)
        b = sample_perturbation(seven_node, spec, "xif", rng_seed=42)
        np.testing.assert_array_equal(a.xi, b.xi)

    def test_unknown_set_rejected(self, seven_node):
        with pytest.raises(ValueError):
            sample_perturbation(seven_node, UncertaintySpec(1.0), "xi9")


def _dense_with_zeros(n, seed):
    A = random_stochastic_dense(n, seed)
    A[np.random.default_rng(seed).random((n, n)) < 0.6] = 0.0
    A[0] += 0.1                                  # no column left empty
    return SparseStochasticMatrix.from_dense(A / A.sum(axis=0))


def _dense_with_a_negative_entry(n, seed):
    # a stored entry the feasibility check must see but the support leaves out
    A = random_stochastic_dense(n, seed)
    A[1, 0] += A[0, 0] + 0.002
    A[0, 0] = -0.002
    return SparseStochasticMatrix.from_dense(A)


PARITY_MATRICES = {
    "seven_node": lambda: from_edge_list(edge_list(SEVEN_NODE_EDGES, 7)),
    "web_300": lambda: web_graph(300, 3),        # 22 dangling columns
    "model2_grid": lambda: generate(GridModelSpec(20, ModelVariant.MODEL2)),
    "dense_with_zeros": lambda: _dense_with_zeros(12, 4),
    "dense_positive": lambda: SparseStochasticMatrix.from_dense(
        random_stochastic_dense(9, 5, low=0.1)),
    "dense_negative": lambda: _dense_with_a_negative_entry(6, 6),
}


def _sample_bits(sampler, *args):
    try:
        sample = sampler(*args)
    except InfeasiblePerturbationError:
        return "infeasible"
    return (sample.xi.tobytes(), sample.stochastic_ok, sample.max_column_sum,
            sample.max_column_l1, sample.total_l1, sample.frobenius)


class TestSamplerParity:
    """sample_perturbation, on xi alone, against the dense-temporary sampler."""

    @pytest.mark.parametrize("matrix", PARITY_MATRICES)
    @pytest.mark.parametrize("set_name", PERTURBATION_SETS)
    def test_same_bits_as_the_dense_sampler(self, matrix, set_name):
        P = PARITY_MATRICES[matrix]()
        for eps in (0.1, 1.0, 10.0):
            spec = UncertaintySpec(eps, pair_for_set(set_name))
            for seed in range(3):
                args = (P, spec, set_name, seed)
                assert (_sample_bits(sample_perturbation, *args)
                        == _sample_bits(_sample_perturbation_dense, *args))

    def test_halved_sample_keeps_its_bits(self, seven_node):
        spec = UncertaintySpec(10.0, NormPair.L2_L2)
        xi = sample_perturbation(seven_node, spec, "xif", rng_seed=0).xi
        # twice the returned xi is the draw before the last halving: infeasible
        assert (seven_node.to_dense() + 2.0 * xi).min() < 0.0
        args = (seven_node, spec, "xif", 0)
        assert (_sample_bits(sample_perturbation, *args)
                == _sample_bits(_sample_perturbation_dense, *args))

    def test_infeasible_where_the_dense_sampler_is(self):
        # a negative stored entry: halving never lifts P + xi to >= 0
        P = SparseStochasticMatrix.from_dense([[6.0, 0.5], [-5.0, 0.5]])
        spec = UncertaintySpec(1.0, NormPair.L2_L2)
        with pytest.raises(InfeasiblePerturbationError):
            _sample_perturbation_dense(P, spec, "xif", rng_seed=0)
        with pytest.raises(InfeasiblePerturbationError):
            sample_perturbation(P, spec, "xif", rng_seed=0)

    @pytest.mark.parametrize("set_name", PERTURBATION_SETS)
    def test_one_sample_holds_about_one_n_by_n_array(self, set_name):
        n = 1000
        P = web_graph(n, 7)
        spec = UncertaintySpec(1.0, pair_for_set(set_name))
        tracemalloc.start()
        try:
            sample = sample_perturbation(P, spec, set_name, rng_seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.xi.nbytes == 8 * n * n
        assert peak <= 1.2 * 8 * n * n


class TestSampledResiduals:
    """Each realized value as ||(Px - x) + xi x||: no P + xi, no dense P."""

    @pytest.mark.parametrize("set_name", PERTURBATION_SETS)
    def test_no_dense_copy_of_p(self, seven_node, monkeypatch, set_name):
        calls = []
        to_dense = seven_node.to_dense
        monkeypatch.setattr(seven_node, "to_dense", lambda: calls.append(1) or to_dense())
        spec = UncertaintySpec(1.0, pair_for_set(set_name))
        x = uniform_vector(7)
        sampled_residuals(seven_node, x, spec, set_name, n_samples=3)
        empirical_phi_lower_bound(seven_node, x, spec, set_name, n_samples=3)
        assert calls == []

    @pytest.mark.parametrize("set_name", PERTURBATION_SETS)
    def test_holds_about_one_n_by_n_array(self, set_name):
        n = 1000
        P = web_graph(n, 7)
        spec = UncertaintySpec(1.0, pair_for_set(set_name))
        x = uniform_vector(n)
        tracemalloc.start()
        try:
            sampled_residuals(P, x, spec, set_name, n_samples=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 8 * n * n

    @pytest.mark.parametrize("matrix", PARITY_MATRICES)
    @pytest.mark.parametrize("set_name", PERTURBATION_SETS)
    def test_matches_the_dense_perturbed_residual(self, matrix, set_name):
        P = PARITY_MATRICES[matrix]()
        x = np.random.default_rng(11).dirichlet(np.ones(P.n))
        ord_ = 1 if set_name == "xi1" else 2
        for eps in (0.1, 1.0, 10.0):
            spec = UncertaintySpec(eps, pair_for_set(set_name))
            for seed in range(3):
                try:
                    xi = sample_perturbation(P, spec, set_name, seed).xi
                except InfeasiblePerturbationError:
                    with pytest.raises(InfeasiblePerturbationError):
                        sampled_residuals(P, x, spec, set_name, 1, seed)
                    continue
                want = perturbed_residual(P, xi, x, ord_)
                [got], _ = sampled_residuals(P, x, spec, set_name, 1, seed)
                assert abs(got - want) <= 1e-12 * max(1.0, want)


class TestEmpiricalLowerBound:
    def test_fixed_point_with_tiny_budget_stays_below_the_penalty(self, seven_node):
        xbar = np.array([0, 0, 0, 0, 0, 0.5, 0.5])
        spec = UncertaintySpec(1e-6, NormPair.L2_L2)
        low = empirical_phi_lower_bound(seven_node, xbar, spec, "xif",
                                        n_samples=100, rng_seed=0)
        assert 0.0 <= low <= phi_value(seven_node, xbar, spec)
        assert low <= 1e-6 * np.linalg.norm(xbar) + 1e-12

    def test_uniform_point_bounded_by_phi(self, seven_node):
        spec = UncertaintySpec(1.0, NormPair.L2_L2)
        low = empirical_phi_lower_bound(seven_node, uniform_vector(7), spec, "xif",
                                        n_samples=200, rng_seed=1)
        assert 0.0 < low <= 0.57139 + 1e-5

    def test_rank1_closes_the_gap_without_nonnegativity(self, seven_node):
        e = uniform_vector(7)
        spec = UncertaintySpec(1.0, NormPair.L2_L2)
        low = empirical_phi_lower_bound(seven_node, e, spec, "xif_ball",
                                        n_samples=50, rng_seed=2, include_rank1=True)
        assert low == pytest.approx(phi_value(seven_node, e, spec), abs=1e-10)

    def test_rank1_adds_no_dense_copy_of_p(self, seven_node, monkeypatch):
        calls = []
        to_dense = seven_node.to_dense
        monkeypatch.setattr(seven_node, "to_dense", lambda: calls.append(1) or to_dense())
        empirical_phi_lower_bound(seven_node, uniform_vector(7),
                                  UncertaintySpec(1.0, NormPair.L2_L2), "xif_ball",
                                  n_samples=3, include_rank1=True)
        assert calls == []

    @pytest.mark.parametrize("set_name", PERTURBATION_SETS)
    def test_rank1_admitted_for_the_frobenius_ball_only(self, seven_node, set_name):
        # the rank-1 worst case breaks nonnegativity or the column budgets,
        # so P + xi* lies outside xi1, xi2 and xif
        spec = UncertaintySpec(1.0, pair_for_set(set_name))
        call = lambda: empirical_phi_lower_bound(seven_node, uniform_vector(7), spec, set_name,
                                                 n_samples=50, rng_seed=2, include_rank1=True)
        if set_name == "xif_ball":
            assert call() == 0.571393958833893
        else:
            with pytest.raises(ValueError, match=f"outside set {set_name!r}$"):
                call()

    @pytest.mark.parametrize("n_samples", [0, -2])
    @pytest.mark.parametrize("sampler", [sampled_residuals, empirical_phi_lower_bound])
    def test_no_samples_rejected_before_dense_p(self, seven_node, monkeypatch, sampler,
                                                n_samples):
        # with no samples "every sample feasible" would hold vacuously
        calls = []
        monkeypatch.setattr(seven_node, "to_dense", lambda: calls.append(1))
        with pytest.raises(ValueError, match=f"n_samples must be >= 1, got {n_samples}$"):
            sampler(seven_node, uniform_vector(7), UncertaintySpec(1.0, NormPair.L2_L2),
                    "xif", n_samples=n_samples)
        assert calls == []

    def test_unknown_set_rejected_as_pair_for_set_words_it(self, seven_node, monkeypatch):
        with pytest.raises(ValueError) as want:
            pair_for_set("bogus")
        products = []
        monkeypatch.setattr(seven_node, "matvec", lambda x: products.append(x))
        spec = UncertaintySpec(1.0, NormPair.L2_L2)
        x = uniform_vector(7)
        for call in (lambda: sample_perturbation(seven_node, spec, "bogus"),
                     lambda: sampled_residuals(seven_node, x, spec, "bogus"),
                     lambda: empirical_phi_lower_bound(seven_node, x, spec, "bogus")):
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(want.value)
        assert products == []

    def test_mismatched_pair_rejected(self, seven_node):
        spec = UncertaintySpec(1.0, NormPair.L2_L2)
        with pytest.raises(ValueError):
            empirical_phi_lower_bound(seven_node, uniform_vector(7), spec, "xi1")

    @pytest.mark.parametrize("set_name", ("xi1", "xi2", "xif"))
    def test_upper_bounds_dominate_sampled_residuals(self, seven_node, set_name):
        # the convex surrogate must sit above every realized residual
        spec = UncertaintySpec(0.8, pair_for_set(set_name))
        rng = np.random.default_rng(3)
        dense = seven_node.to_dense()
        ord_ = 1 if set_name == "xi1" else 2
        for trial in range(5):
            x = rng.dirichlet(np.ones(7))
            bound = phi_value(seven_node, x, spec)
            for seed in range(40):
                xi = sample_perturbation(seven_node, spec, set_name, rng_seed=seed).xi
                assert np.linalg.norm((dense + xi) @ x - x, ord=ord_) <= bound + 1e-12


def test_bounds_also_hold_on_random_dense_matrices():
    for seed in range(3):
        P = SparseStochasticMatrix.from_dense(random_stochastic_dense(5, seed))
        rng = np.random.default_rng(seed + 10)
        x = rng.dirichlet(np.ones(5))
        for set_name in ("xi1", "xi2", "xif"):
            spec = UncertaintySpec(0.5, pair_for_set(set_name))
            low = empirical_phi_lower_bound(P, x, spec, set_name,
                                            n_samples=60, rng_seed=seed)
            assert low <= phi_value(P, x, spec) + 1e-12
