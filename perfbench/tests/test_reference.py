"""Tests of the benchmark's reference computations on cases with known answers.

    python3 -m pytest perfbench/tests

Kept out of the repository's test suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference as ref  # noqa: E402
from graphs import web_graph  # noqa: E402
from workloads import grid_edges  # noqa: E402
from robusteig import models, norms, perturbation  # noqa: E402
from robusteig.graph_matrix import edge_list, from_edge_list  # noqa: E402
from robusteig.norms import NormPair, UncertaintySpec  # noqa: E402

SEVEN = [(0, 1), (0, 2), (1, 2), (2, 0), (2, 4), (2, 6), (3, 2), (3, 4), (4, 3), (5, 6), (6, 5)]


@pytest.fixture
def seven():
    src, dst = np.array(SEVEN).T
    return ref.link_matrix(7, src, dst)


def model_edges(side, variant):
    el = models.edge_list_for(models.GridModelSpec(side, variant))
    return np.array(el.edges).T


def test_seven_node_nominal_vector_is_fixed(seven):
    L, d = seven
    x = np.array([0, 0, 0, 0, 0, 0.5, 0.5])
    assert np.abs(ref.matvec(L, d, x) - x).sum() == 0.0
    assert not d.any()


def test_seven_node_l1g1_optimum_is_20_over_69(seven):
    L, d = seven
    assert ref.l1g1_optimum(L, d, 1.0, np.full(7, 0.3)) == pytest.approx(20 / 69, rel=1e-9)


def test_l1g1_optimum_is_a_lower_bound_on_phi(seven):
    L, d = seven
    c = np.full(7, 0.3)
    opt = ref.l1g1_optimum(L, d, 1.0, c)
    for x in np.random.default_rng(0).dirichlet(np.ones(7), size=200):
        assert ref.phi(L, d, x, "l1g1", 1.0, c) >= opt - 1e-12


@pytest.mark.parametrize("side", [2, 5, 20])
def test_model2_stationary_vector_matches_the_recurrence(side):
    L, d = ref.link_matrix(side * side, *grid_edges(side))
    x = ref.stationary(L, d)
    assert np.abs(x - models.model2_exact_scores(side)).max() < 1e-12


@pytest.mark.parametrize("side", [2, 7, 30])
def test_model1_solves_match_the_recurrences(side):
    L, d = ref.link_matrix(side * side, *model_edges(side, models.ModelVariant.MODEL1))
    assert d.sum() == 1                       # the corner dangles
    assert np.abs(ref.stationary(L, d) - models.model1_exact_scores(side)).max() < 1e-12
    pr = ref.pagerank(L, d, 0.85)
    assert np.abs(pr - models.model1_pagerank_scores(side, 0.85)).max() < 1e-12


def test_grid_edges_are_model2():
    src, dst = grid_edges(6)
    want = model_edges(6, models.ModelVariant.MODEL2)
    assert sorted(zip(src, dst)) == sorted(zip(*want))


def test_link_matrix_matches_robusteig_on_a_web_graph():
    n = 300
    src, dst = web_graph(n, 4)
    L, d = ref.link_matrix(n, src, dst)
    P = from_edge_list(edge_list(zip(src, dst), n=n))
    assert np.abs(ref.dense(L, d) - P.to_dense()).max() < 1e-15
    assert np.allclose(ref.dense(L, d).sum(axis=0), 1.0)


def test_web_graph_is_seeded_and_web_like():
    n = 20_000
    a, b = web_graph(n, 3), web_graph(n, 3)
    assert all(np.array_equal(u, v) for u, v in zip(a, b))
    src, dst = a
    share_dangling = 1 - np.unique(src).size / n
    assert 0.04 < share_dangling < 0.06
    assert 3.5 < src.size / n < 4.5
    assert np.bincount(dst, minlength=n).max() > 50 * src.size / n   # hubs


@pytest.mark.parametrize("kind", ["g1", "g2"])
def test_penalty_duals_agree_with_robusteig(kind):
    rng = np.random.default_rng(1)
    for n in (1, 3, 10, 200):
        for scale in (0.05, 0.5, 2.0):
            x = rng.dirichlet(np.ones(n))
            c = rng.uniform(0.2, 1.0, n) * scale
            z = ref.g1_dual(x, c) if kind == "g1" else ref.g2_dual(x, c)
            assert (np.abs(z) <= c + 1e-15).all()
            assert np.abs(z).sum() <= 1 + 1e-12 if kind == "g1" else np.linalg.norm(z) <= 1 + 1e-12
            want = norms.g1(x, c) if kind == "g1" else norms.g2(x, c)
            assert z @ x == pytest.approx(want, rel=1e-10, abs=1e-15)


@pytest.mark.parametrize("pair", ["l2l2", "l2g2", "l1g1"])
def test_linearization_bound_is_below_phi_everywhere(seven, pair):
    L, d = seven
    c = np.full(7, 0.3)
    rng = np.random.default_rng(2)
    x = rng.dirichlet(np.ones(7))
    low = ref.phi(L, d, x, pair, 1.0, c) - ref.linearization_gap(L, d, x, pair, 1.0, c)
    for y in rng.dirichlet(np.ones(7), size=500):
        assert ref.phi(L, d, y, pair, 1.0, c) >= low - 1e-12


def test_algorithm1_stops_at_the_fourth_update_on_the_seven_node_graph(seven):
    L, d = seven
    x, phis = ref.algorithm1(L, d, "l2l2", 1.0, np.full(7, 1 / 7), 1000)
    assert len(phis) - 1 == 4 and phis[-1] > phis[-2]
    assert (np.diff(phis[:-1]) < 0).all()


@pytest.mark.parametrize("set_name", ["xi2", "xif"])
def test_perturbation_checks_pass_samples_and_catch_breaks(seven, set_name):
    L, d = seven
    P = from_edge_list(edge_list(SEVEN, n=7))
    budgets = np.full(7, 0.3)
    pair = perturbation.pair_for_set(set_name)
    spec = UncertaintySpec(1.0, pair, budgets)
    dense = ref.dense(L, d)
    xi = perturbation.sample_perturbation(P, spec, set_name, 5).xi
    assert ref.perturbation_violations(dense, xi, set_name, 1.0, budgets) == []
    broken = xi.copy()
    broken[:, 0] += 0.01                      # column sum no longer zero
    assert ref.perturbation_violations(dense, broken, set_name, 1.0, budgets)
    assert ref.perturbation_violations(dense, 3 * xi / np.linalg.norm(xi), set_name, 1.0,
                                       budgets)


def test_pair_names_match_robusteig():
    assert [p.value for p in NormPair] == ["l1g1", "l2g2", "l2l2"]
