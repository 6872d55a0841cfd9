import numpy as np
import pytest

from robusteig import (EdgeList, GridModelSpec, ModelVariant, dominant_eigenvector,
                       emit_edge_list, from_edge_list, generate,
                       load_edge_list, model1_exact_scores,
                       model1_pagerank_scores, model2_exact_scores, pagerank,
                       residual, validate)
from robusteig.models import (diagonal_ids, edge_list_for, last_row_ids,
                              model1_raw_pagerank_scores, model1_raw_scores)


def spec1(n):
    return GridModelSpec(n, ModelVariant.MODEL1)


def spec2(n):
    return GridModelSpec(n, ModelVariant.MODEL2)


def reference_grid_edges(spec):
    """The grid's edges as the node-by-node double loop listed them, kept as
    the reference for the array construction."""
    n = spec.n
    last = n - 1
    edges = []
    for i in range(n):
        for j in range(n):
            u = spec.node_id(i, j)
            if i == last and j == last:
                if spec.variant is ModelVariant.MODEL2:
                    edges.append((u, spec.node_id(0, 0)))
            elif i == last:
                edges.append((u, spec.node_id(i, j + 1)))
            elif j == last:
                edges.append((u, spec.node_id(i + 1, j)))
            else:
                edges.append((u, spec.node_id(i + 1, j)))
                edges.append((u, spec.node_id(i, j + 1)))
    return tuple(edges)


class TestGenerate:
    def test_model1_smallest_grid_scores(self):
        P = generate(spec1(2))
        scores = model1_exact_scores(2)
        np.testing.assert_allclose(scores, [0.125, 0.1875, 0.1875, 0.5], atol=1e-15)
        assert residual(P, scores, "l1") <= 1e-15

    def test_model2_smallest_grid_scores(self):
        P = generate(spec2(2))
        scores = model2_exact_scores(2)
        np.testing.assert_allclose(scores, [1 / 3, 1 / 6, 1 / 6, 1 / 3], atol=1e-15)
        assert residual(P, scores, "l1") <= 1e-15

    @pytest.mark.parametrize("make", [spec1, spec2])
    @pytest.mark.parametrize("n", [2, 3, 7, 20])
    def test_output_is_always_stochastic(self, make, n):
        assert validate(generate(make(n)), tol=1e-12).passed

    def test_model1_corner_dangles_and_model2_feeds_back(self):
        P1 = generate(spec1(3))
        assert P1.dangling_columns == {8}
        np.testing.assert_allclose(P1.to_dense()[:, 8], 1 / 9)
        P2 = generate(spec2(3))
        assert P2.dangling_columns == set()
        col = np.zeros(9)
        col[0] = 1.0
        np.testing.assert_array_equal(P2.to_dense()[:, 8], col)

    def test_vertex_walk_returns_after_full_cycle(self):
        # the feedback model is periodic: every route from the origin back to
        # itself takes exactly 2n - 1 steps
        for n in (2, 5):
            P = generate(spec2(n))
            x0 = np.zeros(n * n)
            x0[0] = 1.0
            x = x0.copy()
            for _ in range(2 * n - 1):
                x = P.matvec(x)
            np.testing.assert_array_equal(x, x0)

    def test_side_length_below_two_rejected(self):
        with pytest.raises(ValueError):
            GridModelSpec(1, ModelVariant.MODEL1)


class TestModel1ExactScores:
    @pytest.mark.parametrize("n", [2, 5, 20, 50])
    def test_fixed_point_certificate(self, n):
        P = generate(spec1(n))
        assert residual(P, model1_exact_scores(n), "l1") <= 1e-10

    def test_corner_to_origin_ratio_is_the_node_count(self):
        for n in (2, 3, 10):
            raw = model1_raw_scores(n)
            assert raw[-1] / raw[0] == pytest.approx(n * n, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 5, 30])
    def test_diagonal_scores_increase_toward_the_corner(self, n):
        scores = model1_exact_scores(n)[diagonal_ids(n)]
        assert (np.diff(scores) > 0).all()

    @pytest.mark.parametrize("n", [3, 10, 30])
    def test_last_row_scores_increase(self, n):
        scores = model1_exact_scores(n)[last_row_ids(n)]
        assert (np.diff(scores) > 0).all()


class TestModel1PagerankScores:
    def test_close_to_exact_scores_in_the_undamped_limit(self):
        for n in (2, 5):
            almost = model1_pagerank_scores(n, 1 - 1e-12)
            np.testing.assert_allclose(almost, model1_exact_scores(n), atol=1e-6)

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_matches_the_iterative_solver(self, n):
        P = generate(spec1(n))
        solved = pagerank(P, alpha=0.85, tol=1e-12).final
        np.testing.assert_allclose(model1_pagerank_scores(n, 0.85), solved, atol=1e-8)

    def test_corner_value_reaches_damped_node_count_in_the_limit(self):
        # the corner recurrence value equals alpha * N as alpha -> 1
        n = 5
        raw = model1_raw_pagerank_scores(n, 1 - 1e-12)
        assert raw[-1] == pytest.approx((1 - 1e-12) * n * n, rel=1e-6)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            model1_pagerank_scores(3, 1.0)


class TestModel2ExactScores:
    @pytest.mark.parametrize("n", [2, 5, 20, 50])
    def test_fixed_point_certificate(self, n):
        P = generate(spec2(n))
        assert residual(P, model2_exact_scores(n), "l1") <= 1e-10

    def test_agrees_with_the_averaged_power_solver(self):
        n = 5
        P = generate(spec2(n))
        x = dominant_eigenvector(P, tol=1e-5)
        assert np.abs(x - model2_exact_scores(n)).max() <= 1e-4


class TestEdgeListEmission:
    def test_model1_roundtrip_through_the_text_format(self, tmp_path):
        path = tmp_path / "model1.tsv"
        emit_edge_list(spec1(4), path)
        text = path.read_text()
        assert "dangling:15" in text          # corner emitted as a directive
        P = from_edge_list(load_edge_list(path))
        np.testing.assert_array_equal(P.to_dense(), generate(spec1(4)).to_dense())

    def test_model2_roundtrip_has_no_directive(self, tmp_path):
        path = tmp_path / "model2.tsv"
        emit_edge_list(spec2(3), path)
        assert "dangling:" not in path.read_text()
        P = from_edge_list(load_edge_list(path))
        np.testing.assert_array_equal(P.to_dense(), generate(spec2(3)).to_dense())

    @pytest.mark.parametrize("make", [spec1, spec2])
    @pytest.mark.parametrize("n", [2, 3, 20, 100])
    def test_edges_text_and_matrix_match_the_double_loop(self, make, n, tmp_path):
        spec = make(n)
        want = reference_grid_edges(spec)
        assert edge_list_for(spec).edges == want
        path = tmp_path / "grid.tsv"
        emit_edge_list(spec, path)
        sources = {s for s, _ in want}
        lines = ([f"n={n * n}"] + [f"{s}\t{d}" for s, d in want]
                 + [f"dangling:{j}" for j in range(n * n) if j not in sources])
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        P, R = generate(spec), from_edge_list(EdgeList(want, n * n))
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(P._links, name), getattr(R._links, name))
        assert P.dangling_columns == R.dangling_columns

    def test_node_indexing_helpers(self):
        spec = spec1(4)
        assert spec.node_count == 16
        assert spec.node_id(2, 3) == 11
        assert spec.node_coords(11) == (2, 3)
        assert edge_list_for(spec).n == 16
