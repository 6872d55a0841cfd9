import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from robusteig import (EdgeList, GridModelSpec, InputError, ModelVariant, NormPair,
                       SparseStochasticMatrix, UncertaintySpec, dominant_eigenvector,
                       edge_list, from_edge_list, generate, mirror_descent_minimize,
                       pagerank, parse_edge_list, regularized_power_method, residual,
                       uniform_vector, validate)
from robusteig import graph_matrix
from robusteig.graph_matrix import (_parse_canonical, _parse_general, edge_list_text,
                                    load_edge_list, out_degrees, save_edge_list)
from robusteig.models import edge_list_for
from robusteig.solvers import STOP_LP, STOP_NOMINAL

from conftest import (PERIOD_3_EDGES, SEVEN_NODE_DENSE, SEVEN_NODE_EDGES, SEVEN_NODE_XBAR,
                      web_graph)


def reference_from_edge_list(edges: EdgeList):
    """The link matrix and dangling set as from_edge_list built them with
    Python loops over the edges, kept as the reference for the array build."""
    n = edges.n
    unique = sorted(set(edges.edges))
    rows, cols, vals = [], [], []
    out_degree = np.zeros(n, dtype=np.int64)
    for s, _ in unique:
        out_degree[s] += 1
    for s, d in unique:
        rows.append(d)
        cols.append(s)
        vals.append(1.0 / out_degree[s])
    links = sparse.csc_array(
        (np.asarray(vals, dtype=float), (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=(n, n),
    )
    sums = np.asarray(links.sum(axis=0)).ravel()
    off = (out_degree > 0) & (np.abs(sums - 1.0) > 1e-15)
    if off.any():
        scale = np.ones(n)
        scale[off] = 1.0 / sums[off]
        links = links @ sparse.diags_array(scale, format="csc")
        links = sparse.csc_array(links)
    dangling = frozenset(int(j) for j in np.flatnonzero(out_degree == 0))
    return links, dangling


@st.composite
def edge_lists(draw):
    """Random edge lists: duplicates, self-loops and dangling nodes are common,
    n = 1 and the empty edge set occur, and a few nodes link to many."""
    n = draw(st.integers(1, 40))
    ids = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=3 * n))
    hub = draw(ids)
    edges += [(hub, d) for d in draw(st.lists(ids, max_size=n))]
    return EdgeList(tuple(draw(st.permutations(edges))), n)


class TestFromEdgeList:
    def test_seven_node_matrix_matches_hand_written_entries(self, seven_node):
        np.testing.assert_array_equal(seven_node.to_dense(), SEVEN_NODE_DENSE)
        # spot entries, 1-based (i, j) of the source description: P_32, P_13, P_54
        dense = seven_node.to_dense()
        assert dense[2, 1] == 1.0
        assert dense[0, 2] == 1.0 / 3.0
        assert dense[4, 3] == 0.5

    def test_single_dangling_node_becomes_identity(self):
        P = from_edge_list(EdgeList((), 1))
        np.testing.assert_array_equal(P.to_dense(), [[1.0]])
        assert P.dangling_columns == {0}

    def test_dangling_columns_repaired_to_uniform(self):
        P = from_edge_list(edge_list([(0, 1), (0, 2)], 3))
        dense = P.to_dense()
        np.testing.assert_allclose(dense[:, 1], 1 / 3)
        np.testing.assert_allclose(dense[:, 2], 1 / 3)
        assert P.dangling_columns == {1, 2}

    def test_duplicate_edges_collapse_to_one_link(self):
        once = from_edge_list(edge_list([(0, 1), (1, 0)], 2))
        twice = from_edge_list(edge_list([(0, 1), (0, 1), (1, 0)], 2))
        np.testing.assert_array_equal(once.to_dense(), twice.to_dense())

    def test_self_loops_are_ordinary_links(self):
        P = from_edge_list(edge_list([(0, 0), (0, 1), (1, 0)], 2))
        np.testing.assert_allclose(P.to_dense(), [[0.5, 1.0], [0.5, 0.0]])

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(InputError):
            EdgeList(((0, 5),), 3)

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            EdgeList((), 0)

    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    @example(EdgeList((), 1))
    @example(EdgeList(((0, 0), (0, 0)), 1))
    @example(EdgeList((), 5))
    def test_array_build_matches_the_loop_bit_for_bit(self, edges):
        P = from_edge_list(edges)
        links, dangling = reference_from_edge_list(edges)
        for name in ("data", "indices", "indptr"):
            got, want = getattr(P._links, name), getattr(links, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert P.dangling_columns == dangling
        dense = links.toarray()
        degrees = np.diff(links.indptr).astype(np.int64)
        for j in dangling:
            dense[:, j] += 1.0 / edges.n
            degrees[j] = edges.n
        assert np.array_equal(P.to_dense(), dense)
        assert np.array_equal(out_degrees(P), degrees)

    def test_node_count_beyond_the_int64_keys_rejected(self):
        with pytest.raises(InputError, match="too large"):
            from_edge_list(EdgeList(((0, 1),), 3_037_000_500))

    def test_out_degrees_count_links_and_repair(self, seven_node):
        np.testing.assert_array_equal(out_degrees(seven_node), [2, 1, 3, 2, 1, 1, 1])
        P = from_edge_list(edge_list([(0, 1), (0, 2)], 3))
        np.testing.assert_array_equal(out_degrees(P), [2, 3, 3])


def _coo_build(edges: EdgeList) -> sparse.csc_array:
    """The link matrix as scipy's COO-to-CSC conversion builds it from the
    distinct links and the entries 1/n_j."""
    src, dst = np.array(sorted(set(edges.edges)), dtype=np.int64).reshape(-1, 2).T
    out_degree = np.bincount(src, minlength=edges.n)
    return sparse.csc_array((1.0 / out_degree[src], (dst, src)), shape=(edges.n, edges.n))


# edge lists the direct CSC build must give the COO build's bytes on
DIRECT_BUILD_INPUTS = {
    "duplicates": lambda: _random_edges(40, 300, 7),
    "duplicates-sparse": lambda: _random_edges(500, 400, 8),
    "no-edges": lambda: EdgeList((), 1),
    "all-dangling": lambda: EdgeList((), 9),
    "model1-side-2": lambda: edge_list_for(GridModelSpec(2, ModelVariant.MODEL1)),
    "model2-side-2": lambda: edge_list_for(GridModelSpec(2, ModelVariant.MODEL2)),
    "model1-side-20": lambda: edge_list_for(GridModelSpec(20, ModelVariant.MODEL1)),
    "model2-side-20": lambda: edge_list_for(GridModelSpec(20, ModelVariant.MODEL2)),
    "star": lambda: EdgeList.from_arrays(np.zeros(10**5, dtype=np.int64),
                                         np.arange(1, 10**5 + 1), 10**5 + 1),
}


class TestDirectCSCBuild:
    """from_edge_list hands scipy the CSC arrays its sorted keys already are."""

    @pytest.mark.parametrize("name", DIRECT_BUILD_INPUTS)
    def test_same_arrays_as_the_coo_build(self, name):
        edges = DIRECT_BUILD_INPUTS[name]()
        P, want = from_edge_list(edges), _coo_build(edges)
        for attr in ("indptr", "indices", "data"):
            got = getattr(P._links, attr)
            assert got.dtype == getattr(want, attr).dtype
            assert got.tobytes() == getattr(want, attr).tobytes()
        assert validate(P).passed

    def test_columns_of_many_links_sum_to_one_without_rescaling(self):
        # n_j copies of fl(1/n_j) sum exactly to within 2^-53 of 1
        P = from_edge_list(DIRECT_BUILD_INPUTS["star"]())
        assert P._links.data[0] == 1.0 / 10**5
        assert abs(P.column_sums()[0] - 1.0) <= 1e-15

    def test_builds_with_no_coo_stage(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("from_edge_list went through a COO array")

        # tocsc, and the conversion that csc_array((data, (row, col))) calls
        monkeypatch.setattr(sparse.coo_array, "tocsc", refuse)
        monkeypatch.setattr(sparse._coo._coo_base, "tocsc", refuse)
        monkeypatch.setattr(sparse._coo._coo_base, "_coo_to_compressed", refuse)
        P = from_edge_list(edge_list([(0, 1), (0, 2), (2, 0), (0, 1)], 4))
        np.testing.assert_array_equal(P.to_dense(), [[0, 0.25, 1, 0.25],
                                                     [0.5, 0.25, 0, 0.25],
                                                     [0.5, 0.25, 0, 0.25],
                                                     [0, 0.25, 0, 0.25]])


class TestEdgeList:
    def test_edges_read_back_as_the_pairs_given(self):
        pairs = ((0, 1), (1, 1), (0, 1), (2, 0))
        el = EdgeList(pairs, 3)
        assert el.edges == pairs
        assert el.n == 3
        assert el == EdgeList(list(pairs), 3) == edge_list(iter(pairs))
        assert hash(el) == hash(edge_list(pairs, 3))
        assert el != EdgeList(pairs, 4)
        assert repr(EdgeList(((0, 1),), 2)) == "EdgeList(edges=((0, 1),), n=2)"

    def test_out_of_range_and_malformed_edges_rejected(self):
        for edges, n in ((((0, -1),), 3), (((3, 0),), 3), (((0, 2**70),), 3),
                         (((0, 1, 2),), 3), (((0,),), 3)):
            with pytest.raises(InputError):
                EdgeList(edges, n)
        with pytest.raises(InputError, match="out of range"):
            edge_list([(0, 1), (-1, 0)])

    def test_malformed_inputs_without_a_node_count_rejected(self):
        with pytest.raises(InputError):
            EdgeList.from_arrays([0, 1], [0], 2)
        for edges in ([("a", 1)], [(0, 1, 2)]):
            with pytest.raises(InputError, match="edges must be \\(source, destination\\) pairs"):
                edge_list(edges)
        with pytest.raises(InputError, match="cannot infer node count"):
            edge_list([])
        with pytest.raises(InputError, match="matrix must be square"):
            SparseStochasticMatrix(np.ones((2, 3)))

    def test_load_and_build_make_no_tuple_per_edge(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("n=3\n0\t1\n1\t2\n0\t1\ndangling:2\n")
        el = load_edge_list(path)
        from_edge_list(el)
        assert "edges" not in vars(el)
        assert el.edges == ((0, 1), (1, 2), (0, 1))


def at_matvec(P, x):
    """P x by `@` on the links, the dangling columns gathered through a
    boolean mask over all n entries: the reference that matvec, which calls
    the compiled kernel and gathers by an index array, matches bit for bit."""
    x = np.asarray(x, dtype=float)
    y = P._links @ x
    if P.dangling_columns:
        y += x[_dangling_mask(P)].sum() / P.n
    return y


def at_rmatvec(P, v):
    """P^T v by `@` on the transposed links, the dangling columns scattered
    through the mask: the reference for rmatvec."""
    v = np.asarray(v, dtype=float)
    z = P._links.T @ v
    if P.dangling_columns:
        z[_dangling_mask(P)] += v.sum() / P.n
    return z


def _dangling_mask(P):
    mask = np.zeros(P.n, dtype=bool)
    mask[list(P.dangling_columns)] = True
    return mask


DANGLING_MATRICES = {
    "none": lambda: from_edge_list(edge_list(SEVEN_NODE_EDGES, 7)),
    "a-few": lambda: web_graph(400, 5),
    "all": lambda: from_edge_list(EdgeList((), 50)),
}

# the dangling cases (int64 indices, from edge lists), int32 indices (from a
# dense array) and n = 1
PRODUCT_MATRICES = {
    **DANGLING_MATRICES,
    "dense-int32": lambda: SparseStochasticMatrix.from_dense(SEVEN_NODE_DENSE),
    "n-1-dangling": lambda: from_edge_list(EdgeList((), 1)),
    "n-1-loop": lambda: from_edge_list(EdgeList([(0, 0)], 1)),
}


def _read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


# a float64 vector as the products are handed it, in the forms they accept
VECTOR_FORMS = {
    "contiguous": lambda a: a,
    "strided": lambda a: np.repeat(a, 2)[::2],
    "read-only": _read_only,
    "float32": lambda a: a.astype(np.float32),
    "list": lambda a: a.tolist(),
}

# the 3-node matrix with columns of 1, 1 and 2 links
THREE_NODE = np.array([[0, 1, 0.5], [1, 0, 0.5], [0, 0, 0]])


class TestMatvec:
    def test_identity_fixes_any_vector(self):
        P = SparseStochasticMatrix.from_dense(np.eye(2))
        np.testing.assert_array_equal(P.matvec([0.3, 0.7]), [0.3, 0.7])

    def test_seven_node_fixes_xbar_exactly(self, seven_node):
        np.testing.assert_array_equal(seven_node.matvec(SEVEN_NODE_XBAR), SEVEN_NODE_XBAR)

    def test_seven_node_on_uniform_gives_row_sums(self, seven_node):
        y = seven_node.matvec(uniform_vector(7))
        row_sums = np.array([1 / 3, 1 / 2, 2, 1, 5 / 6, 1, 4 / 3])
        np.testing.assert_allclose(y, row_sums / 7, atol=1e-15)
        assert abs(y[2] - 2 / 7) < 1e-15

    def test_dimension_mismatch_raises(self, seven_node):
        with pytest.raises(InputError):
            seven_node.matvec(np.ones(5) / 5)

    def test_rmatvec_matches_dense_transpose(self, seven_node):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(7)
        np.testing.assert_allclose(seven_node.rmatvec(v),
                                   seven_node.to_dense().T @ v, atol=1e-14)

    @pytest.mark.parametrize("matrix", DANGLING_MATRICES)
    def test_products_with_dangling_columns(self, matrix):
        P = DANGLING_MATRICES[matrix]()
        rng = np.random.default_rng(4)
        x, v = rng.standard_normal(P.n), rng.standard_normal(P.n)
        dense = P.to_dense()
        np.testing.assert_allclose(P.matvec(x), dense @ x, rtol=0, atol=1e-14)
        np.testing.assert_allclose(P.rmatvec(v), dense.T @ v, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("form", VECTOR_FORMS)
    @pytest.mark.parametrize("matrix", PRODUCT_MATRICES)
    def test_products_are_the_at_products_bit_for_bit(self, matrix, form):
        P = PRODUCT_MATRICES[matrix]()
        rng = np.random.default_rng(5)
        x, v = (VECTOR_FORMS[form](rng.standard_normal(P.n)) for _ in range(2))
        y, z = P.matvec(x), P.rmatvec(v)
        assert y.dtype == z.dtype == np.float64
        assert y.tobytes() == at_matvec(P, x).tobytes()
        assert z.tobytes() == at_rmatvec(P, v).tobytes()
        with pytest.raises(InputError):
            P.matvec(np.ones(P.n + 1))
        with pytest.raises(InputError):
            P.rmatvec(np.ones((P.n, 1)))

    def test_index_widths_of_both_builds(self):
        assert PRODUCT_MATRICES["dense-int32"]()._links.indices.dtype == np.int32
        assert PRODUCT_MATRICES["a-few"]()._links.indices.dtype == np.int64

    @pytest.mark.parametrize("matrix", ["none", "a-few", "dense-int32"])
    def test_products_skip_the_matmul_dispatch(self, matrix, monkeypatch):
        P = PRODUCT_MATRICES[matrix]()
        x = np.random.default_rng(6).standard_normal(P.n)
        want_y, want_z = at_matvec(P, x), at_rmatvec(P, x)

        def refuse(*args):
            raise AssertionError("product went through the sparse @ dispatch")

        for cls in (sparse.csc_array, sparse.csr_array):
            monkeypatch.setattr(cls, "_matmul_vector", refuse)
            monkeypatch.setattr(cls, "__matmul__", refuse)
        assert P.matvec(x).tobytes() == want_y.tobytes()
        assert P.rmatvec(x).tobytes() == want_z.tobytes()

    @pytest.mark.parametrize("links", [sparse.csr_array, sparse.coo_array,
                                       sparse.csc_matrix, np.asarray])
    def test_any_link_format_reads_as_csc(self, links):
        want = SparseStochasticMatrix(sparse.csc_array(THREE_NODE))
        P = SparseStochasticMatrix(links(THREE_NODE))
        assert isinstance(P._links, sparse.csc_array)
        x = np.array([0.2, 0.3, 0.5])
        assert P.matvec(x).tobytes() == want.matvec(x).tobytes()
        assert P.rmatvec(x).tobytes() == want.rmatvec(x).tobytes()
        np.testing.assert_array_equal(out_degrees(P), [1, 1, 2])
        assert validate(P) == validate(want)
        assert validate(P).passed

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_matvec_maps_simplex_to_simplex(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        edges = [(int(s), int(d)) for s, d in
                 rng.integers(0, n, size=(int(rng.integers(0, 3 * n + 1)), 2))]
        P = from_edge_list(EdgeList(tuple(edges), n))
        x = rng.dirichlet(np.ones(n))
        y = P.matvec(x)
        assert y.min() >= 0
        assert abs(y.sum() - 1.0) <= 1e-12


def _with_at_products(P):
    """P with its products replaced, on the instance, by the `@` reference."""
    P.matvec = lambda x: at_matvec(P, x)
    P.rmatvec = lambda v: at_rmatvec(P, v)
    return P


def _report_bits(report):
    return (report.final.tobytes(), report.phi_history, report.iterations_used,
            report.stop_reason, report.lower_bound)


SOLVER_MATRICES = {
    "model2-grid-20": lambda: generate(GridModelSpec(20, ModelVariant.MODEL2)),
    "web-300": lambda: web_graph(300, 5),
}

# the route of robust l1g1: eps 1 is below eps_c on the grid, and eps 10 is
# above it on the web graph, which is small enough for the LP
L1G1_ROUTE = {"model2-grid-20": (1.0, STOP_NOMINAL), "web-300": (10.0, STOP_LP)}


class TestSolversKeepTheirBytes:
    """Every solver gives the same bytes with the kernel products as with
    the `@` products."""

    @pytest.mark.parametrize("case", SOLVER_MATRICES)
    def test_nominal_and_pagerank(self, case):
        P, R = SOLVER_MATRICES[case](), _with_at_products(SOLVER_MATRICES[case]())
        for tol in (1e-8, 1e-10):
            assert dominant_eigenvector(P, tol).tobytes() == dominant_eigenvector(R, tol).tobytes()
        assert _report_bits(pagerank(P)) == _report_bits(pagerank(R))

    @pytest.mark.parametrize("pair", list(NormPair))
    @pytest.mark.parametrize("case", SOLVER_MATRICES)
    def test_algorithm1_and_mirror_descent(self, case, pair):
        P, R = SOLVER_MATRICES[case](), _with_at_products(SOLVER_MATRICES[case]())
        eps, route = L1G1_ROUTE[case] if pair is NormPair.L1_G1 else (1.0, None)
        spec = UncertaintySpec(eps, pair, 1.0 / out_degrees(P).astype(float))
        # a cap on the iterations: l1g1 on the web graph never stops early
        assert (_report_bits(regularized_power_method(P, spec, max_iter=2000))
                == _report_bits(regularized_power_method(R, spec, max_iter=2000)))
        report = mirror_descent_minimize(P, spec)
        assert _report_bits(report) == _report_bits(mirror_descent_minimize(R, spec))
        if route:
            assert report.stop_reason == route


# the 3-node links 0 <-> 1, with column 2 storing no link
TWO_LINKS = sparse.csc_array(np.array([[0, 1, 0.0], [1, 0, 0], [0, 0, 0]]))

# a matrix from each constructor path, some with columns that store no link
CONSTRUCTOR_PATHS = {
    "from_edge_list": lambda: from_edge_list(edge_list([(0, 1), (1, 0), (3, 3)], 5)),
    "from_dense": lambda: SparseStochasticMatrix.from_dense(TWO_LINKS.toarray()),
    "set": lambda: SparseStochasticMatrix(TWO_LINKS, {2}),
    "list": lambda: SparseStochasticMatrix(TWO_LINKS, [2, 2]),
    "array": lambda: SparseStochasticMatrix(TWO_LINKS, np.array([2])),
    "none": lambda: SparseStochasticMatrix(TWO_LINKS),
}


class TestDanglingIds:
    @pytest.mark.parametrize("ids", [[-1], [3], [1.5], [2.7], [np.nan], [2**64],
                                     np.array([[2]])])
    def test_ids_outside_or_not_integral_rejected(self, ids):
        with pytest.raises(InputError, match=r"integer ids in \[0, 3\)$"):
            SparseStochasticMatrix(TWO_LINKS, ids)

    @pytest.mark.parametrize("ids", [[2, 1, 2], (1, 2, 1), {1, 2}, frozenset({2, 1}),
                                     np.array([2, 1, 2]), np.array([1, 2], dtype=np.uint8),
                                     [2.0, 1.0]])
    def test_ids_in_any_form_give_one_sorted_index(self, ids):
        P = SparseStochasticMatrix(TWO_LINKS, ids)
        assert isinstance(P.dangling_columns, frozenset)
        assert P.dangling_columns == {1, 2}
        assert {type(j) for j in P.dangling_columns} == {int}
        assert P._dangling_index.dtype == np.int64
        assert P._dangling_index.tolist() == [1, 2]
        assert repr(P) == "SparseStochasticMatrix(n=3, nnz=2, dangling=2)"

    @pytest.mark.parametrize("path", CONSTRUCTOR_PATHS)
    def test_empty_columns_are_the_ones_the_products_leave_empty(self, path):
        P = CONSTRUCTOR_PATHS[path]()
        columns = [P.matvec(e) for e in np.eye(P.n)]
        report = validate(P)
        assert report.empty_columns == tuple(j for j, col in enumerate(columns)
                                             if not col.any())
        assert report.passed == all(abs(col.sum() - 1.0) <= 1e-12 for col in columns)
        np.testing.assert_array_equal(P.column_sums(), [col.sum() for col in columns])


class TestValidate:
    def test_seven_node_passes_with_zero_deviation(self, seven_node):
        report = validate(seven_node, tol=1e-12)
        assert report.passed
        assert report.max_column_sum_deviation == 0.0
        assert report.negative_entry_count == 0
        assert report.empty_columns == ()

    def test_zeroed_column_reported_with_index(self):
        M = SEVEN_NODE_DENSE.copy()
        M[:, 3] = 0.0
        report = validate(SparseStochasticMatrix.from_dense(M))
        assert not report.passed
        assert report.worst_column == 3
        assert 3 in report.empty_columns

    def test_small_perturbation_shows_up_as_deviation(self):
        M = SEVEN_NODE_DENSE.copy()
        M[0, 0] += 1e-6
        report = validate(SparseStochasticMatrix.from_dense(M))
        assert not report.passed
        assert report.max_column_sum_deviation == pytest.approx(1e-6, rel=1e-6)
        assert report.worst_column == 0

    def test_negative_entry_reported(self):
        M = np.array([[0.5, 1.2], [0.5, -0.2]])
        report = validate(SparseStochasticMatrix.from_dense(M))
        assert not report.passed
        assert report.negative_entry_count == 1
        assert report.first_negative == (1, 1, pytest.approx(-0.2))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_from_edge_list_always_validates_at_1e12(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        edges = [(int(s), int(d)) for s, d in
                 rng.integers(0, n, size=(int(rng.integers(0, 5 * n)), 2))]
        P = from_edge_list(EdgeList(tuple(edges), n))
        assert validate(P, tol=1e-12).passed


def reachable_everywhere(P) -> bool:
    """Whether every node reaches every other in the graph of the dense
    P > 0, by squaring the reachability matrix of I + P > 0."""
    reach = (P.to_dense() > 0) | np.eye(P.n, dtype=bool)
    for _ in range(max(1, P.n).bit_length()):
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
    return bool(reach.all())


class TestIsIrreducible:
    def test_the_seven_node_graph_drains_into_a_cycle(self, seven_node):
        assert not graph_matrix.is_irreducible(seven_node)

    @pytest.mark.parametrize("edges, n, want", [
        ([(0, 1), (1, 0)], 2, True),                     # one component
        ([(0, 1)], 2, True),                             # closed class: dangling node 1
        ([(0, 1), (0, 2)], 3, True),                     # two dangling closed classes
        ([(0, 1), (1, 1)], 2, False),                    # an absorbing node
        ([(0, 1), (1, 0), (2, 3), (3, 2)], 4, False),    # two closed classes
        ([(0, 1), (1, 0), (2, 0)], 4, False),            # a closed class beside dangling 3
        ([], 1, True),
    ])
    def test_small_graphs(self, edges, n, want):
        assert graph_matrix.is_irreducible(from_edge_list(edge_list(edges, n))) is want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_dense_reachability(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        edges = [(int(s), int(d)) for s, d in
                 rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))]
        P = from_edge_list(EdgeList(tuple(edges), n))
        assert graph_matrix.is_irreducible(P) == reachable_everywhere(P)


def reference_period(P) -> int:
    """The lcm over P's closed classes of the gcd of the k <= n at which
    some node of the class returns to itself in k steps, read off boolean
    powers of the dense P (a dangling column links to every node)."""
    step = P.to_dense() > 0                 # step[i, j]: j links to i
    reach = step | np.eye(P.n, dtype=bool)
    for _ in range(max(1, P.n).bit_length()):
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
    period = 1
    for j in range(P.n):
        ahead = reach[:, j]                 # the nodes j reaches
        if not reach[j, ahead].all() or np.flatnonzero(ahead & reach[j])[0] != j:
            continue                        # not closed, or not its class's first node
        cls = np.flatnonzero(ahead)
        block = step[np.ix_(cls, cls)].astype(np.int64)
        power, g = np.eye(cls.size, dtype=np.int64), 0
        for k in range(1, cls.size + 1):
            power = np.minimum(power @ block, 1)
            if power.diagonal().any():
                g = math.gcd(g, k)
        period = math.lcm(period, g)
    return period


class TestCyclicPeriod:
    @pytest.mark.parametrize("side", [2, 3, 20, 60])
    def test_model2_grid_has_period_2s_minus_1(self, side):
        P = generate(GridModelSpec(side, ModelVariant.MODEL2))
        assert graph_matrix.cyclic_period(P) == 2 * side - 1

    @pytest.mark.parametrize("edges, n, want", [
        (PERIOD_3_EDGES, 10, 3),
        (SEVEN_NODE_EDGES, 7, 2),                        # closed class {5, 6}
        ([(0, 1), (1, 2)], 3, 1),                        # only dangling node 2 closed
        ([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)], 8, 15),
        ([(0, 1), (1, 0), (0, 0)], 2, 1),                # a self-loop
        ([(0, 1), (1, 0), (2, 0)], 4, 2),                # a closed class beside dangling 3
        ([], 1, 1),
    ])
    def test_small_graphs(self, edges, n, want):
        assert graph_matrix.cyclic_period(from_edge_list(edge_list(edges, n))) == want

    def test_model1_grid_is_aperiodic(self):
        P = generate(GridModelSpec(30, ModelVariant.MODEL1))
        assert graph_matrix.cyclic_period(P) == 1

    def test_returns_a_python_int(self):
        assert type(graph_matrix.cyclic_period(web_graph(500, 3))) is int

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_dense_closed_walks(self, seed):
        # sparse random graphs, where cycles of several lengths and several
        # closed classes are common
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        edges = [(int(s), int(d)) for s, d in
                 rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))]
        P = from_edge_list(EdgeList(tuple(edges), n))
        assert graph_matrix.cyclic_period(P) == reference_period(P)


class TestStructureKept:
    """is_irreducible and cyclic_period keep their answers on the matrix."""

    @staticmethod
    def _counted_passes(monkeypatch):
        passes = []
        real = graph_matrix._closed_classes

        def counted(P):
            passes.append(P)
            return real(P)

        monkeypatch.setattr(graph_matrix, "_closed_classes", counted)
        return passes

    @pytest.mark.parametrize("first", ["nominal", "robust l1g1"])
    def test_each_pass_runs_once_per_matrix(self, monkeypatch, first):
        # the periodic Model 2 grid: irreducible, and its nominal solve needs
        # the period past its first round
        want = dominant_eigenvector(generate(GridModelSpec(20, ModelVariant.MODEL2)), 1e-10)
        passes = self._counted_passes(monkeypatch)
        P = generate(GridModelSpec(20, ModelVariant.MODEL2))
        spec = UncertaintySpec(1.0, NormPair.L1_G1, 1.0 / out_degrees(P).astype(float))
        calls = {"nominal": lambda: dominant_eigenvector(P, 1e-10).tobytes(),
                 "robust l1g1": lambda: mirror_descent_minimize(P, spec).stop_reason}
        order = [first] + [name for name in calls if name != first]
        got = {name: {calls[name]() for _ in range(3)} for name in order}
        assert got == {"nominal": {want.tobytes()}, "robust l1g1": {STOP_NOMINAL}}
        # cyclic_period's pass tells is_irreducible's answer too, not the reverse
        assert len(passes) == (1 if first == "nominal" else 2)
        assert graph_matrix.is_irreducible(P) is True
        assert graph_matrix.cyclic_period(P) == 39
        assert len(passes) == (1 if first == "nominal" else 2)

    def test_a_reducible_web_graph_takes_its_period_once(self, monkeypatch):
        passes = self._counted_passes(monkeypatch)
        P = web_graph(2000, 14)
        xs = [dominant_eigenvector(P, 1e-10) for _ in range(3)]
        assert len(passes) == 1
        assert graph_matrix.is_irreducible(P) is False
        assert len(passes) == 1
        assert xs[0].tobytes() == xs[1].tobytes() == xs[2].tobytes()


class TestResidual:
    def test_zero_at_the_dominant_eigenvector(self, seven_node):
        assert residual(seven_node, SEVEN_NODE_XBAR, "l1") == 0.0
        assert residual(seven_node, SEVEN_NODE_XBAR, "l2") == 0.0

    def test_swap_matrix_vertex_has_l1_residual_two(self):
        P = SparseStochasticMatrix.from_dense([[0, 1], [1, 0]])
        assert residual(P, np.array([1.0, 0.0]), "l1") == pytest.approx(2.0)

    def test_uniform_l2_residual_on_seven_node(self, seven_node):
        expected = np.sqrt(11 / 6) / 7        # cross-checked by hand row sums
        assert residual(seven_node, uniform_vector(7), "l2") == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.19343, abs=5e-6)

    def test_unknown_norm_rejected(self, seven_node):
        with pytest.raises(InputError):
            residual(seven_node, uniform_vector(7), "linf")

    def test_keeps_the_bits_of_the_expression(self):
        # the difference is taken in the product's own array
        P = web_graph(2000, 29)
        x = np.random.default_rng(29).dirichlet(np.ones(P.n))
        r = P.matvec(x) - x
        assert residual(P, x, "l1") == float(np.abs(r).sum())
        assert residual(P, x, "l2") == float(np.linalg.norm(r))

    def test_bounded_by_two_on_the_simplex(self, seven_node):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.dirichlet(np.ones(7))
            r = residual(seven_node, x, "l1")
            assert 0.0 <= r <= 2.0 + 1e-12


class TestEdgeListText:
    def test_parses_tabs_comments_and_header(self):
        text = "# a comment\nn=4\n0\t1\n1\t2\n"
        el = parse_edge_list(text)
        assert el.n == 4
        assert el.edges == ((0, 1), (1, 2))

    def test_node_count_defaults_to_max_id_plus_one(self):
        assert parse_edge_list("0\t5\n").n == 6

    def test_dangling_directive_extends_node_count(self):
        el = parse_edge_list("0\t1\ndangling:3\n")
        assert el.n == 4
        P = from_edge_list(el)
        assert {1, 2, 3} <= P.dangling_columns

    @pytest.mark.parametrize("text,edges,n", [
        ("+1\t2\n", ((1, 2),), 3),
        ("007\t1_0\n-0\t+007\n", ((7, 10), (0, 7)), 11),
        ("0\t1\r\n1\t2\r\n", ((0, 1), (1, 2)), 3),
        ("0 1\n1  \t 2\n  2\t0  \n", ((0, 1), (1, 2), (2, 0)), 3),
        ("n=5\n# a comment after the header\n0\t4\n", ((0, 4),), 5),
        ("\n   \n#\n0\t1", ((0, 1),), 2),
        ("0\u3000\x1f1\n", ((0, 1),), 2),
        ("\u0663\t1\n", ((3, 1),), 4),
        ("\uff11\t0\n", ((1, 0),), 2),
        ("0\xa01\n", ((0, 1),), 2),
        ("0\u20091\n", ((0, 1),), 2),
    ])
    def test_accepted_forms(self, text, edges, n):
        el = parse_edge_list(text)
        assert el.edges == edges
        assert el.n == n

    def test_bad_lines_rejected(self):
        for line in ("0", "a\tb", "n=x", "dangling:z", "0\t1\t2", "1\t2.0", "0\t99999999999999999999",
                     "0\t\ud800", "0\t1\x00"):
            with pytest.raises(InputError, match="^line 1: "):
                parse_edge_list(line + "\n")
            # the first bad line is named, CRLF counting as one line break
            with pytest.raises(InputError, match="^line 4: "):
                parse_edge_list("# a comment\r\n0\t1\n\n" + line + "\n2\tq\n")

    def test_node_count_smaller_than_the_largest_id_rejected(self):
        with pytest.raises(InputError, match=r"^line 3: edge \(0, 5\) out of range for n=3"):
            parse_edge_list("n=3\n0\t1\n0\t5\n")
        with pytest.raises(InputError, match=r"^line 2: edge \(-1, 0\) out of range"):
            parse_edge_list("0\t1\n-1\t0\n")

    def test_dangling_directive_outside_the_node_count_rejected(self):
        with pytest.raises(InputError, match="^line 3: dangling node 7 out of range for n=3"):
            parse_edge_list("n=3\n0\t1\ndangling:7\n")
        with pytest.raises(InputError, match="^line 2: dangling node -2 out of range for n=2"):
            parse_edge_list("0\t1\ndangling:-2\n")

    def test_no_nodes_rejected(self):
        for text in ("", "# only a comment\n", "n=0\n", "n=0\n0\t1\n"):
            with pytest.raises(InputError, match="declares no nodes"):
                parse_edge_list(text)

    def test_roundtrip_preserves_the_matrix(self, seven_node):
        el = edge_list(SEVEN_NODE_EDGES, 7)
        back = parse_edge_list(edge_list_text(el))
        assert back.n == 7
        np.testing.assert_array_equal(from_edge_list(back).to_dense(),
                                      seven_node.to_dense())


def _id_text(draw):
    """An id as canonical text writes it, or with leading zeros, 18 to 20
    digits, or near 2**63."""
    low, high = draw(st.sampled_from(((0, 12),) * 6 + ((0, 10**6), (10**17, 10**20),
                                                       (2**63 - 3, 2**63 + 3))))
    value = draw(st.integers(low, high))
    return "0" * draw(st.sampled_from((0, 0, 0, 1, 5))) + str(value)


@st.composite
def edge_list_texts(draw):
    """(text, canonical): edge-list text of canonical lines, edges among
    interleaved headers, directives, comments and blank lines, and whether it
    is still canonical after up to two inserted characters."""
    lines, canonical = [], True
    for kind in draw(st.lists(st.sampled_from("eeeeehdcb"), max_size=12)):
        if kind == "e":
            words = _id_text(draw), _id_text(draw)
            lines.append(words[0] + draw(st.sampled_from("\t\t ")) + words[1])
        elif kind in "hd":
            words = (_id_text(draw),)
            lines.append(("n=" if kind == "h" else "dangling:") + words[0])
        else:
            words = ()
            chars = st.sampled_from("ab #\t0" * 3 + "\r\x0b\xe9")
            lines.append("" if kind == "b" else "#" + draw(st.text(chars, max_size=5)))
            canonical = canonical and lines[-1].isascii() and not set(lines[-1]) & set("\r\x0b")
        canonical = canonical and all(len(w) <= 18 for w in words)
    text = "\n".join(lines) + draw(st.sampled_from(("\n", "")))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from("\r \t+x\xe9\x1f\x1c\u3000\x85#n")) + text[at:]
        canonical = False
    return text, canonical


def _parsed(parse, text):
    try:
        return parse(text)
    except InputError as exc:
        return str(exc)


def _random_edges(n, m, seed):
    rng = np.random.default_rng(seed)
    return EdgeList.from_arrays(rng.integers(0, n, m), rng.integers(0, n, m), n)


class TestCanonicalParse:
    @settings(max_examples=600, deadline=None)
    @given(edge_list_texts())
    @example(("n=5\n0\t4\ndangling:3\n# a\tcomment\n\n1 2", True))
    @example(("0000000000000000001\t0\n", False))
    @example(("0\t9223372036854775808\n", False))
    @example(("n=3\r\n0\t1\n", False))
    @example(("0\t1 \n", False))
    @example(("0\t\xe9\n", False))
    @example(("# \x0b0\t1\nn=1\n", False))
    @example(("0x1\n", False))
    @example(("1\x1f2\n", False))
    @example(("0\x0c1\n", False))
    def test_same_edge_list_or_error_as_the_general_parser(self, case):
        text, canonical = case
        general = _parsed(_parse_general, text)
        assert _parsed(parse_edge_list, text) == general
        if canonical and isinstance(general, EdgeList):
            assert _parse_canonical(text) == general

    @settings(max_examples=100, deadline=None)
    @given(edge_lists())
    def test_written_text_takes_the_canonical_path(self, edges):
        assert _parse_canonical(edge_list_text(edges)) == edges

    def test_saved_files_load_without_the_general_parser(self, tmp_path, monkeypatch):
        def general(text):
            raise AssertionError("the general parser was called")
        monkeypatch.setattr(graph_matrix, "_parse_general", general)
        path = tmp_path / "g.tsv"
        for edges in (edge_list(SEVEN_NODE_EDGES, 7), EdgeList((), 3),
                      EdgeList(((0, 0),), 1), _random_edges(2000, 8000, 5)):
            save_edge_list(path, edges)
            assert load_edge_list(path) == edges

    def test_peak_memory_at_most_five_bytes_per_character(self):
        text = edge_list_text(_random_edges(25_000, 100_000, 6))
        tracemalloc.start()
        try:
            edges = parse_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert edges.n == 25_000
        assert peak <= 5 * len(text)

    def test_undecodable_file_names_its_line(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_bytes(b"n=3\r\n0\t1\r1\t2\n# \xff\n")
        with pytest.raises(InputError, match="^line 4: not valid UTF-8$"):
            load_edge_list(path)

    def test_file_line_breaks_read_as_text_mode_reads_them(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_bytes(b"n=4\r\n0\t1\r1\t2\r\n\r\n2\t3")
        with open(path, encoding="utf-8") as fh:
            assert load_edge_list(path) == parse_edge_list(fh.read())

