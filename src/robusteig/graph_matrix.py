"""Sparse column-stochastic matrices built from directed-graph edge lists.

A link j -> i contributes an entry 1/n_j in column j (n_j = out-degree of j).
Columns with no outgoing links ("dangling") are repaired to the uniform
distribution over all n nodes, including the node itself.  The uniform repair
is stored implicitly (a set of column indices plus the 1/n value) so large
graphs stay sparse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

COLUMN_SUM_TOL = 1e-12
SIMPLEX_TOL = 1e-9


class InputError(ValueError):
    """Malformed graph input (bad endpoint, empty graph, unparseable line)."""


@dataclass(frozen=True)
class EdgeList:
    """Directed edges (source, destination) over nodes 0..n-1.

    Duplicate edges are permitted here; they are collapsed to a single link
    when the matrix is built (a page either cites another page or it does not).
    """

    edges: tuple[tuple[int, int], ...]
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"node count must be >= 1, got {self.n}")
        for s, d in self.edges:
            if not (0 <= s < self.n and 0 <= d < self.n):
                raise InputError(f"edge ({s}, {d}) out of range for n={self.n}")


def edge_list(edges, n=None) -> EdgeList:
    """Build an EdgeList, inferring n = max id + 1 when not given."""
    edges = tuple((int(s), int(d)) for s, d in edges)
    if n is None:
        if not edges:
            raise InputError("cannot infer node count from an empty edge list")
        n = 1 + max(max(s, d) for s, d in edges)
    return EdgeList(edges, int(n))


@dataclass(frozen=True)
class ValidationReport:
    """Result of checking stochasticity; report-only, never raises."""

    tol: float
    max_column_sum_deviation: float
    worst_column: int
    negative_entry_count: int
    first_negative: tuple[int, int, float] | None
    empty_columns: tuple[int, ...]
    passed: bool


class SparseStochasticMatrix:
    """Column-stochastic matrix: explicit CSC links + implicit uniform columns.

    Immutable after construction; safe to share across threads.
    """

    def __init__(self, links: sparse.csc_array, dangling_columns=frozenset()):
        n, m = links.shape
        if n != m:
            raise InputError(f"matrix must be square, got {links.shape}")
        self.n = n
        self._links = links
        # CSR view of the transpose: shares the data, index and pointer arrays
        self._links_t = links.T
        self.dangling_columns = frozenset(int(j) for j in dangling_columns)
        self._dangling_mask = np.zeros(n, dtype=bool)
        for j in self.dangling_columns:
            self._dangling_mask[j] = True

    @property
    def nnz(self) -> int:
        """Stored link entries (implicit dangling columns not counted)."""
        return self._links.nnz

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return P @ x; maps the simplex into itself."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise InputError(f"vector has shape {x.shape}, expected ({self.n},)")
        y = self._links @ x
        if self.dangling_columns:
            y += x[self._dangling_mask].sum() / self.n
        return y

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """Return P.T @ v (used by subgradients)."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise InputError(f"vector has shape {v.shape}, expected ({self.n},)")
        y = self._links_t @ v
        if self.dangling_columns:
            y[self._dangling_mask] += v.sum() / self.n
        return y

    def column_sums(self) -> np.ndarray:
        s = np.asarray(self._links.sum(axis=0)).ravel()
        if self.dangling_columns:
            s = s.copy()
            s[self._dangling_mask] += 1.0
        return s

    def to_dense(self) -> np.ndarray:
        dense = self._links.toarray()
        for j in self.dangling_columns:
            dense[:, j] += 1.0 / self.n
        return dense

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "SparseStochasticMatrix":
        """Wrap a dense array without repair or checks (for validation tests)."""
        matrix = np.asarray(matrix, dtype=float)
        return cls(sparse.csc_array(matrix), frozenset())

    def __repr__(self):
        return (f"SparseStochasticMatrix(n={self.n}, nnz={self.nnz}, "
                f"dangling={len(self.dangling_columns)})")


def from_edge_list(edges: EdgeList) -> SparseStochasticMatrix:
    """Build the column-stochastic link matrix of a directed graph.

    Column j holds n_j equal entries 1/n_j at the rows j links to; duplicate
    edges collapse to one link before n_j is counted.  Dangling columns are
    repaired to uniform over all n nodes.
    """
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
    # guard against accumulated rounding in columns with many links
    sums = np.asarray(links.sum(axis=0)).ravel()
    off = (out_degree > 0) & (np.abs(sums - 1.0) > 1e-15)
    if off.any():
        scale = np.ones(n)
        scale[off] = 1.0 / sums[off]
        links = links @ sparse.diags_array(scale, format="csc")
        links = sparse.csc_array(links)
    dangling = frozenset(int(j) for j in np.flatnonzero(out_degree == 0))
    return SparseStochasticMatrix(links, dangling)


def out_degrees(P: SparseStochasticMatrix) -> np.ndarray:
    """Out-degree per node; dangling nodes count n (uniform repair)."""
    deg = np.diff(P._links.indptr)
    deg = deg.astype(np.int64)
    for j in P.dangling_columns:
        deg[j] = P.n
    return deg


def validate(P: SparseStochasticMatrix, tol: float = COLUMN_SUM_TOL) -> ValidationReport:
    """Check stochasticity: column sums, nonnegativity, empty columns."""
    sums = P.column_sums()
    dev = np.abs(sums - 1.0)
    worst = int(dev.argmax()) if P.n else 0
    data = P._links.data
    neg = np.flatnonzero(data < 0)
    first_negative = None
    if neg.size:
        coo = P._links.tocoo()
        k = neg[0]
        first_negative = (int(coo.row[k]), int(coo.col[k]), float(coo.data[k]))
    explicit_counts = np.diff(P._links.indptr)
    empty = tuple(
        int(j) for j in np.flatnonzero(explicit_counts == 0) if j not in P.dangling_columns
    )
    passed = dev[worst] <= tol and neg.size == 0 and not empty
    return ValidationReport(
        tol=tol,
        max_column_sum_deviation=float(dev[worst]),
        worst_column=worst,
        negative_entry_count=int(neg.size),
        first_negative=first_negative,
        empty_columns=empty,
        passed=bool(passed),
    )


def residual(P: SparseStochasticMatrix, x: np.ndarray, norm: str = "l1") -> float:
    """Return ||P x - x|| in the chosen norm; zero iff x is a fixed point."""
    r = P.matvec(x) - np.asarray(x, dtype=float)
    if norm == "l1":
        return float(np.abs(r).sum())
    if norm == "l2":
        return float(np.linalg.norm(r))
    raise InputError(f"unknown norm: {norm!r}")


def uniform_vector(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def is_score_vector(x: np.ndarray, tol: float = SIMPLEX_TOL) -> bool:
    x = np.asarray(x, dtype=float)
    return bool(x.ndim == 1 and (x >= -tol).all() and abs(x.sum() - 1.0) <= tol)


def check_score_vector(x: np.ndarray, tol: float = SIMPLEX_TOL) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not is_score_vector(x, tol):
        raise InputError("vector is not on the probability simplex")
    return x


# --- edge-list text format -------------------------------------------------
#
#   # comment
#   n=<count>          (optional; otherwise node count = max id + 1)
#   dangling:<id>      (declares a node with no outgoing links)
#   <src>\t<dst>       (one edge per line, 0-based ids)

def parse_edge_list(text: str) -> EdgeList:
    edges = []
    declared_n = None
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("n="):
            try:
                declared_n = int(line[2:])
            except ValueError:
                raise InputError(f"line {lineno}: bad node-count header {line!r}") from None
            continue
        if line.startswith("dangling:"):
            try:
                node = int(line.split(":", 1)[1])
            except ValueError:
                raise InputError(f"line {lineno}: bad dangling directive {line!r}") from None
            max_id = max(max_id, node)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'src<TAB>dst', got {line!r}")
        try:
            s, d = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: non-integer node id in {line!r}") from None
        edges.append((s, d))
        max_id = max(max_id, s, d)
    n = declared_n if declared_n is not None else max_id + 1
    if n < 1:
        raise InputError("edge list declares no nodes")
    return EdgeList(tuple(edges), n)


def load_edge_list(path) -> EdgeList:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def edge_list_text(edges: EdgeList, dangling_directives: bool = True) -> str:
    """Serialize in the canonical text format (dangling nodes as directives)."""
    lines = [f"n={edges.n}"]
    has_out = np.zeros(edges.n, dtype=bool)
    for s, _ in edges.edges:
        has_out[s] = True
    for s, d in edges.edges:
        lines.append(f"{s}\t{d}")
    if dangling_directives:
        for j in np.flatnonzero(~has_out):
            lines.append(f"dangling:{int(j)}")
    return "\n".join(lines) + "\n"


def save_edge_list(path, edges: EdgeList, dangling_directives: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edge_list_text(edges, dangling_directives))
