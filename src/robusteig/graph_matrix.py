"""Sparse column-stochastic matrices built from directed-graph edge lists.

A link j -> i contributes an entry 1/n_j in column j (n_j = out-degree of j).
Columns with no outgoing links ("dangling") are repaired to the uniform
distribution over all n nodes, including the node itself.  The uniform repair
is stored implicitly (a sorted array of the column indices plus the 1/n
value) so large graphs stay sparse.

Edges travel from the text format to the matrix as two int64 arrays, sources
and destinations.  Canonical text, which is what `edge_list_text` writes, is
parsed by O(m) array work: uint8 and bool operations over its bytes and one
C-level integer parse, with no Python object per line or edge.  Any other
text is read one line at a time by str methods and int().  Building is O(m)
array work plus one sort of the m keys `s * n + d`, which collapses
duplicate edges and puts the links in CSC order, so the CSC arrays are read
off the sorted keys, with no COO stage.  `EdgeList.edges`, the tuple of
(source, destination) pairs, is built only when it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
# scipy's private module of compiled sparse kernels, the ones `@` ends in
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

COLUMN_SUM_TOL = 1e-12
SIMPLEX_TOL = 1e-9
_MAX_KEYED_NODES = 3_037_000_499          # the largest n with n * n < 2**63


class InputError(ValueError):
    """Malformed graph input (bad endpoint, empty graph, unparseable line)."""


class EdgeList:
    """Directed edges (source, destination) over nodes 0..n-1.

    Duplicate edges are permitted here; they are collapsed to a single link
    when the matrix is built (a page either cites another page or it does not).
    The edges are held as two read-only int64 arrays; `edges`, the tuple of
    pairs, is built when it is first read.
    """

    def __init__(self, edges, n: int):
        pairs = _pairs(edges)
        self._init(pairs[:, 0], pairs[:, 1], n)

    @classmethod
    def from_arrays(cls, src, dst, n: int) -> "EdgeList":
        """Edges from equal-length integer arrays of sources and destinations."""
        self = cls.__new__(cls)
        self._init(src, dst, n)
        return self

    def _init(self, src, dst, n):
        if n < 1:
            raise InputError(f"node count must be >= 1, got {n}")
        src, dst = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
        if src.ndim != 1 or src.shape != dst.shape:
            raise InputError("sources and destinations must be 1-d arrays of one length")
        bad = np.flatnonzero(_outside(src, n) | _outside(dst, n))
        if bad.size:
            k = bad[0]
            raise InputError(f"edge ({src[k]}, {dst[k]}) out of range for n={n}")
        src.flags.writeable = dst.flags.writeable = False
        self.n, self._src, self._dst = int(n), src, dst

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self._src.tolist(), self._dst.tolist()))

    def __eq__(self, other):
        if not isinstance(other, EdgeList):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self._src, other._src)
                and np.array_equal(self._dst, other._dst))

    def __hash__(self):
        return hash((self.n, self._src.tobytes(), self._dst.tobytes()))

    def __repr__(self):
        return f"EdgeList(edges={self.edges!r}, n={self.n})"


def _pairs(edges) -> np.ndarray:
    """The edges as an (m, 2) int64 array, ids read as int() reads them."""
    if not isinstance(edges, (list, tuple, np.ndarray)):
        edges = list(edges)
    try:
        pairs = np.array(edges, dtype=np.int64)
    except OverflowError:
        raise InputError("node id outside the int64 range") from None
    except (TypeError, ValueError):
        raise InputError("edges must be (source, destination) pairs") from None
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InputError("edges must be (source, destination) pairs")
    return pairs


def _outside(ids: np.ndarray, n: int) -> np.ndarray:
    """Mask of the int64 ids outside [0, n), by one unsigned comparison (a
    negative id reads as one above 2**63)."""
    return ids.view(np.uint64) >= n


def edge_list(edges, n=None) -> EdgeList:
    """Build an EdgeList, inferring n = max id + 1 when not given."""
    pairs = _pairs(edges)
    if n is None:
        if not pairs.size:
            raise InputError("cannot infer node count from an empty edge list")
        n = 1 + int(pairs.max())
    return EdgeList.from_arrays(pairs[:, 0], pairs[:, 1], int(n))


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

    Links in any other form (CSR, COO, a sparse matrix, a dense array) are
    converted to a CSC array.  The dangling column ids, any iterable of
    integers in [0, n) (else InputError), are kept as one sorted int64
    index without repeats, which every product and check reads;
    `dangling_columns`, the frozenset of the same ids, is made from it once.
    Immutable after construction; safe to share across threads.

    is_irreducible and cyclic_period keep their results on the matrix, a
    bool and an int, so that each strong-component pass runs once per
    matrix; two threads that ask at once may both run it, to the same
    result.

    `matvec` and `rmatvec` call scipy's compiled kernels, `csc_matvec` and
    `csr_matvec`, on the CSC arrays (read as CSR they are the transpose),
    the kernels `links @ x` ends in, so every product keeps its bits.  They
    live in `scipy.sparse._sparsetools`, a private module whose signature
    has held for many releases; a scipy without it fails at import.  Going
    round `@`'s Python dispatch cut a matvec from 6.7 to 3.1-3.4 us on the
    Model 2 grid of side 20 (n = 400) and from 18-22 to 14-16 us on a
    2000-node web graph with 103 dangling columns; on a 1e5-node one with
    3.7e5 links it stays at 1.5 ms, the kernel's own time (2-core x86-64,
    scipy 1.17.1).
    """

    def __init__(self, links, dangling_columns=frozenset()):
        if not isinstance(links, sparse.csc_array):
            links = sparse.csc_array(links)
        n, m = links.shape
        if n != m:
            raise InputError(f"matrix must be square, got {links.shape}")
        self.n = n
        self._links = links
        self._csc = (links.indptr, links.indices, links.data)
        # ascending, so a gather reads what a boolean mask would, in its
        # order, without a pass over all n entries
        self._dangling_index = _dangling_index(dangling_columns, n)
        self.dangling_columns = frozenset(self._dangling_index.tolist())
        # is_irreducible(self) and cyclic_period(self), once either is asked
        self._irreducible: bool | None = None
        self._period: int | None = None

    @property
    def nnz(self) -> int:
        """Stored link entries (implicit dangling columns not counted)."""
        return self._links.nnz

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return P @ x; maps the simplex into itself."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise InputError(f"vector has shape {x.shape}, expected ({self.n},)")
        y = np.zeros(self.n)
        csc_matvec(self.n, self.n, *self._csc, x, y)
        if self._dangling_index.size:
            y += x[self._dangling_index].sum() / self.n
        return y

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """Return P.T @ v (used by subgradients)."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise InputError(f"vector has shape {v.shape}, expected ({self.n},)")
        y = np.zeros(self.n)
        csr_matvec(self.n, self.n, *self._csc, v, y)
        if self._dangling_index.size:
            y[self._dangling_index] += v.sum() / self.n
        return y

    def column_sums(self) -> np.ndarray:
        s = np.asarray(self._links.sum(axis=0)).ravel()
        s[self._dangling_index] += 1.0
        return s

    def to_dense(self) -> np.ndarray:
        dense = self._links.toarray()
        dense[:, self._dangling_index] += 1.0 / self.n
        return dense

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "SparseStochasticMatrix":
        """Wrap a dense array without repair or checks (for validation tests)."""
        matrix = np.asarray(matrix, dtype=float)
        return cls(sparse.csc_array(matrix), frozenset())

    def __repr__(self):
        return (f"SparseStochasticMatrix(n={self.n}, nnz={self.nnz}, "
                f"dangling={self._dangling_index.size})")


def _dangling_index(ids, n: int) -> np.ndarray:
    """The dangling column ids, sorted and without repeats, as int64;
    InputError unless each is an integer (2.0 is, 1.5 is not) in [0, n)."""
    ids = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids))
    mask = np.zeros(n, dtype=bool)
    if ids.size:
        try:
            with np.errstate(invalid="ignore"):     # NaN and inf fail the test below
                index = ids.astype(np.int64)
            bad = ids.ndim != 1 or (index != ids).any() or _outside(index, n).any()
        except (OverflowError, ValueError):         # beyond int64, or not numbers
            bad = True
        if bad:
            raise InputError(f"dangling columns must be integer ids in [0, {n})")
        mask[index] = True
    return np.flatnonzero(mask)


def from_edge_list(edges: EdgeList) -> SparseStochasticMatrix:
    """Build the column-stochastic link matrix of a directed graph.

    Column j holds n_j equal entries 1/n_j at the rows j links to; duplicate
    edges collapse to one link before n_j is counted.  Dangling columns are
    repaired to uniform over all n nodes.  No column is rescaled: n_j
    copies of fl(1/n_j) sum exactly to within 2^-53 of 1.
    """
    n = edges.n
    if n > _MAX_KEYED_NODES:
        raise InputError(f"node count {n} too large: the keys s * n + d overflow int64")
    # the distinct keys s * n + d in ascending order, which is the (s, d) order
    # of sorted(set(pairs)); np.unique would do, but since numpy 2.3 it goes
    # through a hash table, 30 times slower here than the sort
    keys = np.sort(edges._src * n + edges._dst)
    first = np.empty(keys.size, dtype=bool)         # each key's first copy
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    src, dst = np.divmod(keys[first], n)
    out_degree = np.bincount(src, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(out_degree)))   # keys sort by column
    links = sparse.csc_array((1.0 / out_degree[src], dst, indptr), shape=(n, n))
    return SparseStochasticMatrix(links, np.flatnonzero(out_degree == 0))


def out_degrees(P: SparseStochasticMatrix) -> np.ndarray:
    """Out-degree per node; dangling nodes count n (uniform repair)."""
    deg = np.diff(P._links.indptr).astype(np.int64)
    deg[P._dangling_index] = P.n
    return deg


def _closed_classes(P: SparseStochasticMatrix):
    """The strong components of P's link graph, and which of them are closed.

    One pass of scipy.sparse.csgraph, no matvec.  Returns the link graph as
    CSR (row j holds the nodes j links to), the source node of each of its
    links, the component label of each node, and a mask over the components
    of the closed ones: those that no link leaves and that hold no dangling
    node.  A dangling node is closed in the link graph but links to all n
    nodes in P, so its component is not closed in P.
    """
    links_t = P._links.T            # a CSR view of the same arrays
    count, labels = csgraph.connected_components(links_t, directed=True,
                                                 connection="strong")
    source = np.repeat(np.arange(P.n), np.diff(links_t.indptr))
    tail = labels[source]
    closed = np.ones(count, dtype=bool)
    closed[tail[tail != labels[links_t.indices]]] = False
    closed[labels[P._dangling_index]] = False
    return links_t, source, labels, closed


def is_irreducible(P: SparseStochasticMatrix) -> bool:
    """Whether every node of P reaches every other along its links.

    One pass over the strong components of the link graph, no matvec,
    shared with cyclic_period (_closed_classes), and none once either has
    run on P, which keeps the answer.  Following links, every node reaches
    a closed component, one that no link leaves.  A dangling node's
    component is not closed in P, whose dangling columns link to all n
    nodes; any other closed component, beside a second component, reaches
    no node outside it.  So P is irreducible when the link graph is one
    component, or when no component is closed in P.
    """
    if P._irreducible is None:
        _, _, _, closed = _closed_classes(P)
        P._irreducible = _irreducible(closed)
    return P._irreducible


def _irreducible(closed: np.ndarray) -> bool:
    """Whether P is irreducible, from the mask of its closed components."""
    return bool(closed.size == 1 or not closed.any())


def cyclic_period(P: SparseStochasticMatrix) -> int:
    """The lcm of the periods of P's closed classes, 1 if none is closed.

    A closed class of period d puts exactly the d-th roots of unity among
    P's eigenvalues, semisimple (Perron-Frobenius for cyclic matrices;
    Meyer, Matrix Analysis, 8.4), and the transient nodes add none of
    modulus 1; so an average of a multiple of the returned period of
    consecutive power terms cancels every unit-circle eigenvalue but 1.

    No matvec: the strong-component pass of _closed_classes, then one
    breadth-first pass from one root per closed class, and neither after
    the first call on P, which keeps the period (and is_irreducible's
    answer, read off the same pass).  A closed class reaches only itself,
    so each of its nodes gets its level below its own class's root, and
    the class's period is the gcd of level(u) + 1 - level(v) over its links
    u -> v.  The lcm is taken on Python ints.
    """
    if P._period is None:
        P._period = _cyclic_period(P)
    return P._period


def _cyclic_period(P: SparseStochasticMatrix) -> int:
    """cyclic_period(P), computed; records is_irreducible(P) on the way."""
    links_t, source, labels, closed = _closed_classes(P)
    P._irreducible = _irreducible(closed)
    if not closed.any():
        return 1
    root = np.empty(closed.size, dtype=np.int64)
    root[labels] = np.arange(P.n)                   # some node of each class
    level = csgraph.dijkstra(links_t, indices=root[closed], unweighted=True,
                             min_only=True)
    inside = closed[labels[source]]       # a closed class's links stay in it
    tail, head = source[inside], links_t.indices[inside]
    shift = (level[tail] + 1.0 - level[head]).astype(np.int64)
    period = np.zeros(closed.size, dtype=np.int64)
    np.gcd.at(period, labels[tail], shift)
    return math.lcm(*period[closed].tolist())


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
    empty = np.diff(P._links.indptr) == 0          # columns that store no link
    empty[P._dangling_index] = False
    passed = dev[worst] <= tol and neg.size == 0 and not empty.any()
    return ValidationReport(
        tol=tol,
        max_column_sum_deviation=float(dev[worst]),
        worst_column=worst,
        negative_entry_count=int(neg.size),
        first_negative=first_negative,
        empty_columns=tuple(np.flatnonzero(empty).tolist()),
        passed=bool(passed),
    )


def residual(P: SparseStochasticMatrix, x: np.ndarray, norm: str = "l1") -> float:
    """Return ||P x - x|| in the chosen norm; zero iff x is a fixed point."""
    r = P.matvec(x)
    r -= np.asarray(x, dtype=float)
    if norm == "l1":
        return float(np.abs(r, out=r).sum())
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
#
# Ids are read as int() reads them ("+1", "007" and "1_0" are ids); the edge
# and directive ids must lie in [0, n).
#
# Canonical text, what edge_list_text writes, is ASCII, breaks lines at "\n"
# only, and has only these lines: blank, "#" comments, "n=<digits>",
# "dangling:<digits>" and "<digits>\t<digits>" (a space may stand for the
# tab), with at most 18 digits in a run, so that no id overflows int64.

_NL, _TAB, _SPACE, _ZERO = b"\n\t 0"
_MAX_DIGITS = 18
# the bytes besides "\n" at which str.splitlines breaks an ASCII line
_LINE_BREAKS = list(b"\v\f\r\x1c\x1d\x1e")
# canonical line kinds, told apart by the first byte of a line
_OTHER, _BLANK, _COMMENT, _HEADER, _DIRECTIVE, _EDGE = range(6)
_LINE_KIND = np.full(256, _OTHER, dtype=np.uint8)
_LINE_KIND[list(b"0123456789")] = _EDGE
_LINE_KIND[list(b"\n#nd")] = _BLANK, _COMMENT, _HEADER, _DIRECTIVE
_IDS_PER_LINE = np.array([0, 0, 0, 1, 1, 2])          # by line kind
_PREFIXES = ((_HEADER, b"n="), (_DIRECTIVE, b"dangling:"))


def parse_edge_list(text: str) -> EdgeList:
    """Parse the text format into an EdgeList.

    Canonical text is read on its bytes: its lines are classified and checked
    by uint8 and bool array operations, and its ids are read by one
    np.fromstring call, with no Python object per line.  Any other text goes
    to the general parser, a loop that strips one line at a time, with no
    array of the lines, and takes ids in every form that int() takes and
    int64 holds; so does canonical text that declares no node or an id
    outside [0, n), so that the general parser words every error.  Both
    parsers give the same EdgeList for canonical text.

    A malformed line, an id outside [0, n) or a node count below 1 raises
    InputError; a line's error names its line number, and of several bad
    lines the first malformed one is named, or else the first out of range.
    """
    edges = _parse_canonical(text)
    return _parse_general(text) if edges is None else edges


def _parse_canonical(text: str) -> EdgeList | None:
    """The EdgeList of canonical text, or None for any other text and for
    canonical text with an error."""
    if not text.isascii():
        return None
    ids, kind = _canonical_ids(text)
    if ids is None:
        return None
    owner = np.repeat(kind, _IDS_PER_LINE[kind])      # the kind of each id's line
    pairs = ids[owner == _EDGE].reshape(-1, 2)
    counts, nodes = ids[owner == _HEADER], ids[owner == _DIRECTIVE]
    top = max(int(pairs.max(initial=-1)), int(nodes.max(initial=-1)))
    n = int(counts[-1]) if counts.size else top + 1
    if n < 1 or top >= n:
        return None
    return EdgeList.from_arrays(pairs[:, 0], pairs[:, 1], n)


def _canonical_ids(text: str) -> tuple[np.ndarray, np.ndarray] | tuple[None, None]:
    """The ids of ASCII text in line order and the kind of each line, or
    (None, None) if the text is not canonical or has no id.

    One byte array holds the text.  The comments and the "n=" and
    "dangling:" prefixes in it are overwritten by line breaks, which leaves
    digits, line breaks and one separator per edge line to check, and the
    ids to one np.fromstring call.
    """
    data = text.encode("ascii")
    if not data.endswith(b"\n"):
        data += b"\n"                           # splitlines reads the same lines
    b = np.frombuffer(data, dtype=np.uint8).copy()
    del data
    ends = np.flatnonzero(b == _NL)
    starts = np.concatenate(([0], ends[:-1] + 1))
    kind = _LINE_KIND[b[starts]]
    if (kind == _OTHER).any() or not (kind >= _HEADER).any():
        return None, None
    for line_kind, prefix in _PREFIXES:
        at = starts[kind == line_kind]
        digits = ends[kind == line_kind] - at - len(prefix)
        if _outside(digits - 1, _MAX_DIGITS).any():       # 1 to 18 after the prefix
            return None, None
        for k, byte in enumerate(prefix):
            if (b[at + k] != byte).any():
                return None, None
            b[at + k] = _NL
    comment = kind == _COMMENT
    if comment.any():
        in_comment = np.repeat(comment, ends - starts + 1)
        if np.isin(b[in_comment], _LINE_BREAKS).any():
            return None, None
        b[in_comment] = _NL
        del in_comment
    # the bytes neither digits nor line breaks: one separator per edge line
    stray = (b - _ZERO) > 9
    stray &= b != _NL
    at = np.flatnonzero(stray)
    del stray
    edge = kind == _EDGE
    if at.size != np.count_nonzero(edge):
        return None, None
    # each separator in its edge line, after 1 to 18 digits and before as many
    if (_outside(at - starts[edge] - 1, _MAX_DIGITS).any()
            or _outside(ends[edge] - at - 2, _MAX_DIGITS).any()
            or not ((b[at] == _TAB) | (b[at] == _SPACE)).all()):
        return None, None
    b.flags.writeable = False                   # np.fromstring reads read-only buffers
    return np.fromstring(b, dtype=np.int64, sep=" "), kind


def _parse_general(text: str) -> EdgeList:
    """parse_edge_list for any text, read one stripped line at a time."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        # the lines before the bad character, and its own, begun after them
        line = len((text[:exc.start] + "\0").splitlines())
        raise InputError(f"line {line}: not encodable as UTF-8") from None
    n, edges, nodes = None, [], []          # (line, src, dst) and (line, id) runs
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        try:
            if not line or line.startswith("#"):
                continue
            if line.startswith("n="):
                n = _int64(line[2:])
            elif line.startswith("dangling:"):
                nodes += lineno, _int64(line[9:])
            else:
                head, tail = line.split()
                edges += lineno, _int64(head), _int64(tail)
        except (ValueError, OverflowError):
            raise InputError(_malformed(lineno, line)) from None

    edge_at, src, dst = np.array(edges, dtype=np.int64).reshape(-1, 3).T
    node_at, nodes = np.array(nodes, dtype=np.int64).reshape(-1, 2).T
    if n is None:
        n = 1 + max(int(a.max(initial=-1)) for a in (src, dst, nodes))
    if n < 1:
        raise InputError("edge list declares no nodes")
    outside = ([(edge_at[k], f"edge ({src[k]}, {dst[k]})")
                for k in np.flatnonzero(_outside(src, n) | _outside(dst, n))[:1]]
               + [(node_at[k], f"dangling node {nodes[k]}")
                  for k in np.flatnonzero(_outside(nodes, n))[:1]])
    if outside:
        at, what = min(outside)
        raise InputError(f"line {at}: {what} out of range for n={n}")
    return EdgeList.from_arrays(src, dst, n)


def _int64(word: str) -> int:
    """The id int() reads in word; OverflowError if int64 cannot hold it."""
    value = int(word)
    if not -2**63 <= value < 2**63:
        raise OverflowError(word)
    return value


def _malformed(lineno: int, line: str) -> str:
    """The error message for a stripped line that does not parse."""
    if line.startswith("n="):
        return f"line {lineno}: bad node-count header {line!r}"
    if line.startswith("dangling:"):
        return f"line {lineno}: bad dangling directive {line!r}"
    words = line.split()
    if len(words) != 2:
        return f"line {lineno}: expected 'src<TAB>dst', got {line!r}"
    try:
        [int(w) for w in words]
    except ValueError:
        return f"line {lineno}: non-integer node id in {line!r}"
    return f"line {lineno}: node id outside the int64 range in {line!r}"


def load_edge_list(path) -> EdgeList:
    """Parse a UTF-8 file, its line breaks read as text mode reads them."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the lines before the bad byte, and its own, begun after them
        line = len((data[:exc.start].decode("utf-8") + "\0").splitlines())
        raise InputError(f"line {line}: not valid UTF-8") from None
    del data
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_edge_list(text)


def edge_list_text(edges: EdgeList) -> str:
    """Serialize in the canonical text format (dangling nodes as directives)."""
    lines = [f"n={edges.n}"]
    lines += [f"{s}\t{d}" for s, d in zip(edges._src.tolist(), edges._dst.tolist())]
    has_out = np.bincount(edges._src, minlength=edges.n) > 0
    lines += [f"dangling:{j}" for j in np.flatnonzero(~has_out).tolist()]
    return "\n".join(lines) + "\n"


def save_edge_list(path, edges: EdgeList) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edge_list_text(edges))
