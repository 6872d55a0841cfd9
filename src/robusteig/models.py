"""Synthetic n-by-n grid graphs with exactly solvable scores.

Nodes sit on a grid; node (i, j) links "south" to (i+1, j) and "east" to
(i, j+1) with equal weight, last-row/last-column nodes link along the single
remaining direction, and the corner (n, n) either jumps uniformly to all N
nodes including itself (Model 1; it would otherwise dangle) or links back to
the origin (Model 2, which makes the chain periodic with period 2n - 1).

The nominal and PageRank scores satisfy explicit one-pass recurrences, which
makes these graphs exact oracles for the iterative solvers at any size.  In
raster order, each cell's score is its in-flow: the shares of its north and
west neighbours, each split over that neighbour's out-links, plus the
corner's uniform jump in Model 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import graph_matrix
from .graph_matrix import EdgeList, SparseStochasticMatrix


class ModelVariant(enum.Enum):
    MODEL1 = "model1"
    MODEL2 = "model2"

    @classmethod
    def from_string(cls, s: str) -> "ModelVariant":
        for v in cls:
            if v.value == s.lower():
                return v
        raise ValueError(f"unknown model {s!r}; expected 'model1' or 'model2'")


@dataclass(frozen=True)
class GridModelSpec:
    """Side length n (N = n^2 nodes) and variant; nodes are 0-based (i, j)."""

    n: int
    variant: ModelVariant

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"side length must be >= 2, got {self.n}")

    @property
    def node_count(self) -> int:
        return self.n * self.n

    def node_id(self, i: int, j: int) -> int:
        return i * self.n + j

    def node_coords(self, node: int) -> tuple[int, int]:
        return divmod(node, self.n)


def edge_list_for(spec: GridModelSpec) -> EdgeList:
    """Directed edges of the grid; the Model 1 corner is left dangling so the
    uniform repair (over all N nodes, itself included) supplies its jumps."""
    n, N = spec.n, spec.node_count
    u = np.arange(N)
    i, j = np.divmod(u, n)
    # each node's south link, then its east link, where the grid has them
    keep = np.stack([i < n - 1, j < n - 1], axis=1).ravel()
    src = np.repeat(u, 2)[keep]
    dst = np.stack([u + n, u + 1], axis=1).ravel()[keep]
    if spec.variant is ModelVariant.MODEL2:
        # the corner, the last node, links back to the origin
        src, dst = np.append(src, N - 1), np.append(dst, 0)
    return EdgeList.from_arrays(src, dst, N)


def generate(spec: GridModelSpec) -> SparseStochasticMatrix:
    return graph_matrix.from_edge_list(edge_list_for(spec))


def emit_edge_list(spec: GridModelSpec, path) -> None:
    """Write the model as an edge-list file (dangling corner as a directive)."""
    graph_matrix.save_edge_list(path, edge_list_for(spec))


def _solve_recurrence(n: int, corner_feedback: bool, alpha: float = 1.0) -> np.ndarray:
    """One raster scan of the balance recurrences on the grid.

    Every cell but the origin takes alpha times its in-flow, the shares
    x / d of its north and west neighbours (d(i, j) = (i < n-1) + (j < n-1),
    the out-degree edge_list_for gives (i, j); a missing neighbour gives 0)
    plus a constant.  With corner_feedback=False (Model 1) the constant is
    1, the uniform in-flow from the corner's jump, and the origin is alpha;
    with True (Model 2) the constant drops out and the corner feeds only the
    origin, seeded at 1.  alpha < 1 damps every in-flow, giving the PageRank
    recurrence.  Values stay bounded by N = n^2 (the corner value is exactly
    N when alpha = 1), so no rescaling is required.
    """
    if n < 2:
        raise ValueError(f"side length must be >= 2, got {n}")
    add = 1.0 if not corner_feedback else 0.0
    last = n - 1

    def d(i, j):
        return (i < last) + (j < last)

    # row and column n stay 0: x[-1][j] and x[i][-1], the missing neighbours
    x = [[0.0] * (n + 1) for _ in range(n + 1)]
    x[0][0] = alpha if not corner_feedback else 1.0
    for i in range(n):
        for j in range(n):
            if i or j:
                x[i][j] = alpha * (x[i - 1][j] / d(i - 1, j) + x[i][j - 1] / d(i, j - 1) + add)
    x = np.array([row[:n] for row in x[:n]])
    if not np.isfinite(x).all():
        raise OverflowError(f"recurrence overflowed for n={n}")
    return x


def model1_exact_scores(n: int) -> np.ndarray:
    """Normalized fixed point of the Model 1 matrix, from the recurrences."""
    raw = _solve_recurrence(n, corner_feedback=False, alpha=1.0)
    return (raw / raw.sum()).ravel()


def model1_pagerank_scores(n: int, alpha: float) -> np.ndarray:
    """Normalized PageRank vector of the Model 1 matrix, from the damped
    recurrences (origin pinned to alpha)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    raw = _solve_recurrence(n, corner_feedback=False, alpha=alpha)
    return (raw / raw.sum()).ravel()


def model2_exact_scores(n: int) -> np.ndarray:
    """Normalized fixed point of the Model 2 matrix.

    The feedback edge (n, n) -> (1, 1) replaces the uniform jump, so the
    constant in-flow term vanishes; mass conservation forces the corner value
    back to the origin value, which is asserted before normalizing.
    """
    raw = _solve_recurrence(n, corner_feedback=True, alpha=1.0)
    if abs(raw[-1, -1] - raw[0, 0]) > 1e-9 * max(1.0, raw[0, 0]):
        raise RuntimeError("corner/origin balance violated in the Model 2 recurrence")
    return (raw / raw.sum()).ravel()


def diagonal_ids(n: int) -> np.ndarray:
    """Flat ids of the diagonal nodes (i, i)."""
    return np.arange(n) * n + np.arange(n)


def last_row_ids(n: int) -> np.ndarray:
    """Flat ids of the last-row nodes (n-1, j)."""
    return (n - 1) * n + np.arange(n)
