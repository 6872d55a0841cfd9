"""Inputs: web-like directed graphs and the edge-list files they are read from.

A web graph has Poisson(4) out-degrees (at least 1) on about 95% of the
nodes; the rest dangle.  Destinations are drawn from a heavy-tailed
popularity (Zipf weights 1/rank over a random labelling), so a few hubs
collect most links and small closed classes occur among the low-degree nodes.

`seed` draws the graph; `label_seed`, when given, draws a permutation of the
node labels, which keeps the graph but changes the file, its parse order and
the layout of the matrix in memory.
"""

from __future__ import annotations

import sys

import numpy as np

MEAN_OUT_DEGREE = 4.0
DANGLING_SHARE = 0.05


def web_graph(n: int, seed: int, label_seed: int | None = None):
    """Return (src, dst) arrays of a web-like graph on nodes 0..n-1, by source."""
    rng = np.random.default_rng(seed)
    degree = np.maximum(1, rng.poisson(MEAN_OUT_DEGREE, size=n))
    degree[rng.random(n) < DANGLING_SHARE] = 0
    popularity = 1.0 / np.arange(1, n + 1)
    popularity = popularity[rng.permutation(n)]
    src = np.repeat(np.arange(n), degree)
    dst = rng.choice(n, size=src.size, p=popularity / popularity.sum())
    if label_seed is not None:
        label = np.random.default_rng(label_seed).permutation(n)
        src, dst = label[src], label[dst]
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
    return src, dst


def edge_list_text(n: int, src: np.ndarray, dst: np.ndarray) -> str:
    """The edge-list text format: an n= header, src<TAB>dst lines, dangling: lines."""
    dangling = np.setdiff1d(np.arange(n), src)
    lines = [f"n={n}"]
    lines += [f"{s}\t{d}" for s, d in zip(src.tolist(), dst.tolist())]
    lines += [f"dangling:{j}" for j in dangling.tolist()]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    # python3 graphs.py <path> <n> <seed> [<label_seed>]: write one edge-list file
    path, *numbers = sys.argv[1:]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edge_list_text(int(numbers[0]), *web_graph(*map(int, numbers))))
