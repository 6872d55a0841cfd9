import numpy as np
import pytest

from robusteig import edge_list, from_edge_list

# the 7-node test graph (0-based edges)
SEVEN_NODE_EDGES = [(0, 1), (0, 2), (1, 2), (2, 0), (2, 4), (2, 6),
                    (3, 2), (3, 4), (4, 3), (5, 6), (6, 5)]

# its link matrix, written out entry by entry
SEVEN_NODE_DENSE = np.array([
    [0,   0, 1/3, 0,   0, 0, 0],
    [1/2, 0, 0,   0,   0, 0, 0],
    [1/2, 1, 0,   1/2, 0, 0, 0],
    [0,   0, 0,   0,   1, 0, 0],
    [0,   0, 1/3, 1/2, 0, 0, 0],
    [0,   0, 0,   0,   0, 0, 1],
    [0,   0, 1/3, 0,   0, 1, 0],
])

# its dominant eigenvector: all mass on the absorbing 2-cycle {5, 6}
SEVEN_NODE_XBAR = np.array([0, 0, 0, 0, 0, 0.5, 0.5])


@pytest.fixture(scope="session")
def seven_node():
    return from_edge_list(edge_list(SEVEN_NODE_EDGES, 7))


def random_stochastic_dense(n, seed, low=0.0, high=1.0):
    """Column-normalized uniform draw; strictly positive when low > 0."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(low, high, (n, n))
    return A / A.sum(axis=0)


def _g2_scan_loop(x, c):
    """g2 value and dual z: a stable sort, then every slot from k = m down to 0.

    The reference that norms._g2_with_dual, with its one default sort and its
    scan of the tail alone, must match bit for bit.
    """
    a = np.abs(x)
    z = np.zeros_like(a)
    support = a > 0
    if not support.any():
        return 0.0, z
    if float(np.sum(c[support] ** 2)) <= 1.0:
        z[support] = np.sign(x[support]) * c[support]
        return float(np.sum(c[support] * a[support])), z
    a_s, c_s = a[support], c[support]
    order = np.argsort(a_s / c_s, kind="stable")
    a_o, c_o, bp_o = a_s[order], c_s[order], (a_s / c_s)[order]
    m = a_o.size
    cum_a2 = np.concatenate(([0.0], np.cumsum(a_o ** 2)))
    cum_c2_rev = np.concatenate((np.cumsum((c_o ** 2)[::-1])[::-1], [0.0]))
    cum_ca_rev = np.concatenate((np.cumsum((c_o * a_o)[::-1])[::-1], [0.0]))
    for k in range(m, -1, -1):
        if cum_c2_rev[k] >= 1.0 or cum_a2[k] == 0.0:
            continue
        rho = float(np.sqrt(cum_a2[k] / (1.0 - cum_c2_rev[k])))
        lo = bp_o[k - 1] if k >= 1 else 0.0
        hi = bp_o[k] if k < m else np.inf
        if lo * (1.0 - 1e-12) <= rho <= hi * (1.0 + 1e-12) + 1e-300:
            z[support] = np.minimum(a_s / rho, c_s) * np.sign(x[support])
            return float(cum_ca_rev[k] + cum_a2[k] / rho), z
    raise RuntimeError("no consistent interval")
