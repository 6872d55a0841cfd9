import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from robusteig import edge_list, from_edge_list, solvers, uniform_vector
from robusteig.norms import Objective, box_fits
from robusteig.perturbation import (FEASIBILITY_TOL, PERTURBATION_SETS,
                                    InfeasiblePerturbationError)
from robusteig.solvers import STOP_MAX_ITER, STOP_PHI_INCREASE, SolveReport

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

# 0 -> 1 -> 2 -> {0, 3..9} -> 1: a chain of period 3, whose power terms never settle
PERIOD_3_EDGES = ([(0, 1), (1, 2), (2, 0)] + [(2, j) for j in range(3, 10)]
                  + [(j, 1) for j in range(3, 10)])


@pytest.fixture(scope="session")
def seven_node():
    return from_edge_list(edge_list(SEVEN_NODE_EDGES, 7))


def random_stochastic_dense(n, seed, low=0.0, high=1.0):
    """Column-normalized uniform draw; strictly positive when low > 0."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(low, high, (n, n))
    return A / A.sum(axis=0)


def web_graph(n, seed):
    """A web-like graph as the benchmark draws them: Poisson(4) out-degrees,
    5% dangling, Zipf popularity."""
    rng = np.random.default_rng(seed)
    degree = np.maximum(1, rng.poisson(4.0, n))
    degree[rng.random(n) < 0.05] = 0
    popularity = 1.0 / rng.permutation(np.arange(1, n + 1))
    src = np.repeat(np.arange(n), degree)
    dst = rng.choice(n, size=src.size, p=popularity / popularity.sum())
    return from_edge_list(edge_list(list(zip(src.tolist(), dst.tolist())), n))


def _g1_fill_loop(x, c):
    """g1 value and dual z: the box value when box_fits(sum(c) over the
    support), else the greedy fill of z by a loop from the largest |x_j| down.

    The loop reads the support in stable ascending order of |x_j| (ties by
    index) from its end, and fills entries until their c mass, summed one
    at a time, reaches 1 (or the support ends).  Each takes c_j, the last
    one at most what is left of the budget 1: 1 minus the mass up to it
    less its own c_j.  The value sums the fill times |x_j| one at a time in
    that order.  The reference that norms._g1_with_dual, which finds the
    filled entries by selection, must match bit for bit.
    """
    a = np.abs(x)
    z = np.zeros_like(a)
    support = a > 0
    if box_fits(float(np.sum(c[support]))):
        z[support] = np.sign(x[support]) * c[support]
        return float(np.sum(c[support] * a[support])), z
    idx = np.flatnonzero(support)
    order = idx[np.argsort(a[idx], kind="stable")]
    filled, boxed = [], 0.0
    for j in order[::-1]:
        filled.append(j)
        boxed += c[j]
        if boxed >= 1.0:
            break
    value = 0.0
    for j in filled:
        take = c[j] if j != filled[-1] else min(c[j], 1.0 - (boxed - c[j]))
        value += take * a[j]
        z[j] = math.copysign(take, x[j])
    return float(value), z


def _g2_scan_loop(x, c):
    """g2 value and dual z: the candidates found by a loop from the largest
    breakpoint, then every slot from the fewest boxed entries up.

    The candidates are the shortest tail, in the stable order of the
    support's breakpoints, whose c^2 mass from the largest down reaches 1
    (all of the support when none does).  A slot's uncapped mass is np.sum
    of a^2 over every entry outside them, then their squares one by one in
    ascending order.  The reference that norms._g2_with_dual, which finds
    the candidates by selection, must match bit for bit.
    """
    a = np.abs(x)
    z = np.zeros_like(a)
    support = a > 0
    if not support.any():
        return 0.0, z
    if box_fits(float(np.sum(c[support] ** 2))):
        z[support] = np.sign(x[support]) * c[support]
        return float(np.sum(c[support] * a[support])), z
    bp = a / c
    idx = np.flatnonzero(support)
    order = idx[np.argsort(bp[idx], kind="stable")]
    boxed = [0.0]                              # boxed[b]: c^2 mass of the b largest
    for j in order[::-1]:
        boxed.append(boxed[-1] + c[j] * c[j])
        if boxed[-1] >= 1.0:
            break
    cand = order[order.size - (len(boxed) - 1):]
    sq = a * a
    sq[~support] = 0.0
    sq[cand] = 0.0
    uncapped = [np.sum(sq)]                    # uncapped[i + 1]: candidates 0..i uncapped
    for j in cand:
        uncapped.append(uncapped[-1] + a[j] * a[j])
    m = cand.size
    for b in range(m):                         # b largest candidates boxed
        i = m - 1 - b
        if uncapped[i + 1] == 0.0:
            continue
        rho = math.sqrt(uncapped[i + 1] / (1.0 - boxed[b]))
        lo = bp[cand[i]]
        hi = bp[cand[i + 1]] if i + 1 < m else np.inf
        if lo * (1.0 - 1e-12) <= rho <= hi * (1.0 + 1e-12) + 1e-300:
            capped = 0.0
            for j in cand[::-1][:b]:
                capped += c[j] * a[j]
            z[support] = np.minimum(a[support] / rho, c[support]) * np.sign(x[support])
            return float(capped + uncapped[i + 1] / rho), z
    raise RuntimeError("no consistent interval")


def _g2_prefix_scan_loop(x, c):
    """g2 value and dual z: a stable sort of every breakpoint, prefix sums
    over all of them, then every slot from k = m down to 0.

    The arithmetic of g2 before it found its candidates by selection: a
    second reference, which _g2_scan_loop matches to within rounding.
    """
    a = np.abs(x)
    z = np.zeros_like(a)
    support = a > 0
    if not support.any():
        return 0.0, z
    if box_fits(float(np.sum(c[support] ** 2))):
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


def _regularized_power_method_two_matvecs(P, spec, max_iter=100_000, stall_tol=1e-12):
    """Algorithm 1 as it was written with two matvecs per iteration: one for
    the step, and one more inside the objective for the residual.

    The reference that solvers.regularized_power_method, which computes
    P x_k once for both, must match bit for bit.
    """
    objective = Objective(P, spec)
    e = uniform_vector(P.n)
    x_prev = e.copy()
    value_prev, _ = objective.evaluate(x_prev)
    history = [(0, value_prev.total)]
    for k in range(1, max_iter + 1):
        w = 1.0 / (k + 1)
        x = (1.0 - w) * P.matvec(x_prev) + w * e
        value, _ = objective.evaluate(x)
        history.append((k, value.total))
        if value.total > value_prev.total + stall_tol:
            return SolveReport(x_prev, history, k, STOP_PHI_INCREASE, value_prev)
        x_prev, value_prev = x, value
    return SolveReport(x_prev, history, max_iter, STOP_MAX_ITER, value_prev)


def _restarted_cesaro_rounds(P, tol):
    """The nominal solve as plain restarted Cesaro rounds: K terms from x, K
    doubling from 64 up to ceil(2/tol), each round below the cap checked by
    the residual ||P^K x - x||_1 / K of its average, the only vector returned.

    The reference whose matvec count solvers.dominant_eigenvector, which also
    checks power terms, must never exceed, and whose vector it must return
    bit for bit where no power term meets tol.
    """
    cap = math.ceil(2.0 / tol)
    x = uniform_vector(P.n)
    K = min(64, cap)
    while True:
        current = x
        total = x.copy()
        for _ in range(K - 1):
            current = P.matvec(current)
            total += current
        average = total / K
        if K == cap or np.abs(P.matvec(current) - x).sum() / K <= tol:
            return average
        x, K = average, min(2 * K, cap)


def _poisson_gmres_loop(P, rhs, tol):
    """solvers._poisson_gmres as it was written with a new n-vector for each
    scaled vector (h b in Gram-Schmidt, the residual update, each term of
    the back-substitution) and for each |r| of its stop test.

    The reference whose v and product count solvers._poisson_gmres, which
    scales into one scratch vector, must match bit for bit.  It reads the
    solver's restart and budget constants when called.
    """
    n = P.n
    m = max(1, min(solvers._KRYLOV_RESTART, solvers._KRYLOV_ENTRIES // n))
    v = np.zeros(n)
    r = rhs.copy()
    products = 0
    while float(np.abs(r).max()) > tol:
        gamma = math.sqrt(float(r @ r))
        basis = [r / gamma]
        columns, rotations, g = [], [], [gamma]
        for k in range(m):
            if products == solvers._POISSON_TERMS:
                return None
            w = P.rmatvec(basis[k])
            w -= basis[k]
            products += 1
            h = []
            for b in basis:
                h.append(float(w @ b))
                w -= h[-1] * b
            h_next = math.sqrt(float(w @ w))
            rounding = np.finfo(float).eps * math.hypot(*h, h_next)
            closed = h_next <= rounding
            for i, (c, s) in enumerate(rotations):
                h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
            d = math.hypot(h[k], h_next)
            if d <= rounding:
                return None
            c, s = h[k] / d, h_next / d
            h[k] = d
            columns.append(h)
            rotations.append((c, s))
            gamma = g[k]
            g[k] = c * gamma
            g.append(-s * gamma)
            r *= s * s
            r -= (c * gamma / d) * w
            if closed or k == m - 1 or float(np.abs(r).max()) <= tol:
                break
            basis.append(w / h_next)
        y = [0.0] * len(columns)
        for i in reversed(range(len(y))):
            y[i] = (g[i] - sum(columns[j][i] * y[j] for j in range(i + 1, len(y)))) / columns[i][i]
            v += y[i] * basis[i]
        if closed and float(np.abs(r).max()) > tol:
            return None
    return v, products


def peak_n_vectors(call, n):
    """The peak of the memory that call() allocates, as tracemalloc traces
    it, in float64 n-vectors (8 n bytes each)."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * n)


def _column_supports_dense(P):
    links = P._links
    supports = []
    all_rows = np.arange(P.n)
    for j in range(P.n):
        if j in P.dangling_columns:
            supports.append(all_rows)
        else:
            supports.append(links.indices[links.indptr[j]:links.indptr[j + 1]])
    return supports


def _sample_perturbation_dense(P, spec, set_name, rng_seed=0):
    """The sampler on dense n x n temporaries: a dense P, a support mask and
    masked copies, a discarded zero array, and every norm computed eagerly.

    The reference that perturbation.sample_perturbation, which allocates xi
    alone, must match bit for bit.
    """
    if set_name not in PERTURBATION_SETS:
        raise ValueError(f"unknown perturbation set {set_name!r}; "
                         f"expected one of {PERTURBATION_SETS}")
    rng = np.random.default_rng(rng_seed)
    n = P.n
    xi = np.zeros((n, n))

    if set_name in ("xi1", "xi2"):
        budgets = spec.weights(n) * spec.epsilon     # eps_j
        for j, support in enumerate(_column_supports_dense(P)):
            if support.size < 2:
                continue                             # no nonzero zero-sum vector fits
            v = rng.standard_normal(support.size)
            v -= v.mean()
            l1 = float(np.abs(v).sum())
            if l1 == 0.0:
                continue
            v *= rng.uniform(0.0, 1.0) * budgets[j] / l1
            xi[support, j] = v
        total = float(np.abs(xi).sum()) if set_name == "xi1" else float(np.linalg.norm(xi))
        if total > spec.epsilon:
            xi *= spec.epsilon / total
    elif set_name == "xif_ball":
        xi = rng.standard_normal((n, n))
        xi -= xi.mean(axis=0, keepdims=True)
        nf = float(np.linalg.norm(xi))
        if nf > 0:
            xi *= rng.uniform(0.0, 1.0) * spec.epsilon / nf
    else:  # xif
        dense = P.to_dense()
        on_support = dense > 0
        xi = rng.standard_normal((n, n))
        xi[~on_support] = np.abs(xi[~on_support])    # zero entries of P have no mass to lose
        for j in range(n):
            support = np.flatnonzero(on_support[:, j])
            xi[support, j] -= xi[:, j].sum() / support.size
        nf = float(np.linalg.norm(xi))
        if nf > 0:
            xi *= rng.uniform(0.0, 1.0) * spec.epsilon / nf
        for _ in range(60):
            if (dense + xi).min() >= 0.0:
                break
            xi /= 2.0
        else:
            raise InfeasiblePerturbationError(
                "could not shrink the perturbation into the stochastic set")

    col_sums = xi.sum(axis=0)
    stochastic_ok = None
    if set_name == "xif":
        stochastic_ok = bool((dense + xi).min() >= -FEASIBILITY_TOL
                             and np.abs(col_sums).max() <= FEASIBILITY_TOL)
    return SimpleNamespace(
        xi=xi,
        set_name=set_name,
        max_column_sum=float(np.abs(col_sums).max()),
        max_column_l1=float(np.abs(xi).sum(axis=0).max()),
        total_l1=float(np.abs(xi).sum()),
        frobenius=float(np.linalg.norm(xi)),
        stochastic_ok=stochastic_ok,
    )


def _stress_realized_dense(P, x, spec, set_name, n_samples, rng_seed):
    """The stress loop on the dense sampler: per-sample ||(P + xi) x - x||,
    summed as (Px - x) + xi x (l1 for xi1, l2 otherwise), and whether every
    sample was feasible."""
    ord_ = 1 if set_name == "xi1" else 2
    realized = []
    all_valid = True
    for i in range(n_samples):
        sample = _sample_perturbation_dense(P, spec, set_name, rng_seed + i)
        realized.append(float(np.linalg.norm(P.matvec(x) - x + sample.xi @ x, ord=ord_)))
        if sample.stochastic_ok is False:
            all_valid = False
    return realized, all_valid
