"""Score-vector solvers: PageRank, Cesaro-averaged power method, the
regularized power method with its objective-increase stopping rule, an exact
first-order minimizer of the robust objective, and a brute-force simplex-grid
oracle for tiny instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph_matrix import (SparseStochasticMatrix, check_score_vector,
                           uniform_vector)
from .norms import NormPair, Objective, ObjectiveValue, UncertaintySpec, g2

STOP_PHI_INCREASE = "phi_increase"
STOP_MAX_ITER = "max_iter"
STOP_TOLERANCE = "tolerance"
STOP_GAP = "gap"

# default pair used whenever a solver needs an objective but the caller gave
# no uncertainty model: both norms Euclidean, unit budget
_DEFAULT_SPEC = UncertaintySpec(epsilon=1.0, pair=NormPair.L2_L2)

# terms in the first round of dominant_eigenvector's restarted averaging
_FIRST_ROUND_TERMS = 64

# regularized_power_method stops on a rise of phi above this, not on rounding
_STALL_TOL = 1e-12

# mirror_descent_minimize stops once best phi - lower bound <= _GAP_TOL * best phi
_GAP_TOL = 1e-3


@dataclass
class SolveReport:
    """Outcome of an iterative solve.

    phi_history holds (iteration, objective value) pairs; iteration 0 is the
    starting point.  For the phi_increase stop the final iterate is the one
    preceding the first recorded increase.  pagerank records only the start
    and the final iterate; mirror descent records each new best iterate.

    lower_bound is a certified lower bound on min phi over the simplex, so
    objective.total - lower_bound bounds how far the returned objective is
    from the optimum.  Mirror descent sets it on every return; the other
    solvers leave it None.
    """

    final: np.ndarray
    phi_history: list[tuple[int, float]]
    iterations_used: int
    stop_reason: str
    objective: ObjectiveValue
    lower_bound: float | None = None


@dataclass
class SolverConfig:
    """Budgets of mirror_descent_minimize.

    max_iter bounds its regularized-power warm start; md_epochs epochs of
    md_iters_per_epoch steps bound the descent itself, which may stop
    earlier on a certified duality gap.  alpha and tol are validated but
    read by no solver: the benchmark still passes them.
    """

    alpha: float = 0.85
    tol: float = 1e-10
    max_iter: int = 100_000
    md_epochs: int = 45
    md_iters_per_epoch: int = 200

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


def pagerank(P: SparseStochasticMatrix, alpha: float = 0.85, tol: float = 1e-10,
             max_iter: int = 100_000, spec: UncertaintySpec | None = None) -> SolveReport:
    """Fixed point of x <- alpha P x + (1 - alpha) e to l1 tolerance tol.

    The teleport matrix is never materialized; each step is one sparse matvec
    plus a constant shift.  Successive iterates contract by alpha, so stopping
    when they are within tol leaves a fixed-point residual <= alpha * tol.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    objective = Objective(P, spec or _DEFAULT_SPEC)
    x = uniform_vector(P.n)
    shift = (1.0 - alpha) * x
    value, _ = objective.evaluate(x)
    history = [(0, value.total)]
    stop_reason = STOP_MAX_ITER
    iterations = 0
    for k in range(1, max_iter + 1):
        x_next = P.matvec(x)
        x_next *= alpha
        x_next += shift
        step = x_next - x
        delta = float(np.abs(step, out=step).sum())
        x = x_next
        iterations = k
        if delta <= tol:
            stop_reason = STOP_TOLERANCE
            break
    if iterations:
        value, _ = objective.evaluate(x)
        history.append((iterations, value.total))
    return SolveReport(x, history, iterations, stop_reason, value)


def _l1_distance(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return float(np.abs(d, out=d).sum())


def _cesaro_round(P: SparseStochasticMatrix, x: np.ndarray, K: int,
                  tol: float | None = None) -> tuple[np.ndarray | None, np.ndarray]:
    """The average of the K terms x, Px, ..., P^{K-1} x, and its last term.

    K - 1 matvecs.  One more matvec on the last term gives P^K x, and with it
    the exact residual ||P^K x - x||_1 / K of the average.

    With a tol, the i-th matvec of the round, for i = 1, 2, 4, 8, ..., also
    measures the residual ||P^i x - P^{i-1} x||_1 of the term before it; once
    that is <= tol the round stops and returns (None, P^{i-1} x).
    """
    current = x
    total = x.copy()
    for i in range(1, K):
        previous, current = current, P.matvec(current)
        if tol is not None and i & (i - 1) == 0 and _l1_distance(current, previous) <= tol:
            return None, previous
        total += current
    return total / K, current


def averaged_power(P: SparseStochasticMatrix, K: int) -> np.ndarray:
    """Cesaro average (e + Pe + ... + P^{K-1} e) / K, for K - 1 matvecs.

    Satisfies ||P x_K - x_K||_1 = ||P^K e - e||_1 / K <= 2/K for every K and
    every column-stochastic P, including cyclic ones where plain power
    iteration oscillates.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return _cesaro_round(P, uniform_vector(P.n), K)[0]


def dominant_eigenvector(P: SparseStochasticMatrix, tol: float = 1e-6) -> np.ndarray:
    """A simplex vector with ||P x - x||_1 <= tol: the first checked power
    term that meets tol, else the average of a restarted Cesaro round.

    Each round averages K terms from x for K - 1 matvecs and checks the
    terms P^i x at i = 0, 1, 3, 7, ... as the next term is made (one
    subtraction and one sum over n, no matvec); the first whose residual
    ||P^{i+1} x - P^i x||_1 is <= tol is returned.  P is an l1 contraction,
    so a term's residual never exceeds its predecessor's, and the check
    stops within twice the first term that meets tol.  At the end of a
    round one more matvec, the next term P^K x, gives the residual of the
    last term and the exact residual ||P^K x - x||_1 / K of the average;
    the last term, then the average, is returned if it meets tol, otherwise
    the next round restarts from the average with K doubled, from 64 up to
    the cap ceil(2 / tol).  A round of cap terms meets tol by the 2/K law (no
    spectral-gap assumption, periodic chains included) and is returned
    unchecked, so the loop always ends, after fewer than 3 ceil(2 / tol)
    matvecs; where no term meets tol (periodic chains), the rounds and
    their average are those of plain restarted averaging.  Every simplex
    vector has residual <= 2, so tol >= 2 returns the uniform vector.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    cap = max(1, math.ceil(2.0 / tol))
    x = uniform_vector(P.n)
    K = min(_FIRST_ROUND_TERMS, cap)
    while True:
        average, last = _cesaro_round(P, x, K, tol)
        if average is None:
            return last
        if K == cap:
            return average
        following = P.matvec(last)
        if _l1_distance(following, last) <= tol:
            return last
        if _l1_distance(following, x) / K <= tol:
            return average
        x, K = average, min(2 * K, cap)


def regularized_power_method(P: SparseStochasticMatrix, spec: UncertaintySpec,
                             max_iter: int = 100_000) -> SolveReport:
    """Power method with 1/(k+1) uniform mixing, stopped at the first rise
    of the robust objective.

    Starts at e (iteration 0); iteration k produces
    x_k = (1 - 1/(k+1)) P x_{k-1} + (1/(k+1)) e, which is the Cesaro average
    of the first k+1 power-iteration terms.  Stops at the first k with
    phi(x_k) > phi(x_{k-1}) + _STALL_TOL and returns x_{k-1}; plateaus continue
    until max_iter.

    Each iteration costs one matvec and one penalty evaluation: P x_k gives
    both the residual of phi(x_k) and the next iterate, so a stop at k makes
    k + 1 matvecs.
    """
    objective = Objective(P, spec)
    e = uniform_vector(P.n)
    x_prev = e.copy()
    y = P.matvec(x_prev)
    value_prev, _ = objective.evaluate(x_prev, Px=y)
    history = [(0, value_prev.total)]
    for k in range(1, max_iter + 1):
        w = 1.0 / (k + 1)
        x = (1.0 - w) * y + w * e
        y = P.matvec(x)
        value, _ = objective.evaluate(x, Px=y)
        history.append((k, value.total))
        if value.total > value_prev.total + _STALL_TOL:
            return SolveReport(x_prev, history, k, STOP_PHI_INCREASE, value_prev)
        x_prev, value_prev = x, value
    return SolveReport(x_prev, history, max_iter, STOP_MAX_ITER, value_prev)


def _entropic_step(x: np.ndarray, g: np.ndarray, step: float) -> np.ndarray:
    # multiplicative update; shifting g by its max keeps exp() in range and
    # cancels in the normalization.  In place on one temporary: the same bits
    # as x * exp(-step (g - max g)) / sum, without four more n-arrays
    w = g - g.max()
    w *= -step
    np.exp(w, out=w)
    w *= x
    w /= w.sum()
    return w


def mirror_descent_minimize(P: SparseStochasticMatrix, spec: UncertaintySpec,
                            config: SolverConfig | None = None,
                            x0: np.ndarray | None = None) -> SolveReport:
    """Minimize phi over the simplex by entropic mirror descent, stopped on a
    certified duality gap.

    Multiplicative updates x <- normalize(x * exp(-gamma g_k)) with g_k a
    subgradient of phi at x_k and steps scaled by 1/||g_k||_inf, tracking the
    best iterate seen.  Each step evaluates phi and its subgradient at the new
    iterate in one pass, so it costs one matvec and one rmatvec.  The steps
    run in at most config.md_epochs epochs of config.md_iters_per_epoch
    steps; gamma starts at 1 and halves after each epoch, and each epoch
    restarts from the best iterate (and its stored subgradient).

    phi is convex and positively homogeneous, so every subgradient g taken
    anywhere satisfies phi(y) >= <g, y> for all y, and min_j g_j bounds phi
    from below on the simplex.  The largest such bound over the subgradients
    of the solve (at x0, at the uniform point and at every step) is returned
    as lower_bound; it costs one g.min() per step, which also gives
    ||g||_inf.  The descent stops with reason gap, before the first step or
    after any step, once best phi - lower_bound <= 1e-3 best phi (_GAP_TOL;
    phi is positive on the simplex); a zero subgradient stops it with
    reason tolerance; otherwise the schedule runs out with reason max_iter.

    Unless x0 is given, descent starts from the stopped regularized-power
    iterate (cheap and already good), so the returned objective never exceeds
    that method's result.
    """
    config = config or SolverConfig()
    if x0 is None:
        x0 = regularized_power_method(P, spec, max_iter=config.max_iter).final
    objective = Objective(P, spec)
    best_x = check_score_vector(x0).copy()
    best_value, best_g = objective.evaluate(best_x, with_subgradient=True)
    best_g_min = float(best_g.min())
    # the uniform point is cheap to evaluate and never worse than untried
    e = uniform_vector(P.n)
    e_value, e_g = objective.evaluate(e, with_subgradient=True)
    e_g_min = float(e_g.min())
    lower = max(best_g_min, e_g_min)
    if e_value.total < best_value.total:
        best_x, best_value, best_g, best_g_min = e, e_value, e_g, e_g_min

    def certified() -> bool:
        return best_value.total - lower <= _GAP_TOL * best_value.total

    history = [(0, best_value.total)]
    iterations = 0
    stop_reason = STOP_GAP if certified() else STOP_MAX_ITER
    gamma = 1.0
    for _ in range(config.md_epochs):
        if stop_reason != STOP_MAX_ITER:
            break
        x, g, g_min = best_x.copy(), best_g, best_g_min
        for _ in range(config.md_iters_per_epoch):
            g_inf = max(float(g.max()), -g_min)          # ||g||_inf, no n-array
            if g_inf == 0.0:                             # x minimizes phi
                stop_reason = STOP_TOLERANCE
                break
            x = _entropic_step(x, g, gamma / g_inf)
            iterations += 1
            value, g = objective.evaluate(x, with_subgradient=True)
            g_min = float(g.min())
            lower = max(lower, g_min)
            if value.total < best_value.total:
                best_x, best_value, best_g, best_g_min = x.copy(), value, g, g_min
                history.append((iterations, value.total))
            if certified():
                stop_reason = STOP_GAP
                break
        gamma /= 2.0
    return SolveReport(best_x, history, iterations, stop_reason, best_value, lower)


def _simplex_lattice_blocks(n: int, m: int, block_rows: int = 200_000):
    """Yield blocks of all lattice points (k_1/m, ..., k_n/m), sum k_i = m."""
    if n == 1:
        yield np.ones((1, 1))
        return

    def compositions(parts, budget):
        if parts == 0:
            yield ()
            return
        for k in range(budget + 1):
            for rest in compositions(parts - 1, budget - k):
                yield (k,) + rest

    rows = []
    for head in compositions(n - 2, m):
        rem = m - sum(head)
        k = np.arange(rem + 1)
        block = np.empty((rem + 1, n))
        block[:, :n - 2] = np.asarray(head, dtype=float)
        block[:, n - 2] = k
        block[:, n - 1] = rem - k
        rows.append(block)
        if sum(b.shape[0] for b in rows) >= block_rows:
            yield np.vstack(rows) / m
            rows = []
    if rows:
        yield np.vstack(rows) / m


def grid_oracle_minimize(P: SparseStochasticMatrix, spec: UncertaintySpec,
                         resolution: float) -> np.ndarray:
    """Exhaustive phi minimization on the simplex lattice with step ~resolution.

    Only for n <= 4; certifies the first-order solver on tiny instances.
    """
    n = P.n
    if n > 4:
        raise ValueError(f"grid oracle supports n <= 4, got n={n}")
    m = round(1.0 / resolution)
    if m < 1:
        raise ValueError(f"resolution {resolution} coarser than the whole simplex")
    dense = P.to_dense()
    shift = dense - np.eye(n)
    best_value = np.inf
    best_x = uniform_vector(n)
    use_l1 = spec.pair.residual_norm == "l1"
    for X in _simplex_lattice_blocks(n, m):
        R = X @ shift.T
        res = np.abs(R).sum(axis=1) if use_l1 else np.linalg.norm(R, axis=1)
        if spec.pair is NormPair.L2_L2:
            pen = np.linalg.norm(X, axis=1)
        else:
            c = spec.weights(n)
            if spec.pair is NormPair.L1_G1:
                pen = _g1_batch(X, c)
            else:
                pen = np.array([g2(row, c) for row in X])
        values = res + spec.epsilon * pen
        i = int(values.argmin())
        if values[i] < best_value:
            best_value = float(values[i])
            best_x = X[i].copy()
    return best_x


def _g1_batch(X: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Row-wise g1 via the threshold scan, vectorized over a block."""
    A = np.abs(X)
    order = np.argsort(-A, axis=1, kind="stable")
    A_s = np.take_along_axis(A, order, axis=1)
    C_s = c[order]
    cum_c = np.cumsum(C_s, axis=1)
    prev_c = cum_c - C_s
    prev_ca = np.cumsum(C_s * A_s, axis=1) - C_s * A_s
    candidates = A_s * (1.0 - prev_c) + prev_ca
    t0 = np.sum(C_s * A_s, axis=1)
    return np.minimum(t0, candidates.min(axis=1))


def suggest_epsilon(n: int, q: float, m: float) -> float:
    """Budget heuristic sqrt(q n) / m for out-degree uncertainty.

    q is the fraction of pages whose out-degree is only known to +-1, m the
    average out-degree.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    if not m > 0:
        raise ValueError(f"m must be > 0, got {m}")
    return math.sqrt(q * n) / m
