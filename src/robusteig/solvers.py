"""Score-vector solvers: PageRank, Cesaro-averaged power method, the
regularized power method with its objective-increase stopping rule, an exact
first-order minimizer of the robust objective (Barzilai-Borwein steps on the
l2 pairs, a halving step schedule on l1g1, both stopped by a certified
duality gap within a budget of evaluations), and a brute-force simplex-grid
oracle for tiny instances.

On l1g1 the minimizer first tries an exact certificate: on an irreducible
P, the dominant eigenvector is the robust optimum for every eps up to a
threshold eps_c, and a dual pair read off the chain's Poisson equation
(Kemeny & Snell, Finite Markov Chains, 1960), solved by restarted GMRES,
proves it; see _nominal_certificate and _poisson_gmres.  Where that
declines, l1g1 is a linear program, which scipy's HiGHS (Huangfu & Hall,
Math. Prog. Comp. 2018) solves exactly up to _LP_MAX_N nodes, certified by
the same kind of dual pair; see _l1g1_lp.  The halving schedule runs only
past both.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

import numpy as np

from .graph_matrix import (SparseStochasticMatrix, check_score_vector,
                           cyclic_period, is_irreducible, uniform_vector)
from .norms import NormPair, Objective, ObjectiveValue, UncertaintySpec, g2

STOP_PHI_INCREASE = "phi_increase"
STOP_MAX_ITER = "max_iter"
STOP_TOLERANCE = "tolerance"
STOP_GAP = "gap"
STOP_NOMINAL = "nominal"
STOP_LP = "lp"

# default pair used whenever a solver needs an objective but the caller gave
# no uncertainty model: both norms Euclidean, unit budget
_DEFAULT_SPEC = UncertaintySpec(epsilon=1.0, pair=NormPair.L2_L2)

# terms in the first round of dominant_eigenvector's restarted averaging
_FIRST_ROUND_TERMS = 64

# regularized_power_method stops on a rise of phi above this, not on rounding
_STALL_TOL = 1e-12

# mirror_descent_minimize stops once best phi - lower bound <= _GAP_TOL * best phi
_GAP_TOL = 1e-3

# its nominal certificate on l1g1 gives up after this many products of the
# GMRES solve of its Poisson equation, one rmatvec each, so that a decline
# costs a bounded amount: about the rmatvecs of the default 9000-evaluation
# descent.  Measured under inv-degree budgets, the periodic Model 2 grids of
# side 10, 20, 30 and 60 take 18, 38, 224 and 572 products, a 1e5-node web
# graph 17
_POISSON_TERMS = 10_000

# that solve restarts every _KRYLOV_RESTART products, or sooner where n is
# large, so that its basis holds at most about _KRYLOV_ENTRIES floats
# (3.2 MB): 40 vectors at n = 400, 4 at n = 1e5.  The Model 2 grid of side
# 20 needs a restart length of 38 or more (30 took 137 products against
# 38); an unbounded basis (17 products, 18 vectors) raised web-large's
# peak resident memory in the benchmark from 47.3-48.1 to 57.0-57.9 MB
_KRYLOV_RESTART = 40
_KRYLOV_ENTRIES = 400_000

# where that certificate declines, l1g1 is solved as an LP up to this n.
# Measured on reducible web graphs (graph seed 14, inv-degree budgets, eps 1,
# the certificate bypassed; single unscaled runs, 2 cores), LP against the
# 9000-evaluation descent: n = 2000, 0.5 s against 1.2 s, which stops 1.6%
# above the optimum; n = 5000, 2.1 s against 2.5 s, both at the optimum;
# n = 10 000, 18 s against 5.1 s, which stops 4.4e-4 above it
_LP_MAX_N = 5000

# its line search on the l2 pairs accepts a step when phi is at most the
# largest of the last _LINE_SEARCH_MEMORY accepted values plus
# _SUFFICIENT_DECREASE times g.(x_new - x)
_LINE_SEARCH_MEMORY = 10
_SUFFICIENT_DECREASE = 1e-4

# and caps each step so that its exponents step (max g - g_j) stay within
# _MAX_EXPONENT: the bound of the halving schedule's first epoch, far inside
# exp's range (it overflows past 709).  Entries that phi barely sees (x_j
# near 0) still set min g; on 2000-node web graphs under l2g2 at eps 5 to 20,
# caps of 4 and more made them oscillate on some, and the gap stop never fired
_MAX_EXPONENT = 2.0


def _check_tol(tol: float) -> None:
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")


@dataclass
class SolveReport:
    """Outcome of an iterative solve.

    phi_history holds (iteration, objective value) pairs; iteration 0 is the
    starting point.  For the phi_increase stop the final iterate is the one
    preceding the first recorded increase.  pagerank records only the start
    and the final iterate; mirror descent records each new best iterate.

    iterations_used counts iterations, or for mirror descent its
    evaluations of phi and a subgradient, each one matvec and one rmatvec:
    on l2l2 and l2g2 those include the trials its line search rejects.

    lower_bound is a certified lower bound on min phi over the simplex, so
    objective.total - lower_bound bounds how far the returned objective is
    from the optimum.  Mirror descent sets it on every return; the other
    solvers leave it None.

    stop_reason nominal is mirror descent's on l1g1 when it returns the
    certified dominant eigenvector and runs no descent: phi_history then
    holds its one value, and iterations_used counts the products of the
    certificate's GMRES solve, one rmatvec each.  stop_reason lp is its
    reason on l1g1 when it returns the certified solution of the exact LP
    and runs no descent: phi_history holds its one value, and
    iterations_used counts HiGHS's iterations.
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

    tol is the residual ||P x - x||_1 to which l1g1's nominal certificate
    computes the dominant eigenvector, as `--solver nominal --tol` does.
    max_iter bounds the regularized-power warm start.  md_epochs *
    md_iters_per_epoch bounds the evaluations of the descent itself, which
    may stop earlier on a certified duality gap; l1g1 also takes its step
    schedule from them (md_epochs epochs of md_iters_per_epoch steps).
    alpha is validated but read by no solver: the benchmark still passes it.
    """

    alpha: float = 0.85
    tol: float = 1e-10
    max_iter: int = 100_000
    md_epochs: int = 45
    md_iters_per_epoch: int = 200

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        _check_tol(self.tol)
        for name in ("max_iter", "md_epochs", "md_iters_per_epoch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def pagerank(P: SparseStochasticMatrix, alpha: float = 0.85, tol: float = 1e-10,
             max_iter: int = 100_000, spec: UncertaintySpec | None = None) -> SolveReport:
    """Fixed point of x <- alpha P x + (1 - alpha) e to l1 tolerance tol.

    The teleport matrix is never materialized; each step is one sparse matvec
    plus a constant shift.  Successive iterates contract by alpha, so stopping
    when they are within tol leaves a fixed-point residual <= alpha * tol.
    The product of each iterate serves both the next step and, for the start
    and the final iterate, the objective, so k iterations make k + 1 matvecs.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    _check_tol(tol)
    objective = Objective(P, spec or _DEFAULT_SPEC)
    x = uniform_vector(P.n)
    shift = (1.0 - alpha) * x
    Px = P.matvec(x)
    value, _ = objective.evaluate(x, Px=Px)
    history = [(0, value.total)]
    stop_reason = STOP_MAX_ITER
    iterations = 0
    for k in range(1, max_iter + 1):
        x_next = Px
        x_next *= alpha
        x_next += shift
        step = x_next - x
        delta = float(np.abs(step, out=step).sum())
        x = x_next
        iterations = k
        Px = P.matvec(x)
        if delta <= tol:
            stop_reason = STOP_TOLERANCE
            break
    if iterations:
        value, _ = objective.evaluate(x, Px=Px)
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
    the next round restarts from the average.

    The first round has 64 terms.  Once it misses tol, cyclic_period(P)
    gives d, the lcm of the periods of P's closed classes (no matvec), and
    each next round has 2K terms cut down to a multiple of d where d <= 2K,
    capped at ceil(2 / tol).  P's eigenvalues of modulus 1 are d-th roots
    of unity and semisimple, so an average over a multiple of d terms
    cancels all but the eigenvalue 1 exactly, and the rest decays at the
    rate of the next-largest eigenvalue: on the Model 2 grid of side 20
    (period 39) tol 1e-10 takes 245 matvecs, where plain doubling rounds,
    whose average shrinks the unit-circle terms only like 1/K, take 4032.
    Where d divides 64 (d is 1 wherever every closed class is aperiodic)
    the rounds are those of plain doubling.  No round is longer than the plain round it replaces and K
    grows every round.  A round of cap terms meets tol by the 2/K law (no
    spectral-gap assumption, periodic chains included) and is returned
    unchecked, so the loop always ends, after fewer than 4 ceil(2 / tol)
    matvecs.  Every simplex vector has residual <= 2, so tol >= 2 returns
    the uniform vector.

    The residual bounds the l1 distance to the eigenvector only by about
    ||P x - x||_1 / delta, delta the spectral gap of P, so tol must be below
    delta for x to be near it.  On two 4-node clusters linked weakly enough
    that delta = 1e-6, tol 1e-6 returns the uniform start (residual 5e-7),
    0.5 in l1 from the stationary vector.
    """
    _check_tol(tol)
    cap = max(1, math.ceil(2.0 / tol))
    x = uniform_vector(P.n)
    K = min(_FIRST_ROUND_TERMS, cap)
    period = None
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
        if period is None:
            period = cyclic_period(P)
        K *= 2
        if period <= K:
            K -= K % period
        x, K = average, min(K, cap)


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
    k + 1 matvecs.  The mixing writes no product: it scales P x_{k-1} into a
    new array and adds w e as the scalar w e_0, which every entry of w e is.
    """
    objective = Objective(P, spec)
    e = uniform_vector(P.n)
    x_prev = e
    y = P.matvec(x_prev)
    value_prev, _ = objective.evaluate(x_prev, Px=y)
    history = [(0, value_prev.total)]
    for k in range(1, max_iter + 1):
        w = 1.0 / (k + 1)
        x = np.multiply(y, 1.0 - w)
        x += w * e[0]
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


class _Descent:
    """The evaluations of one robust solve, each of which may raise the
    certified lower bound and replace the best point."""

    def __init__(self, objective: Objective, x0: np.ndarray):
        self.objective = objective
        self.evaluations = 0
        self.lower = -math.inf
        self.best_value = None
        self._offer(x0)
        # the uniform point is cheap to evaluate and never worse than untried
        self._offer(uniform_vector(x0.size))
        self.history = [(0, self.best_value.total)]

    def _offer(self, x: np.ndarray) -> tuple[ObjectiveValue, np.ndarray, float]:
        value, g = self.objective.evaluate(x, with_subgradient=True)
        g_min = float(g.min())
        self.lower = max(self.lower, g_min)
        if self.best_value is None or value.total < self.best_value.total:
            self.best_x, self.best_value, self.best_g, self.best_g_min = x, value, g, g_min
            if self.evaluations:
                self.history.append((self.evaluations, value.total))
        return value, g, g_min

    def evaluate(self, x: np.ndarray) -> tuple[ObjectiveValue, np.ndarray, float]:
        """phi at x, a subgradient g there and min g: one evaluation of the
        budget, one matvec and one rmatvec."""
        self.evaluations += 1
        return self._offer(x)

    def certified(self) -> bool:
        return self.best_value.total - self.lower <= _GAP_TOL * self.best_value.total


def _halving_schedule(descent: _Descent, config: SolverConfig) -> str:
    """config.md_epochs epochs of config.md_iters_per_epoch steps of
    gamma / ||g||_inf, gamma 1 halved after each epoch and each epoch
    restarted from the best point; returns the stop reason."""
    gamma = 1.0
    for _ in range(config.md_epochs):
        x, g, g_min = descent.best_x, descent.best_g, descent.best_g_min
        for _ in range(config.md_iters_per_epoch):
            g_inf = max(float(g.max()), -g_min)          # ||g||_inf, > 0 as g . x = phi(x) > 0
            x = _entropic_step(x, g, gamma / g_inf)
            _, g, g_min = descent.evaluate(x)
            if descent.certified():
                return STOP_GAP
        gamma /= 2.0
    return STOP_MAX_ITER


def _barzilai_borwein(descent: _Descent, budget: int) -> str:
    """Entropic steps sized by Barzilai-Borwein quotients under a nonmonotone
    line search, for at most budget evaluations; returns the stop reason.

    After an accepted step s = x' - x, with y the change of g, the next step
    is sum_j s_j log(x'_j / x_j) / (s . y): the quotient sum_j s_j^2 / m_j /
    (s . y) of the entropic metric, with m_j the logarithmic mean of x_j and
    x'_j, which skips the entries where both are 0.  An entropic step makes
    the numerator -step g . s, a number the line search already holds, and
    phi is positively homogeneous, so g . x = phi(x) for the subgradients of
    Objective: each evaluation adds one dot product over n (g . x') to the
    matvec, the rmatvec and the penalty, and each accepted one another
    (g' . x) and a max.  Where s . y <= 0, or rounding leaves g . s >= 0
    (which a descent step cannot give exactly), the step doubles instead: a
    quotient of -0.0 there once froze the iterate.
    """
    x, g, g_min = descent.best_x, descent.best_g, descent.best_g_min
    phi_x = descent.best_value.total                 # = g . x: phi is homogeneous
    recent = collections.deque([phi_x], maxlen=_LINE_SEARCH_MEMORY)
    g_max = float(g.max())
    step = 1.0 / max(g_max, -g_min)
    while descent.evaluations < budget:
        # g_max > g_min: at a constant g, min g = g . x = phi(x) certified x
        step = min(step, _MAX_EXPONENT / (g_max - g_min))
        x_new = _entropic_step(x, g, step)
        value, g_new, g_new_min = descent.evaluate(x_new)
        if descent.certified():
            return STOP_GAP
        g_s = float(g @ x_new) - phi_x                   # g . s, < 0 but for rounding
        if value.total > max(recent) + _SUFFICIENT_DECREASE * g_s:
            step /= 2.0
            continue
        recent.append(value.total)
        s_y = value.total - float(g_new @ x) - g_s       # (g_new - g) . s
        step = -step * g_s / s_y if s_y > 0.0 and g_s < 0.0 else 2.0 * step
        x, g, g_min, g_max, phi_x = x_new, g_new, g_new_min, float(g_new.max()), value.total
    return STOP_MAX_ITER


def _certified(P: SparseStochasticMatrix, objective: Objective, x: np.ndarray,
               value: ObjectiveValue, u: np.ndarray, z: np.ndarray, iterations: int,
               reason: str) -> SolveReport | None:
    """x, whose phi is value, certified as l1g1's robust optimum, or None.

    For u in the unit l_inf ball and z in g1's dual set, phi(y) >=
    ((P - I)^T u + eps z) . y on the simplex, so D = min_j of that vector is
    a lower bound on min phi, for every P, at one rmatvec.  Where
    phi(x) - D <= _GAP_TOL phi(x), x is returned with lower_bound D.
    """
    h = P.rmatvec(u)
    h -= u
    h += objective.spec.epsilon * z
    lower = float(h.min())
    if value.total - lower > _GAP_TOL * value.total:
        return None
    return SolveReport(x, [(0, value.total)], iterations, reason, value, lower)


def _poisson_gmres(P: SparseStochasticMatrix, rhs: np.ndarray,
                   tol: float) -> tuple[np.ndarray, int] | None:
    """v with ||(P^T - I) v - rhs||_inf <= tol, and the products made, or None.

    Restarted GMRES (Saad & Schultz 1986) from v = 0, each product one
    rmatvec; restarts every m products, m = min(_KRYLOV_RESTART,
    _KRYLOV_ENTRIES // n) but at least 1, so the basis, a list of n-vectors,
    holds at most about _KRYLOV_ENTRIES floats.  The Hessenberg matrix is
    reduced by Givens rotations and solved by back-substitution in Python,
    no LAPACK call.  Each scaled vector (h b in Gram-Schmidt, the residual
    update, each term of the back-substitution) is formed in one scratch
    n-vector, and each new direction is normalized in place.  The stop
    reads the residual vector off the rotations,
    r_k = s_k^2 r_{k-1} - (c_k gamma_k / d_k) w_k, with w_k the new
    direction before normalization, d_k the rotated diagonal and gamma_k
    the residual's coefficient before rotation k: O(n) a step and no
    product, exact up to rounding wherever the Arnoldi relation holds;
    restarts begin from it too.

    P^T - I is singular, null space span(1), but of index 1, and rhs is
    orthogonal to the stationary vector up to its error, so GMRES converges
    (Brown & Walker 1997).  Returns None once _POISSON_TERMS products do not
    reach tol, or when a step finds an invariant Krylov space (nothing new
    to add: a zero rotated column, or a zero new direction) and the
    residual there misses tol, which no restart can improve on.
    """
    n = P.n
    m = max(1, min(_KRYLOV_RESTART, _KRYLOV_ENTRIES // n))
    v = np.zeros(n)
    r = rhs.copy()                                   # rhs - (P^T - I) v
    scratch = np.empty(n)                            # each scaled vector, in turn
    products = 0
    while _max_abs(r) > tol:
        gamma = math.sqrt(float(r @ r))
        basis = [r / gamma]
        columns, rotations, g = [], [], [gamma]
        for k in range(m):
            if products == _POISSON_TERMS:
                return None
            w = P.rmatvec(basis[k])
            w -= basis[k]
            products += 1
            h = []
            for b in basis:                          # modified Gram-Schmidt
                h.append(float(w @ b))
                w -= np.multiply(b, h[-1], out=scratch)
            h_next = math.sqrt(float(w @ w))
            for i, (c, s) in enumerate(rotations):
                h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
            d = math.hypot(h[k], h_next)
            if d == 0.0:
                return None
            c, s = h[k] / d, h_next / d
            h[k] = d
            columns.append(h)
            rotations.append((c, s))
            gamma = g[k]
            g[k] = c * gamma
            g.append(-s * gamma)
            r *= s * s
            r -= np.multiply(w, c * gamma / d, out=scratch)
            if h_next == 0.0 or k == m - 1 or _max_abs(r) <= tol:
                break
            w /= h_next
            basis.append(w)
        y = [0.0] * len(columns)                     # back-substitution
        for i in reversed(range(len(y))):
            y[i] = (g[i] - sum(columns[j][i] * y[j] for j in range(i + 1, len(y)))) / columns[i][i]
            v += np.multiply(basis[i], y[i], out=scratch)
        if h_next == 0.0 and _max_abs(r) > tol:
            return None
    return v, products


def _max_abs(r: np.ndarray) -> float:
    """||r||_inf, np.abs(r).max(), without the array of |r_j|."""
    return max(float(r.max()), -float(r.min()))


def _nominal_certificate(P: SparseStochasticMatrix, objective: Objective,
                         tol: float) -> SolveReport | None:
    """The dominant eigenvector, certified as l1g1's robust optimum, or None.

    At a stationary x (P x = x), with penalty value pen and g1 dual z
    there, u = eps v with (P - I)^T v = pen 1 - z, the Poisson equation of
    the chain, makes _certified's vector eps pen 1 = phi(x) 1: if
    ||u||_inf <= 1, D = phi(x) and x is optimal.  v is fixed up to a
    constant, and half the range of v is the least ||.||_inf of one, so
    this holds exactly for eps up to eps_c = 2 / (max v - min v).

    Declines (None) with no matvec unless P is irreducible.  Otherwise x is
    dominant_eigenvector(P, tol), and _poisson_gmres solves for v, with
    rhs = pen 1 - z, until ||P x - x||_1 + eps ||res||_inf, with
    res = (P^T - I) v - rhs, is at most _GAP_TOL phi(x); the certificate
    declines where it does not get there.  GMRES is fast on periodic chains
    too, where a fixed-point series moves at the lazy chain's spectral gap:
    under inv-degree budgets the Model 2 grids of side 20 and 60 take 38
    and 572 products.  v is then centred by its mid-range, and the
    certificate declines if eps (max v - min v) / 2 > 1; u is never scaled
    into the ball.  Last, _certified checks D, which also catches a
    residual that the solve's estimate put too low, and x is returned with
    reason nominal and iterations_used the solve's products.
    """
    if not is_irreducible(P):
        return None
    x = dominant_eigenvector(P, tol)
    value, _ = objective.evaluate(x)
    eps = objective.spec.epsilon
    allowance = _GAP_TOL * value.total - value.residual_term   # what eps ||res||_inf may take
    if allowance < 0.0:
        return None
    pen, z = objective._penalty_with_dual(x, dual=True)
    solved = _poisson_gmres(P, pen - z, allowance / eps)
    if solved is None:
        return None
    v, products = solved
    v -= (v.max() + v.min()) / 2.0
    u = eps * v
    if float(np.abs(u).max()) > 1.0:
        return None
    return _certified(P, objective, x, value, u, z, products, STOP_NOMINAL)


def _l1g1_lp(P: SparseStochasticMatrix, objective: Objective) -> SolveReport | None:
    """l1g1's robust optimum from an exact linear program, certified, or None.

    On the simplex g1(x) = min_{t >= 0} t + sum_j c_j (x_j - t)_+, so min phi
    is the LP over x, r+, r-, s >= 0, t >= 0 and m = d.x (d the dangling
    mask, so that the uniform columns add one variable, not dense columns)
    of sum(r+ + r-) + eps (c.s + t) subject to
    (P - I) x + (m/n) 1 - r+ + r- = 0, sum x = 1, d.x - m = 0 and
    x - s - t 1 <= 0.  HiGHS's interior point method solves it without
    presolve: on a 2000-node web graph, dual simplex with presolve was as
    fast but left about 10 MB more heap resident after the call.

    x is projected onto the simplex (clipped at 0, renormalized) and phi
    evaluated there by Objective.  The certificate is read off HiGHS's
    marginals: u, the negated marginals of the residual rows, clipped to the
    unit l_inf ball, and z, the negated marginals of the g1 rows over eps,
    clipped to [0, c] and scaled to sum_j z_j <= 1, g1's dual set, for
    _certified.  Declines (None) unless HiGHS reports an optimum and
    _certified passes; x is returned with reason lp and HiGHS's iterations.
    """
    from scipy import optimize, sparse        # about 0.15 s to import: only when used

    n, eps, c = P.n, objective.spec.epsilon, objective._weights
    eye = sparse.eye_array(n, format="csc")
    col = np.ones((n, 1))
    d = np.zeros((1, n))
    d[0, P._dangling_index] = 1.0
    A_eq = sparse.block_array([
        #  x               r+    r-   s                         t        m
        [P._links - eye,   -eye, eye, sparse.csc_array((n, n)), 0 * col, col / n],
        [col.T,            None, None, None,                    None,    [[0.0]]],
        [d,                None, None, None,                    None,    [[-1.0]]],
    ], format="csc")
    A_ub = sparse.block_array([[eye, sparse.csc_array((n, 2 * n)), -eye, -col, 0 * col]],
                              format="csc")
    cost = np.concatenate((np.zeros(n), np.ones(2 * n), eps * c, [eps, 0.0]))
    b_eq = np.zeros(n + 2)
    b_eq[n] = 1.0
    res = optimize.linprog(cost, A_ub=A_ub, b_ub=np.zeros(n), A_eq=A_eq, b_eq=b_eq,
                           bounds=(0, None), method="highs-ipm", options={"presolve": False})
    if res.status != 0:
        return None
    x = np.clip(res.x[:n], 0.0, None)
    x /= x.sum()
    value, _ = objective.evaluate(x)
    u = np.clip(-res.eqlin.marginals[:n], -1.0, 1.0)
    z = np.clip(-res.ineqlin.marginals / eps, 0.0, c)
    z /= max(1.0, float(z.sum()))
    return _certified(P, objective, x, value, u, z, res.nit, STOP_LP)


def mirror_descent_minimize(P: SparseStochasticMatrix, spec: UncertaintySpec,
                            config: SolverConfig | None = None,
                            x0: np.ndarray | None = None) -> SolveReport:
    """Minimize phi over the simplex by entropic mirror descent, stopped on a
    certified duality gap.

    Multiplicative steps x <- normalize(x * exp(-eta g)), with g a
    subgradient of phi at x, tracking the best point evaluated.  Each
    evaluation of phi and its subgradient, in one pass, costs one matvec and
    one rmatvec; config.md_epochs * config.md_iters_per_epoch evaluations
    bound the descent, and iterations_used counts them (the two at x0 and at
    the uniform point aside).

    The step rule depends on the pair.  l2l2 and l2g2 are smooth wherever
    P x != x and x_j > 0, and take Barzilai-Borwein steps (Barzilai &
    Borwein 1988) in the entropic metric: eta starts at 1 / ||g||_inf, and
    after each accepted step s, with y the change of g, it becomes
    sum_j s_j^2 / m_j / (s . y), m_j the logarithmic mean of the old and new
    x_j (doubled instead when s . y <= 0, or when rounding leaves g . s >= 0
    on an accepted step).  A nonmonotone line search
    (Birgin, Martinez & Raydan 2000) accepts the new point when phi there is
    at most the largest of the last 10 accepted values plus 1e-4 g . s;
    otherwise eta halves and the step is tried again, and the rejected trial
    counts against the budget like any other evaluation.  No step lets
    eta (max g - g_j) pass 2.  l1g1, a linear program and nonsmooth
    everywhere, is solved exactly where it can be (below); past that it
    keeps a fixed schedule: md_epochs epochs of
    md_iters_per_epoch steps of gamma / ||g||_inf, gamma 1 halved after each
    epoch, each epoch restarting from the best point.

    phi is convex and positively homogeneous, so every subgradient g taken
    anywhere satisfies phi(y) >= <g, y> for all y, and min_j g_j bounds phi
    from below on the simplex.  The largest such bound over the subgradients
    of the solve (at x0, at the uniform point and at every evaluation) is
    returned as lower_bound; it costs one g.min() per evaluation.  The
    descent stops with reason gap, before the first step or after any
    evaluation, once best phi - lower_bound <= 1e-3 best phi (_GAP_TOL; phi
    is positive on the simplex); otherwise the budget runs out with reason
    max_iter.

    Unless x0 is given, descent starts from the stopped regularized-power
    iterate (cheap and already good), so the returned objective never exceeds
    that method's result.

    On l1g1, before the warm start and whatever x0, _nominal_certificate
    tries to prove the dominant eigenvector at config.tol optimal, to the
    same _GAP_TOL.  Where it can (P irreducible and eps at most eps_c), that
    vector is returned with reason nominal, its certificate's bound as
    lower_bound, and no warm start or descent.  Otherwise it declines: with
    no matvec or rmatvec on a reducible P, else after the nominal solve and
    at most _POISSON_TERMS + 1 rmatvecs, the products of its GMRES solve
    and one for D.  Then, where P.n <= _LP_MAX_N, _l1g1_lp solves the LP
    exactly and returns its solution with reason lp, its certificate's
    bound as lower_bound and HiGHS's iterations as iterations_used, again
    with no warm start or descent.  Where both decline, the descent runs as
    it would without them.
    """
    config = config or SolverConfig()
    objective = Objective(P, spec)
    if spec.pair is NormPair.L1_G1:
        report = _nominal_certificate(P, objective, config.tol)
        if report is None and P.n <= _LP_MAX_N:
            report = _l1g1_lp(P, objective)
        if report is not None:
            return report
    if x0 is None:
        x0 = regularized_power_method(P, spec, max_iter=config.max_iter).final
    descent = _Descent(objective, check_score_vector(x0).copy())
    if descent.certified():
        stop_reason = STOP_GAP
    elif spec.pair is NormPair.L1_G1:
        stop_reason = _halving_schedule(descent, config)
    else:
        stop_reason = _barzilai_borwein(descent, config.md_epochs * config.md_iters_per_epoch)
    return SolveReport(descent.best_x, descent.history, descent.evaluations, stop_reason,
                       descent.best_value, descent.lower)


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
