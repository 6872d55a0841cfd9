"""Reference computations the benchmark checks `robusteig` against.

Nothing here imports `robusteig`: the link matrix is built straight from the
edge arrays, the penalty norms are evaluated through their dual problems
(g1 by the greedy knapsack fill, g2 by bisection on the scaling of the dual
vector), and exact answers come from scipy's sparse solvers and its HiGHS LP
solver.

A link matrix is a pair (L, d): L holds the explicit links (column j carries
1/outdeg(j) at every distinct destination of j) and d is a boolean mask of the
dangling columns, which stand for the uniform column 1/n.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize, sparse
from scipy.sparse import linalg as splinalg


def link_matrix(n: int, src, dst) -> tuple[sparse.csc_array, np.ndarray]:
    """(L, d) of the column-stochastic link matrix; duplicate edges count once."""
    pairs = np.unique(np.stack([np.asarray(src), np.asarray(dst)]), axis=1)
    s, t = pairs
    outdeg = np.bincount(s, minlength=n)
    L = sparse.csc_array((1.0 / outdeg[s], (t, s)), shape=(n, n))
    return L, outdeg == 0


def matvec(L, d, x):
    return L @ x + x[d].sum() / L.shape[0]


def rmatvec(L, d, v):
    y = L.T @ v
    y[d] += v.sum() / L.shape[0]
    return y


def dense(L, d):
    A = L.toarray()
    A[:, d] += 1.0 / L.shape[0]
    return A


# --- penalty norms through their duals ------------------------------------

def g1_dual(x, c):
    """argmax {z.x : ||z||_1 <= 1, |z_j| <= c_j}: fill the largest |x_j| first."""
    order = np.argsort(-np.abs(x), kind="stable")
    budget_before = np.concatenate(([0.0], np.cumsum(c[order])[:-1]))
    z = np.zeros_like(x)
    z[order] = np.clip(1.0 - budget_before, 0.0, c[order])
    return z * np.sign(x)


def g2_dual(x, c):
    """argmax {z.x : ||z||_2 <= 1, |z_j| <= c_j} with z = clip(x/rho, +-c).

    rho solves ||z(rho)||_2 = 1 and is found by bisection; when the box lies
    inside the unit ball on the support of x, z = c sign(x).
    """
    a = np.abs(x)
    if not (a > 0).any():
        return np.zeros_like(x)
    if np.sum(c[a > 0] ** 2) <= 1.0:
        return c * np.sign(x)

    def norm2(rho):
        return np.sum(np.minimum(a / rho, c) ** 2)

    lo, hi = 0.0, float(np.linalg.norm(a))      # norm2(hi) <= 1 < norm2(0+)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if norm2(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return np.minimum(a / hi, c) * np.sign(x)


def penalty_dual(x, pair, c):
    if pair == "l2l2":
        return x / np.linalg.norm(x)
    return g1_dual(x, c) if pair == "l1g1" else g2_dual(x, c)


def phi(L, d, x, pair, eps, c):
    """||P x - x|| + eps * penalty(x), residual in l1 for l1g1 and l2 otherwise."""
    r = matvec(L, d, x) - x
    residual = np.abs(r).sum() if pair == "l1g1" else np.linalg.norm(r)
    return float(residual + eps * penalty_dual(x, pair, c) @ x)


def subgradient(L, d, x, pair, eps, c):
    r = matvec(L, d, x) - x
    u = np.sign(r) if pair == "l1g1" else r / np.linalg.norm(r)
    return rmatvec(L, d, u) - u + eps * penalty_dual(x, pair, c)


def linearization_gap(L, d, x, pair, eps, c):
    """phi(x) minus the linearization lower bound phi(x) + min_j g_j - g.x."""
    g = subgradient(L, d, x, pair, eps, c)
    return float(g @ x - g.min())


def algorithm1(L, d, pair, eps, c, max_iter):
    """The mixed power iterates x_k = (1 - 1/(k+1)) P x_{k-1} + e/(k+1), x_0 = e.

    Runs to the first rise of phi or to max_iter and returns the last iterate
    before the rise (or x_max_iter) with phi of x_0, x_1, ... including the
    rise.
    """
    n = L.shape[0]
    e = np.full(n, 1.0 / n)
    x, phis = e, [phi(L, d, e, pair, eps, c)]
    for k in range(1, max_iter + 1):
        w = 1.0 / (k + 1)
        x_next = (1.0 - w) * matvec(L, d, x) + w * e
        phis.append(phi(L, d, x_next, pair, eps, c))
        if phis[-1] > phis[-2]:
            break
        x = x_next
    return x, phis


# --- exact answers ---------------------------------------------------------

def pagerank(L, d, alpha):
    """Solve (I - alpha P) x = (1 - alpha) e by restarted GMRES on I - alpha L.

    The dangling part of P is the rank-one (1/n) 1 d^T, so with u solving
    (I - alpha L) u = 1 the solution is x = ((1 - alpha) + alpha d.x) u / n,
    where d.x = (1 - alpha) d.u / (n - alpha d.u).  (A sparse LU of
    I - alpha L fills in badly on web graphs.)
    """
    n = L.shape[0]
    A = sparse.identity(n, format="csr") - alpha * sparse.csr_matrix(L)
    u, info = splinalg.gmres(A, np.ones(n), rtol=1e-13, restart=30, maxiter=200)
    if info != 0:
        raise RuntimeError(f"GMRES did not converge (info={info})")
    du = u[d].sum()
    dx = (1.0 - alpha) * du / (n - alpha * du)
    return ((1.0 - alpha) + alpha * dx) * u / n


def stationary(L, d):
    """The stationary vector of an irreducible P: (P - I) x = 0 with sum x = 1.

    The first balance equation is replaced by the normalisation; the
    dangling columns enter as one extra unknown m = d.x.
    """
    n = L.shape[0]
    B = sparse.csr_matrix(L) - sparse.identity(n, format="csr")
    m_col = np.full((n, 1), 1.0 / n)
    top = sparse.hstack([B, sparse.csr_matrix(m_col)], format="lil")
    top[0, :] = np.concatenate((np.ones(n), [0.0]))
    link = sparse.csr_matrix(np.concatenate((d.astype(float), [-1.0]))[None, :])
    A = sparse.vstack([top.tocsr(), link], format="csc")
    rhs = np.zeros(n + 1)
    rhs[0] = 1.0
    return splinalg.spsolve(A, rhs)[:n]


def l1g1_optimum(L, d, eps, c):
    """min over the simplex of ||P x - x||_1 + eps g1(x), solved as an LP.

    On the simplex g1(x) = min_{t >= 0} t + sum_j c_j (x_j - t)_+.  Variables
    are x, the residual bounds r, the slacks s_j >= x_j - t, t, and
    m = d.x, so the dangling columns add one variable instead of dense columns.
    """
    n = L.shape[0]
    I = sparse.identity(n, format="csr")
    Z = sparse.csr_matrix((n, n))
    ones = sparse.csr_matrix(np.ones((n, 1)))
    zcol = sparse.csr_matrix((n, 1))
    B = sparse.csr_matrix(L) - I                 # residual is B x + (m/n) 1
    A_ub = sparse.vstack([
        #            x    r    s      t      m
        sparse.hstack([B, -I, Z, zcol, ones / n]),
        sparse.hstack([-B, -I, Z, zcol, -ones / n]),
        sparse.hstack([I, Z, -I, -ones, zcol]),
    ], format="csr")
    A_eq = sparse.csr_matrix(np.vstack([
        np.concatenate((np.ones(n), np.zeros(2 * n), [0.0, 0.0])),
        np.concatenate((d.astype(float), np.zeros(2 * n), [0.0, -1.0])),
    ]))
    cost = np.concatenate((np.zeros(n), np.ones(n), eps * c, [eps, 0.0]))
    res = optimize.linprog(cost, A_ub=A_ub, b_ub=np.zeros(3 * n), A_eq=A_eq,
                           b_eq=[1.0, 0.0], bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"l1g1 LP failed: {res.message}")
    return float(res.fun)


# --- perturbation sets -----------------------------------------------------

def perturbation_violations(P_dense, xi, set_name, eps, budgets, tol=1e-10):
    """Constraints of the set that xi breaks, as a list of messages."""
    bad = []
    col_sums = np.abs(xi.sum(axis=0)).max()
    if col_sums > tol:
        bad.append(f"column sum {col_sums:.3g}")
    frob = float(np.linalg.norm(xi))
    if frob > eps * (1 + tol):
        bad.append(f"Frobenius norm {frob:.6g} > {eps}")
    if set_name == "xi2":
        over = np.abs(xi).sum(axis=0) - budgets
        if over.max() > tol:
            bad.append(f"column l1 over its budget by {over.max():.3g}")
    else:
        low = (P_dense + xi).min()
        if low < -tol:
            bad.append(f"P + xi has entry {low:.3g}")
    return bad
