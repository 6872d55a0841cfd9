"""Penalty norms g1/g2 and the robust objective phi with subgradients.

Both penalty norms are infimal convolutions

    g(x) = min over x = u + v of  ||u||_dom + sum_j c_j |v_j|

with the dominant norm ||.||_inf for g1 and ||.||_2 for g2, and weights
c_j = eps_j / eps formed from the per-column uncertainty budgets.  Their dual
characterizations drive both evaluation and subgradients:

    g1(x) = max { z.x : ||z||_1 <= 1, |z_j| <= c_j }
    g2(x) = max { z.x : ||z||_2 <= 1, |z_j| <= c_j }

and any optimizing z is a subgradient.

g1 finds its threshold by selection, as projections onto the l1 ball do
(Duchi et al. 2008): the greedy fill of z reaches the budget 1 within the
few largest |x_j|, so an O(n) partition takes the top k entries, only those
are sorted, and k grows eightfold until that prefix certifies the full
sort's answer bit for bit.  Weights that cannot fill 1 within n/8 entries
(sum(c) <= 1, as with the default c_j = 1/n) go straight to the full scan.
g2 sums the uncapped entries in ascending order of the breakpoints
|x_j| / c_j, which a selection cannot reproduce bit for bit, so it sorts them
all, once, with the default unstable sort: the stable one is redone only
when a run of equal breakpoints mixes different (|x_j|, c_j).  It then
scans only the tail of the sort whose c^2 mass from the end stays below 1,
where alone rho can fall inside its interval.

:class:`Objective` is the one place where phi and its subgradient are
computed.  Built once per (P, spec), it caches the weights c; one evaluation
costs one P.matvec (none when the caller hands in P x) and one penalty
evaluation, plus one P.rmatvec when the subgradient is asked for.  phi,
phi_value and subgradient_phi are thin calls into it, and the solvers hold
one for the length of a solve.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .graph_matrix import InputError, SparseStochasticMatrix, check_score_vector


class NormPair(enum.Enum):
    """Residual-norm / penalty-norm selection for the robust objective."""

    L1_G1 = "l1g1"
    L2_G2 = "l2g2"
    L2_L2 = "l2l2"

    @classmethod
    def from_string(cls, s: str) -> "NormPair":
        for p in cls:
            if p.value == s.lower():
                return p
        raise ValueError(f"unknown norm pair {s!r}; expected one of "
                         f"{[p.value for p in cls]}")

    @property
    def residual_norm(self) -> str:
        return "l1" if self is NormPair.L1_G1 else "l2"


@dataclass(frozen=True)
class UncertaintySpec:
    """Total budget eps, per-column budgets eps_j, and the norm pair.

    column_budgets may be a scalar (uniform eps_j), an array of length n, or
    None for the default eps_j = eps / n.  Weights c_j = eps_j / eps are what
    every formula consumes; see :meth:`weights`.
    """

    epsilon: float
    pair: NormPair = NormPair.L2_L2
    column_budgets: float | np.ndarray | None = None

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        cb = self.column_budgets
        if cb is not None:
            arr = np.atleast_1d(np.asarray(cb, dtype=float))
            if not (arr > 0).all():
                raise ValueError("all column budgets must be > 0")

    def weights(self, n: int) -> np.ndarray:
        """Return c_j = eps_j / eps as an array of length n."""
        cb = self.column_budgets
        if cb is None:
            return np.full(n, 1.0 / n)
        arr = np.asarray(cb, dtype=float)
        if arr.ndim == 0:
            return np.full(n, float(arr) / self.epsilon)
        if arr.shape != (n,):
            raise ValueError(f"column budgets have shape {arr.shape}, expected ({n},)")
        return arr / self.epsilon


@dataclass(frozen=True)
class ObjectiveValue:
    residual_term: float
    penalty_term: float
    total: float


def _check_weights(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if not (c > 0).all():
        raise ValueError("all weights c_j must be > 0")
    return c


# g1 looks for its threshold among the top-k entries of |x| before it sorts
# them all: the first k worth probing, and the factor by which k grows after
# a probe that cannot certify its answer
_G1_FIRST_PROBE = 32
_G1_PROBE_GROWTH = 8


def _g1_guard(c: np.ndarray) -> tuple[float, int]:
    """Sum of the weights c, and the size of the first top-k probe of g1.

    k entries carry weight at most k max(c), and all n carry sum(c), so no
    prefix shorter than 1 / max(c) fills the budget 1, and none does when
    sum(c) <= 1; the probe then has size n, which is the full scan.  The
    first probe is twice that shortest prefix, for room past the fill.
    """
    total = float(c.sum())
    reach = 2 * math.ceil(1.0 / float(c.max())) if total > 1.0 else c.size
    return total, max(_G1_FIRST_PROBE, reach)


def _g1_scan(x: np.ndarray, c: np.ndarray) -> tuple[float, np.ndarray]:
    """g1 value and dual vector from the threshold scan over all of |x|."""
    a = np.abs(x)
    order = np.argsort(-a, kind="stable")
    a_s, c_s = a[order], c[order]
    cum_c = np.cumsum(c_s)
    prev_c = cum_c - c_s                       # sum of c over strictly larger |x|
    prev_ca = np.cumsum(c_s * a_s) - c_s * a_s
    candidates = a_s * (1.0 - prev_c) + prev_ca
    value = float(np.sum(c_s * a_s))           # t = 0
    if candidates.size:
        value = min(value, float(candidates.min()))
    fill = np.clip(1.0 - prev_c, 0.0, c_s)
    z = np.empty_like(a)
    z[order] = fill
    z *= np.sign(x)
    return value, z


def _top_k(x: np.ndarray, k: int) -> np.ndarray | None:
    """Ascending indices j with |x_j| at least the k-th largest |x|, ties included.

    None when the top k hold NaN or inf, which only the scan orders.  Each
    call holds one n-array, freed on return.
    """
    part = np.abs(x)
    part.partition(x.size - k)                 # O(n) selection, in place
    thr = part[x.size - k]
    if not np.isfinite(part[x.size - k:]).all():
        return None
    return np.flatnonzero((x >= thr) | (x <= -thr))


def _g1_on_prefix(x: np.ndarray, c: np.ndarray, top: np.ndarray,
                  total: float) -> tuple[float, np.ndarray] | None:
    """The scan's value and dual vector from the entries top alone, or None.

    top holds every index whose |x_j| is at least some threshold, so its
    stable descending order is the first top.size entries of the scan's, and
    the same formulas give the same bits there.  Past the prefix the scan's
    fill is 0 and its candidates h(|x_j|), with h(t) = t + sum_j c_j (|x_j| -
    t)_+, do not fall below h at the last prefix entry, since h decreases
    while more than weight 1 lies above t; t = 0 is one more such point.  The
    answer is certified when the prefix weight passes 1, and that last
    candidate passes the minimum, by more than the rounding of a running sum
    over n entries (Higham 2002, ch. 4); otherwise None.
    """
    a_top = np.abs(x[top])
    perm = np.argsort(-a_top, kind="stable")
    order = top[perm]
    a_s, c_s = a_top[perm], c[order]
    cum_c = np.cumsum(c_s)
    prev_c = cum_c - c_s
    prev_ca = np.cumsum(c_s * a_s) - c_s * a_s
    candidates = a_s * (1.0 - prev_c) + prev_ca
    best = candidates.min()
    slack = 2.0 * (x.size + 8) * np.finfo(float).eps * (1.0 + total)
    if not (cum_c[-1] - 1.0 > slack and candidates[-1] - best > slack * a_s[0]):
        return None
    z = np.sign(x)
    z *= 0.0                                   # the scan's 0 * sign(x_j) past the prefix
    z[order] = np.clip(1.0 - prev_c, 0.0, c_s) * np.sign(x[order])
    return float(best), z


def _g1_with_dual(x: np.ndarray, c: np.ndarray,
                  guard: tuple[float, int] | None = None) -> tuple[float, np.ndarray]:
    """g1 value via the threshold scan plus an optimizing dual vector.

    The primal minimum over decompositions reduces to
    min_{t >= 0} t + sum_j c_j (|x_j| - t)_+ scanned over breakpoints
    t in {0} U {|x_j|}; the dual vector is the greedy fractional-knapsack
    fill of max{z.x : ||z||_1 <= 1, |z_j| <= c_j}.  The fill reaches the
    budget 1 after a few of the largest |x_j|, so the scan runs first on the
    top k of them (found by selection, ties included), with k growing by
    _G1_PROBE_GROWTH while the prefix cannot certify the full scan's bits,
    and over all of x once k passes n / _G1_PROBE_GROWTH.  guard is
    _g1_guard(c), which callers holding c may cache.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    total, k = guard if guard is not None else _g1_guard(c)
    while k * _G1_PROBE_GROWTH <= n:
        top = _top_k(x, k)
        if top is None or top.size * _G1_PROBE_GROWTH > n:
            break                              # NaN or inf, or ties over most of x
        found = _g1_on_prefix(x, c, top, total)
        if found is not None:
            return found
        k *= _G1_PROBE_GROWTH
    return _g1_scan(x, c)


def _g2_mass(c: np.ndarray) -> float:
    """sum_j c_j^2, the mass that g2 compares with 1 over the support of x.

    The support is all of x at every iterate of mirror descent, so callers
    holding c may cache the mass of all of c.
    """
    return float(np.sum(c * c))


def _g2_with_dual(x: np.ndarray, c: np.ndarray,
                  mass: float | None = None) -> tuple[float, np.ndarray]:
    """g2 value and optimizing dual z of max{z.x : ||z||_2 <= 1, |z_j| <= c_j}.

    The optimal z clamps x/rho at the box, z_j = clamp(x_j / rho, +-c_j); rho
    solves ||z(rho)||_2 = 1, found exactly on the sorted breakpoints
    |x_j| / c_j, unless the box absorbs the whole ball (sum of c_j^2 over the
    support <= 1), in which case g2 = sum_j c_j |x_j|.

    The answer is the same, bit for bit, as that of a stable sort and a scan
    of every breakpoint, with less work:

    - one default (unstable) sort.  The stable order matters only inside runs
      of equal breakpoints, and there only when a run mixes different
      (|x_j|, c_j); then the stable sort is redone.  NaN breakpoints, which
      sort last, come only from |x_j| = c_j = inf, all alike;
    - a scan of the tail only.  Slot k puts the k smallest breakpoints
      uncapped and the rest at the box, and the answer is the largest k whose
      rho falls inside its own interval.  Only slots whose boxed c^2 mass is
      below 1 qualify, and that mass, a sequential sum of nonnegative terms
      from the end, cannot fall, so they are the last few; each sum they read
      comes from the same sequential cumsum as in the full scan;
    - on full support, no gather of x and no scatter into z.

    mass is _g2_mass(c), which callers holding c may cache.  A mass above 1
    only by rounding can leave no slot consistent; g2 is then the box value.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    if a.size and a.min() > 0.0:               # full support; NaN is not > 0
        support = None
        x_s, a_s, c_s = x, a, c
        if mass is None:
            mass = _g2_mass(c)
    else:
        support = a > 0
        if not support.any():
            return 0.0, np.zeros_like(a)
        x_s, a_s, c_s = x[support], a[support], c[support]
        mass = _g2_mass(c_s)
    r = None
    if mass > 1.0:
        bp = a_s / c_s
        order = np.argsort(bp)
        a_o, c_o, bp_o = a_s[order], c_s[order], bp[order]
        if (((a_o[1:] != a_o[:-1]) | (c_o[1:] != c_o[:-1]))
                & (bp_o[1:] == bp_o[:-1])).any():
            order = np.argsort(bp, kind="stable")
            a_o, c_o, bp_o = a_s[order], c_s[order], bp[order]
        # slot k boxes the m - k largest breakpoints, and its interval runs
        # from bp_o[k - 1] to bp_o[k] (inf at k = m).  Only slots k0..m can
        # hold: the boxed mass of the others reaches 1, and slot 0 has no
        # uncapped mass.  np.add.accumulate is np.cumsum, a sequential sum
        m = bp_o.size
        boxed = np.add.accumulate((c_o * c_o)[::-1])       # of the i + 1 largest
        k0 = max(m - int(np.searchsorted(boxed, 1.0)), 1)
        uncapped = np.add.accumulate(a_o * a_o)[k0 - 1:]
        room = np.ones(uncapped.size)                       # 1 - boxed mass
        np.subtract(1.0, boxed[:m - k0][::-1], out=room[:-1])
        rho = np.sqrt(uncapped / room)
        hi = np.append(bp_o[k0:], np.inf)
        consistent = ((uncapped != 0.0) & (bp_o[k0 - 1:] * (1.0 - 1e-12) <= rho)
                      & (rho <= hi * (1.0 + 1e-12) + 1e-300))
        hits = np.flatnonzero(consistent)
        if hits.size:
            i = hits[-1]
            k = k0 + i
            r = float(rho[i])
            capped = np.add.accumulate((c_o[k:] * a_o[k:])[::-1])[-1] if k < m else 0.0
            value = float(capped + uncapped[i] / r)
        elif mass - 1.0 > 2.0 * (m + 8) * np.finfo(float).eps:
            raise RuntimeError("g2 breakpoint scan found no consistent interval")
    if r is None:
        value = float(np.sum(c_s * a_s))
        z_s = np.copysign(c_s, x_s)
    else:
        z_s = np.minimum(a_s / r, c_s)
        if math.isfinite(r):
            np.copysign(z_s, x_s, out=z_s)
        else:                                  # inf / inf is NaN, whose bits copysign would change
            z_s *= np.sign(x_s)
    if support is None:
        return value, z_s
    z = np.zeros_like(a)
    z[support] = z_s
    return value, z


def g1(x: np.ndarray, c: np.ndarray) -> float:
    """min over x = u + v of ||u||_inf + sum_j c_j |v_j|.

    O(n) selection plus a sort of the k largest |x_j|, where k is 32, or
    2/max(c) when that is more, grown eightfold while the fill of weight 1
    is not certified inside them; the O(n log n) full scan when k would pass
    n/8, as it does when sum(c) <= 1 (the default c_j = 1/n).
    """
    return _g1_with_dual(x, _check_weights(c))[0]


def g2(x: np.ndarray, c: np.ndarray) -> float:
    """min over x = u + v of ||u||_2 + sum_j c_j |v_j|.

    One O(n log n) default sort of the breakpoints |x_j| / c_j (a stable one
    again only when equal breakpoints mix different (|x_j|, c_j)), O(n)
    prefix sums, and a scan of only the L + 1 largest breakpoints, where L
    is the count whose c^2 mass from the end stays below 1; no sort at all
    when sum_j c_j^2 <= 1.
    """
    return _g2_with_dual(x, _check_weights(c))[0]


def g_oracle(x: np.ndarray, c: np.ndarray, kind: str) -> float:
    """Independent reference evaluation of g1/g2 for testing.

    g1: exact greedy fractional knapsack on the dual budget problem.
    g2: golden-section search on the scalar Lagrangian dual
        q(rho) = rho/2 + sum_j [ x_j^2/(2 rho)        if |x_j| <= rho c_j
                                 c_j|x_j| - rho c_j^2/2  otherwise ].
    Intended for small n; shares no code path with g1/g2 above.
    """
    c = _check_weights(c)
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    if kind == "g1":
        budget = 1.0
        value = 0.0
        for j in np.argsort(-a, kind="stable"):
            take = min(float(c[j]), budget)
            value += take * float(a[j])
            budget -= take
            if budget <= 0.0:
                break
        return value
    if kind == "g2":
        if not (a > 0).any():
            return 0.0

        def q(rho):
            uncapped = a <= rho * c
            inner = float(np.sum(a[uncapped] ** 2)) / (2.0 * rho)
            outer = float(np.sum(c[~uncapped] * a[~uncapped])) \
                - rho * float(np.sum(c[~uncapped] ** 2)) / 2.0
            return rho / 2.0 + inner + outer

        lo = 1e-14
        hi = 2.0 * min(float(np.linalg.norm(a)), float(np.sum(c * a))) + 1.0
        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        x1 = hi - invphi * (hi - lo)
        x2 = lo + invphi * (hi - lo)
        f1, f2 = q(x1), q(x2)
        for _ in range(200):
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - invphi * (hi - lo)
                f1 = q(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + invphi * (hi - lo)
                f2 = q(x2)
        return float(min(f1, f2))
    raise ValueError(f"unknown oracle kind {kind!r}")


class Objective:
    """phi(x) = ||P x - x|| + eps g(x) and one subgradient, for one (P, spec).

    Residual part of the subgradient: (P - I)^T sign(Px - x) for the l1 norm,
    or (P - I)^T (Px - x)/||Px - x||_2 for l2 (zero when Px = x).  Penalty
    part: eps times the optimizing dual vector of the penalty norm.
    """

    def __init__(self, P: SparseStochasticMatrix, spec: UncertaintySpec):
        self.P = P
        self.spec = spec
        self._l1_residual = spec.pair.residual_norm == "l1"
        self._weights = None if spec.pair is NormPair.L2_L2 else spec.weights(P.n)
        self._g1_guard = _g1_guard(self._weights) if spec.pair is NormPair.L1_G1 else None
        self._g2_mass = _g2_mass(self._weights) if spec.pair is NormPair.L2_G2 else None

    def _penalty_with_dual(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Penalty-norm value and a subgradient of it at x."""
        if self._weights is None:
            nx = float(np.linalg.norm(x))
            if nx == 0.0:
                return 0.0, np.zeros_like(x)
            return nx, x / nx
        if self.spec.pair is NormPair.L1_G1:
            return _g1_with_dual(x, self._weights, self._g1_guard)
        return _g2_with_dual(x, self._weights, self._g2_mass)

    def evaluate(self, x: np.ndarray, with_subgradient: bool = False, *,
                 Px: np.ndarray | None = None
                 ) -> tuple[ObjectiveValue, np.ndarray | None]:
        """phi at x, and a subgradient there when asked (else None).

        Px is the product P x when the caller already holds it, as the
        regularized power method does; it saves the one matvec and is read,
        never written.  x and Px must both have shape (n,).
        """
        P, eps = self.P, self.spec.epsilon
        x = np.asarray(x, dtype=float)
        if Px is None:
            Px = P.matvec(x)            # rejects a vector of the wrong shape
        elif x.shape != (P.n,) or np.shape(Px) != (P.n,):
            raise InputError(f"x and Px have shapes {x.shape} and {np.shape(Px)}, "
                             f"expected ({P.n},)")
        r = Px - x
        if self._l1_residual:
            residual_term = float(np.abs(r).sum())
        else:
            residual_term = float(np.linalg.norm(r))
        penalty_value, g_pen = self._penalty_with_dual(x)
        penalty_term = eps * penalty_value
        value = ObjectiveValue(residual_term, penalty_term, residual_term + penalty_term)
        if not with_subgradient:
            return value, None
        if self._l1_residual:
            s = np.sign(r)
            g_res = P.rmatvec(s) - s
        elif residual_term == 0.0:
            g_res = np.zeros_like(x)
        else:
            u = r / residual_term
            g_res = P.rmatvec(u) - u
        return value, g_res + eps * g_pen


def phi(P: SparseStochasticMatrix, x: np.ndarray, spec: UncertaintySpec) -> ObjectiveValue:
    """Robust objective: residual norm of P x - x plus eps times the penalty."""
    return Objective(P, spec).evaluate(check_score_vector(x))[0]


def phi_value(P: SparseStochasticMatrix, x: np.ndarray, spec: UncertaintySpec) -> float:
    return phi(P, x, spec).total


def subgradient_phi(P: SparseStochasticMatrix, x: np.ndarray, spec: UncertaintySpec) -> np.ndarray:
    """One valid subgradient of phi at x (see :class:`Objective`)."""
    return Objective(P, spec).evaluate(x, with_subgradient=True)[1]
