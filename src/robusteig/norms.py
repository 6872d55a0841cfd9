"""Penalty norms g1/g2 and the robust objective phi with subgradients.

Both penalty norms are infimal convolutions

    g(x) = min over x = u + v of  ||u||_dom + sum_j c_j |v_j|

with the dominant norm ||.||_inf for g1 and ||.||_2 for g2, and weights
c_j = eps_j / eps formed from the per-column uncertainty budgets.  Their dual
characterizations drive both evaluation and subgradients:

    g1(x) = max { z.x : ||z||_1 <= 1, |z_j| <= c_j }
    g2(x) = max { z.x : ||z||_2 <= 1, |z_j| <= c_j }

and any optimizing z is a subgradient.

Both find what they need by selection, as projections onto the l1 ball do
(Duchi et al. 2008), with one probe: an O(n) partition takes the top k
entries (of |x| for g1, of the breakpoints |x_j| / c_j for g2), only those
are sorted, and k grows eightfold, up to n/8, until they suffice; past n/8
the full stable sort runs.  g1's greedy fill of z reaches the budget 1
within the few largest |x_j|, and its prefix certifies the full sort's
answer bit for bit; weights that cannot fill 1 within n/8 entries (sum(c)
<= 1, as with the default c_j = 1/n) go straight to the full scan.  g2's
rho can fall only in an interval whose boxed c^2 mass is below 1, so only
the largest breakpoints up to c^2 mass 1, its candidates, are ever boxed:
the top holds them once its mass reaches 1.  g2's arithmetic is defined by
the candidates alone, so a loop over them reproduces it bit for bit,
whichever probe found them.

:class:`Objective` is the one place where phi and its subgradient are
computed.  Built once per (P, spec), it caches the weights c; one evaluation
costs one P.matvec (none when the caller hands in P x) and one penalty
evaluation, plus one P.rmatvec and the penalty's dual vector when the
subgradient is asked for.  phi, phi_value and subgradient_phi are thin calls
into it, and the solvers hold one for the length of a solve.
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

    def penalty_mass(self, n: int) -> float | None:
        """sum_j c_j for l1g1, sum_j c_j^2 for l2g2, None for l2l2.

        At most 1, the g1 or g2 penalty is sum_j c_j |x_j|: linear on the
        simplex, and a constant under the default eps/n budgets.  The l2g2
        mass is the sum that g2 itself compares with 1.
        """
        if self.pair is NormPair.L2_L2:
            return None
        c = self.weights(n)
        return float(c.sum()) if self.pair is NormPair.L1_G1 else _g2_mass(c)


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


# g1 and g2 look for what they need among the top k of |x| (g1) or of the
# breakpoints (g2) before they sort everything: the first k worth probing,
# and the factor by which k grows after a probe that falls short.  The full
# sort takes over past n / _PROBE_GROWTH entries, where a probe no longer
# saves much
_FIRST_PROBE = 32
_PROBE_GROWTH = 8


def _g1_guard(c: np.ndarray) -> tuple[float, int]:
    """Sum of the weights c, and the size of the first top-k probe of g1.

    k entries carry weight at most k max(c), and all n carry sum(c), so no
    prefix shorter than 1 / max(c) fills the budget 1, and none does when
    sum(c) <= 1; the probe then has size n, which is the full scan.  The
    first probe is twice that shortest prefix, for room past the fill.
    """
    total = float(c.sum())
    reach = 2 * math.ceil(1.0 / float(c.max())) if total > 1.0 else c.size
    return total, max(_FIRST_PROBE, reach)


def _g1_scan(x: np.ndarray, a: np.ndarray, c: np.ndarray,
             dual: bool = True) -> tuple[float, np.ndarray | None]:
    """g1 value and dual vector (None unless dual) from the scan over all of a = |x|."""
    order = np.argsort(-a, kind="stable")
    a_s, c_s = a[order], c[order]
    cum_c = np.cumsum(c_s)
    prev_c = cum_c - c_s                       # sum of c over strictly larger |x|
    prev_ca = np.cumsum(c_s * a_s) - c_s * a_s
    candidates = a_s * (1.0 - prev_c) + prev_ca
    value = float(np.sum(c_s * a_s))           # t = 0
    if candidates.size:
        value = min(value, float(candidates.min()))
    if not dual:
        return value, None
    fill = np.clip(1.0 - prev_c, 0.0, c_s)
    z = np.empty_like(a)
    z[order] = fill
    z *= np.sign(x)
    return value, z


def _tops(a: np.ndarray, k: int):
    """The ascending indices j with a_j at least the k-th largest of a >= 0,
    ties included, for k, then k grown by _PROBE_GROWTH, up to and last at
    n // _PROBE_GROWTH; nothing when k already passes that.

    One O(n) selection takes the n // _PROBE_GROWTH largest values, among
    which each probe finds its threshold; one O(n) comparison then finds the
    indices.  Ends early when the largest values hold NaN or inf, which only
    the full sort orders, and when ties take a top past n // _PROBE_GROWTH
    entries.
    """
    n = a.size
    cap = n // _PROBE_GROWTH
    if k > cap:
        return
    part = a.copy()
    part.partition(n - cap)                    # O(n) selection, in place
    largest = part[n - cap:]
    if not np.isfinite(largest).all():         # NaN and inf sort last
        return
    while True:
        largest.partition(cap - k)
        top = (a >= largest[cap - k]).nonzero()[0]
        if top.size > cap:
            return
        yield top
        if k == cap:
            return
        k = min(k * _PROBE_GROWTH, cap)


def _stable_argsort(b: np.ndarray) -> np.ndarray:
    """np.argsort(b, kind="stable") for b without NaN, at less cost past 1e3 entries.

    The stable sort is a merge sort.  On a 2-core x86-64 host, below about
    1e3 floats it is the cheaper (2.6 against 10 us at 32); above, it costs
    two to four times the default sort (121 against 47 us at 2048, 1.0
    against 0.45 ms on the 12 500 largest breakpoints of a web-large
    iterate).  There the default sort orders b, but not equal entries by
    index; where b repeats, a second sort does, on a key unique to each
    entry: the rank of its run of equal values, then its index.  That key
    is in order but inside runs, where the merge sort is fastest.
    """
    if b.size < 1024:
        return np.argsort(b, kind="stable")
    perm = np.argsort(b)
    b_s = b[perm]
    run = np.zeros(b.size, dtype=np.int64)
    np.cumsum(b_s[1:] != b_s[:-1], out=run[1:])
    if run[-1] == b.size - 1:                  # no two equal
        return perm
    run *= b.size
    run += perm
    return perm[np.argsort(run, kind="stable")]


def _g1_on_prefix(x: np.ndarray, a: np.ndarray, c: np.ndarray, top: np.ndarray,
                  total: float, dual: bool = True) -> tuple[float, np.ndarray | None] | None:
    """The scan's value and dual vector from the entries top alone, or None.

    a is |x|, and top holds every index whose |x_j| is at least some
    threshold, so its stable descending order is the first top.size entries
    of the scan's, and the same formulas give the same bits there.  Past the
    prefix the scan's fill is 0 and its candidates h(|x_j|), with h(t) = t +
    sum_j c_j (|x_j| - t)_+, do not fall below h at the last prefix entry,
    since h decreases while more than weight 1 lies above t; t = 0 is one
    more such point.  The answer is certified when the prefix weight passes
    1, and that last candidate passes the minimum, by more than the rounding
    of a running sum over n entries (Higham 2002, ch. 4); otherwise None.
    """
    a_top = a[top]
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
    if not dual:
        return float(best), None
    z = np.sign(x)
    z *= 0.0                                   # the scan's 0 * sign(x_j) past the prefix
    z[order] = np.clip(1.0 - prev_c, 0.0, c_s) * np.sign(x[order])
    return float(best), z


def _g1_with_dual(x: np.ndarray, c: np.ndarray, guard: tuple[float, int] | None = None,
                  dual: bool = True) -> tuple[float, np.ndarray | None]:
    """g1 value via the threshold scan plus an optimizing dual vector.

    The primal minimum over decompositions reduces to
    min_{t >= 0} t + sum_j c_j (|x_j| - t)_+ scanned over breakpoints
    t in {0} U {|x_j|}; the dual vector is the greedy fractional-knapsack
    fill of max{z.x : ||z||_1 <= 1, |z_j| <= c_j}.  The fill reaches the
    budget 1 after a few of the largest |x_j|, so the scan runs first on the
    top k of them (found by selection, ties included), for each k of _tops
    while the prefix cannot certify the full scan's bits, and then over all
    of x.  guard is _g1_guard(c), which callers holding c may cache.  With
    dual False the dual vector is not built (None), and the value keeps its
    bits.
    """
    x = np.asarray(x, dtype=float)
    total, k = guard if guard is not None else _g1_guard(c)
    a = np.abs(x)
    for top in _tops(a, k):
        found = _g1_on_prefix(x, a, c, top, total, dual)
        if found is not None:
            return found
    return _g1_scan(x, a, c, dual)


# g2's rescaled scan moves max |x_j| just below 2^_G2_TOP: a sum of squares of
# up to 2^200 entries stays finite, and every entry down to 2^-(_G2_TOP + 511)
# of the largest keeps a normal square
_G2_TOP = 400


def _g2_mass(c: np.ndarray) -> float:
    """sum_j c_j^2, the mass that g2 compares with 1 over the support of x.

    The support is all of x at every iterate of mirror descent, so callers
    holding c may cache the mass of all of c.
    """
    return float(np.sum(c * c))


def _g2_candidates(c: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest tail of order whose c^2 mass, summed from its end, reaches
    1 (all of order when none does), and boxed[b - 1], the mass of its last b.

    order holds indices in the stable ascending order of the breakpoints,
    so its end is the largest.
    """
    c_o = c[order]
    boxed = np.add.accumulate((c_o * c_o)[::-1])   # np.cumsum: a sequential sum
    j = int(boxed.searchsorted(1.0))
    return order[max(order.size - j - 1, 0):], boxed[:j + 1]


def _g2_with_dual(x: np.ndarray, c: np.ndarray, mass: float | None = None,
                  rescaled: bool = False, dual: bool = True
                  ) -> tuple[float, np.ndarray | None]:
    """g2 value and optimizing dual z of max{z.x : ||z||_2 <= 1, |z_j| <= c_j}.

    The optimal z clamps x/rho at the box, z_j = clamp(x_j / rho, +-c_j); rho
    solves ||z(rho)||_2 = 1, found exactly on the sorted breakpoints
    |x_j| / c_j, unless the box absorbs the whole ball (sum of c_j^2 over the
    support <= 1), in which case g2 = sum_j c_j |x_j|.

    Slot b boxes the b largest breakpoints and leaves the rest uncapped, and
    the answer is the slot with the fewest boxed entries whose rho falls
    inside its own interval.  Only slots whose boxed c^2 mass is below 1 can
    hold, so only the candidates are ever boxed or bound an interval: the
    shortest tail of the breakpoints, in stable ascending order (ties by
    index), whose c^2 mass from the largest down reaches 1.  They are found
    by selection, as g1's prefix is: the top k breakpoints, for each k of
    _tops until their mass reaches 1, and only those are sorted.  The full
    stable sort of the support runs where _tops finds no such top: below
    n = 8 * _FIRST_PROBE, with NaN or inf among the largest, with ties past
    n / _PROBE_GROWTH entries, and when no tail of n / _PROBE_GROWTH
    entries reaches 1 (all of the support are candidates when none of it
    does).  The arithmetic depends on the candidates alone, not on how they
    were found: the uncapped mass of a slot is one pairwise np.sum of a_j^2
    over every entry outside the candidates, then the uncapped candidates'
    squares added in ascending order.  (Total minus boxed squares would
    lose the uncapped mass when the boxed entries hold nearly all of it.)

    mass is _g2_mass(c), which callers holding c may cache.  A mass above 1
    only by rounding can leave no slot consistent; g2 is then the box value.
    Squares that underflow (|x_j| below about 1e-154, as on the entries an
    entropic descent drives out) can too: the scan is then redone, once, on
    x scaled by a power of two to max |x_j| just below 2^_G2_TOP, which
    changes no bit of the arithmetic but the underflow.  Entries whose
    squares still underflow, below about 2^-911 of the largest, are dropped:
    they add at most n 2^-911 max |x_j| to the value, and z_j = 0 there
    keeps z dual feasible.  With dual False, z is not built (None), and the
    value keeps its bits.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    a = np.abs(x)
    if n and a.min() > 0.0:                    # full support; NaN is not > 0
        support = None
        if mass is None:
            mass = _g2_mass(c)
    else:
        support = a > 0
        if not support.any():
            return 0.0, np.zeros_like(a) if dual else None
        mass = _g2_mass(c[support])
    r = None
    if mass > 1.0:
        bp = a / c
        for top in _tops(bp, _FIRST_PROBE):   # all in the support: bp is finite, above 0
            cand, boxed = _g2_candidates(c, top[_stable_argsort(bp[top])])
            if boxed[-1] >= 1.0:
                break
        else:
            idx = np.flatnonzero(a > 0)
            cand, boxed = _g2_candidates(c, idx[np.argsort(bp[idx], kind="stable")])
        a_c, c_c, bp_c = a[cand], c[cand], bp[cand]
        sq = np.multiply(a, a, out=bp)         # bp's buffer, and later z's
        sq[cand] = 0.0
        if support is not None:
            sq[~support] = 0.0                 # x_j NaN; zeros are 0 already
        # uncapped[i] puts candidates 0..i uncapped, the other m - 1 - i boxed
        m = cand.size
        uncapped = np.empty(m + 1)
        uncapped[0] = np.add.reduce(sq)
        np.multiply(a_c, a_c, out=uncapped[1:])
        uncapped = np.add.accumulate(uncapped)[1:]
        room = np.ones(m)                                    # 1 - boxed mass
        np.subtract(1.0, boxed[:m - 1][::-1], out=room[:-1])
        rho = np.sqrt(uncapped / room)
        hi = np.empty(m)                                     # each slot's upper bound
        hi[:-1] = bp_c[1:]
        hi[-1] = np.inf
        consistent = ((uncapped != 0.0) & (bp_c * (1.0 - 1e-12) <= rho)
                      & (rho <= hi * (1.0 + 1e-12) + 1e-300))
        hits = consistent.nonzero()[0]
        if hits.size:
            i = hits[-1]
            r = float(rho[i])
            boxed_ca = (c_c * a_c)[i + 1:][::-1]
            capped = np.add.accumulate(boxed_ca)[-1] if boxed_ca.size else 0.0
            value = float(capped + uncapped[i] / r)
        else:
            support_size = n if support is None else int(np.count_nonzero(support))
            if mass - 1.0 > 2.0 * (support_size + 8) * np.finfo(float).eps:
                if rescaled or not np.isfinite(a.max()):
                    raise RuntimeError("g2 breakpoint scan found no consistent interval")
                shift = _G2_TOP - math.frexp(float(a.max()))[1]
                x = np.ldexp(x, shift)             # exact; max |x_j| now below 2^_G2_TOP
                x[np.abs(x) < 2.0 ** -511] = 0.0   # squares below the normal range
                value, z = _g2_with_dual(x, c, rescaled=True, dual=dual)
                return math.ldexp(value, -shift), z
    if r is None:                              # the box value
        if support is None:
            x_s, a_s, c_s = x, a, c
        else:
            x_s, a_s, c_s = x[support], a[support], c[support]
        value = float(np.sum(c_s * a_s))
        if not dual:
            return value, None
        z_s = np.copysign(c_s, x_s)
        if support is None:
            return value, z_s
        z = np.zeros_like(a)
        z[support] = z_s
        return value, z
    if not dual:
        return value, None
    z = np.divide(a, r, out=sq)
    np.minimum(z, c, out=z)
    if math.isfinite(r):
        np.copysign(z, x, out=z)
    else:                                      # inf / inf is NaN, whose bits copysign would change
        z *= np.sign(x)
    if support is not None:
        z[~support] = 0.0
    return value, z


def g1(x: np.ndarray, c: np.ndarray) -> float:
    """min over x = u + v of ||u||_inf + sum_j c_j |v_j|.

    O(n) selection plus a sort of the k largest |x_j|, where k is 32, or
    2/max(c) when that is more, grown eightfold (the last probe at n/8)
    while the fill of weight 1 is not certified inside them; the O(n log n)
    full scan when k would pass n/8, as it does when sum(c) <= 1 (the
    default c_j = 1/n).
    """
    return _g1_with_dual(x, _check_weights(c), dual=False)[0]


def g2(x: np.ndarray, c: np.ndarray) -> float:
    """min over x = u + v of ||u||_2 + sum_j c_j |v_j|.

    O(n) selection of the k largest breakpoints |x_j| / c_j, with k from 32
    grown eightfold (the last probe at n/8) until their c^2 mass reaches 1,
    a stable sort of those k alone, and O(n) sums; the O(n log n) stable
    sort of every breakpoint when the mass is not reached within n/8 of
    them.  No sort at all when sum_j c_j^2 <= 1 over the support.
    """
    return _g2_with_dual(x, _check_weights(c), dual=False)[0]


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

    def _penalty_with_dual(self, x: np.ndarray,
                           dual: bool) -> tuple[float, np.ndarray | None]:
        """Penalty-norm value, and a subgradient of it at x when dual (else None)."""
        if self._weights is None:
            nx = float(np.linalg.norm(x))
            if not dual:
                return nx, None
            if nx == 0.0:
                return 0.0, np.zeros_like(x)
            return nx, x / nx
        if self.spec.pair is NormPair.L1_G1:
            return _g1_with_dual(x, self._weights, self._g1_guard, dual=dual)
        return _g2_with_dual(x, self._weights, self._g2_mass, dual=dual)

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
        penalty_value, g_pen = self._penalty_with_dual(x, with_subgradient)
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
