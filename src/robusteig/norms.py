"""Penalty norms g1/g2 and the robust objective phi with subgradients.

Both penalty norms are infimal convolutions

    g(x) = min over x = u + v of  ||u||_dom + sum_j c_j |v_j|

with the dominant norm ||.||_inf for g1 and ||.||_2 for g2, and weights
c_j = eps_j / eps formed from the per-column uncertainty budgets.  Their dual
characterizations drive both evaluation and subgradients:

    g1(x) = max { z.x : ||z||_1 <= 1, |z_j| <= c_j }
    g2(x) = max { z.x : ||z||_2 <= 1, |z_j| <= c_j }

and any optimizing z is a subgradient.

Both take one path, with p = 1 for g1 and p = 2 for g2.  When the c^p mass
over the support of x is at most 1 (up to rounding, see box_fits), the box
z = c sign(x) is feasible and g_p is the box value sum_j c_j |x_j|, with no
sort at all, as under g1 with the default c_j = 1/n.  Otherwise only
the largest entries of a key decide the value: its candidates, the shortest
top of the key whose c^p mass reaches 1.  The key is |x_j| for g1 and the
breakpoint |x_j| / c_j for g2.  The candidates are found by selection, as
projections onto the l1 ball are (Duchi et al. 2008): an O(n) partition
takes the top k entries, only those are sorted, and k grows eightfold, up
to n/8, until their mass reaches 1; past n/8 the full stable sort runs.  g1
is then the greedy fill of z over its candidates, and g2 the first
consistent slot among its.  Each arithmetic is defined by the candidates
alone, so a loop over them reproduces it bit for bit, whichever probe found
them.  g1 and g2 start at k = 32; an Objective starts each search at the
candidate count of its last one, grown by a quarter (see _Probe), so along
a descent one probe and one sort of about that many entries find them.

:class:`Objective` is the one place where phi, its subgradient and every
certified lower bound are formed.  Built once per (P, spec), it caches the
weights c and their mass spec.penalty_mass(n); one evaluation costs one
P.matvec (none when the caller hands in P x) and one penalty evaluation,
plus one P.rmatvec and the penalty's dual vector when the subgradient is
asked for.  The subgradient is Objective.dual_vector(u, z) =
(P - I)^T u + eps z for the residual's dual vector u and the penalty's z,
and the solvers' certificates take their bounds from the same method: by
weak duality its least entry bounds min phi on the simplex for every u in
the residual norm's dual ball and z in the penalty's dual set.  The
residual, its norm and the subgradient are formed in place, in the product
the evaluation makes and in the arrays that the rmatvec and the penalty
return: one evaluation with its subgradient peaks at 2 to 5 n-vectors,
where a new array for each step peaked at 7.  phi, phi_value and
subgradient_phi are thin calls into it, and the solvers hold one for the
length of a solve.
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
        budgets = () if self.column_budgets is None else self.column_budgets
        for name, value in (("epsilon", self.epsilon), ("column budgets", budgets)):
            try:
                _check_weights(value)
            except ValueError:
                raise ValueError(f"{name} must be finite and > 0, got {value}") from None

    def weights(self, n: int) -> np.ndarray:
        """Return c_j = eps_j / eps as an array of length n, each finite and
        > 0 (else ValueError, as when a ratio overflows)."""
        cb = self.column_budgets
        if cb is None:
            return np.full(n, 1.0 / n)
        arr = np.asarray(cb, dtype=float)
        if arr.ndim == 0:
            arr = np.full(n, float(arr))
        elif arr.shape != (n,):
            raise ValueError(f"column budgets have shape {arr.shape}, expected ({n},)")
        with np.errstate(over="ignore"):            # an inf ratio fails the check
            return _check_weights(arr / self.epsilon)

    def penalty_mass(self, n: int) -> float | None:
        """sum_j c_j for l1g1, sum_j c_j^2 for l2g2, None for l2l2.

        Where box_fits(mass), at most 1 up to rounding, the g1 or g2 penalty
        is sum_j c_j |x_j|: linear on the simplex, and a constant under the
        default eps/n budgets.  It is the sum that g1 or g2 itself tests.
        """
        if self.pair is NormPair.L2_L2:
            return None
        return _mass(self.weights(n), 1 if self.pair is NormPair.L1_G1 else 2)


@dataclass(frozen=True)
class ObjectiveValue:
    residual_term: float
    penalty_term: float
    total: float


def _check_weights(c: np.ndarray) -> np.ndarray:
    """c as a float array, every entry finite and > 0 (else ValueError): the
    rule for the weights c_j = eps_j / eps, and for eps and the eps_j."""
    c = np.asarray(c, dtype=float)
    if not (np.isfinite(c).all() and (c > 0).all()):
        raise ValueError("all weights c_j = eps_j / eps must be finite and > 0")
    return c


def _check_vector(x: np.ndarray) -> np.ndarray:
    """x as a finite 1-d float array (else InputError, a ValueError)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or not np.isfinite(x).all():
        raise InputError(f"x must be finite and 1-d, got shape {x.shape}")
    return x


def _check_penalty_args(x: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x as a finite 1-d float array, and finite weights c > 0 of its shape."""
    x = _check_vector(x)
    c = _check_weights(c)
    if c.shape != x.shape:
        raise ValueError(f"weights have shape {c.shape}, expected {x.shape}")
    return x, c


# g1 and g2 look for their candidates among the top k of a key before they
# sort everything: the first k worth probing, and the factor by which k grows
# after a probe that falls short.  The full sort takes over past
# n / _PROBE_GROWTH entries, where a probe no longer saves much
_FIRST_PROBE = 32
_PROBE_GROWTH = 8


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


class _Probe:
    """The size of the first top that _candidates probes, carried from one
    search to the next.

    _FIRST_PROBE at first.  After a search that found m candidates among n
    keys it is m grown by a quarter, at least _FIRST_PROBE and at most
    n // _PROBE_GROWTH, the last probe of _tops: where the next key has
    about as many candidates, as along a descent, its first probe holds
    them, and no sort runs on a smaller top that falls short.  Which probe
    finds the candidates changes no bit of them.
    """

    __slots__ = ("k",)

    def __init__(self):
        self.k = _FIRST_PROBE

    def carry(self, m: int, n: int) -> None:
        self.k = max(_FIRST_PROBE, min(m + m // 4, n // _PROBE_GROWTH))


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


# the c^p mass up to which the box z = c sign(x) counts as feasible: 1 plus
# what rounding adds to a float sum of weights that are 1 in exact arithmetic
# (the default c_j = 1/n sum to 1 + 4.4e-16 at n = 2000)
_BOX_SLACK = 1e-12


def box_fits(mass: float) -> bool:
    """Whether weights of c^p mass `mass` over the support make g_p the box
    value sum_j c_j |x_j|: mass at most 1 + _BOX_SLACK.

    The one test of g1, g2 and the CLI's linear-penalty warning.  Above 1 by
    delta <= _BOX_SLACK, the box value exceeds g_p by at most delta times
    g_p, and z = c sign(x) leaves the unit p-ball by as little.
    """
    return mass <= 1.0 + _BOX_SLACK


def _mass(c: np.ndarray, p: int) -> float:
    """sum_j c_j^p, the mass that g_p compares with 1 over the support of x:
    inf, silently, where it passes the float range (c_j past about 1e154
    for p = 2), which every test of it reads as above 1."""
    with np.errstate(over="ignore"):
        return float(np.sum(c if p == 1 else c * c))


def _support_mass(a: np.ndarray, c: np.ndarray, p: int,
                  mass: float | None) -> tuple[np.ndarray | None, float]:
    """The support of a = |x|, None for all of it, else the mask a > 0, and
    the c^p mass over it.

    mass is _mass(c, p), which callers holding c may cache: the support is
    all of x at every iterate of mirror descent.
    """
    if a.size and a.min() > 0.0:               # NaN is not > 0
        return None, _mass(c, p) if mass is None else mass
    support = a > 0
    return support, _mass(c[support], p)


def _box(x: np.ndarray, a: np.ndarray, c: np.ndarray, support: np.ndarray | None,
         dual: bool) -> tuple[float, np.ndarray | None]:
    """The box value sum_j c_j |x_j| over the support, and z = c sign(x)
    there, 0 elsewhere (None unless dual): g_p when the box z = c sign(x)
    fits in the unit p-ball."""
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


def _boxed(c: np.ndarray, p: int, order: np.ndarray, mass: float) -> np.ndarray:
    """boxed[b - 1], the c^p mass of the last b entries of order, summed
    one at a time from its end (np.cumsum is a sequential sum).

    mass is the c^p mass of a set that holds order.  Up to 1e300 no c_j^p
    and no partial mass can overflow, in any order of summation; past it
    (c_j past about 1e154 for p = 2), the masses that pass the float range
    are inf, silently: they lie past the first mass to reach 1, the last
    one read.
    """
    if mass > 1e300:
        with np.errstate(over="ignore"):
            return _boxed(c, p, order, 1.0)
    w = c[order]
    if p == 2:
        w = w * w
    return np.add.accumulate(w[::-1])


def _candidates(key: np.ndarray, c: np.ndarray, p: int, mass: float,
                probe: _Probe | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The candidates of key >= 0, and boxed[b - 1], the c^p mass of their last b.

    The candidates are the shortest top of key, in stable ascending order
    (ties by index), whose c^p mass summed from the largest down reaches 1;
    all of the entries with key > 0 when none does.  They are found by
    selection, as projections onto the l1 ball are (Duchi et al. 2008): the
    top k entries, for each k of _tops until their mass reaches 1, and only
    those are sorted.  The first k is probe.k, which the search then carries
    on (see _Probe), or _FIRST_PROBE without a probe.  The full stable sort
    runs where _tops finds no such top: below n = 8 * _FIRST_PROBE, with NaN
    or inf among the largest, with ties past n / _PROBE_GROWTH entries, and
    when no top of n / _PROBE_GROWTH entries reaches 1.  Whatever the first
    k, the candidates, and so every bit computed from them, are the same.
    mass is the c^p mass over the entries with key > 0, which hold every
    top (see _boxed).
    """
    for top in _tops(key, _FIRST_PROBE if probe is None else probe.k):
        order = top[_stable_argsort(key[top])]
        boxed = _boxed(c, p, order, mass)
        if boxed[-1] >= 1.0:
            break
    else:
        idx = np.flatnonzero(key > 0)
        order = idx[np.argsort(key[idx], kind="stable")]
        boxed = _boxed(c, p, order, mass)
    j = int(boxed.searchsorted(1.0))
    cand = order[max(order.size - j - 1, 0):]
    if probe is not None:
        probe.carry(cand.size, key.size)
    return cand, boxed[:j + 1]


def _g1_with_dual(x: np.ndarray, c: np.ndarray, mass: float | None = None,
                  dual: bool = True, probe: _Probe | None = None
                  ) -> tuple[float, np.ndarray | None]:
    """g1 value and optimizing dual z of max{z.x : ||z||_1 <= 1, |z_j| <= c_j}.

    The box value when box_fits(sum_j c_j over the support).  Otherwise z
    is the greedy fractional-knapsack fill: z_j = c_j sign(x_j) over the
    largest |x_j| until the budget 1 is spent, the last of them taking what
    is left.  Only the candidates of |x| with weights c are filled, and the
    value is their fill times |x_j| summed one at a time from the largest
    down; by LP duality it is min_{t >= 0} t + sum_j c_j (|x_j| - t)_+.
    mass is _mass(c, 1), which callers holding c may cache, and probe the
    first top to search for the candidates, which they may carry from call
    to call (see _Probe).  With dual False, z is not built (None), and the
    value keeps its bits.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    support, mass = _support_mass(a, c, 1, mass)
    if box_fits(mass):
        return _box(x, a, c, support, dual)
    cand, boxed = _candidates(a, c, 1, mass, probe)
    fill = c[cand]                             # ascending: fill[0] is filled last
    fill[0] = min(fill[0], 1.0 - (boxed[-1] - fill[0]))
    value = float(np.add.accumulate((fill * a[cand])[::-1])[-1])
    if not dual:
        return value, None
    z = np.zeros_like(a)
    z[cand] = np.copysign(fill, x[cand])
    return value, z


# g2's rescaled scan moves max |x_j| just below 2^_G2_TOP: a sum of squares of
# up to 2^200 entries stays finite, and every entry down to 2^-(_G2_TOP + 511)
# of the largest keeps a normal square
_G2_TOP = 400


def _g2_with_dual(x: np.ndarray, c: np.ndarray, mass: float | None = None,
                  rescaled: bool = False, dual: bool = True,
                  probe: _Probe | None = None) -> tuple[float, np.ndarray | None]:
    """g2 value and optimizing dual z of max{z.x : ||z||_2 <= 1, |z_j| <= c_j}.

    The optimal z clamps x/rho at the box, z_j = clamp(x_j / rho, +-c_j); rho
    solves ||z(rho)||_2 = 1, found exactly on the sorted breakpoints
    |x_j| / c_j, unless the box absorbs the whole ball (box_fits of the sum
    of c_j^2 over the support), in which case g2 is the box value
    sum_j c_j |x_j|.

    Slot b boxes the b largest breakpoints and leaves the rest uncapped, and
    the answer is the slot with the fewest boxed entries whose rho falls
    inside its own interval.  Only slots whose boxed c^2 mass is below 1 can
    hold, so only the candidates of the breakpoints with weights c^2 are
    ever boxed or bound an interval.  The uncapped mass of a slot is one
    pairwise np.sum of a_j^2 over every entry outside the candidates, then
    the uncapped candidates' squares added in ascending order.  (Total minus
    boxed squares would lose the uncapped mass when the boxed entries hold
    nearly all of it.)

    mass is _mass(c, 2), which callers holding c may cache, and probe the
    first top to search for the candidates, which they may carry from call
    to call (see _Probe).  A mass above 1 only by rounding can leave no
    slot consistent; g2 is then the box value.  Squares that underflow
    (|x_j| below about 1e-154, as on the entries an entropic descent drives
    out) can too: the scan is then redone, once, on x scaled by a power of
    two to max |x_j| just below 2^_G2_TOP, which changes no bit of the
    arithmetic but the underflow.  Entries whose squares still underflow,
    below about 2^-911 of the largest, are dropped: they add at most
    n 2^-911 max |x_j| to the value, and z_j = 0 there keeps z dual
    feasible.  With dual False, z is not built (None), and the value keeps
    its bits.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    support, mass = _support_mass(a, c, 2, mass)
    if box_fits(mass):
        return _box(x, a, c, support, dual)
    bp = a / c
    cand, boxed = _candidates(bp, c, 2, mass, probe)
    a_c, c_c, bp_c = a[cand], c[cand], bp[cand]
    sq = np.multiply(a, a, out=bp)             # bp's buffer, and later z's
    sq[cand] = 0.0
    if support is not None:
        sq[~support] = 0.0                     # x_j NaN; zeros are 0 already
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
    if not hits.size:
        support_size = x.size if support is None else int(np.count_nonzero(support))
        if mass - 1.0 > 2.0 * (support_size + 8) * np.finfo(float).eps:
            if rescaled or not np.isfinite(a.max()):
                raise RuntimeError("g2 breakpoint scan found no consistent interval")
            shift = _G2_TOP - math.frexp(float(a.max()))[1]
            x = np.ldexp(x, shift)             # exact; max |x_j| now below 2^_G2_TOP
            x[np.abs(x) < 2.0 ** -511] = 0.0   # squares below the normal range
            value, z = _g2_with_dual(x, c, rescaled=True, dual=dual, probe=probe)
            return math.ldexp(value, -shift), z
        return _box(x, a, c, support, dual)
    i = hits[-1]
    r = float(rho[i])
    boxed_ca = (c_c * a_c)[i + 1:][::-1]
    capped = np.add.accumulate(boxed_ca)[-1] if boxed_ca.size else 0.0
    value = float(capped + uncapped[i] / r)
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

    x and c must be finite, x 1-d and c > 0 of its shape (else ValueError).
    The box value sum_j c_j |x_j| when sum_j c_j <= 1 over the support (up
    to rounding, see box_fits), as with the default c_j = 1/n; otherwise
    O(n) selection of the k largest |x_j|, with k from 32 grown eightfold
    (the last probe at n/8) until their weight reaches 1, a stable sort of
    those k alone and the greedy fill; the O(n log n) stable sort of every
    |x_j| when the weight is not reached within n/8 of them.
    """
    return _g1_with_dual(*_check_penalty_args(x, c), dual=False)[0]


def g2(x: np.ndarray, c: np.ndarray) -> float:
    """min over x = u + v of ||u||_2 + sum_j c_j |v_j|.

    x and c must be finite, x 1-d and c > 0 of its shape (else ValueError).
    The box value when sum_j c_j^2 <= 1 over the support (up to rounding,
    see box_fits); otherwise O(n) selection of the k largest breakpoints
    |x_j| / c_j, with k from 32 grown eightfold (the last probe at n/8)
    until their c^2 mass reaches 1, a stable sort of those k alone, and
    O(n) sums; the O(n log n) stable sort of every breakpoint when the mass
    is not reached within n/8 of them.  Each call starts at k = 32; the
    evaluations of one Objective start where its last search ended, with
    the same bits.
    """
    return _g2_with_dual(*_check_penalty_args(x, c), dual=False)[0]


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

    The subgradient is dual_vector(u, z) = (P - I)^T u + eps z, with u the
    residual's dual vector, sign(Px - x) for the l1 norm or
    (Px - x)/||Px - x||_2 for l2 (0 when Px = x), and z the penalty norm's
    optimizing dual vector.

    Each evaluation works in arrays of its own: the residual overwrites the
    product P x that it makes (never one the caller hands in), and its l1
    norm and sign(r) or r / ||r||_2 are taken in place; dual_vector forms
    the subgradient in the rmatvec's array.  The g1 and g2 searches for
    their candidates start where the last one ended (see _Probe), which
    changes their work but no bit.
    """

    def __init__(self, P: SparseStochasticMatrix, spec: UncertaintySpec):
        self.P = P
        self.spec = spec
        self._l1_residual = spec.pair.residual_norm == "l1"
        self._weights = None if spec.pair is NormPair.L2_L2 else spec.weights(P.n)
        self._mass = None if self._weights is None else _mass(
            self._weights, 1 if self._l1_residual else 2)
        self._probe = _Probe()

    def _penalty_with_dual(self, x: np.ndarray,
                           dual: bool) -> tuple[float, np.ndarray | None]:
        """Penalty-norm value, and a subgradient of it at x when dual (else
        None), a new array."""
        if self._weights is None:
            nx = float(np.linalg.norm(x))
            if not dual:
                return nx, None
            if nx == 0.0:
                return 0.0, np.zeros_like(x)
            return nx, x / nx
        if self.spec.pair is NormPair.L1_G1:
            return _g1_with_dual(x, self._weights, self._mass, dual=dual, probe=self._probe)
        return _g2_with_dual(x, self._weights, self._mass, dual=dual, probe=self._probe)

    def _residual(self, x: np.ndarray, Px: np.ndarray | None,
                  dual: bool) -> tuple[float, np.ndarray | None]:
        """||P x - x||, and its dual vector u when dual (else None): sign(r)
        for l1, r / ||r||_2 for l2, None for 0 when P x = x there.  u
        overwrites the residual r."""
        P = self.P
        if Px is None:
            r = P.matvec(x)             # rejects a vector of the wrong shape
            r -= x                      # the product is this call's own
        elif x.shape != (P.n,) or np.shape(Px) != (P.n,):
            raise InputError(f"x and Px have shapes {x.shape} and {np.shape(Px)}, "
                             f"expected ({P.n},)")
        else:
            r = np.subtract(Px, x)
        if self._l1_residual:
            u = np.sign(r) if dual else None
            return float(np.abs(r, out=r).sum()), u
        norm = float(np.linalg.norm(r))
        return norm, np.divide(r, norm, out=r) if dual and norm != 0.0 else None

    def dual_vector(self, u: np.ndarray | None, z: np.ndarray) -> np.ndarray:
        """(P - I)^T u + eps z, in the rmatvec's array, with z scaled in place.

        u None stands for 0: no rmatvec, and eps z is returned.  For u in
        the residual norm's dual ball (l_inf for l1g1, l_2 otherwise) and z
        in the penalty's dual set, phi(y) >= this vector . y >= its least
        entry for every y on the simplex: the one vector behind the
        subgradient and every certified lower bound.
        """
        z *= self.spec.epsilon
        if u is None:
            return z
        h = self.P.rmatvec(u)
        h -= u
        h += z
        return h

    def evaluate(self, x: np.ndarray, with_subgradient: bool = False, *,
                 Px: np.ndarray | None = None
                 ) -> tuple[ObjectiveValue, np.ndarray | None]:
        """phi at x, and a subgradient there when asked (else None).

        Px is the product P x when the caller already holds it, as the
        regularized power method does; it saves the one matvec and is read,
        never written.  x and Px must both have shape (n,).
        """
        x = np.asarray(x, dtype=float)
        residual_term, u = self._residual(x, Px, with_subgradient)
        penalty_value, z = self._penalty_with_dual(x, with_subgradient)
        penalty_term = self.spec.epsilon * penalty_value
        value = ObjectiveValue(residual_term, penalty_term, residual_term + penalty_term)
        if not with_subgradient:
            return value, None
        return value, self.dual_vector(u, z)


def phi(P: SparseStochasticMatrix, x: np.ndarray, spec: UncertaintySpec) -> ObjectiveValue:
    """Robust objective: residual norm of P x - x plus eps times the penalty."""
    return Objective(P, spec).evaluate(check_score_vector(x))[0]


def phi_value(P: SparseStochasticMatrix, x: np.ndarray, spec: UncertaintySpec) -> float:
    return phi(P, x, spec).total


def subgradient_phi(P: SparseStochasticMatrix, x: np.ndarray, spec: UncertaintySpec) -> np.ndarray:
    """One valid subgradient of phi at x (see :class:`Objective`).

    x must be finite and of shape (n,) (else InputError), but may lie off
    the simplex.
    """
    return Objective(P, spec).evaluate(_check_vector(x), with_subgradient=True)[1]
