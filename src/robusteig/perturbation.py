"""Worst-case and sampled perturbations of a stochastic matrix.

The rank-1 construction eps * (Px - x) x^T / (||Px - x|| ||x||) attains the
Frobenius-ball bound ||(P + xi) x - x||_2 = ||Px - x||_2 + eps ||x||_2
exactly; samplers draw feasible members of the column-constrained sets so the
convex upper bounds can be checked against realized residuals empirically.

Set names:
    xi1      zero column sums, per-column l1 caps eps_j, total l1 <= eps
    xi2      zero column sums, per-column l1 caps eps_j, Frobenius <= eps
    xif      P + xi stochastic, Frobenius <= eps
    xif_ball Frobenius <= eps and zero column sums, nonnegativity NOT enforced
             (the set in which the rank-1 worst case lives)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_matrix import SparseStochasticMatrix
from .norms import NormPair, UncertaintySpec, phi_value

FEASIBILITY_TOL = 1e-10

PERTURBATION_SETS = ("xi1", "xi2", "xif", "xif_ball")

_SET_PAIR = {
    "xi1": NormPair.L1_G1,
    "xi2": NormPair.L2_G2,
    "xif": NormPair.L2_L2,
    "xif_ball": NormPair.L2_L2,
}


class InfeasiblePerturbationError(ValueError):
    """No feasible perturbation exists for the requested set and budgets."""


def pair_for_set(set_name: str) -> NormPair:
    """The norm pair whose upper bound matches a perturbation set."""
    try:
        return _SET_PAIR[set_name]
    except KeyError:
        raise ValueError(f"unknown perturbation set {set_name!r}; "
                         f"expected one of {PERTURBATION_SETS}") from None


@dataclass(frozen=True)
class Rank1Perturbation:
    """xi = scale * left right^T, stored factored; materialize on demand."""

    scale: float
    left: np.ndarray
    right: np.ndarray

    def materialize(self) -> np.ndarray:
        return self.scale * np.outer(self.left, self.right)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """xi @ v without forming the matrix."""
        return self.scale * self.left * float(self.right @ v)


@dataclass(frozen=True)
class PerturbationSample:
    """A feasible xi; its norms, the feasibility certificate, are measured
    from xi when read, so a sample costs no array beyond xi itself."""

    xi: np.ndarray
    set_name: str
    stochastic_ok: bool | None

    @property
    def max_column_sum(self) -> float:
        return float(np.abs(self.xi.sum(axis=0)).max())

    @property
    def max_column_l1(self) -> float:
        return float(np.abs(self.xi).sum(axis=0).max())

    @property
    def total_l1(self) -> float:
        return float(np.abs(self.xi).sum())

    @property
    def frobenius(self) -> float:
        return float(np.linalg.norm(self.xi))


@dataclass(frozen=True)
class PerturbationBoundReport:
    """Sampled check of max over ||xi||_F <= eps of ||a + xi b||_2."""

    bound: float
    attained: float
    equality_gap: float
    max_sampled: float
    n_samples: int
    bound_satisfied: bool


def _fallback_direction(n: int) -> np.ndarray:
    # unit norm with zero entry sum, so column sums of xi stay zero
    if n < 2:
        raise ValueError("fallback direction needs dimension >= 2")
    c = np.zeros(n)
    c[0] = 1.0 / np.sqrt(2.0)
    c[1] = -1.0 / np.sqrt(2.0)
    return c


def worst_case_rank1(P: SparseStochasticMatrix, x: np.ndarray, eps: float) -> Rank1Perturbation:
    """The perturbation attaining ||(P+xi)x - x||_2 = ||Px-x||_2 + eps ||x||_2.

    xi* = eps (Px - x) x^T / (||Px - x||_2 ||x||_2); when Px = x the residual
    direction degenerates and a fixed unit zero-sum direction is used instead
    (the bound is still attained).
    """
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    x = np.asarray(x, dtype=float)
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        raise ValueError("x must be nonzero")
    r = P.matvec(x) - x
    nr = float(np.linalg.norm(r))
    left = _fallback_direction(P.n) if nr == 0.0 else r / nr
    return Rank1Perturbation(scale=float(eps), left=left, right=x / nx)


def _check_sample_count(n_samples: int) -> None:
    # no samples would make "every sample within the bound" hold vacuously
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")


def check_perturbation_bound(a: np.ndarray, b: np.ndarray, eps: float,
                             n_samples: int = 1000, rng_seed: int = 0) -> PerturbationBoundReport:
    """Verify max over ||xi||_F <= eps of ||a + xi b||_2 = ||a||_2 + eps ||b||_2.

    Samples random Frobenius-ball perturbations (none may exceed the bound)
    and constructs the attaining rank-1 xi* = eps a b^T / (||a|| ||b||),
    falling back to a fixed unit direction when a = 0.  n_samples below 1
    raises ValueError.
    """
    _check_sample_count(n_samples)
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    bound = na + eps * nb
    rng = np.random.default_rng(rng_seed)
    max_sampled = 0.0
    for _ in range(n_samples):
        xi = rng.standard_normal((a.size, b.size))
        nf = float(np.linalg.norm(xi))
        if nf > 0:
            xi *= rng.uniform(0.0, 1.0) * eps / nf
        max_sampled = max(max_sampled, float(np.linalg.norm(a + xi @ b)))
    if na > 0.0:
        left = a / na
    elif a.size >= 2:
        left = _fallback_direction(a.size)
    else:
        left = np.ones(1)
    xi_star = eps * np.outer(left, b / nb) if nb > 0 else np.zeros((a.size, b.size))
    attained = float(np.linalg.norm(a + xi_star @ b))
    return PerturbationBoundReport(
        bound=bound,
        attained=attained,
        equality_gap=abs(attained - bound),
        max_sampled=max_sampled,
        n_samples=n_samples,
        bound_satisfied=bool(max_sampled <= bound + FEASIBILITY_TOL),
    )


def _column_supports(P: SparseStochasticMatrix,
                     keep: np.ndarray | None = None) -> list[np.ndarray]:
    """Row indices carrying mass in each column (dangling: all rows).

    keep, a mask over the stored entries, leaves out those where it is False.
    """
    links = P._links
    supports = []
    all_rows = np.arange(P.n)
    for j in range(P.n):
        if j in P.dangling_columns:
            supports.append(all_rows)
        else:
            lo, hi = links.indptr[j], links.indptr[j + 1]
            rows = links.indices[lo:hi]
            supports.append(rows if keep is None else rows[keep[lo:hi]])
    return supports


def _lowest_entry(P: SparseStochasticMatrix, xi: np.ndarray, cols: np.ndarray) -> float:
    """min (P + xi) over the entries that can be negative, without dense P.

    Off the stored entries and the dangling columns (which store no links),
    P is 0 and xi >= 0, so those entries cannot decide whether the min is
    >= t for any t <= 0.  Rounding is monotone, so the dangling columns give
    1/n + their least xi.  cols holds the column of each stored entry.
    """
    links = P._links
    low = float((links.data + xi[links.indices, cols]).min()) if links.nnz else np.inf
    if P.dangling_columns:
        low = min(low, float(1.0 / P.n + xi.min(axis=0)[P._dangling_index].min()))
    return low


def sample_perturbation(P: SparseStochasticMatrix, spec: UncertaintySpec,
                        set_name: str, rng_seed: int = 0) -> PerturbationSample:
    """Draw a feasible perturbation from the chosen set, reproducibly.

    xi1 / xi2 columns carry i.i.d. symmetric noise on the column's link
    support, centered to zero sum and scaled inside the per-column budget,
    then rescaled to the total budget.  xif additionally forces P + xi
    stochastic by allowing only nonnegative off-support mass and halving xi
    until P + xi >= 0.  The returned xi is the only n x n float array drawn.
    """
    pair_for_set(set_name)                           # rejects an unknown set
    rng = np.random.default_rng(rng_seed)
    n = P.n
    stochastic_ok = None

    if set_name in ("xi1", "xi2"):
        xi = np.zeros((n, n))
        budgets = spec.weights(n) * spec.epsilon     # eps_j
        for j, support in enumerate(_column_supports(P)):
            if support.size < 2:
                continue                             # no nonzero zero-sum vector fits
            v = rng.standard_normal(support.size)
            v -= v.mean()
            l1 = float(np.abs(v).sum())
            if l1 == 0.0:
                continue
            v *= rng.uniform(0.0, 1.0) * budgets[j] / l1
            xi[support, j] = v
        if set_name == "xi1":
            # sum |xi| in place, then restore the signs (-0.0 included) from
            # a bool array: no second n x n float array
            neg = np.signbit(xi)
            np.abs(xi, out=xi)
            total = float(xi.sum())
            np.negative(xi, out=xi, where=neg)
        else:
            total = float(np.linalg.norm(xi))
        if total > spec.epsilon:
            xi *= spec.epsilon / total
    elif set_name == "xif_ball":
        xi = rng.standard_normal((n, n))
        xi -= xi.mean(axis=0, keepdims=True)
        nf = float(np.linalg.norm(xi))
        if nf > 0:
            xi *= rng.uniform(0.0, 1.0) * spec.epsilon / nf
    else:  # xif
        links = P._links
        cols = np.repeat(np.arange(n), np.diff(links.indptr))
        positive = links.data > 0
        xi = rng.standard_normal((n, n))
        off_support = np.ones((n, n), dtype=bool)   # zero entries of P have no mass to lose
        off_support[links.indices[positive], cols[positive]] = False
        off_support[:, P._dangling_index] = False
        np.abs(xi, out=xi, where=off_support)
        del off_support
        for j, support in enumerate(_column_supports(P, positive)):
            xi[support, j] -= xi[:, j].sum() / support.size
        nf = float(np.linalg.norm(xi))
        if nf > 0:
            xi *= rng.uniform(0.0, 1.0) * spec.epsilon / nf
        for _ in range(60):
            low = _lowest_entry(P, xi, cols)
            if low >= 0.0:
                break
            xi /= 2.0
        else:
            raise InfeasiblePerturbationError(
                "could not shrink the perturbation into the stochastic set")
        stochastic_ok = bool(low >= -FEASIBILITY_TOL
                             and np.abs(xi.sum(axis=0)).max() <= FEASIBILITY_TOL)

    return PerturbationSample(xi=xi, set_name=set_name, stochastic_ok=stochastic_ok)


def sampled_residuals(P: SparseStochasticMatrix, x: np.ndarray, spec: UncertaintySpec,
                      set_name: str, n_samples: int = 1000,
                      rng_seed: int = 0) -> tuple[list[float], bool]:
    """Realized ||(P + xi) x - x|| for the samples rng_seed, rng_seed + 1, ...

    The norm is l1 for xi1 and l2 otherwise.  Returns the per-sample values
    and whether no sample reported itself infeasible.  Each sample is dropped
    before the next is drawn, so one xi is alive at a time beside dense P.
    n_samples below 1 raises ValueError before any work.
    """
    _check_sample_count(n_samples)
    x = np.asarray(x, dtype=float)
    ord_ = 1 if set_name == "xi1" else 2
    dense = P.to_dense()
    realized = []
    all_feasible = True
    for i in range(n_samples):
        sample = sample_perturbation(P, spec, set_name, rng_seed + i)
        all_feasible = all_feasible and sample.stochastic_ok is not False
        perturbed = sample.xi
        del sample
        perturbed += dense                           # P + xi in the sample's own array
        realized.append(float(np.linalg.norm(perturbed @ x - x, ord=ord_)))
        del perturbed
    return realized, all_feasible


def empirical_phi_lower_bound(P: SparseStochasticMatrix, x: np.ndarray,
                              spec: UncertaintySpec, set_name: str,
                              n_samples: int = 1000, rng_seed: int = 0,
                              include_rank1: bool = False) -> float:
    """Max realized ||(P + xi) x - x|| over sampled feasible xi.

    A sampled lower bound for the intractable worst case; always at most the
    matching convex upper bound phi(x) (checked, violation means a bug).  With
    include_rank1 the attaining rank-1 perturbation joins the pool, which
    closes the gap exactly for the unconstrained Frobenius ball xif_ball; the
    other sets do not hold it (it breaks nonnegativity or the column budgets),
    so for them include_rank1 raises ValueError, as does n_samples below 1.
    """
    _check_sample_count(n_samples)
    expected_pair = pair_for_set(set_name)
    if spec.pair is not expected_pair:
        raise ValueError(f"set {set_name!r} pairs with {expected_pair.value}, "
                         f"but spec uses {spec.pair.value}")
    if include_rank1 and set_name != "xif_ball":
        raise ValueError("include_rank1 applies to set 'xif_ball' only: the rank-1 "
                         f"worst case lies outside set {set_name!r}")
    x = np.asarray(x, dtype=float)
    realized, _ = sampled_residuals(P, x, spec, set_name, n_samples, rng_seed)
    best = max([0.0, *realized])
    if include_rank1:
        xi_star = worst_case_rank1(P, x, spec.epsilon)
        best = max(best, float(np.linalg.norm(P.matvec(x) - x + xi_star.apply(x))))
    upper = phi_value(P, x, spec)
    if best > upper + 1e-9:
        raise RuntimeError(f"sampled residual {best} exceeds the convex bound {upper}; "
                           "this indicates a bug in the sampler or the bound")
    return best
