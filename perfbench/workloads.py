"""The three workloads: their inputs, timed `robusteig` calls and checks.

Every timed call is the library function a `robusteig rank|compare|stress`
command makes, with the arguments that command passes:

    setup          load_edge_list + from_edge_list (--input), or
                   models.generate (--model model2 --n 20)
    nominal        solvers.dominant_eigenvector(P, tol)          (--solver nominal --tol)
    pagerank       solvers.pagerank(P, 0.85, 1e-10, max_iter, spec)  (--solver pagerank)
    algorithm1     solvers.regularized_power_method(P, spec, max_iter)  (--solver algorithm1)
    robust         solvers.mirror_descent_minimize(P, spec, SolverConfig(...))
                                                                 (--solver robust-exact)
    stress         the sampling loop of `robusteig stress`, on the robust l2l2 vector

with epsilon 1 and `--col-budget inv-degree` budgets.  The one exception is
web-large's robust solve, which shortens the mirror-descent schedule (see
WebLarge).  Checks use `reference` only.

The one known fault, robust l1g1 stopping above the LP optimum, is excused
(tagged with harness.KNOWN) only as it is seen today: the full step schedule
run out, and phi above the optimum by at most the workload's `l1g1_excess`.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as ref
from graphs import web_graph
from harness import KNOWN, Op
from robusteig import graph_matrix, models, norms, perturbation, solvers
from robusteig.norms import NormPair, UncertaintySpec

PAIRS = ("l2l2", "l2g2", "l1g1")
EPSILON = 1.0
ALPHA = 0.85
PAGERANK_TOL = 1e-10

# stated bounds of the checks
PAGERANK_L1 = 1e-8          # pagerank stops at ||x_k+1 - x_k||_1 <= 1e-10, so its error is < 6e-10
PHI_REL = 1e-9              # robusteig's objective against the reference phi
GAP_REL = 1e-2              # linearization gap of a finished l2 solve, relative to phi
LP_REL = 1e-6               # l1g1 optimum against the exact LP
STATIONARY_L1 = 1e-6        # grid nominal vector against the exact stationary vector
BOUND_SLACK = 1e-9          # realized perturbed residual over the convex bound


def apply_perturbation(dense, xi, x):
    """||(P + xi) x - x||_2, as the stress command computes each sample."""
    return float(np.linalg.norm((dense + xi) @ x - x))


def stress(P, x, base: UncertaintySpec, set_name, samples, seed):
    """The sampling loop of `robusteig stress --set <set_name>` for the vector x."""
    spec = UncertaintySpec(base.epsilon, perturbation.pair_for_set(set_name),
                           base.column_budgets)
    dense = P.to_dense()
    realized, feasible = [], True
    for i in range(samples):
        sample = perturbation.sample_perturbation(P, spec, set_name, seed + i)
        realized.append(apply_perturbation(dense, sample.xi, x))
        feasible = feasible and sample.stochastic_ok is not False
    bound = norms.phi(P, x, spec).total
    return max(realized), bound, feasible


class Workload:
    """Inputs made from the seed plus the reference link matrix (L, d)."""

    name = ""
    tol = 1e-3
    max_iter = 200
    setup_reps = 1
    reps = {}                          # calls per pass of the short calls
    stress_samples = 0
    md_schedule = {}                   # SolverConfig overrides of the robust solves
    l1g1_excess = 0.0                  # excused excess of robust l1g1 over the LP optimum

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._memo = {}

    # -- shared pieces ------------------------------------------------------

    def budgets(self):
        """c_j = eps_j / eps with eps_j = 1/outdeg(j), and 1/n for dangling j."""
        outdeg = np.diff(self.L.indptr).astype(float)
        outdeg[self.d] = self.n
        return 1.0 / outdeg / EPSILON

    def specs(self, P):
        b = 1.0 / graph_matrix.out_degrees(P).astype(float)
        return {pair: UncertaintySpec(EPSILON, NormPair.from_string(pair), b) for pair in PAIRS}

    def memo(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def phi(self, x, pair):
        return ref.phi(self.L, self.d, x, pair, EPSILON, self.c)

    def reference_algorithm1(self, pair):
        return self.memo(("alg1", pair), lambda: ref.algorithm1(
            self.L, self.d, pair, EPSILON, self.c, self.max_iter))

    def check_setup(self, P):
        bad = []
        if P.n != self.n or len(P.dangling_columns) != int(self.d.sum()):
            bad.append(f"n={P.n}, {len(P.dangling_columns)} dangling")
        v = np.random.default_rng(1).random(self.n)
        for name, got, want in (("P v", P.matvec(v), ref.matvec(self.L, self.d, v)),
                                ("P^T v", P.rmatvec(v), ref.rmatvec(self.L, self.d, v))):
            err = np.abs(got - want).max()
            if err > 1e-12:
                bad.append(f"{name} off by {err:.3g}")
        return bad

    def check_simplex(self, x):
        if x.shape != (self.n,) or x.min() < -1e-12 or abs(x.sum() - 1.0) > 1e-9:
            return ["not on the simplex"]
        return []

    def check_nominal(self, x):
        bad = self.check_simplex(x)
        res = np.abs(ref.matvec(self.L, self.d, x) - x).sum()
        if res > self.tol:
            bad.append(f"residual {res:.3g} > tol {self.tol}")
        return bad

    def check_pagerank(self, report):
        want = self.memo("pagerank", lambda: ref.pagerank(self.L, self.d, ALPHA))
        err = np.abs(report.final - want).sum()
        return [f"l1 distance {err:.3g} to the linear solve"] if err > PAGERANK_L1 else []

    def check_algorithm1(self, pair, report):
        """The returned iterate is the reference's, and phi falls until the stop."""
        bad = self.check_simplex(report.final)
        want, phis = self.reference_algorithm1(pair)
        k = report.iterations_used
        rose = len(phis) > 1 and phis[-1] > phis[-2]
        stopped = report.stop_reason == solvers.STOP_PHI_INCREASE
        if len(phis) - 1 != k or stopped != rose:
            bad.append(f"{report.stop_reason} at {k}; the reference stops at "
                       f"{len(phis) - 1}, phi {'rising' if rose else 'falling'}")
        falling = np.diff(phis[:k] if rose else phis)
        if (falling >= 0).any():
            bad.append(f"phi did not fall at iteration {int(np.argmax(falling >= 0)) + 1}")
        err = np.abs(report.final - want).max()
        if err > 1e-12:
            bad.append(f"iterate off the reference by {err:.3g}")
        return bad

    def check_objective(self, pair, report):
        bad = self.check_simplex(report.final)
        value = self.phi(report.final, pair)
        if abs(report.objective.total - value) > PHI_REL * value:
            bad.append(f"objective {report.objective.total!r} but reference phi {value!r}")
        x1, phis = self.reference_algorithm1(pair)
        ceiling = min(phis[0], self.phi(x1, pair))
        if value > ceiling * (1 + PHI_REL):
            bad.append(f"phi {value:.9g} above algorithm 1 or the uniform vector ({ceiling:.9g})")
        return bad

    def check_robust(self, pair, report):
        """A finished solve: the l2 gap closes, l1g1 meets the LP optimum."""
        bad = self.check_objective(pair, report)
        value = self.phi(report.final, pair)
        if pair == "l1g1":
            opt = self.memo("lp", lambda: ref.l1g1_optimum(self.L, self.d, EPSILON, self.c))
            excess = (value - opt) / opt
            if abs(excess) > LP_REL:
                config = solvers.SolverConfig(**self.md_schedule)
                known = (LP_REL < excess <= self.l1g1_excess
                         and report.stop_reason == solvers.STOP_MAX_ITER
                         and report.iterations_used == config.md_epochs
                         * config.md_iters_per_epoch)
                bad.append(f"{KNOWN if known else ''}phi {value:.9g} is {excess:+.3%} off "
                           f"the LP optimum {opt:.9g} after {report.iterations_used} steps "
                           f"({report.stop_reason})")
        else:
            gap = ref.linearization_gap(self.L, self.d, report.final, pair, EPSILON, self.c)
            if gap > GAP_REL * value:
                bad.append(f"linearization gap {gap:.3g} is {gap / value:.3%} of phi")
        return bad

    def check_stress(self, P, x, set_name, out):
        """Redraw every sample: feasible for its set, and under the reference bound."""
        max_realized, bound, feasible = out
        pair = perturbation.pair_for_set(set_name).value
        spec = self.specs(P)[pair]
        dense = ref.dense(self.L, self.d)
        budgets = self.c * EPSILON
        bad, realized = [], []
        for i in range(self.stress_samples):
            xi = perturbation.sample_perturbation(P, spec, set_name, self.seed + i).xi
            bad += [f"sample {i}: {v}" for v in
                    ref.perturbation_violations(dense, xi, set_name, EPSILON, budgets)]
            realized.append(np.linalg.norm((dense + xi) @ x - x))
        want_bound = self.phi(x, pair)
        if abs(max(realized) - max_realized) > 1e-12 * max(1.0, max_realized):
            bad.append(f"max realized {max_realized!r}, redrawn {max(realized)!r}")
        if abs(bound - want_bound) > PHI_REL * want_bound:
            bad.append(f"bound {bound!r}, reference {want_bound!r}")
        if max_realized > want_bound + BOUND_SLACK:
            bad.append(f"realized {max_realized!r} exceeds the bound {want_bound!r}")
        if not feasible:
            bad.append("a sample was reported infeasible")
        return bad

    # -- operations ---------------------------------------------------------

    def ops(self, P, outputs):
        """The calls of one round after its first setup, on that setup's P.

        The short calls run in one pass before each long call, so that their
        median is taken from across the round.
        """
        specs = self.specs(P)
        long_ops = [*self.robust_ops(P, specs), *self.stress_ops(P, specs, outputs)]
        for i, op in enumerate(long_ops):
            if i:
                yield self.setup_op()
            yield from self.common_ops(P, specs)
            yield op

    def common_ops(self, P, specs):
        yield Op("nominal", "nominal_s", lambda: solvers.dominant_eigenvector(P, self.tol),
                 self.check_nominal, self.reps.get("nominal", 1))
        yield Op("pagerank", "pagerank_s",
                 lambda: solvers.pagerank(P, ALPHA, PAGERANK_TOL, self.max_iter, specs["l2l2"]),
                 self.check_pagerank, self.reps.get("pagerank", 1))
        for pair in PAIRS:
            yield Op(f"algorithm1 {pair}", "algorithm1_s",
                     lambda s=specs[pair]: solvers.regularized_power_method(
                         P, s, max_iter=self.max_iter),
                     lambda r, p=pair: self.check_algorithm1(p, r),
                     self.reps.get("algorithm1", 1))

    def robust_ops(self, P, specs):
        config = solvers.SolverConfig(alpha=ALPHA, tol=PAGERANK_TOL, max_iter=self.max_iter,
                                      **self.md_schedule)
        for pair in PAIRS:
            yield Op(f"robust {pair}", f"robust_{pair}_s",
                     lambda s=specs[pair]: solvers.mirror_descent_minimize(P, s, config),
                     lambda r, p=pair: self.check_robust(p, r),
                     self.reps.get(f"robust {pair}", 1))

    def stress_ops(self, P, specs, outputs):
        for set_name in ("xi2", "xif"):
            yield Op(f"stress {set_name}", None,
                     lambda s=set_name: stress(P, outputs["robust l2l2"].final, specs["l2l2"],
                                               s, self.stress_samples, self.seed),
                     lambda out, s=set_name: self.check_stress(
                         P, outputs["robust l2l2"].final, s, out))


class WebWorkload(Workload):
    """A web graph, written to an edge-list file and read back by the setup.

    graph_seed draws the graph; with relabel, the run's seed permutes its
    node labels.
    """

    n = 0
    graph_seed = 0
    relabel = False

    def graph_args(self):
        return (self.n, self.graph_seed) + ((self.seed,) if self.relabel else ())

    def make_inputs(self):
        self.path = self.workdir / f"{self.name}-seed{self.seed}.tsv"
        # in a child process, so that its memory stays out of this one's
        subprocess.run([sys.executable, str(Path(__file__).with_name("graphs.py")),
                        str(self.path), *map(str, self.graph_args())], check=True)

    def make_references(self):
        self.L, self.d = ref.link_matrix(self.n, *web_graph(*self.graph_args()))
        self.c = self.budgets()

    def setup_op(self):
        return Op("setup", "setup_s",
                  lambda: graph_matrix.from_edge_list(graph_matrix.load_edge_list(self.path)),
                  self.check_setup, self.setup_reps)


class WebRobust(WebWorkload):
    """2000 nodes: the full mirror-descent schedule on all three pairs, then stress.

    The graph is the same for every seed, which only draws the stress
    samples: robust l1g1 misses the LP optimum on some generated graphs and
    not on others, and on this one it misses by 1.58% on every run.
    """

    name = "web-robust"
    n = 2000
    graph_seed = 14
    setup_reps = 2
    reps = {"nominal": 2, "pagerank": 4, "algorithm1": 2, "robust l2l2": 4}
    stress_samples = 3
    l1g1_excess = 0.0175


class WebLarge(WebWorkload):
    """1e5 nodes: parse/build and matvec bound; no perturbation sampling.

    The seed relabels the nodes of one generated graph: where algorithm 1
    and pagerank stop depends on the graph (on 3 of 5 generated graphs one
    of them stopped 3 to 30 times later or earlier than on the rest), so a
    fixed graph keeps the work of a run the same on every seed.

    Its robust solves keep the warm start but cut mirror descent to one
    epoch of 20 steps: the default 45 x 200 steps take minutes per pair at
    this size.  They are checked for the properties a partial solve has.
    """

    name = "web-large"
    n = 100_000
    graph_seed = 1
    relabel = True
    max_iter = 100
    setup_reps = 2
    reps = {"nominal": 2, "pagerank": 6, "algorithm1": 2, "robust l2l2": 3, "robust l2g2": 3,
            "robust l1g1": 2}
    md_schedule = {"md_epochs": 1, "md_iters_per_epoch": 20}

    def ops(self, P, outputs):
        specs = self.specs(P)
        yield from self.common_ops(P, specs)
        yield from self.robust_ops(P, specs)

    def check_robust(self, pair, report):
        return self.check_objective(pair, report)


class GridPeriodic(Workload):
    """The Model 2 grid of side 20: a periodic chain, the same for every seed.

    The seed only draws the stress samples.  Robust l1g1 fails here on every
    run: mirror descent stops 19.6% above the LP optimum.
    """

    name = "grid-periodic"
    side = 20
    tol = 1e-8
    setup_reps = 16
    reps = {"pagerank": 12, "algorithm1": 12, "robust l2l2": 3}
    stress_samples = 200
    l1g1_excess = 0.215

    def make_inputs(self):
        self.spec = models.GridModelSpec(self.side, models.ModelVariant.MODEL2)
        self.n = self.spec.node_count

    def make_references(self):
        self.L, self.d = ref.link_matrix(self.n, *grid_edges(self.side))
        self.c = self.budgets()

    def setup_op(self):
        return Op("setup", "setup_s", lambda: models.generate(self.spec), self.check_setup,
                  self.setup_reps)

    def check_nominal(self, x):
        bad = super().check_nominal(x)
        want = self.memo("stationary", lambda: ref.stationary(self.L, self.d))
        err = np.abs(x - want).sum()
        if err > STATIONARY_L1:
            bad.append(f"l1 distance {err:.3g} to the stationary vector")
        return bad


def grid_edges(side):
    """Model 2: (i, j) links south and east, the last row and column along the
    edge, and the corner back to the origin."""
    ids = np.arange(side * side).reshape(side, side)
    src = [ids[:-1, :].ravel(), ids[:, :-1].ravel(), [ids[-1, -1]]]
    dst = [ids[1:, :].ravel(), ids[:, 1:].ravel(), [ids[0, 0]]]
    return np.concatenate(src), np.concatenate(dst)


WORKLOADS = {w.name: w for w in (WebRobust, WebLarge, GridPeriodic)}
