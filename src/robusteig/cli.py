"""Command-line front end: rank graphs, compare solvers, stress-test bounds.

Exit codes: 0 ok, 1 invalid configuration, 2 unreadable input, 3 solver
failure, 4 infeasible perturbation request.  Identical configs and seeds
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import graph_matrix, models, perturbation, solvers
from .graph_matrix import InputError, SparseStochasticMatrix
from .norms import NormPair, UncertaintySpec, box_fits, phi
from .perturbation import InfeasiblePerturbationError, pair_for_set
from .solvers import SolveReport, SolverConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_INFEASIBLE = 4

RANK_SOLVERS = ("pagerank", "power-avg", "algorithm1", "robust-exact", "nominal")


class _ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for unreadable
    # input, so remap syntax errors to the invalid-config code
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _add_input_args(p):
    p.add_argument("--input", help="edge-list file (src<TAB>dst lines, # comments, "
                                   "n=<count> header, dangling:<id> directives)")
    p.add_argument("--model", choices=["model1", "model2"], help="generate a grid model")
    p.add_argument("--n", type=int, help="grid side length for --model")


def _add_common_args(p):
    p.add_argument("--epsilon", type=float, default=1.0, help="total uncertainty budget")
    p.add_argument("--suggest-epsilon", nargs=2, type=float, metavar=("Q", "M"),
                   help="derive epsilon as sqrt(q n)/m instead of --epsilon")
    p.add_argument("--pair", default="l2l2", choices=["l1g1", "l2g2", "l2l2"])
    p.add_argument("--col-budget", default=None,
                   help="'uniform:<v>' or 'inv-degree' (default: epsilon/n each)")
    p.add_argument("--alpha", type=float, default=0.85)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", default="csv", choices=["csv", "json"])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="robusteig",
                     description="Robust dominant-eigenvector scores for directed graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    rank = sub.add_parser("rank", help="score a graph with one solver")
    _add_input_args(rank)
    rank.add_argument("--solver", default="robust-exact", choices=RANK_SOLVERS)
    _add_common_args(rank)

    compare = sub.add_parser("compare", help="run several solvers side by side")
    _add_input_args(compare)
    compare.add_argument("--solvers", default="nominal,pagerank,robust-exact",
                         help="comma-separated list from: " + ",".join(RANK_SOLVERS))
    compare.add_argument("--extract", default="all", choices=["all", "diagonal", "last-row"],
                         help="row subset for model graphs")
    _add_common_args(compare)

    stress = sub.add_parser("stress", help="sampled perturbations vs. the convex bound")
    _add_input_args(stress)
    stress.add_argument("--solver", default="robust-exact", choices=RANK_SOLVERS)
    stress.add_argument("--set", dest="xi_set", default="xif",
                        choices=["xi1", "xi2", "xif", "xif-ball"])
    stress.add_argument("--samples", type=int, default=1000)
    _add_common_args(stress)

    return parser


def _load_matrix(args) -> tuple[SparseStochasticMatrix, models.GridModelSpec | None]:
    if (args.input is None) == (args.model is None):
        raise _ConfigError("exactly one of --input or --model is required")
    if args.model is not None:
        if args.n is None:
            raise _ConfigError("--model requires --n")
        try:
            spec = models.GridModelSpec(args.n, models.ModelVariant.from_string(args.model))
        except ValueError as exc:
            raise _ConfigError(str(exc)) from exc
        return models.generate(spec), spec
    try:
        edges = graph_matrix.load_edge_list(args.input)
    except (OSError, InputError) as exc:
        raise FileNotFoundError(f"cannot read {args.input}: {exc}") from exc
    return graph_matrix.from_edge_list(edges), None


def _uncertainty_spec(args, P: SparseStochasticMatrix) -> UncertaintySpec:
    epsilon = args.epsilon
    if args.suggest_epsilon is not None:
        q, m = args.suggest_epsilon
        try:
            epsilon = solvers.suggest_epsilon(P.n, q, m)
        except ValueError as exc:
            raise _ConfigError(str(exc)) from exc
    budgets = None
    if args.col_budget:
        if args.col_budget == "inv-degree":
            budgets = 1.0 / graph_matrix.out_degrees(P).astype(float)
        elif args.col_budget.startswith("uniform:"):
            try:
                budgets = float(args.col_budget.split(":", 1)[1])
            except ValueError:
                raise _ConfigError(f"bad --col-budget value {args.col_budget!r}") from None
        else:
            raise _ConfigError(f"bad --col-budget value {args.col_budget!r}")
    try:
        spec = UncertaintySpec(epsilon, NormPair.from_string(args.pair), budgets)
        spec.weights(P.n)          # eps_j / eps finite, whichever pair or set reads it
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    mass = spec.penalty_mass(P.n)
    if mass is not None and box_fits(mass):
        name = "c_j" if spec.pair is NormPair.L1_G1 else "c_j^2"
        print(f"robusteig: warning: sum_j {name} = {mass:.6g} <= 1, so the {args.pair} "
              "penalty is the linear sum_j c_j x_j on the simplex (a constant for the "
              "default eps/n budgets); raise --col-budget to make it robust",
              file=sys.stderr)
    return spec


def _solver_config(args) -> SolverConfig:
    """--alpha, --tol and --max-iter, checked whichever solver runs."""
    try:
        return SolverConfig(alpha=args.alpha, tol=args.tol, max_iter=args.max_iter)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc


def _run_solver(name: str, P: SparseStochasticMatrix, spec: UncertaintySpec, args) -> SolveReport:
    if name == "pagerank":
        return solvers.pagerank(P, args.alpha, args.tol, args.max_iter, spec)
    if name in ("power-avg", "nominal"):
        x = solvers.dominant_eigenvector(P, args.tol)
        value = phi(P, x, spec)
        return SolveReport(x, [(0, value.total)], 0, solvers.STOP_TOLERANCE, value)
    if name == "algorithm1":
        return solvers.regularized_power_method(P, spec, max_iter=args.max_iter)
    if name == "robust-exact":
        return solvers.mirror_descent_minimize(P, spec, _solver_config(args))
    raise _ConfigError(f"unknown solver {name!r}")


def _config_dict(args) -> dict:
    skip = {"command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _print_csv_scores(out, scores: np.ndarray, top_k: int | None):
    out.write("node,score\n")
    if top_k is not None:
        order = np.argsort(-scores, kind="stable")[:top_k]
    else:
        order = np.arange(scores.size)
    for i in order:
        out.write(f"{int(i)},{_fmt(scores[i])}\n")


def cmd_rank(args, out) -> int:
    P, _ = _load_matrix(args)
    spec = _uncertainty_spec(args, P)
    report = _run_solver(args.solver, P, spec, args)
    if args.format == "csv":
        _print_csv_scores(out, report.final, args.top_k)
        return EXIT_OK
    doc = {
        "command": "rank",
        "config": _config_dict(args),
        "scores": [float(v) for v in report.final],
        "stop_reason": report.stop_reason,
        "iterations_used": report.iterations_used,
        "objective": {
            "residual_term": report.objective.residual_term,
            "penalty_term": report.objective.penalty_term,
            "total": report.objective.total,
        },
    }
    if args.solver in ("algorithm1", "robust-exact"):
        doc["phi_history"] = [[k, v] for k, v in report.phi_history]
    if args.top_k is not None:
        order = np.argsort(-report.final, kind="stable")[:args.top_k]
        doc["top"] = [[int(i), float(report.final[i])] for i in order]
    json.dump(doc, out, sort_keys=True)
    out.write("\n")
    return EXIT_OK


def cmd_compare(args, out) -> int:
    P, model_spec = _load_matrix(args)
    spec = _uncertainty_spec(args, P)
    names = [s.strip() for s in args.solvers.split(",") if s.strip()]
    if len(names) < 2:
        raise _ConfigError("compare needs at least two solvers")
    for name in names:
        if name not in RANK_SOLVERS:
            raise _ConfigError(f"unknown solver {name!r}")
    if args.extract != "all" and model_spec is None:
        raise _ConfigError("--extract requires --model")

    reports = {name: _run_solver(name, P, spec, args) for name in names}
    if args.extract == "diagonal":
        rows = models.diagonal_ids(model_spec.n)
    elif args.extract == "last-row":
        rows = models.last_row_ids(model_spec.n)
    else:
        rows = np.arange(P.n)
    phis = {name: reports[name].objective.total for name in names}
    dists = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            dists[f"{a}|{b}"] = float(np.abs(reports[a].final - reports[b].final).sum())

    if args.format == "csv":
        out.write("node," + ",".join(names) + "\n")
        for r in rows:
            out.write(str(int(r)) + ","
                      + ",".join(_fmt(reports[name].final[r]) for name in names) + "\n")
        for name in names:
            out.write(f"# phi,{name},{_fmt(phis[name])}\n")
        for key, d in dists.items():
            a, b = key.split("|")
            out.write(f"# l1,{a},{b},{_fmt(d)}\n")
        return EXIT_OK
    doc = {
        "command": "compare",
        "config": _config_dict(args),
        "nodes": [int(r) for r in rows],
        "scores": {name: [float(reports[name].final[r]) for r in rows] for name in names},
        "phi": phis,
        "l1_distances": dists,
    }
    json.dump(doc, out, sort_keys=True)
    out.write("\n")
    return EXIT_OK


def cmd_stress(args, out) -> int:
    P, _ = _load_matrix(args)
    set_name = args.xi_set.replace("-", "_")
    base = _uncertainty_spec(args, P)
    spec = UncertaintySpec(base.epsilon, pair_for_set(set_name), base.column_budgets)
    x = _run_solver(args.solver, P, base, args).final

    realized, all_valid = perturbation.sampled_residuals(P, x, spec, set_name,
                                                         args.samples, args.seed)
    bound = phi(P, x, spec).total
    max_realized = max(realized) if realized else 0.0
    doc = {
        "command": "stress",
        "config": _config_dict(args),
        "set": set_name,
        "samples": args.samples,
        "upper_bound": bound,
        "max_realized": max_realized,
        "mean_realized": float(np.mean(realized)) if realized else 0.0,
        "bound_satisfied": bool(max_realized <= bound + 1e-9),
        "all_samples_feasible": all_valid,
    }
    if args.format == "csv":
        out.write("sample,realized\n")
        for i, v in enumerate(realized):
            out.write(f"{i},{_fmt(v)}\n")
        out.write(f"# upper_bound,{_fmt(bound)}\n")
        out.write(f"# max_realized,{_fmt(max_realized)}\n")
        out.write(f"# bound_satisfied,{doc['bound_satisfied']}\n")
        return EXIT_OK
    json.dump(doc, out, sort_keys=True)
    out.write("\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        _solver_config(args)
        if args.top_k is not None and args.top_k < 1:
            raise _ConfigError(f"--top-k must be >= 1, got {args.top_k}")
        if args.command == "stress" and args.samples < 1:
            raise _ConfigError(f"--samples must be >= 1, got {args.samples}")
        if args.command == "rank":
            return cmd_rank(args, out)
        if args.command == "compare":
            return cmd_compare(args, out)
        return cmd_stress(args, out)
    except _ConfigError as exc:
        print(f"robusteig: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"robusteig: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasiblePerturbationError as exc:
        print(f"robusteig: error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, RuntimeError, OverflowError, np.linalg.LinAlgError) as exc:
        print(f"robusteig: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
