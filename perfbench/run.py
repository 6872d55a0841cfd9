"""Benchmark robusteig: time to a checked score vector per solver.

    python3 perfbench/run.py --workload web-robust --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of the repository; the package is imported from ./src.
With --trace 0 the run reports the end-to-end metrics (tracing off), each
time scaled to a reference host speed by a calibration kernel timed through
the rounds; with --trace 1 it makes one traced round and reports the
per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The machine and every failed check go to standard error; they, every call
time, as measured and as scaled, and the median kernel time go to
perfbench/out/<workload>-seed<seed>-trace<t>.json.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread: with OpenBLAS's default threading on a 2-vCPU machine,
# consecutive identical pagerank calls took 0.82, 0.30 and 0.15 s
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def per_layer(tracer) -> dict[str, float]:
    """The per-layer metrics of one traced round."""
    stats, within = tracer.stats, tracer.within

    def total(name):
        return stats[name]["total_s"]

    def calls(name):
        return stats[name]["calls"]

    def per_call(name, scale):
        return total(name) / calls(name) * scale if calls(name) else 0.0

    md, rpm = "solvers.mirror_descent_minimize", "solvers.regularized_power_method"
    warm = within[(md, rpm)]
    md_steps = stats[md]["iterations"]
    return {
        "graph_matrix.parse_s": total("graph_matrix.parse_edge_list"),
        "graph_matrix.build_s": total("graph_matrix.from_edge_list"),
        "models.generate_s": total("models.generate"),
        "graph_matrix.matvec_calls": calls("graph_matrix.matvec"),
        "graph_matrix.matvec_s": total("graph_matrix.matvec"),
        "graph_matrix.matvec_us": per_call("graph_matrix.matvec", 1e6),
        "graph_matrix.rmatvec_calls": calls("graph_matrix.rmatvec"),
        "graph_matrix.rmatvec_s": total("graph_matrix.rmatvec"),
        "graph_matrix.to_dense_calls": calls("graph_matrix.to_dense"),
        "graph_matrix.to_dense_s": total("graph_matrix.to_dense"),
        "norms.phi_calls": calls("norms.phi"),
        "norms.phi_s": stats["norms.phi"]["self_s"] + stats["norms.phi_value"]["self_s"],
        "norms.subgradient_calls": calls("norms.subgradient_phi"),
        "norms.subgradient_s": stats["norms.subgradient_phi"]["self_s"],
        "solvers.md_steps": md_steps,
        "solvers.md_step_ms": (total(md) - warm["total_s"]) / md_steps * 1e3 if md_steps else 0.0,
        "solvers.md_warmstart_s": warm["total_s"],
        "solvers.warmstart_iterations": warm["iterations"],
        "solvers.algorithm1_iterations": stats[rpm]["iterations"] - warm["iterations"],
        "solvers.nominal_matvecs":
            within[("solvers.dominant_eigenvector", "graph_matrix.matvec")]["calls"],
        "solvers.pagerank_iterations": stats["solvers.pagerank"]["iterations"],
        "perturbation.sample_calls": calls("perturbation.sample_perturbation"),
        "perturbation.sample_ms": per_call("perturbation.sample_perturbation", 1e3),
        "stress.apply_s": total("stress.apply"),
    }


def run_one(args) -> int:
    if not (SRC / "robusteig" / "__init__.py").is_file():
        print(f"run.py: no robusteig package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import robusteig
    import harness
    import workloads

    if Path(robusteig.__file__).resolve().parent != SRC / "robusteig":
        print(f"run.py: imported robusteig from {robusteig.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = BENCH_DIR / "work"
    outdir = BENCH_DIR / "out"
    workdir.mkdir(exist_ok=True)
    outdir.mkdir(exist_ok=True)
    clock = harness.Clock()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.make_inputs()
    clock.lap("inputs")
    machine = harness.machine()
    harness.log("machine", json.dumps(machine, sort_keys=True))

    tracer = harness.Tracer() if args.trace else None
    calibration = harness.Calibration()
    runner = harness.Runner(workload, tracer, calibration)
    if tracer is not None:
        tracer.install(robusteig, extra=[(workloads, "apply_perturbation", "stress.apply")])
    peak_mb = runner.run(args.seconds)
    clock.lap("rounds")
    workload.make_references()
    attempted, failed, failures, unexpected = runner.check()
    clock.lap("checks")
    for label, found in failures.items():
        harness.log(f"FAILED {label}:", "; ".join(found))

    if tracer is None:
        metrics = runner.timings()
        metrics["peak_mem_mb"] = peak_mb
    else:
        metrics = per_layer(tracer)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "rounds": runner.rounds,
        "round_s": runner.round_s, "phases_s": clock.laps,
        "calls": {label: runner.records[label].times for label in runner.order},
        "scaled": {label: runner.scaled(label) for label in runner.order},
        "kernel_median_s": calibration.median_s(),
        "round_scaled_s": calibration.scale(runner.round_spans),
        "failures": failures,
        "metrics": metrics,
    }
    if tracer is not None:
        record["functions"] = dict(sorted(tracer.stats.items()))
        record["within"] = {f"{outer} > {name}": v
                            for (outer, name), v in sorted(tracer.within.items())}
    out_file = outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    harness.log(f"{args.workload}: {runner.rounds} round(s) of "
                f"{', '.join(f'{t:.3f}' for t in runner.round_s)} s; phases "
                f"{json.dumps({k: round(v, 2) for k, v in clock.laps.items()})}; median kernel "
                f"{record['kernel_median_s']} s; record {out_file}")
    if unexpected:
        harness.log("unexpected failures:", ", ".join(unexpected))

    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        print(name, lines[-1] if lines else "(no result)", flush=True)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="start another whole round while the rounds should end "
                             "within this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
