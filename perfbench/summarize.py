"""Summarize the run records in perfbench/out: median and quartiles per metric.

    python3 perfbench/summarize.py [workload ...]

For each workload, the untraced runs give each end-to-end metric's median,
first and third quartile (statistics.quantiles, n=4) and their spread as a
share of the median, and the median of the runs' calibration kernel times;
the traced runs give the per-layer medians.  Where a seed has both kinds of
run, the tracing overhead is the traced round's scaled time over the
untraced run's median round, scaled the same way.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

OUT = Path(__file__).resolve().parent / "out"


def load(workload, trace):
    return {r["seed"]: r for r in (json.loads(p.read_text(encoding="utf-8"))
                                   for p in sorted(OUT.glob(f"{workload}-seed*-trace{trace}.json")))}


def main(names):
    for workload in names or WORKLOAD_NAMES:
        plain, traced = load(workload, 0), load(workload, 1)
        if plain:
            seeds = sorted(plain)
            kernel = statistics.median(plain[s]["kernel_median_s"] for s in seeds)
            print(f"{workload}: {len(seeds)} untraced runs, seeds {seeds}, "
                  f"median calibration kernel {kernel * 1e3:.3f} ms")
            for metric in plain[seeds[0]]["metrics"]:
                values = [plain[s]["metrics"][metric] for s in seeds]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
                print(f"  {metric:15s} median {med:11.5g}  quartiles {q1:11.5g} {q3:11.5g}"
                      f"  spread {(q3 - q1) / med:6.3f}")
        if traced:
            seeds = sorted(traced)
            print(f"{workload}: {len(seeds)} traced runs, seeds {seeds}")
            for metric in traced[seeds[0]]["metrics"]:
                values = [traced[s]["metrics"][metric] for s in seeds]
                print(f"  {metric:31s} median {statistics.median(values):11.5g}")
            both = [s for s in seeds if s in plain]
            if both:
                ratios = [traced[s]["round_scaled_s"][0]
                          / statistics.median(plain[s]["round_scaled_s"]) for s in both]
                print(f"  tracing overhead: traced round / median untraced round, scaled, = "
                      f"{statistics.median(ratios):.3f} (median of {len(both)} seeds)")


if __name__ == "__main__":
    main(sys.argv[1:])
