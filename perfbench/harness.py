"""Closed-loop runner, host-speed calibration, memory metric and call tracer.

One run of a workload is: make the inputs (in a child process, so that
their memory stays out of the run's), run whole rounds of the operations back
to back until the run's time is up, and only then build the references and
check.  Every call is timed.

The benchmark runs on a shared 2-vCPU virtual machine whose speed the host
sets: it runs stretches of tens of seconds 1.3 to 1.9x slower than others
(the same in thread CPU time, so not descheduling), long enough that a whole
run can fall in one.  So while the rounds run, `Calibration` times a fixed
kernel that does not touch `robusteig` every 50 ms from a timer signal, and
each call's wall time, less the kernel samples taken inside it, is scaled by
REFERENCE_S over the median kernel time around the call: a time in seconds
at the speed on which the kernel takes REFERENCE_S.  An operation's time is
the median of its scaled calls over the run, and a metric sums the times of
its operations.  See README.md for the measurements behind this.

The memory metric is the growth of the process's resident high-water mark
over the first round.  Outputs are checked after the clock stops: the first
output of each operation against the workload's reference, and every later
output for equality with the first.  A failure is excused, counted in
`failed` but leaving the run correct, only when every finding of its
operation is a check's message tagged with KNOWN.

A traced run makes one round with `Tracer` wrappers installed around the
public functions of the `robusteig` modules and the matrix's methods, and
reports counts and self times instead of end-to-end timings.  The same
calibration runs in it, so that its round, scaled, compares with an untraced
one (the tracing overhead); its kernel samples add about 2% to the self time
of whichever function they interrupt.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import inspect
import os
import platform
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy
import scipy.sparse

LAYERS = ("graph_matrix", "models", "norms", "solvers", "perturbation")
MATRIX_METHODS = ("matvec", "rmatvec", "to_dense", "column_sums")
# the prefix of a check's message that names a known fault of the program
KNOWN = "known fault: "


@dataclass
class Op:
    """One timed library call and the check of its output.

    metric names the end-to-end metric the call's time adds to (None: timed
    and checked, but reported only in the run record); check returns the
    failures it finds in an output.
    """

    label: str
    metric: str | None
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    reps: int = 1


@dataclass
class Record:
    times: list[list[float]] = field(default_factory=list)   # per pass, calls that returned
    spans: list[tuple[float, float]] = field(default_factory=list)   # (start, end) of those
    calls: int = 0
    first: object = None
    key: object = None
    mismatches: int = 0
    errors: list[str] = field(default_factory=list)
    metric: str | None = None
    check: Callable[[object], list[str]] | None = None


def output_key(out):
    """A value that is equal for two outputs exactly when they are identical."""
    if hasattr(out, "final"):                       # SolveReport
        return (out.final.tobytes(), out.iterations_used, out.stop_reason)
    if isinstance(out, np.ndarray):
        return out.tobytes()
    if hasattr(out, "matvec"):                      # SparseStochasticMatrix
        probe = np.random.default_rng(0).random(out.n)
        return (out.n, out.nnz, out.matvec(probe).tobytes(), out.rmatvec(probe).tobytes())
    if isinstance(out, tuple):
        return tuple(output_key(v) for v in out)
    return out


class Tracer:
    """Counts, total and self time per wrapped function.

    `within[(outer, name)]` aggregates the calls of `name` made while `outer`
    is on the call stack, so a layer's work can be split by its caller.
    Calls returning a report add its `iterations_used`.
    """

    def __init__(self):
        self.stack: list[list] = []
        self.stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "iterations": 0})
        self.within = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "iterations": 0})
        self._restore: list[tuple[object, str, object, bool]] = []

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            self.stack.append(frame)
            iterations = 0
            try:
                result = fn(*args, **kwargs)
                iterations = getattr(result, "iterations_used", 0)
                return result
            finally:
                self.stack.pop()
                elapsed = time.perf_counter() - frame[1]
                if self.stack:
                    self.stack[-1][2] += elapsed
                s = self.stats[name]
                s["calls"] += 1
                s["total_s"] += elapsed
                s["self_s"] += elapsed - frame[2]
                s["iterations"] += iterations
                for outer in {f[0] for f in self.stack}:
                    w = self.within[(outer, name)]
                    w["calls"] += 1
                    w["total_s"] += elapsed
                    w["iterations"] += iterations
        return traced

    def patch(self, owner, attr, name):
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original, own))
        setattr(owner, attr, self.wrap(original, name))

    def install(self, package, extra=()):
        """Wrap every public function of the layer modules wherever it is bound."""
        modules = [getattr(package, layer) for layer in LAYERS]
        namespaces = modules + [package]
        for module, layer in zip(modules, LAYERS):
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self.patch(ns, bound, f"{layer}.{attr}")
        for owner, attr, name in extra:
            self.patch(owner, attr, name)

    def instrument(self, matrix):
        for method in MATRIX_METHODS:
            self.patch(matrix, method, f"graph_matrix.{method}")

    def uninstall(self):
        for owner, attr, original, own in reversed(self._restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()


class Calibration:
    """Host speed: a fixed kernel timed every PERIOD_S seconds from SIGALRM.

    The kernel is eight steps of an entropic mirror descent on a 2000-vector
    (a sparse product and its transpose, a 2-norm, exp, normalisation and an
    argsort) and a small dense product, the kinds of work the timed calls
    do, on data of its own.  The samples interrupt the timed calls (between
    Python bytecodes, like any signal handler), so `scale` removes their own
    time from a call before scaling it.
    """

    PERIOD_S = 0.05
    WINDOW_S = 0.5              # samples this far before and after a call set its speed
    REFERENCE_S = 1.2e-3        # about the median kernel time of the runs in README.md

    def __init__(self):
        rng = np.random.default_rng(0)
        n = 2000
        self.matrix = scipy.sparse.random(n, n, density=4 / n, format="csr", random_state=rng)
        self.transpose = self.matrix.T.tocsr()
        self.vector = rng.random(n) / n
        self.dense = rng.random((100, 100))
        self.samples: list[tuple[float, float]] = []   # (start, duration)
        self._previous = None
        self.kernel()

    def kernel(self):
        x = self.vector
        for _ in range(8):
            r = self.matrix @ x - x
            g = self.transpose @ (r / np.linalg.norm(r))
            x = x * np.exp(-0.1 * g / np.abs(g).max())
            x /= x.sum()
            np.argsort(x)
        return self.dense @ self.dense

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def scale(self, spans):
        """Each (start, end): its time less the samples inside it, times
        REFERENCE_S over the median sample from WINDOW_S before to WINDOW_S after."""
        starts = np.array([t for t, _ in self.samples])
        durations = np.array([d for _, d in self.samples])
        cumulative = np.concatenate([[0.0], np.cumsum(durations)])
        scaled = []
        for start, end in spans:
            i, j = np.searchsorted(starts, [start, end])
            lo, hi = np.searchsorted(starts, [start - self.WINDOW_S, end + self.WINDOW_S])
            around = durations[lo:hi] if hi > lo else durations
            own = end - start - (cumulative[j] - cumulative[i])
            scaled.append(own * self.REFERENCE_S / float(np.median(around)))
        return scaled

    def median_s(self):
        return statistics.median(d for _, d in self.samples) if self.samples else float("nan")


class Runner:
    """Runs one workload: timed rounds or one traced round, then the checks."""

    def __init__(self, workload, tracer: Tracer | None = None,
                 calibration: Calibration | None = None):
        self.workload = workload
        self.tracer = tracer
        self.calibration = calibration
        self.records: dict[str, Record] = defaultdict(Record)
        self.order: list[str] = []
        self.rounds = 0
        self.round_s: list[float] = []
        self.round_spans: list[tuple[float, float]] = []

    def _ops(self, outputs):
        setup = self.workload.setup_op()
        yield setup
        matrix = outputs.get(setup.label)
        if self.tracer is not None and matrix is not None:
            self.tracer.instrument(matrix)
        yield from self.workload.ops(matrix, outputs)

    def run_round(self):
        outputs = {}
        start = time.perf_counter()
        for op in self._ops(outputs):
            rec = self.records[op.label]
            if op.label not in self.order:
                self.order.append(op.label)
            rec.metric, rec.check = op.metric, op.check
            times = []
            for _ in range(op.reps):
                rec.calls += 1
                t0 = time.perf_counter()
                try:
                    out = op.call()
                    t1 = time.perf_counter()
                    times.append(t1 - t0)
                    rec.spans.append((t0, t1))
                except Exception:                  # an operation's fault is its failure
                    rec.errors.append(traceback.format_exc(limit=3))
                    out = None
                key = output_key(out)
                if rec.first is None and out is not None:
                    rec.first, rec.key = out, key
                elif key != rec.key:
                    rec.mismatches += 1
            rec.times.append(times)
            outputs[op.label] = out
        end = time.perf_counter()
        self.round_s.append(end - start)
        self.round_spans.append((start, end))
        self.rounds += 1

    def run(self, seconds: float):
        """Run whole rounds, one at least and another while the run should
        end within `seconds`; return the growth in MB of the resident
        high-water mark over the first round (later rounds repeat its
        allocations while holding the first round's outputs)."""
        resident = memory_mb()[0]
        if self.calibration is not None:
            self.calibration.start()
        try:
            self.run_round()
            peak_mb = memory_mb()[1] - resident
            while self.tracer is None and (sum(self.round_s) + statistics.mean(self.round_s)
                                           <= seconds):
                self.run_round()
        finally:
            if self.calibration is not None:
                self.calibration.stop()
            if self.tracer is not None:
                self.tracer.uninstall()
        return peak_mb

    def check(self):
        """(attempted, failed, failures by label, labels failed unexpectedly).

        Errors, differing repetitions and checks that raise are never
        excused; neither is an operation whose calls all raised.
        """
        attempted = failed = 0
        failures, unexpected = {}, []
        for label in self.order:
            rec = self.records[label]
            attempted += rec.calls
            found = [e.strip().splitlines()[-1] for e in rec.errors]
            if rec.first is None:
                found.append("no call returned")
            else:
                try:
                    found += rec.check(rec.first)
                except Exception:                  # a check that cannot run fails its operation
                    found.append("check raised: " + traceback.format_exc(limit=3))
            if rec.mismatches:
                found.append(f"{rec.mismatches} repetitions gave a different output")
            if found:
                failed += rec.calls
                failures[label] = found
                if not all(f.startswith(KNOWN) for f in found):
                    unexpected.append(label)
        return attempted, failed, failures, unexpected

    def scaled(self, label) -> list[float]:
        """The calls of `label` that returned, scaled to the reference speed
        (as measured when the run has no calibration)."""
        rec = self.records[label]
        if self.calibration is None:
            return [t for times in rec.times for t in times]
        return self.calibration.scale(rec.spans)

    def timings(self) -> dict[str, float]:
        """Each metric: the sum over its operations of the median of their
        scaled calls; a metric with an operation whose calls all raised is
        left out."""
        values = defaultdict(float)
        for label in self.order:
            rec = self.records[label]
            if rec.metric is not None:
                returned = self.scaled(label)
                values[rec.metric] += statistics.median(returned) if returned else float("nan")
        return {name: v for name, v in values.items() if v == v}


def memory_mb() -> tuple[float, float]:
    """(resident, resident high-water mark) of this process in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return tuple(int(fields[k].split()[0]) / 1024 for k in ("VmRSS", "VmHWM"))


def machine() -> dict:
    """The machine and libraries a run measured."""
    info = {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": None,
        "openblas_threads": None,
    }
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            config = lib.scipy_openblas_get_config64_
            threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        config.restype = ctypes.c_char_p
        threads.restype = ctypes.c_int
        info["openblas"] = config().decode()
        info["openblas_threads"] = threads()
        break
    return info


class Clock:
    """Wall time of the phases of a run."""

    def __init__(self):
        self.laps: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, name):
        now = time.perf_counter()
        self.laps[name] = now - self._last
        self._last = now


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)
