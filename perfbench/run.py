"""fkramers benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every execution of the workload is a fresh child process (a closed
loop: one child at a time, each using at most nproc BLAS threads), so peak
memory comes from the OS and every execution pays the package import.

--trace 0 prints the end-to-end metrics: wall_s, setup_s, peak_rss_mb and
success_frac.  --trace 1 prints the per-layer metrics from two or more traced
executions and the tracing overhead against untraced ones, and checks that
every count repeats exactly between the traced executions.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See README.md beside this file for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("paper_tables", "long_run", "fine_mesh")

#: Set-up samples gathered per untraced run (extra set-up-only executions
#: top up what the full executions give).
SETUP_SAMPLES = 5
#: No child is started when it would likely end after this many seconds.
START_LIMIT_S = 140.0
#: A child still running after this many seconds of the run is killed.
KILL_LIMIT_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("success_frac", "ratio"))

PER_LAYER = (
    "ldg.history_s", "ldg.march_calls", "ldg.factor_s", "ldg.factor_calls",
    "ldg.factor_nnz", "ldg.matrix_nnz", "ldg.build_self_s", "ldg.solve_s",
    "ldg.solve_calls", "ldg.assemble_s", "ldg.assemble_calls", "ldg.run_self_s",
    "ldg.run_calls", "ldg.project_initial_s", "ldg.levels_bytes", "ldg.csv_s",
    "problems.load_s", "problems.load_calls", "mesh.gauss_rule_s",
    "mesh.gauss_rule_calls", "cq.weights_s", "cq.weights_calls", "study.error_s",
    "study.error_calls", "study.self_s", "cli.parse_s", "cli.emit_s",
    "cli.out_bytes", "cli.self_s", "trace.wall_s", "trace.unattributed_s",
    "trace.hook_s", "trace.spans", "trace_overhead_frac",
)


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def fail_setup(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def precheck():
    """Refuse to run without the package sources and the reference outputs."""
    if not os.path.isfile(os.path.join(ROOT, "src", "fkramers", "__init__.py")):
        fail_setup("no package sources at src/fkramers under %s; run from a source checkout"
                   % ROOT)
    ref = os.path.join(HERE, "reference")
    needed = ["long_run.npy", "fine_mesh.npy", "fine_mesh.json"]
    missing = [n for n in needed if not os.path.isfile(os.path.join(ref, n))]
    if missing or not os.path.isdir(os.path.join(ref, "paper_tables")):
        fail_setup("reference outputs missing under %s: %s" % (ref, missing or ["paper_tables"]))


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def environment():
    """What the numbers depend on: cores, BLAS and its threads, versions, caches."""
    import ctypes
    import glob

    import numpy as np
    import scipy

    env = {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        env["blas"] = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                env["blas_threads"] = fn()
                break
    caches = {}
    # glibc sysconf names _SC_LEVEL1_ICACHE_SIZE .. _SC_LEVEL3_CACHE_SIZE
    for name, code in (("L1i", 185), ("L1d", 188), ("L2", 191), ("L3", 194)):
        try:
            caches[name] = os.sysconf(code)
        except (OSError, ValueError):
            caches[name] = None
    env["cache_bytes"] = caches
    return env


class Runner:
    """Starts children one at a time and keeps what they report."""

    def __init__(self, workload, seed, run_dir):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.start = time.perf_counter()
        self.count = 0
        self.failures = []

    def elapsed(self):
        return time.perf_counter() - self.start

    def spawn(self, mode, trace, spans_path=None):
        """One child execution; returns its report, with rss_mb and elapsed_s added."""
        self.count += 1
        tag = "%03d-%s%s" % (self.count, mode, "-traced" if trace else "")
        workdir = os.path.join(self.run_dir, tag)
        os.makedirs(workdir)
        result_path = os.path.join(workdir, "result.json")
        log_path = os.path.join(workdir, "child.log")
        cmd = [sys.executable, CHILD, "--root", ROOT, "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--trace", str(int(trace)),
               "--workdir", workdir, "--result", result_path]
        if spans_path:
            cmd += ["--spans", spans_path]
        began = time.perf_counter()
        with open(log_path, "w") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
            status, usage = self._wait(proc)
        report = {"ok": False, "error": None}
        if os.path.isfile(result_path):
            with open(result_path) as fh:
                report = json.load(fh)
        code = os.waitstatus_to_exitcode(status)
        if code != 0 and report.get("ok"):
            report["ok"] = False
        if not report.get("ok"):
            with open(log_path) as fh:
                tail = fh.read()[-2000:]
            self.failures.append("%s exited %d: %s\n%s" % (tag, code, report.get("error"), tail))
        report["rss_mb"] = usage.ru_maxrss / 1024.0  # kilobytes on Linux
        report["elapsed_s"] = time.perf_counter() - began
        return report

    def _wait(self, proc):
        """Reap the child with its resource usage; kill it past the run's limit.

        If this process is interrupted or terminated meanwhile, the child is
        killed and reaped before the exception propagates.
        """
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if self.elapsed() > KILL_LIMIT_S:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return status, usage

    def room_for(self, estimate, seconds):
        """Whether another execution of `estimate` seconds belongs in the run.

        It does when at least half of it falls within `seconds`, so a run
        lasts `seconds` on average whatever the length of one execution.
        """
        return (self.elapsed() + 0.5 * estimate <= seconds
                and self.elapsed() + estimate <= START_LIMIT_S)


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, as (pct, value), or None."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure(runner, seconds):
    """Untraced run: full executions for `seconds`, then set-up samples."""
    runner.spawn("setup", False)  # warm-up: page cache and bytecode; not counted
    full, setups = [], []
    while True:
        rep = runner.spawn("full", False)
        full.append(rep)
        if rep["ok"]:
            setups.append(rep["setup_s"])
        estimate = statistics.median(r["elapsed_s"] for r in full)
        if not runner.room_for(estimate, seconds):
            break
    while len(setups) < SETUP_SAMPLES and runner.elapsed() < START_LIMIT_S:
        rep = runner.spawn("setup", False)
        if rep["ok"]:
            setups.append(rep["setup_s"])

    good = [r for r in full if r["ok"]]
    walls = [r["wall_s"] for r in good]
    attempted, failed = runner.count, len(runner.failures)
    metrics = {
        "wall_s": statistics.median(walls) if walls else None,
        "setup_s": statistics.median(setups) if setups else None,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in good) if good else None,
        "success_frac": (attempted - failed) / attempted,
    }
    notes = ["wall_s: median of %d executions %s" % (len(walls), ["%.4f" % w for w in walls])]
    tail = tail_percentile(walls)
    notes.append("wall_s tail: " + ("p%.1f = %.4f s" % tail if tail else
                                     "no percentile has ten samples beyond it at n=%d" % len(walls)))
    notes.append("setup_s: median of %d samples %s" % (len(setups), ["%.4f" % s for s in setups]))
    return metrics, {}, notes, []


def measure_traced(runner, seconds, spans_stem):
    """Traced run: at least two traced and two untraced executions, then alternating."""
    plain, traced = [], []
    runner.spawn("setup", False)  # warm-up, as in the untraced run
    kinds = ["plain", "traced", "traced", "plain"]
    while True:
        kind = kinds.pop(0) if kinds else ("plain" if len(plain) < len(traced) else "traced")
        if kind == "traced":
            path = "%s-%d.json" % (spans_stem, len(traced) + 1)
            traced.append(runner.spawn("full", True, path))
        else:
            plain.append(runner.spawn("full", False))
        done = plain + traced
        estimate = statistics.median(r["elapsed_s"] for r in done)
        if not kinds and not runner.room_for(estimate, seconds):
            break

    problems = []
    good = [r for r in traced if r["ok"]]
    summaries = [r["trace"] for r in good]
    for i, summary in enumerate(summaries, start=1):
        if summary["check"]:
            problems.append("traced execution %d: %s" % (i, summary["check"]))
    if len(summaries) >= 2:
        first = summaries[0]["counts"]
        for i, summary in enumerate(summaries[1:], start=2):
            if summary["counts"] != first:
                diff = sorted(k for k in set(first) | set(summary["counts"])
                              if first.get(k) != summary["counts"].get(k))
                problems.append("counts differ between traced executions 1 and %d: %s"
                                % (i, diff))
    else:
        problems.append("fewer than two traced executions succeeded")

    metrics, absent = {}, {}
    for name in PER_LAYER:
        if name == "trace_overhead_frac":
            continue
        values = [s["metrics"].get(name) for s in summaries]
        if summaries and all(v is not None for v in values):
            # counts repeat exactly (checked above); times vary, so take the median
            metrics[name] = values[0] if name in summaries[0]["counts"] else statistics.median(values)
        else:
            metrics[name] = None
            reasons = [s["absent"].get(name) for s in summaries if s["absent"].get(name)]
            absent[name] = reasons[0] if reasons else "not reported by any traced execution"
    plain_walls = [r["wall_s"] for r in plain if r["ok"]]
    traced_walls = [r["wall_s"] for r in good]
    if plain_walls and traced_walls:
        metrics["trace_overhead_frac"] = (statistics.median(traced_walls)
                                          / statistics.median(plain_walls) - 1.0)
    else:
        metrics["trace_overhead_frac"] = None
        absent["trace_overhead_frac"] = "needs one good untraced and one good traced execution"
    notes = ["traced executions: %d, untraced: %d" % (len(traced), len(plain))]
    notes += ["self-check failed: " + p for p in problems]
    if not problems:
        notes.append("self-check: counts repeat exactly; self times add up to the traced wall")
    return metrics, absent, notes, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    precheck()
    # terminate like an interrupt, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, threads)

    os.makedirs(OUT, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    run_dir = os.path.join(OUT, "%s-%d" % (stem, os.getpid()))
    os.makedirs(run_dir)
    runner = Runner(args.workload, args.seed, run_dir)
    if args.trace:
        values, absent, notes, problems = measure_traced(
            runner, args.seconds, os.path.join(OUT, stem + "-spans"))
        names = PER_LAYER
    else:
        values, absent, notes, problems = measure(runner, args.seconds)
        names = [name for name, _ in END_TO_END]

    attempted, failed = runner.count, len(runner.failures)
    units = dict(END_TO_END)
    metrics = {}
    for name in names:
        entry = {"value": values.get(name), "unit": units.get(name) or unit_of(name)}
        if name in absent:
            entry["absent"] = absent[name]
        metrics[name] = entry
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "notes": notes,
              "failures": runner.failures, "self_check": problems, "metrics": metrics}
    with open(os.path.join(OUT, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if not runner.failures:
        shutil.rmtree(run_dir)

    for failure in runner.failures + problems:
        sys.stderr.write("perfbench: FAILED %s\n" % failure)
    print("environment: " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    for name in names:
        entry = metrics[name]
        shown = "absent (%s)" % entry["absent"] if "absent" in entry else entry["value"]
        print("%-24s %s %s" % (name, shown, entry["unit"]))
    correct = (failed == 0 and not problems
               and all(metrics[n]["value"] is not None for n in names if n not in absent))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: metrics[n] for n in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
