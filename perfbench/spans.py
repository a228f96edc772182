"""Span tracing of the fkramers layers from outside the package.

The tracer replaces public functions at the module names through which the
package calls them (for example ``fkramers.ldg.march``, which ``run`` looks up
in its own module, and ``fkramers.study.march``, which the stability probe
uses).  Each wrapper records one span: id, name, parent id, start, end.
Spans stay in memory; the caller writes them out when the execution ends.

A target that no longer exists is not an error: the metrics derived from it
are reported as absent, with the reason.  This module imports only the
standard library, so loading it does not pre-import numpy before the timed
``import fkramers``.
"""

from __future__ import annotations

import functools
import importlib
import time

ROOT = "root"
HOOK = "trace.hook"

#: span name -> (module, attribute path) targets wrapped under that name.
#: Every name through which the package (or the workload) reaches a function
#: is listed, because ``from .x import f`` binds a separate module attribute.
TARGETS = {
    "cli.parse": [("fkramers.cli", "parse")],
    "cli.execute": [("fkramers.cli", "execute")],
    "cli.emit": [("fkramers.cli", "_emit")],
    "study.temporal_study": [("fkramers.cli", "temporal_study")],
    "study.spatial_study": [("fkramers.cli", "spatial_study")],
    "study.stability_probe": [("fkramers.cli", "stability_probe")],
    "study.regularity_diagnostic": [("fkramers.cli", "regularity_diagnostic")],
    "study.trajectory_growth": [("fkramers.study", "trajectory_growth")],
    "study.error": [
        ("fkramers.study", "l2_error"),
        ("fkramers.study", "nodal_reconstruction_error"),
    ],
    "ldg.run": [("fkramers", "run"), ("fkramers.cli", "run"), ("fkramers.study", "run")],
    "ldg.project_initial": [("fkramers.ldg", "project_initial")],
    "ldg.build_system": [("fkramers.ldg", "build_system"), ("fkramers.study", "build_system")],
    "ldg.assemble_spatial": [("fkramers.ldg", "assemble_spatial")],
    "ldg.assemble_system": [("fkramers.ldg", "assemble_system")],
    "ldg.march": [("fkramers.ldg", "march"), ("fkramers.study", "march")],
    "ldg.solve": [("fkramers.ldg", "LDGSystem.solve")],
    "ldg.field_to_csv": [("fkramers.cli", "field_to_csv")],
    "cq.weights": [
        ("fkramers.ldg", "cq_weights"),
        ("fkramers.study", "cq_weights"),
        ("fkramers.cli", "cq_weights"),
    ],
    "problems.load": [("fkramers.ldg", "load_vector")],
    "mesh.gauss_rule": [
        ("fkramers.mesh", "gauss_rule"),
        ("fkramers.ldg", "gauss_rule"),
        ("fkramers.study", "gauss_rule"),
    ],
}

STUDY_SPANS = (
    "study.temporal_study",
    "study.spatial_study",
    "study.stability_probe",
    "study.regularity_diagnostic",
    "study.trajectory_growth",
)


class Absent(Exception):
    """A traced name or counter source does not exist in this version."""


def resolve(module_name, path):
    """Return (owner, attribute, current value) for ``module.path``; raise Absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise Absent("module %s cannot be imported (%s)" % (module_name, exc)) from exc
    *parents, attr = path.split(".")
    for part in parents:
        if not hasattr(owner, part):
            raise Absent("%s.%s not found" % (module_name, ".".join(parents)))
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise Absent("%s.%s not found" % (module_name, path))
    return owner, attr, getattr(owner, attr)


def patch(module_name, path, make_wrapper):
    """Replace ``module.path`` by make_wrapper(original); raise Absent if missing."""
    owner, attr, original = resolve(module_name, path)
    setattr(owner, attr, make_wrapper(original))


def _nbytes(out):
    return int(out.nbytes)


def _matrix_nnz(out):
    """Stored entries of the step matrix of a returned LDGSystem, if it keeps one."""
    matrix = getattr(out, "matrix", None)
    return None if matrix is None else int(matrix.nnz)


def _lu_nnz(out):
    """L+U entries of a returned LDGSystem's SuperLU factors, if it has them."""
    lu = getattr(out, "lu", None)
    if lu is None or not (hasattr(lu, "L") and hasattr(lu, "U")):
        return None
    return int(lu.L.nnz + lu.U.nnz)


class Tracer:
    """Collects spans and counters for one execution, in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [id, name, parent id, start, end]
        self.stack = [0]         # id 0 is the root span
        self.active = False
        self.absent = {}         # span name -> reason, when no target was found
        self.counters = {}       # counter name -> int
        self.counter_absent = {}  # counter name -> reason
        self.root_start = None
        self.root_end = None

    # -- recording ---------------------------------------------------------

    def start(self, t0):
        """Open the root span at t0 (taken before ``import fkramers``)."""
        self.root_start = t0
        self.active = True

    def stop(self):
        self.root_end = self.clock()
        self.active = False

    def _open(self, name):
        rec = [len(self.spans) + 1, name, self.stack[-1], self.clock(), None]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def _close(self, rec):
        rec[4] = self.clock()
        self.stack.pop()

    def wrapper(self, name, post=None):
        """Decorator factory: record a span named `name` around each call.

        `post(result)` updates counters after the call; its time is recorded
        as a separate ``trace.hook`` span so it lands in no layer's self time.
        """
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                rec = self._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._close(rec)
                if post is not None:
                    hook = self._open(HOOK)
                    try:
                        post(out, args)
                    finally:
                        self._close(hook)
                return out
            return traced
        return make

    def _count(self, name, fn, reduce=sum):
        """A post hook that folds fn(result, args) into counter `name`."""
        def post(out, args):
            if name in self.counter_absent:
                return
            try:
                value = fn(out, args)
            except (AttributeError, TypeError) as exc:
                self.counter_absent[name] = "cannot read %s: %s" % (name, exc)
                return
            if value is None:
                self.counter_absent[name] = "no source for %s in the returned object" % name
                return
            self.counters[name] = reduce((self.counters.get(name, 0), value))
        return post

    def install(self):
        """Wrap every target in TARGETS; record names with no target as absent."""
        def chain(*posts):
            def post(out, args):
                for p in posts:
                    p(out, args)
            return post

        posts = {
            "ldg.march": self._count("ldg.levels_bytes", lambda out, a: _nbytes(out), max),
            "ldg.build_system": chain(
                self._count("ldg.matrix_nnz", lambda out, a: _matrix_nnz(out)),
                self._count("ldg.factor_nnz", lambda out, a: _lu_nnz(out)),
            ),
            "cli.emit": self._count("cli.out_bytes", lambda out, a: len(a[1].encode())),
        }
        for name, targets in TARGETS.items():
            reasons = []
            for module_name, path in targets:
                try:
                    patch(module_name, path, self.wrapper(name, posts.get(name)))
                except Absent as exc:
                    reasons.append(str(exc))
            if len(reasons) == len(targets):
                self.absent[name] = "; ".join(reasons)

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per span id: duration minus the time covered by its direct children.

        Coverage is the union of the children's intervals clipped to the
        parent's, so self times add up to the root's duration only when
        every span nests inside its parent without overlapping a sibling;
        summary() checks that.
        """
        bounds = {0: (self.root_start, self.root_end)}
        children = {0: []}
        for sid, _, parent, start, end in self.spans:
            bounds[sid] = (start, end)
            children[sid] = []
            children[parent].append(sid)
        self_t, dur = {}, {}
        for sid, (lo, hi) in bounds.items():
            covered, reach = 0.0, lo
            for child in children[sid]:  # opened in start order
                c_lo, c_hi = max(bounds[child][0], reach), min(bounds[child][1], hi)
                if c_hi > c_lo:
                    covered += c_hi - c_lo
                    reach = c_hi
            dur[sid] = hi - lo
            self_t[sid] = dur[sid] - covered
        return self_t, dur

    def summary(self):
        """Per-layer metrics of this execution, plus the self-check results.

        Returns {"metrics": {name: value or None}, "absent": {name: reason},
        "counts": {name: int}, "check": error string or None}.
        """
        self_t, dur = self.self_times()
        by_name = {}
        calls = {}
        for sid, name, _, _, _ in self.spans:
            by_name[name] = by_name.get(name, 0.0) + self_t[sid]
            calls[name] = calls.get(name, 0) + 1

        wall = dur[0]
        total = sum(self_t.values())
        check = None
        if abs(total - wall) > 1e-6 * wall:
            check = ("self times plus the root remainder, %.9f s, do not add up to the "
                     "traced wall %.9f s: spans overlap or escape their parent" % (total, wall))

        metrics, absent = {}, {}

        def span_metric(metric, names, kind):
            missing = [n for n in names if n in self.absent]
            if missing and len(missing) == len(names):
                absent[metric] = "; ".join(self.absent[n] for n in missing)
                metrics[metric] = None
                return
            if kind == "s":
                metrics[metric] = sum(by_name.get(n, 0.0) for n in names)
            else:
                metrics[metric] = sum(calls.get(n, 0) for n in names)

        def counter_metric(metric, source):
            if source in self.absent:
                absent[metric] = self.absent[source]
                metrics[metric] = None
            elif metric in self.counter_absent:
                absent[metric] = self.counter_absent[metric]
                metrics[metric] = None
            else:
                metrics[metric] = self.counters.get(metric, 0)

        span_metric("ldg.history_s", ["ldg.march"], "s")
        span_metric("ldg.march_calls", ["ldg.march"], "calls")
        span_metric("ldg.factor_s", ["ldg.assemble_system"], "s")
        span_metric("ldg.factor_calls", ["ldg.assemble_system"], "calls")
        counter_metric("ldg.factor_nnz", "ldg.build_system")
        counter_metric("ldg.matrix_nnz", "ldg.build_system")
        span_metric("ldg.build_self_s", ["ldg.build_system"], "s")
        span_metric("ldg.solve_s", ["ldg.solve"], "s")
        span_metric("ldg.solve_calls", ["ldg.solve"], "calls")
        span_metric("ldg.assemble_s", ["ldg.assemble_spatial"], "s")
        span_metric("ldg.assemble_calls", ["ldg.assemble_spatial"], "calls")
        span_metric("ldg.run_self_s", ["ldg.run"], "s")
        span_metric("ldg.run_calls", ["ldg.run"], "calls")
        span_metric("ldg.project_initial_s", ["ldg.project_initial"], "s")
        counter_metric("ldg.levels_bytes", "ldg.march")
        span_metric("ldg.csv_s", ["ldg.field_to_csv"], "s")
        span_metric("problems.load_s", ["problems.load"], "s")
        span_metric("problems.load_calls", ["problems.load"], "calls")
        span_metric("mesh.gauss_rule_s", ["mesh.gauss_rule"], "s")
        span_metric("mesh.gauss_rule_calls", ["mesh.gauss_rule"], "calls")
        span_metric("cq.weights_s", ["cq.weights"], "s")
        span_metric("cq.weights_calls", ["cq.weights"], "calls")
        span_metric("study.error_s", ["study.error"], "s")
        span_metric("study.error_calls", ["study.error"], "calls")
        span_metric("study.self_s", list(STUDY_SPANS), "s")
        span_metric("cli.parse_s", ["cli.parse"], "s")
        span_metric("cli.emit_s", ["cli.emit"], "s")
        counter_metric("cli.out_bytes", "cli.emit")
        span_metric("cli.self_s", ["cli.execute"], "s")
        metrics["trace.wall_s"] = wall
        metrics["trace.unattributed_s"] = self_t[0]
        metrics["trace.hook_s"] = by_name.get(HOOK, 0.0)
        metrics["trace.spans"] = len(self.spans)

        counts = {
            k: v for k, v in metrics.items()
            if v is not None and (k.endswith("_calls") or k.endswith("_nnz")
                                  or k.endswith("_bytes") or k == "trace.spans")
        }
        return {"metrics": metrics, "absent": absent, "counts": counts, "check": check}

    def dump(self):
        """Spans as JSON-ready rows, times relative to the root start."""
        t0 = self.root_start
        rows = [[0, ROOT, None, 0.0, self.root_end - t0]]
        rows += [[sid, name, parent, start - t0, end - t0]
                 for sid, name, parent, start, end in self.spans]
        return {"columns": ["id", "name", "parent", "start_s", "end_s"], "spans": rows,
                "absent": self.absent, "counter_absent": self.counter_absent}
