"""The names the benchmark in perfbench/ hooks into the package must exist.

The traced run wraps functions by module and attribute name, the long_run
and fine_mesh workloads mark the end of set-up on the first call of a probe,
and the traced counters read the system that build_system returns.  A
renamed function makes the benchmark report a metric as null or fail every
execution, so these checks pin the names.  They only read perfbench/.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from fkramers import Basis, build_mesh
from fkramers.ldg import build_system

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(PERFBENCH, name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


def _resolves(module_name, path):
    try:
        spans.resolve(module_name, path)
    except spans.Absent:
        return False
    return True


@pytest.mark.parametrize("name", sorted(spans.TARGETS))
def test_every_span_has_a_target(name):
    assert any(_resolves(module_name, path) for module_name, path in spans.TARGETS[name])


@pytest.mark.parametrize("module_name, path", workloads.FIRST_STEP)
def test_first_step_probe_resolves(module_name, path):
    assert _resolves(module_name, path)


def test_system_exposes_traced_counters():
    system = build_system(build_mesh(2), Basis(1), 1.0, 1.0)
    assert system.matrix.nnz > 0
    assert system.lu.L.nnz > 0 and system.lu.U.nnz > 0
    assert spans._matrix_nnz(system) == system.matrix.nnz
    assert spans._lu_nnz(system) == system.lu.L.nnz + system.lu.U.nnz


#: Installs the tracer as a traced benchmark execution does, runs tiny
#: versions of six CLI commands in-process and prints the summary as JSON.
TRACED_SCRIPT = """
import json, os, sys, time
from spans import Tracer
tracer = Tracer()
tracer.start(time.perf_counter())
import fkramers
import fkramers.cli
tracer.install()
commands = [
    ["solve", "--problem", "ex2", "--N", "4", "--tau", "0.25"],
    ["cq-weights"],
    ["stability", "--N", "2", "--tau", "0.25", "--trials", "2"],
    ["regularity", "--N", "2", "--tau", "0.125"],
    ["study-space", "--N-list", "2,4", "--tau", "0.25", "--alpha", "0.5"],
    ["study-time", "--problem", "ex1c", "--N", "2", "--tau-list", "2,4", "--alpha", "0.5"],
]
for i, argv in enumerate(commands):
    out = os.path.join(sys.argv[1], "%d.csv" % i)
    assert fkramers.cli.main(argv + ["--out", out]) == 0, argv
tracer.stop()
print(json.dumps(tracer.summary()))
"""


def test_traced_commands_report_every_metric(tmp_path):
    # a fresh interpreter, so the tracer wraps the package as it is first
    # imported: a traced name the package no longer calls through would show
    # as an absent or null metric, which the benchmark reports as malformed
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (PERFBENCH, os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["absent"] == {}
    assert [name for name, value in summary["metrics"].items() if value is None] == []
    assert summary["check"] is None
    metrics = summary["metrics"]
    # one projection per run with a source: the solve, the two runs of the
    # spatial study and the three of the temporal one (1/tau = 2, 4, 8)
    assert metrics["problems.load_calls"] == 6
    assert metrics["ldg.solve_calls"] > 0
