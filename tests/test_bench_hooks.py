"""The names the benchmark in perfbench/ hooks into the package must exist.

The traced run wraps functions by module and attribute name, the long_run
and fine_mesh workloads mark the end of set-up on the first call of a probe,
and the traced counters read the system that build_system returns.  A
renamed function makes the benchmark report a metric as null or fail every
execution, so these checks pin the names.  They only read perfbench/.
"""

import importlib.util
import os

import pytest

from fkramers import Basis, build_mesh, build_system

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


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
