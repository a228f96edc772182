"""The public names of the package."""

import dataclasses
import inspect
import os
import re

import fkramers
import fkramers.projections

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Names the package no longer exports; no caller outside it used them.
REMOVED = (
    "QuadRule",
    "history_combination",
    "legendre_eval",
    "project_1d",
    "project_tensor",
    "TENSOR_KINDS",
    "example1",
    "example2",
    "InvalidResolution",
    "OrderOutOfRange",
    "MisalignedDiscontinuity",
    "MeshMismatch",
    "LDGSystem",
    "assemble_system",
    "build_system",
    "project_initial",
    "load_vector",
    "gauss_rule",
    "modal_project",
    "nodal_values",
    "nodal_reconstruction_error",
    "rates_from_errors",
    "Projection1D",
    "field_to_csv",
)

#: The callers outside the package, with README's Library example, whose
#: calls decide which functions are exported.
OUTSIDE_CALLERS = ("tests/test_acceptance.py", "perfbench/workloads.py")

#: Members the classes no longer have, by module; nothing in the package calls them.
REMOVED_MEMBERS = {
    (fkramers.projections, "Projection1D"): ("rows", "condition_matrix", "nmodes"),
}

#: Values a caller can set through the exported names, counted by
#: `settable_values`; a change to the API changes it, and says why.
SETTABLE_VALUES = 78


def settable_values(obj):
    """Init fields of a dataclass, plus the parameters of a class's public
    functions less self, or the parameters of any other callable."""
    if not inspect.isclass(obj):
        return len(inspect.signature(obj).parameters) if callable(obj) else 0
    count = 0
    if dataclasses.is_dataclass(obj):
        count += sum(f.init for f in dataclasses.fields(obj))
    for name, member in vars(obj).items():
        if not name.startswith("_") and inspect.isfunction(member):
            count += len(inspect.signature(member).parameters) - 1
    return count


def test_every_exported_name_resolves():
    missing = [name for name in fkramers.__all__ if not hasattr(fkramers, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(set(fkramers.__all__)) == len(fkramers.__all__)


def test_removed_names_not_exported():
    assert [name for name in REMOVED if name in fkramers.__all__] == []


def _read(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return fh.read()


def _readme_export_list():
    """The names that README's export list puts first in a backticked span."""
    text = _read("README.md")
    section = text.split("The package exports these names:\n\n", 1)[1].split("\n\n", 1)[0]
    return {m.group(1) for m in re.finditer(r"`([A-Za-z_]\w*)", section)}


def test_readme_lists_the_exports():
    listed = _readme_export_list()
    assert [name for name in fkramers.__all__ if name not in listed] == []
    assert [name for name in REMOVED if name in listed] == []


def _library_example():
    """The code of README's Library example."""
    return _read("README.md").split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]


def test_exported_functions_are_called_outside():
    # a function is exported only if the gate, the benchmark or README's
    # example calls it by name; classes, exceptions and constants are exempt
    texts = [_read(path) for path in OUTSIDE_CALLERS] + [_library_example()]
    uncalled = [
        name for name in fkramers.__all__
        if inspect.isfunction(getattr(fkramers, name))
        and not any(re.search(r"\b%s\(" % name, text) for text in texts)
    ]
    assert uncalled == []


def test_removed_members_absent():
    present = [(cls, name) for (module, cls), names in REMOVED_MEMBERS.items()
               for name in names if hasattr(getattr(module, cls), name)]
    assert present == []


def test_settable_value_count():
    exported = (getattr(fkramers, name) for name in fkramers.__all__)
    count = sum(
        settable_values(obj) for obj in exported
        if not (inspect.isclass(obj) and issubclass(obj, BaseException))
    )
    assert count == SETTABLE_VALUES
