"""The public names of the package."""

import dataclasses
import inspect

import fkramers

#: Names the package no longer provides; nothing in it calls them.
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
)

#: Values a caller can set through the exported names, counted by
#: `settable_values`; a change to the API changes it, and says why.
SETTABLE_VALUES = 121


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


def test_settable_value_count():
    exported = (getattr(fkramers, name) for name in fkramers.__all__)
    count = sum(
        settable_values(obj) for obj in exported
        if not (inspect.isclass(obj) and issubclass(obj, BaseException))
    )
    assert count == SETTABLE_VALUES
