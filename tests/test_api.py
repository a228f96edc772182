"""The public names of the package."""

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
)


def test_every_exported_name_resolves():
    missing = [name for name in fkramers.__all__ if not hasattr(fkramers, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(set(fkramers.__all__)) == len(fkramers.__all__)


def test_removed_names_not_exported():
    assert [name for name in REMOVED if name in fkramers.__all__] == []
