"""The values behind the table commands, at full precision.

The reference (tests/golden/table_values.csv, written by table_values.py)
holds 107 values: the 75 errors of the five default study tables, the 30
ratios of the default stability command, the regularity slope and the final
norm of the default solve.  A change that moves one of them by more than
RTOL is a change of results, like a change of a golden file: name the values,
say why they moved and rewrite the reference.

RTOL is set from exact reorderings of the arithmetic, which moved the values
by at most (relative): 5.3e-13 with the trace recurrence solved cell by cell
(oracles.trace_loop) in place of the doubling scan, 2.4e-12 with the
projections contracted by one einsum, 1.2e-11 with the scan run in the
eigenbasis of the trace transfer, and 4.3e-11 with one OpenBLAS thread in
place of two.  Scaling march's near-field weights by 1 + 1e-9 moves 66 of
the 107 values by more than RTOL.
"""

from table_values import compute, read_reference

RTOL = 1e-9


def test_table_values_match_reference():
    ref = read_reference()
    got = compute()
    assert list(got) == list(ref)
    moved = {name: (got[name], value) for name, value in ref.items()
             if not abs(got[name] - value) <= RTOL * abs(value)}
    assert moved == {}
