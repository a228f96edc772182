"""The benchmark's workloads and the checks of their outputs.

Each workload is one call of ``execute(fk, seed, workdir, boundary)`` on the
imported package.  The same function runs in untraced, traced and set-up-only
executions; ``boundary.reached()`` marks the end of set-up (everything before
the first time step) and aborts a set-up-only execution there.

``check(result, reference_dir, seed)`` returns None when the outputs match the
references generated at the commit that defined the benchmark, or a message
saying what differs.  This module imports only the standard library at load
time; numpy is imported inside the checks, after the timed region.
"""

from __future__ import annotations

import math
import os
import re


class SetupDone(BaseException):
    """Raised at the set-up boundary of a set-up-only execution.

    A BaseException so that no ``except Exception`` in the package swallows it.
    """


class Boundary:
    """Records when set-up ends; optionally stops the execution there."""

    def __init__(self, clock, stop):
        self.clock = clock
        self.stop = stop
        self.time = None

    def reached(self):
        if self.time is None:
            self.time = self.clock()
            if self.stop:
                raise SetupDone

    def probe_first_step(self, targets):
        """Mark set-up done on the first call of any of `targets`.

        `targets` are (module, attribute path) pairs tried in order; each that
        exists is wrapped, so the earliest call wins.  Returns the names
        wrapped; an empty list means the boundary cannot be observed.
        """
        from spans import Absent, patch

        def make(fn):
            def probed(*args, **kwargs):
                self.reached()
                return fn(*args, **kwargs)
            return probed

        found = []
        for module_name, path in targets:
            try:
                patch(module_name, path, make)
            except Absent:
                continue
            found.append("%s.%s" % (module_name, path))
        return found


# --------------------------------------------------------------------------
# paper_tables: every CLI command at its defaults, in-process.

#: (output name, argv) in execution order; "{seed}" is the workload seed.
PAPER_COMMANDS = (
    ("study_time_ex1a", ("study-time", "--problem", "ex1a")),
    ("study_time_ex1b", ("study-time", "--problem", "ex1b")),
    ("study_time_ex1c", ("study-time", "--problem", "ex1c")),
    ("study_space_k1", ("study-space", "--k", "1")),
    ("study_space_k2", ("study-space", "--k", "2")),
    ("stability", ("stability", "--seed", "{seed}")),
    ("regularity", ("regularity",)),
    ("solve", ("solve",)),
    ("cq_weights", ("cq-weights",)),
)

#: Columns that hold parameters or indices; they must match byte for byte.
KEY_COLUMNS = {"alpha", "resolution", "trial", "n", "i", "j", "mode_a", "mode_b"}

#: Columns whose values depend on the seed, with the bound they must respect
#: (acceptance criterion 07: growth ratio below 5).
SEEDED_COLUMNS = {("stability", "ratio"): 5.0}


def paper_tables(fk, seed, workdir, boundary):
    outputs = {}
    configs = []
    for name, argv in PAPER_COMMANDS:
        path = os.path.join(workdir, name + ".csv")
        argv = [a.format(seed=seed) for a in argv] + ["--out", path]
        configs.append((name, fk.cli.parse(argv)))
        outputs[name] = path
    boundary.reached()
    for name, config in configs:
        code = fk.cli.execute(config)
        if code != 0:
            raise RuntimeError("command %s exited with code %d" % (name, code))
    return outputs


_NUMBER = re.compile(r"[-+]?\d+(?:\.(\d*))?(?:[eE]([-+]?\d+))?")


def last_digit_unit(token):
    """One unit in the last printed digit of a decimal token, or None if not numeric."""
    m = _NUMBER.fullmatch(token)
    if m is None:
        return None
    decimals = len(m.group(1) or "")
    exponent = int(m.group(2) or 0)
    return 10.0 ** (exponent - decimals)


def compare_csv(name, text, ref_text):
    """None if `text` matches `ref_text` under the paper_tables rules, else why not."""
    lines, ref_lines = text.splitlines(), ref_text.splitlines()
    if text.endswith("\n") != ref_text.endswith("\n"):
        return "%s: trailing newline differs" % name
    if len(lines) != len(ref_lines):
        return "%s: %d rows, reference has %d" % (name, len(lines), len(ref_lines))
    if lines[0] != ref_lines[0]:
        return "%s: header %r, reference %r" % (name, lines[0], ref_lines[0])
    header = ref_lines[0].split(",")
    for row, (line, ref) in enumerate(zip(lines[1:], ref_lines[1:]), start=2):
        toks, ref_toks = line.split(","), ref.split(",")
        if len(toks) != len(ref_toks):
            return "%s line %d: %d fields, reference has %d" % (name, row, len(toks), len(ref_toks))
        for col, tok, ref_tok in zip(header, toks, ref_toks):
            bound = SEEDED_COLUMNS.get((name, col))
            if bound is not None:
                try:
                    value = float(tok)
                except ValueError:
                    return "%s line %d: %s=%r is not a number" % (name, row, col, tok)
                if not (math.isfinite(value) and 0.0 < value < bound):
                    return "%s line %d: %s=%s outside (0, %g)" % (name, row, col, tok, bound)
                continue
            unit = last_digit_unit(ref_tok)
            if col in KEY_COLUMNS or unit is None:
                if tok != ref_tok:
                    return "%s line %d: %s=%r, reference %r" % (name, row, col, tok, ref_tok)
                continue
            if last_digit_unit(tok) is None:
                return "%s line %d: %s=%r is not a number" % (name, row, col, tok)
            if abs(float(tok) - float(ref_tok)) > unit * (1.0 + 1e-6):
                return "%s line %d: %s=%s, reference %s (more than one unit in the last digit)" % (
                    name, row, col, tok, ref_tok)
    return None


def check_paper_tables(outputs, reference_dir, seed):
    for name, _ in PAPER_COMMANDS:
        with open(outputs[name]) as fh:
            text = fh.read()
        with open(os.path.join(reference_dir, "paper_tables", name + ".csv")) as fh:
            ref = fh.read()
        err = compare_csv(name, text, ref)
        if err is not None:
            return err
    return None


# --------------------------------------------------------------------------
# long_run and fine_mesh: one run() each.

#: Calls that begin the first time step of run(); the first that fires ends set-up.
FIRST_STEP = (("fkramers.ldg", "march"), ("fkramers.ldg", "LDGSystem.solve"))

#: Agreement of final coefficients with the reference, relative in the 2-norm.
COEFF_RTOL = 1e-10


def _single_run(problem_id, alpha, n, k, inv_tau):
    def execute(fk, seed, workdir, boundary):
        if not boundary.probe_first_step(FIRST_STEP):
            raise RuntimeError("no first-step boundary to probe: %s" % (FIRST_STEP,))
        problem = fk.get_problem(problem_id, alpha)
        traj = fk.run(problem, n, k, 1.0 / inv_tau)
        return {"problem": problem, "final": traj.final}
    return execute


def _check_coeffs(result, reference_dir, name):
    import numpy as np

    ref = np.load(os.path.join(reference_dir, name + ".npy"))
    got = np.asarray(result["final"].coeffs)
    if got.shape != ref.shape:
        return "%s: final coefficients have shape %r, reference %r" % (name, got.shape, ref.shape)
    rel = float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
    if not rel <= COEFF_RTOL:
        return "%s: final coefficients differ from the reference by %.3e relative (tol %.0e)" % (
            name, rel, COEFF_RTOL)
    return None


def check_long_run(result, reference_dir, seed):
    return _check_coeffs(result, reference_dir, "long_run")


def check_fine_mesh(result, reference_dir, seed):
    import json

    import fkramers

    err = _check_coeffs(result, reference_dir, "fine_mesh")
    if err is not None:
        return err
    with open(os.path.join(reference_dir, "fine_mesh.json")) as fh:
        bound = json.load(fh)["l2_error_bound"]
    problem = result["problem"]
    l2 = fkramers.l2_error(result["final"], problem.exact, t=problem.t_final)
    if not l2 <= bound:
        return "fine_mesh: L2 error to the exact solution %.6e exceeds %.6e" % (l2, bound)
    return None


WORKLOADS = {
    "paper_tables": (paper_tables, check_paper_tables),
    "long_run": (_single_run("ex1b", 0.5, 16, 1, 2000), check_long_run),
    "fine_mesh": (_single_run("ex2", 0.5, 64, 2, 50), check_fine_mesh),
}
