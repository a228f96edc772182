"""Full-precision values behind the table commands, at the CLI defaults.

The table commands print four significant digits.  `compute` recomputes,
through the library and with the settings `fkramers.cli.parse` fills in,
the values behind them:

- the 75 errors of the five default study tables (`study-time` of ex1a, ex1b
  and ex1c, `study-space` at k = 1 and k = 2), 15 per table;
- the 30 growth ratios of the default `stability` command;
- the fitted decay slope of the default `regularity` command;
- the L2 norm of the final level of the default `solve` command.

Run as a script, ``PYTHONPATH=src python tests/table_values.py`` writes them
to REFERENCE as ``name,repr(value)`` lines; ``test_table_values.py`` compares
them at one relative tolerance.
"""

import os

import numpy as np

from fkramers import get_problem, regularity_diagnostic, run, spatial_study, stability_probe
from fkramers import temporal_study
from fkramers.cli import _alphas, parse

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "table_values.csv")

#: The default study commands: (name, argv).
TABLES = (
    ("study_time_ex1a", ["study-time", "--problem", "ex1a"]),
    ("study_time_ex1b", ["study-time", "--problem", "ex1b"]),
    ("study_time_ex1c", ["study-time", "--problem", "ex1c"]),
    ("study_space_k1", ["study-space", "--k", "1"]),
    ("study_space_k2", ["study-space", "--k", "2"]),
)


def _table(config, alpha):
    problem = get_problem(config.problem, alpha, config.t_final)
    if config.command == "study-time":
        return temporal_study(problem, n=config.n, k=config.k, inv_taus=config.inv_taus,
                              theta=config.theta)
    return spatial_study(problem, k=config.k, tau=config.tau, resolutions=config.n_list,
                         theta=config.theta)


def compute():
    """The values, keyed by name, in a fixed order."""
    values = {}
    for name, argv in TABLES:
        config = parse(argv)
        for alpha in _alphas(config):
            table = _table(config, alpha)
            for res, err in zip(table.resolutions, table.errors):
                values["%s alpha=%r %s=%d" % (name, alpha, table.axis, res)] = err
    config = parse(["stability"])
    for alpha in _alphas(config):
        for trial in range(config.trials):
            values["stability alpha=%r trial=%d" % (alpha, trial)] = stability_probe(
                alpha, n=config.n, k=config.k, tau=config.tau, trials=1, theta=config.theta,
                seed=config.seed + trial, t_final=config.t_final)
    config = parse(["regularity"])
    problem = get_problem(config.problem, _alphas(config)[0], config.t_final)
    values["regularity slope"] = regularity_diagnostic(
        problem, n=config.n, k=config.k, tau=config.tau, theta=config.theta).slope
    config = parse(["solve"])
    problem = get_problem(config.problem, _alphas(config)[0], config.t_final)
    traj = run(problem, config.n, config.k, config.tau, config.theta)
    values["solve final norm"] = float(np.linalg.norm(traj.levels[-1]))
    return values


def read_reference(path=REFERENCE):
    with open(path, encoding="utf-8") as fh:
        rows = [line.rsplit(",", 1) for line in fh.read().splitlines()[1:]]
    return {name: float(value) for name, value in rows}


def write_reference(values, path=REFERENCE):
    lines = ["name,value"] + ["%s,%r" % (name, float(value)) for name, value in values.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    write_reference(compute())
