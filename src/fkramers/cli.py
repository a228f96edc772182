"""Command-line interface: solves, convergence studies, probes, weight dumps.

Configuration can come from `key = value` files (hash comments allowed) with
command-line flags taking precedence.  All numeric output uses scientific
notation with four significant digits so files are byte-reproducible for a
fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional

from .cq import cq_weights
from .errors import (
    ConfigError, OrderOutOfRange, PreconditionError, SolverFailure, require_memory,
)
from .ldg import field_to_csv, run
from .mesh import MAX_QUAD_POINTS
from .problems import PROBLEM_IDS, get_problem
from .study import (
    DEFAULT_INV_TAUS,
    DEFAULT_RESOLUTIONS,
    regularity_diagnostic,
    spatial_study,
    stability_probe,
    temporal_study,
)

COMMANDS = ("solve", "study-time", "study-space", "stability", "regularity", "cq-weights")

#: Default fractional orders swept by the studies, keyed by problem (temporal)
#: and by element degree (spatial).
TEMPORAL_ALPHAS = {
    "ex1a": (0.3, 0.5, 0.8),
    "ex1b": (0.2, 0.4, 0.6),
    "ex1c": (0.2, 0.5, 0.7),
    "ex2": (0.3, 0.5, 0.8),
}
SPATIAL_ALPHAS = {1: (0.3, 0.5, 0.7), 2: (0.4, 0.6, 0.8)}
STABILITY_ALPHAS = (0.3, 0.5, 0.8)


@dataclass(frozen=True)
class RunConfig:
    """Settings for one CLI invocation; `parse` fills the command-dependent ones."""

    command: str
    problem: Optional[str] = None
    alpha: Optional[float] = None
    n: Optional[int] = None
    k: int = 1
    tau: Optional[float] = None
    t_final: float = 1.0
    theta: float = 1.0
    steps: int = 10
    trials: int = 10
    seed: int = 0
    out: Optional[str] = None
    fmt: str = "csv"
    n_list: tuple = DEFAULT_RESOLUTIONS
    inv_taus: tuple = DEFAULT_INV_TAUS


_INT_FIELDS = {"n", "k", "steps", "trials", "seed"}
_FLOAT_FIELDS = {"alpha", "tau", "t_final", "theta"}
_TUPLE_FIELDS = {"n_list", "inv_taus"}


def _coerce(name, raw):
    try:
        if name in _INT_FIELDS:
            return int(raw)
        if name in _FLOAT_FIELDS:
            return float(raw)
        if name in _TUPLE_FIELDS:
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError("malformed value %r for key %r" % (raw, name)) from exc
    return raw


def _read_config_file(path):
    values = {}
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError("cannot read config file %r: %s" % (path, exc)) from exc
    known = {f.name for f in fields(RunConfig)}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("line %d of %r is not 'key = value': %r" % (lineno, path, line))
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in known:
            raise ConfigError("unknown config key %r (line %d of %r)" % (key, lineno, path))
        values[key] = _coerce(key, raw)
    return values


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="fkramers",
        description="Fractional kinetic equation solver and convergence harness.",
    )
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key = value file; flags override")
        p.add_argument("--problem", default=None, choices=PROBLEM_IDS)
        p.add_argument("--alpha", default=None, type=float)
        p.add_argument("--N", dest="n", default=None, type=int)
        p.add_argument("--k", default=None, type=int)
        p.add_argument("--tau", default=None, type=float)
        p.add_argument("--T", dest="t_final", default=None, type=float)
        p.add_argument("--theta", default=None, type=float)
        p.add_argument("--steps", default=None, type=int, help="weight count for cq-weights")
        p.add_argument("--trials", default=None, type=int)
        p.add_argument("--seed", default=None, type=int)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", dest="fmt", default=None, choices=("csv", "markdown"))
        p.add_argument("--N-list", dest="n_list", default=None,
                       help="comma-separated mesh resolutions for study-space")
        p.add_argument("--tau-list", dest="inv_taus", default=None,
                       help="comma-separated reciprocal steps for study-time, e.g. 10,20,40")
    return parser


def _validate(config):
    if config.command not in COMMANDS:
        raise ConfigError("unknown command %r" % (config.command,))
    if config.alpha is not None and not 0.0 < config.alpha <= 1.0:
        raise OrderOutOfRange("alpha must lie in (0, 1], got %r" % (config.alpha,))
    if config.n is not None and config.n < 1:
        raise ConfigError("N must be a positive integer, got %r" % (config.n,))
    # assembly integrates with k + 2 Gauss points
    if not 1 <= config.k <= MAX_QUAD_POINTS - 2:
        raise ConfigError("element degree k must be in [1, %d], got %r"
                          % (MAX_QUAD_POINTS - 2, config.k))
    if config.tau is not None and not (math.isfinite(config.tau) and config.tau > 0.0):
        raise ConfigError("tau must be positive and finite, got %r" % (config.tau,))
    if not (math.isfinite(config.t_final) and config.t_final >= 0.0):
        raise ConfigError("T must be nonnegative and finite, got %r" % (config.t_final,))
    if not (math.isfinite(config.theta) and config.theta > 0.0):
        raise ConfigError("theta must be positive and finite, got %r" % (config.theta,))
    if config.steps < 0:
        raise ConfigError("steps must be nonnegative, got %r" % (config.steps,))
    if config.trials < 1:
        raise ConfigError("trials must be positive, got %r" % (config.trials,))
    if config.seed < 0:
        raise ConfigError("seed must be nonnegative, got %r" % (config.seed,))
    if config.fmt not in ("csv", "markdown"):
        raise ConfigError("format must be csv or markdown, got %r" % (config.fmt,))
    if config.problem not in PROBLEM_IDS:
        raise ConfigError("unknown problem %r" % (config.problem,))
    if any(r < 1 for r in config.n_list) or any(r < 1 for r in config.inv_taus):
        raise ConfigError("resolution lists must contain positive integers")
    for flag, values in (("N-list", config.n_list), ("tau-list", config.inv_taus)):
        if not values:
            raise ConfigError("--%s holds no resolution" % (flag,))
        if len(set(values)) < len(values):
            raise ConfigError("--%s repeats a resolution: %s" % (flag, ",".join(map(str, values))))


def parse(argv):
    """Parse flags (and an optional config file) into a validated RunConfig."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        raise ConfigError("a command is required: %s" % ", ".join(COMMANDS))
    values = {}
    if ns.config is not None:
        values.update(_read_config_file(ns.config))
        if "command" in values and values["command"] != ns.command:
            raise ConfigError(
                "conflicting command: config file says %r, command line says %r"
                % (values["command"], ns.command)
            )
    values["command"] = ns.command
    for f in fields(RunConfig):
        if f.name == "command":
            continue
        flag_value = getattr(ns, f.name, None)
        if flag_value is not None:
            if f.name in _TUPLE_FIELDS and isinstance(flag_value, str):
                flag_value = _coerce(f.name, flag_value)
            values[f.name] = flag_value
    config = RunConfig(**values)
    config = _apply_command_defaults(config)
    _validate(config)
    return config


def _apply_command_defaults(config):
    """Fill the problem, N and tau that neither the flags nor a config file set."""
    command = config.command
    defaults = {
        # ex2 is the only problem with an exact solution; ex1b has rough data
        "problem": {"study-space": "ex2", "regularity": "ex1b"}.get(command, "ex1a"),
        "n": 8 if command == "stability" else 16,
        "tau": {"study-space": 0.005 if config.k >= 2 else 0.01, "stability": 0.02,
                "cq-weights": 1.0}.get(command, 0.01),
    }
    return replace(config, **{name: value for name, value in defaults.items()
                              if getattr(config, name) is None})


def _alphas(config):
    """The fractional orders the command runs at: `--alpha`, else its default."""
    if config.alpha is not None:
        return (config.alpha,)
    if config.command == "study-time":
        return TEMPORAL_ALPHAS[config.problem]
    if config.command == "study-space":
        return SPATIAL_ALPHAS.get(config.k, SPATIAL_ALPHAS[2])
    if config.command == "stability":
        return STABILITY_ALPHAS
    return (0.5,)


def _emit(config, text):
    if config.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(config.out, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError("cannot write --out %r: %s" % (config.out, exc.strerror or exc)) from exc


def _note_ex2(config):
    if config.problem == "ex2":
        sys.stderr.write(
            "note: ex2 uses the source factor (t**alpha + 1), matching its exact "
            "solution (t**alpha + 1)*sin(pi*x)*sin(pi*v)\n"
        )


def _stack_tables(tables, fmt):
    if fmt == "markdown":
        return "\n".join(table.to_markdown() for table in tables)
    lines = []
    for table in tables:
        head, *rows = table.to_csv().splitlines()
        lines.extend("%.4g,%s" % (table.alpha, row) for row in rows)
    return "\n".join(["alpha," + head] + lines) + "\n"


def execute(config):
    """Run the configured command; returns a process exit code.

    0 on success, 2 for configuration errors (an unwritable `--out` among
    them), 3 for solver failures, 4 for violated numerical preconditions.
    """
    try:
        _dispatch(config)
    except ConfigError as exc:
        sys.stderr.write("configuration error: %s\n" % exc)
        return 2
    except SolverFailure as exc:
        sys.stderr.write("solver failure: %s\n" % exc)
        return 3
    except PreconditionError as exc:
        sys.stderr.write("precondition violated: %s\n" % exc)
        return 4
    return 0


def _dispatch(config):
    alphas = _alphas(config)
    if config.command == "cq-weights":
        weights = cq_weights(alphas[0], config.tau, config.steps)
        lines = ["j,d_j,partial_sum"]
        for j in range(weights.steps + 1):
            lines.append("%d,%.3E,%.3E" % (j, weights.d[j] + 0.0, weights.partial_sums[j] + 0.0))
        _emit(config, "\n".join(lines) + "\n")
        return

    _note_ex2(config)
    if config.command == "solve":
        problem = get_problem(config.problem, alphas[0], config.t_final)
        traj = run(problem, config.n, config.k, config.tau, config.theta)
        _emit(config, field_to_csv(traj.final))
        return

    if config.command in ("study-time", "study-space"):
        if config.command == "study-time":
            study = functools.partial(temporal_study, n=config.n, inv_taus=config.inv_taus)
        else:
            study = functools.partial(spatial_study, tau=config.tau, resolutions=config.n_list)
        tables = [study(get_problem(config.problem, alpha, config.t_final),
                        k=config.k, theta=config.theta) for alpha in alphas]
        _emit(config, _stack_tables(tables, config.fmt))
        return

    if config.command == "stability":
        # every output row, a string of about 80 bytes, is held until the end
        require_memory(10 * len(alphas) * config.trials,
                       "the output of %d stability trials" % config.trials)
        lines = ["alpha,trial,ratio"]
        worst = 0.0
        for alpha in alphas:
            for trial in range(config.trials):
                ratio = stability_probe(
                    alpha, n=config.n, k=config.k, tau=config.tau, trials=1,
                    theta=config.theta, seed=config.seed + trial, t_final=config.t_final,
                )
                worst = max(worst, ratio)
                lines.append("%.4g,%d,%.3E" % (alpha, trial, ratio))
        _emit(config, "\n".join(lines) + "\n")
        sys.stderr.write("observed stability constant: %.3E\n" % worst)
        return

    if config.command == "regularity":
        problem = get_problem(config.problem, alphas[0], config.t_final)
        fit = regularity_diagnostic(problem, n=config.n, k=config.k,
                                    tau=config.tau, theta=config.theta)
        lines = ["n,t,difference_quotient"]
        for m, (t, q) in enumerate(zip(fit.times, fit.quotients), start=1):
            lines.append("%d,%.3E,%.3E" % (m, t, q))
        _emit(config, "\n".join(lines) + "\n")
        if fit.degenerate:
            sys.stderr.write("regularity fit degenerate: difference quotients vanish\n")
        else:
            sys.stderr.write("fitted decay slope: %.4f\n" % fit.slope)
        return

    raise ConfigError("unknown command %r" % (config.command,))


def main(argv=None):
    try:
        config = parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse handles --help (code 0) and usage errors (code 2)
        return int(exc.code or 0)
    except (ConfigError, PreconditionError) as exc:
        sys.stderr.write("configuration error: %s\n" % exc)
        return 2
    return execute(config)


if __name__ == "__main__":
    sys.exit(main())
