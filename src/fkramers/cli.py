"""Command-line interface: solves, convergence studies, probes, weight dumps.

Settings come from flags or `key = value` files (hash comments allowed), flags
taking precedence.  A command accepts only the settings it reads
(`COMMAND_SETTINGS`); any other flag or key is a configuration error (exit 2),
as is an `--out` that cannot be written, found before the run.  All numeric
output uses scientific notation with four significant digits so files are
byte-reproducible for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace
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


def resolution_list(raw):
    """A comma-separated list of integers, as `--N-list` and `--tau-list` take."""
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


Setting = namedtuple("Setting", "flag type choices help", defaults=(str, None, None))


def _setting(default, *args, **kwargs):
    """A `RunConfig` field that is a setting: its flag, type, choices and help."""
    return field(default=default, metadata={"setting": Setting(*args, **kwargs)})


@dataclass(frozen=True)
class RunConfig:
    """Settings for one CLI invocation; `parse` fills the command-dependent ones."""

    command: str
    problem: Optional[str] = _setting(None, "--problem", choices=PROBLEM_IDS)
    alpha: Optional[float] = _setting(None, "--alpha", float)
    n: Optional[int] = _setting(None, "--N", int)
    k: int = _setting(1, "--k", int)
    tau: Optional[float] = _setting(None, "--tau", float)
    t_final: float = _setting(1.0, "--T", float)
    theta: float = _setting(1.0, "--theta", float)
    steps: int = _setting(10, "--steps", int, help="weight count")
    trials: int = _setting(10, "--trials", int)
    seed: int = _setting(0, "--seed", int)
    out: Optional[str] = _setting(None, "--out", help="output path (default: stdout)")
    fmt: str = _setting("csv", "--format", choices=("csv", "markdown"))
    n_list: tuple = _setting(DEFAULT_RESOLUTIONS, "--N-list", resolution_list,
                             help="comma-separated mesh resolutions")
    inv_taus: tuple = _setting(DEFAULT_INV_TAUS, "--tau-list", resolution_list,
                               help="comma-separated reciprocal steps, e.g. 10,20,40")


#: Every setting, keyed by its `RunConfig` field, which is also its config key.
SETTINGS = {f.name: f.metadata["setting"] for f in fields(RunConfig) if "setting" in f.metadata}

#: The settings each command reads; a flag or config key outside them is an error.
COMMAND_SETTINGS = {
    "solve": ("problem", "alpha", "n", "k", "tau", "t_final", "theta", "out"),
    "study-time": ("problem", "alpha", "n", "k", "t_final", "theta", "out", "fmt", "inv_taus"),
    "study-space": ("problem", "alpha", "k", "tau", "t_final", "theta", "out", "fmt", "n_list"),
    "stability": ("alpha", "n", "k", "tau", "t_final", "theta", "trials", "seed", "out"),
    "regularity": ("problem", "alpha", "n", "k", "tau", "t_final", "theta", "out"),
    "cq-weights": ("alpha", "tau", "steps", "out"),
}


def _read_config_file(path, command):
    values = {}
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError("cannot read config file %r: %s" % (path, exc)) from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("line %d of %r is not 'key = value': %r" % (lineno, path, line))
        key, raw = (part.strip() for part in body.split("=", 1))
        if key != "command" and key not in COMMAND_SETTINGS[command]:
            raise ConfigError("%s does not read config key %r (line %d of %r)"
                              % (command, key, lineno, path))
        setting = SETTINGS.get(key, Setting(None))
        try:
            values[key] = setting.type(raw)
        except ValueError as exc:
            raise ConfigError("malformed value %r for key %r" % (raw, key)) from exc
        if setting.choices is not None and values[key] not in setting.choices:
            raise ConfigError("config key %r must be one of %s, got %r"
                              % (key, ", ".join(setting.choices), raw))
    return values


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="fkramers",
        description="Fractional kinetic equation solver and convergence harness.",
    )
    sub = parser.add_subparsers(dest="command")
    for command, names in COMMAND_SETTINGS.items():
        # no abbreviations: `study-space --N 4` must not mean `--N-list 4`
        p = sub.add_parser(command, allow_abbrev=False)
        p.add_argument("--config", help="key = value file; flags override")
        for name in names:
            flag, kind, choices, text = SETTINGS[name]
            p.add_argument(flag, dest=name, type=kind, choices=choices, help=text)
    return parser


def _validate(config):
    if config.alpha is not None and not 0.0 < config.alpha <= 1.0:
        raise OrderOutOfRange("alpha must lie in (0, 1], got %r" % (config.alpha,))
    if config.n is not None and config.n < 1:
        raise ConfigError("N must be a positive integer, got %r" % (config.n,))
    # projection integrates with k + 2 Gauss points
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
    if any(r < 1 for r in config.n_list) or any(r < 1 for r in config.inv_taus):
        raise ConfigError("resolution lists must contain positive integers")
    for flag, values in (("N-list", config.n_list), ("tau-list", config.inv_taus)):
        if not values:
            raise ConfigError("--%s holds no resolution" % (flag,))
        if len(set(values)) < len(values):
            raise ConfigError("--%s repeats a resolution: %s" % (flag, ",".join(map(str, values))))
    if config.out is not None:
        missing = not config.out or not os.path.isdir(os.path.dirname(config.out) or os.curdir)
        if missing or os.path.isdir(config.out):
            reason = os.strerror(errno.ENOENT if missing else errno.EISDIR)
            raise ConfigError("cannot write --out %r: %s" % (config.out, reason))


def parse(argv):
    """Parse flags (and an optional config file) into a validated RunConfig."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        raise ConfigError("a command is required: %s" % ", ".join(COMMAND_SETTINGS))
    values = {} if ns.config is None else _read_config_file(ns.config, ns.command)
    if values.setdefault("command", ns.command) != ns.command:
        raise ConfigError("conflicting command: config file says %r, command line says %r"
                          % (values["command"], ns.command))
    values.update((name, getattr(ns, name)) for name in COMMAND_SETTINGS[ns.command]
                  if getattr(ns, name) is not None)
    config = _apply_command_defaults(RunConfig(**values))
    _validate(config)
    return config


def _apply_command_defaults(config):
    """Fill the problem, N and tau that the command reads and nobody set."""
    command = config.command
    defaults = {
        # ex2 is the only problem with an exact solution; ex1b has rough data
        "problem": {"study-space": "ex2", "regularity": "ex1b"}.get(command, "ex1a"),
        "n": 8 if command == "stability" else 16,
        "tau": {"study-space": 0.005 if config.k >= 2 else 0.01, "stability": 0.02,
                "cq-weights": 1.0}.get(command, 0.01),
    }
    return replace(config, **{name: defaults[name] for name in COMMAND_SETTINGS[command]
                              if name in defaults and getattr(config, name) is None})


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
