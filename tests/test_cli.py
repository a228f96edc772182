"""Command-line interface: parsing, config files, exit codes, output formats."""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkramers import ConfigError, SolverFailure, get_problem, regularity_diagnostic
from fkramers.cli import COMMAND_SETTINGS, SETTINGS, RunConfig, _build_parser, _emit, main, parse
from fkramers.problems import PROBLEM_IDS
from fkramers.study import DEFAULT_INV_TAUS, DEFAULT_RESOLUTIONS

GOLDEN_DIR = Path(__file__).with_name("golden")

#: golden file stem -> command line whose output it holds
GOLDEN_CASES = {
    "solve_ex2_N4_k1": "solve --problem ex2 --N 4 --k 1 --tau 0.25",
    "solve_ex1c_N4_k2": "solve --problem ex1c --N 4 --k 2 --tau 0.125",
    "study_time_ex1b": "study-time --problem ex1b --N 4 --tau-list 4,8",
    "study_space_k1": "study-space --k 1 --tau 0.25 --N-list 2,4",
    "stability": "stability --N 2 --tau 0.25 --trials 3 --seed 3",
    "regularity": "regularity --N 4 --tau 0.0625",
    "cq_weights": "cq-weights --steps 6",
}


class TestParse:
    def test_solve_defaults(self):
        config = parse(["solve"])
        assert config.command == "solve"
        assert config.problem == "ex1a"
        assert config.n == 16 and config.k == 1
        assert config.tau == 0.01 and config.t_final == 1.0
        assert config.theta == 1.0 and config.fmt == "csv"
        assert config.alpha is None and config.out is None

    def test_study_space_defaults(self):
        config = parse(["study-space"])
        assert config.problem == "ex2"  # only problem with an exact solution
        assert config.n_list == DEFAULT_RESOLUTIONS
        assert config.tau == 0.01

    def test_study_space_higher_degree_step(self):
        assert parse(["study-space", "--k", "2"]).tau == 0.005

    def test_stability_defaults(self):
        config = parse(["stability"])
        assert config.n == 8 and config.tau == 0.02 and config.trials == 10

    def test_cq_weights_defaults(self):
        config = parse(["cq-weights"])
        assert config.tau == 1.0 and config.steps == 10

    def test_regularity_problem_default(self):
        assert parse(["regularity"]).problem == "ex1b"
        assert parse(["regularity", "--problem", "ex1c"]).problem == "ex1c"

    @pytest.mark.parametrize("command", ["regularity", "study-space"])
    def test_explicit_problem_kept_where_default_differs(self, command, tmp_path):
        # ex1a, the default of the other commands, is a setting like any other
        assert parse([command, "--problem", "ex1a"]).problem == "ex1a"
        path = tmp_path / "run.cfg"
        path.write_text("problem = ex1a\n")
        assert parse([command, "--config", str(path)]).problem == "ex1a"

    def test_study_time_keeps_problem(self):
        config = parse(["study-time", "--problem", "ex1b"])
        assert config.problem == "ex1b"
        assert config.inv_taus == DEFAULT_INV_TAUS

    def test_flag_overrides(self):
        config = parse(["solve", "--N", "4", "--tau", "0.05", "--theta", "2.5", "--k", "2"])
        assert config.n == 4 and config.tau == 0.05
        assert config.theta == 2.5 and config.k == 2

    def test_list_flags(self):
        config = parse(["study-space", "--N-list", "2,4,8"])
        assert config.n_list == (2, 4, 8)
        config = parse(["study-time", "--tau-list", "10,20"])
        assert config.inv_taus == (10, 20)

    def test_missing_command_rejected(self):
        with pytest.raises(ConfigError):
            parse([])

    def test_parser_built_once_keeps_no_state(self):
        # the parser is shared by every parse; one parse's flags must not
        # become the next one's defaults
        assert _build_parser() is _build_parser()
        assert parse(["solve", "--N", "4", "--k", "2", "--out", "x.csv"]).n == 4
        config = parse(["solve"])
        assert config.n == 16 and config.k == 1 and config.out is None

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            parse(["solve", "--k", "0"])
        with pytest.raises(ConfigError, match=r"degree k must be in \[1, 30\], got 31"):
            parse(["solve", "--k", "31"])
        with pytest.raises(ConfigError):
            parse(["solve", "--tau", "-0.1"])
        with pytest.raises(ConfigError):
            parse(["solve", "--theta", "0"])
        with pytest.raises(ConfigError):
            parse(["study-space", "--N-list", "0,4"])
        with pytest.raises(ConfigError, match="seed"):
            parse(["stability", "--seed", "-1"])


#: a valid value of every setting, as a flag or a config file gives it
SAMPLE_VALUES = {"problem": "ex1a", "alpha": "0.5", "n": "4", "k": "1", "tau": "0.5",
                 "t_final": "1", "theta": "1", "steps": "3", "trials": "2", "seed": "1",
                 "out": "x.csv", "fmt": "csv", "n_list": "2,4", "inv_taus": "2,4"}
#: every (command, setting it does not read) pair
UNREAD = [(command, name) for command, names in COMMAND_SETTINGS.items()
          for name in SETTINGS if name not in names]


class TestCommandSettings:
    def test_tables_agree(self):
        assert sorted(SETTINGS) == sorted(f.name for f in fields(RunConfig) if f.name != "command")
        assert {name for names in COMMAND_SETTINGS.values() for name in names} == set(SETTINGS)
        assert sorted(SAMPLE_VALUES) == sorted(SETTINGS)

    @pytest.mark.parametrize("command", list(COMMAND_SETTINGS))
    def test_help_lists_exactly_the_read_flags(self, command, capsys):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", capsys.readouterr().out))
        flags = {SETTINGS[name].flag for name in COMMAND_SETTINGS[command]}
        assert listed == {"--help", "--config"} | flags

    @pytest.mark.parametrize("command, name", UNREAD)
    def test_unread_flag_exit_two(self, command, name, capsys, monkeypatch):
        monkeypatch.setattr("fkramers.cli._dispatch", lambda config: pytest.fail("ran"))
        assert main([command, SETTINGS[name].flag, SAMPLE_VALUES[name]]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: %s %s" % (SETTINGS[name].flag, SAMPLE_VALUES[name]) in err

    @pytest.mark.parametrize("command, name", UNREAD)
    def test_unread_config_key_exit_two(self, command, name, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("fkramers.cli._dispatch", lambda config: pytest.fail("ran"))
        path = tmp_path / "c.cfg"
        path.write_text("# a setting %s does not read\n%s = %s\n"
                        % (command, name, SAMPLE_VALUES[name]))
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: %s does not read config key %r (line 2 of %r)" % (
            command, name, str(path)) in err, err

    @pytest.mark.parametrize("command, key, value", [
        ("solve", "problem", "ex9"), ("study-time", "fmt", "html"),
    ])
    def test_config_value_outside_choices_exit_two(self, command, key, value, capsys,
                                                     monkeypatch, tmp_path):
        monkeypatch.setattr("fkramers.cli._dispatch", lambda config: pytest.fail("ran"))
        path = tmp_path / "c.cfg"
        path.write_text("%s = %s\n" % (key, value))
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: config key %r must be one of " % (key,) in err, err
        assert "got %r" % (value,) in err

    def test_read_flags_and_keys_accepted(self, tmp_path):
        for command, names in COMMAND_SETTINGS.items():
            argv = [command]
            for name in names:
                argv += [SETTINGS[name].flag, SAMPLE_VALUES[name]]
            path = tmp_path / (command + ".cfg")
            path.write_text("".join("%s = %s\n" % (name, SAMPLE_VALUES[name]) for name in names))
            assert parse(argv) == parse([command, "--config", str(path)])

    def test_unread_settings_stay_unset(self):
        assert parse(["stability"]).problem is None
        config = parse(["cq-weights"])
        assert config.problem is None and config.n is None
        assert parse(["study-time"]).tau is None
        assert parse(["study-space"]).n is None

    def test_no_ex2_note_without_a_problem(self, capsys):
        argv = ["stability", "--problem", "ex2", "--N", "1", "--tau", "0.5", "--trials", "1"]
        assert main(argv) == 2
        assert "note: ex2" not in capsys.readouterr().err


class TestConfigFile:
    def test_render_parse_round_trip(self):
        config = parse([
            "study-time", "--problem", "ex1b", "--alpha", "0.4", "--N", "8",
            "--tau-list", "10,20,40", "--format", "markdown",
        ])
        import tempfile, os

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "case.cfg")
            with open(path, "w") as handle:
                # keys study-time reads, and no other
                handle.write(
                    "command = study-time\nproblem = ex1b\nalpha = 0.4\nn = 8\nk = 1\n"
                    "t_final = 1.0\ntheta = 1.0\nfmt = markdown\ninv_taus = 10,20,40\n"
                )
            again = parse([config.command, "--config", path])
        assert again == config

    def test_comments_and_blanks_tolerated(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# sweep setup\n\nn = 4  # coarse\ntau = 0.25\n")
        config = parse(["solve", "--config", str(path)])
        assert config.n == 4 and config.tau == 0.25

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("tau = 0.5\nn = 4\n")
        config = parse(["solve", "--config", str(path), "--tau", "0.25"])
        assert config.tau == 0.25 and config.n == 4

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("n = 4\nfoo = 1\n")
        with pytest.raises(ConfigError, match=r"'foo'.*line 2"):
            parse(["solve", "--config", str(path)])

    def test_malformed_value_named(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("n = abc\n")
        with pytest.raises(ConfigError, match=r"'abc' for key 'n'"):
            parse(["solve", "--config", str(path)])

    def test_conflicting_command_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("command = solve\n")
        with pytest.raises(ConfigError, match="conflicting command"):
            parse(["study-time", "--config", str(path)])

    def test_matching_command_accepted(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("command = solve\nn = 2\n")
        assert parse(["solve", "--config", str(path)]).n == 2

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse(["solve", "--config", "/nonexistent/path.cfg"])

    def test_not_key_value_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse(["solve", "--config", str(path)])


class TestMain:
    def test_no_arguments_exit_two(self, capsys):
        assert main([]) == 2
        assert "command is required" in capsys.readouterr().err

    def test_bad_order_exit_two(self, capsys):
        assert main(["solve", "--alpha", "1.5"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "alpha" in err

    @pytest.mark.parametrize("flag", ["--tau", "--theta", "--T"])
    def test_nonfinite_float_exit_two(self, capsys, flag):
        assert main(["solve", "--N", "2", flag, "inf"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "finite" in err

    @pytest.mark.parametrize("argv", [
        ["study-time", "--tau-list", "1,1"],
        ["study-time", "--tau-list", "10,10,20"],
        ["study-time", "--tau-list", "10,20,10"],
        ["study-space", "--N-list", "4,4"],
    ])
    def test_repeated_resolution_exit_two(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "repeats a resolution" in err

    @pytest.mark.parametrize("argv, config, flag", [
        (["study-space", "--N-list="], None, "--N-list"),
        (["study-time", "--tau-list=,,"], None, "--tau-list"),
        (["study-space"], "n_list =\n", "--N-list"),
    ])
    def test_empty_resolution_list_exit_two(self, capsys, tmp_path, argv, config, flag):
        if config is not None:
            path = tmp_path / "c.cfg"
            path.write_text(config)
            argv = argv + ["--config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and flag in err

    def test_solver_failure_exit_three(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise SolverFailure("synthetic breakdown")

        monkeypatch.setattr("fkramers.cli.run", boom)
        assert main(["solve", "--N", "2", "--tau", "0.5"]) == 3
        assert "solver failure" in capsys.readouterr().err

    def test_singular_cell_block_exit_three(self):
        # theta * penalty overflows to inf, so the v-block is not finite
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "fkramers.cli", "solve", "--N", "4", "--theta", "1e308"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 3, proc.stderr
        assert "solver failure" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("theta", ["1e308"])
    def test_huge_penalty_exit_three_without_warnings(self, theta, capsys):
        # at 1e308 theta * penalty overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--N", "4", "--theta", theta]) == 3
        err = capsys.readouterr().err
        ratio = re.search(r"backward error (\S+) exceeds", err)
        if ratio is None:
            assert "v-block" in err, err
        else:
            assert math.isfinite(float(ratio.group(1))), err

    def test_huge_penalty_solved_without_warnings(self, capsys):
        # at 1e300 the residual's norm would overflow unscaled; the solve is
        # backward stable, so it passes the check, and the output is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--N", "4", "--theta", "1e300"]) == 0
        values = [float(line.rsplit(",", 1)[1])
                  for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(values) == 4 * 4 * 2 * 2 and all(map(math.isfinite, values))

    @pytest.mark.parametrize("n, k", [
        (4, 30), (16, 12), (64, 5), (128, 3), (256, 2), (128, 2), (256, 1),
    ])
    def test_fine_or_high_order_solve_exit_zero(self, n, k, capsys):
        # ||S|| reaches 1e7 and more here: a backward-stable solve once
        # failed a residual check relative to the load alone
        argv = ["solve", "--problem", "ex2", "--tau", "0.02", "--T", "0.04",
                "--N", str(n), "--k", str(k)]
        assert main(argv) == 0, capsys.readouterr().err

    def test_runtime_precondition_exit_four(self, capsys):
        # a 3-cell mesh misses the jump line of ex1c at x = 0.5
        code = main(["study-time", "--problem", "ex1c", "--alpha", "0.5",
                     "--N", "3", "--tau-list", "2,4"])
        assert code == 4
        assert "precondition violated" in capsys.readouterr().err

    def test_zero_final_time_study_exit_four(self, capsys):
        # the message names the final time, not a time step the user never gave
        assert main(["study-time", "--T", "0"]) == 4
        err = capsys.readouterr().err
        assert "needs a positive final time, got 0.0" in err and "time step" not in err

    @pytest.mark.parametrize("argv", [
        ["cq-weights", "--steps", "1000000000000"],
        ["solve", "--tau", "1e-300", "--T", "1"],
        ["solve", "--N", "100000"],
        ["solve", "--N", "1000000000000"],
        ["stability", "--N", "100000"],
        ["study-space", "--N-list", "4,100000"],
        ["stability", "--N", "2", "--trials", "1000000000000"],
    ])
    def test_input_beyond_memory_exit_four(self, capsys, argv):
        # the estimate is checked before any array of that size is requested
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 4
        err = capsys.readouterr().err
        assert "precondition violated" in err and "GiB, more than the" in err
        assert "of physical memory" in err
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("argv", [
        ["cq-weights", "--steps", "0", "--tau", "1e-320", "--alpha", "1"],
        ["study-space", "--k", "2", "--tau", "1e-320", "--N-list", "1,2", "--T", "1e-320",
         "--alpha", "1"],
    ])
    def test_overflowing_leading_weight_exit_four(self, capsys, argv):
        assert main(argv) == 4
        assert "leading weight tau**-alpha overflows" in capsys.readouterr().err

    def test_step_count_beyond_float_exit_four(self, capsys):
        assert main(["solve", "--tau", "1e-320", "--T", "1"]) == 4
        assert "more steps of 1e-320 than a float can count" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--N", "1"],
        ["study-space", "--N-list", "1,2"],
        ["stability", "--N", "1"],
    ])
    def test_step_count_beyond_limit_exit_four(self, capsys, argv):
        # 1e308 / 1e300 = 1e8 steps fit in the memory of a 1 x 1 mesh, but no
        # run of them could finish; they are refused before anything
        # step-sized is allocated
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main(argv + ["--T", "1e308", "--tau", "1e300"])
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 4
        err = capsys.readouterr().err
        assert "precondition violated" in err
        # a host with less than the 3 GiB of levels names its memory instead
        assert "100000000 steps is more than the limit of 1000000" in err or (
            "of physical memory" in err
        )
        assert elapsed < 1.0
        assert peak < 2 ** 20

    def test_weight_count_beyond_limit_exit_four(self, capsys):
        # 3e8 weights (4.8 GB) may fit in memory, but printing them would take
        # minutes and gigabytes of output; they are refused before any array
        # of that size is allocated
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main(["cq-weights", "--steps", "300000000"])
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 4
        err = capsys.readouterr().err
        assert "precondition violated" in err
        # a host with less than 4.8 GB names its memory instead
        assert "300000000 steps are more than the limit of 1000000" in err or (
            "of physical memory" in err
        )
        assert elapsed < 1.0
        assert peak < 2 ** 20

    def test_projection_dump_at_time_zero(self, capsys):
        assert main(["solve", "--N", "2", "--T", "0"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "i,j,mode_a,mode_b,coefficient"
        assert len(lines) == 1 + 2 * 2 * 2 * 2

    def test_ex2_note_on_stderr(self, capsys):
        assert main(["solve", "--problem", "ex2", "--N", "2", "--T", "0"]) == 0
        assert "(t**alpha + 1)" in capsys.readouterr().err

    def test_cq_weights_values(self, capsys):
        assert main(["cq-weights", "--alpha", "0.5", "--tau", "1", "--steps", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines == [
            "j,d_j,partial_sum",
            "0,1.000E+00,1.000E+00",
            "1,-5.000E-01,5.000E-01",
            "2,-1.250E-01,3.750E-01",
            "3,-6.250E-02,3.125E-01",
        ]

    def test_cq_weights_print_no_negative_zero(self, capsys):
        # at alpha = 1 the recurrence d_j = d_{j-1} (j - 1 - alpha) / j
        # reaches -0.0 exactly
        assert main(["cq-weights", "--alpha", "1", "--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert "-0.000E+00" not in out
        assert "2,0.000E+00,0.000E+00" in out

    def test_stability_output_and_determinism(self, capsys, tmp_path):
        argv = ["stability", "--N", "2", "--tau", "0.25", "--trials", "2",
                "--seed", "3", "--alpha", "0.5"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(f1)]) == 0
        assert main(argv + ["--out", str(f2)]) == 0
        b1 = f1.read_bytes()
        assert b1 == f2.read_bytes()
        assert b1.decode().split("\n")[0] == "alpha,trial,ratio"
        assert "observed stability constant:" in capsys.readouterr().err

    def test_study_time_stacked_csv(self, capsys):
        assert main(["study-time", "--problem", "ex1a", "--N", "2",
                     "--tau-list", "2,4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "alpha,resolution,error,rate"
        # three default orders for this problem, two resolutions each
        assert len(lines) == 1 + 3 * 2
        assert lines[1].startswith("0.3,2,")
        assert lines[2].startswith("0.3,4,")

    def test_study_time_markdown(self, capsys):
        assert main(["study-time", "--problem", "ex1a", "--alpha", "0.5",
                     "--N", "2", "--tau-list", "2,4", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert "1/tau | 2 | 4 |" in out
        assert "| rate |" in out

    def test_regularity_report(self, capsys):
        assert main(["regularity", "--N", "2", "--tau", "0.125", "--alpha", "0.5"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("n,t,difference_quotient\n")
        assert "fitted decay slope:" in captured.err

    def test_regularity_runs_explicit_problem(self, capsys):
        assert main(["regularity", "--problem", "ex1a", "--N", "2", "--tau", "0.125"]) == 0
        fit = regularity_diagnostic(get_problem("ex1a", 0.5), n=2, k=1, tau=0.125)
        assert capsys.readouterr().err == "fitted decay slope: %.4f\n" % fit.slope

    def test_regularity_too_few_steps_exit_four(self, capsys):
        # 4 steps leave one point in the fit window [2, steps // 2]
        assert main(["regularity", "--N", "2", "--tau", "0.25"]) == 4
        err = capsys.readouterr().err
        assert "precondition violated: too few steps for a regularity fit: 4" in err

    def test_study_space_without_exact_solution_exit_four(self, capsys, monkeypatch):
        monkeypatch.setattr("fkramers.study.run", lambda *args: pytest.fail("a run started"))
        assert main(["study-space", "--problem", "ex1a", "--tau", "0.5", "--N-list", "1,2"]) == 4
        assert "exact solution" in capsys.readouterr().err

    def test_highest_degree_runs(self, capsys):
        for n in ("1", "4"):
            assert main(["solve", "--k", "30", "--N", n, "--tau", "0.5"]) == 0
            assert capsys.readouterr().out.startswith("i,j,mode_a,mode_b")

    def test_degree_above_quadrature_limit_exit_two(self, capsys):
        assert main(["solve", "--k", "31", "--N", "1", "--tau", "0.5"]) == 2
        assert "configuration error: element degree k must be in [1, 30], got 31" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("where", ["missing directory", "directory", "empty path"])
    def test_unwritable_output_exit_two(self, capsys, tmp_path, where):
        out = {"missing directory": str(tmp_path / "missing" / "x.csv"),
               "directory": str(tmp_path), "empty path": ""}[where]
        assert main(["solve", "--N", "2", "--tau", "0.5", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot write --out %r: " % out), err
        assert "Traceback" not in err

    def test_unwritable_output_found_before_the_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("fkramers.study.run", lambda *args: pytest.fail("a run started"))
        out = str(tmp_path / "missing" / "x.csv")
        assert main(["study-space", "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: cannot write --out %r: " % out)

    def test_emit_reports_unwritable_output(self, tmp_path):
        # the backstop for a path that passes the check but cannot be opened
        out = str(tmp_path / "missing" / "x.csv")
        with pytest.raises(ConfigError, match="cannot write --out"):
            _emit(RunConfig(command="solve", out=out), "text\n")

    def test_output_file_instead_of_stdout(self, capsys, tmp_path):
        path = tmp_path / "w.csv"
        assert main(["cq-weights", "--steps", "2", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text().startswith("j,d_j,partial_sum")

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


#: edge values a numeric flag is drawn from, in place of a small valid one
EDGE_FLOATS = ("0", "-1", "nan", "inf", "-inf", "1e-320", "1e300", "1e308")
EDGE_INTS = ("0", "-1", "1000000000000")
EDGE_LISTS = ("", "0,2", "-2,4", "4,2", "2,2", "4,2,4", "2,nan", "1e300")
#: 31 is the lowest degree whose assembly needs more Gauss points than exist
EDGE_DEGREES = EDGE_INTS + ("31",)

#: per command, each flag fuzzed with its valid values and its edge values;
#: the valid values keep a run to a few steps on a mesh of at most 4 x 4
FUZZ_FLAGS = {
    "solve": {"--N": (("1", "2", "4"), EDGE_INTS), "--k": (("1", "2"), EDGE_DEGREES),
              "--tau": (("0.25", "0.5"), EDGE_FLOATS), "--T": (("0.25", "1"), EDGE_FLOATS)},
    "study-time": {"--N": (("2", "4"), EDGE_INTS), "--tau-list": (("2,4", "8,4"), EDGE_LISTS),
                   "--T": (("0.5", "1"), EDGE_FLOATS)},
    "study-space": {"--k": (("1", "2"), EDGE_DEGREES), "--tau": (("0.25", "0.5"), EDGE_FLOATS),
                    "--N-list": (("1,2", "4,2"), EDGE_LISTS), "--T": (("0.5", "1"), EDGE_FLOATS)},
    "stability": {"--N": (("1", "2"), EDGE_INTS), "--tau": (("0.25", "0.5"), EDGE_FLOATS),
                  "--trials": (("1", "2"), EDGE_INTS), "--seed": (("3",), EDGE_INTS),
                  "--T": (("0.5", "1"), EDGE_FLOATS)},
    "regularity": {"--N": (("2", "4"), EDGE_INTS), "--tau": (("0.125", "0.25"), EDGE_FLOATS),
                   "--T": (("0.5", "1"), EDGE_FLOATS)},
    "cq-weights": {"--steps": (("0", "3"), EDGE_INTS), "--tau": (("1", "0.5"), EDGE_FLOATS)},
}
#: flags of several commands, each drawn only for the commands that read it
SHARED_FLAGS = {"--alpha": (("0.5", "1"), EDGE_FLOATS), "--theta": (("1", "2.5"), EDGE_FLOATS)}


@st.composite
def fuzzed_argv(draw):
    """A command whose flags are small valid values, except one or two edge values.

    One draw in four adds a flag the command does not read; the second item
    of the result says whether it did.
    """
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    reads = {SETTINGS[name].flag for name in COMMAND_SETTINGS[command]}
    flags = {flag: values for flag, values in {**FUZZ_FLAGS[command], **SHARED_FLAGS}.items()
             if flag in reads}
    edged = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv = [command]
    for flag, (valid, edges) in flags.items():
        argv.append("%s=%s" % (flag, draw(st.sampled_from(edges if flag in edged else valid))))
    if "problem" in COMMAND_SETTINGS[command]:
        argv.append("--problem=%s" % draw(st.sampled_from(PROBLEM_IDS)))
    unread = draw(st.integers(0, 3)) == 0
    if unread:
        name = draw(st.sampled_from([name for c, name in UNREAD if c == command]))
        argv.insert(draw(st.integers(1, len(argv))),
                    "%s=%s" % (SETTINGS[name].flag, SAMPLE_VALUES[name]))
    return argv, unread


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(fuzzed_argv())
    def test_edge_values_exit_with_documented_code(self, drawn):
        argv, unread = drawn
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in ((2,) if unread else (0, 2, 3, 4)), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 0:
            text = out.getvalue().lower()
            assert "nan" not in text and "inf" not in text, text


class TestGoldenOutput:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_output_matches_golden_bytes(self, name, tmp_path):
        path = tmp_path / (name + ".csv")
        assert main(GOLDEN_CASES[name].split() + ["--out", str(path)]) == 0
        assert path.read_bytes() == (GOLDEN_DIR / (name + ".csv")).read_bytes()


class TestRunConfig:
    def test_frozen(self):
        config = RunConfig(command="solve")
        with pytest.raises(Exception):
            config.n = 3
