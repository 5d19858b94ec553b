import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparse_risk import __version__
from sparse_risk.cli import COMMAND_FLAGS, OPTIONS, main, parse_config

ROOT = Path(__file__).resolve().parent.parent


def run_cli(args):
    return main(list(args))


# Besides --config, --seed and --solver, the flags each command reads, each
# with a value other than its default.
KEPT_FLAGS = {
    "setup": {
        "--setup": "III", "--reps": "7", "--n-list": "60,120", "--gamma-points": "9",
        "--threads": "2", "--out": "elsewhere", "--estimators": "scad,hard",
    },
    "sweep": {
        "--reps": "7", "--n-list": "20,40", "--gamma-points": "9", "--threads": "2",
        "--out": "elsewhere", "--estimators": "ls,bic", "--eta": "0,0,1,1,0,0,0,-1",
        "--theta0": "1,0,2", "--gamma-max": "4.5", "--scale": "pow4", "--rho": "-0.25",
        "--design-csv": "design.csv",
    },
    "hodges": {
        "--reps": "7", "--n-list": "100,400", "--n": "50", "--out": "elsewhere",
        "--mu-max": "2.5", "--mu-points": "11",
    },
    "oracle-check": {"--cases": "30"},
    "lower-bound": {
        "--reps": "7", "--n-list": "60,120", "--threads": "2", "--out": "elsewhere",
        "--s-scale": "-3", "--s-index": "5",
    },
}

# Flags some command reads, given to a command that does not read them.
UNREAD_FLAGS = [
    ("setup", "--rho", "0.9"),
    ("setup", "--scale", "unit"),
    ("sweep", "--setup", "I"),
    ("hodges", "--setup", "I"),
    ("hodges", "--gamma-points", "9"),
    ("hodges", "--threads", "4"),
    ("hodges", "--estimators", "bic"),
    ("oracle-check", "--setup", "I"),
    ("oracle-check", "--reps", "9"),
    ("oracle-check", "--n-list", "60"),
    ("oracle-check", "--gamma-points", "9"),
    ("oracle-check", "--threads", "4"),
    ("oracle-check", "--out", "zz"),
    ("oracle-check", "--estimators", "bic"),
    ("lower-bound", "--setup", "I"),
    ("lower-bound", "--gamma-points", "9"),
    ("lower-bound", "--estimators", "hard"),
]


def base_argv(command):
    return ["setup", "I"] if command == "setup" else [command]


class TestParseConfig:
    def test_setup_positional_and_flags(self):
        cfg = parse_config(["setup", "I", "--seed", "42"])
        assert cfg.command == "setup"
        assert cfg.setup_id == "I"
        assert cfg.seed == 42
        assert cfg.replications == 500
        assert cfg.threads == 1

    def test_setup_flag_form(self):
        cfg = parse_config(["setup", "--setup", "III"])
        assert cfg.setup_id == "III"

    def test_unknown_setup_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["setup", "VII"])
        assert exc.value.code == 2
        assert "unknown setup" in capsys.readouterr().err

    # a check across options reports for the command, as a flag's own check
    # (the last case) does
    @pytest.mark.parametrize("argv", [
        ["setup", "VII"],
        ["setup"],
        ["setup", "I", "--n-list", "8,60"],
        ["lower-bound", "--n-list", "60,8"],
        ["sweep", "--design-csv", "design.csv", "--rho", "0.1"],
        ["sweep", "--design-csv", "design.csv", "--n-list", "60"],
        ["sweep", "--eta", "1,2"],
        ["setup", "I", "--config", "missing.cfg"],
        ["setup", "I", "--reps", "0"],
    ])
    def test_usage_errors_name_the_command(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            parse_config(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: sparse-risk {argv[0]} ")
        assert f"\nsparse-risk {argv[0]}: error: " in err
        assert "\nsparse-risk: error: " not in err

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_help_names_each_value_after_its_flag(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            parse_config([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--config", "--seed", "--solver", *COMMAND_FLAGS[command][1]):
            assert f"{flag} {flag[2:].replace('-', '_').upper()}" in out
        for dest in ("REPLICATIONS", "SETUP_ID", "OUTPUT_DIR"):
            assert dest not in out

    def test_missing_setup_id(self):
        with pytest.raises(SystemExit):
            parse_config(["setup"])

    def test_nonpositive_reps_rejected(self):
        with pytest.raises(SystemExit):
            parse_config(["setup", "I", "--reps", "0"])

    def test_flag_overrides_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("reps = 100\nseed = 7\nn_list = 60,120\n")
        cfg = parse_config(
            ["setup", "I", "--config", str(cfg_file), "--reps", "2000"]
        )
        assert cfg.replications == 2000  # flag wins
        assert cfg.seed == 7  # file beats default
        assert cfg.n_list == (60, 120)

    def test_file_comments_and_spacing(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# comment\n\nsetup = VI  # inline\nthreads=3\n")
        cfg = parse_config(["setup", "--config", str(cfg_file)])
        assert cfg.setup_id == "VI"
        assert cfg.threads == 3

    def test_malformed_file_is_usage_error(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("this line has no equals\n")
        with pytest.raises(SystemExit) as exc:
            parse_config(["setup", "I", "--config", str(cfg_file)])
        assert exc.value.code == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("bogus = 1\n")
        with pytest.raises(SystemExit):
            parse_config(["setup", "I", "--config", str(cfg_file)])

    @pytest.mark.parametrize("key, value", [("solver", "newton"), ("scale", "cube")])
    def test_bad_file_choice_is_usage_error(self, tmp_path, capsys, key, value):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        with pytest.raises(SystemExit) as exc:
            parse_config(["sweep", "--config", str(cfg_file)])
        assert exc.value.code == 2
        assert f"unknown {key}" in capsys.readouterr().err
        # the same value given as a flag is a usage error too
        with pytest.raises(SystemExit) as exc:
            parse_config(["sweep", f"--{key}", value])
        assert exc.value.code == 2

    def test_env_var_fallback_for_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPARSE_RISK_OUT", str(tmp_path / "envout"))
        cfg = parse_config(["setup", "I"])
        assert cfg.output_dir == str(tmp_path / "envout")
        cfg = parse_config(["setup", "I", "--out", "explicit"])
        assert cfg.output_dir == "explicit"
        # the variable is only a fallback, even for the default's own name
        cfg = parse_config(["setup", "I", "--out", "out"])
        assert cfg.output_dir == "out"
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("out = out\n")
        cfg = parse_config(["setup", "I", "--config", str(cfg_file)])
        assert cfg.output_dir == "out"

    def test_estimator_names_validated(self):
        with pytest.raises(SystemExit):
            parse_config(["setup", "I", "--estimators", "scad,ridge"])

    def test_scad_cd_is_an_unknown_estimator(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["setup", "I", "--estimators", "scad_cd,ls"])
        assert exc.value.code == 2
        assert "unknown estimator 'scad_cd'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["sweep", "--estimators", "ls,ls"], "ls"),
        (["setup", "I", "--estimators", "hard,hard"], "hard"),
    ])
    def test_repeated_estimator_is_usage_error(self, tmp_path, monkeypatch, capsys, argv, name):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SPARSE_RISK_OUT", str(tmp_path / "out"))
        (tmp_path / "run.cfg").write_text(f"estimators = {name},{name}\n")
        for args in (argv, [*argv[:-2], "--config", "run.cfg"]):
            with pytest.raises(SystemExit) as exc:
                main(args)
            assert exc.value.code == 2
            assert f"estimator {name!r} is repeated" in capsys.readouterr().err
        # a usage error stops before the output directory is made
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("argv", [
        ["setup", "I", "--n-list", ","],
        ["setup", "I", "--n-list", "5"],
        ["setup", "I", "--n-list", "60,8"],
        ["lower-bound", "--n-list", "4"],
        ["sweep", "--n-list", "0"],
        ["hodges", "--n", "0"],
        ["hodges", "--n", ","],
    ])
    def test_bad_sample_sizes_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            parse_config(argv)
        assert exc.value.code == 2
        assert "sample" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["", "60,-1", "8"])
    def test_bad_file_sample_sizes_are_usage_errors(self, tmp_path, value):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"n_list = {value}\n")
        with pytest.raises(SystemExit) as exc:
            parse_config(["setup", "I", "--config", str(cfg_file)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, key, value, message", [
        (["setup", "I"], "seed", "-1", "--seed"),
        (["setup", "I"], "seed", str(2**64), "--seed"),
        (["setup", "I"], "estimators", ",", "estimator list is empty"),
        (["sweep"], "rho", "1.5", "--rho"),
        (["sweep"], "gamma_max", "-1", "--gamma-max"),
        (["sweep"], "gamma_max", "0", "--gamma-max"),
        (["hodges"], "mu_points", "0", "--mu-points"),
        (["hodges"], "mu_points", "1", "--mu-points"),
        (["oracle-check"], "cases", "0", "--cases"),
        (["lower-bound"], "s_scale", "nan", "--s-scale"),
        (["lower-bound"], "s_scale", "inf", "--s-scale"),
        (["hodges"], "mu_max", "nan", "--mu-max"),
        (["hodges"], "mu_max", "0", "--mu-max"),
        (["hodges"], "mu_max", "inf", "--mu-max"),
        (["sweep"], "eta", "0,nan,1", "--eta"),
        (["sweep"], "eta", "inf,0", "--eta"),
        (["sweep"], "theta0", "1,nan", "--theta0"),
        (["sweep"], "theta0", "-inf,1", "--theta0"),
        (["lower-bound"], "s_index", "0", "--s-index"),
        (["lower-bound"], "s_index", "9", "--s-index"),
        (["sweep"], "theta0", ",", "--theta0"),
    ])
    def test_bad_values_are_usage_errors(self, tmp_path, capsys, command, key, value, message):
        flag = "--" + key.replace("_", "-")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        for argv in ([*command, f"{flag}={value}"], [*command, "--config", str(cfg_file)]):
            with pytest.raises(SystemExit) as exc:
                parse_config(argv)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in KEPT_FLAGS.items()
        for flag in ("--seed", *flags)
    ])
    def test_config_key_parses_like_its_flag(self, tmp_path, monkeypatch, command, flag):
        monkeypatch.delenv("SPARSE_RISK_OUT", raising=False)
        value = KEPT_FLAGS[command].get(flag, "42")
        argv = ["setup"] if flag == "--setup" else base_argv(command)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{flag[2:].replace('-', '_')} = {value}\n")
        from_flag = parse_config([*argv, flag, value])
        from_file = parse_config([*argv, "--config", str(cfg_file)])
        assert from_file == from_flag != parse_config(base_argv(command))

    @pytest.mark.parametrize("command, flag, value", UNREAD_FLAGS)
    def test_flag_the_command_does_not_read_is_usage_error(
        self, tmp_path, monkeypatch, capsys, command, flag, value
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SPARSE_RISK_OUT", str(tmp_path / "out"))
        (tmp_path / "run.cfg").write_text(f"{flag[2:].replace('-', '_')} = {value}\n")
        for argv in ([flag, value], ["--config", "run.cfg"]):
            with pytest.raises(SystemExit) as exc:
                main([*base_argv(command), *argv])
            assert exc.value.code == 2
            assert "unrecognized arguments: " + flag in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_config_key_is_no_abbreviation(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("rep = 5\n")
        for argv in (["--config", str(cfg_file)], ["--rep", "5"]):
            with pytest.raises(SystemExit) as exc:
                parse_config(["setup", "I", *argv])
            assert exc.value.code == 2
            assert "unrecognized arguments: --rep" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["config", "gamma-max"])
    def test_key_that_names_no_file_setting_is_usage_error(self, tmp_path, capsys, key):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = 4\n")
        with pytest.raises(SystemExit) as exc:
            parse_config(["sweep", "--config", str(cfg_file)])
        assert exc.value.code == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--eta", "0,1"],
        ["--theta0", "1,0,2", "--eta", "0,0,1,1"],
    ])
    def test_sweep_eta_and_theta0_lengths_must_agree(self, tmp_path, capsys, args):
        out = tmp_path / "mm"
        with pytest.raises(SystemExit) as exc:
            run_cli(["sweep", *args, "--out", str(out)])
        assert exc.value.code == 2
        assert "--eta has" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--n-list", "60,960"), ("--rho", "0.9")])
    def test_sweep_design_csv_takes_no_n_or_rho(
        self, tmp_path, monkeypatch, capsys, flag, value
    ):
        # the CSV's rows are the design, so n and rho would be ignored
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(0)
        np.savetxt("design.csv", rng.standard_normal((12, 8)), delimiter=",")
        Path("flag.cfg").write_text(f"{flag[2:].replace('-', '_')} = {value}\n")
        Path("csv.cfg").write_text("design_csv = design.csv\n")
        csv = ["--design-csv", "design.csv"]
        for argv in ([*csv, flag, value], [*csv, "--config", "flag.cfg"],
                     ["--config", "csv.cfg", flag, value]):
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--reps", "5", "--gamma-points", "2", "--out", "out", *argv])
            assert exc.value.code == 2
            assert f"{flag} does not apply with --design-csv" in capsys.readouterr().err
        assert not Path("out").exists()

    def test_hodges_takes_n_or_n_list_not_both(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n = 100\n")
        for argv in (["--n", "100", "--n-list", "200"], ["--n-list", "200", "--n", "100"],
                     ["--config", str(cfg_file), "--n-list", "200"]):
            with pytest.raises(SystemExit) as exc:
                parse_config(["hodges", *argv])
            assert exc.value.code == 2
            assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_help_exits_cleanly(self, capsys, command):
        # oracle-check takes neither --n nor --n-list, and an empty group of
        # the two once crashed argparse's usage formatter
        with pytest.raises(SystemExit) as exc:
            parse_config([command, "--help"])
        assert exc.value.code == 0
        assert f"usage: sparse-risk {command}" in capsys.readouterr().out

    def test_smallest_valid_sample_sizes_accepted(self):
        assert parse_config(["setup", "I", "--n-list", "9"]).n_list == (9,)
        assert parse_config(["lower-bound", "--n-list", "9"]).n_list == (9,)
        assert parse_config(["sweep", "--n-list", "1"]).n_list == (1,)
        assert parse_config(["hodges", "--n", "1"]).n_list == (1,)

    def test_hodges_defaults(self):
        cfg = parse_config(["hodges", "--n", "100,10000"])
        assert cfg.command == "hodges"
        assert cfg.n_list == (100, 10000)


class TestExecuteSetup:
    ARGS = [
        "setup", "I", "--seed", "5", "--reps", "12", "--n-list", "60",
        "--gamma-points", "3",
    ]

    def test_writes_report_and_figures(self, tmp_path, capsys):
        code = run_cli(self.ARGS + ["--out", str(tmp_path)])
        assert code == 0
        report = tmp_path / "setup_I_report.csv"
        assert report.exists()
        assert (tmp_path / "fig1_left.csv").exists()
        assert (tmp_path / "fig1_right.csv").exists()
        head = report.read_text().splitlines()[0]
        assert "master_seed=5" in head and "replications=12" in head
        out = capsys.readouterr().out
        assert "worst-case summary" in out
        assert "n=60" in out

    def test_figures_hold_only_the_scad_rows(self, tmp_path):
        # a figure file has no estimator column, so extra estimators add no rows
        plain, extra = tmp_path / "plain", tmp_path / "extra"
        assert run_cli(self.ARGS + ["--out", str(plain)]) == 0
        assert run_cli(self.ARGS + ["--estimators", "hard,zero", "--out", str(extra)]) == 0
        for name in ("fig1_left.csv", "fig1_right.csv"):
            assert len((extra / name).read_text().splitlines()) == 2 + 3  # one row per gamma
            assert (extra / name).read_bytes() == (plain / name).read_bytes()

    def test_solver_flag_changes_no_output(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("solver = cd\n")
        outs = []
        for name, extra in (
            ("none", []), ("lqa", ["--solver", "lqa"]), ("cd", ["--solver", "cd"]),
            ("file", ["--config", str(cfg_file)]),
            ("both", ["--config", str(cfg_file), "--solver", "lqa"]),
        ):
            directory = tmp_path / name
            assert run_cli(self.ARGS + extra + ["--out", str(directory)]) == 0
            outs.append({p.name: p.read_bytes() for p in sorted(directory.iterdir())})
            warning = "warning: --solver is deprecated and ignored"
            assert capsys.readouterr().err.count(warning) == int(name != "none")
        assert outs[0] and all(out == outs[0] for out in outs[1:])

    @pytest.mark.parametrize("command", ["setup", "sweep", "lower-bound"])
    def test_byte_identical_across_threads(self, tmp_path, capsys, command):
        args = {
            "setup": self.ARGS,
            "sweep": ["sweep", "--seed", "5", "--reps", "12", "--n-list", "40,60",
                      "--gamma-points", "3", "--estimators", "scad,ls,hard,bic"],
            "lower-bound": ["lower-bound", "--seed", "5", "--reps", "12",
                            "--n-list", "40,60,120"],
        }[command]
        outs = []
        for name, threads in (("a", "1"), ("b", "2")):
            directory = tmp_path / name
            code = run_cli(args + ["--out", str(directory), "--threads", threads])
            assert code == 0
            outs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(directory.iterdir())
                }
            )
            outs.append(capsys.readouterr().out.replace(str(directory), "<out>"))
        assert outs[0] == outs[2]
        assert outs[1] == outs[3]

    def test_setup_without_figure_mapping(self, tmp_path):
        code = run_cli(
            ["setup", "II", "--seed", "5", "--reps", "8", "--n-list", "60",
             "--gamma-points", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "setup_II_report.csv").exists()
        assert not list(tmp_path.glob("fig*"))

    def test_unwritable_output_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = run_cli(self.ARGS + ["--out", str(blocker)])
        assert code == 1
        assert "not writable" in capsys.readouterr().err


class TestExecuteOthers:
    def test_hodges_command(self, tmp_path, capsys):
        code = run_cli(
            ["hodges", "--n", "100,400", "--reps", "400", "--mu-points", "21",
             "--seed", "3", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "hodges_risk.csv").read_text().splitlines()
        assert lines[1] == "n,mu,value"
        assert len(lines) == 2 + 2 * 21
        for line in lines[2:]:
            n, mu, value = (float(field) for field in line.split(","))
            assert n in (100, 400) and -1.0 <= mu <= 1.0 and value >= 0.0
        out = capsys.readouterr().out
        assert out.count("max n*MSE") == 2

    def test_oracle_check_command(self, capsys):
        code = run_cli(["oracle-check", "--cases", "30", "--seed", "9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle check passed" in out

    def test_lower_bound_command(self, tmp_path, capsys):
        code = run_cli(
            ["lower-bound", "--n-list", "60", "--reps", "30", "--seed", "4",
             "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "lower_bound.csv").read_text().splitlines()
        assert lines[1] == "n,p_hat,bound,scaled_risk"
        assert "p_hat" in capsys.readouterr().out

    def test_sweep_with_fixed_design_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        design = rng.standard_normal((40, 3))
        csv_path = tmp_path / "design.csv"
        np.savetxt(csv_path, design, delimiter=",")
        code = run_cli(
            ["sweep", "--design-csv", str(csv_path), "--theta0", "1,0,2",
             "--eta", "0,1,0", "--gamma-max", "4", "--gamma-points", "3",
             "--reps", "10", "--seed", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        report = (tmp_path / "sweep_report.csv").read_text().splitlines()
        assert len(report) == 2 + 3 * 2  # 3 gamma cells x {scad, ls}
        assert all(line.split(",")[1] == "40" for line in report[2:])

    @pytest.mark.parametrize("args", [
        ["--n-list", "5"],
        ["--n-list", "60,5", "--threads", "2"],
        ["--n-list", "8", "--estimators", "hard,ls"],
    ])
    def test_sweep_sample_size_at_most_k_is_an_error(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        code = run_cli(
            ["sweep", "--reps", "5", "--gamma-points", "2", "--out", str(out), *args]
        )
        assert code == 1
        assert "sample size above k = 8" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sweep_gaussian_sample_size_below_k_is_an_error(self, tmp_path, capsys, threads):
        # no estimator here needs n > k, but the Gaussian draw needs n >= k
        out = tmp_path / "out"
        code = run_cli(
            ["sweep", "--reps", "5", "--gamma-points", "2", "--n-list", "60,5",
             "--estimators", "ls,bic", "--threads", threads, "--out", str(out)]
        )
        assert code == 1
        assert "need every sample size at least k = 8" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sweep_bic_above_20_coefficients_is_an_error(self, tmp_path, capsys, threads):
        out = tmp_path / "out"
        code = run_cli(
            ["sweep", "--theta0", ",".join(["1"] * 21), "--reps", "5",
             "--gamma-points", "2", "--n-list", "60", "--estimators", "ls,bic",
             "--threads", threads, "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: bic needs at most 20 coefficients, got k = 21" in err
        assert "Traceback" not in err
        assert not list(out.iterdir())

    def test_sweep_square_design_csv_is_an_error(self, tmp_path, capsys):
        csv_path = tmp_path / "design.csv"
        np.savetxt(csv_path, np.random.default_rng(1).standard_normal((8, 8)),
                   delimiter=",")
        code = run_cli(
            ["sweep", "--design-csv", str(csv_path), "--reps", "5",
             "--gamma-points", "2", "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "sample size above k = 8" in capsys.readouterr().err

    def test_sweep_design_csv_without_full_rank_is_an_error(self, tmp_path, capsys):
        csv_path = tmp_path / "design.csv"
        np.savetxt(csv_path, np.ones((20, 3)), delimiter=",")
        code = run_cli(
            ["sweep", "--design-csv", str(csv_path), "--theta0", "1,0,2",
             "--reps", "5", "--gamma-points", "2", "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "full column rank" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "1,2,x\n3,4,5\n"])
    def test_sweep_unreadable_design_csv_is_an_error(self, tmp_path, capsys, content):
        csv_path = tmp_path / "design.csv"
        if content is not None:
            csv_path.write_text(content)
        code = run_cli(
            ["sweep", "--design-csv", str(csv_path), "--theta0", "1,0,2",
             "--reps", "5", "--gamma-points", "2", "--out", str(tmp_path / "out")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: cannot read design CSV {csv_path}: " in err
        assert "Traceback" not in err

    def test_sweep_gaussian_custom_direction(self, tmp_path):
        code = run_cli(
            ["sweep", "--eta", "0,0,1,1,0,0,0,0", "--n-list", "60",
             "--gamma-points", "2", "--gamma-max", "8", "--reps", "8",
             "--seed", "2", "--out", str(tmp_path), "--estimators", "scad,ls,hard"]
        )
        assert code == 0
        text = (tmp_path / "sweep_report.csv").read_text()
        assert "hard" in text


def test_readme_command_lines_parse(monkeypatch):
    # every documented invocation still names only flags its command takes
    monkeypatch.delenv("SPARSE_RISK_OUT", raising=False)
    text = (ROOT / "README.md").read_text(encoding="utf8").replace("\\\n", " ")
    lines = re.findall(r"^sparse-risk (.+)$", text, flags=re.MULTILINE)
    commands = {parse_config(shlex.split(line)).command for line in lines}
    assert commands == set(KEPT_FLAGS)


def readme_table(header):
    """The cells of each row of the README table whose header row is ``header``."""
    text = (ROOT / "README.md").read_text(encoding="utf8")
    block = text.split(header + "\n", 1)[1].split("\n\n", 1)[0]
    rows = block.splitlines()[1:]  # past the |---| rule
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


def test_readme_command_table_matches_the_parser(monkeypatch):
    # the per-command table names each command's flags and default sample sizes
    monkeypatch.delenv("SPARSE_RISK_OUT", raising=False)
    rows = readme_table("| command | flags | default sample sizes |")
    documented = {re.match(r"`([\w-]+)", cells[0]).group(1): cells for cells in rows}
    assert documented.keys() == COMMAND_FLAGS.keys()
    for command, (_, flags, n_list) in COMMAND_FLAGS.items():
        _, flag_cell, sizes_cell = documented[command]
        assert sorted(re.findall(r"`(--[\w-]+)`", flag_cell)) == sorted(flags)
        sizes = tuple(int(n) for n in sizes_cell.split(",")) if sizes_cell else None
        assert sizes == n_list == parse_config(base_argv(command)).n_list


def test_bare_commands_parse_to_the_documented_defaults(monkeypatch):
    # a flag's default is its OPTIONS entry's; a code-formatted default in the
    # README is read by the flag's own type
    monkeypatch.delenv("SPARSE_RISK_OUT", raising=False)
    rows = readme_table("| flag | value | default |")
    flags = [re.fullmatch(r"`(--[\w-]+)`", cells[0]).group(1) for cells in rows]
    assert sorted(flags) == sorted(OPTIONS)
    defaults = {}
    for flag, (_, _, default) in zip(flags, rows):
        if default.startswith("`"):
            defaults[flag] = OPTIONS[flag].get("type", str)(default.strip("`"))
    assert defaults == {
        "--seed": 20070301, "--reps": 500, "--threads": 1, "--cases": 1000,
        "--gamma-points": 101, "--mu-points": 81, "--gamma-max": 8.0, "--mu-max": 1.0,
        "--theta0": (3.0, 1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0), "--rho": 0.5,
        "--s-scale": 5.0, "--s-index": 3, "--scale": "log_ratio",
        "--estimators": ("scad", "ls"), "--out": "out",
    }
    checked = set()
    for command, (_, command_flags, _) in COMMAND_FLAGS.items():
        ns = parse_config(base_argv(command))
        for flag in set(defaults) & {"--seed", *command_flags}:
            dest = OPTIONS[flag].get("dest", flag[2:].replace("-", "_"))
            assert getattr(ns, dest) == defaults[flag], (command, flag)
            checked.add(flag)
    assert checked == set(defaults)


@pytest.mark.parametrize("command, flag, bad, good", [
    (["setup", "I"], "--reps", "0", "5"),
    (["sweep"], "--scale", "cube", "unit"),
    (["sweep"], "--eta", "0,nan", "0,1"),
    (["hodges"], "--n", "0", "100"),
    (["lower-bound"], "--s-index", "9", "2"),
])
def test_overridden_invalid_value_is_usage_error(tmp_path, capsys, command, flag, bad, good):
    # a rejected value fails wherever it appears, even where a later one wins
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{flag[2:].replace('-', '_')} = {bad}\n")
    for argv in ([*command, "--config", str(cfg_file), flag, good],
                 [*command, flag, bad, flag, good]):
        with pytest.raises(SystemExit) as exc:
            parse_config(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_sweep_non_finite_design_csv_is_an_error(tmp_path, capsys, value):
    csv_path = tmp_path / "design.csv"
    rows = np.random.default_rng(2).standard_normal((20, 3)).astype(str)
    rows[4, 1] = value
    csv_path.write_text("".join(",".join(row) + "\n" for row in rows))
    code = run_cli(
        ["sweep", "--design-csv", str(csv_path), "--theta0", "1,0,2",
         "--reps", "5", "--gamma-points", "2", "--out", str(tmp_path / "out")]
    )
    assert code == 1
    assert "error: fixed design must hold finite values" in capsys.readouterr().err


def test_readme_quick_start_runs(capsys):
    # the library example runs as written, so it cannot name a removed API
    text = (ROOT / "README.md").read_text(encoding="utf8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
    # one worst-case line per sample size of its run_setup call
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_module_entry_point_runs_from_a_checkout():
    # python -m sparse_risk, with the package found on PYTHONPATH, not installed
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPARSE_RISK_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "sparse_risk", "--version"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == __version__
