import os

import numpy as np
import pytest

from sparse_risk.cli import main, parse_config


def run_cli(args):
    return main(list(args))


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

    def test_estimator_names_validated(self):
        with pytest.raises(SystemExit):
            parse_config(["setup", "I", "--estimators", "scad,ridge"])

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

    def test_sweep_gaussian_custom_direction(self, tmp_path):
        code = run_cli(
            ["sweep", "--eta", "0,0,1,1,0,0,0,0", "--n-list", "60",
             "--gamma-points", "2", "--gamma-max", "8", "--reps", "8",
             "--seed", "2", "--out", str(tmp_path), "--estimators", "scad,ls,hard"]
        )
        assert code == 0
        text = (tmp_path / "sweep_report.csv").read_text()
        assert "hard" in text
