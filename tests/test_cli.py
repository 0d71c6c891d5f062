import hashlib
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ifpt
from ifpt import cli

# golden hashes for the two small benchmark configs below; regenerate by
# running the CLI and hashing boundary.csv if the RNG stream or a survival
# formula ever changes
GOLDEN_A_SHA = "8f43267267e6afd131f9e7dce3f567dff6f9b8206e78245341dfe1cd0ad154a4"
GOLDEN_A_ROW1 = "0.03125,inf,0.99999998458274209,1"
GOLDEN_B_SHA = "0d3f32f22a7d2d8e42a836d39fdf268570e0611d80080cd6b4b2a82c91f32727"
# fpt.txt of a verify run on config B (Poisson counts and the fixed-curve
# kill) and boundary.csv of config OU (Euler substeps, reflection)
GOLDEN_B_FPT_SHA = "de3cca2172e58bd9562ba5aef05aa362b0a628f4fc41fdf07a5cfe72739c05ce"
GOLDEN_OU_SHA = "a7aeab51cfdec69a2d056f4695bb22dbd9b20f1de3039534972b2a864b7d242a"
# boundary.csv of config A to a Weibull-1.5 target, whose survival takes its
# power and exp from libm
GOLDEN_WEIBULL_SHA = "5f8edd4d4b5702f3292c6e1ac816c473dd53d828547643341c56f0367bb454dc"
# boundary.csv of config A from a normal initial law (N(0, 0.1^2), positions by
# inverse normal CDF) to an exponential target
GOLDEN_NORMAL_SHA = "74eba824e2df9afaf742064498ec2b5e7934c0d50b1277322b5032bd0923f7cd"
# boundary.csv of config LEVY_ATOMS: a nonzero a, two atoms components whose
# sums cover all three jump constants, a two-component jump mixture, the
# Poisson table and the Euler part
GOLDEN_LEVY_ATOMS_SHA = "42efeaeaa1b9bb976f720d0edd8396085f778f5046788eb7faf022ceafd72bad"

CONFIG_A = {
    "process": {"kind": "brownian", "mu": 0.0, "vol": 1.0},
    "initial": {"kind": "point", "x": 0.0},
    "target": {"kind": "levy_hitting", "c": 1.0},
    "grid": {"t_start": 0.03125, "dt": 0.03125, "steps": 32},
    "particles": 2000,
    "seed": 7,
}

CONFIG_B = {
    "process": {
        "kind": "levy",
        "a": 0.0,
        "sigma2": 0.25,
        "measure": [{"type": "atoms", "atoms": [[1.0, 2.0], [-0.5, 1.0]]}],
        "eta": 0.01,
        "small_jump_mode": "gaussian",
    },
    "initial": {"kind": "point", "x": 0.0},
    "target": {"kind": "exponential", "rate": 1.0},
    "grid": {"t_start": 0.0625, "dt": 0.0625, "steps": 16},
    "particles": 1000,
    "seed": 3,
}

CONFIG_LEVY_ATOMS = {
    "process": {
        "kind": "levy",
        "a": 0.1,
        "sigma2": 0.25,
        "measure": [
            {"type": "atoms", "atoms": [[1.0, 2.0], [-0.5, 1.0]]},
            {"type": "atoms", "atoms": [[0.005, 3.0], [0.3, 1.5], [-0.02, 4.0]]},
        ],
        "eta": 0.01,
        "small_jump_mode": "gaussian",
    },
    "initial": {"kind": "uniform", "a": -0.1, "b": 0.1},
    "target": {"kind": "exponential", "rate": 1.0},
    "grid": {"t_start": 0.03125, "dt": 0.03125, "steps": 64},
    "particles": 2000,
    "seed": 29,
}

CONFIG_OU = {
    "process": {
        "kind": "diffusion",
        "beta": {"name": "ou", "theta": 1.0},
        "sigma": {"name": "constant", "value": 1.0},
        "L": 0.0,
        "R": None,
        "lower_boundary_behavior": "reflecting",
        "dt_substeps": 4,
    },
    "initial": {"kind": "uniform", "a": 0.5, "b": 1.5},
    "target": {"kind": "exponential", "rate": 2.0},
    "grid": {"t_start": 0.03125, "dt": 0.03125, "steps": 64},
    "particles": 1500,
    "seed": 9,
}


def mixture_of_exponentials(*weights):
    return {
        "kind": "mixture",
        "components": [{"weight": w, "target": {"kind": "exponential", "rate": 1.0 + i}} for i, w in enumerate(weights)],
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def run_calibrate(tmp_path, cfg, sub="out", extra=()):
    cfg_path = write_config(tmp_path, cfg, f"{sub}.json")
    out = tmp_path / sub
    rc = cli.main(["calibrate", "-c", cfg_path, "-o", str(out), *extra])
    return rc, out


class TestCalibrateCommand:
    def test_golden_bytes_config_a(self, tmp_path):
        rc, out = run_calibrate(tmp_path, CONFIG_A)
        assert rc == 0
        data = (out / "boundary.csv").read_bytes()
        lines = data.decode().splitlines()
        assert lines[0] == "t,b,S_target,S_achieved"
        assert lines[1] == GOLDEN_A_ROW1
        assert hashlib.sha256(data).hexdigest() == GOLDEN_A_SHA
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 7
        assert report["boundary"]["grid"]["steps"] == 32

    def test_golden_bytes_config_b(self, tmp_path):
        rc, out = run_calibrate(tmp_path, CONFIG_B)
        assert rc == 0
        data = (out / "boundary.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_B_SHA

    def test_golden_bytes_config_levy_atoms(self, tmp_path):
        rc, out = run_calibrate(tmp_path, CONFIG_LEVY_ATOMS)
        assert rc == 0
        data = (out / "boundary.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_LEVY_ATOMS_SHA

    def test_golden_bytes_config_ou(self, tmp_path):
        rc, out = run_calibrate(tmp_path, CONFIG_OU)
        assert rc == 0
        data = (out / "boundary.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_OU_SHA

    def test_golden_bytes_config_weibull(self, tmp_path):
        rc, out = run_calibrate(tmp_path, dict(CONFIG_A, target={"kind": "weibull", "shape": 1.5, "scale": 1.0}))
        assert rc == 0
        data = (out / "boundary.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_WEIBULL_SHA

    def test_golden_bytes_config_normal(self, tmp_path):
        cfg = dict(
            CONFIG_A,
            initial={"kind": "normal", "mean": 0.0, "std": 0.1},
            target={"kind": "exponential", "rate": 1.0},
        )
        rc, out = run_calibrate(tmp_path, cfg)
        assert rc == 0
        data = (out / "boundary.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_NORMAL_SHA

    def test_threads_do_not_change_bytes(self, tmp_path):
        _, out1 = run_calibrate(tmp_path, CONFIG_A, "one", extra=("--threads", "1"))
        _, out2 = run_calibrate(tmp_path, CONFIG_A, "four", extra=("--threads", "4"))
        assert (out1 / "boundary.csv").read_bytes() == (out2 / "boundary.csv").read_bytes()

    def test_seed_override_changes_bytes(self, tmp_path):
        _, out1 = run_calibrate(tmp_path, CONFIG_A, "base")
        cfg_path = write_config(tmp_path, CONFIG_A, "override.json")
        out2 = tmp_path / "override"
        rc = cli.main(["calibrate", "-c", cfg_path, "-o", str(out2), "--seed", "8"])
        assert rc == 0
        assert (out1 / "boundary.csv").read_bytes() != (out2 / "boundary.csv").read_bytes()

    def test_missing_target_is_config_error(self, tmp_path, capsys):
        cfg = {k: v for k, v in CONFIG_A.items() if k != "target"}
        rc, _ = run_calibrate(tmp_path, cfg)
        assert rc == 2
        assert "target" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = dict(CONFIG_A, typo_section=1)
        rc, _ = run_calibrate(tmp_path, cfg)
        assert rc == 2
        assert "typo_section" in capsys.readouterr().err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        rc = cli.main(["calibrate", "-c", str(path), "-o", str(tmp_path)])
        assert rc == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, problem",
        [
            # each used to exit 3 with "runtime error: ..."
            (b'{"seed": 1, "x": "\xff"}', "config error: cannot read config: 'utf-8' codec can't decode byte 0xff"),
            (b"[" * 100_000 + b"]" * 100_000, "config error: document nested too deeply"),
        ],
        ids=["not-utf-8", "nested-too-deeply"],
    )
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content, problem):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        rc = cli.main(["calibrate", "-c", str(path), "-o", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(problem) and err.count("\n") == 1

    @pytest.mark.parametrize(
        "target, path, problem",
        [
            # P(xi = 0) = 0.4, which calibrated and exited 0 when unchecked
            (mixture_of_exponentials(0.3, 0.3), "target", "sum of weights is 0.6, not 1"),
            (mixture_of_exponentials(0.6, 0.6), "target", "sum of weights is 1.2, not 1"),
            ({"kind": "weibull", "shape": -1.0, "scale": 1.0}, "target", "shape must be > 0"),
            ({"kind": "mixture", "components": []}, "target.components", "nonempty list"),
            ({"kind": "exponential", "rate": -1.0}, "target", "rate must be >= 0"),
            # survival 1.0001 e^-t - 0.0001 e^-0.9t stays in [0, 1] up to
            # t = 92.2, so a probe of the law passed it and the run exited 3
            (
                {
                    "kind": "mixture",
                    "components": [
                        {"weight": 1.0001, "target": {"kind": "exponential", "rate": 1.0}},
                        {"weight": -0.0001, "target": {"kind": "exponential", "rate": 0.9}},
                    ],
                },
                "target",
                "weights must be >= 0",
            ),
            # -2 gamma c overflows, and the survival was NaN
            ({"kind": "inverse_gaussian_hitting", "c": 1e200, "gamma": -1e200}, "target", "overflow"),
            ({"kind": "inverse_gaussian_hitting", "c": 1e154, "gamma": -1e154}, "target", "overflow"),
        ],
    )
    def test_invalid_target_law_is_config_error(self, tmp_path, capsys, target, path, problem):
        # the grid runs past t = 92.2, where the last law's survival turns negative
        grid = {"t_start": 1.0, "dt": 1.0, "steps": 120}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, _ = run_calibrate(tmp_path, dict(CONFIG_A, target=target, grid=grid))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and problem in err

    @pytest.mark.parametrize("vol", [math.nan, math.inf])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, vol):
        # json reads the literals NaN and Infinity; a NaN vol used to reach
        # the stepper and exit 3
        rc, _ = run_calibrate(tmp_path, dict(CONFIG_A, process={"kind": "brownian", "mu": 0.0, "vol": vol}))
        assert rc == 2
        assert "config error: process.vol: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "eta, alpha, intensity",
        [
            (0.01, 1.5, 1e307),  # the rate is inf, and the Poisson table search overflowed
            (1e-300, 1.9, 1.0),  # eta ** -alpha overflows a double
            # finite rates whose jump-count table per step would pass MAX_SIZE
            # entries: they exited 3 in the first step, the second after numpy
            # asked for 512 PiB
            (0.01, 1.5, 1e290),
            (0.01, 1.5, 1e15),
        ],
    )
    def test_levy_rate_overflow_is_config_error(self, tmp_path, capsys, monkeypatch, eta, alpha, intensity):
        # the first two ended in an OverflowError traceback and exit 1
        monkeypatch.setattr(cli, "calibrate", lambda *a: pytest.fail("calibrated before checking the rate"))
        measure = [{"type": "stable", "side": "+", "alpha": alpha, "intensity": intensity}]
        process = dict(CONFIG_B["process"], measure=measure, eta=eta)
        rc, _ = run_calibrate(tmp_path, dict(CONFIG_B, process=process))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: process: ") and err.count("\n") == 1

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("intensity", [1e290, 1e15])
    def test_compare_levy_rate_overflow_is_config_error(self, tmp_path, capsys, monkeypatch, side, intensity):
        # a compare side's jump-count table per step would pass MAX_SIZE
        # entries; it used to reach calibrate and exit 3
        monkeypatch.setattr(cli, "calibrate", lambda *a: pytest.fail("calibrated before checking the rate"))
        measure = [{"type": "stable", "side": "+", "alpha": 1.5, "intensity": intensity}]
        levy = dict(CONFIG_B["process"], measure=measure, eta=0.01)
        cfg = TestCompareCommand()._cfg(2.0, 1.0)
        cfg["compare"][side]["process"] = levy
        rc = cli.main(["compare", "-c", write_config(tmp_path, cfg), "-o", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: compare.{side}.process: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", [5, None])
    def test_non_string_output_is_config_error(self, tmp_path, capsys, value):
        # it used to calibrate, then fail in os.path with a TypeError traceback
        rc, out = run_calibrate(tmp_path, dict(CONFIG_A, output={"report": value}))
        assert rc == 2
        assert "config error: output.report: " in capsys.readouterr().err
        assert not (out / "boundary.csv").exists()

    @pytest.mark.parametrize(
        "name, problem",
        [
            ("", "empty path"),
            ("taken", "is a directory"),
            # a parent that is a regular file: unlike chmod, this stops root too
            ("plain.txt/report.json", "cannot create directory"),
        ],
    )
    def test_unwritable_output_exits_2_before_work(self, tmp_path, capsys, monkeypatch, name, problem):
        # each used to run the whole calibration, then exit 1 with an OSError traceback
        (tmp_path / "out" / "taken").mkdir(parents=True)
        (tmp_path / "out" / "plain.txt").write_text("")
        monkeypatch.setattr(cli, "calibrate", lambda *a: pytest.fail("calibrated before checking outputs"))
        rc, out = run_calibrate(tmp_path, dict(CONFIG_A, output={"report": name}))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output.report: ") and problem in err
        assert not (out / "boundary.csv").exists()

    @pytest.mark.parametrize("report", ["same", "sub/../same"])
    def test_two_outputs_naming_one_file_exit_2_before_work(self, tmp_path, capsys, monkeypatch, report):
        # the report used to overwrite the boundary CSV, and the run exited 0
        monkeypatch.setattr(cli, "calibrate", lambda *a: pytest.fail("calibrated before checking outputs"))
        rc, out = run_calibrate(tmp_path, dict(CONFIG_A, output={"boundary_csv": "same", "report": report}))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output.report: ") and "is also output.boundary_csv" in err
        assert not (out / "same").exists()

    def test_clashing_outputs_create_no_directory(self, tmp_path, capsys):
        # the output directories used to be made before the clash was found
        rc, out = run_calibrate(tmp_path, dict(CONFIG_A, output={"boundary_csv": "a/b/same", "report": "a/b/same"}))
        assert rc == 2
        assert "is also output.boundary_csv" in capsys.readouterr().err
        assert not (out / "a").exists()

    def test_report_has_survival_gap_within_one_particle(self, tmp_path):
        rc, out = run_calibrate(tmp_path, CONFIG_A)
        assert rc == 0
        gap = json.loads((out / "report.json").read_text())["boundary"]["diagnostics"]["survival_gap_max"]
        rows = np.loadtxt(out / "boundary.csv", delimiter=",", skiprows=1)
        assert gap == float(np.max(np.abs(rows[:, 3] - rows[:, 2])))
        assert 0 < gap <= 1 / CONFIG_A["particles"]

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "x"])
    def test_seed_option_out_of_range_exits_2(self, tmp_path, capsys, seed):
        # --seed -1 used to be reduced mod 2**64 and run as 2**64 - 1
        with pytest.raises(SystemExit) as exc:
            run_calibrate(tmp_path, CONFIG_A, extra=("--seed", seed))
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-4", "x"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, threads):
        # 0 and -4 used to be accepted and echoed into the report
        with pytest.raises(SystemExit) as exc:
            run_calibrate(tmp_path, CONFIG_A, extra=("--threads", threads))
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_state_space_violation_is_runtime_error(self, tmp_path, capsys):
        # a normal law's support is the whole line, so only its samples can
        # leave (L, R); the initial sampler's check finds them
        cfg = dict(
            CONFIG_A,
            process={"kind": "diffusion", "beta": {"name": "constant", "value": 0.0},
                     "sigma": {"name": "constant", "value": 1.0}, "L": 0.0, "R": 1.0},
            initial={"kind": "normal", "mean": 5.0, "std": 0.1},
        )
        rc, _ = run_calibrate(tmp_path, cfg)
        assert rc == 3

    @pytest.mark.parametrize(
        "initial",
        [
            {"kind": "point", "x": 0.5},  # exited 3 in the initial sampler
            {"kind": "point", "x": 2.0},  # L and R are outside the open interval
            {"kind": "point", "x": 4.0},
            {"kind": "uniform", "a": 1.5, "b": 3.0},
            {"kind": "uniform", "a": 3.0, "b": 4.5},
            {"kind": "empirical", "path": "x0.txt"},
        ],
    )
    def test_initial_law_outside_the_state_space_exits_2_before_work(self, tmp_path, capsys, monkeypatch, initial):
        monkeypatch.setattr(cli, "calibrate", lambda *a: pytest.fail("calibrated before checking the initial law"))
        (tmp_path / "x0.txt").write_text("2.5\n1.0\n3.0\n")
        cfg = dict(CONFIG_OU, process=dict(CONFIG_OU["process"], L=2.0, R=4.0), initial=initial)
        rc, _ = run_calibrate(tmp_path, cfg)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: initial: ") and err.count("\n") == 1


class TestVerifyCommand:
    def _verify_cfg(self, csv_name, tolerance, seed=123, samples=20_000):
        cfg = {k: CONFIG_A[k] for k in ("process", "initial", "target", "grid")}
        cfg["verify"] = {
            "boundary_csv": csv_name,
            "samples": samples,
            "seed": seed,
            "tolerance": tolerance,
        }
        return cfg

    def test_round_trip_passes(self, tmp_path):
        _, out = run_calibrate(tmp_path, CONFIG_A)
        cfg = self._verify_cfg(str(out / "boundary.csv"), tolerance=0.05)
        rc = cli.main(["verify", "-c", write_config(tmp_path, cfg, "v.json"), "-o", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] and report["ks_statistic"] <= 0.05

    def test_impossible_tolerance_fails(self, tmp_path):
        _, out = run_calibrate(tmp_path, CONFIG_A)
        cfg = self._verify_cfg(str(out / "boundary.csv"), tolerance=1e-6)
        rc = cli.main(["verify", "-c", write_config(tmp_path, cfg, "v.json"), "-o", str(tmp_path)])
        assert rc == 1

    def test_all_minus_inf_boundary_ks(self, tmp_path):
        # everything is absorbed at the first grid time t1, so the KS gap
        # against Exp(1) is the survival e^{-t1} there
        grid = CONFIG_A["grid"]
        lines = ["t,b"]
        for k in range(grid["steps"]):
            t = grid["t_start"] + k * grid["dt"]
            lines.append(f"{t!r},-inf")
        csv = tmp_path / "minusinf.csv"
        csv.write_text("\n".join(lines) + "\n")
        cfg = self._verify_cfg(str(csv), tolerance=0.5)
        cfg["target"] = {"kind": "exponential", "rate": 1.0}
        rc = cli.main(["verify", "-c", write_config(tmp_path, cfg, "v.json"), "-o", str(tmp_path)])
        assert rc == 1
        report = json.loads((tmp_path / "report.json").read_text())
        t1 = grid["t_start"]
        assert report["ks_statistic"] == pytest.approx(math.exp(-t1), abs=1e-12)

    def test_report_has_witness_and_dkw_value(self, tmp_path):
        _, out = run_calibrate(tmp_path, CONFIG_A)
        for samples, below in ((500, True), (20_000, False)):
            cfg = self._verify_cfg(str(out / "boundary.csv"), tolerance=0.05, samples=samples)
            cli.main(["verify", "-c", write_config(tmp_path, cfg, "v.json"), "-o", str(tmp_path)])
            report = json.loads((tmp_path / "report.json").read_text())
            dkw = math.sqrt(math.log(2 / 0.05) / (2 * samples))
            assert report["dkw_alpha"] == 0.05
            assert report["dkw_critical_value"] == pytest.approx(dkw, rel=1e-15)
            assert report["tolerance_below_dkw"] is below
            grid = CONFIG_A["grid"]
            k = (report["ks_witness_time"] - grid["t_start"]) / grid["dt"]
            assert k == int(k) and 0 <= k < grid["steps"]

    def test_malformed_csv_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        cfg = self._verify_cfg(str(bad), tolerance=0.1)
        rc = cli.main(["verify", "-c", write_config(tmp_path, cfg, "v.json"), "-o", str(tmp_path)])
        assert rc == 2

    def test_non_utf8_boundary_csv_exits_2(self, tmp_path, capsys):
        # it used to exit 3 with "runtime error: 'utf-8' codec can't decode ..."
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"t,b\n0.03125,\xff\n")
        cfg = self._verify_cfg(str(bad), tolerance=0.1)
        rc = cli.main(["verify", "-c", write_config(tmp_path, cfg, "v.json"), "-o", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: boundary CSV is not UTF-8: ") and err.count("\n") == 1

    def test_relative_boundary_csv_is_read_from_the_config_directory(self, tmp_path, monkeypatch):
        _, out = run_calibrate(tmp_path, CONFIG_A)
        cfg = self._verify_cfg("boundary.csv", tolerance=1.0, samples=100)
        cfg_path = write_config(out, cfg, "v.json")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert cli.main(["verify", "-c", cfg_path, "-o", "vout"]) == 0
        assert (elsewhere / "vout" / "report.json").exists()

    def test_missing_boundary_csv_exits_2(self, tmp_path, capsys):
        cfg = self._verify_cfg(str(tmp_path / "absent.csv"), tolerance=0.1)
        rc = cli.main(["verify", "-c", write_config(tmp_path, cfg, "v.json"), "-o", str(tmp_path)])
        assert rc == 2
        assert "verify.boundary_csv" in capsys.readouterr().err

    def test_zero_samples_exits_2(self, tmp_path, capsys):
        cfg = self._verify_cfg("unused.csv", tolerance=0.1, samples=0)
        rc = cli.main(["verify", "-c", write_config(tmp_path, cfg, "v.json"), "-o", str(tmp_path)])
        assert rc == 2
        assert "verify.samples" in capsys.readouterr().err

    def test_tolerance_out_of_range_exits_2(self, tmp_path, capsys):
        for tolerance in (0.0, 1.5):
            cfg = self._verify_cfg("unused.csv", tolerance=tolerance)
            rc = cli.main(["verify", "-c", write_config(tmp_path, cfg, "v.json"), "-o", str(tmp_path)])
            assert rc == 2
            assert "verify.tolerance" in capsys.readouterr().err

    def test_seed_out_of_range_exits_2(self, tmp_path, capsys):
        cfg = self._verify_cfg("unused.csv", tolerance=0.1, seed=-1)
        rc = cli.main(["verify", "-c", write_config(tmp_path, cfg, "v.json"), "-o", str(tmp_path)])
        assert rc == 2
        assert "config error: verify.seed: " in capsys.readouterr().err

    def test_nan_step_exits_3(self, tmp_path, capsys):
        # x**0.5 is NaN below 0; a NaN path never compares >= b, so without a
        # check on the step outputs it would count as censored
        cfg = self._verify_cfg("b.csv", tolerance=0.5, samples=2000)
        cfg["process"] = {
            "kind": "diffusion",
            "beta": {"name": "power", "p": 0.5, "coeff": 1.0},
            "sigma": {"name": "constant", "value": 1.0},
            "dt_substeps": 2,
        }
        cfg["grid"] = {"t_start": 1.0, "dt": 1.0, "steps": 1}
        (tmp_path / "b.csv").write_text("t,b\n1,-1\n")
        with np.errstate(invalid="ignore"):
            rc = cli.main(["verify", "-c", write_config(tmp_path, cfg, "v.json"), "-o", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "step 0 (t = 1)" in err and "finite" in err

    def test_golden_fpt_config_b(self, tmp_path):
        _, out = run_calibrate(tmp_path, CONFIG_B)
        cfg = {k: CONFIG_B[k] for k in ("process", "initial", "target", "grid")}
        cfg["verify"] = {
            "boundary_csv": str(out / "boundary.csv"),
            "samples": 3000,
            "seed": 21,
            "tolerance": 0.1,
        }
        cfg["output"] = {"fpt": "fpt.txt"}
        rc = cli.main(["verify", "-c", write_config(tmp_path, cfg, "v.json"), "-o", str(tmp_path)])
        assert rc == 0
        data = (tmp_path / "fpt.txt").read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_B_FPT_SHA

    def test_unwritable_fpt_exits_2_before_work(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "plain.txt").write_text("")
        cfg = self._verify_cfg("unused.csv", tolerance=0.1)
        cfg["output"] = {"fpt": "plain.txt/fpt.txt"}
        monkeypatch.setattr(cli, "forward_fpt", lambda *a: pytest.fail("simulated before checking outputs"))
        rc = cli.main(["verify", "-c", write_config(tmp_path, cfg, "v.json"), "-o", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: output.fpt: ")
        assert not (tmp_path / "report.json").exists()

    def test_report_and_fpt_naming_one_file_exit_2_before_work(self, tmp_path, capsys, monkeypatch):
        # the fpt file used to overwrite the report, and the run exited 0
        cfg = self._verify_cfg("unused.csv", tolerance=0.1)
        cfg["output"] = {"report": "same", "fpt": "same"}
        monkeypatch.setattr(cli, "forward_fpt", lambda *a: pytest.fail("simulated before checking outputs"))
        rc = cli.main(["verify", "-c", write_config(tmp_path, cfg, "v.json"), "-o", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: output.fpt: ")
        assert not (tmp_path / "same").exists()

    @pytest.mark.parametrize("key, name", [("report", "boundary.csv"), ("fpt", "sub/../boundary.csv")])
    def test_output_naming_the_input_csv_exits_2_before_work(self, tmp_path, capsys, monkeypatch, key, name):
        # the report used to overwrite the boundary it read, and the run exited 0
        _, out = run_calibrate(tmp_path, CONFIG_A)
        before = (out / "boundary.csv").read_bytes()
        cfg = self._verify_cfg(str(out / "boundary.csv"), tolerance=0.1)
        cfg["output"] = {key: name}
        monkeypatch.setattr(cli, "forward_fpt", lambda *a: pytest.fail("simulated before checking outputs"))
        rc = cli.main(["verify", "-c", write_config(tmp_path, cfg, "v.json"), "-o", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: output.{key}: ") and "is also verify.boundary_csv" in err
        assert (out / "boundary.csv").read_bytes() == before

    def test_grid_mismatch_exits_2(self, tmp_path):
        _, out = run_calibrate(tmp_path, CONFIG_A)
        cfg = self._verify_cfg(str(out / "boundary.csv"), tolerance=0.1)
        cfg["grid"] = dict(cfg["grid"], steps=16)
        rc = cli.main(["verify", "-c", write_config(tmp_path, cfg, "v.json"), "-o", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize(
        "row, problem",
        [
            (("nan", "1"), "does not match the config grid"),
            (("inf", "1"), "does not match the config grid"),
            (("0.03125", "1"), "does not match the config grid"),
            (("0.125", "nan"), "must not be NaN"),
            # the OU process lives on [0, inf)
            (("0.125", "-1"), "must lie in [L, R]"),
        ],
        ids=["nan-time", "inf-time", "decreasing-time", "nan-value", "value-below-L"],
    )
    def test_bad_boundary_csv_exits_2(self, tmp_path, capsys, row, problem):
        # each used to exit 3 with "runtime error"
        grid = CONFIG_OU["grid"]
        rows = [(repr(grid["t_start"] + k * grid["dt"]), "1") for k in range(grid["steps"])]
        rows[3] = row
        (tmp_path / "b.csv").write_text("t,b\n" + "".join(f"{t},{b}\n" for t, b in rows))
        cfg = {k: CONFIG_OU[k] for k in ("process", "initial", "target", "grid")}
        cfg["verify"] = {"boundary_csv": "b.csv", "samples": 100, "seed": 1, "tolerance": 0.1}
        rc = cli.main(["verify", "-c", write_config(tmp_path, cfg, "v.json"), "-o", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and problem in err
        assert not (tmp_path / "out" / "report.json").exists()


# ids of 2**48 particles or samples fill the random stream's block; the
# values past it used to exit 3 with a numpy message (after a RuntimeWarning
# for 10**300 particles)
OVERSIZED = {
    "particles": ("calibrate", dict(CONFIG_A, particles=2**48 + 1)),
    "grid.steps": ("calibrate", dict(CONFIG_A, grid=dict(CONFIG_A["grid"], steps=2**48 + 1))),
    # 10**300 substeps used to exit 3 with numpy's "Maximum allowed dimension exceeded"
    "process.dt_substeps": (
        "calibrate",
        dict(CONFIG_OU, process=dict(CONFIG_OU["process"], dt_substeps=2**48 + 1)),
    ),
    "verify.samples": (
        "verify",
        dict(CONFIG_A, verify={"boundary_csv": "b.csv", "samples": 2**48 + 1, "seed": 1, "tolerance": 0.1}),
    ),
}


class TestSizeLimits:
    @pytest.mark.parametrize("key", OVERSIZED)
    def test_past_the_bound_exits_2(self, tmp_path, capsys, key):
        command, cfg = OVERSIZED[key]
        rc = cli.main([command, "-c", write_config(tmp_path, cfg), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {key}: must be at most {2**48}\n"

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError("Unable to allocate 8.00 TiB"), "runtime error: out of memory: Unable to allocate 8.00 TiB"),
            (MemoryError(), "runtime error: out of memory"),
        ],
    )
    def test_memory_error_exits_3(self, tmp_path, capsys, monkeypatch, exc, line):
        def exhaust(*args):
            raise exc

        monkeypatch.setattr(cli, "calibrate", exhaust)
        rc, _ = run_calibrate(tmp_path, CONFIG_A)
        assert rc == 3
        assert capsys.readouterr().err == line + "\n"


class TestCompareCommand:
    def _cfg(self, left_rate, right_rate, left_x=0.0, right_x=0.5, slack=0.0):
        side = lambda rate, x: {
            "process": {"kind": "brownian", "mu": 0.0, "vol": 1.0},
            "initial": {"kind": "point", "x": x},
            "target": {"kind": "exponential", "rate": rate},
        }
        return {
            "compare": {"left": side(left_rate, left_x), "right": side(right_rate, right_x), "slack": slack},
            "grid": {"t_start": 0.015625, "dt": 0.015625, "steps": 64},
            "particles": 3000,
            "seed": 17,
        }

    def test_hazard_ordered_pair_holds(self, tmp_path):
        cfg = self._cfg(2.0, 1.0)
        rc = cli.main(["compare", "-c", write_config(tmp_path, cfg), "-o", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["hazard_order"]["holds"]
        assert report["boundary_order"]["holds"]

    def test_reversed_pair_fails(self, tmp_path):
        cfg = self._cfg(1.0, 2.0, left_x=0.5, right_x=0.0)
        rc = cli.main(["compare", "-c", write_config(tmp_path, cfg), "-o", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("slack", [math.nan, -0.1])
    def test_bad_slack_exits_2(self, tmp_path, capsys, slack):
        # on the reversed pair a NaN slack used to print "holds" and exit 0,
        # and a negative one exited 3 after both calibrations
        cfg = self._cfg(1.0, 2.0, left_x=0.5, right_x=0.0, slack=slack)
        rc = cli.main(["compare", "-c", write_config(tmp_path, cfg), "-o", str(tmp_path)])
        assert rc == 2
        assert "config error: compare.slack: " in capsys.readouterr().err


    @pytest.mark.parametrize("side", ["left", "right"])
    def test_initial_law_outside_the_state_space_exits_2_before_work(self, tmp_path, capsys, monkeypatch, side):
        monkeypatch.setattr(cli, "calibrate", lambda *a: pytest.fail("calibrated before checking the initial law"))
        cfg = self._cfg(2.0, 1.0)
        cfg["compare"][side]["process"] = dict(CONFIG_OU["process"], L=2.0)
        rc = cli.main(["compare", "-c", write_config(tmp_path, cfg), "-o", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: compare.{side}.initial: ") and err.count("\n") == 1

    def test_report_directory_exits_2_before_work(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "report.json").mkdir()
        monkeypatch.setattr(cli, "calibrate", lambda *a: pytest.fail("calibrated before checking outputs"))
        rc = cli.main(["compare", "-c", write_config(tmp_path, self._cfg(2.0, 1.0)), "-o", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output.report: ") and "is a directory" in err


class TestClassifyCommand:
    def test_brownian_triple(self, tmp_path, capsys):
        cfg = {"process": {"kind": "levy", "a": 0.0, "sigma2": 1.0, "measure": []}}
        rc = cli.main(["classify", "-c", write_config(tmp_path, cfg), "-o", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "existence: yes" in out
        assert "full interval" in out

    def test_negative_gamma(self, tmp_path, capsys):
        cfg = {
            "process": {
                "kind": "levy", "a": 0.632, "sigma2": 0.0,
                "measure": [{"type": "gamma", "side": "-", "shape": 1.0, "rate": 1.0}],
            }
        }
        rc = cli.main(["classify", "-c", write_config(tmp_path, cfg), "-o", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "supp" in out

    def test_compound_poisson_point_start(self, tmp_path, capsys):
        cfg = {
            "process": {
                "kind": "levy", "a": 0.0, "sigma2": 0.0,
                "measure": [{"type": "atoms", "atoms": [[1.0, 1.0]]}],
            }
        }
        rc = cli.main(["classify", "-c", write_config(tmp_path, cfg), "-o", str(tmp_path)])
        assert rc == 0
        assert "not guaranteed" in capsys.readouterr().out

    def test_tempered_stable_without_gaussian_part(self, tmp_path, capsys):
        # BENCH3's jump measure; classify used to exit 3 computing a moment
        # of it that the classification never needed
        cfg = {
            "process": {
                "kind": "levy", "a": 0.0, "sigma2": 0.0,
                "measure": [{"type": "stable", "side": "+", "alpha": 0.5, "intensity": 0.5, "tempering": 1.0}],
            }
        }
        rc = cli.main(["classify", "-c", write_config(tmp_path, cfg), "-o", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "existence: yes" in out and "full interval" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert not report["unbounded_variation"] and report["uniqueness"] == "full_interval"

    def test_non_levy_exits_2(self, tmp_path):
        cfg = {"process": {"kind": "brownian", "mu": 0.0, "vol": 1.0}}
        rc = cli.main(["classify", "-c", write_config(tmp_path, cfg), "-o", str(tmp_path)])
        assert rc == 2


class TestProvenance:
    # the top-level keys of each command's report.json
    PROVENANCE = {"command", "versions", "config_sha256"}
    KEYS = {
        "calibrate": PROVENANCE | {"seed", "threads", "model", "elapsed_seconds", "boundary_csv", "boundary"},
        "verify": PROVENANCE
        | {"seed", "threads", "model", "ks_statistic", "ks_witness_time", "tolerance", "dkw_alpha"}
        | {"dkw_critical_value", "tolerance_below_dkw", "censored_fraction", "passed"},
        "compare": PROVENANCE | {"seed", "threads", "slack", "hazard_order", "boundary_order", "left", "right"},
        "classify": PROVENANCE
        | {"model", "existence_diffuse", "unbounded_variation", "zero_in_supp", "pos_mass", "neg_mass"}
        | {"uniqueness", "i_xi"},
    }

    def test_every_report_records_the_versions_and_the_canonical_config_hash(self, tmp_path, capsys):
        versions = {"ifpt": ifpt.__version__, "numpy": np.__version__}
        calibrate = dict(CONFIG_B, particles=200)
        csv = tmp_path / "calibrate" / "boundary.csv"
        check = {"boundary_csv": str(csv), "samples": 200, "seed": 2, "tolerance": 1.0}
        configs = {
            "calibrate": calibrate,
            "verify": dict(calibrate, verify=check),
            "compare": TestCompareCommand._cfg(None, 2.0, 1.0),
            "classify": {"process": CONFIG_B["process"]},
        }
        stdout = {
            "calibrate": [f"calibrate: wrote {csv} (16 grid points, seed 3)"],
            "verify": ["verify: KS=0.079029 tolerance=1 censored=0.3600 -> pass"],
            "compare": ["compare: hazard order holds; b_left <= b_right + 0 holds"],
            "classify": ["existence: yes (diffuse marginals)", "uniqueness: full interval (0, t_xi)"],
        }
        for command, cfg in configs.items():
            # written indented, keys in reverse order: the canonical form sorts them and drops whitespace
            path = write_config(tmp_path, dict(reversed(cfg.items())), f"{command}.json")
            capsys.readouterr()
            assert cli.main([command, "-c", path, "-o", str(tmp_path / command)]) == 0, command
            assert capsys.readouterr().out.splitlines() == stdout[command]
            report = json.loads((tmp_path / command / "report.json").read_text())
            canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
            assert set(report) == self.KEYS[command], command
            assert report["command"] == command
            assert report["versions"] == versions, command
            assert report["config_sha256"] == hashlib.sha256(canonical).hexdigest(), command


class TestFileBackedDistributions:
    def test_empirical_target_and_initial_from_files(self, tmp_path):
        rng = np.random.default_rng(0)
        (tmp_path / "xi.txt").write_text("\n".join(str(v) for v in rng.exponential(1.0, 400)))
        (tmp_path / "x0.txt").write_text("\n".join(str(v) for v in rng.normal(0.0, 0.1, 300)))
        cfg = dict(
            CONFIG_A,
            target={"kind": "empirical", "path": "xi.txt"},
            initial={"kind": "empirical", "path": "x0.txt"},
        )
        rc, out = run_calibrate(tmp_path, cfg)
        assert rc == 0
        assert (out / "boundary.csv").exists()

    def test_missing_sample_file_is_config_error(self, tmp_path, capsys):
        cfg = dict(CONFIG_A, target={"kind": "empirical", "path": "nope.txt"})
        rc, _ = run_calibrate(tmp_path, cfg)
        assert rc == 2
        assert "nope.txt" in capsys.readouterr().err

    def test_malformed_initial_sample_file_is_config_error(self, tmp_path, capsys):
        (tmp_path / "x0.txt").write_text("abc\n")
        rc, _ = run_calibrate(tmp_path, dict(CONFIG_A, initial={"kind": "empirical", "path": "x0.txt"}))
        assert rc == 2
        assert "config error: initial: " in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["target", "initial"])
    def test_nan_in_sample_file_is_config_error(self, tmp_path, capsys, section):
        # as a target, NaN was read as mass at +inf and the run exited 0;
        # as an initial law it reached the stepper and exited 3
        (tmp_path / "s.txt").write_text("0.5\nnan\n1.5\n")
        rc, _ = run_calibrate(tmp_path, dict(CONFIG_A, **{section: {"kind": "empirical", "path": "s.txt"}}))
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: {section}.path: ")


def test_verify_writes_fpt_file(tmp_path):
    _, out = run_calibrate(tmp_path, CONFIG_A)
    cfg = {k: CONFIG_A[k] for k in ("process", "initial", "target", "grid")}
    cfg["verify"] = {
        "boundary_csv": str(out / "boundary.csv"),
        "samples": 500,
        "seed": 5,
        "tolerance": 0.2,
    }
    cfg["output"] = {"fpt": "fpt.txt"}
    rc = cli.main(["verify", "-c", write_config(tmp_path, cfg, "v.json"), "-o", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "fpt.txt").read_text().splitlines()
    assert len(lines) == 500
    assert any(ln == "inf" for ln in lines)
    finite = [float(ln) for ln in lines if ln != "inf"]
    assert finite and min(finite) > 0


def test_console_entry_point(tmp_path):
    cfg_path = write_config(tmp_path, CONFIG_A)
    proc = subprocess.run(
        [sys.executable, "-m", "ifpt.cli", "calibrate", "-c", cfg_path, "-o", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "boundary.csv").exists()
