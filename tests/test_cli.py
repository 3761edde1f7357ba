import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pitaron_lab
from pitaron_lab.cli import (
    DEMOS,
    ConfigError,
    load_config,
    main,
    run_experiment,
    validate_config,
)
from pitaron_lab.hamiltonian import SIGMA1, HamiltonianSpec
from pitaron_lab.linalg import mat_exp
from pitaron_lab.series import convergence_order


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


PAULI_CONFIG = {
    "kind": "evolve",
    "output_path": "pauli_run",
    "params": {"model": "pauli", "f1": "cos", "f2": "sin", "f3": 0.5,
               "t0": 0.0, "t1": 2.0, "grid_points": 11, "steps_per_cell": 20},
}

COMB_CONFIG = {
    "kind": "comb",
    "output_path": "comb_run",
    "params": {"strengths": [0.6, 1.0, 1.2, 0.8], "times": [1.0, 2.0, 3.0, 4.0],
               "dim": 1, "t0": 0.0, "t1": 5.0, "grid_points": 26, "steps_per_cell": 2},
}

DYSON_CONFIG = {
    "kind": "dyson",
    "output_path": "dyson_run",
    "params": {"T_list": [0.1, 0.2], "orders": [1, 2], "panels": 4},
}

NHSE_CONFIG = {
    "kind": "nhse",
    "output_path": "nhse_run",
    "params": {"l": 4, "onsite": 0.0, "hop": 1.0, "gamma": 0.5,
               "t0": 0.0, "t1": 2.0, "grid_points": 9, "steps_per_cell": 10},
}

CONSTANT_CONFIG = {
    "kind": "evolve",
    "output_path": "constant_run",
    "params": {"model": "constant", "matrix": [[[1.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [-1.0, 0.0]]],
               "t0": 0.0, "t1": 1.0, "grid_points": 5, "steps_per_cell": 4},
}


BREAKDOWN_CONFIG = {
    "kind": "picard",
    "output_path": "breakdown_run",
    "params": {"problem": "delta_breakdown", "a": 0.5, "epsilon": 0.01, "x1": 1.0, "grid": 8001},
}

SMEARING_CONFIG = {
    "kind": "counterexample",
    "output_path": "smearing_run",
    "params": {"demo": "smearing", "t1": 1.0, "t": 2.0, "kind": "gaussian", "panels": 8,
               "pairs": [[0.2, 0.3]]},
}

PICARD_EXP_CONFIG = {
    "kind": "picard",
    "output_path": "picard_run",
    "params": {"problem": "exponential", "g": 1.0, "x1": 1.0, "n_max": 3, "grid": 64},
}

# 2^63 is no int64: through np.asarray the n column would turn to floats
BIG_N_CONFIG = {
    "kind": "counterexample",
    "output_path": "big_n",
    "params": {"demo": "dominated", "n_list": [1, 9223372036854775808]},
}

TRAJECTORY_HEADER = ["t", "defect_U", "defect_P", "n_distance", "z_factor"]
DOMINATED_HEADER = ["n", "family1_integral", "family2_integral", "family1_at_1", "family2_at_1"]


def with_params(base, **params):
    raw = json.loads(json.dumps(base))
    raw["params"].update(params)
    return raw


class TestConfigValidation:
    def test_load_happy_path(self, tmp_path):
        path = write_config(tmp_path, "ok.json", PAULI_CONFIG)
        cfg = load_config(path)
        assert cfg.kind == "evolve"
        assert cfg.seed == 42

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            validate_config({"kind": "frobnicate", "params": {}, "output_path": "x"})

    def test_unknown_param_key_rejected(self):
        raw = json.loads(json.dumps(PAULI_CONFIG))
        raw["params"]["typo_key"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            validate_config(raw)

    def test_unknown_top_level_key_rejected(self):
        raw = json.loads(json.dumps(PAULI_CONFIG))
        raw["extra"] = True
        with pytest.raises(ConfigError, match="unknown keys"):
            validate_config(raw)

    def test_missing_required_key(self):
        raw = json.loads(json.dumps(COMB_CONFIG))
        del raw["params"]["dim"]
        with pytest.raises(ConfigError, match="missing"):
            validate_config(raw)

    def test_non_finite_number_rejected(self, tmp_path):
        raw = json.loads(json.dumps(COMB_CONFIG))
        raw["params"]["strengths"] = [1.0, float("inf")]
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(raw).replace("Infinity", "1e999"))
        with pytest.raises(ConfigError, match="finite"):
            run_experiment(load_config(path), tmp_path)


class TestRunExperiment:
    def test_evolve_outputs(self, tmp_path):
        cfg = validate_config(PAULI_CONFIG)
        summary = run_experiment(cfg, tmp_path)
        header, rows = read_csv(tmp_path / "pauli_run.csv")
        assert header == ["t", "defect_U", "defect_P", "n_distance", "z_factor"]
        assert len(rows) == 11
        assert summary["results"]["max_n_distance"] < 1e-8
        assert summary["results"]["max_abs_z_minus_1"] < 1e-8
        assert summary["warnings"] == []

    def test_comb_csv_ends_at_figure_value(self, tmp_path):
        summary = run_experiment(validate_config(COMB_CONFIG), tmp_path)
        header, rows = read_csv(tmp_path / "comb_run.csv")
        assert header[-1] == "n_trunc"
        assert float(rows[-1]["n_trunc"]) == pytest.approx(-5.48)
        assert summary["results"]["indefinite_flags"] == 4
        assert any("indefinite" in w for w in summary["warnings"])

    @pytest.mark.parametrize("t0, times", [(0.0, [-1.0, 1.0]), (2.0, [1.0, 3.0])],
                             ids=["kick-before-zero", "kick-before-t0"])
    def test_comb_outputs_take_only_the_kicks_after_t0(self, tmp_path, t0, times):
        # the trajectory steps one kick, of strength 0.5: S = 0.5 from it on
        config = with_params(COMB_CONFIG, strengths=[1.0, 0.5], times=times, t0=t0,
                             t1=t0 + 2.0, grid_points=5, steps_per_cell=1)
        results = run_experiment(validate_config(config), tmp_path)["results"]
        _, rows = read_csv(tmp_path / "comb_run.csv")
        assert [float(row["n_trunc"]) for row in rows] == [1.0, 1.0, 0.875, 0.875, 0.875]
        assert results["final_n_trunc"] == 0.875
        assert results["indefinite_flags"] == 1
        assert (results["pitaron_expansion_re"], results["pitaron_expansion_im"]) == (0.875, -0.5)

    def test_nhse_records_warning_and_contrast(self, tmp_path):
        cfg = validate_config(NHSE_CONFIG)
        summary = run_experiment(cfg, tmp_path)
        assert summary["results"]["final_defect_U"] > 0.1
        assert summary["results"]["final_defect_P"] < 1e-10
        assert abs(summary["results"]["final_z_factor"] - 1.0) > 0.05
        assert summary["warnings"]  # split does not commute

    def test_dyson_columns_and_slopes(self, tmp_path):
        cfg = validate_config({
            "kind": "dyson",
            "output_path": "dyson_run",
            "params": {"T_list": [0.05, 0.1, 0.2, 0.4], "orders": [1, 2], "panels": 16},
        })
        summary = run_experiment(cfg, tmp_path)
        header, rows = read_csv(tmp_path / "dyson_run.csv")
        assert header == ["T", "order", "err_partial", "defect_partial",
                          "err_pitaron_expansion"]
        assert len(rows) == 8
        assert summary["results"]["slope_order_1"] == pytest.approx(2.0, abs=0.2)
        assert summary["results"]["slope_order_2"] == pytest.approx(3.0, abs=0.3)

    def test_dyson_slopes_are_the_library_fit(self, tmp_path):
        T_list = [0.04, 0.1, 0.2, 0.4]
        cfg = validate_config({
            "kind": "dyson",
            "output_path": "dyson_run",
            "params": {"T_list": T_list, "orders": [1, 2], "panels": 16},
        })
        results = run_experiment(cfg, tmp_path)["results"]
        spec = HamiltonianSpec.constant(SIGMA1)
        exact = lambda T: mat_exp(-1j * T * SIGMA1)
        for order in (1, 2):
            assert results[f"slope_order_{order}"] == convergence_order(spec, 0.0, exact, order,
                                                                        T_list, panels=16)

    def test_dyson_pitaron_error_is_the_partial_error_at_every_order(self, tmp_path):
        # H = sigma1 is Hermitian, so the N series is 1 and P's partial sums are U's
        cfg = validate_config({
            "kind": "dyson",
            "output_path": "dyson_run",
            "params": {"T_list": [0.07, 0.2, 0.38], "orders": [0, 1, 2, 3, 4], "panels": 4},
        })
        run_experiment(cfg, tmp_path)
        _, rows = read_csv(tmp_path / "dyson_run.csv")
        assert [int(row["order"]) for row in rows] == [0, 1, 2, 3, 4] * 3
        for row in rows:
            assert float(row["err_pitaron_expansion"]) == pytest.approx(
                float(row["err_partial"]), rel=1e-9)

    def test_picard_exponential(self, tmp_path):
        for g in (1.0, -2.0, 5.0):
            cfg = validate_config({
                "kind": "picard",
                "output_path": f"pic{g}",
                "params": {"problem": "exponential", "g": g, "x1": 1.0,
                           "n_max": 8, "grid": 2001},
            })
            run_experiment(cfg, tmp_path)
            header, rows = read_csv(tmp_path / f"pic{g}.csv")
            assert header == ["n", "sup_error", "bound"]
            # the a-priori bound holds for growing and decaying solutions
            for row in rows[1:]:
                assert float(row["sup_error"]) <= float(row["bound"]), (g, row)
            if g == 1.0:
                assert float(rows[-1]["sup_error"]) < 1e-4

    def test_dyson_repeated_lengths_fit_no_slope(self, tmp_path, recwarn):
        cfg = validate_config({
            "kind": "dyson",
            "output_path": "dyson_run",
            "params": {"T_list": [0.1, 0.1], "orders": [1, 2], "panels": 4},
        })
        summary = run_experiment(cfg, tmp_path)
        assert not any(k.startswith("slope_order_") for k in summary["results"])
        assert len(recwarn) == 0

    def test_counterexample_dominated(self, tmp_path):
        cfg = validate_config({
            "kind": "counterexample",
            "output_path": "dom",
            "params": {"demo": "dominated", "n_list": [1, 10, 100]},
        })
        summary = run_experiment(cfg, tmp_path)
        _, rows = read_csv(tmp_path / "dom.csv")
        assert [float(r["family1_integral"]) for r in rows] == [1.0, 1.0, 1.0]
        assert summary["warnings"]

    def test_csv_bytes_reproduce(self, tmp_path):
        cfg = validate_config(PAULI_CONFIG)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "pauli_run.csv").read_bytes() == \
               (tmp_path / "b" / "pauli_run.csv").read_bytes()

    def test_seeded_random_state_reproduces(self, tmp_path):
        raw = json.loads(json.dumps(PAULI_CONFIG))
        raw["params"]["psi0"] = "random"
        raw["seed"] = 7
        cfg = validate_config(raw)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "pauli_run.csv").read_bytes() == \
               (tmp_path / "b" / "pauli_run.csv").read_bytes()

    @pytest.mark.parametrize("config, header, rows", [
        (DEMOS["pauli"], TRAJECTORY_HEADER, lambda p: p["grid_points"]),
        (CONSTANT_CONFIG, TRAJECTORY_HEADER, lambda p: p["grid_points"]),
        (DEMOS["nhse2"], TRAJECTORY_HEADER, lambda p: p["grid_points"]),
        (NHSE_CONFIG, TRAJECTORY_HEADER, lambda p: p["grid_points"]),
        (DEMOS["dimb"], [*TRAJECTORY_HEADER, "n_trunc"], lambda p: p["grid_points"]),
        (DYSON_CONFIG, ["T", "order", "err_partial", "defect_partial", "err_pitaron_expansion"],
         lambda p: len(p["T_list"]) * len(p["orders"])),
        (DEMOS["picard-exp"], ["n", "sup_error", "bound"], lambda p: p["n_max"] + 1),
        # three symmetric widths, then the two asymmetric pairs
        (BREAKDOWN_CONFIG, ["eps1", "eps2", "second_iterate"], lambda p: 3 + 2),
        (DEMOS["smearing"], ["eps1", "eps2", "value"], lambda p: len(p["pairs"])),
        (DEMOS["dominated"], DOMINATED_HEADER, lambda p: len(p["n_list"])),
        (BIG_N_CONFIG, DOMINATED_HEADER, lambda p: len(p["n_list"])),
    ], ids=["pauli", "constant", "nhse2", "nhse", "dimb", "dyson", "picard-exp",
            "delta-breakdown", "smearing", "dominated", "dominated-2^63"])
    def test_csv_shape(self, tmp_path, config, header, rows):
        run_experiment(validate_config(config), tmp_path)
        lines = (tmp_path / f"{config['output_path']}.csv").read_text().splitlines()
        assert lines[0].split(",") == header
        assert len(lines) == 1 + rows(config["params"])
        assert all(len(line.split(",")) == len(header) for line in lines)

    def test_csv_keeps_integers_beyond_int64(self, tmp_path):
        run_experiment(validate_config(BIG_N_CONFIG), tmp_path)
        _, rows = read_csv(tmp_path / "big_n.csv")
        assert [r["n"] for r in rows] == ["1", "9223372036854775808"]

    def test_summary_schema(self, tmp_path):
        run_experiment(validate_config(PAULI_CONFIG), tmp_path)
        summary = json.loads((tmp_path / "pauli_run.summary.json").read_text())
        assert set(summary) == {"kind", "params", "seed", "results", "warnings",
                                "wall_time_ms"}


class TestMainEntryPoint:
    def test_run_returns_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg.json", PAULI_CONFIG)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "pauli_run.csv").exists()

    def test_malformed_config_exits_two_without_outputs(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.glob("*.csv"))
        assert "config error" in capsys.readouterr().err

    def test_numerical_failure_exits_three(self, tmp_path, capsys):
        # nilpotent constant Hamiltonian: U = 1 - i H t has condition ~1e16
        config = {
            "kind": "evolve",
            "output_path": "blowup",
            "params": {"model": "constant",
                       "matrix": [[[0.0, 0.0], [1e8, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                       "t0": 0.0, "t1": 1.0, "grid_points": 3, "steps_per_cell": 2},
        }
        path = write_config(tmp_path, "blowup.json", config)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_overflowing_propagator_exits_three(self, tmp_path, capsys):
        # H = 50i * 1: U = exp(50 t) * 1 is well conditioned but overflows to inf
        config = {
            "kind": "evolve",
            "output_path": "overflow",
            "params": {"model": "constant",
                       "matrix": [[[0.0, 50.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 50.0]]],
                       "t0": 0.0, "t1": 20.0, "grid_points": 2, "steps_per_cell": 1},
        }
        path = write_config(tmp_path, "overflow.json", config)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", str(path), "--out", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "overflow.csv").exists()
        assert not (tmp_path / "overflow.summary.json").exists()

    def test_finite_drive_beyond_float_range_exits_three(self, tmp_path, capsys):
        # f1 = 1e308: every entry of H is finite, but the entries sum past the float range
        config = {
            "kind": "evolve",
            "output_path": "big",
            "params": {"model": "pauli", "f1": 1e308, "f2": 0.0, "f3": "cos",
                       "t0": 0.0, "t1": 1.0, "grid_points": 3, "steps_per_cell": 2},
        }
        path = write_config(tmp_path, "cfg.json", config)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not list(tmp_path.glob("big.*"))

    # f1 = 1e100: H is well inside the float range, but exp(-i H dt) would
    # need ~330 squarings, far outside mat_exp's accuracy domain
    OVERFLOWING_DRIVE = {
        "kind": "evolve",
        "output_path": "huge",
        "params": {"model": "pauli", "f1": 1e100, "f2": 0.0, "f3": "cos",
                   "t0": 0.0, "t1": 1.0, "grid_points": 3, "steps_per_cell": 2},
    }

    def test_overflowing_exponential_exits_three_without_a_warning(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg.json", self.OVERFLOWING_DRIVE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(path), "--out", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not list(tmp_path.glob("huge.*"))

    def test_overflowing_exponential_exits_three_with_warnings_as_errors(self, tmp_path):
        path = write_config(tmp_path, "cfg.json", self.OVERFLOWING_DRIVE)
        src = str(Path(pitaron_lab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "pitaron_lab.cli", "run", str(path),
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120, check=False,
        )
        assert done.returncode == 3, done.stderr
        assert "numerical failure" in done.stderr
        assert not list(tmp_path.glob("huge.*"))

    # psi0 entries of 1.5e308: ||psi0|| = 2.1e308 lies beyond the float range
    HUGE_STATE = with_params(PAULI_CONFIG, psi0=[[1.5e308, 0.0], [1.5e308, 0.0]])
    # H = i on one level: U = e^t reaches 2.2e4 at t = 10, and ||U psi0|| ~ 2.2e309
    GROWING_STATE = with_params(CONSTANT_CONFIG, matrix=[[[0.0, 1.0]]], psi0=[[1e305, 0.0]],
                                t1=10.0, grid_points=3)
    # the same growth from 1e152: ||U psi0|| ~ 2.2e156 is a float, though its square is not
    LARGE_STATE = with_params(GROWING_STATE, psi0=[[1e152, 0.0]])

    @pytest.mark.parametrize("config, code, message", [
        (HUGE_STATE, 2, "config error"), (GROWING_STATE, 3, "numerical failure")],
        ids=["norm-beyond-float-range", "overflowing-U-psi0"])
    def test_reference_state_beyond_float_range_fails_without_a_warning(
            self, tmp_path, capsys, config, code, message):
        path = write_config(tmp_path, "cfg.json", config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(path), "--out", str(tmp_path)]) == code
        assert message in capsys.readouterr().err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]

    def test_reference_state_with_a_float_norm_runs_without_a_warning(self, tmp_path):
        path = write_config(tmp_path, "cfg.json", self.LARGE_STATE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "constant_run.summary.json").read_text())
        assert math.isclose(summary["results"]["max_abs_z_minus_1"], math.expm1(10.0),
                            rel_tol=1e-12)

    def test_huge_reference_state_exits_two_with_warnings_as_errors(self, tmp_path):
        path = write_config(tmp_path, "cfg.json", self.HUGE_STATE)
        src = str(Path(pitaron_lab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "pitaron_lab.cli", "run", str(path),
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120, check=False,
        )
        assert done.returncode == 2, done.stderr
        assert "finite norm" in done.stderr
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]

    def test_math_overflow_exits_three(self, tmp_path, capsys):
        # the exact solution exp(g * x1) = exp(1000) overflows, whatever the caller's errstate
        config = {
            "kind": "picard",
            "output_path": "overflow",
            "params": {"problem": "exponential", "g": 1000.0, "x1": 1.0, "n_max": 3,
                       "grid": 64},
        }
        path = write_config(tmp_path, "picard.json", config)
        with np.errstate(over="ignore"):
            assert main(["run", str(path), "--out", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not list(tmp_path.glob("overflow.*"))

    def test_picard_bound_beyond_float_range_is_inf(self, tmp_path):
        # g = -800: M = K e^{800} is no float, yet the decaying run completes
        config = {
            "kind": "picard",
            "output_path": "decay",
            "params": {"problem": "exponential", "g": -800.0, "x1": 1.0, "n_max": 6,
                       "grid": 2001},
        }
        path = write_config(tmp_path, "picard_decay.json", config)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "decay.csv")
        for row in rows[1:]:
            assert float(row["bound"]) == np.inf
            assert float(row["sup_error"]) <= float(row["bound"])
        # g = 800: the exact solution e^{800 x} itself leaves the float range
        config["params"]["g"] = 800.0
        config["output_path"] = "growth"
        path = write_config(tmp_path, "picard_growth.json", config)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 3
        assert not list(tmp_path.glob("growth.*"))

    def test_picard_bound_beyond_the_float_factorial_is_finite(self, tmp_path):
        # n! is no float from n = 171 on, yet M N^(n-1) h^n / n! tends to 0
        config = {
            "kind": "picard",
            "output_path": "long",
            "params": {"problem": "exponential", "g": 1.0, "x1": 1.0, "n_max": 300,
                       "grid": 101},
        }
        path = write_config(tmp_path, "picard_long.json", config)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "long.csv")
        bounds = [float(row["bound"]) for row in rows[1:]]
        assert len(bounds) == 300 and np.isfinite(bounds).all()
        assert bounds[170] < bounds[169]

    @pytest.mark.parametrize("g, n_max", [(-800.0, 437), (-800.0, 438), (800.0, 1000),
                                          (1e308, 3)],
                             ids=["decay-437", "decay-438", "growth", "huge-g"])
    def test_overflowing_picard_iterate_exits_three_without_a_warning(self, tmp_path, capsys,
                                                                      g, n_max):
        # an iterate of y' = g y passes the float range: no inf row, no "not measurable"
        config = with_params(PICARD_EXP_CONFIG, g=g, n_max=n_max, grid=1000)
        path = write_config(tmp_path, "cfg.json", config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]

    @pytest.mark.parametrize("grid", [1, 2, 63])
    def test_breakdown_grid_below_64_exits_two_and_writes_nothing(self, tmp_path, capsys, grid):
        path = write_config(tmp_path, "cfg.json", with_params(BREAKDOWN_CONFIG, grid=grid))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "at least 64 points" in err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]

    def test_comb_kick_between_t0_and_zero_is_covered_and_exits_zero(self, tmp_path):
        # the closed forms expand U(t, t0) over every kick after t0, the one at -0.5 too
        config = with_params(COMB_CONFIG, strengths=[1.0, 0.5], times=[-0.5, 1.0], t0=-1.0,
                             t1=1.0, grid_points=5, steps_per_cell=1)
        path = write_config(tmp_path, "cfg.json", config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        _, rows = read_csv(tmp_path / "out" / "comb_run.csv")
        assert [float(row["n_trunc"]) for row in rows] == [1.0, 0.5, 0.5, 0.5, -0.125]
        results = json.loads((tmp_path / "out" / "comb_run.summary.json").read_text())["results"]
        assert results["indefinite_flags"] == 2
        assert (results["pitaron_expansion_re"], results["pitaron_expansion_im"]) == (-0.125, -1.5)

    def test_library_value_error_exits_two_and_later_configs_run(self, tmp_path, capsys):
        bad = json.loads(json.dumps(PAULI_CONFIG))
        bad["output_path"] = "backwards"
        bad["params"]["t1"] = bad["params"]["t0"]  # passes the schema, rejected by the library
        p1 = write_config(tmp_path, "bad.json", bad)
        p2 = write_config(tmp_path, "good.json", PAULI_CONFIG)
        assert main(["run", str(p1), str(p2), "--out", str(tmp_path)]) == 2
        assert "config error in" in capsys.readouterr().err
        assert (tmp_path / "pauli_run.csv").exists()
        assert (tmp_path / "pauli_run.summary.json").exists()
        assert not list(tmp_path.glob("backwards*"))

    @pytest.mark.parametrize("orders, panels", [([4], 28), ([0, 1], 10**7), ([3], 10**300)])
    def test_dyson_beyond_node_cap_exits_two_and_writes_nothing(self, tmp_path, capsys,
                                                                orders, panels):
        # (2 panels + 1)^depth nodes per length, the depth the largest order
        config = json.loads(json.dumps(DYSON_CONFIG))
        config["params"].update(orders=orders, panels=panels)
        path = write_config(tmp_path, "dyson_cap.json", config)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert "above the cap of 10000000" in capsys.readouterr().err
        assert not list(tmp_path.glob("dyson_run*"))

    def test_dyson_depth_is_the_largest_order(self, tmp_path):
        # 2 lengths of 3163 nodes at depth 1; a depth of at least 2 would have counted 3163^2
        config = json.loads(json.dumps(DYSON_CONFIG))
        config["params"].update(orders=[0, 1], panels=1581)
        path = write_config(tmp_path, "dyson_cap.json", config)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "dyson_run.csv")
        assert [row["order"] for row in rows] == ["0", "1", "0", "1"]

    def test_dyson_node_cap_counts_every_length(self, tmp_path, capsys):
        # 37^4 nodes per length is under the cap, 11 lengths of them are not
        config = json.loads(json.dumps(DYSON_CONFIG))
        config["params"].update(T_list=[0.05 * k for k in range(1, 12)], orders=[4], panels=18)
        path = write_config(tmp_path, "dyson_cap.json", config)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert "above the cap of 10000000" in capsys.readouterr().err
        assert not list(tmp_path.glob("dyson_run*"))

    @pytest.mark.parametrize("config, message", [
        # grid_points x steps_per_cell above 2 * 10^4
        (with_params(PAULI_CONFIG, grid_points=11, steps_per_cell=1819), "20009 pieces"),
        (with_params(NHSE_CONFIG, grid_points=20001, steps_per_cell=1), "20001 pieces"),
        (with_params(COMB_CONFIG, grid_points=2, steps_per_cell=10**300), "above the cap of 20000"),
        # a dimension above 64
        (with_params(CONSTANT_CONFIG, matrix=[[[0.0, 0.0]] * 65] * 65), "dimension 65"),
        (with_params(CONSTANT_CONFIG, psi0=[[1.0, 0.0]] * 65), "dimension 65"),
        (with_params(NHSE_CONFIG, l=65), "integer in [1, 64]"),
        (with_params(COMB_CONFIG, dim=65), "integer in [1, 64]"),
        # grid_points x dim^2 above 2^19: 129 snapshots at dim 64
        (with_params(NHSE_CONFIG, l=64, grid_points=129, steps_per_cell=1),
         "528384 snapshot entries"),
        (with_params(COMB_CONFIG, dim=64, grid_points=129, steps_per_cell=1),
         "528384 snapshot entries"),
        # kicks x dim^2 above 2^17: 33 kicks at dim 64
        (with_params(COMB_CONFIG, dim=64, strengths=[0.1] * 33,
                     times=[0.125 * k for k in range(1, 34)]), "135168 kick entries"),
    ], ids=["pieces-evolve", "pieces-nhse", "pieces-comb", "dim-matrix", "dim-psi0",
            "dim-nhse", "dim-comb", "snapshots-nhse", "snapshots-comb", "kicks-comb"])
    def test_trajectory_beyond_a_cap_exits_two_and_writes_nothing(self, tmp_path, capsys,
                                                                 config, message):
        path = write_config(tmp_path, "cap.json", config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]

    def test_trajectory_at_the_caps_runs(self, tmp_path):
        config = with_params(COMB_CONFIG, dim=64, grid_points=128, steps_per_cell=156,
                             strengths=[0.1] * 32, times=[0.125 * k for k in range(1, 33)])
        assert main(["run", str(write_config(tmp_path, "cap.json", config)),
                     "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("config, message", [
        # len(pairs) x (panels + 512) above 2^20
        (with_params(SMEARING_CONFIG, panels=2**20 - 511), "= 1048577, above the cap"),
        (with_params(SMEARING_CONFIG, panels=1, pairs=[[50.0, 60.0]] * 2045),
         "= 1049085, above the cap"),
        # (n_max + 1) x grid above 2^20, and n_max above 1000
        (with_params(PICARD_EXP_CONFIG, n_max=12, grid=80660), "1048580 iterate entries"),
        (with_params(BREAKDOWN_CONFIG, grid=349526), "1048578 iterate entries"),
        (with_params(PICARD_EXP_CONFIG, n_max=1001, grid=64), "integer in [1, 1000]"),
        (with_params(BIG_N_CONFIG, n_list=list(range(1, 8194))), "8193 entries"),
    ], ids=["smearing-panels", "smearing-pairs", "picard-exponential", "picard-breakdown",
            "picard-iterates", "dominated"])
    def test_work_beyond_a_cap_exits_two_and_writes_nothing(self, tmp_path, capsys,
                                                           config, message):
        path = write_config(tmp_path, "cap.json", config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]

    @pytest.mark.parametrize("config", [
        with_params(SMEARING_CONFIG, panels=1, pairs=[[50.0, 60.0]] * 2044),
        with_params(PICARD_EXP_CONFIG, n_max=1000, grid=1047),
        with_params(BREAKDOWN_CONFIG, grid=349525),
        with_params(BIG_N_CONFIG, n_list=list(range(1, 8193))),
    ], ids=["smearing", "picard-exponential", "picard-breakdown", "dominated"])
    def test_work_at_the_caps_runs(self, tmp_path, config):
        assert main(["run", str(write_config(tmp_path, "cap.json", config)),
                     "--out", str(tmp_path)]) == 0

    def test_smearing_width_whose_square_overflows_exits_three(self, tmp_path, capsys):
        config = with_params(SMEARING_CONFIG, kind="nascent", pairs=[[1e200, 1e200]])
        path = write_config(tmp_path, "wide.json", config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "overflow" in err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]

    def test_exponential_beyond_the_accuracy_domain_exits_three(self, tmp_path, capsys):
        # Hermitian, so U is unitary; 53 squarings would report defect_U 0.35 with exit 0
        matrix = [[[1e16, 0], [3e15, 0]], [[3e15, 0], [-1e16, 0]]]
        config = with_params(CONSTANT_CONFIG, matrix=matrix, t0=0, t1=1, grid_points=3,
                             steps_per_cell=1, psi0=[[1, 0], [0, 0]])
        path = write_config(tmp_path, "huge.json", config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "accuracy domain" in capsys.readouterr().err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]

    def test_constant_cell_beyond_the_accuracy_domain_exits_three(self, tmp_path, capsys):
        # a constant cell is one exponential of width x H whatever steps_per_cell is:
        # 100 x ||H||_1 = 1.3e7 lies beyond 2^20; 13 cells of width 7.7 lie inside it
        matrix = [[[1e5, 0], [3e4, 0]], [[3e4, 0], [-1e5, 0]]]
        config = with_params(CONSTANT_CONFIG, matrix=matrix, t0=0, t1=100, grid_points=2,
                             steps_per_cell=1000)
        path = write_config(tmp_path, "wide.json", config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "accuracy domain" in capsys.readouterr().err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]
        path = write_config(tmp_path, "narrow.json", with_params(config, grid_points=14))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_jobs_fan_out(self, tmp_path, capsys):
        p1 = write_config(tmp_path, "one.json", PAULI_CONFIG)
        p2 = write_config(tmp_path, "two.json", COMB_CONFIG)
        assert main(["run", str(p1), str(p2),
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "pauli_run.csv").exists()
        assert (tmp_path / "comb_run.csv").exists()

    def test_dotted_output_paths_write_distinct_files(self, tmp_path, capsys):
        paths = []
        for name in ("run.v1", "run.v2"):
            raw = json.loads(json.dumps(COMB_CONFIG))
            raw["output_path"] = name
            paths.append(str(write_config(tmp_path, f"{name}.json", raw)))
        out = tmp_path / "out"
        assert main(["run", *paths, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "run.v1.csv", "run.v1.summary.json", "run.v2.csv", "run.v2.summary.json"]
        printed = capsys.readouterr().out
        for name in ("run.v1", "run.v2"):
            assert f"wrote {name}.csv and {name}.summary.json" in printed

    def test_unwritable_output_exits_two_and_leaves_no_file(self, tmp_path, capsys):
        # 250 characters fit with ".csv" but not with ".summary.json" (255-byte names)
        long = json.loads(json.dumps(COMB_CONFIG))
        long["output_path"] = "x" * 250
        p1 = write_config(tmp_path, "long.json", long)
        p2 = write_config(tmp_path, "good.json", PAULI_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(p1), str(p2), "--out", str(out)]) == 2
        assert "cannot write the outputs of" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["pauli_run.csv", "pauli_run.summary.json"]

    @pytest.mark.parametrize("base, section, key, value", [
        (PAULI_CONFIG, "params", "psi0", {"a": 1}),
        (PAULI_CONFIG, "params", "f1", [1]),
        (PAULI_CONFIG, "params", "t1", 10**400),
        (DYSON_CONFIG, "params", "orders", []),
        (DYSON_CONFIG, "params", "orders", [1, 1]),
        (DYSON_CONFIG, "params", "T_list", []),
        (DYSON_CONFIG, "params", "T_list", [0.0, 0.2]),
        (DYSON_CONFIG, "params", "T_list", [-0.1, 0.2]),
        (PAULI_CONFIG, None, "output_path", "../escaped/x"),
        (PAULI_CONFIG, None, "output_path", "a/../../x"),
        (PAULI_CONFIG, None, "output_path", "ABSOLUTE"),
    ], ids=["psi0-object", "f1-list", "t1-huge-int", "orders-empty", "orders-repeated",
            "T_list-empty", "T_list-zero", "T_list-negative", "output-dotdot",
            "output-inner-dotdot", "output-absolute"])
    def test_schema_escape_exits_two_and_writes_nothing(self, tmp_path, capsys,
                                                       base, section, key, value):
        raw = json.loads(json.dumps(base))
        if value == "ABSOLUTE":
            value = str(tmp_path / "absolute" / "x")
        (raw[section] if section else raw)[key] = value
        root = tmp_path / "root"
        root.mkdir()
        path = write_config(root, "escape.json", raw)
        assert main(["run", str(path), "--out", str(root / "out")]) == 2
        assert "config error in" in capsys.readouterr().err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]

    @pytest.mark.parametrize("text", [b"{oops", b"[" * 100_000, b"\xff\xfe"],
                             ids=["malformed", "nested-too-deep", "not-utf8"])
    def test_unloadable_config_does_not_stop_later_configs(self, tmp_path, capsys, text):
        broken = tmp_path / "broken.json"
        broken.write_bytes(text)
        good = write_config(tmp_path, "good.json", PAULI_CONFIG)
        assert main(["run", str(broken), str(good), "--out", str(tmp_path)]) == 2
        assert "malformed JSON" in capsys.readouterr().err
        assert (tmp_path / "pauli_run.csv").exists()

    def test_demo_command(self, tmp_path, capsys):
        assert main(["demo", "dimb", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "dimb.csv")
        assert float(rows[-1]["n_trunc"]) == pytest.approx(-5.48)

    def test_all_demo_configs_validate(self):
        for name, raw in DEMOS.items():
            cfg = validate_config(raw, where=name)
            assert cfg.kind in {"evolve", "nhse", "comb", "dyson", "picard",
                                "counterexample"}
