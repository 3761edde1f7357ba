import json
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

    def test_nhse_records_warning_and_contrast(self, tmp_path):
        cfg = validate_config({
            "kind": "nhse",
            "output_path": "nhse_run",
            "params": {"l": 4, "onsite": 0.0, "hop": 1.0, "gamma": 0.5,
                       "t0": 0.0, "t1": 2.0, "grid_points": 9, "steps_per_cell": 10},
        })
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

    # f1 = 1e100: H is well inside the float range, but the squarings of
    # exp(-i H dt) overflow
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

    def test_math_overflow_exits_three(self, tmp_path, capsys):
        # exp(g * x1) = exp(1000) in the a-priori bound raises OverflowError
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

    @pytest.mark.parametrize("orders, panels", [([4], 28), ([0, 1], 1581), ([3], 10**300)])
    def test_dyson_beyond_node_cap_exits_two_and_writes_nothing(self, tmp_path, capsys,
                                                                orders, panels):
        # (2 panels + 1)^depth nodes, depth at least 2 for the Pitaron expansion
        config = json.loads(json.dumps(DYSON_CONFIG))
        config["params"].update(orders=orders, panels=panels)
        path = write_config(tmp_path, "dyson_cap.json", config)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert "above the cap of 10000000" in capsys.readouterr().err
        assert not list(tmp_path.glob("dyson_run*"))

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
        (DYSON_CONFIG, "params", "T_list", []),
        (PAULI_CONFIG, None, "output_path", "../escaped/x"),
        (PAULI_CONFIG, None, "output_path", "a/../../x"),
        (PAULI_CONFIG, None, "output_path", "ABSOLUTE"),
    ], ids=["psi0-object", "f1-list", "t1-huge-int", "orders-empty", "T_list-empty", "output-dotdot",
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
