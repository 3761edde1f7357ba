"""Tests of the benchmark itself: generator, output checks and span arithmetic.

    python -m pytest benchmarks
"""

import json
import math

import numpy as np
import pytest

import pitaron_lab
from pitaron_lab import cli, linalg, propagation

import calibration
import workloads
from checks import PROFILES, Checker, check_final_u, midpoint_factors
from spans import Tracer, has_ancestor, self_times


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.make_configs(workload, 7)
    assert json.dumps(first) == json.dumps(workloads.make_configs(workload, 7))
    assert json.dumps(first) != json.dumps(workloads.make_configs(workload, 8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_configs_validate(workload):
    for config in workloads.make_configs(workload, 3):
        cli.validate_config(config)


def _run(tmp_path, config):
    path = tmp_path / f"{config['output_path']}.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
    return tmp_path / config["output_path"]


def _edit_cell(base, column, change, row=-1):
    path = base.with_suffix(".csv")
    lines = path.read_text().strip().split("\n")
    col = lines[0].split(",").index(column)
    cells = lines[row].split(",")
    cells[col] = f"{change(float(cells[col])):.12e}"
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _edit_result(base, key, value):
    path = base.with_suffix(".summary.json")
    summary = json.loads(path.read_text())
    summary["results"][key] = value
    path.write_text(json.dumps(summary))


def _config(variant):
    rng = np.random.default_rng(5)
    if variant == "drive":
        return workloads.drive_config(rng, variant)
    if variant == "lattice":
        return workloads.lattice_config(rng, variant, 16, 3, 4)
    return workloads.quadrature_config(rng, variant, variant)


CORRUPTIONS = {
    "drive": lambda b: _edit_cell(b, "z_factor", lambda z: z + 1e-6),
    "lattice": lambda b: _edit_cell(b, "z_factor", lambda z: z * (1 + 1e-9)),
    "smearing": lambda b: _edit_cell(b, "value", lambda v: v + 1e-2, row=1),
    "comb": lambda b: _edit_cell(b, "n_trunc", lambda v: v + 1e-9),
    "dominated": lambda b: _edit_cell(b, "family2_integral", lambda v: v + 1e-6),
    "picard_exponential": lambda b: _edit_cell(b, "sup_error", lambda v: 1e3, row=2),
    "picard_delta_breakdown": lambda b: _edit_result(b, "asymmetric_spread", 0.3),
    "dyson": lambda b: _edit_result(b, "slope_order_2", 2.5),
}


@pytest.mark.parametrize("variant", sorted(CORRUPTIONS))
def test_checks_pass_real_output_and_flag_a_corrupted_one(tmp_path, variant):
    config = _config(variant)
    base = _run(tmp_path, config)
    assert Checker().check(0, config, tmp_path) == []
    CORRUPTIONS[variant](base)
    assert Checker().check(0, config, tmp_path) != []


def test_lattice_defect_p_beyond_its_budget_is_flagged(tmp_path):
    config = _config("lattice")
    base = _run(tmp_path, config)
    _edit_cell(base, "defect_P", lambda v: 1e-6, row=2)  # early, where cond_U ~ 1
    assert any("budget" in p for p in Checker().check(0, config, tmp_path))


def test_missing_output_is_flagged(tmp_path):
    assert Checker().check(0, _config("comb"), tmp_path) != []


def test_wrongly_ordered_product_is_caught():
    config = {"kind": "evolve", "output_path": "d", "params": {
        "model": "pauli", "f1": "cos", "f2": "sin", "f3": 0.5, "t0": 0.0, "t1": 2.0,
        "grid_points": 5, "steps_per_cell": 10}}
    p = config["params"]
    spec = pitaron_lab.pauli_hamiltonian(*(PROFILES[p[f]] if isinstance(p[f], str) else p[f]
                                           for f in ("f1", "f2", "f3")))
    traj = pitaron_lab.evolve_trajectory(spec, 0.0, 2.0, 5, 10)
    assert check_final_u(config, traj.snapshots[-1].U) == []
    reversed_u = np.eye(2, dtype=complex)
    for factor in midpoint_factors(config):
        reversed_u = reversed_u @ factor
    assert linalg.unitarity_defect(reversed_u) < 1e-12
    assert check_final_u(config, reversed_u) != []


def test_self_time_on_a_synthetic_span_tree():
    # 0 root [0, 10]; 1 [1, 4] and 2 [3, 6] overlap; 3 [2, 3] inside 1;
    # 4 [8, 12] runs past the root's end and is clipped to [8, 10].
    start = [0.0, 1.0, 3.0, 2.0, 8.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    own = self_times(start, end, parent)
    assert own.tolist() == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])
    flagged = np.array([False, True])
    assert has_ancestor(parent, [0, 1, 0, 0, 0], flagged).tolist() == [
        False, False, False, True, False]


def test_host_speed_scales_by_the_kernel_runs_around_an_interval():
    speed = calibration.HostSpeed()
    ref = calibration.REFERENCE_S
    # kernel runs at 0.0-0.3 s, 1.0-1.3 s and 2.0-2.3 s; the middle pair is
    # twice as slow as the reference, and one outlier must not move the median
    speed.times = [0.0, 0.1, 0.2, 0.3, 1.0, 1.1, 1.2, 1.3, 2.0, 2.1, 2.2, 2.3]
    speed.seconds = [ref, 3 * ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref,
                     ref, 7 * ref, ref, ref]
    # between 0.3 and 1.0: two runs before (ref, ref), two after (2 ref, 2 ref)
    assert speed.local(0.35, 0.95) == pytest.approx(1.5 * ref)
    # between 1.3 and 2.0: (2 ref, 2 ref) before, (ref, 7 ref) after
    assert speed.normalise(1.35, 0.6) == pytest.approx(0.3)
    # after the last run, only the runs before count
    assert speed.local(2.4, 3.0) == pytest.approx(ref)
    assert calibration.HostSpeed().kernel() > 0


def test_tracer_counts_calls_and_restores_the_library():
    original = propagation.mat_exp
    tracer = Tracer()
    with tracer.installed():
        assert propagation.mat_exp is not original
        tracer.begin_experiment(0)
        spec = pitaron_lab.pauli_hamiltonian(1.0, 0.0, 0.0)
        propagation.step_propagator(spec, 0.0, 1.0, 4)
    assert propagation.mat_exp is original and linalg.mat_exp is original
    totals = tracer.layer_totals()
    assert totals["propagation.step_propagator"]["calls"] == 1
    assert totals["linalg.mat_exp"]["calls"] == 4
    assert totals["hamiltonian.sample"]["calls"] == 4
    # a constant H over equal substeps: the four exponent arguments coincide
    # up to the rounding of the substep widths
    assert 1 <= tracer.distinct_exp_args[0] <= 4
    assert tracer.distinct_sample_times[0] == 4
    assert all(math.isfinite(t["self_s"]) and t["self_s"] >= 0 for t in totals.values())


def test_comb_check_allows_the_csv_rounding_of_large_values(tmp_path):
    # after the last kick n_trunc = -36.34186794543..., which 13 significant
    # digits round by 4.7e-12, more than the 1e-12 pinned on in-memory values
    config = _config("comb")
    config["params"].update(strengths=[1.23456789012345] * 7,
                            times=[0.5 + 0.6 * i for i in range(7)])
    _run(tmp_path, config)
    assert Checker().check(0, config, tmp_path) == []
