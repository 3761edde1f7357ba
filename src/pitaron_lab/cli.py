"""Command-line front door: JSON experiment configs in, CSV + summary out.

Every run writes <output_path>.csv with plot-ready columns and
<output_path>.summary.json with scalar diagnostics.  Configs are
validated against a strict per-kind schema (unknown keys are rejected)
and the pipeline is deterministic for a given config, so re-running
byte-reproduces the CSV.

Exit codes: 0 success (warnings go to the summary), 2 config or schema
error, including parameters the library rejects (a ``ValueError`` such
as t1 <= t0), 3 numerical failure (ill-conditioned propagator and
friends).  Once every config has loaded, each one runs on its own: a
failing config writes nothing, the others still run, and the largest
code is returned.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import hamiltonian as ham
from . import picard as pic
from . import propagation as prop
from . import series
from . import singular_dynamics as sing

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "run_experiment", "main"]

KINDS = ("evolve", "nhse", "comb", "dyson", "picard", "counterexample")


class ConfigError(ValueError):
    """Config file violates the schema; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: dict
    output_path: str
    seed: int = 42


def _fail(msg: str) -> None:
    raise ConfigError(msg)


def _require_keys(params: dict, required: set[str], optional: set[str], where: str) -> None:
    keys = set(params)
    unknown = keys - required - optional
    if unknown:
        _fail(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - keys
    if missing:
        _fail(f"missing keys in {where}: {sorted(missing)}")


def _finite_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{where} must be a number, got {value!r}")
    if not math.isfinite(value):
        _fail(f"{where} must be finite, got {value!r}")
    return float(value)


def _finite_list(value, where: str) -> list[float]:
    if not isinstance(value, list):
        _fail(f"{where} must be a list of numbers")
    return [_finite_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _positive_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        _fail(f"{where} must be a positive integer, got {value!r}")
    return value


_SCHEMAS = {
    "evolve": ({"model", "t0", "t1", "grid_points", "steps_per_cell"},
               {"f1", "f2", "f3", "matrix", "psi0"}),
    "nhse": ({"l", "onsite", "hop", "gamma", "t0", "t1", "grid_points", "steps_per_cell"},
             {"psi0"}),
    "comb": ({"strengths", "times", "dim", "t0", "t1", "grid_points", "steps_per_cell"},
             set()),
    "dyson": ({"T_list", "orders", "panels"}, set()),
    "picard": ({"problem"}, {"g", "x1", "n_max", "grid", "a", "epsilon"}),
    "counterexample": ({"demo"}, {"t1", "t", "pairs", "kind", "panels", "n_list"}),
}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return validate_config(raw, where=str(path))


def validate_config(raw, where: str = "config") -> ExperimentConfig:
    if not isinstance(raw, dict):
        _fail(f"{where}: top level must be an object")
    _require_keys(raw, {"kind", "params", "output_path"}, {"seed"}, where)
    kind = raw["kind"]
    if kind not in KINDS:
        _fail(f"{where}: unknown kind {kind!r}, expected one of {KINDS}")
    params = raw["params"]
    if not isinstance(params, dict):
        _fail(f"{where}: params must be an object")
    if not isinstance(raw["output_path"], str) or not raw["output_path"]:
        _fail(f"{where}: output_path must be a non-empty string")
    seed = raw.get("seed", 42)
    if isinstance(seed, bool) or not isinstance(seed, int):
        _fail(f"{where}: seed must be an integer")
    required, optional = _SCHEMAS[kind]
    _require_keys(params, required, optional, f"{where}.params")
    return ExperimentConfig(kind=kind, params=params, output_path=raw["output_path"], seed=seed)


# ---------------------------------------------------------------------------
# experiment runners


def _time_profile(name, where: str):
    if isinstance(name, (int, float)) and not isinstance(name, bool):
        return _finite_number(name, where)
    profiles = {"cos": np.cos, "sin": np.sin, "t": lambda t: t}
    if name not in profiles:
        _fail(f"{where} must be a number or one of {sorted(profiles)}")
    return profiles[name]


def _parse_matrix(data, where: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        _fail(f"{where} must be a nested list of [re, im] pairs")
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        _fail(f"{where} must have shape (dim, dim, 2), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        _fail(f"{where} contains non-finite entries")
    return arr[..., 0] + 1j * arr[..., 1]


def _parse_psi0(value, dim: int, rng: np.random.Generator, where: str) -> np.ndarray:
    if value is None or value == "boundary":
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
        return psi
    if value == "random":
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    arr = np.asarray(value, dtype=float)
    if arr.shape != (dim, 2):
        _fail(f"{where} must be 'boundary', 'random' or a list of {dim} [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def _trajectory_rows(traj: prop.Trajectory, n_trunc=None):
    rows = []
    for i, snap in enumerate(traj.snapshots):
        row = {
            "t": traj.grid[i],
            "defect_U": snap.defect_U,
            "defect_P": snap.defect_P,
            "n_distance": traj.n_distance[i],
            "z_factor": traj.z_factors[i] if traj.z_factors is not None else 1.0,
        }
        if n_trunc is not None:
            row["n_trunc"] = n_trunc(traj.grid[i])
        rows.append(row)
    return rows


def _run_evolve(cfg: ExperimentConfig):
    p = cfg.params
    model = p["model"]
    rng = np.random.default_rng(cfg.seed)
    if model == "pauli":
        for key in ("f1", "f2", "f3"):
            if key not in p:
                _fail(f"evolve model 'pauli' needs {key}")
        spec = ham.pauli_hamiltonian(
            _time_profile(p["f1"], "params.f1"),
            _time_profile(p["f2"], "params.f2"),
            _time_profile(p["f3"], "params.f3"),
        )
    elif model == "constant":
        if "matrix" not in p:
            _fail("evolve model 'constant' needs matrix")
        h = _parse_matrix(p["matrix"], "params.matrix")
        spec = ham.HamiltonianSpec.constant(h)
    else:
        _fail(f"unknown evolve model {model!r}")
    t0 = _finite_number(p["t0"], "params.t0")
    t1 = _finite_number(p["t1"], "params.t1")
    psi0 = _parse_psi0(p.get("psi0"), spec.dim, rng, "params.psi0")
    traj = prop.evolve_trajectory(
        spec, t0, t1,
        _positive_int(p["grid_points"], "params.grid_points"),
        _positive_int(p["steps_per_cell"], "params.steps_per_cell"),
        psi0=psi0,
    )
    warnings = []
    comm = max(
        ham.hermitian_split(spec.sample(t)).commutator_norm
        for t in np.linspace(t0, t1, 7)[1:]
    )
    if comm > 1e-10:
        warnings.append(
            f"Hermitian/anti-Hermitian split does not commute (norm {comm:.3e}); "
            "the closed-form evolution law for N is only exact in the commuting regime"
        )
    scalars = {
        "max_n_distance": float(traj.n_distance.max()),
        "max_abs_z_minus_1": float(np.abs(traj.z_factors - 1.0).max()),
        "final_defect_U": traj.snapshots[-1].defect_U,
        "final_defect_P": traj.snapshots[-1].defect_P,
        "max_cond_U": max(s.cond_U for s in traj.snapshots),
    }
    return _trajectory_rows(traj), scalars, warnings


def _run_nhse(cfg: ExperimentConfig):
    p = cfg.params
    rng = np.random.default_rng(cfg.seed)
    l = _positive_int(p["l"], "params.l")
    h = ham.nhse_hamiltonian(
        l,
        _finite_number(p["onsite"], "params.onsite"),
        p["hop"] if isinstance(p["hop"], list) else _finite_number(p["hop"], "params.hop"),
        p["gamma"] if isinstance(p["gamma"], list) else _finite_number(p["gamma"], "params.gamma"),
    )
    spec = ham.HamiltonianSpec.constant(h)
    psi0 = _parse_psi0(p.get("psi0", "boundary"), l, rng, "params.psi0")
    traj = prop.evolve_trajectory(
        spec,
        _finite_number(p["t0"], "params.t0"),
        _finite_number(p["t1"], "params.t1"),
        _positive_int(p["grid_points"], "params.grid_points"),
        _positive_int(p["steps_per_cell"], "params.steps_per_cell"),
        psi0=psi0,
    )
    warnings = []
    split = ham.hermitian_split(h)
    if split.commutator_norm > 1e-10:
        warnings.append(
            f"split commutator norm {split.commutator_norm:.3e} > 0: "
            "reported, not asserted"
        )
    scalars = {
        "hermiticity_defect": float(np.linalg.norm(h - h.conj().T)),
        "split_commutator_norm": split.commutator_norm,
        "final_defect_U": traj.snapshots[-1].defect_U,
        "final_defect_P": traj.snapshots[-1].defect_P,
        "final_z_factor": float(traj.z_factors[-1]),
        "max_n_distance": float(traj.n_distance.max()),
    }
    return _trajectory_rows(traj), scalars, warnings


def _run_comb(cfg: ExperimentConfig):
    p = cfg.params
    strengths = _finite_list(p["strengths"], "params.strengths")
    times = _finite_list(p["times"], "params.times")
    spec = ham.dirac_comb_spec(strengths, times, _positive_int(p["dim"], "params.dim"))
    t1 = _finite_number(p["t1"], "params.t1")
    traj = prop.evolve_trajectory(
        spec,
        _finite_number(p["t0"], "params.t0"),
        t1,
        _positive_int(p["grid_points"], "params.grid_points"),
        _positive_int(p["steps_per_cell"], "params.steps_per_cell"),
        psi0=_parse_psi0(None, spec.dim, np.random.default_rng(cfg.seed), "psi0"),
    )
    report = sing.comb_expansion_terms(strengths, times, t1)
    pit_re, pit_im = sing.comb_pitaron_expansion(strengths, times, t1)
    warnings = [
        f"{len(report.indefinite)} indefinite delta-step integrals flagged in the "
        "raw expansion; they have no canonical value and were not evaluated"
    ] if report.indefinite else []
    scalars = {
        "final_n_trunc": sing.comb_truncated_norm(strengths, times, t1),
        "indefinite_flags": len(report.indefinite),
        "pitaron_expansion_re": pit_re,
        "pitaron_expansion_im": pit_im,
        "final_defect_P": traj.snapshots[-1].defect_P,
    }
    rows = _trajectory_rows(traj, n_trunc=lambda t: sing.comb_truncated_norm(strengths, times, t))
    return rows, scalars, warnings


def _run_dyson(cfg: ExperimentConfig):
    p = cfg.params
    T_list = _finite_list(p["T_list"], "params.T_list")
    orders = p["orders"]
    if not isinstance(orders, list) or not all(
        isinstance(o, int) and not isinstance(o, bool) and 0 <= o <= series.MAX_ORDER
        for o in orders
    ):
        _fail(f"params.orders must be a list of integers in [0, {series.MAX_ORDER}]")
    panels = _positive_int(p["panels"], "params.panels")
    spec = ham.HamiltonianSpec.constant(ham.SIGMA1)
    rows = []
    for T in T_list:
        exact = prop.step_propagator(spec, 0.0, T, 1)  # constant H: single exact factor
        pit = series.general_pitaron_expansion(spec, 0.0, T, panels)
        dyson = series.dyson_u(spec, 0.0, T, max(orders, default=0), panels)
        for order in orders:
            partial = dyson.partial_sums[order]
            pit_partial = pit.partial_sums[min(order, 2)]
            rows.append({
                "T": T,
                "order": order,
                "err_partial": float(np.linalg.norm(partial - exact)),
                "defect_partial": float(np.linalg.norm(partial.conj().T @ partial - np.eye(2))),
                "err_pitaron_expansion": float(np.linalg.norm(pit_partial - exact)),
            })
    scalars = {}
    for order in orders:
        errs = [r["err_partial"] for r in rows if r["order"] == order]
        if len(T_list) >= 2 and max(errs) > 1e-13:
            slope, _ = np.polyfit(np.log(T_list), np.log(errs), 1)
            scalars[f"slope_order_{order}"] = float(slope)
    return rows, scalars, []


def _run_picard(cfg: ExperimentConfig):
    p = cfg.params
    problem = p["problem"]
    if problem == "exponential":
        for key in ("g", "x1", "n_max", "grid"):
            if key not in p:
                _fail(f"picard problem 'exponential' needs {key}")
        g = _finite_number(p["g"], "params.g")
        x1 = _finite_number(p["x1"], "params.x1")
        n_max = _positive_int(p["n_max"], "params.n_max")
        run = pic.picard_iterate(
            lambda x, y: g * y, 1.0, 0.0, x1, n_max,
            _positive_int(p["grid"], "params.grid"),
            reference=lambda x: np.exp(g * x),
        )
        m = math.exp(g * x1)
        rows = [
            {"n": n, "sup_error": float(run.errors[n]),
             "bound": pic.error_bound(m, g if g > 0 else 1.0, x1, n) if n >= 1 else float("nan")}
            for n in range(n_max + 1)
        ]
        scalars = {"final_sup_error": float(run.errors[-1])}
        return rows, scalars, []
    if problem == "delta_breakdown":
        for key in ("a", "epsilon", "x1", "grid"):
            if key not in p:
                _fail(f"picard problem 'delta_breakdown' needs {key}")
        report = pic.picard_delta_breakdown(
            _finite_number(p["a"], "params.a"),
            _finite_number(p["epsilon"], "params.epsilon"),
            _finite_number(p["x1"], "params.x1"),
            grid=_positive_int(p["grid"], "params.grid"),
        )
        rows = [
            {"eps1": e, "eps2": e, "second_iterate": v}
            for e, v in zip(report.eps_sequence, report.symmetric_second_iterates)
        ] + [
            {"eps1": pair[0], "eps2": pair[1], "second_iterate": v}
            for pair, v in zip(report.asymmetric_pairs, report.asymmetric_second_iterates)
        ]
        scalars = {
            "asymmetric_spread": report.asymmetric_spread,
            "direct_value": report.direct_value,
        }
        warnings = [
            "second iterate of the smeared delta problem has no unique width->0 "
            f"limit (spread {report.asymmetric_spread:.3f}); the direct solution "
            f"is {report.direct_value:.6f}"
        ]
        return rows, scalars, warnings
    _fail(f"unknown picard problem {problem!r}")


def _run_counterexample(cfg: ExperimentConfig):
    p = cfg.params
    demo = p["demo"]
    if demo == "smearing":
        for key in ("t1", "t", "pairs", "kind", "panels"):
            if key not in p:
                _fail(f"counterexample demo 'smearing' needs {key}")
        if p["kind"] not in sing.SMEARING_KINDS:
            _fail(f"params.kind must be one of {sing.SMEARING_KINDS}")
        pairs = p["pairs"]
        if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in pairs
        ):
            _fail("params.pairs must be a list of [eps1, eps2] pairs")
        rows = []
        for pair in pairs:
            e1 = _finite_number(pair[0], "params.pairs")
            e2 = _finite_number(pair[1], "params.pairs")
            value = sing.smeared_second_order(
                e1, e2, p["kind"],
                _finite_number(p["t1"], "params.t1"),
                _finite_number(p["t"], "params.t"),
                panels=_positive_int(p["panels"], "params.panels"),
            )
            rows.append({"eps1": e1, "eps2": e2, "value": value})
        values = [r["value"] for r in rows]
        scalars = {"min_value": min(values), "max_value": max(values)}
        warnings = []
        if max(values) - min(values) > 0.1:
            warnings.append(
                "smeared second-order term depends on the limit path: spread "
                f"{max(values) - min(values):.3f} across width pairs"
            )
        return rows, scalars, warnings
    if demo == "dominated":
        if "n_list" not in p:
            _fail("counterexample demo 'dominated' needs n_list")
        n_list = p["n_list"]
        if not isinstance(n_list, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in n_list
        ):
            _fail("params.n_list must be a list of integers >= 1")
        report = sing.dominated_convergence_demos(n_list)
        rows = [
            {"n": n, "family1_integral": f1, "family2_integral": f2,
             "family1_at_1": p1, "family2_at_1": p2}
            for n, f1, f2, p1, p2 in zip(
                report.n_values, report.family1_integrals, report.family2_integrals,
                report.family1_at_1, report.family2_at_1)
        ]
        scalars = {
            "family1_limit_of_integrals": report.family1_integrals[-1],
            "family2_limit_of_integrals": report.family2_integrals[-1],
        }
        warnings = [
            "integral of the pointwise limit (0) differs from the limit of the "
            "integrals: dominated convergence fails for both families"
        ]
        return rows, scalars, warnings
    _fail(f"unknown counterexample demo {demo!r}")


_RUNNERS = {
    "evolve": _run_evolve,
    "nhse": _run_nhse,
    "comb": _run_comb,
    "dyson": _run_dyson,
    "picard": _run_picard,
    "counterexample": _run_counterexample,
}


# ---------------------------------------------------------------------------
# output plumbing


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


def _write_csv(path: Path, rows: list[dict]) -> None:
    columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n")


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    """Execute one experiment; returns the summary dict it also writes."""
    started = time.perf_counter()
    rows, scalars, warnings = _RUNNERS[cfg.kind](cfg)
    base = Path(out_dir) / cfg.output_path if out_dir is not None else Path(cfg.output_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(base.with_suffix(".csv"), rows)
    summary = {
        "kind": cfg.kind,
        "params": cfg.params,
        "seed": cfg.seed,
        "results": scalars,
        "warnings": warnings,
        "wall_time_ms": (time.perf_counter() - started) * 1000.0,
    }
    base.with_suffix(".summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return summary


# ---------------------------------------------------------------------------
# builtin demos


DEMOS = {
    "dimb": {
        "kind": "comb",
        "output_path": "dimb",
        "params": {"strengths": [0.6, 1.0, 1.2, 0.8], "times": [1.0, 2.0, 3.0, 4.0],
                   "dim": 1, "t0": 0.0, "t1": 5.0, "grid_points": 51, "steps_per_cell": 4},
    },
    "nhse2": {
        "kind": "nhse",
        "output_path": "nhse2",
        "params": {"l": 2, "onsite": 0.0, "hop": 1.0, "gamma": 0.5,
                   "t0": 0.0, "t1": 2.0, "grid_points": 41, "steps_per_cell": 20},
    },
    "pauli": {
        "kind": "evolve",
        "output_path": "pauli",
        "params": {"model": "pauli", "f1": "cos", "f2": "sin", "f3": 0.5,
                   "t0": 0.0, "t1": 2.0, "grid_points": 21, "steps_per_cell": 100},
    },
    "picard-exp": {
        "kind": "picard",
        "output_path": "picard_exp",
        "params": {"problem": "exponential", "g": 1.0, "x1": 1.0, "n_max": 12,
                   "grid": 20001},
    },
    "smearing": {
        "kind": "counterexample",
        "output_path": "smearing",
        "params": {"demo": "smearing", "t1": 1.0, "t": 2.0, "kind": "causal",
                   "panels": 2000,
                   "pairs": [[1e-2, 1e-2], [1e-3, 1e-1], [1e-1, 1e-3]]},
    },
    "dominated": {
        "kind": "counterexample",
        "output_path": "dominated",
        "params": {"demo": "dominated", "n_list": [1, 5, 10, 50, 100]},
    },
}


def _run_paths(config_paths, out_dir, jobs: int) -> int:
    configs = []
    for path in config_paths:
        try:
            configs.append((path, load_config(path)))
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2

    def one(item):
        path, cfg = item
        try:
            summary = run_experiment(cfg, out_dir)
        except (np.linalg.LinAlgError, FloatingPointError, ZeroDivisionError) as exc:
            print(f"numerical failure in {path}: {exc}", file=sys.stderr)
            return 3
        except ValueError as exc:  # ConfigError or a library argument check
            print(f"config error in {path}: {exc}", file=sys.stderr)
            return 2
        for warning in summary["warnings"]:
            print(f"warning [{cfg.output_path}]: {warning}")
        print(f"wrote {cfg.output_path}.csv and {cfg.output_path}.summary.json "
              f"({summary['wall_time_ms']:.0f} ms)")
        return 0

    if jobs > 1 and len(configs) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            codes = list(pool.map(one, configs))
    else:
        codes = [one(item) for item in configs]
    return max(codes, default=0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pitaron-lab",
        description="unitarized time evolution experiments: JSON config in, CSV out",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one or more config files")
    run_p.add_argument("configs", nargs="+", help="JSON config paths")
    run_p.add_argument("--jobs", type=int, default=1, help="parallel config fan-out")
    run_p.add_argument("--out", default=None, help="output directory")
    demo_p = sub.add_parser("demo", help="run a builtin demo config")
    demo_p.add_argument("name", choices=sorted(DEMOS))
    demo_p.add_argument("--out", default=None, help="output directory")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _run_paths(args.configs, args.out, args.jobs)
    cfg = validate_config(DEMOS[args.name], where=f"demo:{args.name}")
    try:
        summary = run_experiment(cfg, args.out)
    except (np.linalg.LinAlgError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for warning in summary["warnings"]:
        print(f"warning: {warning}")
    print(f"wrote {cfg.output_path}.csv and {cfg.output_path}.summary.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
