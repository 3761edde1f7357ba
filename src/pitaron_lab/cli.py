"""Command-line front door: JSON experiment configs in, CSV + summary out.

Every run writes <output_path>.csv with plot-ready columns and
<output_path>.summary.json with scalar diagnostics.  ``KINDS`` is the
whole config schema: it maps each kind to its runner and to the typed
fields of each variant (``evolve.model``, ``picard.problem``,
``counterexample.demo``).  ``validate_config`` checks every key against
it (unknown and missing keys, types and ranges) and hands the runner
coerced values, so a runner only computes.  ``output_path`` must be a
relative path without ``..``, so outputs stay under ``--out``; lists that
make CSV rows (``T_list``, ``orders``, ``pairs``, ``n_list``) must be
non-empty.  Checks that join two keys (``psi0`` against the dimension, a
``hop`` list against ``l``, a kick at ``t0``) stay in the library, which
raises ``ValueError``.  A dyson config whose nested quadrature would
exceed ``DYSON_MAX_NODES`` nodes is rejected as a config error.  The
pipeline is deterministic for a given config, so re-running
byte-reproduces the CSV.

Exit codes: 0 success (warnings go to the summary), 2 config error: a
config that cannot be read, parsed or validated, parameters the library
rejects (a ``ValueError`` such as t1 <= t0), or outputs that cannot be
written (an ``OSError`` such as a file name too long), 3 numerical failure
(an ill-conditioned or overflowing propagator and friends).  Each config
is loaded and run on its own: a failing config writes nothing, the later
ones still run, and the largest code is returned.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import hamiltonian as ham
from . import picard as pic
from . import propagation as prop
from . import series
from . import singular_dynamics as sing
from .linalg import hermiticity_defect

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "validate_config",
           "run_experiment", "main"]


class ConfigError(ValueError):
    """Config file violates the schema; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: dict  # as written in the config; echoed into the summary
    output_path: str
    seed: int = 42
    values: dict = field(default_factory=dict, compare=False, repr=False)  # coerced params


# ---------------------------------------------------------------------------
# field types: each checks one value and returns it coerced for the runner


def _fail(msg: str):
    raise ConfigError(msg)


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        _fail(f"{where} must be finite, got {value!r}")
    return number


def _integer(low: int, high: float = math.inf):
    def check(value, where: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
            _fail(f"{where} must be an integer in [{low}, {high}], got {value!r}")
        return value
    return check


def _list_of(item, min_length: int = 1):
    def check(value, where: str) -> list:
        if not isinstance(value, list) or len(value) < min_length:
            _fail(f"{where} must be a list of at least {min_length} entries, got {value!r}")
        return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return check


def _choice(*options: str):
    def check(value, where: str) -> str:
        if value not in options:
            name = where.rsplit(".", 1)[-1]
            _fail(f"{where}: unknown {name} {value!r}, expected one of {options}")
        return value
    return check


_COUNT = _integer(1)
_NUMBERS = _list_of(_number)
# numpy ufuncs, so that a Pauli spec samples a whole time array in one call
_PROFILES = {"cos": np.cos, "sin": np.sin, "t": np.positive}
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# One nested Dyson pass of 10^7 nodes takes ~0.4 s on the runner's constant
# spec (2-vCPU host), while its memory stays within series._TREE_BYTES.
DYSON_MAX_NODES = 10**7


def _number_or_list(value, where: str):
    return _NUMBERS(value, where) if isinstance(value, list) else _number(value, where)


def _profile(value, where: str):
    """A constant coefficient, or the name of a time profile."""
    if isinstance(value, str):
        return _PROFILES[_choice(*_PROFILES)(value, where)]
    return _number(value, where)


def _width_pair(value, where: str) -> list[float]:
    pair = _NUMBERS(value, where)
    if len(pair) != 2:
        _fail(f"{where} must be an [eps1, eps2] pair, got {value!r}")
    return pair


def _complex_array(value, where: str, ndim: int, expected: str) -> np.ndarray:
    """Nested lists of [re, im] pairs of finite numbers as a complex array."""
    try:
        arr = np.array(value, dtype=object)
    except ValueError:  # ragged beyond what an object array holds
        arr = np.empty(())
    # ndim axes of [re, im] pairs; the last test makes a matrix (ndim 2) square
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2 or arr.shape[0] != arr.shape[ndim - 1]:
        _fail(f"{where} must be {expected}")
    for x in arr.flat:
        _number(x, where)
    arr = arr.astype(float)
    return arr[..., 0] + 1j * arr[..., 1]


def _matrix(value, where: str) -> np.ndarray:
    return _complex_array(value, where, 2, "a square matrix of [re, im] pairs")


def _psi0(value, where: str):
    """null or 'boundary' (the first basis vector), 'random', or [re, im] amplitudes."""
    if value in (None, "boundary", "random"):
        return value
    return _complex_array(value, where, 1, "'boundary', 'random' or a list of [re, im] pairs")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        _fail(f"{where} must be an object")
    return value


def _output_path(value, where: str) -> str:
    path = Path(value) if isinstance(value, str) and "\0" not in value else Path()
    if not path.parts or path.is_absolute() or ".." in path.parts:
        _fail(f"{where} must be a non-empty relative path without '..', got {value!r}")
    return value


# ---------------------------------------------------------------------------
# experiment runners: each reads cfg.values, already checked against KINDS


def _initial_state(psi0, dim: int, seed: int) -> np.ndarray:
    if isinstance(psi0, np.ndarray):
        return psi0
    if psi0 == "random":
        rng = np.random.default_rng(seed)
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    return psi


def _trajectory(spec: ham.HamiltonianSpec, cfg: ExperimentConfig) -> prop.Trajectory:
    v = cfg.values
    return prop.evolve_trajectory(
        spec, v["t0"], v["t1"], v["grid_points"], v["steps_per_cell"],
        psi0=_initial_state(v.get("psi0"), spec.dim, cfg.seed),
    )


def _trajectory_rows(traj: prop.Trajectory, n_trunc=None):
    rows = []
    for i, snap in enumerate(traj.snapshots):
        row = {
            "t": traj.grid[i],
            "defect_U": snap.defect_U,
            "defect_P": snap.defect_P,
            "n_distance": traj.n_distance[i],
            "z_factor": traj.z_factors[i],
        }
        if n_trunc is not None:
            row["n_trunc"] = n_trunc(traj.grid[i])
        rows.append(row)
    return rows


def _run_evolve(cfg: ExperimentConfig):
    v = cfg.values
    if v["model"] == "pauli":
        spec = ham.pauli_hamiltonian(v["f1"], v["f2"], v["f3"])
    else:
        spec = ham.HamiltonianSpec.constant(v["matrix"])
    traj = _trajectory(spec, cfg)
    warnings = []
    # a Pauli H is Hermitian at every time (J = 0), so only a constant matrix can warn
    comm = 0.0 if v["model"] == "pauli" else ham.hermitian_split(v["matrix"]).commutator_norm
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
    v = cfg.values
    h = ham.nhse_hamiltonian(v["l"], v["onsite"], v["hop"], v["gamma"])
    traj = _trajectory(ham.HamiltonianSpec.constant(h), cfg)
    warnings = []
    split = ham.hermitian_split(h)
    if split.commutator_norm > 1e-10:
        warnings.append(
            f"split commutator norm {split.commutator_norm:.3e} > 0: "
            "reported, not asserted"
        )
    scalars = {
        "hermiticity_defect": hermiticity_defect(h),
        "split_commutator_norm": split.commutator_norm,
        "final_defect_U": traj.snapshots[-1].defect_U,
        "final_defect_P": traj.snapshots[-1].defect_P,
        "final_z_factor": float(traj.z_factors[-1]),
        "max_n_distance": float(traj.n_distance.max()),
    }
    return _trajectory_rows(traj), scalars, warnings


def _run_comb(cfg: ExperimentConfig):
    v = cfg.values
    strengths, times, t1 = v["strengths"], v["times"], v["t1"]
    traj = _trajectory(ham.dirac_comb_spec(strengths, times, v["dim"]), cfg)
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
    v = cfg.values
    T_list, orders, panels = v["T_list"], v["orders"], v["panels"]
    depth = max(2, *orders)  # the Pitaron expansion is a depth-2 pass of its own
    if (2 * panels + 1) ** depth > DYSON_MAX_NODES:
        _fail(f"dyson panels {panels} at depth {depth} make a nested quadrature of "
              f"(2 panels + 1)^{depth} nodes, above the cap of {DYSON_MAX_NODES}")
    spec = ham.HamiltonianSpec.constant(ham.SIGMA1)
    rows = []
    for T in T_list:
        exact = prop.step_propagator(spec, 0.0, T, 1)  # constant H: single exact factor
        pit = series.general_pitaron_expansion(spec, 0.0, T, panels)
        dyson = series.dyson_u(spec, 0.0, T, max(orders), panels)
        for order in orders:
            partial_sum = dyson.partial_sums[order]
            pit_partial = pit.partial_sums[min(order, 2)]
            rows.append({
                "T": T,
                "order": order,
                "err_partial": float(np.linalg.norm(partial_sum - exact)),
                "defect_partial": float(np.linalg.norm(
                    partial_sum.conj().T @ partial_sum - np.eye(2))),
                "err_pitaron_expansion": float(np.linalg.norm(pit_partial - exact)),
            })
    scalars = {}
    for order in orders:
        errs = [r["err_partial"] for r in rows if r["order"] == order]
        if len(set(T_list)) >= 2 and max(errs) > 1e-13:
            slope, _ = np.polyfit(np.log(T_list), np.log(errs), 1)
            scalars[f"slope_order_{order}"] = float(slope)
    return rows, scalars, []


def _run_picard(cfg: ExperimentConfig):
    v = cfg.values
    if v["problem"] == "exponential":
        g, x1, n_max = v["g"], v["x1"], v["n_max"]

        def reference(x):
            # an exact solution beyond the float range is a numerical failure
            with np.errstate(over="raise"):
                return np.exp(g * x)

        run = pic.picard_iterate(lambda x, y: g * y, 1.0, 0.0, x1, n_max, v["grid"],
                                 reference=reference)
        # |y_n| <= e^{|g| x} on [0, x1], so K = max(|g|, 1) is a Lipschitz
        # constant of f = g y and M = K e^{|g| x1} bounds |f| for every finite
        # g; log M decides whether M is a float, and a bound that is not is inf
        k = max(abs(g), 1.0)
        m = k * math.exp(abs(g) * x1) if math.log(k) + abs(g) * x1 < _LOG_FLOAT_MAX else math.inf

        def bound(n: int) -> float:
            try:
                return pic.error_bound(m, k, x1, n)
            except OverflowError:
                return math.inf

        rows = [
            {"n": n, "sup_error": float(run.errors[n]),
             "bound": bound(n) if n >= 1 else float("nan")}
            for n in range(n_max + 1)
        ]
        scalars = {"final_sup_error": float(run.errors[-1])}
        return rows, scalars, []
    report = pic.picard_delta_breakdown(v["a"], v["epsilon"], v["x1"], grid=v["grid"])
    rows = [
        {"eps1": e, "eps2": e, "second_iterate": val}
        for e, val in zip(report.eps_sequence, report.symmetric_second_iterates)
    ] + [
        {"eps1": pair[0], "eps2": pair[1], "second_iterate": val}
        for pair, val in zip(report.asymmetric_pairs, report.asymmetric_second_iterates)
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


def _run_counterexample(cfg: ExperimentConfig):
    v = cfg.values
    if v["demo"] == "smearing":
        rows = [
            {"eps1": e1, "eps2": e2,
             "value": sing.smeared_second_order(e1, e2, v["kind"], v["t1"], v["t"],
                                                panels=v["panels"])}
            for e1, e2 in v["pairs"]
        ]
        values = [r["value"] for r in rows]
        scalars = {"min_value": min(values), "max_value": max(values)}
        warnings = []
        if max(values) - min(values) > 0.1:
            warnings.append(
                "smeared second-order term depends on the limit path: spread "
                f"{max(values) - min(values):.3f} across width pairs"
            )
        return rows, scalars, warnings
    report = sing.dominated_convergence_demos(v["n_list"])
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


# ---------------------------------------------------------------------------
# the schema


class _Kind(NamedTuple):
    run: Callable
    schemas: dict  # variant -> {key: field type}; a kind without variants has only None
    selector: str | None = None  # the params key that names the variant


_TRAJECTORY = {"t0": _number, "t1": _number, "grid_points": _COUNT, "steps_per_cell": _COUNT}

KINDS = {
    "evolve": _Kind(_run_evolve, {
        "pauli": {"f1": _profile, "f2": _profile, "f3": _profile, **_TRAJECTORY, "psi0": _psi0},
        "constant": {"matrix": _matrix, **_TRAJECTORY, "psi0": _psi0},
    }, selector="model"),
    "nhse": _Kind(_run_nhse, {None: {
        "l": _COUNT, "onsite": _number, "hop": _number_or_list, "gamma": _number_or_list,
        **_TRAJECTORY, "psi0": _psi0,
    }}),
    "comb": _Kind(_run_comb, {None: {
        "strengths": _list_of(_number, 0), "times": _list_of(_number, 0), "dim": _COUNT,
        **_TRAJECTORY,
    }}),
    "dyson": _Kind(_run_dyson, {None: {
        "T_list": _NUMBERS, "orders": _list_of(_integer(0, series.MAX_ORDER)), "panels": _COUNT,
    }}),
    "picard": _Kind(_run_picard, {
        "exponential": {"g": _number, "x1": _number, "n_max": _COUNT, "grid": _COUNT},
        "delta_breakdown": {"a": _number, "epsilon": _number, "x1": _number, "grid": _COUNT},
    }, selector="problem"),
    "counterexample": _Kind(_run_counterexample, {
        "smearing": {"t1": _number, "t": _number, "pairs": _list_of(_width_pair),
                     "kind": _choice(*sing.SMEARING_KINDS), "panels": _COUNT},
        "dominated": {"n_list": _list_of(_COUNT)},
    }, selector="demo"),
}

_CONFIG = {"kind": _choice(*KINDS), "params": _object, "output_path": _output_path,
           "seed": _integer(0)}
_DEFAULTS = {"seed": 42, "psi0": None}  # the optional keys


def _check(raw, fields: dict, where: str) -> dict:
    """Every key of ``raw`` checked against ``fields``; absent optional keys take defaults."""
    _object(raw, where)
    unknown = raw.keys() - fields.keys()
    if unknown:
        _fail(f"unknown keys in {where}: {sorted(unknown, key=str)}")
    missing = fields.keys() - raw.keys() - _DEFAULTS.keys()
    if missing:
        _fail(f"missing keys in {where}: {sorted(missing)}")
    return {key: check(raw[key], f"{where}.{key}") if key in raw else _DEFAULTS[key]
            for key, check in fields.items()}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, nested too deep
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return validate_config(raw, where=str(path))


def validate_config(raw, where: str = "config") -> ExperimentConfig:
    """Check a parsed config against ``KINDS``; the runner gets the coerced values."""
    top = _check(raw, _CONFIG, where)
    kind = KINDS[top["kind"]]
    fields = kind.schemas.get(None)
    if kind.selector:
        select = _choice(*kind.schemas)
        variant = select(top["params"].get(kind.selector), f"{where}.params.{kind.selector}")
        fields = {kind.selector: select, **kind.schemas[variant]}
    return ExperimentConfig(
        kind=top["kind"], params=top["params"], output_path=top["output_path"],
        seed=top["seed"], values=_check(top["params"], fields, f"{where}.params"),
    )


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
    """Execute one experiment; returns the summary dict it also writes.

    An ``OSError`` while writing is raised after both outputs are removed.
    """
    started = time.perf_counter()
    rows, scalars, warnings = KINDS[cfg.kind].run(cfg)
    base = Path(out_dir) / cfg.output_path if out_dir is not None else Path(cfg.output_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    csv_path = base.with_name(base.name + ".csv")
    summary_path = base.with_name(base.name + ".summary.json")
    try:
        _write_csv(csv_path, rows)
        summary = {
            "kind": cfg.kind,
            "params": cfg.params,
            "seed": cfg.seed,
            "results": scalars,
            "warnings": warnings,
            "wall_time_ms": (time.perf_counter() - started) * 1000.0,
        }
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except OSError:
        for path in (csv_path, summary_path):
            with contextlib.suppress(OSError):
                path.unlink()
        raise
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


def _run_config(where: str, load: Callable[[], ExperimentConfig], out_dir) -> int:
    """Load, validate and run one config; returns its exit code."""
    try:
        cfg = load()
        summary = run_experiment(cfg, out_dir)
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure in {where}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError or a library argument check
        print(f"config error in {where}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write the outputs of {where}: {exc}", file=sys.stderr)
        return 2
    for warning in summary["warnings"]:
        print(f"warning [{cfg.output_path}]: {warning}")
    print(f"wrote {cfg.output_path}.csv and {cfg.output_path}.summary.json "
          f"({summary['wall_time_ms']:.0f} ms)")
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building costs ~10x a parse."""
    parser = argparse.ArgumentParser(
        prog="pitaron-lab",
        description="unitarized time evolution experiments: JSON config in, CSV out",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one or more config files")
    run_p.add_argument("configs", nargs="+", help="JSON config paths")
    run_p.add_argument("--out", default=None, help="output directory")
    demo_p = sub.add_parser("demo", help="run a builtin demo config")
    demo_p.add_argument("name", choices=sorted(DEMOS))
    demo_p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "demo":
        where = f"demo:{args.name}"
        return _run_config(where, partial(validate_config, DEMOS[args.name], where), args.out)
    return max([_run_config(path, partial(load_config, path), args.out)
                for path in args.configs])


if __name__ == "__main__":
    raise SystemExit(main())
