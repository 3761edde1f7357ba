"""Command-line front door: JSON experiment configs in, CSV + summary out.

Every run writes <output_path>.csv with plot-ready columns and
<output_path>.summary.json with scalar diagnostics.  ``KINDS`` is the
whole config schema: it maps each kind to its runner and to the typed
fields of each variant (``evolve.model``, ``picard.problem``,
``counterexample.demo``).  ``validate_config`` checks every key against
it (unknown and missing keys, types and ranges) and hands the runner
coerced values, so a runner only computes: it returns its CSV as columns
(header to equal-length sequence), its summary scalars and its warnings.
``output_path`` must be a relative path without ``..``, so outputs stay
under ``--out``; lists that make CSV rows (``T_list``, ``orders``,
``pairs``, ``n_list``) must be non-empty, and ``orders`` distinct.
Checks that join two keys (``psi0`` against the dimension, a ``hop``
list against ``l``, a kick at ``t0``) stay in the library, which raises
``ValueError``.  The work caps join keys too, and belong to the schema:
a kind's ``limit`` checks the coerced values as a whole.  A dyson config
whose nested quadratures, one per length, would exceed
``DYSON_MAX_NODES`` nodes in all is a config error, and so is a
trajectory (evolve, nhse, comb) of more than ``TRAJECTORY_MAX_PIECES``
pieces (``grid_points`` x ``steps_per_cell``, counted for a constant
spec too, whose U does not depend on ``steps_per_cell``) or
``SNAPSHOT_MAX_ENTRIES`` snapshot entries, a comb of more
than ``COMB_MAX_ENTRIES`` kick entries, a Picard run beyond
``PICARD_MAX_ITERATES`` iterates or ``PICARD_MAX_ENTRIES`` iterate
entries, a smearing demo beyond ``SMEARING_MAX_PANELS`` panels (each
pair counting ``SMEARING_PAIR_PANELS`` more) or a dominated demo of more
than ``DOMINATED_MAX_N`` indices; no matrix or state is larger than
``MAX_DIM``.  So no integer a config holds can ask for unbounded work.
The pipeline is deterministic for a given config, so re-running
byte-reproduces the CSV.

Exit codes: 0 success (warnings go to the summary), 2 config error: a
config that cannot be read, parsed or validated, parameters the library
rejects (a ``ValueError`` such as t1 <= t0), or outputs that cannot be
written (an ``OSError`` such as a file name too long), 3 numerical failure
(an ill-conditioned or overflowing propagator, an exponential outside
``mat_exp``'s accuracy domain, and friends).  Each config is loaded and
run on its own: a failing config writes nothing, the later ones still
run, and the largest code is returned.
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
from .linalg import frob, hermiticity_defect, mat_exp, unitarity_defect

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


def _positive(value, where: str) -> float:
    number = _number(value, where)
    if not number > 0:
        _fail(f"{where} must be positive, got {value!r}")
    return number


def _integer(low: int, high: float = math.inf):
    def check(value, where: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
            _fail(f"{where} must be an integer in [{low}, {high}], got {value!r}")
        return value
    return check


def _list_of(item, min_length: int = 1, distinct: bool = False):
    def check(value, where: str) -> list:
        if not isinstance(value, list) or len(value) < min_length:
            _fail(f"{where} must be a list of at least {min_length} entries, got {value!r}")
        items = [item(v, f"{where}[{i}]") for i, v in enumerate(value)]
        if distinct and len(set(items)) < len(items):
            _fail(f"{where} must not repeat an entry, got {value!r}")
        return items
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
# Nested Dyson passes of 10^7 nodes in all (one per T_list length) take
# ~0.6 s on the runner's constant spec (shared 2-vCPU host); each pass
# stays within series._TREE_BYTES.
DYSON_MAX_NODES = 10**7
# The largest matrix or state of any config: nhse l, comb dim, a constant matrix, psi0.
MAX_DIM = 64
# grid_points x steps_per_cell of a trajectory.  Only a Pauli drive (dim 2)
# steps that many pieces: at the cap, one cell of 10^4 pieces takes 0.01 s
# and +2 MiB resident memory, 2*10^4 one-piece cells 0.2-0.4 s and +8 MiB;
# the CSV's Python values take 3 MiB after it (runner calls, shared 2-vCPU
# host).  A constant spec (constant model, nhse) is one exponential per
# cell whatever steps_per_cell is, and a comb steps only its kicks.
TRAJECTORY_MAX_PIECES = 2 * 10**4
# grid_points x dim^2, the entries of a trajectory's U stack (16 bytes
# each): at the cap, 128 snapshots of an l=64 chain take ~0.2 s and +9 MiB
# resident memory, 8 MiB of it that stack.
SNAPSHOT_MAX_ENTRIES = 2**19
# len(strengths) x dim^2, the entries of a comb's kick matrices.  At the
# cap, 2^17 kicks at dim 1 take 0.8-0.9 s and +31 MiB resident memory, of
# which building the spec and stepping take ~0.1 s and the comb closed forms
# ~0.02 s, the JSON in and out and the CSV the rest; 32 kicks at dim 64 take
# 0.1 s and +3.4 MiB (grid_points 20000 and 128, as above).
COMB_MAX_ENTRIES = 2**17
# len(pairs) x (panels + SMEARING_PAIR_PANELS) of a smearing demo.  Each
# pair is one smeared_second_order call over grids of 2 panels + 1 nodes:
# ~0.33 us and ~85 bytes per panel, and ~115 us per call, which the 512
# panels per pair stand for.  At the cap, one pair of 2^20 - 512 panels
# takes 0.30 s and +88 MiB resident memory, 2044 pairs of one panel 0.28 s
# and +0.1 MiB (runner calls, shared 2-vCPU host, as below).
SMEARING_MAX_PANELS = 2**20
SMEARING_PAIR_PANELS = 512
# (n_max + 1) x grid, the floats of a Picard run's iterate table (each of
# the delta breakdown's five runs stops at its second iterate, n_max = 2).
# At the cap, a breakdown at grid 349525 takes 0.11 s and +43 MiB, an
# exponential at n_max 12, grid 80659 0.02 s and +27 MiB.
PICARD_MAX_ENTRIES = 2**20
# n_max of a Picard exponential: its bound column takes one n! per iterate,
# which grows as n_max^2; at the cap, with grid 1047, the run takes 0.05 s.
PICARD_MAX_ITERATES = 1000
# len(n_list) of a dominated demo: each n is a Simpson rule of 2048 panels,
# ~40 us; at the cap the demo takes 0.33 s and +1 MiB.
DOMINATED_MAX_N = 2**13


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
    if arr.shape[0] > MAX_DIM:
        _fail(f"{where} has dimension {arr.shape[0]}, above the cap of {MAX_DIM}")
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


def _trajectory_columns(traj: prop.Trajectory) -> dict:
    """The CSV columns of a trajectory, one entry per snapshot."""
    return {"t": traj.grid, "defect_U": traj.defect_U, "defect_P": traj.defect_P,
            "n_distance": traj.n_distance, "z_factor": traj.z_factors}


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
        "final_defect_U": float(traj.defect_U[-1]),
        "final_defect_P": float(traj.defect_P[-1]),
        "max_cond_U": float(traj.cond_U.max()),
    }
    return _trajectory_columns(traj), scalars, warnings


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
        "final_defect_U": float(traj.defect_U[-1]),
        "final_defect_P": float(traj.defect_P[-1]),
        "final_z_factor": float(traj.z_factors[-1]),
        "max_n_distance": float(traj.n_distance.max()),
    }
    return _trajectory_columns(traj), scalars, warnings


def _run_comb(cfg: ExperimentConfig):
    v = cfg.values
    # converted once, not once per callee; each callee still checks its arrays
    strengths, times = (np.array(v[key], dtype=float) for key in ("strengths", "times"))
    t0, t1 = v["t0"], v["t1"]
    spec = ham.dirac_comb_spec(strengths, times, v["dim"])
    after = times > t0  # the kicks the trajectory steps, so the closed forms take those
    strengths, times = strengths[after], times[after]
    traj = _trajectory(spec, cfg)
    # np.linspace ends the grid at t1 exactly, so n_trunc[-1] is the value at t1
    n_trunc = sing.comb_truncated_norm(strengths, times, traj.grid)
    report = sing.comb_expansion_terms(strengths, times, t1)
    pit_re, pit_im = sing.comb_pitaron_expansion(strengths, times, t1)
    warnings = [
        f"{len(report.indefinite)} indefinite delta-step integrals flagged in the "
        "raw expansion; they have no canonical value and were not evaluated"
    ] if report.indefinite else []
    scalars = {
        "final_n_trunc": float(n_trunc[-1]),
        "indefinite_flags": len(report.indefinite),
        "pitaron_expansion_re": pit_re,
        "pitaron_expansion_im": pit_im,
        "final_defect_P": float(traj.defect_P[-1]),
    }
    return {**_trajectory_columns(traj), "n_trunc": n_trunc}, scalars, warnings


def _run_dyson(cfg: ExperimentConfig):
    v = cfg.values
    T_list, orders, panels = v["T_list"], v["orders"], v["panels"]
    spec = ham.HamiltonianSpec.constant(ham.SIGMA1)
    columns = {key: [] for key in
               ("T", "order", "err_partial", "defect_partial", "err_pitaron_expansion")}
    # constant H: the exact propagators, in one stacked call
    exacts = mat_exp(np.array([-1j * T * ham.SIGMA1 for T in T_list]))
    for T, exact in zip(T_list, exacts):
        dyson = series.dyson_u(spec, 0.0, T, max(orders), panels)
        pit = series.general_pitaron_expansion(dyson)
        sums, pit_sums = (np.array(e.partial_sums)[orders] for e in (dyson, pit))
        columns["T"] += [T] * len(orders)
        columns["order"] += orders
        columns["err_partial"] += frob(sums - exact).tolist()
        columns["defect_partial"] += unitarity_defect(sums).tolist()
        columns["err_pitaron_expansion"] += frob(pit_sums - exact).tolist()
    scalars = {}
    for i, order in enumerate(orders):  # the orders are distinct: each T repeats them in turn
        slope = series.log_log_slope(T_list, columns["err_partial"][i::len(orders)])
        if slope is not None:
            scalars[f"slope_order_{order}"] = slope
    return columns, scalars, []


def _run_picard(cfg: ExperimentConfig):
    v = cfg.values
    if v["problem"] == "exponential":
        g, x1, n_max = v["g"], v["x1"], v["n_max"]
        # an overflow in the iterates or in the exact solution raises FloatingPointError
        run = pic.picard_iterate(lambda x, y: g * y, 1.0, 0.0, x1, n_max, v["grid"],
                                 reference=lambda x: np.exp(g * x))
        # |y_n| <= e^{|g| x} on [0, x1], so K = max(|g|, 1) is a Lipschitz
        # constant of f = g y and M = K e^{|g| x1} bounds |f| for every finite
        # g; log M decides whether M is a float, and a bound that is not is inf
        k = max(abs(g), 1.0)
        m = k * math.exp(abs(g) * x1) if math.log(k) + abs(g) * x1 < _LOG_FLOAT_MAX else math.inf

        def bound(n: int) -> float:
            try:
                return pic.error_bound(m, k, x1, n)
            except FloatingPointError:
                return math.inf

        columns = {"n": range(n_max + 1), "sup_error": run.errors,
                   "bound": [math.nan, *map(bound, range(1, n_max + 1))]}
        scalars = {"final_sup_error": float(run.errors[-1])}
        return columns, scalars, []
    report = pic.picard_delta_breakdown(v["a"], v["epsilon"], v["x1"], grid=v["grid"])
    eps1, eps2 = zip(*report.asymmetric_pairs)
    columns = {
        "eps1": report.eps_sequence + eps1,
        "eps2": report.eps_sequence + eps2,
        "second_iterate": report.symmetric_second_iterates + report.asymmetric_second_iterates,
    }
    scalars = {
        "asymmetric_spread": report.asymmetric_spread,
        "direct_value": report.direct_value,
    }
    warnings = [
        "second iterate of the smeared delta problem has no unique width->0 "
        f"limit (spread {report.asymmetric_spread:.3f}); the direct solution "
        f"is {report.direct_value:.6f}"
    ]
    return columns, scalars, warnings


def _run_counterexample(cfg: ExperimentConfig):
    v = cfg.values
    if v["demo"] == "smearing":
        eps1, eps2 = zip(*v["pairs"])
        values = [sing.smeared_second_order(e1, e2, v["kind"], v["t1"], v["t"], panels=v["panels"])
                  for e1, e2 in v["pairs"]]
        scalars = {"min_value": min(values), "max_value": max(values)}
        warnings = []
        if max(values) - min(values) > 0.1:
            warnings.append(
                "smeared second-order term depends on the limit path: spread "
                f"{max(values) - min(values):.3f} across width pairs"
            )
        return {"eps1": eps1, "eps2": eps2, "value": values}, scalars, warnings
    report = sing.dominated_convergence_demos(v["n_list"])
    columns = {"n": report.n_values, "family1_integral": report.family1_integrals,
               "family2_integral": report.family2_integrals,
               "family1_at_1": report.family1_at_1, "family2_at_1": report.family2_at_1}
    scalars = {
        "family1_limit_of_integrals": report.family1_integrals[-1],
        "family2_limit_of_integrals": report.family2_integrals[-1],
    }
    warnings = [
        "integral of the pointwise limit (0) differs from the limit of the "
        "integrals: dominated convergence fails for both families"
    ]
    return columns, scalars, warnings


# ---------------------------------------------------------------------------
# the schema


class _Kind(NamedTuple):
    run: Callable
    schemas: dict  # variant -> {key: field type}; a kind without variants has only None
    selector: str | None = None  # the params key that names the variant
    limit: Callable | None = None  # (values, where): the work caps, on the coerced values


_TRAJECTORY = {"t0": _number, "t1": _number, "grid_points": _COUNT, "steps_per_cell": _COUNT}
_DIM = _integer(1, MAX_DIM)


def _trajectory_limit(dim: Callable[[dict], int]):
    """The caps of a trajectory whose matrices have dimension ``dim(values)``."""
    def check(v: dict, where: str) -> None:
        pieces = v["grid_points"] * v["steps_per_cell"]
        if pieces > TRAJECTORY_MAX_PIECES:
            _fail(f"{where}: grid_points x steps_per_cell = {pieces} pieces, "
                  f"above the cap of {TRAJECTORY_MAX_PIECES}")
        entries = v["grid_points"] * dim(v) ** 2
        if entries > SNAPSHOT_MAX_ENTRIES:
            _fail(f"{where}: grid_points x dim^2 = {entries} snapshot entries, "
                  f"above the cap of {SNAPSHOT_MAX_ENTRIES}")
    return check


def _comb_limit(v: dict, where: str) -> None:
    entries = len(v["strengths"]) * v["dim"] ** 2
    if entries > COMB_MAX_ENTRIES:
        _fail(f"{where}: kicks x dim^2 = {entries} kick entries, "
              f"above the cap of {COMB_MAX_ENTRIES}")
    _trajectory_limit(lambda v: v["dim"])(v, where)


def _picard_limit(v: dict, where: str) -> None:
    n_max = v["n_max"] if v["problem"] == "exponential" else 2
    entries = (n_max + 1) * v["grid"]
    if entries > PICARD_MAX_ENTRIES:
        _fail(f"{where}: (n_max + 1) x grid = {entries} iterate entries, "
              f"above the cap of {PICARD_MAX_ENTRIES}")


def _counterexample_limit(v: dict, where: str) -> None:
    if v["demo"] == "dominated":
        if len(v["n_list"]) > DOMINATED_MAX_N:
            _fail(f"{where}: n_list has {len(v['n_list'])} entries, "
                  f"above the cap of {DOMINATED_MAX_N}")
        return
    work = len(v["pairs"]) * (v["panels"] + SMEARING_PAIR_PANELS)
    if work > SMEARING_MAX_PANELS:
        _fail(f"{where}: pairs x (panels + {SMEARING_PAIR_PANELS}) = {work}, "
              f"above the cap of {SMEARING_MAX_PANELS}")


def _dyson_limit(v: dict, where: str) -> None:
    depth = max(v["orders"])  # the one pass per T also yields P through that order
    nodes = len(v["T_list"]) * (2 * v["panels"] + 1) ** depth
    if nodes > DYSON_MAX_NODES:
        _fail(f"{where}: dyson makes {len(v['T_list'])} nested quadratures of "
              f"(2 panels + 1)^{depth} nodes at panels {v['panels']}, above the cap of "
              f"{DYSON_MAX_NODES} in all")


KINDS = {
    "evolve": _Kind(_run_evolve, {
        "pauli": {"f1": _profile, "f2": _profile, "f3": _profile, **_TRAJECTORY, "psi0": _psi0},
        "constant": {"matrix": _matrix, **_TRAJECTORY, "psi0": _psi0},
    }, selector="model", limit=_trajectory_limit(
        lambda v: len(v["matrix"]) if v["model"] == "constant" else 2)),
    "nhse": _Kind(_run_nhse, {None: {
        "l": _DIM, "onsite": _number, "hop": _number_or_list, "gamma": _number_or_list,
        **_TRAJECTORY, "psi0": _psi0,
    }}, limit=_trajectory_limit(lambda v: v["l"])),
    "comb": _Kind(_run_comb, {None: {
        "strengths": _list_of(_number, 0), "times": _list_of(_number, 0), "dim": _DIM,
        **_TRAJECTORY,
    }}, limit=_comb_limit),
    "dyson": _Kind(_run_dyson, {None: {
        "T_list": _list_of(_positive),
        "orders": _list_of(_integer(0, series.MAX_ORDER), distinct=True), "panels": _COUNT,
    }}, limit=_dyson_limit),
    "picard": _Kind(_run_picard, {
        "exponential": {"g": _number, "x1": _number, "n_max": _integer(1, PICARD_MAX_ITERATES),
                        "grid": _COUNT},
        "delta_breakdown": {"a": _number, "epsilon": _number, "x1": _number, "grid": _COUNT},
    }, selector="problem", limit=_picard_limit),
    "counterexample": _Kind(_run_counterexample, {
        "smearing": {"t1": _number, "t": _number, "pairs": _list_of(_width_pair),
                     "kind": _choice(*sing.SMEARING_KINDS), "panels": _COUNT},
        "dominated": {"n_list": _list_of(_COUNT)},
    }, selector="demo", limit=_counterexample_limit),
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
    values = _check(top["params"], fields, f"{where}.params")
    if kind.limit:
        kind.limit(values, f"{where}.params")
    return ExperimentConfig(kind=top["kind"], params=top["params"],
                            output_path=top["output_path"], seed=top["seed"], values=values)


# ---------------------------------------------------------------------------
# output plumbing


def _write_csv(path: Path, columns: dict) -> None:
    """The header from the keys, then one line per row: floats as ``.12e``, the rest by ``str``."""
    # only numpy columns go through tolist: np.asarray([1, 2**63]) is float
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    with path.open("w") as f:
        f.write(",".join(columns) + "\n")
        for row in zip(*cells, strict=True):
            f.write(",".join(f"{x:.12e}" if isinstance(x, float) else str(x) for x in row) + "\n")


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    """Execute one experiment; returns the summary dict it also writes.

    An error while writing is raised after both outputs are removed.
    """
    started = time.perf_counter()
    columns, scalars, warnings = KINDS[cfg.kind].run(cfg)
    base = Path(out_dir) / cfg.output_path if out_dir is not None else Path(cfg.output_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    csv_path = base.with_name(base.name + ".csv")
    summary_path = base.with_name(base.name + ".summary.json")
    try:
        _write_csv(csv_path, columns)
        summary = {
            "kind": cfg.kind,
            "params": cfg.params,
            "seed": cfg.seed,
            "results": scalars,
            "warnings": warnings,
            "wall_time_ms": (time.perf_counter() - started) * 1000.0,
        }
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except Exception:
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
