"""Output checks for every benchmark experiment.

Each check reads what the CLI wrote (``<name>.csv`` and
``<name>.summary.json``) and compares it with a value computed by a route
that does not go through the code being measured: scipy's ``expm`` and
SVD instead of ``pitaron_lab.linalg``, the model matrices rebuilt from
their definitions, and closed forms for the quadrature experiments.

Tolerances are the ones ``tests/test_acceptance.py`` and
``tests/test_linalg.py`` pin.  The three that the suite does not pin
(``SMEARING_TOL``, ``DEFECT_P_BUDGET`` and ``CSV_ROUNDING``) are argued
where they are defined.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

EPS = float(np.finfo(float).eps)
TRIVIALITY_TOL = 1e-8     # C02: max ||N - 1|| and max |Z - 1| for Hermitian drives
DEFECT_P_TOL = 1e-10      # C01: defect of P at rounding level
COMPOSITION_TOL = 1e-10   # test_linalg exp(a + b) vs exp(a) exp(b); C12 composition
COMB_TOL = 1e-12          # C08: comb staircase 1 - S^2 / 2
DOMINATED_TOL = 1e-8      # C10: family-2 integrals 1/2
FAMILY1_TOL = 1e-12       # C10 asserts exactly 1; (1/n) * n may round by one ulp
SLOPE_REL_TOL = 0.1       # C07: slope 2 +/- 0.2 and 3 +/- 0.3
SPREAD_MIN = 0.4          # C11: breakdown spread
# C09 pins only 0.50 +/- 0.02 at equal widths.  Resolved widths reproduce
# eps2 / (eps1 + eps2) to ~2e-5, so 1e-3 catches an error of 1e-2.
SMEARING_TOL = 1e-3
# PropagatorTriple: defect_P is roughly eps * cond_U^2.  The Frobenius norm
# of a dim x dim rounding error adds a factor dim; 4 is the safety margin
# (worst measured ratio defect_P / (dim eps cond^2) was 1.4).
DEFECT_P_BUDGET = 4.0
# The CSV holds 13 significant digits (format .12e); its rounding is added to
# the absolute tolerances that the suite pins on in-memory values.
CSV_ROUNDING = 5e-13

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
PROFILES = {"cos": math.cos, "sin": math.sin, "t": lambda t: t}


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """CSV columns as float arrays, keyed by header name."""
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return {name: values[:, i] for i, name in enumerate(header)}


def _profile(value):
    if isinstance(value, str):
        return PROFILES[value]
    return lambda t: float(value)


def pauli_h(params: dict, t: float) -> np.ndarray:
    f = [_profile(params[k]) for k in ("f1", "f2", "f3")]
    return sum(fk(t) * s for fk, s in zip(f, PAULI))


def nhse_h(params: dict) -> np.ndarray:
    l = params["l"]
    h = np.diag(np.full(l, params["onsite"], dtype=complex))
    idx = np.arange(l - 1)
    h[idx, idx + 1] = params["hop"] - params["gamma"]
    h[idx + 1, idx] = params["hop"] + params["gamma"]
    return h


def random_psi0(seed: int, dim: int) -> np.ndarray:
    """The state the config's ``psi0: "random"`` names."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def midpoint_factors(config: dict):
    """scipy expm factors exp(-i H(midpoint) dt) of a drive, in time order."""
    p = config["params"]
    grid = np.linspace(p["t0"], p["t1"], p["grid_points"])
    for a, b in zip(grid[:-1], grid[1:]):
        edges = np.linspace(a, b, p["steps_per_cell"] + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            yield scipy.linalg.expm(-1j * (hi - lo) * pauli_h(p, 0.5 * (lo + hi)))


def reference_final_u(config: dict) -> np.ndarray:
    """Time-ordered product of the midpoint factors, later factors on the left."""
    u = np.eye(2, dtype=complex)
    for factor in midpoint_factors(config):
        u = factor @ u
    return u


def check_final_u(config: dict, u: np.ndarray) -> list[str]:
    """Compare a drive's final U with the independent ordered product.

    A product taken in the wrong order is still unitary and passes every
    CSV check, so this is the check that catches it.
    """
    err = float(np.linalg.norm(u - reference_final_u(config)))
    if err > COMPOSITION_TOL:
        return [f"final U differs from the ordered expm product by {err:.3e}"]
    return []


def _excess(written, exact, tol: float) -> float:
    """Largest amount by which a CSV column misses ``exact`` beyond ``tol`` plus rounding."""
    exact = np.broadcast_to(exact, np.shape(written))
    return float(np.max(np.abs(written - exact) - tol - CSV_ROUNDING * np.abs(exact)))


def _lattice_reference(config: dict) -> dict[str, np.ndarray]:
    p = config["params"]
    h = nhse_h(p)
    psi = random_psi0(config["seed"], p["l"])
    grid = np.linspace(p["t0"], p["t1"], p["grid_points"])
    z, defect, cond = [], [], []
    for t in grid:
        u = scipy.linalg.expm(-1j * h * (t - p["t0"]))
        s = scipy.linalg.svdvals(u)
        z.append(np.linalg.norm(u @ psi) / np.linalg.norm(psi))
        defect.append(np.linalg.norm(u.conj().T @ u - np.eye(p["l"])))
        cond.append(s[0] / s[-1])
    return {"t": grid, "z_factor": np.array(z), "defect_U": np.array(defect),
            "cond": np.array(cond)}


def _check_drive(config, cols, summary, ref):
    problems = []
    if (worst := cols["n_distance"].max()) > TRIVIALITY_TOL:
        problems.append(f"max ||N - 1|| = {worst:.3e} > {TRIVIALITY_TOL}")
    if (worst := np.abs(cols["z_factor"] - 1.0).max()) > TRIVIALITY_TOL:
        problems.append(f"max |Z - 1| = {worst:.3e} > {TRIVIALITY_TOL}")
    if (worst := cols["defect_P"].max()) > DEFECT_P_TOL:
        problems.append(f"max defect_P = {worst:.3e} > {DEFECT_P_TOL}")
    return problems


def _check_lattice(config, cols, summary, ref):
    problems = []
    if not np.allclose(cols["t"], ref["t"], rtol=1e-12, atol=1e-12):
        return ["grid times differ from the config's grid"]
    z_err = np.abs(cols["z_factor"] - ref["z_factor"]) / ref["z_factor"]
    if (worst := z_err.max()) > COMPOSITION_TOL:
        problems.append(f"z_factor off expm by relative {worst:.3e} > {COMPOSITION_TOL}")
    d_err = np.abs(cols["defect_U"] - ref["defect_U"]) / (1.0 + ref["defect_U"])
    if (worst := d_err.max()) > COMPOSITION_TOL:
        problems.append(f"defect_U off expm by relative {worst:.3e} > {COMPOSITION_TOL}")
    budget = DEFECT_P_BUDGET * config["params"]["l"] * EPS * ref["cond"] ** 2
    if (worst := (cols["defect_P"] / budget).max()) > 1.0:
        problems.append(f"defect_P exceeds its eps * cond^2 budget by a factor {worst:.2f}")
    return problems


def _check_comb(config, cols, summary, ref):
    p = config["params"]
    s = np.array([sum(v for v, tau in zip(p["strengths"], p["times"]) if tau <= t)
                  for t in cols["t"]])
    problems = []
    if (worst := _excess(cols["n_trunc"], 1.0 - 0.5 * s * s, COMB_TOL)) > 0:
        problems.append(f"n_trunc misses 1 - S^2/2 by {worst:.3e} more than {COMB_TOL} plus CSV rounding")
    if (worst := cols["defect_P"].max()) > DEFECT_P_TOL:
        problems.append(f"max defect_P = {worst:.3e} > {DEFECT_P_TOL}")
    if (worst := np.abs(cols["z_factor"] - 1.0).max()) > TRIVIALITY_TOL:
        problems.append(f"max |Z - 1| = {worst:.3e} for a unitary comb")
    return problems


def _check_dyson(config, cols, summary, ref):
    problems = []
    for order in config["params"]["orders"]:
        slope = summary["results"].get(f"slope_order_{order}")
        if slope is None or abs(slope - (order + 1)) > SLOPE_REL_TOL * (order + 1):
            problems.append(f"order {order} slope {slope} not within "
                            f"{SLOPE_REL_TOL:.0%} of {order + 1}")
    return problems


def _check_picard(config, cols, summary, ref):
    p = config["params"]
    if p["problem"] == "exponential":
        bad = [int(n) for n, e, b in zip(cols["n"], cols["sup_error"], cols["bound"])
               if n >= 1 and not e <= b]
        return [f"sup error above the a-priori bound at n = {bad}"] if bad else []
    problems = []
    spread = summary["results"]["asymmetric_spread"]
    if not spread >= SPREAD_MIN:
        problems.append(f"breakdown spread {spread:.3f} < {SPREAD_MIN}")
    if abs(summary["results"]["direct_value"] - math.e) > 1e-12:
        problems.append("direct solution is not e")
    return problems


def _check_counterexample(config, cols, summary, ref):
    if config["params"]["demo"] == "smearing":
        exact = cols["eps2"] / (cols["eps1"] + cols["eps2"])
        if (worst := np.abs(cols["value"] - exact).max()) > SMEARING_TOL:
            return [f"smeared value off eps2/(eps1+eps2) by {worst:.3e} > {SMEARING_TOL}"]
        return []
    problems = []
    if (worst := _excess(cols["family1_integral"], 1.0, FAMILY1_TOL)) > 0:
        problems.append(f"family-1 integral misses 1 by {worst:.3e} more than {FAMILY1_TOL} plus CSV rounding")
    if (worst := np.abs(cols["family2_integral"] - 0.5).max()) > DOMINATED_TOL:
        problems.append(f"family-2 integral off 1/2 by {worst:.3e} > {DOMINATED_TOL}")
    return problems


_CHECKS = {
    "evolve": _check_drive,
    "nhse": _check_lattice,
    "comb": _check_comb,
    "dyson": _check_dyson,
    "picard": _check_picard,
    "counterexample": _check_counterexample,
}


class Checker:
    """Checks experiment outputs, computing each config's reference once."""

    def __init__(self):
        self._refs: dict[int, dict] = {}

    def check(self, key: int, config: dict, out_dir: Path) -> list[str]:
        """Problems found in the outputs of ``config`` under ``out_dir``; empty if none."""
        base = Path(out_dir) / config["output_path"]
        if config["kind"] == "nhse" and key not in self._refs:
            self._refs[key] = _lattice_reference(config)
        try:
            cols = read_csv(base.with_suffix(".csv"))
            summary = json.loads(base.with_suffix(".summary.json").read_text())
            return _CHECKS[config["kind"]](config, cols, summary, self._refs.get(key))
        except (OSError, ValueError, IndexError, KeyError) as exc:
            return [f"unreadable or incomplete output: {exc!r}"]
