"""Seeded config generators for the three benchmark workloads.

Each generator returns a pool of valid ``pitaron-lab run`` configs (plain
dicts, written to disk as JSON) that the timed loop cycles through.  The
same seed gives the same pool.  The pools are stratified, not drawn
freely: whatever sets an experiment's cost (step counts, chain length,
how many coefficients are callables, kicks and dimension of a comb) takes
the same multiset of values for every seed, and the seed draws the rest.
So every run contains the same mix of experiment sizes, and the median
and tail land inside one stratum instead of on a boundary between two:

- ``drive``: all drives take 2000 steps; a third of them have no constant
  coefficient, a third one and a third two (``DRIVE_CONSTANTS``), and
  each t1 lies in its own stratum of [1, 3].
- ``lattice``: chain lengths cycle as in ``LATTICE_CYCLE``; two thirds
  are l=64, so the median and the tail are both l=64 times (ROADMAP's
  scaling config).  Within each length, gamma and t1 are drawn from the
  same stratum of their ranges, one stratum per config, so every pool
  holds a chain near gamma 0.8, t1 4, where cond_U peaks (~4e5).
- ``quadrature``: the kinds cycle in ``QUADRATURE_CYCLE``.  The 1-6 ms
  dominated and picard/exponential experiments fill the lowest third, so
  the median falls inside the 7-11 ms block of comb and delta-breakdown
  experiments, and the tail among the dyson and smearing experiments.
  The combs take their kick counts and dimensions from ``COMB_SHAPES``
  in turn.

Ranges stay inside the valid input domain of each experiment (see
``benchmarks/DESIGN.md``); hostile configs are not a benchmark workload.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("drive", "lattice", "quadrature")

DRIVE_POOL = 24
DRIVE_CONSTANTS = (0, 1, 2)  # constant coefficients per drive, cycled
LATTICE_CYCLE = (64, 16, 64, 32, 64, 64)
LATTICE_ROUNDS = 4
QUADRATURE_CYCLE = (
    "dyson", "dominated", "comb", "comb", "picard_exponential", "dominated",
    "smearing", "comb", "comb", "picard_delta_breakdown", "comb", "dominated",
)
QUADRATURE_ROUNDS = 3
# (kicks, dim) of the successive combs of a pool: kicks 2-7, dim 1, 2, 4
COMB_SHAPES = tuple((2 + j % 6, (1, 2, 4)[j % 3]) for j in range(15))

PROFILES = ("cos", "sin", "t")
SMEARING_PANELS = 2000
BREAKDOWN_GRID = 32001


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31 - 1))


def drive_config(rng: np.random.Generator, name: str, constants: int = 1,
                 stratum: int = 0, strata: int = 1) -> dict:
    """A drive with ``constants`` (0-2) constant coefficients and callables elsewhere.

    At least one coefficient depends on t: an all-constant H would repeat
    its exponent arguments, which is the lattice workload's property.  t1
    lies in stratum ``stratum`` of ``strata`` of its range; longer steps
    cost ``mat_exp`` more.
    """
    profiles = [PROFILES[int(rng.integers(len(PROFILES)))] for _ in range(3)]
    for slot in rng.choice(3, size=constants, replace=False):
        profiles[slot] = float(rng.uniform(-1.0, 1.0))
    f1, f2, f3 = profiles
    return {
        "kind": "evolve",
        "output_path": name,
        "seed": _seed(rng),
        "params": {
            "model": "pauli",
            "f1": f1, "f2": f2, "f3": f3,
            "t0": 0.0, "t1": float(1.0 + 2.0 * (stratum + rng.uniform()) / strata),
            "grid_points": 21, "steps_per_cell": 100, "psi0": "random",
        },
    }


def lattice_config(rng: np.random.Generator, name: str, l: int, stratum: int,
                   strata: int) -> dict:
    """A chain whose gamma and t1 lie in stratum ``stratum`` of ``strata`` of their ranges."""
    share = (stratum + rng.uniform()) / strata
    return {
        "kind": "nhse",
        "output_path": name,
        "seed": _seed(rng),
        "params": {
            "l": l,
            "onsite": float(rng.uniform(-1.0, 1.0)),
            "hop": float(rng.uniform(0.5, 1.5)),
            "gamma": float(0.8 * share),
            "t0": 0.0, "t1": float(1.0 + 3.0 * share),
            "grid_points": 41, "steps_per_cell": 20, "psi0": "random",
        },
    }


def _dyson(rng):
    # one T per quarter of [0.05, 0.4], so the log-log fit always spans the range
    edges = np.linspace(0.05, 0.4, 5)
    t_list = [float(rng.uniform(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]
    return "dyson", {"T_list": t_list, "orders": [1, 2, 3], "panels": 16}


def _smearing(rng):
    # Widths must be resolved by the panel step (step <= width / 4) and sit
    # well inside the window after the kick (width <= (t - t1) / 40), so the
    # closed form eps2 / (eps1 + eps2) holds to rounding.
    t1 = float(rng.uniform(0.5, 1.5))
    t = t1 + float(rng.uniform(0.5, 1.5))
    step = max(t1, t - t1) / (2 * SMEARING_PANELS)
    lo, hi = np.log(4.0 * step), np.log((t - t1) / 40.0)
    pairs = [[float(np.exp(rng.uniform(lo, hi))), float(np.exp(rng.uniform(lo, hi)))]
             for _ in range(3)]
    return "counterexample", {"demo": "smearing", "kind": "causal", "t1": t1, "t": t,
                              "panels": SMEARING_PANELS, "pairs": pairs}


def _picard_exponential(rng):
    # n_max <= 10 keeps the a-priori bound above the trapezoid error of the grid.
    return "picard", {"problem": "exponential", "g": float(rng.uniform(0.8, 1.2)),
                      "x1": float(rng.uniform(0.8, 1.2)),
                      "n_max": int(rng.integers(6, 11)), "grid": 20001}


def _picard_delta_breakdown(rng):
    # The narrowest causal width is epsilon / 10 and needs grid step <= width / 8.
    x1 = float(rng.uniform(1.5, 2.5))
    step = x1 / (BREAKDOWN_GRID - 1)
    epsilon = float(rng.uniform(80.0 * step * 1.25, 0.03))
    return "picard", {"problem": "delta_breakdown", "a": float(rng.uniform(0.4, 0.6)) * x1,
                      "epsilon": epsilon, "x1": x1, "grid": BREAKDOWN_GRID}


def _dominated(rng):
    n_list = sorted(int(n) for n in rng.choice(np.arange(1, 201), size=5, replace=False))
    return "counterexample", {"demo": "dominated", "n_list": n_list}


def _comb(rng, shape=COMB_SHAPES[0]):
    kicks, dim = shape
    times = np.sort(rng.uniform(0.1, 4.9, size=kicks))
    return "comb", {"strengths": [float(v) for v in rng.uniform(-1.5, 1.5, size=kicks)],
                    "times": [float(t) for t in times],
                    "dim": dim,
                    "t0": 0.0, "t1": 5.0, "grid_points": 51, "steps_per_cell": 4}


_QUADRATURE_MAKERS = {
    "dyson": _dyson,
    "smearing": _smearing,
    "picard_exponential": _picard_exponential,
    "picard_delta_breakdown": _picard_delta_breakdown,
    "dominated": _dominated,
}


def quadrature_config(rng: np.random.Generator, name: str, variant: str,
                      comb_shape=COMB_SHAPES[0]) -> dict:
    """A config of ``variant``; a comb takes its (kicks, dim) from ``comb_shape``."""
    if variant == "comb":
        kind, params = _comb(rng, comb_shape)
    else:
        kind, params = _QUADRATURE_MAKERS[variant](rng)
    return {"kind": kind, "output_path": name, "seed": _seed(rng), "params": params}


def spread_order(count: int) -> list[int]:
    """0..count-1 in a fixed order that visits the whole range early and evenly.

    Strata go to configs in this order, the same for every seed, so the
    first config of a pool (the warm-up of the set-up) always costs the same.
    """
    step = max(1, round(0.382 * count))
    while math.gcd(step, count) != 1:
        step += 1
    return [j * step % count for j in range(count)]


def make_configs(workload: str, seed: int) -> list[dict]:
    """The config pool of ``workload`` for ``seed``, in the order it is run."""
    index = WORKLOADS.index(workload)
    rng = np.random.default_rng([seed, index])
    if workload == "drive":
        strata = spread_order(DRIVE_POOL)
        return [drive_config(rng, f"drive_{i:03d}", DRIVE_CONSTANTS[i % len(DRIVE_CONSTANTS)],
                             strata[i], DRIVE_POOL)
                for i in range(DRIVE_POOL)]
    if workload == "lattice":
        sizes = LATTICE_CYCLE * LATTICE_ROUNDS
        counts = {l: sizes.count(l) for l in sorted(set(sizes))}
        strata = {l: iter(spread_order(c)) for l, c in counts.items()}
        return [lattice_config(rng, f"lattice_{i:03d}", l, next(strata[l]), counts[l])
                for i, l in enumerate(sizes)]
    variants = QUADRATURE_CYCLE * QUADRATURE_ROUNDS
    shapes = iter(COMB_SHAPES)
    return [quadrature_config(rng, f"quadrature_{i:03d}", v,
                              next(shapes) if v == "comb" else None)
            for i, v in enumerate(variants)]


def variant_of(config: dict) -> str:
    """Short label used to group results: the experiment family and size."""
    p = config["params"]
    if config["kind"] == "nhse":
        return f"nhse_l{p['l']}"
    if config["kind"] == "evolve":
        return f"pauli_{(p['grid_points'] - 1) * p['steps_per_cell']}_steps"
    if config["kind"] == "picard":
        return f"picard_{p['problem']}"
    if config["kind"] == "counterexample":
        return p["demo"]
    return config["kind"]
