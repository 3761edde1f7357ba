"""Property test of the CLI contract: any config exits 0, 2 or 3, and writes only under --out.

No config may warn: every run treats warnings as errors, so an overflow
that only warned would end in a traceback here.

Each example starts from a small valid config of one kind and variant,
then replaces, deletes or adds one or two keys (top level or params) with
arbitrary JSON values: null, bools, strings, NaN/inf and other floats,
nested lists and objects.  Integers are drawn unbounded: the schema caps
the work of every count a config holds (dyson nodes, trajectories, comb
kicks, Picard iterates and grids, smearing panels, dominated indices).
"""

import copy
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pitaron_lab.cli import main

MATRIX = [[[1.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [-1.0, 0.0]]]
TRAJECTORY = {"t0": 0.0, "t1": 1.0, "grid_points": 3, "steps_per_cell": 2}

VALID = {
    "pauli": {"kind": "evolve", "output_path": "pauli",
              "params": {"model": "pauli", "f1": "cos", "f2": 0.3, "f3": "t",
                         "psi0": "random", **TRAJECTORY}},
    "constant": {"kind": "evolve", "output_path": "constant",
                 "params": {"model": "constant", "matrix": MATRIX,
                            "psi0": [[1.0, 0.0], [0.0, 1.0]], **TRAJECTORY}},
    "nhse": {"kind": "nhse", "output_path": "nhse", "seed": 3,
             "params": {"l": 3, "onsite": 0.1, "hop": [1.0, 0.8], "gamma": 0.3, **TRAJECTORY}},
    "comb": {"kind": "comb", "output_path": "comb",
             "params": {"strengths": [0.6, 1.0], "times": [0.5, 0.75], "dim": 2,
                        **TRAJECTORY}},
    "dyson": {"kind": "dyson", "output_path": "dyson",
              "params": {"T_list": [0.1, 0.2], "orders": [1, 2], "panels": 4}},
    "exponential": {"kind": "picard", "output_path": "exponential",
                    "params": {"problem": "exponential", "g": 1.0, "x1": 1.0,
                               "n_max": 3, "grid": 64}},
    "delta_breakdown": {"kind": "picard", "output_path": "sub/breakdown",
                        "params": {"problem": "delta_breakdown", "a": 0.5, "epsilon": 0.5,
                                   "x1": 1.0, "grid": 257}},
    "smearing": {"kind": "counterexample", "output_path": "smearing",
                 "params": {"demo": "smearing", "t1": 1.0, "t": 2.0, "kind": "gaussian",
                            "panels": 8, "pairs": [[0.2, 0.3]]}},
    "dominated": {"kind": "counterexample", "output_path": "dominated",
                  "params": {"demo": "dominated", "n_list": [1, 3]}},
}

KEYS = sorted({key for config in VALID.values() for key in [*config, *config["params"]]})

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)
# Values near a type or range boundary of some field, drawn as often as arbitrary JSON.
EDGES = st.sampled_from([
    0, -1, 0.0, 50.0, 1e3, 1e308, 5e-324, float("nan"), float("inf"), "", "..", "../x",
    "x/../../y", "sub/x", [], [0], [1], [[1]], [[1.0, 0.0]], [[0.0, 0.0]], {}, {"a": 1},
    "random", "boundary", "cos", "causal", "pauli", "constant", "exponential", "smearing",
])
VALUES = EDGES | JSON


def like(value):
    """Values of the JSON type of ``value``, so that an edit also gets past the type checks."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers()
    if isinstance(value, float):
        return st.floats()
    if isinstance(value, list) and value:
        return st.lists(like(value[0]), max_size=4)
    return VALUES


@st.composite
def configs(draw):
    """A valid config of one kind and variant with one or two keys replaced, deleted or added."""
    config = copy.deepcopy(VALID[draw(st.sampled_from(sorted(VALID)))])
    for _ in range(draw(st.integers(1, 2))):
        params = config.get("params")
        # params holds most of the schema, so it is edited three times as often
        sections = [params] * 3 + [config] if isinstance(params, dict) else [config]
        section = draw(st.sampled_from(sections))
        action = draw(st.sampled_from(["replace", "replace", "replace", "delete", "add"]))
        if action == "add" or not section:
            section[draw(st.sampled_from(KEYS) | st.text(max_size=4))] = draw(VALUES)
            continue
        key = draw(st.sampled_from(sorted(section)))
        if action == "delete":
            del section[key]
        else:
            section[key] = draw(like(section[key]) | VALUES)
    return config


def run(config):
    """Run ``config`` in a fresh directory with warnings as errors.

    Returns the exit code, the output directory, the files written, what
    is left beside the config, and the summaries written.
    """
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        root = Path(tmp)
        path = root / "config.json"
        path.write_text(json.dumps(config))
        out = root / "in" / "out"  # nested, so an escape by '..' still lands under root
        code = main(["run", str(path), "--out", str(out)])
        written = {p for p in root.rglob("*") if p.is_file()} - {path}
        leftovers = set(root.iterdir()) - {path}
        summaries = [json.loads(p.read_text()) for p in written if p.suffix == ".json"]
    return code, out, written, leftovers, summaries


# U = diag(e^(82.5 t), e^(89.25 t)): sigma_max^2 overflows at t = 4 while cond_U ~ 5e11 passes
OVERFLOWING_DEFECT = {"kind": "evolve", "output_path": "constant",
                      "params": {"model": "constant", "t0": 0.0, "t1": 4.0, "grid_points": 41,
                                 "steps_per_cell": 1,
                                 "matrix": [[[0.0, 82.5], [0.0, 0.0]],
                                            [[0.0, 0.0], [0.0, 89.25]]]}}
# U = e^(-100 t) 1: ||N - 1||_F = sqrt(2) (e^400 - 1) ~ 7.4e173 is a float, its square is not
LARGE_N_DISTANCE = copy.deepcopy(OVERFLOWING_DEFECT)
LARGE_N_DISTANCE["params"]["matrix"] = [[[0.0, -100.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -100.0]]]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(config=configs())
@example(config=OVERFLOWING_DEFECT)
@example(config=LARGE_N_DISTANCE)
def test_any_config_exits_0_2_or_3_and_writes_only_under_out(config):
    code, out, written, leftovers, _ = run(config)
    assert code in (0, 2, 3)
    assert all(out in p.parents for p in written)
    if code:
        assert not leftovers


@pytest.mark.parametrize("config, code", [(OVERFLOWING_DEFECT, 3), (LARGE_N_DISTANCE, 0)],
                         ids=["overflowing-defect_U", "large-n_distance"])
def test_a_diagnostic_is_finite_or_the_run_exits_3_without_a_warning(config, code):
    exit_code, _, written, _, summaries = run(config)
    assert exit_code == code
    if code:
        assert not written
    else:
        (summary,) = summaries
        assert math.isclose(summary["results"]["max_n_distance"],
                            math.sqrt(2.0) * math.expm1(400.0), rel_tol=1e-12)
