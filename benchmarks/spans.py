"""Span tracer for the traced benchmark run.

The traced run rebinds the public entry points listed in ``TARGETS`` to
wrappers that record one span per call: layer, start, end, parent span
and experiment id.  Every module of ``pitaron_lab`` that holds a
reference to a target (``from .linalg import mat_exp`` in
``propagation``, the package namespace) is rebound, and methods are
replaced on their class.  Private helpers (``_ordered_product``,
``series._iterated``, the CLI runners) stay unwrapped, so their cost is
the self time of the public function that calls them.

Spans live in flat arrays while the run goes and are written out at the
end.  Nothing here is active during the untraced run.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (layer, module, attribute); "Class.method" attributes are replaced on the class.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("cli.load_config", "cli", "load_config"),
    ("cli.run_experiment", "cli", "run_experiment"),
    ("linalg.mat_exp", "linalg", "mat_exp"),
    ("hamiltonian.sample", "hamiltonian", "HamiltonianSpec.sample"),
    ("propagation.evolve_trajectory", "propagation", "evolve_trajectory"),
    ("propagation.step_propagator", "propagation", "step_propagator"),
    ("propagation.pitaron", "propagation", "pitaron"),
    ("propagation.z_factor", "propagation", "z_factor"),
    ("series.dyson_u", "series", "dyson_u"),
    ("series.general_pitaron_expansion", "series", "general_pitaron_expansion"),
    ("singular_dynamics.smeared_second_order", "singular_dynamics", "smeared_second_order"),
    ("singular_dynamics.SmearedDelta.density", "singular_dynamics", "SmearedDelta.density"),
    ("singular_dynamics.comb", "singular_dynamics", "comb_truncated_norm"),
    ("singular_dynamics.comb", "singular_dynamics", "comb_expansion_terms"),
    ("singular_dynamics.comb", "singular_dynamics", "comb_pitaron_expansion"),
    ("singular_dynamics.dominated_convergence_demos", "singular_dynamics",
     "dominated_convergence_demos"),
    ("picard.picard_iterate", "picard", "picard_iterate"),
    ("picard.picard_delta_breakdown", "picard", "picard_delta_breakdown"),
)
# Time the tracer spends inspecting arguments, kept out of every layer's self time.
OBSERVE = "trace.observe"
PACKAGE = "pitaron_lab"


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it covered by its children.

    ``parent[i]`` is the index of span i's parent, or -1.  Children are
    clipped to their parent's interval and overlapping children are
    counted once.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(len(start))
    kids = np.flatnonzero(parent >= 0)
    order = kids[np.lexsort((start[kids], parent[kids]))]
    current, reach = -1, 0.0
    for i, p in zip(order.tolist(), parent[order].tolist()):
        if p != current:
            current, reach = p, start[p]
        lo, hi = max(start[i], reach), min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return end - start - covered


def has_ancestor(parent, layer, flagged: np.ndarray) -> np.ndarray:
    """Whether any ancestor of each span belongs to a layer marked in ``flagged``."""
    parent = np.asarray(parent, dtype=np.int64)
    layer = np.asarray(layer, dtype=np.int64)
    found = np.zeros(len(parent), dtype=bool)
    up = parent.copy()
    while np.any(live := up >= 0):
        found[live] |= flagged[layer[up[live]]]
        up[live] = parent[up[live]]
    return found


class Tracer:
    """Records spans and per-experiment counters for the wrapped layers."""

    def __init__(self):
        self.layers: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.layer = array("q")
        self.experiment = array("q")
        self._stack = [-1]
        self.experiment_id = -1
        self._exp_args: set[int] = set()
        self._sample_times: set[float] = set()
        # distinct mat_exp arguments and distinct sample times, per experiment
        self.distinct_exp_args: dict[int, int] = {}
        self.distinct_sample_times: dict[int, int] = {}
        self.max_cond_U = 0.0
        self.worst_defect_P = 0.0

    def layer_id(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
        return self.layers.index(name)

    def begin_experiment(self, experiment_id: int) -> None:
        """Close the previous experiment's distinct-argument counts and start another."""
        self.end_experiment()
        self.experiment_id = experiment_id

    def end_experiment(self) -> None:
        if self.experiment_id >= 0:
            self.distinct_exp_args[self.experiment_id] = len(self._exp_args)
            self.distinct_sample_times[self.experiment_id] = len(self._sample_times)
        self._exp_args.clear()
        self._sample_times.clear()

    def _open(self, layer_id: int) -> int:
        i = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.layer.append(layer_id)
        self.experiment.append(self.experiment_id)
        return i

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording a span per call.

        ``before(args)`` runs in a span of its own (``trace.observe``) so
        its cost is charged to no layer; ``after(args, result)`` must be
        cheap, since it runs in the caller's self time.
        """
        layer_id = self.layer_id(name)
        observe_id = self.layer_id(OBSERVE)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                j = self._open(observe_id)
                t = clock()
                before(args)
                self.end[j] = clock()
                self.start[j] = t
            i = self._open(layer_id)
            stack.append(i)
            t = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.start[i] = t
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _observe_exp(self, args) -> None:
        self._exp_args.add(hash(np.ascontiguousarray(args[0]).tobytes()))

    def _observe_sample(self, args, result) -> None:
        self._sample_times.add(args[1])

    def _observe_pitaron(self, args, result) -> None:
        self.max_cond_U = max(self.max_cond_U, result.cond_U)
        self.worst_defect_P = max(self.worst_defect_P, result.defect_P)

    def _hooks(self, name: str) -> dict:
        return {
            "linalg.mat_exp": {"before": self._observe_exp},
            "hamiltonian.sample": {"after": self._observe_sample},
            "propagation.pitaron": {"after": self._observe_pitaron},
        }.get(name, {})

    @contextmanager
    def installed(self):
        """Rebind every target for the duration of the block, then restore."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        undo = []
        try:
            for name, module_name, attr in TARGETS:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(name, original, **self._hooks(name)))
                    undo.append((cls, meth, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original, **self._hooks(name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            undo.append((module, key, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)
            self.end_experiment()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "layer": np.frombuffer(self.layer, dtype=np.int64),
            "experiment": np.frombuffer(self.experiment, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write every span, with the layer names, as a compressed ``.npz``."""
        np.savez_compressed(path, layers=np.array(self.layers), **self.arrays())

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and summed self time per layer over the whole traced run."""
        a = self.arrays()
        own = self_times(a["start"], a["end"], a["parent"])
        calls = np.bincount(a["layer"], minlength=len(self.layers))
        busy = np.bincount(a["layer"], weights=own, minlength=len(self.layers))
        return {name: {"calls": int(calls[k]), "self_s": float(busy[k])}
                for k, name in enumerate(self.layers)}

    def samples_under(self, prefix: str) -> int:
        """H samples made inside a span of a layer whose name starts with ``prefix``."""
        a = self.arrays()
        flagged = np.array([n.startswith(prefix) for n in self.layers])
        inside = has_ancestor(a["parent"], a["layer"], flagged)
        return int(np.count_nonzero(inside & (a["layer"] == self.layers.index("hamiltonian.sample"))))
