"""The library's overflow rule, module by module: a value is finite or the call raises.

One property test per module draws one of its public functions that take
numbers or matrices, and arguments of magnitude 10^d with d drawn in
[-300, 300], and calls it with warnings as errors.  The call returns only
finite values, or raises ``ValueError``, ``FloatingPointError`` or
``LinAlgError``: an overflow may neither warn nor leave an inf or a NaN
in a result.  A function that takes a spec gets one built in the call
from drawn numbers or matrices, and one that returns a spec or a function
is checked on what that gives.  ``series.convergence_order`` is left out:
it fits a slope to the errors against the caller's own reference, and a
fit with nothing to fit raises its documented ``RuntimeError``.
"""

import dataclasses
import warnings
from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pitaron_lab import hamiltonian, linalg, picard, propagation, series, singular_dynamics

RULE = settings(derandomize=True, deadline=None, max_examples=300)

DIMS = st.integers(1, 3)
MAGNITUDES = st.floats(-300.0, 300.0).map(lambda d: 10.0**d)
NUMBERS = st.tuples(st.sampled_from([1.0, -1.0]), MAGNITUDES).map(lambda p: p[0] * p[1])


def one(strategy):
    """``strategy`` as a list of one argument."""
    return strategy.map(lambda x: [x])


@st.composite
def joined(draw, *parts):
    """The arguments of every part, each a strategy of a list of arguments, in turn."""
    return [x for part in parts for x in draw(part)]


@st.composite
def matrices(draw, n, stack=False, hermitian=False):
    """An n x n complex matrix, or a stack of them, scaled as a whole or entry by entry."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = ((draw(st.integers(1, 3)),) if stack and draw(st.booleans()) else ()) + (n, n)
    scale = 10.0 ** rng.uniform(-300, 300, size=shape if draw(st.booleans()) else ())
    a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    return linalg.hermitize(a) if hermitian else a


stacks = partial(matrices, stack=True)
hermitians = partial(matrices, hermitian=True)


@st.composite
def positives(draw, n):
    """A Hermitian positive definite n x n matrix with eigenvalues of drawn magnitude."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    values = np.array(draw(st.lists(MAGNITUDES, min_size=n, max_size=n)))
    return linalg.hermitize((v * values) @ v.conj().T)


def vectors(n):
    return st.lists(NUMBERS, min_size=n, max_size=n)


@st.composite
def same_dim(draw, *kinds):
    """One argument of each kind, a strategy of a dimension n, all of one drawn n."""
    n = draw(DIMS)
    return [draw(kind(n)) for kind in kinds]


@st.composite
def kicks(draw):
    """Strengths and strictly increasing times of one to three kicks."""
    times = sorted(draw(st.sets(NUMBERS, min_size=1, max_size=3)))
    return [draw(st.lists(NUMBERS, min_size=len(times), max_size=len(times))), times]


@st.composite
def times(draw, count):
    """``count`` increasing times: a drawn start, then drawn positive steps."""
    out = [draw(NUMBERS)]
    for _ in range(count - 1):
        out.append(out[-1] + draw(MAGNITUDES))
    return out


@st.composite
def combs(draw):
    """The arguments of ``dirac_comb_spec``: kicks, a dimension and a Hermitian generator."""
    n = draw(DIMS)
    return [*draw(kicks()), n, draw(hermitians(n))]


# a spec as its builder and the builder's arguments, so that it is built inside the call
SPECS = st.one_of(
    same_dim(matrices).map(lambda args: (hamiltonian.HamiltonianSpec.constant, args)),
    st.lists(NUMBERS, min_size=3, max_size=3).map(
        lambda args: (hamiltonian.pauli_hamiltonian, args)),
    combs().map(lambda args: (hamiltonian.dirac_comb_spec, args)),
)


def on_spec(function):
    """``function`` with its first argument, a drawn spec, built in the call."""
    def call(spec, *args):
        build, spec_args = spec
        return function(build(*spec_args), *args)

    return call


def spec_arguments(count, *integers):
    """A spec, ``count`` increasing times, and one integer from each range in ``integers``."""
    return joined(one(SPECS), times(count), *(one(st.integers(*r)) for r in integers))


def _finite(value) -> bool:
    if isinstance(value, (tuple, list)):
        return all(_finite(v) for v in value)
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if value is None or callable(value) or isinstance(value, (int, str)):
        return True
    return bool(np.all(np.isfinite(value)))


def obeys_the_rule(calls, name, data):
    """Draw the arguments of ``calls[name]``; its call is finite or raises, and never warns."""
    function, arguments = calls[name]
    args = data.draw(arguments)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = function(*args)
        except (ValueError, FloatingPointError, np.linalg.LinAlgError):
            return
    assert _finite(result), result


LINALG = {
    "as_matrix": (linalg.as_matrix, same_dim(matrices)),
    "as_stack": (linalg.as_stack, same_dim(stacks)),
    "frob": (linalg.frob, same_dim(stacks)),
    "hermiticity_defect": (linalg.hermiticity_defect, same_dim(stacks)),
    "unitarity_defect": (linalg.unitarity_defect, same_dim(stacks)),
    "mat_exp": (linalg.mat_exp, same_dim(stacks)),
    "lyapunov_solve": (linalg.lyapunov_solve, same_dim(positives, matrices)),
}


@RULE
@given(name=st.sampled_from(sorted(LINALG)), data=st.data())
def test_linalg_obeys_the_overflow_rule(name, data):
    obeys_the_rule(LINALG, name, data)


def _sampled_pauli(f1, f2, f3, ts):
    return hamiltonian.pauli_hamiltonian(f1, f2, f3).sample_stack(ts)


HAMILTONIAN = {
    "hermitian_split": (hamiltonian.hermitian_split, same_dim(matrices)),
    "pauli_hamiltonian": (_sampled_pauli, joined(st.lists(NUMBERS, min_size=3, max_size=3),
                                                 one(st.lists(NUMBERS, max_size=3)))),
    "nhse_hamiltonian": (hamiltonian.nhse_hamiltonian, joined(
        one(st.integers(2, 4)), st.lists(NUMBERS, min_size=3, max_size=3))),
    "dirac_comb_spec": (hamiltonian.dirac_comb_spec, combs()),
}


@RULE
@given(name=st.sampled_from(sorted(HAMILTONIAN)), data=st.data())
def test_hamiltonian_obeys_the_overflow_rule(name, data):
    obeys_the_rule(HAMILTONIAN, name, data)


def _general_n_rhs(h, n):
    return propagation.general_n_rhs(hamiltonian.hermitian_split(h), n)


def _trajectory(spec, t0, t1, grid_points, steps_per_cell, seed):
    psi0 = np.random.default_rng(seed).standard_normal(spec.dim) * 10.0 ** (seed % 601 - 300)
    return propagation.evolve_trajectory(spec, t0, t1, grid_points, steps_per_cell, psi0)


PROPAGATION = {
    "pitaron": (propagation.pitaron, same_dim(matrices)),
    "z_factor": (propagation.z_factor, same_dim(stacks, vectors)),
    "liouville_rhs": (propagation.liouville_rhs, same_dim(hermitians, matrices)),
    "general_n_rhs": (_general_n_rhs, same_dim(matrices, matrices)),
    "lyapunov_n_rhs": (propagation.lyapunov_n_rhs, same_dim(matrices, matrices, positives)),
    "step_propagator": (on_spec(propagation.step_propagator), spec_arguments(2, (1, 3))),
    "evolve_trajectory": (on_spec(_trajectory),
                          spec_arguments(2, (2, 4), (1, 2), (0, 2**32 - 1))),
    "markov_check": (on_spec(propagation.markov_check), spec_arguments(3, (1, 2))),
}


@RULE
@given(name=st.sampled_from(sorted(PROPAGATION)), data=st.data())
def test_propagation_obeys_the_overflow_rule(name, data):
    obeys_the_rule(PROPAGATION, name, data)


def _of_dyson(expansion):
    """``expansion`` of the Dyson series of a drawn spec, span, order and panel count."""
    return on_spec(lambda *args: expansion(series.dyson_u(*args)))


DYSON = spec_arguments(2, (0, 3), (1, 3))

SERIES = {
    "dyson_u": (on_spec(series.dyson_u), DYSON),
    "dyson_u_inverse": (_of_dyson(series.dyson_u_inverse), DYSON),
    "general_norm_expansion": (_of_dyson(series.general_norm_expansion), DYSON),
    "general_pitaron_expansion": (_of_dyson(series.general_pitaron_expansion), DYSON),
}


@RULE
@given(name=st.sampled_from(sorted(SERIES)), data=st.data())
def test_series_obeys_the_overflow_rule(name, data):
    obeys_the_rule(SERIES, name, data)


def _smeared_delta(kind, epsilon, center, x, panels):
    delta = singular_dynamics.SmearedDelta(kind, epsilon, center)
    return delta.density(x), delta.numeric_mass(panels)


KINDS = st.sampled_from(singular_dynamics.SMEARING_KINDS)

SINGULAR_DYNAMICS = {
    "comb_truncated_norm": (singular_dynamics.comb_truncated_norm, joined(
        kicks(), one(NUMBERS | st.lists(NUMBERS, max_size=3)))),
    "comb_expansion_terms": (singular_dynamics.comb_expansion_terms,
                             joined(kicks(), one(NUMBERS))),
    "comb_pitaron_expansion": (singular_dynamics.comb_pitaron_expansion,
                               joined(kicks(), one(NUMBERS))),
    "smeared_second_order": (singular_dynamics.smeared_second_order, joined(
        st.lists(MAGNITUDES, min_size=2, max_size=2), one(KINDS), times(2),
        one(st.integers(1, 64)))),
    "dominated_convergence_demos": (singular_dynamics.dominated_convergence_demos,
                                    one(st.lists(st.integers(1, 10**300), min_size=1,
                                                 max_size=3))),
    "SmearedDelta": (_smeared_delta, joined(
        one(KINDS), one(MAGNITUDES), st.lists(NUMBERS, min_size=2, max_size=2),
        one(st.integers(1, 4)))),
}


@RULE
@given(name=st.sampled_from(sorted(SINGULAR_DYNAMICS)), data=st.data())
def test_singular_dynamics_obeys_the_overflow_rule(name, data):
    obeys_the_rule(SINGULAR_DYNAMICS, name, data)


def _linear_picard(g, y0, x0, x1, n_max, with_reference):
    reference = (lambda x: y0 * np.exp(g * (x - x0))) if with_reference else None
    return picard.picard_iterate(lambda x, y: g * y, y0, x0, x1, n_max, 64, reference)


def _log_branch(a, c_pos, c_neg, x):
    return picard.log_branch_solution(a, c_pos, c_neg)(x)


PICARD = {
    "picard_iterate": (_linear_picard, joined(
        st.lists(NUMBERS, min_size=2, max_size=2), times(2), one(st.integers(1, 4)),
        one(st.booleans()))),
    "error_bound": (picard.error_bound, joined(
        st.lists(MAGNITUDES, min_size=3, max_size=3), one(st.integers(1, 400)))),
    "picard_delta_breakdown": (picard.picard_delta_breakdown, joined(
        times(2), one(MAGNITUDES), one(st.integers(64, 256)))),
    "identity_sqrt_family": (picard.identity_sqrt_family,
                             st.lists(NUMBERS, min_size=2, max_size=2)),
    "log_branch_solution": (_log_branch, st.lists(NUMBERS, min_size=4, max_size=4)),
}


@RULE
@given(name=st.sampled_from(sorted(PICARD)), data=st.data())
def test_picard_obeys_the_overflow_rule(name, data):
    obeys_the_rule(PICARD, name, data)
