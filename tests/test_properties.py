"""Property tests of the stacked kernels and the unitarization claim.

The stacked forms (``frob`` and ``z_factor`` of a stack, the kernel's
product ``_matmul``, the array form of ``comb_truncated_norm``) must give
every entry the bits of the one-matrix or scalar call, whatever the stack
around it; the arrays are drawn from a seed so that a failing example
names a reproducible stack.  ``mat_exp`` of a Hermitian generator keeps
its stated unitarity budget, or raises beyond its accuracy domain, and a
trajectory of a drawn kicked spec matches the one-factor-at-a-time
oracle stepper at every snapshot.  A comb run's closed forms are the
kick-by-kick sums over exactly the kicks after its t0.  The U^-1, N and P
series of a drawn Dyson pass meet their definitions term by term, to
rounding scaled by the term norms.
"""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pitaron_lab.cli import run_experiment, validate_config
from pitaron_lab.hamiltonian import HamiltonianSpec, pauli_hamiltonian
from pitaron_lab.linalg import _matmul, frob, mat_exp, unitarity_defect
from pitaron_lab.propagation import evolve_trajectory, pitaron, z_factor
from pitaron_lab.series import (
    dyson_u,
    dyson_u_inverse,
    general_norm_expansion,
    general_pitaron_expansion,
)
from pitaron_lab.singular_dynamics import (
    comb_expansion_terms,
    comb_pitaron_expansion,
    comb_truncated_norm,
)

from oracles import random_ginibre, random_unitary, stepped_propagator

EPS = np.finfo(float).eps
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

# views of a (k, n, n) stack that keep k and n: the stack itself, transposed
# matrices, reversed rows, reversed columns and every other matrix of a taller stack
VIEWS = {
    "contiguous": lambda a: a,
    "transposed": lambda a: a.swapaxes(-1, -2),
    "reversed_rows": lambda a: a[:, ::-1],
    "reversed_columns": lambda a: a[..., ::-1],
    "every_other": lambda a: np.repeat(a, 2, axis=0)[::2],
}


@st.composite
def stacks(draw, decades=(-300, 300)):
    """A (k, n, n) view, n in 1..64, real or complex, each matrix scaled by 10^d, d in ``decades``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 64))
    scale = 10.0 ** rng.integers(*decades, size=(k, 1, 1))
    a = rng.standard_normal((k, n, n)) * scale
    if draw(st.booleans()):
        a = a + 1j * rng.standard_normal((k, n, n)) * scale
    return VIEWS[draw(st.sampled_from(sorted(VIEWS)))](a)


@PROPERTY
@given(a=stacks())
def test_stack_entries_have_the_bits_of_frob(a):
    # entry k of frob of a stack is frob of matrix k; beyond 1e+-154 the plain sum of
    # squares overflows or underflows, and the rescaled norm stays within rounding of
    # math.hypot, which scales for itself
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = frob(a)
        assert norms.shape == a.shape[:-2]
        for norm, matrix in zip(norms.tolist(), a):
            assert norm == frob(matrix)
            exact = math.hypot(*matrix.real.ravel(), *np.imag(matrix).ravel())
            assert abs(norm - exact) <= 2 * matrix.size * EPS * exact


@PROPERTY
@given(u=stacks(decades=(-150, 0)), seed=st.integers(0, 2**32 - 1))
def test_stacked_z_factor_has_the_bits_of_one_matrix(u, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(u.shape[-1]) + 1j * rng.standard_normal(u.shape[-1])
    ratios = z_factor(u, psi)
    assert ratios.shape == u.shape[:-2]
    for ratio, matrix in zip(ratios.tolist(), u):
        assert ratio == z_factor(matrix, psi)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6), n=st.integers(1, 4),
       view=st.sampled_from(sorted(VIEWS)))
def test_stacked_product_has_the_bits_of_one_matrix(seed, k, n, view):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-50, 50, size=(2, k, 1, 1))
    a, b = (VIEWS[view](m) for m in
            (rng.standard_normal((2, k, n, n)) + 1j * rng.standard_normal((2, k, n, n))) * scale)
    products = _matmul(a, b)
    for product, x, y in zip(products, a, b):
        assert np.array_equal(product, _matmul(x, y))
        assert frob(product - x @ y) <= 4 * n * EPS * frob(np.abs(x) @ np.abs(y))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 16), log2_norm=st.floats(-30.0, 24.0))
def test_hermitian_exponential_keeps_its_budget_or_raises(seed, dim, log2_norm):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = g + g.conj().T
    a = -1j * h * (2.0**log2_norm / np.abs(h).sum(axis=0).max())
    if np.abs(a).sum(axis=0).max() > 2.0**20:
        with pytest.raises(FloatingPointError, match="accuracy domain"):
            mat_exp(a)
    else:
        assert unitarity_defect(mat_exp(a)) <= 1e-9 * dim


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 64),
       log_cond=st.floats(0.0, 11.0), log_scale=st.floats(-3.0, 3.0))
def test_p_is_unitary_to_rounding_up_to_cond_1e11(seed, dim, log_cond, log_scale):
    # U = W diag(sigma) V^dagger with singular values log-spaced over cond = 10^log_cond;
    # over 3000 seeded draws the worst defect_P was 4 dim eps, so 8 dim eps is the budget
    rng = np.random.default_rng(seed)
    sigma = np.logspace(0.0, -log_cond, dim) * 10.0**log_scale
    u = (random_unitary(rng, dim) * sigma) @ random_unitary(rng, dim).conj().T
    triple = pitaron(u)
    budget = 8 * dim * EPS
    assert triple.defect_P <= budget
    assert frob(triple.P.conj().T @ triple.P - np.eye(dim)) <= budget
    cond = sigma[0] / sigma[-1]
    assert math.isclose(triple.cond_U, cond, rel_tol=dim * EPS * cond + 1e-12)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), kicks=st.integers(0, 4),
       grid_points=st.integers(2, 6), steps=st.integers(1, 6), constant=st.booleans())
def test_trajectory_matches_the_stepped_oracle(seed, dim, kicks, grid_points, steps, constant):
    # non-Hermitian H, kicks inside cells and at grid times; a constant spec is one
    # exponential per cell between kicks, so its oracle takes one step per cell.
    # Over 3000 seeded draws the worst relative distance was 17 eps.
    rng = np.random.default_rng(seed)
    a, b = (0.5 * random_ginibre(rng, dim) for _ in range(2))
    grid = np.linspace(0.0, 2.0, grid_points)
    candidates = np.concatenate([grid[1:], rng.uniform(0.0, 2.0, size=8)])
    times = sorted(set(rng.choice(candidates, size=kicks, replace=False).tolist()) - {0.0})
    strengths = np.array([0.5 * random_ginibre(rng, dim) for _ in times]).reshape(-1, dim, dim)
    if constant:
        spec = HamiltonianSpec.constant(a, times, strengths)
        oracle_steps = 1
    else:
        spec = HamiltonianSpec(dim=dim, smooth=lambda t: a * np.cos(t) + b * t,
                               kick_times=times, kick_strengths=strengths)
        oracle_steps = steps
    traj = evolve_trajectory(spec, 0.0, 2.0, grid_points, steps)
    pairs = list(zip(spec.kick_times, spec.kick_strengths))
    u = np.eye(dim, dtype=complex)
    assert np.array_equal(traj.U[0], u)
    for lo, hi, snapshot in zip(grid[:-1], grid[1:], traj.U[1:], strict=True):
        u = stepped_propagator(spec.smooth, pairs, lo, hi, oracle_steps, dim) @ u
        assert frob(snapshot - u) <= 64 * EPS * frob(u)


def _strength_by_definition(strengths, times, t: float) -> float:
    """S(t) = 0 + sum of the strengths of the kicks at or before t, in order."""
    return 0.0 + sum(v for v, tau in zip(strengths, times) if tau <= t)


def _truncated_norm_by_definition(strengths, times, t: float) -> float:
    """1 - S(t)^2 / 2."""
    s = _strength_by_definition(strengths, times, t)
    return 1.0 - 0.5 * s * s


def _expansion_by_definition(strengths, times, t: float):
    """order1, order2_defined and the flagged kick indices, kick by kick.

    Order two sums -V_k S(t_k^-) over the kicks at or before t in time
    order, and each of those kicks is flagged.
    """
    order2 = 0.0
    flags = []
    for k, (v, tau) in enumerate(zip(strengths, times)):
        if tau <= t:
            before = 0.0 + sum(strengths[:k])  # the earlier kicks, times increase
            order2 -= v * before
            flags.append(k)
    return -1j * _strength_by_definition(strengths, times, t), complex(order2), flags


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), kicks=st.integers(0, 8), extra=st.integers(0, 20))
def test_array_truncated_norm_has_the_bits_of_scalar_calls(seed, kicks, extra):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.choice(np.linspace(0.1, 4.9, 49), size=kicks, replace=False)).tolist()
    strengths = (rng.uniform(-1.5, 1.5, size=kicks) * 10.0 ** rng.integers(-8, 8, size=kicks))
    strengths = strengths.tolist()
    # every kick time exactly, a time before the first kick, and times in between
    t = np.array([*times, 0.0, -1.0, *rng.uniform(-1.0, 6.0, size=extra)])
    values = comb_truncated_norm(strengths, times, t)
    assert values.shape == t.shape
    for value, at in zip(values.tolist(), t.tolist()):
        assert value == comb_truncated_norm(strengths, times, at)
        assert value == _truncated_norm_by_definition(strengths, times, at)


def _bits(*values) -> list[str]:
    """The exact bits, sign of zero included, of floats and complex numbers."""
    return [part.hex() for z in values for part in (complex(z).real, complex(z).imag)]


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), kicks=st.integers(0, 11), extra=st.integers(0, 10))
def test_comb_expansions_have_the_bits_of_the_definition(seed, kicks, extra):
    rng = np.random.default_rng(seed)
    # kicks on [-1, 4.9], 0 included, so some lie after t
    times = (np.sort(rng.choice(np.arange(-10, 50), size=kicks, replace=False)) / 10).tolist()
    strengths = rng.uniform(-1.5, 1.5, size=kicks) * 10.0 ** rng.integers(-8, 8, size=kicks)
    strengths[rng.random(kicks) < 0.2] = 0.0
    strengths[rng.random(kicks) < 0.2] *= -1.0  # some of them -0.0
    cancel = np.flatnonzero(rng.random(kicks) < 0.2)
    strengths[cancel[cancel > 0]] = -strengths[cancel[cancel > 0] - 1]
    strengths = strengths.tolist()
    for t in [*times, 0.0, -0.0, -1.5, 9.0, *rng.uniform(-1.5, 6.0, size=extra)]:
        order1, order2, flags = _expansion_by_definition(strengths, times, t)
        report = comb_expansion_terms(strengths, times, t)
        assert _bits(report.order0, report.order1, report.order2_defined) == _bits(
            1.0, order1, order2)
        assert list(report.indefinite) == flags
        s = _strength_by_definition(strengths, times, t)
        assert _bits(*comb_pitaron_expansion(strengths, times, t)) == _bits(
            1.0 - 0.5 * s * s, -s)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), kicks=st.integers(0, 8), t0=st.floats(-2.0, 1.0))
def test_comb_run_covers_exactly_the_kicks_after_t0(seed, kicks, t0):
    rng = np.random.default_rng(seed)
    # kicks on [-3, 3.9], so on both sides of t0 and of 0
    times = (np.sort(rng.choice(np.arange(-30, 40), size=kicks, replace=False)) / 10).tolist()
    strengths = rng.uniform(-1.5, 1.5, size=kicks).tolist()
    t1 = t0 + 3.0
    config = {"kind": "comb", "output_path": "comb",
              "params": {"strengths": strengths, "times": times, "dim": 1, "t0": t0, "t1": t1,
                         "grid_points": 7, "steps_per_cell": 1}}
    with tempfile.TemporaryDirectory() as out:
        results = run_experiment(validate_config(config), out)["results"]
        lines = (Path(out) / "comb.csv").read_text().splitlines()
    after = [k for k, tau in enumerate(times) if t0 < tau]
    strengths, times = [strengths[k] for k in after], [times[k] for k in after]
    column = lines[0].split(",").index("n_trunc")
    for line, t in zip(lines[1:], np.linspace(t0, t1, 7).tolist(), strict=True):
        s = _strength_by_definition(strengths, times, t)
        assert line.split(",")[column] == f"{1.0 - 0.5 * s * s:.12e}"
    s = _strength_by_definition(strengths, times, t1)
    assert results["final_n_trunc"] == 1.0 - 0.5 * s * s
    assert results["indefinite_flags"] == sum(tau <= t1 for tau in times)
    assert (results["pitaron_expansion_re"], results["pitaron_expansion_im"]) == (
        1.0 - 0.5 * s * s, -s)


def test_truncated_norm_of_an_empty_comb_is_one():
    assert type(comb_truncated_norm([], [], 3.0)) is float
    assert comb_truncated_norm([], [], 3.0) == 1.0
    assert comb_truncated_norm([], [], np.array([-1.0, 0.0, 2.0])).tolist() == [1.0, 1.0, 1.0]


def _cauchy(x, y, k):
    """Term k of the product of the series x and y, of matrices or of norms."""
    return sum(np.dot(x[j], y[k - j]) for j in range(k + 1))


def _majorants(u):
    """Norm bounds on the terms of U, U^-1, N and P from the term norms of U.

    The recursions of ``series`` run on the norms with every sign taken
    positive, so term k of each bounds the sizes that the rounding of the
    corresponding term, and of products of these series, scales with.
    """
    a = [frob(term) for term in u]
    v = [1.0]
    for n in range(1, len(a)):
        v.append(sum(a[j] * v[n - j] for j in range(1, n + 1)))
    m = [sum(v[j] * v[k - j] for j in range(k + 1)) for k in range(len(a))]
    n = [1.0]
    for k in range(1, len(a)):
        n.append(0.5 * (m[k] + sum(n[j] * n[k - j] for j in range(1, k))))
    p = [sum(n[j] * a[k - j] for j in range(k + 1)) for k in range(len(a))]
    return a, v, n, p


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 3), order=st.integers(0, 4),
       pauli=st.booleans(), log_scale=st.floats(-3.0, 1.0), T=st.floats(0.01, 2.0))
def test_series_of_one_pass_meet_their_definitions(seed, dim, order, pauli, log_scale, T):
    # V U = 1, P^dagger P = 1 and N = N^dagger at every order k >= 1, where a
    # wrong term would leave an error of the size of the terms themselves
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(6) * 10.0**log_scale
    if pauli:  # Hermitian and time-dependent: N is 1 by cancellation
        spec = pauli_hamiltonian(lambda t: c[0] * np.cos(c[3] * t),
                                 lambda t: c[1] * np.sin(c[4] * t), lambda t: c[2] + c[5] * t)
    else:  # constant, non-Hermitian and non-normal
        spec = HamiltonianSpec.constant(random_ginibre(rng, dim) * 10.0**log_scale)
    u = dyson_u(spec, 0.0, T, order, 2)
    v, n, p = (f(u).terms for f in (dyson_u_inverse, general_norm_expansion,
                                    general_pitaron_expansion))
    assert len(v) == len(n) == len(p) == order + 1
    a, v_norm, n_norm, p_norm = _majorants(u.terms)
    p_dagger = [term.conj().T for term in p]
    for k in range(1, order + 1):
        assert frob(_cauchy(v, u.terms, k)) <= 16 * EPS * _cauchy(v_norm, a, k)
        assert frob(_cauchy(p_dagger, p, k)) <= 16 * EPS * _cauchy(p_norm, p_norm, k)
        assert frob(n[k] - n[k].conj().T) <= 16 * EPS * n_norm[k]
