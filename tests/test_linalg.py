import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pitaron_lab.linalg as linalg
from pitaron_lab.hamiltonian import SIGMA1, SIGMA2, SIGMA3, dirac_comb_spec, pauli_hamiltonian
from pitaron_lab.linalg import (
    as_matrix,
    frob,
    lyapunov_solve,
    mat_exp,
    simpson_grid,
    simpson_pattern,
    unitarity_defect,
)
from pitaron_lab.propagation import evolve_trajectory, pitaron, step_propagator

from oracles import (
    lyapunov_quadrature,
    random_ginibre,
    random_pd,
    random_unitary,
    series_exp,
    stepped_propagator,
)

EPS = np.finfo(float).eps


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            as_matrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[np.nan, 0], [0, 1]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 0)))


class TestSimpsonGrid:
    @staticmethod
    def _integrate(f, a, b, panels):
        nodes, h = simpson_grid(a, b, panels)
        return np.sum(simpson_pattern(panels) * f(nodes), axis=-1) * h / 3.0

    def test_exact_for_cubics_with_a_scalar_limit(self):
        cubic = lambda x: 2.0 * x**3 - x**2 + 3.0 * x - 0.5
        antiderivative = lambda x: 0.5 * x**4 - x**3 / 3.0 + 1.5 * x**2 - 0.5 * x
        value = self._integrate(cubic, -0.3, 1.7, 3)
        assert np.ndim(value) == 0
        assert value == pytest.approx(antiderivative(1.7) - antiderivative(-0.3), rel=1e-14)

    def test_exact_for_cubics_with_a_stack_of_limits(self):
        cubic = lambda x: x**3 - 4.0 * x + 1.0
        antiderivative = lambda x: 0.25 * x**4 - 2.0 * x**2 + x
        uppers = np.array([[0.4, 1.0], [2.5, -1.2]])
        values = self._integrate(cubic, 0.2, uppers, 2)
        assert values.shape == uppers.shape
        assert_allclose(values, antiderivative(uppers) - antiderivative(0.2), rtol=1e-13)

    def test_each_row_is_its_own_linspace(self):
        uppers = np.array([0.3, 1.1, 2.9, -0.7])
        nodes, h = simpson_grid(0.1, uppers, 5)
        assert nodes.shape == (4, 11) and h.shape == (4,)
        for row, b in zip(nodes, uppers):
            assert np.array_equal(row, np.linspace(0.1, b, 11))
        assert simpson_pattern(5).tolist() == [1, 4, 2, 4, 2, 4, 2, 4, 2, 4, 1]

    def test_rejects_fewer_than_one_panel(self):
        with pytest.raises(ValueError, match="panels"):
            simpson_grid(0.0, 1.0, 0)

    def test_overflowing_span_raises_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="overflow"):
                simpson_grid(-1e308, 1e308, 4)


class TestMatExp:
    def test_zero_matrix(self):
        assert_allclose(mat_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal_analytic(self):
        out = mat_exp(np.diag([np.log(2), np.log(3)]).astype(complex))
        assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-14)

    def test_pauli_rotation_vs_series_oracle(self):
        a = -1j * SIGMA1 * np.pi / 2
        assert_allclose(mat_exp(a), series_exp(a), atol=1e-14)
        assert_allclose(mat_exp(a), -1j * SIGMA1, atol=1e-13)

    def test_norm_ten_relative_accuracy(self, rng):
        # eigenbasis route is an independent reference for Hermitian input
        h = random_pd(rng, 6, 0.1, 1.0)
        h *= 10.0 / frob(h)
        w, v = np.linalg.eigh(h)
        reference = (v * np.exp(w)) @ v.conj().T
        assert frob(mat_exp(h) - reference) / frob(reference) < 1e-12

    def test_commuting_product_rule(self, rng):
        for dim in (2, 5, 8):
            w = random_unitary(rng, dim)
            a = (w * rng.uniform(-1, 1, dim)) @ w.conj().T
            b = (w * rng.uniform(-1, 1, dim)) @ w.conj().T
            assert frob(mat_exp(a + b) - mat_exp(a) @ mat_exp(b)) < 1e-10


def _mixed_norm_stack(rng, dim, count=12):
    """Ginibre matrices with 1-norms spread over [1e-3, 30], so scalings and degrees differ."""
    norms = np.logspace(-3, np.log10(30.0), count)
    stack = [random_ginibre(rng, dim) for _ in norms]
    return np.array([g * (s / np.linalg.norm(g, 1)) for g, s in zip(stack, norms)])


class TestMatExpStack:
    @pytest.mark.parametrize("dim", [1, 2, 8, 64])
    def test_stack_entries_equal_single_calls(self, rng, dim):
        stack = _mixed_norm_stack(rng, dim)
        out = mat_exp(stack)
        assert out.shape == stack.shape
        for k in range(len(stack)):
            assert np.array_equal(out[k], mat_exp(stack[k]))
        # the position in the stack and its neighbours do not matter either
        shuffled = rng.permutation(len(stack))
        assert np.array_equal(mat_exp(stack[shuffled]), out[shuffled])

    def test_leading_dimensions_are_kept(self, rng):
        stack = _mixed_norm_stack(rng, 3).reshape(3, 4, 3, 3)
        out = mat_exp(stack)
        assert out.shape == (3, 4, 3, 3)
        assert np.array_equal(out[1, 2], mat_exp(stack[1, 2]))

    def test_stack_matches_series_oracle(self, rng):
        for dim in (1, 2, 5, 16):
            stack = _mixed_norm_stack(rng, dim, count=8)
            stack = stack[np.linalg.norm(stack, 2, axis=(-2, -1)) <= 1.0]
            assert len(stack) >= 4
            for a, e in zip(stack, mat_exp(stack)):
                assert frob(e - series_exp(a)) <= 1e-14 * frob(series_exp(a))

    def test_rejects_one_non_finite_entry(self, rng):
        stack = _mixed_norm_stack(rng, 2)
        stack[5, 1, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            mat_exp(stack)

    def test_rejects_non_square_trailing_dimensions(self):
        with pytest.raises(ValueError, match="square"):
            mat_exp(np.zeros((4, 2, 3)))
        with pytest.raises(ValueError, match="square"):
            mat_exp(np.zeros(3))

    def test_overflowing_squarings_raise(self):
        # ||A||_1 = 2e98 would take ~330 squarings, far outside the accuracy domain
        with pytest.raises(FloatingPointError):
            mat_exp(np.stack([np.eye(2), -1e98j * SIGMA1]))

    def test_empty_stack(self):
        out = mat_exp(np.zeros((0, 3, 3)))
        assert out.shape == (0, 3, 3)

    def test_the_accuracy_domain_ends_at_21_squarings(self):
        # ||A||_1 = 2^20 takes 21 squarings; the next float above it takes 22
        edge = np.ldexp(1.0, 20)
        assert unitarity_defect(mat_exp([[1j * edge]])) < 1e-9
        beyond = np.stack([np.eye(2), 1j * np.nextafter(edge, np.inf) * np.eye(2)])
        with pytest.raises(FloatingPointError, match="accuracy domain"):
            mat_exp(beyond)

    def test_overflow_inside_the_domain_raises(self):
        # e^800 is beyond the float range; 800 needs 11 squarings
        with pytest.raises(FloatingPointError):
            mat_exp(800.0 * np.eye(2))


PAULI = np.array([SIGMA1, SIGMA2, SIGMA3])


def _pauli_generators(rng, count):
    """Generators -i H, H = h0 1 + theta n.sigma, and their closed form exp(-iH).

    exp(-iH) = e^(-i h0) (cos theta 1 - i sin theta n.sigma).  theta
    spreads over 1e-9 .. 63, so the Taylor degrees 1..14 and up to 9
    squarings all occur; |h0| <= theta.
    """
    n = rng.standard_normal((count, 3))
    n /= np.linalg.norm(n, axis=1)[:, None]
    theta = 10.0 ** rng.uniform(-9, 1.8, count)
    h0 = theta * rng.uniform(-1, 1, count)
    n_sigma = np.einsum("ki,ijl->kjl", n, PAULI)
    generators = -1j * (h0[:, None, None] * np.eye(2) + theta[:, None, None] * n_sigma)
    exact = np.exp(-1j * h0)[:, None, None] * (
        np.cos(theta)[:, None, None] * np.eye(2) - 1j * np.sin(theta)[:, None, None] * n_sigma)
    return generators, exact


def _squarings(stack):
    mantissa, exponent = np.frexp(np.abs(stack).sum(axis=-2).max(axis=-1))
    return np.maximum(exponent + (mantissa > 0.5), 0)


class TestSmallDimensionKernel:
    """The entrywise products of dims 1 and 2 against closed forms, oracles and the @ route."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_closed_form_accuracy_against_the_matmul_route(self, rng, monkeypatch, dim):
        generators, exact = _pauli_generators(rng, 4000)
        if dim == 1:  # one level: -i (h0 + theta n_3), exponentiated by np.exp
            generators = generators[:, :1, :1]
            exact = np.exp(generators)
        errors = {}
        for route in ("entrywise", "matmul"):
            if route == "matmul":
                monkeypatch.setattr(linalg, "_matmul", np.matmul)
            out = mat_exp(generators)
            errors[route] = (np.linalg.norm(out - exact, axis=(-2, -1))
                             / np.linalg.norm(exact, axis=(-2, -1)))
        squarings = _squarings(generators)
        # each squaring doubles the rounding error; both routes stay in one envelope
        for err in errors.values():
            assert (err <= 2.0 ** (squarings + 1) * EPS).all()
        # on average the routes agree to a few percent: the entrywise squaring
        # rounds each entry once more than zgemm's fused chain
        assert errors["entrywise"].mean() <= 1.1 * errors["matmul"].mean()

    def test_degrees_and_squarings_all_occur(self, rng):
        generators, _ = _pauli_generators(rng, 4000)
        squarings = _squarings(generators)
        scaled = np.abs(generators).sum(axis=-2).max(axis=-1) * 2.0 ** -squarings
        degrees = 1 + np.searchsorted(linalg._EXP_THETA, scaled)
        assert set(degrees.tolist()) == set(range(1, 15))
        assert squarings.max() >= 8

    def test_small_norms_match_the_series_oracle(self, rng):
        generators, _ = _pauli_generators(rng, 400)
        small = generators[np.linalg.norm(generators, 2, axis=(-2, -1)) <= 1.0]
        assert len(small) > 100
        for a, e in zip(small, mat_exp(small)):
            assert frob(e - series_exp(a)) <= 1e-14 * frob(series_exp(a))
        for a, e in zip(small[:, :1, :1], mat_exp(small[:, :1, :1])):
            assert frob(e - series_exp(a)) <= 1e-14 * frob(series_exp(a))

    def test_pauli_drive_matches_the_reference_stepper(self):
        spec = pauli_hamiltonian(np.cos, np.sin, 0.3)
        traj = evolve_trajectory(spec, 0.0, 2.0, 21, 100)
        u = np.eye(2, dtype=complex)
        for a, b, snap_u in zip(traj.grid[:-1], traj.grid[1:], traj.U[1:]):
            u = stepped_propagator(spec.sample, [], a, b, 100, 2) @ u
            assert frob(snap_u - u) <= 1e-13 * frob(u)

    def test_dim_one_comb_matches_the_reference_stepper(self, rng):
        times = np.sort(rng.uniform(0.01, 2.0, 300))
        strengths = rng.uniform(-1.5, 1.5, 300)
        spec = dirac_comb_spec(strengths, times, 1)
        kicks = list(zip(spec.kick_times, spec.kick_strengths))
        u = step_propagator(spec, 0.0, 2.0, 4)
        expected = stepped_propagator(None, kicks, 0.0, 2.0, 4, 1)
        assert abs(u[0, 0] - expected[0, 0]) <= 1e-13


class TestPolarUnitaryFactor:
    """The unitary polar factor of A is P of ``pitaron(A)``."""

    def test_unitary_fixed_point(self, rng):
        w = random_unitary(rng, 5)
        assert frob(pitaron(w).P - w) < 1e-13

    def test_positive_diagonal(self):
        assert_allclose(pitaron(np.diag([2.0, 0.5])).P, np.eye(2), atol=1e-14)

    def test_phase_of_diagonal(self):
        a = np.diag([2 * np.exp(1j * np.pi / 4), 3.0])
        expected = np.diag([np.exp(1j * np.pi / 4), 1.0])
        assert_allclose(pitaron(a).P, expected, atol=1e-14)

    def test_factor_is_unitary(self, rng):
        for dim in (2, 8, 12):
            w = pitaron(random_ginibre(rng, dim)).P
            assert unitarity_defect(w) < 1e-12

    def test_rejects_singular(self):
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            pitaron(np.diag([1.0, 0.0]))


class TestLyapunovSolve:
    def test_identity_halves(self, rng):
        q = random_pd(rng, 4, -1.0, 1.0)
        assert_allclose(lyapunov_solve(np.eye(4), q), q / 2, atol=1e-13)

    def test_diagonal_pair_sums(self):
        x = lyapunov_solve(np.diag([1.0, 2.0]), np.array([[2.0, 3.0], [3.0, 8.0]]))
        assert_allclose(x, [[1.0, 1.0], [1.0, 2.0]], atol=1e-13)

    def test_residual_and_hermiticity(self, rng):
        for dim in (2, 5, 8):
            n = random_pd(rng, dim)
            q = random_pd(rng, dim, -2.0, 2.0)
            x = lyapunov_solve(n, q)
            assert frob(n @ x + x @ n - q) < 1e-10
            assert frob(x - x.conj().T) < 1e-12

    def test_matches_quadrature_oracle(self, rng):
        n = random_pd(rng, 5)
        q = random_pd(rng, 5, -1.0, 2.0)
        assert frob(lyapunov_solve(n, q) - lyapunov_quadrature(n, q)) < 1e-10

    def test_rejects_non_pd(self):
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            lyapunov_solve(np.diag([1.0, -1.0]), np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            lyapunov_solve(np.array([[1, 1], [0, 1]], dtype=complex), np.eye(2))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            lyapunov_solve(np.eye(2), np.eye(3))

