import numpy as np
import pytest
from numpy.testing import assert_allclose

from pitaron_lab.linalg import (
    as_matrix,
    frob,
    lyapunov_solve,
    mat_exp,
    unitarity_defect,
)
from pitaron_lab.propagation import pitaron

from oracles import lyapunov_quadrature, random_ginibre, random_pd, random_unitary, series_exp

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)


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
        # ||A||_1 = 2e98: ~330 squarings, whose rounding errors grow past the float range
        with pytest.raises(FloatingPointError):
            mat_exp(np.stack([np.eye(2), -1e98j * SIGMA1]))

    def test_empty_stack(self):
        out = mat_exp(np.zeros((0, 3, 3)))
        assert out.shape == (0, 3, 3)


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

