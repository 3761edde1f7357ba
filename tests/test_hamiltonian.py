import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pitaron_lab.hamiltonian import (
    SIGMA1,
    SIGMA2,
    SIGMA3,
    HamiltonianSpec,
    dirac_comb_spec,
    hermitian_split,
    nhse_hamiltonian,
    pauli_hamiltonian,
)
from pitaron_lab.linalg import frob
from pitaron_lab.propagation import step_propagator

from oracles import random_ginibre


class TestHermitianSplit:
    def test_hermitian_input_has_zero_j(self, rng):
        g = random_ginibre(rng, 4)
        h = g + g.conj().T
        split = hermitian_split(h)
        assert frob(split.j_part) == 0.0
        assert frob(split.h_part - h) == 0.0
        assert split.commutator_norm == 0.0

    def test_upper_triangular_hand_case(self):
        split = hermitian_split(np.array([[0, 2], [0, 0]], dtype=complex))
        assert_allclose(split.h_part, SIGMA1, atol=1e-15)
        assert_allclose(split.j_part, np.array([[0, 1j], [-1j, 0]]), atol=1e-15)
        assert_allclose(split.h_part - 1j * split.j_part, [[0, 2], [0, 0]], atol=1e-15)

    def test_diagonal_hand_case(self):
        split = hermitian_split(np.diag([1 - 0.3j, 2 + 0.1j]))
        assert_allclose(split.h_part, np.diag([1.0, 2.0]), atol=1e-15)
        assert_allclose(split.j_part, np.diag([0.3, -0.1]), atol=1e-15)
        assert split.commutator_norm == 0.0

    def test_reconstruction_at_round_off(self, rng):
        for dim in (1, 3, 8):
            h = random_ginibre(rng, dim)
            split = hermitian_split(h)
            assert frob(split.h_part - 1j * split.j_part - h) < 1e-15 * (1 + frob(h))

    def test_parts_are_hermitian(self, rng):
        split = hermitian_split(random_ginibre(rng, 5))
        assert frob(split.h_part - split.h_part.conj().T) < 1e-15
        assert frob(split.j_part - split.j_part.conj().T) < 1e-15


class TestPauliHamiltonian:
    def test_constant_sigma3(self):
        spec = pauli_hamiltonian(0, 0, 1)
        assert_allclose(spec.sample(0.37), np.diag([1.0, -1.0]), atol=1e-15)

    def test_constant_sigma1(self):
        assert_allclose(pauli_hamiltonian(1, 0, 0).sample(2.0), SIGMA1, atol=1e-15)

    def test_rotating_field_at_quarter_period(self):
        spec = pauli_hamiltonian(np.cos, np.sin, 0)
        assert_allclose(spec.sample(np.pi / 2), SIGMA2, atol=1e-15)

    def test_traceless_hermitian_everywhere(self):
        spec = pauli_hamiltonian(np.cos, np.sin, lambda t: 0.5 * t)
        for t in np.linspace(0, 3, 11):
            h = spec.sample(t)
            assert abs(np.trace(h)) < 1e-14
            assert frob(h - h.conj().T) < 1e-14


class TestNhseHamiltonian:
    def test_hermitian_limit_is_sigma1(self):
        assert_allclose(nhse_hamiltonian(2, 0.0, 1.0, 0.0), SIGMA1, atol=1e-15)

    def test_two_site_asymmetric(self):
        assert_allclose(
            nhse_hamiltonian(2, 0.0, 1.0, 0.5),
            np.array([[0.0, 0.5], [1.5, 0.0]]),
            atol=1e-15,
        )

    def test_three_site_tridiagonal(self):
        h = nhse_hamiltonian(3, 1.0, [1.0, 1.0], [0.2, 0.2])
        expected = np.array([[1.0, 0.8, 0.0], [1.2, 1.0, 0.8], [0.0, 1.2, 1.0]])
        assert_allclose(h, expected, atol=1e-15)

    def test_hermiticity_defect_closed_form(self, rng):
        gammas = rng.uniform(0.1, 0.8, 5)
        h = nhse_hamiltonian(6, 0.0, 1.0, gammas)
        assert_allclose(frob(h - h.conj().T), 2 * np.sqrt(2 * np.sum(gammas**2)), rtol=1e-12)

    def test_rejects_wrong_bond_count(self):
        with pytest.raises(ValueError, match="hopping"):
            nhse_hamiltonian(4, 0.0, [1.0, 1.0], 0.5)

    def test_rejects_single_site(self):
        with pytest.raises(ValueError, match="2 sites"):
            nhse_hamiltonian(1, 0.0, [], [])


class TestDiracCombSpec:
    def test_figure_parameters(self):
        spec = dirac_comb_spec([0.6, 1.0, 1.2, 0.8], [1.0, 2.0, 3.0, 4.0], dim=1)
        assert len(spec.kick_times) == 4
        assert spec.smooth is None
        assert_allclose(spec.kick_times, [1.0, 2.0, 3.0, 4.0])
        assert_allclose(spec.kick_strengths[2], [[1.2]])

    def test_empty_comb_is_free_evolution(self):
        spec = dirac_comb_spec([], [], dim=3)
        assert spec.kick_times.shape == (0,) and spec.kick_strengths.shape == (0, 3, 3)
        assert_allclose(spec.sample(1.0), np.zeros((3, 3)))

    def test_generator_scales_kicks(self):
        spec = dirac_comb_spec([np.pi], [1.0], dim=2, generator=SIGMA3)
        assert_allclose(spec.kick_strengths[0], np.pi * SIGMA3)

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            dirac_comb_spec([1.0, 1.0], [2.0, 2.0], dim=1)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="strengths"):
            dirac_comb_spec([1.0], [1.0, 2.0], dim=1)

    def test_rejects_non_finite_strength_before_scaling_the_generator(self):
        # inf times the generator's zero entries would warn (an error under pytest)
        with pytest.raises(ValueError, match="finite"):
            dirac_comb_spec([np.inf], [1.0], dim=2)

    def test_rejects_non_hermitian_generator(self):
        with pytest.raises(ValueError, match="Hermitian"):
            dirac_comb_spec([1.0], [1.0], dim=2, generator=[[0, 1], [0, 0]])


# (kick_times, kick_strengths, message) that a dim-2 spec rejects
INVALID_KICKS = pytest.mark.parametrize("times, strengths, match", [
    ([1.0], [np.eye(3)], "dimension"),
    ([np.nan], [np.eye(2)], "finite"),  # one time: no neighbour to break the order
    ([1.0, 1.0], [np.eye(2), np.eye(2)], "increasing"),
    ([1.0, 2.0], [np.eye(2)], "strengths"),
    ([1.0], np.eye(2), "strengths"),  # a matrix, not a stack of one
    ([1.0], [[[np.inf, 0.0], [0.0, 1.0]]], "finite"),
], ids=["dimension", "nan_time", "repeated_times", "length", "not_a_stack",
        "non_finite_strength"])


class TestHamiltonianSpec:
    def test_sample_validates_shape(self):
        spec = HamiltonianSpec(dim=2, smooth=lambda t: np.zeros((3, 3)))
        with pytest.raises(ValueError, match="shape"):
            spec.sample(0.0)

    def test_sample_validates_finiteness(self):
        spec = HamiltonianSpec(dim=1, smooth=lambda t: np.array([[np.inf]]))
        with pytest.raises(ValueError, match="non-finite"):
            spec.sample(0.0)

    @INVALID_KICKS
    def test_kick_dimension_must_match(self, times, strengths, match):
        with pytest.raises(ValueError, match=match):
            HamiltonianSpec(dim=2, kick_times=times, kick_strengths=strengths)

    def test_stores_read_only_copies_of_the_kicks(self):
        times = np.array([0.5, 1.0])
        strengths = np.stack([SIGMA1, SIGMA3]).astype(np.complex128)
        spec = HamiltonianSpec(dim=2, kick_times=times, kick_strengths=strengths)
        before = step_propagator(spec, 0.0, 2.0, 1)
        times[0] = 1.5
        strengths[:] = 0.0
        assert np.array_equal(step_propagator(spec, 0.0, 2.0, 1), before)
        with pytest.raises(ValueError, match="read-only"):
            spec.kick_times[0] = 0.25
        with pytest.raises(ValueError, match="read-only"):
            spec.kick_strengths[0] = SIGMA2


class TestConstantSpec:
    def test_sample_returns_the_matrix(self, rng):
        h = random_ginibre(rng, 3)
        spec = HamiltonianSpec.constant(h)
        assert spec.dim == 3
        assert np.array_equal(spec.sample(0.0), h)
        assert np.array_equal(spec.sample(7.5), h)
        assert np.array_equal(spec.smooth(1.0), h)

    def test_stores_a_copy(self):
        h = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        spec = HamiltonianSpec.constant(h)
        h[0, 0] = 99.0
        assert spec.sample(0.0)[0, 0] == 1.0

    def test_sample_is_read_only(self):
        spec = HamiltonianSpec.constant(SIGMA1)
        with pytest.raises(ValueError, match="read-only"):
            spec.sample(0.0)[0, 0] = 5.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HamiltonianSpec.constant(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            HamiltonianSpec.constant([[1.0, np.nan], [0.0, 1.0]])

    @INVALID_KICKS
    def test_rejects_kick_dimension_mismatch(self, times, strengths, match):
        with pytest.raises(ValueError, match=match):
            HamiltonianSpec.constant(SIGMA1, kick_times=times, kick_strengths=strengths)


class TestSampleStack:
    def test_constant_spec_broadcasts_read_only(self, rng):
        h = random_ginibre(rng, 3)
        spec = HamiltonianSpec.constant(h)
        stack = spec.sample_stack(np.zeros((2, 4)))
        assert stack.shape == (2, 4, 3, 3)
        assert np.array_equal(stack[1, 3], h)
        assert not stack.flags.writeable

    def test_pure_kick_spec_is_zero(self):
        spec = dirac_comb_spec([0.5], [1.0], dim=2)
        assert np.array_equal(spec.sample_stack([0.5, 1.5]), np.zeros((2, 2, 2)))

    def test_user_smooth_called_once_per_time(self):
        seen = []

        def smooth(t):
            seen.append(t)
            return np.diag([t, -t])

        spec = HamiltonianSpec(dim=2, smooth=smooth)
        ts = np.array([[0.1, 0.2], [0.3, 0.4]])
        stack = spec.sample_stack(ts)
        assert seen == [0.1, 0.2, 0.3, 0.4]
        assert stack.shape == (2, 2, 2, 2)
        assert np.array_equal(stack[1, 0], spec.sample(0.3))

    def test_validates_shape(self):
        spec = HamiltonianSpec(dim=2, smooth=lambda t: np.eye(3))
        with pytest.raises(ValueError, match="shape"):
            spec.sample_stack([0.0, 1.0])
        ragged = HamiltonianSpec(dim=2, smooth=lambda t: np.eye(2 if t < 0.5 else 3))
        with pytest.raises(ValueError, match="shape"):
            ragged.sample_stack([0.0, 1.0])

    def test_validates_finiteness_and_names_a_bad_time(self):
        spec = HamiltonianSpec(dim=1, smooth=lambda t: [[1.0 / (t - 0.5) if t != 0.5 else np.nan]])
        with pytest.raises(ValueError, match="t=0.5"):
            spec.sample_stack([0.0, 0.5, 1.0])

    def test_finite_entries_whose_sum_overflows_are_accepted(self):
        spec = HamiltonianSpec(dim=2, smooth=lambda t: np.full((2, 2), 1e308))
        stack = spec.sample_stack([0.0, 1.0])
        assert np.array_equal(stack, np.full((2, 2, 2), 1e308))

    def test_empty_times(self):
        spec = pauli_hamiltonian(np.cos, 0.0, 1.0)
        assert spec.sample_stack(np.array([])).shape == (0, 2, 2)

    @pytest.mark.parametrize("profiles", [(np.cos, np.sin, 0.3), (math.cos, math.sin, 0.3),
                                          (np.positive, -0.2, lambda t: t * t)])
    def test_pauli_stack_equals_scalar_samples(self, profiles):
        spec = pauli_hamiltonian(*profiles)
        ts = np.linspace(0.0, 3.0, 7)
        stack = spec.sample_stack(ts)
        for t, h in zip(ts, stack):
            assert np.array_equal(h, spec.sample(t))

    def test_pauli_calls_a_plain_callable_once_per_time(self):
        calls = []

        def profile(x):
            calls.append(np.shape(x))
            return x

        spec = pauli_hamiltonian(np.sin, profile, 1.0)
        spec.sample_stack(np.linspace(0.0, 1.0, 5))
        assert calls == [()] * 5
