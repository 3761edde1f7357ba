import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pitaron_lab.propagation as propagation
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
from pitaron_lab.linalg import _matmul, frob, frob_stack, mat_exp
from pitaron_lab.propagation import (
    evolve_trajectory,
    general_n_rhs,
    liouville_rhs,
    lyapunov_n_rhs,
    markov_check,
    pitaron,
    step_propagator,
    z_factor,
)

from oracles import (
    exact_n_distance,
    newton_polar,
    random_ginibre,
    random_unitary,
    series_exp,
    stepped_propagator,
)

DIMB_STRENGTHS = [0.6, 1.0, 1.2, 0.8]
DIMB_TIMES = [1.0, 2.0, 3.0, 4.0]

# constant commuting non-Hermitian family: H = diag(1,2) - i diag(0.3,-0.1)
NONHER_H = np.diag([1.0, 2.0]) - 1j * np.diag([0.3, -0.1])

EPS = np.finfo(float).eps


class TestStepPropagator:
    def test_free_evolution_is_identity(self):
        spec = HamiltonianSpec(dim=3, smooth=None)
        assert_allclose(step_propagator(spec, 0.0, 2.0, 7), np.eye(3), atol=1e-15)

    def test_constant_sigma3_half_period(self):
        spec = pauli_hamiltonian(0, 0, 1)
        u = step_propagator(spec, 0.0, np.pi, 64)
        assert_allclose(u, -np.eye(2), atol=1e-13)

    def test_pure_kick_scalar_phase(self):
        spec = dirac_comb_spec(DIMB_STRENGTHS, DIMB_TIMES, dim=1)
        u = step_propagator(spec, 0.0, 5.0, 10)
        assert abs(u[0, 0] - np.exp(-3.6j)) < 1e-14

    def test_single_pi_kick_flips_sign(self):
        spec = dirac_comb_spec([np.pi], [1.0], dim=1)
        u = step_propagator(spec, 0.0, 2.0, 4)
        assert abs(u[0, 0] + 1.0) < 1e-14

    def test_kick_count_independent_of_steps(self):
        spec = dirac_comb_spec([0.3], [1.0], dim=1)
        for steps in (1, 3, 10):
            assert abs(step_propagator(spec, 0.0, 2.0, steps)[0, 0] - np.exp(-0.3j)) < 1e-14

    def test_second_order_convergence_on_smooth_spec(self):
        spec = pauli_hamiltonian(np.cos, np.sin, 0.5)
        reference = step_propagator(spec, 0.0, 2.0, 4096)
        errors = [frob(step_propagator(spec, 0.0, 2.0, n) - reference) for n in (32, 64, 128)]
        assert 3.0 < errors[0] / errors[1] < 5.0
        assert 3.0 < errors[1] / errors[2] < 5.0

    def test_rejects_kick_at_interval_start(self):
        spec = dirac_comb_spec([1.0], [1.0], dim=1)
        with pytest.raises(ValueError, match="coincides"):
            step_propagator(spec, 1.0, 2.0, 4)

    def test_rejects_backwards_interval(self):
        spec = HamiltonianSpec(dim=1, smooth=None)
        with pytest.raises(ValueError, match="t >"):
            step_propagator(spec, 1.0, 1.0, 4)


class TestNormalizationOperator:
    def test_unitary_gives_identity(self, rng):
        w = random_unitary(rng, 6)
        assert frob(pitaron(w).N - np.eye(6)) < 1e-13

    def test_diagonal_inverse_moduli(self):
        n = pitaron(np.diag([2.0, 0.5]).astype(complex)).N
        assert_allclose(n, np.diag([0.5, 2.0]), atol=1e-14)

    def test_commuting_nonhermitian_closed_form(self):
        u = mat_exp(-1j * NONHER_H)
        n = pitaron(u).N
        assert frob(n - np.diag([np.exp(0.3), np.exp(-0.1)])) < 1e-12

    def test_rejects_ill_conditioned(self):
        with pytest.raises(np.linalg.LinAlgError, match="cond"):
            pitaron(np.diag([1.0, 1e-14])).N


class TestPitaron:
    def test_unitary_fixed_point(self, rng):
        w = random_unitary(rng, 4)
        triple = pitaron(w)
        assert frob(triple.P - w) < 1e-13
        assert triple.defect_U < 1e-13

    def test_positive_diagonal_normalizes_to_identity(self):
        triple = pitaron(np.diag([2.0, 0.5]).astype(complex))
        assert_allclose(triple.P, np.eye(2), atol=1e-14)

    def test_commuting_nonhermitian_closed_form(self):
        triple = pitaron(mat_exp(-1j * NONHER_H))
        assert frob(triple.P - np.diag([np.exp(-1j), np.exp(-2j)])) < 1e-12

    def test_nondiagonal_commuting_family_closed_form(self):
        # [Hh, J] = 0 without being diagonal: N = exp(J dt), P = exp(-i Hh dt)
        hh = 0.7 * SIGMA1 + 0.2 * np.eye(2)
        j = 0.3 * SIGMA1 - 0.1 * np.eye(2)
        dt = 0.9
        triple = pitaron(mat_exp(-1j * (hh - 1j * j) * dt))
        assert frob(triple.N - mat_exp(j * dt)) < 1e-9
        assert frob(triple.P - mat_exp(-1j * hh * dt)) < 1e-9

    def test_unitarity_and_polar_oracle_sweep(self, rng):
        for dim in (2, 5, 9, 16):
            u = random_ginibre(rng, dim)
            triple = pitaron(u)
            assert triple.defect_P < 1e-10
            assert frob(triple.P - newton_polar(u)) < 1e-9
            # P = W V^dagger and N = W Sigma^-1 W^dagger agree with P = N U to rounding
            assert frob(triple.P - triple.N @ triple.U) <= 8 * dim * EPS * triple.cond_U

    def test_n_is_hermitian_positive_definite(self, rng):
        triple = pitaron(random_ginibre(rng, 7))
        assert frob(triple.N - triple.N.conj().T) < 1e-13
        assert np.all(np.linalg.eigvalsh(triple.N) > 0)


class TestIllConditionedUnitarization:
    def test_cond_sweep_defect_at_rounding(self, rng):
        dim = 8
        for exponent in range(2, 12):
            cond = 10.0**exponent
            q1, q2 = random_unitary(rng, dim), random_unitary(rng, dim)
            triple = pitaron((q1 * np.logspace(0, -exponent, dim)) @ q2.conj().T)
            assert triple.defect_P <= 1e-12
            assert frob(triple.P - q1 @ q2.conj().T) <= 8 * dim * EPS * cond
            # storing U rounds sigma_min by ~eps * sigma_max, i.e. eps * cond relative
            assert abs(triple.cond_U / cond - 1.0) <= dim * EPS * cond

    def test_rejects_cond_above_threshold(self, rng):
        q1, q2 = random_unitary(rng, 8), random_unitary(rng, 8)
        with pytest.raises(np.linalg.LinAlgError, match="cond"):
            pitaron((q1 * np.logspace(0, -13, 8)) @ q2.conj().T)

    def test_nhse_trajectory_defect_at_rounding(self):
        spec = HamiltonianSpec.constant(nhse_hamiltonian(16, 0.0, 1.0, 0.5))
        traj = evolve_trajectory(spec, 0.0, 10.0, 41, 20)
        assert max(s.defect_P for s in traj.snapshots) <= 1e-12
        assert traj.snapshots[-1].cond_U > 1e6

    def test_nhse_close_to_threshold_completes(self):
        spec = HamiltonianSpec.constant(nhse_hamiltonian(16, 0.0, 1.0, 0.8))
        traj = evolve_trajectory(spec, 0.0, 10.0, 41, 20)
        worst = max(s.cond_U for s in traj.snapshots)
        assert 1e11 < worst < 1e12
        assert max(s.defect_P for s in traj.snapshots) <= 1e-12


class TestZFactor:
    def test_unitary_preserves_norm(self, rng):
        w = random_unitary(rng, 5)
        psi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert abs(z_factor(w, psi) - 1.0) < 1e-13

    def test_diagonal_amplification(self):
        assert z_factor(np.diag([2.0, 0.5]), [1.0, 0.0]) == pytest.approx(2.0)

    def test_nhse_norm_change(self):
        # 2x2 non-normal exponential, checked against its eigendecomposition
        h = nhse_hamiltonian(2, 0.0, 1.0, 0.5)
        u = mat_exp(-1j * h)
        w, v = np.linalg.eig(-1j * h)
        u_oracle = v @ np.diag(np.exp(w)) @ np.linalg.inv(v)
        assert frob(u - u_oracle) < 1e-13
        z = z_factor(u, [1.0, 0.0])
        assert abs(z - 1.0) > 0.01

    def test_rejects_zero_state(self):
        with pytest.raises(ValueError, match="nonzero"):
            z_factor(np.eye(2), [0.0, 0.0])

    @pytest.mark.parametrize("psi", [[1e200, 1e200], [np.inf, 0.0], [np.nan, 1.0], [1e-200, 0.0]],
                             ids=["norm-overflows", "inf", "nan", "norm-underflows"])
    def test_rejects_a_state_whose_norm_is_no_positive_float(self, psi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite norm"):
                z_factor(np.eye(2), psi)

    def test_overflowing_u_psi_raises_without_a_warning(self):
        # ||psi||^2 = 2e300 is a float; ||U psi||^2 = 2e312 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                z_factor(1e6 * np.eye(2), [1e150, 1e150])

    def test_stack_gives_an_array_and_one_matrix_a_float(self, rng):
        u = np.stack([random_ginibre(rng, 3) for _ in range(4)]).reshape(2, 2, 3, 3)
        psi = [1.0, 2.0, -1j]
        ratios = z_factor(u, psi)
        assert ratios.shape == (2, 2)
        assert type(z_factor(u[1, 0], psi)) is float
        assert ratios[1, 0] == z_factor(u[1, 0], psi)


class TestEvolutionLaws:
    def test_liouville_identity_commutes(self):
        assert_allclose(liouville_rhs(SIGMA3, np.eye(2)), np.zeros((2, 2)), atol=1e-15)

    def test_liouville_pauli_algebra(self):
        assert_allclose(liouville_rhs(SIGMA3, SIGMA1), 2 * SIGMA2, atol=1e-14)

    def test_liouville_commuting_pair(self):
        h = np.diag([1.0, 2.0]).astype(complex)
        n = np.diag([3.0, 4.0]).astype(complex)
        assert frob(liouville_rhs(h, n)) == 0.0

    def test_liouville_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            liouville_rhs(NONHER_H, np.eye(2))

    def test_general_rhs_trivial_when_j_zero(self):
        split = hermitian_split(SIGMA3)
        assert frob(general_n_rhs(split, np.eye(2))) == 0.0

    def test_general_rhs_reduces_to_liouville(self):
        split = hermitian_split(SIGMA3)
        assert_allclose(general_n_rhs(split, SIGMA1), liouville_rhs(SIGMA3, SIGMA1), atol=1e-15)

    def test_general_rhs_differentiates_closed_form(self):
        # N(t) = diag(e^{0.3 t}, e^{-0.1 t}) solves the law for the diagonal family
        split = hermitian_split(NONHER_H)
        t = 1.0
        n = np.diag([np.exp(0.3 * t), np.exp(-0.1 * t)]).astype(complex)
        expected = np.diag([0.3 * np.exp(0.3), -0.1 * np.exp(-0.1)])
        assert_allclose(general_n_rhs(split, n), expected, atol=1e-14)

    def test_lyapunov_rhs_vanishes_for_unitary(self, rng):
        h = random_ginibre(rng, 3)
        h = h + h.conj().T
        u = mat_exp(-1j * h * 0.7)
        du = -1j * h @ u
        x = lyapunov_n_rhs(u, du, np.eye(3))
        assert frob(x) < 1e-13

    def test_lyapunov_rhs_matches_general_on_diagonal_family(self):
        split = hermitian_split(NONHER_H)
        t = 1.0
        u = mat_exp(-1j * NONHER_H * t)
        du = -1j * NONHER_H @ u
        n = pitaron(u).N
        assert frob(lyapunov_n_rhs(u, du, n) - general_n_rhs(split, n)) < 1e-10

    def test_lyapunov_rhs_matches_finite_differences_quadratically(self, rng):
        m = random_ginibre(rng, 3)
        t = 0.8

        def n_of(s):
            return pitaron(mat_exp(-1j * m * s)).N

        u = mat_exp(-1j * m * t)
        du = -1j * m @ u
        x = lyapunov_n_rhs(u, du, n_of(t))
        errors = []
        for h in (1e-2, 1e-3):
            fd = (n_of(t + h) - n_of(t - h)) / (2 * h)
            errors.append(frob(x - fd))
        assert errors[0] / errors[1] == pytest.approx(100.0, rel=0.5)

    def test_unitarized_propagator_satisfies_schrodinger_equation(self):
        # in the commuting regime dP/dt + i Hh P = 0; the centered finite
        # difference of the polar-defined P converges to it quadratically
        split = hermitian_split(NONHER_H)

        def p_of(s):
            return pitaron(mat_exp(-1j * NONHER_H * s)).P

        t = 0.8
        residuals = []
        for h in (1e-2, 1e-3):
            dp = (p_of(t + h) - p_of(t - h)) / (2 * h)
            residuals.append(frob(dp + 1j * split.h_part @ p_of(t)))
        assert residuals[0] / residuals[1] == pytest.approx(100.0, rel=0.5)
        assert residuals[1] < 1e-5

    def test_noncommuting_split_discrepancy_reported_not_asserted(self, rng):
        # the closed-form law is derived for commuting splits; outside that
        # regime we only record the mismatch against finite differences
        m = SIGMA3 - 0.4j * SIGMA1  # split parts do not commute
        split = hermitian_split(m)
        t, h = 0.9, 1e-5

        def n_of(s):
            return pitaron(mat_exp(-1j * m * s)).N

        fd = (n_of(t + h) - n_of(t - h)) / (2 * h)
        gap = frob(general_n_rhs(split, n_of(t)) - fd)
        assert np.isfinite(gap)
        print(f"noncommuting split: |general_n_rhs - dN/dt| = {gap:.3e}")


class TestEvolveTrajectory:
    @pytest.mark.parametrize("dim", [1, 2, 64])
    def test_initial_snapshot_is_exact_identity(self, dim):
        spec = {
            1: HamiltonianSpec(dim=1, smooth=lambda t: np.array([[0.3 - 0.2j]])),
            2: pauli_hamiltonian(1, 0, 0),
            64: HamiltonianSpec.constant(np.diag(np.linspace(-1.0, 1.0, 64))),
        }[dim]
        traj = evolve_trajectory(spec, 0.0, 1.0, 5, 10)
        first = traj.snapshots[0]
        eye = np.eye(dim)
        assert np.array_equal(first.U, eye)
        assert np.array_equal(first.N, eye)
        assert np.array_equal(first.P, eye)
        assert first.defect_U == first.defect_P == 0.0
        assert first.cond_U == 1.0
        assert traj.defect_U[0] == traj.defect_P[0] == traj.n_distance[0] == 0.0
        assert traj.cond_U[0] == 1.0

    def test_hermitian_spec_has_trivial_n(self):
        spec = pauli_hamiltonian(np.cos, np.sin, 0.5)
        traj = evolve_trajectory(spec, 0.0, 2.0, 11, 50)
        assert traj.n_distance.max() < 1e-10

    def test_comb_trajectory_and_truncated_staircase(self):
        from pitaron_lab.singular_dynamics import comb_truncated_norm

        spec = dirac_comb_spec(DIMB_STRENGTHS, DIMB_TIMES, dim=1)
        traj = evolve_trajectory(spec, 0.0, 5.0, 51, 4)
        # exact Hermitian kicks are pure phases, so the true N never leaves 1;
        # the staircase lives in the truncated closed form plotted alongside
        assert traj.n_distance.max() < 1e-12
        trunc = [comb_truncated_norm(DIMB_STRENGTHS, DIMB_TIMES, t) for t in traj.grid]
        for i in range(1, len(traj.grid)):
            expected_jump = any(
                traj.grid[i - 1] < tau <= traj.grid[i] for tau in DIMB_TIMES
            )
            assert (trunc[i] != trunc[i - 1]) == expected_jump

    def test_matrix_comb_kicks_at_grid_times_compose(self):
        spec = dirac_comb_spec([0.5, 0.7], [1.0, 2.0], dim=2, generator=SIGMA1)
        traj = evolve_trajectory(spec, 0.0, 3.0, 4, 3)
        expected = mat_exp(-0.7j * SIGMA1) @ mat_exp(-0.5j * SIGMA1)
        assert frob(traj.snapshots[-1].U - expected) < 1e-14

    def test_nhse_defect_grows_but_p_stays_unitary(self):
        h = nhse_hamiltonian(4, 0.0, 1.0, 0.5)
        spec = HamiltonianSpec(dim=4, smooth=lambda t: h)
        psi = np.zeros(4)
        psi[0] = 1.0
        traj = evolve_trajectory(spec, 0.0, 2.0, 9, 20, psi0=psi)
        assert traj.snapshots[-1].defect_U > traj.snapshots[1].defect_U
        assert traj.snapshots[-1].defect_U > 0.1
        assert max(s.defect_P for s in traj.snapshots) < 1e-10
        assert abs(traj.z_factors[-1] - 1.0) > 0.05

    def test_columns_hold_the_snapshots(self, rng):
        spec = _kicked_nonhermitian_spec(rng)
        traj = evolve_trajectory(spec, 0.0, 2.0, 5, 7, psi0=[1.0, 0.0, 1j])
        assert traj.U.shape == (5, 3, 3)
        for k, snap in enumerate(traj.snapshots):
            _assert_same_triple(snap, pitaron(traj.U[k]))
            assert (snap.defect_U, snap.defect_P, snap.cond_U) == \
                (traj.defect_U[k], traj.defect_P[k], traj.cond_U[k])
            _assert_n_distance_from_sigma(traj.n_distance[k], snap)
            assert traj.z_factors[k] == z_factor(snap.U, [1.0, 0.0, 1j])

    @pytest.mark.parametrize("make", ["chain", "pauli", "comb"])
    def test_a_trajectory_forms_no_n(self, monkeypatch, make):
        # N is hermitize((W / sigma) W^dagger): only pitaron forms it
        spec = {
            "chain": lambda: HamiltonianSpec.constant(nhse_hamiltonian(16, 0.0, 1.0, 0.3)),
            "pauli": lambda: pauli_hamiltonian(np.cos, np.sin, 0.3),
            "comb": lambda: dirac_comb_spec(DIMB_STRENGTHS, DIMB_TIMES, dim=1),
        }[make]()
        expected = evolve_trajectory(spec, 0.0, 5.0, 21, 4)
        monkeypatch.setattr(propagation, "hermitize", lambda a: pytest.fail("formed N"))
        _assert_same_trajectory(evolve_trajectory(spec, 0.0, 5.0, 21, 4), expected)

    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_n_distance_against_an_exact_svd(self, seed):
        # 30 non-normal U = exp(-i t A) of dim 2-6 against singular values at 50 digits.
        # The SVD's own error is eps sigma_max per singular value, which 1 / sigma turns
        # into eps cond_U / sigma_min; the subtraction of 1 is rounded at eps where
        # sigma_min > 1.  Over 200 seeds of this draw the sigma route stayed within 0.96
        # of that bound and the route through N within 1.7 of it.
        rng = np.random.default_rng(seed)
        worst = {"sigma": 0.0, "N": 0.0}
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            a, t = random_ginibre(rng, dim), rng.uniform(0.1, 3.0)
            traj = evolve_trajectory(HamiltonianSpec.constant(a), 0.0, t, 2, 1)
            u, cond = traj.U[1], traj.cond_U[1]
            bound = dim * EPS * cond / min(1.0, np.linalg.svd(u, compute_uv=False)[-1])
            exact = exact_n_distance(u)
            errors = {"sigma": abs(traj.n_distance[1] - exact),
                      "N": abs(frob(pitaron(u).N - np.eye(dim)) - exact)}
            assert errors["sigma"] <= bound
            assert errors["N"] <= 2 * bound
            worst = {route: max(worst[route], errors[route] / bound) for route in worst}
        assert worst["sigma"] <= worst["N"]

    def test_a_trajectory_holds_one_matrix_stack(self):
        # N and P of a snapshot are pitaron(traj.U[k]): beside U only block temporaries
        spec = HamiltonianSpec.constant(nhse_hamiltonian(64, 0.0, 1.0, 0.5))
        evolve_trajectory(spec, 0.0, 1.0, 2, 1)  # first-call imports and caches
        tracemalloc.start()
        try:
            traj = evolve_trajectory(spec, 0.0, 4.0, 128, 1)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        mib = 1 << 20
        assert retained <= traj.U.nbytes + mib // 2
        assert peak <= traj.U.nbytes + 4 * mib

    def test_huge_reference_state_is_rejected_before_stepping(self, monkeypatch):
        monkeypatch.setattr(propagation, "mat_exp", lambda a: pytest.fail("stepped"))
        with pytest.raises(ValueError, match="finite norm"):
            evolve_trajectory(pauli_hamiltonian(1, 0, 0), 0.0, 1.0, 3, 2, psi0=[1e200, 0.0])

    def test_z_factors_track_reference_state(self):
        spec = pauli_hamiltonian(0, 0, 1)
        traj = evolve_trajectory(spec, 0.0, 1.0, 6, 8, psi0=[1.0, 1.0])
        assert_allclose(traj.z_factors, np.ones(6), atol=1e-12)

    def test_grid_alignment(self):
        spec = pauli_hamiltonian(1, 0, 0)
        traj = evolve_trajectory(spec, 0.5, 2.5, 9, 4)
        assert traj.grid[0] == 0.5
        assert traj.grid[-1] == 2.5

    def test_rejects_singleton_grid(self):
        with pytest.raises(ValueError, match="2 points"):
            evolve_trajectory(pauli_hamiltonian(1, 0, 0), 0.0, 1.0, 1, 4)


class TestMarkovCheck:
    def test_constant_hermitian_composes_exactly(self):
        spec = pauli_hamiltonian(0.3, 0.2, 0.7)
        assert markov_check(spec, 0.0, 0.9, 2.0, 16) < 1e-10

    def test_piecewise_constant_composes_exactly(self):
        spec = HamiltonianSpec(
            dim=2, smooth=lambda t: SIGMA1 if t <= 1.0 else SIGMA3
        )
        assert markov_check(spec, 0.0, 1.0, 2.0, 16) < 1e-10

    def test_smooth_defect_shrinks_quadratically(self):
        spec = pauli_hamiltonian(np.cos, np.sin, 0.5)
        d = [markov_check(spec, 0.0, 0.7, 2.0, n) for n in (40, 80, 160)]
        assert 3.0 < d[0] / d[1] < 5.0
        assert 3.0 < d[1] / d[2] < 5.0

    def test_kick_factors_compose(self):
        spec = dirac_comb_spec([0.4], [0.5], dim=1)
        assert markov_check(spec, 0.0, 1.0, 2.0, 8) < 1e-14

    def test_rejects_split_at_kick(self):
        spec = dirac_comb_spec([0.4], [1.0], dim=1)
        with pytest.raises(ValueError, match="ambiguous"):
            markov_check(spec, 0.0, 1.0, 2.0, 8)


def _assert_same_triple(a, b):
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.N, b.N)
    assert np.array_equal(a.P, b.P)
    assert (a.defect_U, a.defect_P, a.cond_U) == (b.defect_U, b.defect_P, b.cond_U)


def _assert_n_distance_from_sigma(n_distance, triple):
    """n_distance is ||sigma^-1 - 1||_2 of the SVD of U, and within rounding of ||N - 1||_F.

    Each 1 / sigma - 1 is rounded at eps / sigma, and at eps where sigma > 1.
    """
    s = np.linalg.svd(triple.U)[1]
    assert n_distance == frob_stack((1.0 / s - 1.0)[..., None])
    dim = len(s)
    assert abs(n_distance - frob(triple.N - np.eye(dim))) <= 4 * dim * EPS / min(1.0, s[-1])


def _assert_same_trajectory(a, b):
    for column in ("grid", "U", "defect_U", "defect_P", "cond_U", "n_distance", "z_factors"):
        assert np.array_equal(getattr(a, column), getattr(b, column)), column


class TestConstantSpecReuse:
    """A constant spec is one exponential per cell between kicks, whatever ``steps``.

    Its midpoint rule is exact, so at any ``steps_per_cell`` it equals a
    callable spec with the same H stepped at one piece per cell, bit for bit.
    """

    @staticmethod
    def _specs(rng, kick_times):
        h = 0.4 * random_ginibre(rng, 8)
        v = random_ginibre(rng, 8)
        strengths = np.broadcast_to(0.5 * (v + v.conj().T), (len(kick_times), 8, 8))
        return (HamiltonianSpec.constant(h, kick_times, strengths),
                HamiltonianSpec(dim=8, smooth=lambda t: h, kick_times=kick_times,
                                kick_strengths=strengths))

    # grid over [0, 2] with 9 points has cells of width 0.25
    @pytest.mark.parametrize("kick_times", [(), (0.3,), (0.5,)],
                             ids=["no_kick", "kick_inside_cell", "kick_at_grid_time"])
    def test_trajectory_matches_callable_spec(self, rng, kick_times):
        constant, callable_spec = self._specs(rng, kick_times)
        psi = np.ones(8)
        _assert_same_trajectory(
            evolve_trajectory(constant, 0.0, 2.0, 9, 5, psi0=psi),
            evolve_trajectory(callable_spec, 0.0, 2.0, 9, 1, psi0=psi),
        )

    def test_step_propagator_and_markov_check_match(self, rng):
        constant, callable_spec = self._specs(rng, (0.3,))
        assert np.array_equal(step_propagator(constant, 0.0, 1.3, 11),
                              step_propagator(callable_spec, 0.0, 1.3, 1))
        assert markov_check(constant, 0.0, 0.7, 1.4, 6) == \
            markov_check(callable_spec, 0.0, 0.7, 1.4, 1)

    def test_no_cache_outlives_a_call(self, rng):
        pairs = [self._specs(rng, ()) for _ in range(2)]
        runs = [evolve_trajectory(c, 0.0, 1.0, 5, 4) for c, _ in pairs]
        for run, (_, callable_spec) in zip(runs, pairs):
            _assert_same_trajectory(run, evolve_trajectory(callable_spec, 0.0, 1.0, 5, 1))

    def test_steps_per_cell_does_not_change_u(self, rng):
        # one kick inside a cell and one at a grid time
        constant, _ = self._specs(rng, (0.3, 0.5))
        _assert_same_trajectory(evolve_trajectory(constant, 0.0, 2.0, 9, 1),
                                evolve_trajectory(constant, 0.0, 2.0, 9, 7))
        assert np.array_equal(step_propagator(constant, 0.0, 1.3, 1),
                              step_propagator(constant, 0.0, 1.3, 7))

    def test_steps_per_cell_must_still_be_positive(self, rng):
        constant, _ = self._specs(rng, ())
        with pytest.raises(ValueError, match="at least 1"):
            evolve_trajectory(constant, 0.0, 1.0, 5, 0)
        with pytest.raises(ValueError, match="at least 1"):
            step_propagator(constant, 0.0, 1.0, 0)

    def test_matches_an_independent_exponential_at_every_snapshot(self, rng):
        # a small-norm non-Hermitian H (||H (t - t0)||_1 <= ~4): every snapshot is
        # exp(-i H (t - t0)) from the plain Taylor series to 8 eps relative; over 300
        # seeded draws the worst was 4.9 eps, and 107 eps with 20 factors per cell
        h = 0.2 * random_ginibre(rng, 6)
        traj = evolve_trajectory(HamiltonianSpec.constant(h), 0.5, 2.5, 9, 20)
        for t, u in zip(traj.grid, traj.U):
            exact = series_exp(-1j * h * (t - 0.5))
            assert frob(u - exact) <= 8 * EPS * frob(exact)


def _kicked_nonhermitian_spec(rng):
    """3x3 time-dependent non-Hermitian H(t) = A cos t + B t with four kicks.

    On a grid over [0, 2] with 5 points (cells of width 0.5) two kicks sit
    inside the first cell (0.3, 0.45), one at a grid time (1.0) and one
    at t1 (2.0).
    """
    a, b = 0.7 * random_ginibre(rng, 3), 0.4 * random_ginibre(rng, 3)
    times = (0.3, 0.45, 1.0, 2.0)
    strengths = [0.6 * random_ginibre(rng, 3) for _ in times]
    return HamiltonianSpec(dim=3, smooth=lambda t: a * np.cos(t) + b * t, kick_times=times,
                           kick_strengths=strengths)


class TestStackedStepper:
    """One stacked sample and one stacked exponential per trajectory, same product."""

    def test_trajectory_matches_reference_stepper(self, rng):
        spec = _kicked_nonhermitian_spec(rng)
        traj = evolve_trajectory(spec, 0.0, 2.0, 5, 7)
        kicks = list(zip(spec.kick_times, spec.kick_strengths))
        u = np.eye(3, dtype=complex)
        for a, b, snap in zip(traj.grid[:-1], traj.grid[1:], traj.snapshots[1:]):
            u = stepped_propagator(spec.smooth, kicks, a, b, 7, 3) @ u
            assert frob(snap.U - u) <= 1e-12 * frob(u)

    def test_pure_kick_cells_match_reference_stepper(self, rng):
        v = [random_ginibre(rng, 2) for _ in range(3)]
        spec = HamiltonianSpec(dim=2, kick_times=(0.2, 0.25, 1.0), kick_strengths=v)
        u = step_propagator(spec, 0.0, 1.0, 3)
        expected = stepped_propagator(None, list(zip(spec.kick_times, spec.kick_strengths)),
                                      0.0, 1.0, 3, 2)
        assert frob(u - expected) <= 1e-13 * frob(expected)

    def test_math_and_numpy_profiles_agree(self):
        scalar = pauli_hamiltonian(math.cos, math.sin, 0.3)
        ufunc = pauli_hamiltonian(np.cos, np.sin, 0.3)
        a = evolve_trajectory(scalar, 0.0, 2.5, 21, 100)
        b = evolve_trajectory(ufunc, 0.0, 2.5, 21, 100)
        for sa, sb in zip(a.snapshots, b.snapshots, strict=True):
            assert frob(sa.U - sb.U) <= 1e-14

    @pytest.mark.parametrize("make", ["kicked", "pauli", "constant"])
    def test_chunking_is_bit_identical(self, rng, monkeypatch, make):
        spec = {
            "kicked": lambda: _kicked_nonhermitian_spec(rng),
            "pauli": lambda: pauli_hamiltonian(np.cos, np.sin, 0.3),
            "constant": lambda: HamiltonianSpec.constant(0.4 * random_ginibre(rng, 4)),
        }[make]()
        default = evolve_trajectory(spec, 0.0, 2.0, 5, 10)
        matrix = 16 * spec.dim**2
        # blocks of one matrix and of three, for the stepping and the SVDs both
        for budget in (matrix, 3 * matrix):
            monkeypatch.setattr(propagation, "_BLOCK_BYTES", budget)
            _assert_same_trajectory(default, evolve_trajectory(spec, 0.0, 2.0, 5, 10))

    def test_one_sample_and_one_exponential_per_trajectory(self, monkeypatch):
        calls = {"mat_exp": 0, "sample_stack": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(propagation, "mat_exp", counted("mat_exp", propagation.mat_exp))
        monkeypatch.setattr(HamiltonianSpec, "sample_stack",
                            counted("sample_stack", HamiltonianSpec.sample_stack))
        evolve_trajectory(pauli_hamiltonian(np.cos, np.sin, 0.3), 0.0, 2.0, 21, 100)
        assert calls == {"mat_exp": 1, "sample_stack": 1}

    @pytest.mark.parametrize("make", ["pauli", "kicked", "comb", "chain"])
    def test_every_snapshot_is_pitaron_of_its_stepped_cell(self, rng, make):
        # grid over [0, 2] with 4 points: no kick sits on an interior grid time
        spec = {
            "pauli": lambda: pauli_hamiltonian(np.cos, np.sin, 0.3),
            "kicked": lambda: _kicked_nonhermitian_spec(rng),  # unequal piece counts
            "comb": lambda: dirac_comb_spec([0.6, -1.1, 0.8], [0.3, 0.45, 2.0], 2,
                                            generator=SIGMA1),  # one empty cell
            "chain": lambda: HamiltonianSpec.constant(nhse_hamiltonian(16, 0.0, 1.0, 0.3)),
        }[make]()
        traj = evolve_trajectory(spec, 0.0, 2.0, 4, 7)
        g = traj.grid
        for k in range(1, len(g)):
            triple = pitaron(step_propagator(spec, g[k - 1], g[k], 7) @ traj.U[k - 1])
            assert np.array_equal(traj.U[k], triple.U)
            assert (traj.defect_U[k], traj.defect_P[k], traj.cond_U[k]) == \
                (triple.defect_U, triple.defect_P, triple.cond_U)
            _assert_n_distance_from_sigma(traj.n_distance[k], triple)

    @pytest.mark.parametrize("block", [None, 4], ids=["default", "four_matrix_blocks"])
    def test_ill_conditioned_snapshot_mid_trajectory_raises_its_cond(self, monkeypatch,
                                                                    block):
        # U = diag(1, e^(10 t)): cond_U first exceeds 1e12 at the snapshot t = 3
        spec = HamiltonianSpec.constant(np.diag([0.0, 10j]))
        if block is not None:
            monkeypatch.setattr(propagation, "_BLOCK_BYTES", block * 16 * 4)
        u = np.eye(2, dtype=complex)
        grid = np.linspace(0.0, 5.0, 11)
        for a, b in zip(grid[:-1], grid[1:]):
            u = step_propagator(spec, a, b, 3) @ u
            try:
                pitaron(u)
            except np.linalg.LinAlgError as exc:
                expected = str(exc)
                break
        assert b == 3.0 and expected.startswith("propagator too ill-conditioned")
        with pytest.raises(np.linalg.LinAlgError) as raised:
            evolve_trajectory(spec, 0.0, 5.0, 11, 3)
        assert str(raised.value) == expected

    def test_empty_cells_of_a_pure_kick_spec_exponentiate_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(propagation, "mat_exp", lambda a: calls.append(a) or a)
        spec = HamiltonianSpec(dim=2, kick_times=[1.0], kick_strengths=[SIGMA1])
        assert np.array_equal(step_propagator(spec, 1.5, 3.0, 8), np.eye(2))
        assert calls == []


def _tree_product(f):
    """The canonical tree of the factors f[0], f[1], ... (later on the left), by recursion.

    The first aligned run is the largest power of two below the count;
    it is multiplied out as two halves, and the rest by the same rule.
    """
    if len(f) == 1:
        return f[0]
    split = 1 << ((len(f) - 1).bit_length() - 1)
    return _matmul(_tree_product(f[split:]), _tree_product(f[:split]))


class TestFoldTree:
    """``_fold`` multiplies each row as one balanced tree, whatever the block."""

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 64])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_every_row_is_the_canonical_tree(self, rng, dim, budget):
        table = np.array([random_unitary(rng, dim) for _ in range(64)])
        for count in range(1, 41):
            rows = rng.integers(0, len(table), size=(4, count))
            out = np.empty((len(rows), dim, dim), dtype=complex)
            propagation._fold(table.__getitem__, rows, budget, out, np.arange(len(rows)))
            for row, product in zip(rows, out):
                assert np.array_equal(product, _tree_product(table[row]))
                sequential = table[row[0]]
                for i in row[1:]:
                    sequential = table[i] @ sequential
                assert frob(product - sequential) <= 8 * count * EPS * dim
