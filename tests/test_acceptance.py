"""Acceptance suite: every product-level criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass line
per criterion.  Everything is deterministic (fixed seeds) and finishes
in well under a minute on one core.
"""

import math

import numpy as np
import pytest

import pitaron_lab as pl
from pitaron_lab.hamiltonian import SIGMA1, SIGMA3, HamiltonianSpec
from pitaron_lab.linalg import frob, mat_exp, unitarity_defect
from pitaron_lab.series import log_log_slope

from oracles import lyapunov_quadrature, newton_polar, random_ginibre, random_pd, series_exp

NONHER_HH = np.diag([1.0, 2.0]).astype(complex)
NONHER_J = np.diag([0.3, -0.1]).astype(complex)
NONHER_H = NONHER_HH - 1j * NONHER_J


def _ok(num: int, text: str) -> None:
    print(f"criterion {num:02d} PASS: {text}")


def test_c01_pitaron_unitarity_and_polar_oracle():
    rng = np.random.default_rng(42)
    worst_defect = 0.0
    worst_polar = 0.0
    for i in range(200):
        dim = 2 + i % 15
        u = random_ginibre(rng, dim)
        triple = pl.pitaron(u)
        worst_defect = max(worst_defect, triple.defect_P)
        worst_polar = max(worst_polar, frob(triple.P - newton_polar(u)))
    assert worst_defect <= 1e-10
    assert worst_polar <= 1e-9
    _ok(1, f"200 random dims 2-16: max ||P^dag P - 1|| = {worst_defect:.2e} <= 1e-10, "
           f"max ||P - Newton polar|| = {worst_polar:.2e} <= 1e-9")


def test_c02_bounded_hermitian_triviality():
    spec = pl.pauli_hamiltonian(np.cos, np.sin, 0.5)
    psi = np.array([1.0, 0.0], dtype=complex)
    # 21 grid points x 100 substeps per cell = 2000 steps over [0, 2]
    traj = pl.evolve_trajectory(spec, 0.0, 2.0, 21, 100, psi0=psi)
    max_nd = float(traj.n_distance.max())
    max_z = float(np.abs(traj.z_factors - 1.0).max())
    assert max_nd <= 1e-8
    assert max_z <= 1e-8
    _ok(2, f"Pauli (cos t, sin t, 0.5) on [0,2], 2000 steps: max ||N-1|| = "
           f"{max_nd:.2e}, max |Z-1| = {max_z:.2e}, both <= 1e-8")


def test_c03_commuting_nonhermitian_closed_form():
    spec = HamiltonianSpec(dim=2, smooth=lambda t: NONHER_H)
    u = pl.step_propagator(spec, 0.0, 1.0, 100)
    triple = pl.pitaron(u)
    n_err = frob(triple.N - np.diag([np.exp(0.3), np.exp(-0.1)]))
    p_err = frob(triple.P - np.diag([np.exp(-1j), np.exp(-2j)]))
    assert n_err <= 1e-9
    assert p_err <= 1e-9
    _ok(3, f"diagonal split, dt=1: ||N - diag(e^0.3, e^-0.1)|| = {n_err:.2e}, "
           f"||P - diag(e^-i, e^-2i)|| = {p_err:.2e}, both <= 1e-9")


def test_c04_nhse_contrast():
    h = pl.nhse_hamiltonian(4, 0.0, 1.0, 0.5)
    u = mat_exp(-2j * h)
    # eigendecomposition oracle for the non-normal exponential
    w, v = np.linalg.eig(-2j * h)
    u_oracle = v @ np.diag(np.exp(w)) @ np.linalg.inv(v)
    assert frob(u - u_oracle) < 1e-12
    triple = pl.pitaron(u)
    boundary = np.zeros(4, dtype=complex)
    boundary[0] = 1.0
    z = pl.z_factor(u, boundary)
    assert triple.defect_U >= 0.1
    assert triple.defect_P <= 1e-10
    assert abs(z - 1.0) >= 0.05
    _ok(4, f"l=4, hop=1, gamma=0.5, dt=2: defect_U = {triple.defect_U:.3f} >= 0.1, "
           f"defect_P = {triple.defect_P:.2e} <= 1e-10, |Z-1| = {abs(z - 1):.3f} >= 0.05")


def test_c05_dn_dt_route_consistency():
    split = pl.hermitian_split(NONHER_H)
    fd_step = 1e-4
    worst = 0.0
    for t in np.linspace(0.1, 2.0, 20):
        u = mat_exp(-1j * NONHER_H * t)
        du = -1j * NONHER_H @ u
        n = pl.pitaron(u).N
        general = pl.general_n_rhs(split, n)
        sylvester = pl.lyapunov_n_rhs(u, du, n)
        n_plus = pl.pitaron(mat_exp(-1j * NONHER_H * (t + fd_step))).N
        n_minus = pl.pitaron(mat_exp(-1j * NONHER_H * (t - fd_step))).N
        finite_diff = (n_plus - n_minus) / (2 * fd_step)
        worst = max(worst, frob(general - sylvester), frob(general - finite_diff),
                    frob(sylvester - finite_diff))
    assert worst <= 1e-6
    _ok(5, f"20 times in [0.1, 2]: three dN/dt routes pairwise within {worst:.2e} <= 1e-6")


def test_c06_lyapunov_eigenbasis_vs_quadrature():
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(50):
        dim = 2 + i % 7
        n = random_pd(rng, dim)
        q_raw = random_ginibre(rng, dim)
        q = q_raw + q_raw.conj().T
        x_eig = pl.lyapunov_solve(n, q)
        x_quad = lyapunov_quadrature(n, q)
        worst = max(worst, frob(x_eig - x_quad))
    assert worst <= 1e-8
    _ok(6, f"50 random PD systems dims 2-8: eigenbasis vs quadrature within "
           f"{worst:.2e} <= 1e-8")


def test_c07_dyson_convergence_and_unitarized_defect():
    const = HamiltonianSpec(dim=2, smooth=lambda t: SIGMA1)
    exact = lambda T: mat_exp(-1j * T * SIGMA1)
    T_grid = np.linspace(0.05, 0.5, 7)
    slope1 = pl.convergence_order(const, 0.0, exact, 1, T_grid, panels=16)
    slope2 = pl.convergence_order(const, 0.0, exact, 2, T_grid, panels=16)
    assert slope1 == pytest.approx(2.0, abs=0.2)
    assert slope2 == pytest.approx(3.0, abs=0.3)
    # noncommuting piecewise spec with a non-Hermitian second piece: the raw
    # partial sum leaks unitarity at first order, the unitarized one at second
    h2 = SIGMA3 - 0.5j * SIGMA1
    for T in T_grid:
        spec = HamiltonianSpec(dim=2, smooth=lambda t, T=T: SIGMA1 if t <= T / 2 else h2)
        raw = pl.dyson_u(spec, 0.0, T, 2, 32).partial_sums[-1]
        unitarized = pl.general_pitaron_expansion(pl.dyson_u(spec, 0.0, T, 2, 32))
        assert unitarity_defect(unitarized.partial_sums[-1]) <= unitarity_defect(raw)
    # the N and P expansions of the constant non-normal h2 against the polar oracle at
    # orders 2-4, all from one order-4 pass per length; for a constant H Simpson is exact,
    # so panels 8 suffice
    nonnormal = HamiltonianSpec.constant(h2)
    err_n, err_p = {k: [] for k in (2, 3, 4)}, {k: [] for k in (2, 3, 4)}
    for T in T_grid:
        u = series_exp(-1j * T * h2)
        p = newton_polar(u)
        dyson = pl.dyson_u(nonnormal, 0.0, T, 4, 8)
        norm, pit = pl.general_norm_expansion(dyson), pl.general_pitaron_expansion(dyson)
        for k in err_n:
            err_n[k].append(frob(norm.partial_sums[k] - p @ np.linalg.inv(u)))
            err_p[k].append(frob(pit.partial_sums[k] - p))
    slope_n = {k: log_log_slope(T_grid, errors) for k, errors in err_n.items()}
    slope_p = {k: log_log_slope(T_grid, errors) for k, errors in err_p.items()}
    for k in err_n:
        assert slope_n[k] == pytest.approx(k + 1.0, abs=0.3)
        assert slope_p[k] == pytest.approx(k + 1.0, abs=0.3)
    _ok(7, f"slopes {slope1:.2f} (2.0 +/- 0.2) and {slope2:.2f} (3.0 +/- 0.3); "
           "unitarized expansion defect <= raw defect at all 7 sampled T; "
           f"order-2 N and P slopes {slope_n[2]:.2f} and {slope_p[2]:.2f} (3.0 +/- 0.3), "
           f"order-3 {slope_n[3]:.2f} and {slope_p[3]:.2f} (4.0 +/- 0.3), "
           f"order-4 {slope_n[4]:.2f} and {slope_p[4]:.2f} (5.0 +/- 0.3) "
           "for sigma3 - 0.5i sigma1")


def test_c08_comb_closed_forms():
    strengths = [0.6, 1.0, 1.2, 0.8]
    times = [1.0, 2.0, 3.0, 4.0]
    staircase = [pl.comb_truncated_norm(strengths, times, t) for t in times]
    assert staircase == pytest.approx([0.82, -0.28, -2.92, -5.48], abs=1e-12)
    report = pl.comb_expansion_terms(strengths, times, 5.0)
    assert len(report.indefinite) == 4
    for t in (0.5, 1.5, 2.5, 3.5, 5.0):
        s = sum(v for v, tau in zip(strengths, times) if tau <= t)
        re, im = pl.comb_pitaron_expansion(strengths, times, t)
        assert re == 1.0 - 0.5 * s * s  # order-2 Taylor of exp(-iS), real part
        assert im == -s
    _ok(8, "staircase {0.82, -0.28, -2.92, -5.48}; exactly 4 indefinite flags; "
           "unitarized comb expansion identical to the order-2 Taylor of exp(-iS)")


def test_c09_smearing_limit_path_dependence():
    symmetric = pl.smeared_second_order(1e-2, 1e-2, "causal", 1.0, 2.0, panels=400)
    sharp_inner = pl.smeared_second_order(1e-3, 1e-1, "causal", 1.0, 2.0, panels=2000)
    sharp_outer = pl.smeared_second_order(1e-1, 1e-3, "causal", 1.0, 2.0, panels=2000)
    assert symmetric == pytest.approx(0.50, abs=0.02)
    assert sharp_inner >= 0.9
    assert sharp_outer <= 0.1
    # the symmetric value is representation independent
    gaussian = pl.smeared_second_order(1e-2, 1e-2, "gaussian", 1.0, 2.0, panels=400)
    assert gaussian == pytest.approx(0.50, abs=0.02)
    _ok(9, f"smeared second-order term: symmetric {symmetric:.3f} (0.50 +/- 0.02), "
           f"decade pairs {sharp_inner:.3f} >= 0.9 and {sharp_outer:.4f} <= 0.1")


def test_c10_dominated_convergence_demos():
    report = pl.dominated_convergence_demos([1, 5, 10, 50, 100])
    by_n = dict(zip(report.n_values, report.family1_integrals))
    assert by_n[1] == 1.0 and by_n[10] == 1.0 and by_n[100] == 1.0
    f2 = dict(zip(report.n_values, report.family2_integrals))
    assert f2[5] == pytest.approx(0.5, abs=1e-8)
    assert f2[50] == pytest.approx(0.5, abs=1e-8)
    pointwise = report.family2_at_1
    assert all(a > b for a, b in zip(pointwise, pointwise[1:]))
    assert pointwise[-1] < 1e-12
    _ok(10, "family-1 integrals exactly 1; family-2 integrals 0.5 +/- 1e-8; "
            "pointwise values at x=1 decrease monotonically toward 0")


def test_c11_picard_bound_breakdown_and_roots():
    run = pl.picard_iterate(lambda x, y: y, 1.0, 0.0, 1.0, 12, 20001, reference=np.exp)
    bound = pl.error_bound(math.e, 1.0, 1.0, 12)
    assert run.errors[12] <= bound
    breakdown = pl.picard_delta_breakdown(1.0, 1e-2, 2.0, grid=32001)
    assert breakdown.asymmetric_spread >= 0.4
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(-2.0, 2.0)
        b = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
        m = pl.identity_sqrt_family(a, b)
        worst = max(worst, frob(m @ m - np.eye(2)))
    assert worst <= 1e-12
    _ok(11, f"iterate-12 error {run.errors[12]:.2e} <= bound {bound:.2e}; "
            f"breakdown spread {breakdown.asymmetric_spread:.2f} >= 0.4; "
            f"100 identity roots square back within {worst:.1e} <= 1e-12")


def test_c12_markov_composition():
    piecewise = HamiltonianSpec(dim=2, smooth=lambda t: SIGMA1 if t <= 1.0 else SIGMA3)
    exact_defect = pl.markov_check(piecewise, 0.0, 1.0, 2.0, 16)
    assert exact_defect <= 1e-10
    smooth = pl.pauli_hamiltonian(np.cos, np.sin, 0.5)
    defects = [pl.markov_check(smooth, 0.0, 0.7, 2.0, n) for n in (40, 80, 160)]
    assert 3.0 < defects[0] / defects[1] < 5.0
    assert 3.0 < defects[1] / defects[2] < 5.0
    _ok(12, f"piecewise-constant composition defect {exact_defect:.2e} <= 1e-10; "
            f"smooth defect ratios {defects[0]/defects[1]:.2f}, "
            f"{defects[1]/defects[2]:.2f} (quadratic in the step)")
