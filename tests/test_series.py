import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pitaron_lab.series as series
from pitaron_lab.hamiltonian import SIGMA1, SIGMA3, HamiltonianSpec, dirac_comb_spec, pauli_hamiltonian
from pitaron_lab.linalg import frob, mat_exp, unitarity_defect
from pitaron_lab.series import (
    convergence_order,
    dyson_u,
    dyson_u_inverse,
    general_norm_expansion,
    general_pitaron_expansion,
    log_log_slope,
)

from oracles import nested_simpson, random_ginibre, triangle_commutator_quadrature


def constant_spec(h, dim=None):
    h = np.asarray(h, dtype=complex)
    return HamiltonianSpec(dim=h.shape[0], smooth=lambda t: h)


def scalar_spec(c):
    return HamiltonianSpec(dim=1, smooth=lambda t: np.array([[c]], dtype=complex))


def piecewise_spec(h1, h2, t_switch):
    h1 = np.asarray(h1, dtype=complex)
    h2 = np.asarray(h2, dtype=complex)
    return HamiltonianSpec(
        dim=h1.shape[0], smooth=lambda t: h1 if t <= t_switch else h2
    )


class TestDysonU:
    def test_constant_scalar_terms(self):
        c, T = 0.7, 1.3
        exp = dyson_u(scalar_spec(c), 0.0, T, 2, 32)
        assert_allclose(exp.terms[0], [[1.0]], atol=1e-14)
        assert_allclose(exp.terms[1], [[-1j * c * T]], atol=1e-12)
        assert_allclose(exp.terms[2], [[-c * c * T * T / 2]], atol=1e-12)

    def test_linear_ramp_first_order(self):
        spec = HamiltonianSpec(dim=2, smooth=lambda t: t * SIGMA3)
        exp = dyson_u(spec, 0.0, 1.0, 1, 32)
        assert_allclose(exp.terms[1], -0.5j * SIGMA3, atol=1e-12)

    def test_zero_hamiltonian(self):
        spec = HamiltonianSpec(dim=2, smooth=None)
        exp = dyson_u(spec, 0.0, 1.0, 3, 8)
        assert_allclose(exp.partial_sums[-1], np.eye(2), atol=1e-15)
        assert all(frob(t) == 0.0 for t in exp.terms[1:])

    def test_structure_invariants(self):
        exp = dyson_u(scalar_spec(0.3), 0.0, 1.0, 4, 4)
        assert exp.order == 4
        assert len(exp.terms) == 5
        assert_allclose(exp.terms[0], np.eye(1))
        assert len(exp.partial_sums) == len(exp.terms)
        assert [frob(t) for t in exp.terms] == pytest.approx([0.3**k / math.factorial(k) for k in range(5)],
                                                             rel=1e-12)

    def test_rejects_kicked_spec(self):
        spec = dirac_comb_spec([1.0], [0.5], dim=1)
        with pytest.raises(ValueError, match="smooth"):
            dyson_u(spec, 0.0, 1.0, 2, 8)

    def test_rejects_order_above_cap(self):
        with pytest.raises(ValueError, match="order"):
            dyson_u(scalar_spec(1.0), 0.0, 1.0, 5, 4)

    def test_doubling_panels_is_stable_on_smooth_spec(self):
        spec = pauli_hamiltonian(np.cos, np.sin, 0.5)  # norm <= 2 on [0, 1]
        coarse = dyson_u(spec, 0.0, 1.0, 2, 100)
        fine = dyson_u(spec, 0.0, 1.0, 2, 200)
        for a, b in zip(coarse.terms, fine.terms):
            assert frob(a - b) < 1e-8

    def test_one_nested_pass_samples_h(self):
        calls = []

        def smooth(t):
            calls.append(t)
            return np.cos(t) * SIGMA1 + 0.3j * SIGMA3

        spec = HamiltonianSpec(dim=2, smooth=smooth)
        u = dyson_u(spec, 0.0, 1.0, 3, 4)
        assert len(calls) == 657  # 9 + 8 * (9 + 8 * 9): the depth-3 pass only
        calls.clear()
        for expansion in (dyson_u_inverse, general_norm_expansion, general_pitaron_expansion):
            assert expansion(u).order == 3
        assert calls == []  # the U^-1, N and P series are algebra on the one pass

    @pytest.mark.parametrize("panels", [2, 4])
    def test_lower_orders_are_leading_terms_of_higher(self, panels):
        # the dyson CLI reads every order from one top-order expansion
        spec = piecewise_spec(SIGMA1 + 0.2j * SIGMA3, np.cos(0.3) * SIGMA3 - 0.5j * SIGMA1, 0.37)
        top = dyson_u(spec, 0.1, 1.3, 4, panels)
        for k in range(4):
            low = dyson_u(spec, 0.1, 1.3, k, panels)
            assert all(np.array_equal(x, y) for x, y in zip(low.terms, top.terms[: k + 1]))
            assert len(low.terms) == k + 1
            # so do the U^-1, N and P series of the pass: term k needs U's terms 0..k only
            for expansion in (dyson_u_inverse, general_norm_expansion, general_pitaron_expansion):
                low_terms, top_terms = expansion(low).terms, expansion(top).terms[: k + 1]
                assert all(np.array_equal(x, y) for x, y in zip(low_terms, top_terms, strict=True))

    def test_truncation_error_scaling(self):
        spec = constant_spec(SIGMA1)
        for order, expected_power in ((1, 2), (2, 3)):
            errs = []
            for T in (0.2, 0.1):
                partial = dyson_u(spec, 0.0, T, order, 16).partial_sums[-1]
                errs.append(frob(partial - mat_exp(-1j * T * SIGMA1)))
            assert errs[0] / errs[1] == pytest.approx(2.0**expected_power, rel=0.2)


def _tree_specs():
    rng = np.random.default_rng(17)
    a, b = random_ginibre(rng, 3), random_ginibre(rng, 3)
    c = random_ginibre(rng, 8)
    return {
        "scalar": HamiltonianSpec(dim=1, smooth=lambda t: np.array([[np.exp(0.3j * t) - 0.2 * t]])),
        "nonhermitian3": HamiltonianSpec(dim=3, smooth=lambda t: np.cos(t) * a + t * t * b),
        "pauli": pauli_hamiltonian(np.cos, np.sin, 0.5),
        "constant8": HamiltonianSpec.constant(c),
    }


TREE_SPECS = _tree_specs()


class TestNodeTree:
    """``_iterated`` evaluates the scalar nested-Simpson recursion level by level on stacks."""

    @pytest.mark.parametrize("name", sorted(TREE_SPECS))
    @pytest.mark.parametrize("panels", [1, 2, 7])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_every_level_matches_the_scalar_recursion(self, name, depth, panels):
        spec = TREE_SPECS[name]
        levels = series._iterated(spec, 0.2, 1.1, depth, panels)
        assert len(levels) == depth
        for k, level in enumerate(levels, start=1):
            assert np.array_equal(level, nested_simpson(spec.smooth, 0.2, 1.1, k, panels, spec.dim))

    @pytest.mark.parametrize("budget", [1, 600, 20_000])
    @pytest.mark.parametrize("depth", [3, 4])
    @pytest.mark.parametrize("name", ["nonhermitian3", "pauli", "constant8"])
    def test_blocked_walk_is_bit_identical(self, monkeypatch, name, depth, budget):
        spec = TREE_SPECS[name]
        whole = series._iterated(spec, 0.1, 1.3, depth, 3)
        monkeypatch.setattr(series, "_TREE_BYTES", budget)
        blocked = series._iterated(spec, 0.1, 1.3, depth, 3)
        assert all(np.array_equal(x, y) for x, y in zip(whole, blocked))

    @pytest.mark.parametrize("budget", [1, 3000])
    def test_blocked_walk_samples_each_node_once_within_budget(self, monkeypatch, budget):
        calls, stacks = [], []
        sample_stack = HamiltonianSpec.sample_stack

        def smooth(t):
            calls.append(t)
            return np.cos(t) * SIGMA1 + 0.3j * SIGMA3

        def recording(self, ts):
            stacks.append(np.size(ts))
            return sample_stack(self, ts)

        monkeypatch.setattr(series, "_TREE_BYTES", budget)
        monkeypatch.setattr(HamiltonianSpec, "sample_stack", recording)
        dyson_u(HamiltonianSpec(dim=2, smooth=smooth), 0.0, 1.0, 3, 4)
        assert len(calls) == sum(stacks) == 657
        assert max(stacks) <= max(1, budget // (16 * 4 + 8))  # a node's sample and time

    def test_rejects_zero_panels(self):
        with pytest.raises(ValueError, match="panels"):
            dyson_u(scalar_spec(1.0), 0.0, 1.0, 2, 0)


EXPANSIONS = {
    "dyson_u": lambda spec, t0, t: dyson_u(spec, t0, t, 2, 4),
    # the other series take the result of that pass, so the route raises in dyson_u
    "dyson_u_inverse": lambda spec, t0, t: dyson_u_inverse(dyson_u(spec, t0, t, 2, 4)),
    "general_norm_expansion":
        lambda spec, t0, t: general_norm_expansion(dyson_u(spec, t0, t, 2, 4)),
    "general_pitaron_expansion":
        lambda spec, t0, t: general_pitaron_expansion(dyson_u(spec, t0, t, 2, 4)),
}


@pytest.mark.parametrize("t0, t", [(0.0, math.nan), (0.0, math.inf), (math.nan, 1.0)])
@pytest.mark.parametrize("spec", [constant_spec(SIGMA1), HamiltonianSpec(dim=2, smooth=None),
                                  pauli_hamiltonian(np.cos, np.sin, 0.5)],
                         ids=["constant", "zero", "pauli"])
@pytest.mark.parametrize("name", sorted(EXPANSIONS))
def test_non_finite_times_raise(name, spec, t0, t):
    with pytest.raises(ValueError, match=f"finite times, got t0={t0}, t={t}"):
        EXPANSIONS[name](spec, t0, t)


def _huge_u():
    """A U series with finite terms whose products overflow: v_2 = u_1^2 = -1e400."""
    return series._assemble([np.eye(2, dtype=complex), 1e200j * SIGMA1, np.zeros((2, 2), complex)])


@pytest.mark.parametrize("call, error, match", [
    (lambda spec: dyson_u(spec, -1e308, 1e308, 2, 4), ValueError,
     "t0=-1e\\+308, t=1e\\+308"),
    (lambda spec: dyson_u(spec, 0.0, 1e160, 2, 4), FloatingPointError, "overflow"),
    (lambda spec: dyson_u_inverse(_huge_u()), FloatingPointError, "overflow"),
    (lambda spec: general_norm_expansion(_huge_u()), FloatingPointError, "overflow"),
    (lambda spec: general_pitaron_expansion(_huge_u()), FloatingPointError, "overflow"),
], ids=["span", "dyson_u", "dyson_u_inverse", "general_norm_expansion",
        "general_pitaron_expansion"])
def test_overflowing_expansions_raise_without_a_warning(call, error, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            call(constant_spec(SIGMA1))



class TestDysonUInverse:
    def test_constant_scalar_terms(self):
        c, T = 0.6, 1.1
        inv = dyson_u_inverse(dyson_u(scalar_spec(c), 0.0, T, 2, 32))
        assert_allclose(inv.terms[1], [[1j * c * T]], atol=1e-12)
        assert_allclose(inv.terms[2], [[-c * c * T * T / 2]], atol=1e-12)

    def test_zero_hamiltonian(self):
        inv = dyson_u_inverse(dyson_u(HamiltonianSpec(dim=3, smooth=None), 0.0, 2.0, 2, 8))
        assert_allclose(inv.partial_sums[-1], np.eye(3), atol=1e-15)

    def test_scalar_product_residual_is_quartic(self):
        # (1 - icT - x)(1 + icT - x) with x = c^2T^2/2 leaves exactly x^2
        c, T = 0.5, 0.8
        dyson = dyson_u(scalar_spec(c), 0.0, T, 2, 32)
        u = dyson.partial_sums[2][0, 0]
        v = dyson_u_inverse(dyson).partial_sums[2][0, 0]
        expected_residual = (c * c * T * T / 2) ** 2
        assert abs(v * u - 1.0 - expected_residual) < 1e-12

    def test_product_deviation_scales_with_order(self):
        spec = constant_spec(0.8 * SIGMA1 + 0.3 * SIGMA3)
        for order, power in ((1, 2), (2, 4)):
            devs = []
            for T in (0.4, 0.2):
                dyson = dyson_u(spec, 0.0, T, order, 16)
                v = dyson_u_inverse(dyson).partial_sums[-1]
                devs.append(frob(v @ dyson.partial_sums[-1] - np.eye(2)))
            # deviation is O(T^(order+1)) or better; Pauli structure kills odd orders
            assert devs[0] / devs[1] > 2.0 ** (order + 1) - 0.8


class TestHermitianExpansions:
    def test_norm_second_order_cancels_for_constants(self):
        exp = general_norm_expansion(dyson_u(constant_spec(SIGMA1), 0.0, 1.2, 2, 64))
        assert frob(exp.terms[1]) == 0.0
        assert frob(exp.terms[2]) < 1e-12

    def test_norm_identity_for_zero(self):
        exp = general_norm_expansion(dyson_u(HamiltonianSpec(dim=2, smooth=None), 0, 1, 2, 8))
        assert_allclose(exp.partial_sums[-1], np.eye(2), atol=1e-15)

    def test_norm_cancels_for_commuting_ramp(self):
        spec = HamiltonianSpec(dim=2, smooth=lambda t: t * SIGMA3)
        exp = general_norm_expansion(dyson_u(spec, 0.0, 1.0, 2, 64))
        assert frob(exp.terms[2]) < 1e-12

    def test_pitaron_matches_exponential_for_commuting_family(self):
        spec = HamiltonianSpec(dim=2, smooth=lambda t: np.sin(t) * SIGMA3)
        T = 0.4
        exp = general_pitaron_expansion(dyson_u(spec, 0.0, T, 2, 64))
        a = (1.0 - np.cos(T)) * SIGMA3
        assert frob(exp.terms[2] + 0.5 * (a @ a)) < 1e-10  # commutator part vanishes
        assert frob(exp.partial_sums[-1] - mat_exp(-1j * a)) < frob(a) ** 3 / 6 + 1e-10

    def test_pitaron_commutator_term_vs_triangle_oracle(self):
        # sigma1 then sigma3: the commutator integral is [s3, s1] T1 (T - T1)
        T1, T = 0.5, 1.0
        spec = piecewise_spec(SIGMA1, SIGMA3, T1)
        exp = general_pitaron_expansion(dyson_u(spec, 0.0, T, 2, 64))
        a = T1 * SIGMA1 + (T - T1) * SIGMA3
        comm_term = exp.terms[2] + 0.5 * (a @ a)  # isolate -(1/2) int int [H, H']
        exact = -0.5 * (SIGMA3 @ SIGMA1 - SIGMA1 @ SIGMA3) * T1 * (T - T1)
        assert frob(comm_term - exact) < 0.02
        oracle = triangle_commutator_quadrature(spec.smooth, 0.0, T, cells=600)
        assert frob(comm_term - (-0.5) * oracle) < 0.03
        assert frob(comm_term) > 0.3  # genuinely nonzero

    def test_pitaron_zero_hamiltonian(self):
        exp = general_pitaron_expansion(dyson_u(HamiltonianSpec(dim=2, smooth=None), 0, 1, 2, 8))
        assert_allclose(exp.partial_sums[-1], np.eye(2), atol=1e-15)


def _a_b(u):
    """A = int H and B = int int H H from the Dyson terms -iA and -B."""
    return 1j * u.terms[1], -u.terms[2]


class TestGeneralExpansions:
    def test_hermitian_reduction_norm(self):
        # Hermitian H: N = 1 + 0 - (1/2) A^2 + (1/2)(B + B^dagger)
        spec = pauli_hamiltonian(np.cos, np.sin, 0.5)
        u = dyson_u(spec, 0.0, 1.0, 2, 64)
        a, b = _a_b(u)
        general = general_norm_expansion(u)
        assert frob(general.terms[1]) == 0.0
        assert_allclose(general.terms[2], -0.5 * (a @ a) + 0.5 * (b + b.conj().T),
                        rtol=0, atol=1e-14)

    def test_hermitian_reduction_pitaron(self):
        # Hermitian H: P = 1 - iA - (1/2) A^2 - (1/2)(B - B^dagger)
        spec = pauli_hamiltonian(np.cos, np.sin, 0.5)
        u = dyson_u(spec, 0.0, 1.0, 2, 64)
        a, b = _a_b(u)
        general = general_pitaron_expansion(u)
        assert_allclose(general.terms[1], -1j * a, rtol=0, atol=1e-15)
        assert_allclose(general.terms[2], -0.5 * (a @ a) - 0.5 * (b - b.conj().T),
                        rtol=0, atol=1e-14)
        assert frob(b - b.conj().T) > 0.1  # the commutator part is exercised

    def test_anti_hermitian_scalar_norm_matches_exponential_taylor(self):
        j, T = 0.3, 1.0
        spec = HamiltonianSpec(dim=1, smooth=lambda t: np.array([[-1j * j]]))
        value = general_norm_expansion(dyson_u(spec, 0.0, T, 2, 64)).partial_sums[-1][0, 0]
        taylor = 1.0 + j * T + (j * T) ** 2 / 2.0
        assert abs(value - taylor) < 1e-12

    def test_anti_hermitian_scalar_pitaron_is_identity(self):
        spec = HamiltonianSpec(dim=1, smooth=lambda t: np.array([[-0.4j]]))
        value = general_pitaron_expansion(dyson_u(spec, 0, 1, 2, 64)).partial_sums[-1][0, 0]
        assert abs(value - 1.0) < 1e-13  # exact unitarization of a positive scalar

    def test_zero_hamiltonian(self):
        u = dyson_u(HamiltonianSpec(dim=2, smooth=None), 0.0, 1.0, 2, 8)
        assert_allclose(general_norm_expansion(u).partial_sums[-1], np.eye(2))
        assert_allclose(general_pitaron_expansion(u).partial_sums[-1], np.eye(2))

    def test_non_normal_closed_forms(self):
        # A and A^dagger do not commute: N_2 and P_2 keep both orderings of the pair
        spec = TREE_SPECS["nonhermitian3"]
        u = dyson_u(spec, 0.0, 0.7, 2, 32)
        a, b = _a_b(u)
        ad, bd = a.conj().T, b.conj().T
        norm = general_norm_expansion(u)
        pit = general_pitaron_expansion(u)
        assert frob(ad @ a - a @ ad) > 1.0
        assert_allclose(norm.terms[2], -0.375 * (a @ a + ad @ ad) + 0.375 * (ad @ a)
                        - 0.125 * (a @ ad) + 0.5 * (b + bd), rtol=0, atol=1e-14)
        assert_allclose(pit.terms[2], 0.125 * (a @ a) - 0.375 * (ad @ ad)
                        - 0.125 * (ad @ a + a @ ad) - 0.5 * b + 0.5 * bd, rtol=0, atol=1e-14)


class TestUnitarityDefects:
    def test_hermitian_partial_sum_defect_scaling(self):
        spec = constant_spec(SIGMA1)
        for order in (1, 2):
            defects = []
            for T in (0.4, 0.2):
                s = dyson_u(spec, 0.0, T, order, 16).partial_sums[-1]
                defects.append(unitarity_defect(s))
            # defect O(T^(order+1)); Pauli structure makes even orders quartic
            assert defects[0] / defects[1] > 2.0 ** (order + 1) - 0.8

    def test_unitarized_beats_raw_on_noncommuting_nonhermitian_spec(self):
        # raw partial sums leak unitarity at first order in T once the spec
        # is non-Hermitian; the unitarized expansion leaks only at second
        spec_fn = lambda T: piecewise_spec(SIGMA1, SIGMA3 - 0.5j * SIGMA1, T / 2)
        for T in np.linspace(0.05, 0.5, 7):
            spec = spec_fn(T)
            raw = dyson_u(spec, 0.0, T, 2, 32).partial_sums[-1]
            unitarized = general_pitaron_expansion(dyson_u(spec, 0.0, T, 2, 32)).partial_sums[-1]
            assert unitarity_defect(unitarized) <= unitarity_defect(raw)


class TestConvergenceOrder:
    def test_slopes_on_constant_pauli(self):
        spec = constant_spec(SIGMA1)
        exact = lambda T: mat_exp(-1j * T * SIGMA1)
        Ts = np.linspace(0.05, 0.5, 7)
        assert convergence_order(spec, 0.0, exact, 1, Ts, panels=16) == pytest.approx(2.0, abs=0.2)
        assert convergence_order(spec, 0.0, exact, 2, Ts, panels=16) == pytest.approx(3.0, abs=0.3)

    def test_degenerate_fit_reported(self):
        spec = HamiltonianSpec(dim=2, smooth=None)
        with pytest.raises(RuntimeError, match="degenerate"):
            convergence_order(spec, 0.0, lambda T: np.eye(2), 1, [0.05, 0.1, 0.5])

    def test_rejects_narrow_interval_list(self):
        spec = constant_spec(SIGMA1)
        with pytest.raises(ValueError, match="decade"):
            convergence_order(spec, 0.0, lambda T: np.eye(2), 1, [0.1, 0.2])


class TestLogLogSlope:
    @pytest.mark.parametrize("lengths, errors", [
        ([0.1, 0.1, 0.1], [1e-3, 2e-3, 3e-3]),  # one distinct length
        ([0.05, 0.1, 0.5], [0.0, 5e-14, 9.9e-14]),  # every error below 1e-13
        ([1e-300, 0.4], [0.0, 0.1]),  # a zero error has no log
    ], ids=["one-length", "tiny-errors", "zero-error"])
    def test_degenerate_fit_is_none(self, lengths, errors):
        assert log_log_slope(lengths, errors) is None

    def test_threshold_edge_fits(self):
        # an error of exactly 1e-13 is not below the threshold, so the fit is made
        assert log_log_slope([0.1, 1.0], [1e-14, 1e-13]) == pytest.approx(1.0, abs=1e-12)
