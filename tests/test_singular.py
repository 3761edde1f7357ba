import numpy as np
import pytest
from numpy.testing import assert_allclose

from pitaron_lab.singular_dynamics import (
    SmearedDelta,
    _cumulative_simpson,
    comb_expansion_terms,
    comb_pitaron_expansion,
    comb_truncated_norm,
    dominated_convergence_demos,
    smeared_second_order,
)

DIMB_STRENGTHS = [0.6, 1.0, 1.2, 0.8]
DIMB_TIMES = [1.0, 2.0, 3.0, 4.0]


CLOSED_FORMS = (comb_truncated_norm, comb_expansion_terms, comb_pitaron_expansion)


@pytest.mark.parametrize("closed_form", CLOSED_FORMS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("strengths, times, t, match", [
    ([1.0, 1.0], [0.5, np.nan], 1.0, "finite"),  # NaN passes an ordering check
    ([1.0], [np.inf], 1.0, "finite"),
    ([np.inf], [0.5], 1.0, "finite"),
    ([1.0], [0.5, 1.0], 1.0, "strengths"),
    ([1.0], [0.5], np.nan, "t must be a time"),
    ([1.0, 1.0], [2.0, 1.0], 3.0, "increasing"),
    ([1.0, 1.0], [1.0, 1.0], 3.0, "increasing"),
], ids=["nan_time", "inf_time", "inf_strength", "length", "nan_t", "unordered_times",
        "repeated_times"])
def test_closed_forms_reject_bad_kicks(closed_form, strengths, times, t, match):
    with pytest.raises(ValueError, match=match):
        closed_form(strengths, times, t)


class TestSmearedDelta:
    @pytest.mark.parametrize("kind", ["nascent", "gaussian", "causal"])
    @pytest.mark.parametrize("eps", [1e-3, 1e-2, 1e-1])
    def test_unit_mass(self, kind, eps):
        delta = SmearedDelta(kind=kind, epsilon=eps, center=0.7)
        assert abs(delta.numeric_mass() - 1.0) < 1e-6

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SmearedDelta(kind="triangle", epsilon=0.1, center=0.0)

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError, match="positive"):
            SmearedDelta(kind="gaussian", epsilon=0.0, center=0.0)

    def test_causal_density_is_one_sided(self):
        delta = SmearedDelta(kind="causal", epsilon=0.1, center=1.0)
        assert delta.density(0.99) == 0.0
        assert delta.density(1.0) == pytest.approx(10.0)
        assert delta.density(1.1) == pytest.approx(10.0 * np.exp(-1.0))


class TestCombTruncatedNorm:
    def test_unity_before_first_kick(self):
        assert comb_truncated_norm(DIMB_STRENGTHS, DIMB_TIMES, 0.5) == 1.0

    def test_right_continuous_at_kicks(self):
        # a kick counts from its own instant on
        t = [0.999, 1.0, 1.5, 2.0]
        expected = [1.0, 1.0 - 0.5 * 0.5**2, 1.0 - 0.5 * 0.5**2, 1.0 - 0.5 * 0.75**2]
        assert [comb_truncated_norm([0.5, 0.25], [1.0, 2.0], at) for at in t] == expected
        assert comb_truncated_norm([0.5, 0.25], [1.0, 2.0], np.array(t)).tolist() == expected

    def test_figure_staircase_values(self):
        values = [comb_truncated_norm(DIMB_STRENGTHS, DIMB_TIMES, t) for t in (1.0, 2.0, 3.0, 4.0)]
        assert_allclose(values, [0.82, -0.28, -2.92, -5.48], atol=1e-12)

    def test_constant_between_kicks(self):
        for t in np.linspace(2.0, 2.999, 7):
            assert comb_truncated_norm(DIMB_STRENGTHS, DIMB_TIMES, t) == pytest.approx(-0.28)

    def test_jump_sizes_match_cumulative_squares(self):
        cums = np.cumsum(DIMB_STRENGTHS)
        for i, tau in enumerate(DIMB_TIMES):
            before = comb_truncated_norm(DIMB_STRENGTHS, DIMB_TIMES, tau - 1e-9)
            after = comb_truncated_norm(DIMB_STRENGTHS, DIMB_TIMES, tau)
            s_prev = cums[i - 1] if i else 0.0
            assert after - before == pytest.approx(-0.5 * (cums[i] ** 2 - s_prev**2))


class TestCombExpansionTerms:
    def test_before_all_kicks_is_trivial(self):
        report = comb_expansion_terms(DIMB_STRENGTHS, DIMB_TIMES, 0.5)
        assert report.order0 == 1.0
        assert report.order1 == 0.0
        assert report.order2_defined == 0.0
        assert report.indefinite == range(0)

    def test_single_kick_flags_its_own_square(self):
        strengths, times = [0.7], [1.0]
        report = comb_expansion_terms(strengths, times, 2.0)
        assert report.order1 == pytest.approx(-0.7j)
        assert report.order2_defined == 0.0  # no earlier kick to pair with
        assert report.indefinite == range(1)
        (k,) = report.indefinite
        assert -strengths[k] ** 2 == pytest.approx(-0.49)  # the flag's coefficient -V_k^2
        assert times[k] == 1.0

    def test_figure_comb_full_interval(self):
        report = comb_expansion_terms(DIMB_STRENGTHS, DIMB_TIMES, 5.0)
        assert report.order1 == pytest.approx(-3.6j)
        assert len(report.indefinite) == 4

    def test_one_flag_per_kick_inside_interval(self):
        for t, expected in ((0.5, 0), (1.0, 1), (2.5, 2), (4.0, 4), (9.0, 4)):
            report = comb_expansion_terms(DIMB_STRENGTHS, DIMB_TIMES, t)
            assert len(report.indefinite) == expected

    def test_defined_cross_terms_identity(self):
        # sum over ordered pairs equals (S^2 - sum V_i^2)/2
        s = sum(DIMB_STRENGTHS)
        squares = sum(v * v for v in DIMB_STRENGTHS)
        report = comb_expansion_terms(DIMB_STRENGTHS, DIMB_TIMES, 5.0)
        assert report.order2_defined == pytest.approx(-(s * s - squares) / 2)

    def test_matches_the_pairwise_definition_bit_for_bit(self):
        # a seeded comb of 300 kicks on (-1, 3), so some lie after t
        rng = np.random.default_rng(13)
        times = np.sort(rng.uniform(-1.0, 3.0, 300)).tolist()
        strengths = rng.standard_normal(300).tolist()
        for t in (0.0, 1.3, 2.0, 5.0):
            order2 = 0.0
            flags = []
            for i, (v, tau) in enumerate(zip(strengths, times)):
                if tau <= t:
                    before = 0.0  # every earlier kick, summed left to right
                    for vj, tj in zip(strengths, times):
                        if tj < tau:
                            before += vj
                    order2 -= v * before
                    flags.append(i)
            report = comb_expansion_terms(strengths, times, t)
            assert report.order2_defined.real.hex() == order2.hex()
            assert report.order2_defined.imag.hex() == (0.0).hex()
            assert list(report.indefinite) == flags

    def test_kicks_before_zero_take_cross_terms_and_flags(self):
        report = comb_expansion_terms([1.0, 1.0, 0.5], [-2.0, -1.0, 1.0], 2.0)
        assert report.order2_defined == -2.0
        assert report.indefinite == range(3)

    def test_defined_terms_and_half_the_flagged_squares_make_minus_half_s_squared(self):
        # order2_defined - (1/2) sum of the flagged V_k^2 = -S^2/2, kicks on both sides of 0
        rng = np.random.default_rng(29)
        times = np.sort(rng.uniform(-3.0, 3.0, 40)).tolist()
        strengths = rng.standard_normal(40).tolist()
        cases = [([1.0, 1.0, 0.5], [-2.0, -1.0, 1.0], 2.0)]
        cases += [(strengths, times, t) for t in (-3.5, -1.0, 0.0, 1.5, 4.0)]
        for strengths, times, t in cases:
            report = comb_expansion_terms(strengths, times, t)
            flagged = sum(strengths[k] ** 2 for k in report.indefinite)
            s = -report.order1.imag  # order one is -i S
            assert report.order2_defined.real - 0.5 * flagged == pytest.approx(
                -0.5 * s * s, rel=1e-13, abs=1e-13)


class TestCombPitaronExpansion:
    def test_trivial_before_kicks(self):
        assert comb_pitaron_expansion(DIMB_STRENGTHS, DIMB_TIMES, 0.5) == (1.0, 0.0)

    def test_figure_comb_values(self):
        re, im = comb_pitaron_expansion(DIMB_STRENGTHS, DIMB_TIMES, 5.0)
        assert re == pytest.approx(-5.48)
        assert im == pytest.approx(-3.6)

    def test_small_kick_matches_exponential_taylor(self):
        re, im = comb_pitaron_expansion([0.1], [1.0], 2.0)
        assert abs(complex(re, im) - np.exp(-0.1j)) < 0.1**3 / 6

    def test_agrees_with_truncated_norm_identity(self):
        # real part is the truncated normalization, imaginary part is -S
        cums = np.cumsum(DIMB_STRENGTHS)
        for t in (0.2, 1.0, 1.7, 2.0, 3.5, 4.0, 6.0):
            re, im = comb_pitaron_expansion(DIMB_STRENGTHS, DIMB_TIMES, t)
            assert re == comb_truncated_norm(DIMB_STRENGTHS, DIMB_TIMES, t)
            s = sum(v for v, tau in zip(DIMB_STRENGTHS, DIMB_TIMES) if tau <= t)
            assert im == -s


class TestSmearedSecondOrder:
    def test_symmetric_gaussian_is_half(self):
        value = smeared_second_order(1e-2, 1e-2, "gaussian", 1.0, 2.0, panels=400)
        assert value == pytest.approx(0.5, abs=0.02)

    def test_symmetric_causal_is_half(self):
        value = smeared_second_order(1e-2, 1e-2, "causal", 1.0, 2.0, panels=400)
        assert value == pytest.approx(0.5, abs=1e-3)

    def test_sharp_inner_saturates_first(self):
        value = smeared_second_order(1e-3, 1e-1, "causal", 1.0, 2.0, panels=2000)
        assert value >= 0.9
        assert value == pytest.approx(0.1 / 0.101, abs=5e-3)

    def test_sharp_outer_arrives_first(self):
        value = smeared_second_order(1e-1, 1e-3, "causal", 1.0, 2.0, panels=2000)
        assert value <= 0.1
        assert value == pytest.approx(0.001 / 0.101, abs=5e-3)

    def test_symmetric_limit_approaches_half(self):
        # truncation error shrinks with the width; quadrature is kept resolved
        deviations = [
            abs(smeared_second_order(eps, eps, "causal", 1.0, 2.0, panels=p) - 0.5)
            for eps, p in ((1e-1, 400), (1e-2, 800), (1e-3, 4000))
        ]
        assert deviations[0] < 1e-4
        assert max(deviations[1:]) < 2e-5

    def test_gaussian_limit_approaches_half(self):
        deviations = [
            abs(smeared_second_order(eps, eps, "gaussian", 1.0, 2.0, panels=p) - 0.5)
            for eps, p in ((1e-1, 200), (1e-2, 400))
        ]
        assert deviations[0] < 0.03
        assert deviations[1] < 1e-6

    def test_rejects_unresolved_widths(self):
        with pytest.raises(ValueError, match="panel"):
            smeared_second_order(1e-4, 1e-4, "gaussian", 1.0, 2.0, panels=16)

    def test_rejects_center_outside_interval(self):
        with pytest.raises(ValueError, match="t1"):
            smeared_second_order(1e-2, 1e-2, "gaussian", 3.0, 2.0)


class TestCumulativeSimpson:
    X = np.linspace(0.3, 1.7, 41)
    H = 1.4 / 40

    def test_exact_for_cubics_at_even_nodes(self):
        f = lambda x: 2.0 * x**3 - x**2 + 0.5 * x - 3.0
        F = lambda x: 0.5 * x**4 - x**3 / 3 + 0.25 * x**2 - 3.0 * x
        cdf = _cumulative_simpson(f(self.X), self.H)
        assert_allclose(cdf[::2], F(self.X[::2]) - F(self.X[0]), rtol=0, atol=1e-14)

    def test_exact_for_quadratics_at_odd_nodes(self):
        f = lambda x: -1.5 * x**2 + 0.7 * x + 2.0
        F = lambda x: -0.5 * x**3 + 0.35 * x**2 + 2.0 * x
        cdf = _cumulative_simpson(f(self.X), self.H)
        assert cdf[0] == 0.0
        assert_allclose(cdf, F(self.X) - F(self.X[0]), rtol=0, atol=1e-14)

    def test_causal_closed_form_on_seeded_draws(self):
        # the benchmark's smearing ranges: widths from 4 panel steps up to (t - t1) / 40
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(200):
            t1 = rng.uniform(0.5, 1.5)
            t = t1 + rng.uniform(0.5, 1.5)
            step = max(t1, t - t1) / 4000
            eps1, eps2 = np.exp(rng.uniform(np.log(4 * step), np.log((t - t1) / 40), size=2))
            value = smeared_second_order(eps1, eps2, "causal", t1, t, panels=2000)
            worst = max(worst, abs(value - eps2 / (eps1 + eps2)))
        assert worst <= 1e-4

    def test_causal_guard_uses_the_integrated_segment(self):
        # only [t1, t] = [1.5, 2.0] is integrated: step 0.5 / 4000, not 1.5 / 4000
        value = smeared_second_order(1e-3, 2e-3, "causal", 1.5, 2.0, panels=2000)
        assert value == pytest.approx(2.0 / 3.0, abs=1e-5)
        with pytest.raises(ValueError, match="too coarse"):
            smeared_second_order(1e-3, 2e-3, "causal", 1.5, 2.0, panels=900)

    def test_density_is_evaluated_once_per_segment(self, monkeypatch):
        calls = []
        density = SmearedDelta.density
        monkeypatch.setattr(SmearedDelta, "density",
                            lambda self, x: calls.append(np.size(x)) or density(self, x))
        smeared_second_order(1e-2, 1e-1, "causal", 1.0, 2.0, panels=400)
        assert calls == [801, 801]
        calls.clear()
        smeared_second_order(1e-2, 1e-1, "gaussian", 1.0, 2.0, panels=400)
        assert calls == [801] * 4

    @pytest.mark.parametrize("eps1, eps2", [(1e-3, 1e-2), (1e-2, 1e-3)])
    def test_gaussian_asymmetric_widths_are_half(self, eps1, eps2):
        value = smeared_second_order(eps1, eps2, "gaussian", 1.0, 2.0, panels=400)
        assert value == pytest.approx(0.5, abs=1e-6)


class TestDominatedConvergence:
    def test_family1_integral_exactly_one(self):
        report = dominated_convergence_demos([1, 10, 100])
        assert report.family1_integrals == (1.0, 1.0, 1.0)

    def test_family2_integral_half(self):
        report = dominated_convergence_demos([5, 50])
        for value in report.family2_integrals:
            assert value == pytest.approx(0.5, abs=1e-8)

    def test_pointwise_values_vanish(self):
        report = dominated_convergence_demos([2, 5, 10, 50])
        vals = report.family2_at_1
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-12

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="at least 1"):
            dominated_convergence_demos([0])
