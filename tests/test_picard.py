import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pitaron_lab.cli import PICARD_MAX_ITERATES
from pitaron_lab.propagation import pitaron
from pitaron_lab.picard import (
    error_bound,
    identity_sqrt_family,
    log_branch_solution,
    picard_delta_breakdown,
    picard_iterate,
)
from pitaron_lab.singular_dynamics import SmearedDelta


class TestPicardIterate:
    def test_three_iterations_give_cubic_taylor_value(self):
        run = picard_iterate(lambda x, y: y, 1.0, 0.0, 1.0, 3, 20001)
        assert run.iterates[3][-1] == pytest.approx(1 + 1 + 0.5 + 1 / 6, abs=1e-8)

    def test_zero_rhs_keeps_initial_value(self):
        run = picard_iterate(lambda x, y: 0.0 * y, 2.5, 0.0, 1.0, 4, 101)
        assert np.all(run.iterates == 2.5)

    def test_iterates_are_taylor_polynomials(self):
        g = 0.8
        run = picard_iterate(lambda x, y: g * y, 1.0, 0.0, 1.0, 5, 4001)
        for n in range(1, 6):
            taylor = sum((g * run.xs) ** k / math.factorial(k) for k in range(n + 1))
            assert np.max(np.abs(run.iterates[n] - taylor)) < 1e-6

    def test_errors_against_reference_decrease(self):
        run = picard_iterate(lambda x, y: y, 1.0, 0.0, 1.0, 12, 20001, reference=np.exp)
        assert all(a >= b for a, b in zip(run.errors[:6], run.errors[1:7]))
        assert run.errors[12] < 1e-8

    def test_error_bound_dominates_measured_error(self):
        run = picard_iterate(lambda x, y: y, 1.0, 0.0, 1.0, 12, 20001, reference=np.exp)
        for n in range(1, 13):
            assert run.errors[n] <= error_bound(math.e, 1.0, 1.0, n)

    def test_shape_and_initial_row(self):
        run = picard_iterate(lambda x, y: y, 3.0, 0.0, 2.0, 4, 101)
        assert run.iterates.shape == (5, 101)
        assert np.all(run.iterates[0] == 3.0)

    def test_non_finite_rhs_reported_with_location(self):
        a = 1.0

        def rhs(x, y):
            return np.where(x == a, np.inf, 0.0) * y

        with pytest.raises(ValueError, match="non-finite sample at x=1"):
            picard_iterate(rhs, 1.0, 0.0, 2.0, 2, 101)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError, match="64"):
            picard_iterate(lambda x, y: y, 1.0, 0.0, 1.0, 2, 32)

    def test_overflowing_iterate_raises_floating_point_error(self):
        # for y' = -800 y on [0, 1] an iterate passes the float range by n = 437
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                picard_iterate(lambda x, y: -800.0 * y, 1.0, 0.0, 1.0, 437, 1000)


class TestErrorBound:
    def test_unit_parameters_cubic(self):
        assert error_bound(1.0, 1.0, 1.0, 3) == pytest.approx(1 / 6)

    def test_factorial_decay(self):
        values = [error_bound(math.e, 1.0, 1.0, n) for n in (5, 10, 20)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-17

    @pytest.mark.parametrize("m, nlip, h", [(math.e, 1.0, 1.0), (3.0, 2.0, 0.7), (0.5, 40.0, 0.1)])
    def test_float_form_keeps_its_bits_up_to_170(self, m, nlip, h):
        for n in range(1, 171):
            assert error_bound(m, nlip, h, n) == m * nlip ** (n - 1) * h**n / math.factorial(n)

    def test_finite_and_decaying_beyond_the_float_factorial(self):
        # n! leaves the float range at n = 171; the bound must not, up to the CLI's cap
        values = [error_bound(math.e, 3.0, 1.0, n) for n in range(1, PICARD_MAX_ITERATES + 1)]
        assert all(math.isfinite(v) for v in values)
        assert all(a >= b for a, b in zip(values[3:], values[4:]))
        assert values[170] == pytest.approx(values[169] * 3.0 / 171, rel=1e-12)
        # where N^(n-1) alone overflows, a bound that is a float is still returned
        assert error_bound(1.0, 1e200, 1e-200, 5) == pytest.approx(1e-200 / 120, rel=1e-12)
        with pytest.raises(OverflowError):
            error_bound(1.0, 1e200, 1.0, 5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            error_bound(-1.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            error_bound(1.0, 1.0, 1.0, 0)


@pytest.fixture(scope="module")
def report():
    return picard_delta_breakdown(1.0, 1e-2, 2.0, grid=32001)


class TestDeltaBreakdown:
    def test_symmetric_smearing_picks_half(self, report):
        for value in report.symmetric_second_iterates:
            assert value == pytest.approx(2.5, abs=0.02)

    def test_direct_solution_is_e(self, report):
        assert report.direct_value == pytest.approx(math.e)

    def test_asymmetric_pairs_disagree(self, report):
        assert report.asymmetric_spread >= 0.4
        hi, lo = report.asymmetric_second_iterates
        assert hi - 2.0 >= 0.9
        assert lo - 2.0 <= 0.1

    def test_before_the_kick_everything_is_trivial(self):
        # grid ends before the delta: every iterate stays at the initial value
        delta_free = picard_iterate(lambda x, y: 0.0 * x, 1.0, 0.0, 0.5, 3, 101)
        assert np.all(delta_free.iterates == 1.0)

    def test_rejects_unresolvable_grid(self):
        with pytest.raises(ValueError, match="resolve"):
            picard_delta_breakdown(1.0, 1e-5, 2.0, grid=101)

    def test_rejects_kick_outside_interval(self):
        with pytest.raises(ValueError, match="a < x1"):
            picard_delta_breakdown(3.0, 1e-2, 2.0)

    @pytest.mark.parametrize("grid", [1, 2, 63])
    def test_rejects_small_grid(self, grid):
        with pytest.raises(ValueError, match="at least 64 points"):
            picard_delta_breakdown(1.0, 1e-2, 2.0, grid=grid)


def _trapezoid_second_iterate(inner, outer, x1, grid):
    """y2(x1) by two cumulative trapezoid substitutions, written out."""
    xs = np.linspace(0.0, x1, grid)
    dx = x1 / (grid - 1)

    def integral(values):
        return np.concatenate(([0.0], np.cumsum((values[1:] + values[:-1]) * (dx / 2.0))))

    y1 = 1.0 + integral(inner.density(xs))
    return float((1.0 + integral(outer.density(xs) * y1))[-1])


# (a, epsilon, x1, grid): the module fixture, the CLI's breakdown config and two more
@pytest.mark.parametrize("a, epsilon, x1, grid", [
    (1.0, 1e-2, 2.0, 32001), (0.5, 0.01, 1.0, 8001), (0.25, 0.02, 0.5, 2001),
    (1.5, 0.05, 3.0, 6001)])
def test_breakdown_values_keep_their_bits(a, epsilon, x1, grid):
    report = picard_delta_breakdown(a, epsilon, x1, grid=grid)
    for eps, value in zip(report.eps_sequence, report.symmetric_second_iterates):
        d = SmearedDelta(kind="gaussian", epsilon=eps, center=a)
        run = picard_iterate(lambda x, y: d.density(x) * y, 1.0, 0.0, x1, 2, grid)
        assert value == run.iterates[2][-1]
    for (e1, e2), value in zip(report.asymmetric_pairs, report.asymmetric_second_iterates):
        inner, outer = (SmearedDelta(kind="causal", epsilon=e, center=a) for e in (e1, e2))
        assert value == _trapezoid_second_iterate(inner, outer, x1, grid)
    assert report.direct_value == math.e


class TestIdentitySqrtFamily:
    def test_positive_branch_is_identity(self):
        assert_allclose(identity_sqrt_family(1.0, 0.0), np.eye(2))

    def test_pauli_x_member(self):
        assert_allclose(identity_sqrt_family(0.0, 1.0), [[0, 1], [1, 0]])

    def test_three_four_five_member(self):
        m = identity_sqrt_family(0.6, 0.8)
        assert m[1, 0] == pytest.approx(0.8)
        assert_allclose(m @ m, np.eye(2), atol=1e-14)

    def test_hundred_constraint_samples_square_to_identity(self, rng):
        for _ in range(100):
            a = rng.uniform(-2.0, 2.0)
            b = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
            m = identity_sqrt_family(a, b)
            assert np.linalg.norm(m @ m - np.eye(2)) < 1e-12

    def test_family_members_are_not_positive_definite(self, rng):
        # traceless roots have eigenvalues +1 and -1; only the identity is PD
        for _ in range(10):
            m = identity_sqrt_family(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.0))
            assert np.min(np.linalg.eigvals(m).real) < 0

    def test_positive_sqrt_of_identity_is_unique(self):
        assert_allclose(pitaron(np.eye(2)).N, np.eye(2), atol=1e-14)

    def test_degenerate_b_requires_unit_a(self):
        with pytest.raises(ValueError, match="b = 0"):
            identity_sqrt_family(0.5, 0.0)


class TestLogBranchSolution:
    def test_independent_constants_across_zero(self):
        y = log_branch_solution(2.0, 1.0, -3.0)
        assert y(math.e) == pytest.approx(3.0)
        assert y(-math.e) == pytest.approx(-1.0)

    def test_singular_at_origin(self):
        y = log_branch_solution(1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="singular"):
            y(0.0)
