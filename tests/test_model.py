import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ael.errors import DomainError, OutOfDomain
from ael.model import (
    MarketParams,
    Strategy,
    analytic_stats,
    default_rule,
    q_rho,
    q_tilde_rho,
    sigma_rho,
    uniform_sigma_moments,
)


class TestMarketParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            MarketParams(0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            MarketParams(1.1, 1.0, 0.0)
        with pytest.raises(DomainError):
            MarketParams(0.1, 1.1, 1.0)

    def test_degenerate_flag(self):
        assert MarketParams(1.1, 1.1, 0.0).is_degenerate
        assert not MarketParams(0.1, 1.1, 0.0).is_degenerate

    def test_rho_bound(self):
        assert MarketParams(0.1, 1.1, 0.05).rho_bound_ok
        assert not MarketParams(0.1, 1.1, 0.5).rho_bound_ok


class TestSigmaRho:
    def test_unit_case(self):
        assert sigma_rho(1.0, 1.0, 0.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_equal_sigma_identity(self):
        # sigma_rho(s, s, rho) = s * sqrt(2 (1 - rho))
        assert sigma_rho(1.1, 1.1, 0.5) == pytest.approx(1.1, abs=1e-14)

    def test_reference_value(self):
        assert sigma_rho(0.1, 1.1, 0.0) == pytest.approx(1.1045361017187261, abs=1e-14)

    def test_guard(self):
        with pytest.raises(DomainError):
            sigma_rho(1.0, 1.0, 1.0)


class TestPrecisionRatios:
    def test_symmetric_half(self):
        for rho in (-0.7, 0.0, 0.4):
            assert q_rho(0.8, 0.8, rho) == pytest.approx(0.5, abs=1e-14)

    def test_reference_value(self):
        # (1/1.21) / (100 + 1/1.21) collapses to exactly 1/122
        assert q_rho(0.1, 1.1, 0.0) == pytest.approx(1.0 / 122.0, abs=1e-16)

    def test_pair_sums_to_one_at_point(self):
        s = q_rho(0.3, 0.9, 0.2) + q_tilde_rho(0.3, 0.9, 0.2)
        assert s == pytest.approx(1.0, abs=1e-14)

    def test_pair_sums_to_one_bulk(self):
        rng = np.random.default_rng(314)
        sa = rng.uniform(0.05, 3.0, 10_000)
        sb = rng.uniform(0.05, 3.0, 10_000)
        rho = rng.uniform(-0.95, 0.95, 10_000)
        worst = 0.0
        for a, b, r in zip(sa, sb, rho):
            worst = max(worst, abs(q_rho(a, b, r) + q_tilde_rho(a, b, r) - 1.0))
        assert worst <= 1e-14

    @given(
        st.floats(min_value=0.1, max_value=1.1),
        st.floats(min_value=0.1, max_value=1.1),
    )
    def test_nonnegative_under_rho_bound(self, sa, sb):
        # rho <= sigma_minus/sigma_plus keeps both weights non-negative
        rho = 0.1 / 1.1
        assert q_rho(sa, sb, rho) >= -1e-15
        assert q_tilde_rho(sa, sb, rho) >= -1e-15


class TestStrategy:
    def test_grid_point_exact(self, main_params):
        grid = np.linspace(0.1, 1.1, 11)
        vals = np.linspace(0.0, 1.0, 11)
        s = Strategy(grid, vals)
        assert s(float(grid[4])) == vals[4]

    def test_constant(self, main_params):
        s = Strategy.constant(0.3, main_params)
        assert s(0.57) == 0.3

    def test_midpoint_interpolation(self):
        s = Strategy(np.array([0.0, 1.0]), np.array([0.2, 0.4]))
        assert s(0.5) == pytest.approx(0.3, abs=1e-16)

    def test_out_of_domain(self, main_params):
        s = Strategy.constant(0.3, main_params)
        with pytest.raises(OutOfDomain):
            s(1.2)
        # within slack is fine
        assert s(1.1 + 1e-13) == 0.3

    def test_validation(self):
        with pytest.raises(DomainError):
            Strategy(np.array([0.2, 0.1]), np.array([0.0, 0.0]))
        with pytest.raises(DomainError):
            Strategy(np.array([0.1, 0.2]), np.array([0.0, -0.1]))

    def test_single_point_grid(self):
        s = Strategy(np.array([1.1]), np.array([0.5]))
        assert s(1.1) == 0.5


class TestAnalyticStats:
    def test_zero_strategy_trades_half_the_time(self, main_params):
        stats = analytic_stats(Strategy.constant(0.0, main_params), main_params)
        assert stats.trade_prob == pytest.approx(0.5, abs=1e-13)

    def test_constant_strategy_closed_form(self, main_params):
        d = 0.3
        stats = analytic_stats(Strategy.constant(d, main_params), main_params)
        _, e_s2 = uniform_sigma_moments(main_params)
        assert stats.spread_mean == pytest.approx(2 * d, abs=1e-12)
        assert stats.spread_var == pytest.approx(2 * e_s2, abs=1e-12)

    def test_uniform_second_moment(self):
        p = MarketParams(0.1, 1.1, 0.0)
        _, e_s2 = uniform_sigma_moments(p)
        sm, sp = 0.1, 1.1
        assert e_s2 == pytest.approx((sp**3 - sm**3) / (3 * (sp - sm)), abs=1e-15)

    def test_mid_error_mean_identically_zero(self, main_params):
        rng = np.random.default_rng(5)
        grid = np.linspace(0.1, 1.1, 21)
        s = Strategy(grid, rng.uniform(0.0, 1.0, 21))
        assert analytic_stats(s, main_params).mid_error_mean == 0.0

    def test_rho_zero_variance_ratio(self, main_params):
        # with rho = 0 both variances reduce to the same core expression
        s = Strategy.constant(0.25, main_params)
        stats = analytic_stats(s, main_params)
        assert stats.mid_error_var == pytest.approx(stats.spread_var / 4.0, abs=1e-13)

    def test_trade_prob_monotone_in_shift(self, main_params):
        probs = [
            analytic_stats(Strategy.constant(c, main_params), main_params).trade_prob
            for c in (0.0, 0.1, 0.3, 0.8)
        ]
        assert all(b < a for a, b in zip(probs, probs[1:]))

    def test_explicit_rule_agrees_with_default(self, main_params):
        s = Strategy.constant(0.4, main_params)
        a = analytic_stats(s, main_params)
        b = analytic_stats(s, main_params, default_rule(main_params, 64))
        assert a == b

    def test_mismatched_rule_rejected(self, main_params):
        from ael.gaussmath import gauss_legendre

        s = Strategy.constant(0.4, main_params)
        with pytest.raises(DomainError):
            analytic_stats(s, main_params, gauss_legendre(0.2, 1.0, 32))
