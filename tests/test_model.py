import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ael.equilibrium import SolverConfig
from ael.errors import DomainError, OutOfDomain
from ael.gaussmath import norm_cdf
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
        # Q~ is Q with the roles swapped: the bits of its explicit formula
        for a, b, r in ((sa, sb, rho), (sa[:100, None], sb[None, :100], 0.3)):
            den = 1.0 / (a * a) + 1.0 / (b * b) - 2.0 * r / (a * b)
            assert np.array_equal(q_tilde_rho(a, b, r), (1.0 / (a * a) - r / (a * b)) / den)

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
        # NaN compares false both ways, so it used to pass the ordering check
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="grid must be finite"):
                Strategy(np.array([0.1, bad, 1.1]), np.array([0.2, 0.3, 0.4]))
        for grid in ([0.0, 5e-324], [-1e308, 1e308]):
            with pytest.raises(DomainError, match="span and slopes must be finite"):
                Strategy(np.array(grid), np.array([0.0, 1.0]))

    def test_single_point_grid(self):
        s = Strategy(np.array([1.1]), np.array([0.5]))
        assert s(1.1) == 0.5
        assert np.array_equal(s(np.array([1.1 - 1e-12, 1.1, 1.1 + 1e-12])), [0.5, 0.5, 0.5])

    def test_nan_query_is_out_of_domain(self):
        s = Strategy(np.array([0.1, 1.1]), np.array([0.2, 0.4]))
        with pytest.raises(OutOfDomain):
            s(np.array([math.nan, 0.5]))
        with pytest.raises(OutOfDomain):
            s(math.nan)

    def test_query_shapes_and_types(self):
        s = Strategy(np.linspace(0.1, 1.1, 11), np.linspace(0.0, 1.0, 11) ** 2)
        empty = s(np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        q = np.linspace(0.1, 1.1, 12).reshape(3, 2, 2)
        assert np.array_equal(s(q), np.interp(q, s.grid, s.values))
        assert type(s(0.55)) is float and type(s(np.float64(0.55))) is float
        assert type(s(np.array(0.55))) is np.ndarray
        for seq in ([0.2, 0.5], (0.2, 0.5), [0.5]):
            got = s(seq)
            assert isinstance(got, np.ndarray) and got.shape == (len(seq),)
            assert np.array_equal(got, s(np.array(seq)))

    def test_slack_clamps_to_end_values(self):
        s = Strategy(np.linspace(0.1, 1.1, 11), np.linspace(0.0, 1.0, 11) ** 2)
        assert np.array_equal(s(np.array([0.1 - 1e-12, 1.1 + 1e-12])), [0.0, 1.0])
        with pytest.raises(OutOfDomain):
            s(0.1 - 3e-12)

    def test_solver_grid_takes_one_search_step(self):
        for n in (2, 11, 101, 1001):
            grid = np.linspace(0.1, 1.1, n)
            csv = np.array([float(f"{v:.16e}") for v in grid])
            for g in (grid, csv):
                assert Strategy(g, np.zeros(n))._buckets.strides == ()


def _grid(kind: int, n: int, rng: np.random.Generator) -> np.ndarray:
    lo = rng.uniform(0.01, 2.0)
    hi = lo + rng.uniform(1e-6, 5.0)
    if kind == 0:  # the solver's grid
        return np.linspace(lo, hi, n)
    if kind == 1:  # a solve-ne CSV read back
        return np.array([float(f"{v:.16e}") for v in np.linspace(lo, hi, n)])
    if kind == 2:  # random sorted
        return np.unique(np.r_[lo, rng.uniform(lo, hi, n - 2), hi])
    if kind == 3:  # geometric
        return np.geomspace(lo, hi, n)
    # clustered: a few tight runs with wide gaps between them
    steps = rng.choice([1e-9, 1e-4, 1.0], size=n - 1) * rng.uniform(0.5, 1.5, n - 1)
    return lo + (hi - lo) * np.r_[0.0, np.cumsum(steps)] / steps.sum()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    kind=st.integers(0, 4),
    n=st.one_of(st.just(2), st.integers(2, 300)),
    seed=st.integers(0, 2**32 - 1),
)
def test_lookup_is_bit_identical_to_interp(kind, n, seed):
    rng = np.random.default_rng(seed)
    grid = _grid(kind, n, rng)
    values = rng.uniform(0.0, 2.0, grid.size)
    s = Strategy(grid, values)
    slack = 0.5e-12 * max(1.0, abs(grid[0]), abs(grid[-1]))
    q = np.concatenate([
        rng.uniform(grid[0], grid[-1], 2000),
        grid,
        np.nextafter(grid, -np.inf),
        np.nextafter(grid, np.inf),
        [grid[0] - slack, grid[-1] + slack],
    ])
    # more points than the grid go through the bucket tables, fewer
    # through a binary search
    for part in (q, q[: grid.size]):
        assert np.array_equal(s(part), np.interp(part, grid, values))


def default_stats(delta, params):
    """analytic_stats on the rule of the default node count."""
    return analytic_stats(delta, params, default_rule(params, SolverConfig.quad_n))


class TestAnalyticStats:
    def test_zero_strategy_trades_half_the_time(self, main_params):
        stats = default_stats(Strategy.constant(0.0, main_params), main_params)
        assert stats.trade_prob == pytest.approx(0.5, abs=1e-13)

    def test_constant_strategy_closed_form(self, main_params):
        d = 0.3
        stats = default_stats(Strategy.constant(d, main_params), main_params)
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
        assert default_stats(s, main_params).mid_error_mean == 0.0

    def test_rho_zero_variance_ratio(self, main_params):
        # with rho = 0 both variances reduce to the same core expression
        s = Strategy.constant(0.25, main_params)
        stats = default_stats(s, main_params)
        assert stats.mid_error_var == pytest.approx(stats.spread_var / 4.0, abs=1e-13)

    def test_trade_prob_monotone_in_shift(self, main_params):
        probs = [
            default_stats(Strategy.constant(c, main_params), main_params).trade_prob
            for c in (0.0, 0.1, 0.3, 0.8)
        ]
        assert all(b < a for a, b in zip(probs, probs[1:]))

    def test_averages_use_the_given_rule(self, main_params):
        # a one-node rule reduces the double average to its one node pair
        s = Strategy.constant(0.4, main_params)
        stats = analytic_stats(s, main_params, (np.array([0.6]), np.array([1.0])))
        assert stats.trade_prob == pytest.approx(norm_cdf(-0.8 / sigma_rho(0.6, 0.6, 0.0)),
                                                 rel=1e-15, abs=0.0)
