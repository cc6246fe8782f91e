import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

import ael.exchange as exchange
from ael.errors import DomainError, NoConvergence, NoEquilibrium
from ael.gaussmath import norm_cdf, norm_pdf
from ael.model import MarketParams, SpreadQuad, default_rule
from ael.equilibrium import GAIN_TOL, SolverConfig, solve_degenerate, solve_fixed_point
from ael.exchange import (
    optimal_gamma_degenerate,
    optimal_gamma_numeric,
    revenue,
    revenue_curve,
    y_star,
)

FAST = SolverConfig(grid_n=41, tol=1e-7)


class TestYStar:
    def test_root_quality(self):
        ys = y_star()
        assert abs(1.0 - norm_cdf(ys) - ys * norm_pdf(ys)) <= 1e-14
        assert 0.7 < ys < 0.8

    def test_pinned_bits(self):
        # the value the bracketed Brent root with a Newton polish gave
        assert y_star() == 0.7517915246935645

    def test_against_independent_solver(self):
        oracle = scipy.optimize.brentq(
            lambda y: 1.0 - norm_cdf(y) - y * norm_pdf(y), 0.1, 3.0, xtol=1e-15
        )
        assert y_star() == pytest.approx(oracle, abs=1e-13)


class TestOptimalGammaDegenerate:
    def test_reference_values(self):
        res = optimal_gamma_degenerate(1.1, 0.0)
        assert res.gamma_star == pytest.approx(0.09665911850500548, rel=1e-12)
        assert res.delta_star == pytest.approx(0.5847565736643325, rel=1e-12)
        assert res.revenue == pytest.approx(0.033051643189264006, rel=1e-12)
        assert 0.09 <= res.gamma_star <= 0.11

    @pytest.mark.parametrize("rho", [0.0, 0.03])
    @pytest.mark.parametrize("sigma", [0.5, 1.1])
    def test_revenue_is_per_player_like_revenue(self, sigma, rho):
        res = optimal_gamma_degenerate(sigma, rho)
        assert res.revenue == pytest.approx(
            revenue(res.gamma_star, MarketParams(sigma, sigma, rho)), rel=1e-12
        )

    def test_delta_star_is_the_equilibrium_root(self):
        # the closed-form delta* solves the first-order condition at gamma*
        res = optimal_gamma_degenerate(1.1, 0.0)
        p = MarketParams(1.1, 1.1, 0.0)
        root = solve_degenerate(p, SpreadQuad(res.gamma_star))
        assert root == pytest.approx(res.delta_star, abs=1e-8)

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_homogeneity(self, c):
        base = optimal_gamma_degenerate(1.1, 0.0)
        scaled = optimal_gamma_degenerate(1.1 * c, 0.0)
        assert scaled.gamma_star == pytest.approx(base.gamma_star / c, rel=1e-12)
        assert scaled.delta_star == pytest.approx(base.delta_star * c, rel=1e-12)

    def test_revenue_foc_consistency(self):
        # substituting the first-order condition: 2 gamma* delta*^2
        # equals (1/2)(1 - Phi(y*)) delta*
        res = optimal_gamma_degenerate(1.1, 0.0)
        assert 2.0 * res.gamma_star * res.delta_star**2 == pytest.approx(
            0.5 * (1.0 - norm_cdf(res.y_star)) * res.delta_star, abs=1e-10
        )

    def test_mapped_objective_stationary_at_delta_star(self):
        # g(d) = (1/4)(1 - Phi(sqrt2 d / sigma)) d has g'(delta*) = 0
        sigma = 1.1
        res = optimal_gamma_degenerate(sigma, 0.0)

        def g(d):
            return 0.25 * (1.0 - norm_cdf(math.sqrt(2.0) * d / sigma)) * d

        h = 1e-6
        slope = (g(res.delta_star + h) - g(res.delta_star - h)) / (2 * h)
        assert abs(slope) <= 1e-8

    def test_input_validation(self):
        with pytest.raises(DomainError):
            optimal_gamma_degenerate(-1.0, 0.0)
        with pytest.raises(DomainError):
            optimal_gamma_degenerate(1.0, 1.0)


class TestRevenue:
    def test_degenerate_dominance_at_gamma_star(self):
        p = MarketParams(1.1, 1.1, 0.0)
        res = optimal_gamma_degenerate(1.1, 0.0)
        best = revenue(res.gamma_star, p)
        for g in (0.05, 0.08, 0.12, 0.2):
            assert best >= revenue(g, p)

    def test_degenerate_matches_root_squared(self):
        p = MarketParams(1.1, 1.1, 0.0)
        g = 0.1
        root = solve_degenerate(p, SpreadQuad(g))
        assert revenue(g, p) == pytest.approx(g * root * root, rel=1e-12)

    def test_continuity_in_gamma(self):
        p = MarketParams(1.1, 1.1, 0.0)
        h = 1e-3
        assert abs(revenue(0.1 + h, p) - revenue(0.1, p)) <= 5e-3

    def test_general_market_positive(self, main_params):
        val = revenue(2.0, main_params, FAST)
        assert val > 0.0

    def test_general_market_is_the_node_sum(self, main_params):
        # gamma * sum_i w_i x_i^2 over the solved node values x
        x = solve_fixed_point(main_params, SpreadQuad(2.0), FAST).nodes.values
        _, w = default_rule(main_params, FAST.quad_n)
        assert revenue(2.0, main_params, FAST) == 2.0 * float(np.dot(w, x * x))

    @pytest.mark.parametrize("gamma", [0.13, 2.0])
    def test_independent_of_grid_n(self, main_params, gamma):
        values = {revenue(gamma, main_params, SolverConfig(grid_n=n)) for n in (11, 41, 101)}
        assert len(values) == 1


class TestRevenueCurve:
    def test_degenerate_argmax_brackets_gamma_star(self):
        p = MarketParams(1.1, 1.1, 0.0)
        res = optimal_gamma_degenerate(1.1, 0.0)
        grid = np.linspace(0.05, 0.2, 61)
        points = revenue_curve(grid, p)
        revs = np.array([pt.revenue for pt in points])
        k = int(np.argmax(revs))
        assert grid[max(k - 1, 0)] <= res.gamma_star <= grid[min(k + 1, len(grid) - 1)]

    def test_flags_never_abort(self, main_params):
        # a starved iteration budget cannot converge; the sweep flags the
        # point and keeps going (the Newton solve itself converges at
        # every gamma we probed on this market, even far below 1.5)
        starved = SolverConfig(grid_n=41, tol=1e-12, max_iter=2)
        points = revenue_curve([1.5, 2.0], main_params, starved)
        assert all(p.converged is False for p in points)
        assert all(math.isnan(p.revenue) for p in points)
        ok = revenue_curve([2.0], main_params, FAST)
        assert ok[0].converged is True and ok[0].revenue > 0.0

    @pytest.mark.parametrize("rho", [0.0, 0.05])
    def test_lowest_gammas_have_a_revenue(self, rho):
        # the solves at these gammas are equilibria whose rows are not all
        # concave past their maxima; the sweep, each point cold, prices each one
        points = revenue_curve([1e-4, 1e-3, 0.005], MarketParams(0.1, 1.1, rho))
        assert all(p.converged and math.isfinite(p.revenue) and p.revenue > 0.0
                   for p in points)

    def test_sweep_independent_of_grid_n(self, main_params):
        grid = np.linspace(0.08, 0.2, 7)
        coarse, fine = (revenue_curve(grid, main_params, SolverConfig(grid_n=n))
                        for n in (11, 101))
        assert all(p.converged for p in fine) and coarse == fine

    def test_grid_validation(self, main_params):
        with pytest.raises(DomainError):
            revenue_curve([], main_params, FAST)
        with pytest.raises(DomainError):
            revenue_curve([2.0, 1.0], main_params, FAST)
        for grid in ([-1.0, 2.0], [0.0, 2.0]):
            with pytest.raises(DomainError):
                revenue_curve(grid, main_params, FAST)


class TestOptimalGammaNumeric:
    def test_recovers_closed_form_on_degenerate_market(self):
        p = MarketParams(1.1, 1.1, 0.0)
        res = optimal_gamma_degenerate(1.1, 0.0)
        found = optimal_gamma_numeric(p, lo=0.03, hi=0.3, tol=1e-5)
        assert found == pytest.approx(res.gamma_star, abs=1e-4)

    def test_near_degenerate_optimum_tends_to_the_closed_form(self):
        # the gap to the degenerate gamma* shrinks in proportion to the
        # width eps of the sigma interval
        exact = optimal_gamma_degenerate(1.1).gamma_star
        gaps = [
            abs(optimal_gamma_numeric(MarketParams(1.1 - eps, 1.1, 0.0), lo=0.05, hi=0.2,
                                      tol=1e-6) / exact - 1.0)
            for eps in (1e-2, 1e-3)
        ]
        assert gaps[0] <= 1e-2 and gaps[1] <= 1e-3
        assert 5.0 <= gaps[0] / gaps[1] <= 20.0


class TestRevenueCurveErrors:
    CFG = SolverConfig(grid_n=11, quad_n=16)

    def test_bug_propagates(self, main_params, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("bug in the solver")

        monkeypatch.setattr(exchange, "solve_fixed_point", broken)
        with pytest.raises(RuntimeError):
            revenue_curve([1.0, 2.0], main_params, self.CFG)

    def test_degenerate_bug_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("bug in the solver")

        monkeypatch.setattr(exchange, "solve_degenerate", broken)
        with pytest.raises(RuntimeError):
            revenue_curve([1.0], MarketParams(1.1, 1.1, 0.0))

    def test_solver_error_marks_point_and_sweep_continues(self, main_params, monkeypatch):
        real = exchange.solve_fixed_point

        def flaky(params, fees, cfg, init=None, *, tables=None):
            if fees.gamma == 1.0:
                raise NoConvergence("synthetic")
            return real(params, fees, cfg, init=init, tables=tables)

        monkeypatch.setattr(exchange, "solve_fixed_point", flaky)
        points = revenue_curve([1.0, 2.0], main_params, self.CFG)
        assert [p.converged for p in points] == [False, True]
        assert math.isnan(points[0].revenue) and points[1].revenue > 0.0


class TestNoEquilibriumMessage:
    # a point fails on its residual or on its deviation gain, and the
    # message names the one that failed, with its value

    @pytest.mark.parametrize("failure", ["residual", "gain"])
    def test_message_names_the_failed_test(self, main_params, failure, monkeypatch):
        real = exchange.solve_fixed_point

        def failing(params, fees, cfg, init=None, *, tables=None):
            rep = real(params, fees, cfg, init=init, tables=tables)
            if failure == "residual":
                return replace(rep, residual=1e-3, converged=False)
            return replace(rep, deviation_gain=2.5e-6, converged=False)

        monkeypatch.setattr(exchange, "solve_fixed_point", failing)
        with pytest.raises(NoEquilibrium) as err:
            revenue(2.0, main_params, TestRevenueCurveErrors.CFG)
        msg = str(err.value)
        if failure == "residual":
            assert "residual 1.000e-03" in msg and "deviation gain" not in msg
        else:
            assert f"deviation gain 2.500e-06 above {GAIN_TOL:g}" in msg
            assert "residual" not in msg


class TestRevenueMatchesCurve:
    # each point of a curve is solved cold on the market's one fee-free
    # table, so it equals its gamma priced alone, bit for bit, whatever the
    # grid around it, at gammas whose solves climb several decades too
    @pytest.mark.parametrize("grid", [[2.0], [1e-5, 0.1337, 2.0], [1e-6, 1e-5, 1e-4, 0.1337, 2.0]],
                             ids=["one", "three", "climbing"])
    @pytest.mark.parametrize("rho", [0.0, 0.05])
    @pytest.mark.parametrize("market", [(0.1, 1.1), (1.1, 1.1)], ids=["main", "degenerate"])
    def test_curve_points_equal_revenue(self, market, rho, grid):
        params = MarketParams(*market, rho)
        cfg = SolverConfig(grid_n=11)
        points = revenue_curve(grid, params, cfg)
        assert all(p.converged for p in points)
        assert [p.revenue for p in points] == [revenue(g, params, cfg) for g in grid]
