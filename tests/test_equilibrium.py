import functools
import math
import tracemalloc
import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import ael.equilibrium as equilibrium
import ael.parallel as parallel
import ael.payoff as payoff
from ael.errors import DegenerateCase, DomainError, NoConvergence, WrongScheme
from ael.gaussmath import legendre_interpolate, norm_cdf, norm_pdf
from ael.model import (
    LinearDemand,
    MarketParams,
    MidQuad,
    NoFee,
    SpreadQuad,
    Strategy,
    analytic_stats,
    default_rule,
    q_rho,
    sigma_rho,
)
from ael.payoff import (
    PayoffContext,
    payoff_deriv,
    payoff_terms,
    second_deriv_bound,
)
from ael.equilibrium import (
    SolverConfig,
    best_response,
    existence_bound,
    no_ne_certificate,
    solve_degenerate,
    solve_fixed_point,
    verify_ne,
)

FAST = SolverConfig(grid_n=41, tol=1e-7)
ARGMAX_TOL = max(SolverConfig.tol * 1e-3, 1e-13)  # the row Newton's step bound at the default tol


def spread_foc(x, sigma, rho, gamma):
    se = sigma * math.sqrt(1.0 - rho)
    return 0.5 * (1.0 - norm_cdf(math.sqrt(2.0) * x / se)) - 2.0 * gamma * x


def linear_demand_foc(x, sigma, rho, kbar, gamma):
    se = sigma * math.sqrt(1.0 - rho)
    u = math.sqrt(2.0) * x / se
    return 0.5 * kbar * (-x * (1.0 - norm_cdf(u)) + se / math.sqrt(2.0) * norm_pdf(u)) - 2.0 * gamma * x


def tail_foc(x, fees, sigma, rho):
    """The degenerate first-order condition of either scheme with its tail
    written Phi(-u), in scalar math."""
    se = sigma * math.sqrt(1.0 - rho)
    u = math.sqrt(2.0) * x / se
    tail = 0.5 * math.erfc(u / math.sqrt(2.0))
    if isinstance(fees, SpreadQuad):
        return 0.5 * tail - 2.0 * fees.gamma * x
    dens = math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return 0.5 * fees.kbar * (-x * tail + se / math.sqrt(2.0) * dens) - 2.0 * fees.gamma * x


class TestSolveDegenerate:
    def test_root_residual_and_oracle(self):
        p = MarketParams(1.1, 1.1, 0.0)
        for gamma in (0.05, 0.1, 2.0, 100.0):
            root = solve_degenerate(p, SpreadQuad(gamma))
            assert abs(spread_foc(root, 1.1, 0.0, gamma)) <= 1e-12 * max(1.0, gamma)
            oracle = scipy.optimize.brentq(
                lambda x: spread_foc(x, 1.1, 0.0, gamma), 0.0, 10.0, xtol=1e-15
            )
            assert root == pytest.approx(oracle, abs=1e-10)

    def test_large_gamma_bound(self):
        # the first-order condition forces delta <= 1/(4 gamma)
        p = MarketParams(1.1, 1.1, 0.0)
        assert solve_degenerate(p, SpreadQuad(100.0)) < 2.5e-3

    def test_linear_demand_root(self):
        p = MarketParams(1.0, 1.0, 0.0)
        root = solve_degenerate(p, LinearDemand(kbar=1.0, gamma=1.0))

        def foc(x):
            u = math.sqrt(2.0) * x
            return 0.5 * (-x * (1 - norm_cdf(u)) + norm_pdf(u) / math.sqrt(2)) - 2 * x

        oracle = scipy.optimize.brentq(foc, 0.0, 1.0, xtol=1e-15)
        assert root == pytest.approx(oracle, abs=1e-10)
        assert root == pytest.approx(0.06293586903381834, abs=1e-9)
        assert abs(foc(root)) <= 1e-12

    @pytest.mark.parametrize("rho", [0.0, 0.3])
    @pytest.mark.parametrize("sigma", [0.1, 1.1])
    @pytest.mark.parametrize("gamma", [1e-3, 0.3, 100.0])
    @pytest.mark.parametrize("kbar", [0.1, 1.0, 10.0])
    def test_linear_demand_root_residual(self, kbar, gamma, sigma, rho):
        root = solve_degenerate(MarketParams(sigma, sigma, rho), LinearDemand(kbar, gamma))
        assert root > 0.0
        assert abs(linear_demand_foc(root, sigma, rho, kbar, gamma)) <= 1e-12 * max(1.0, gamma)

    def test_wrong_schemes_rejected(self):
        p = MarketParams(1.1, 1.1, 0.0)
        with pytest.raises(WrongScheme):
            solve_degenerate(p, NoFee())
        with pytest.raises(WrongScheme):
            solve_degenerate(p, MidQuad(1.0))
        with pytest.raises(DomainError):
            solve_degenerate(MarketParams(0.1, 1.1, 0.0), SpreadQuad(1.0))

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_scale_covariance(self, c):
        # (sigma, gamma) -> (c sigma, gamma/c) maps the root to c * root
        gamma = 0.1
        base = solve_degenerate(MarketParams(1.1, 1.1, 0.0), SpreadQuad(gamma))
        scaled = solve_degenerate(
            MarketParams(1.1 * c, 1.1 * c, 0.0), SpreadQuad(gamma / c)
        )
        assert scaled == pytest.approx(c * base, abs=1e-10)

    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.9])
    @pytest.mark.parametrize("fees", [SpreadQuad(1.0), LinearDemand(0.01, 1.0),
                                      LinearDemand(1.0, 1.0), LinearDemand(100.0, 1.0)],
                             ids=["spread_quad", "kbar0.01", "kbar1", "kbar100"])
    def test_monotone_newton_matches_brent(self, fees, rho, monkeypatch):
        # Newton from 0 on a whole sigma array against Brent on each root of
        # the FOC with its tail written Phi(-u), within 30 evaluations (with
        # 1 - Phi(u) it creeps near deep roots); the array call holds the
        # bits of its elementwise calls
        calls, real_foc = [0], equilibrium._degenerate_foc

        def counted(*args):
            calls[0] += 1
            return real_foc(*args)

        monkeypatch.setattr(equilibrium, "_degenerate_foc", counted)
        sigma = np.geomspace(1e-3, 10.0, 9)
        for gamma in np.geomspace(1e-8, 1e4, 13):
            at = replace(fees, gamma=gamma)
            calls[0] = 0
            roots = equilibrium._degenerate_root(at, sigma, rho)
            assert calls[0] <= 30
            for s, root in zip(sigma, roots):
                assert equilibrium._degenerate_root(at, s, rho) == root
                foc = functools.partial(tail_foc, fees=at, sigma=s, rho=rho)
                hi = 1.0
                while foc(hi) > 0.0:
                    hi *= 2.0
                oracle = scipy.optimize.brentq(foc, 0.0, hi, xtol=1e-300, rtol=1e-15)
                assert root == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize(
        "sigma, rho, fees, exact",
        [(1.1, 0.9, SpreadQuad(1e-7), 1.2049590198211502),
         (1.1, 0.0, SpreadQuad(1e-7), 3.637891160003733),
         (0.1, 0.0, SpreadQuad(1e-5), 0.2987487361148003),
         (1.1, 0.9, LinearDemand(1.0, 1e-7), 1.0602954257301171),
         (1.1, 0.0, LinearDemand(100.0, 1e-6), 3.700904508348759)],
    )
    def test_tail_roots_match_mpmath(self, sigma, rho, fees, exact):
        # roots deep in the Gaussian tail, pinned from 60-digit mpmath
        root = solve_degenerate(MarketParams(sigma, sigma, rho), fees)
        assert root == pytest.approx(exact, rel=1e-14)


class TestBestResponse:
    def test_degenerate_root_is_fixed_point(self):
        p = MarketParams(1.1, 1.1, 0.0)
        fees = SpreadQuad(0.0967)
        root = solve_degenerate(p, fees)
        delta = Strategy(np.array([1.1]), np.array([root]))
        br = best_response(delta, p, fees, FAST)
        assert br.values[0] == pytest.approx(root, abs=1e-8)

    def test_huge_gamma_pins_response_near_zero(self, main_params):
        fees = SpreadQuad(1e3)
        delta = Strategy.constant(0.1, main_params, FAST.grid_n)
        br = best_response(delta, main_params, fees, FAST)
        assert br.max_value() <= 1e-3

    def test_grid_refinement_stability(self, main_params):
        fees = SpreadQuad(2.0)
        coarse = Strategy.constant(0.06, main_params, 101)
        fine = Strategy.constant(0.06, main_params, 201)
        br_c = best_response(coarse, main_params, fees, SolverConfig())
        br_f = best_response(fine, main_params, fees, SolverConfig(grid_n=201))
        # compare on the shared sigma points (every other fine point)
        gap = np.max(np.abs(br_f.values[::2] - br_c.values))
        assert gap <= 1e-6

    def test_rho_assumption_enforced(self):
        p = MarketParams(0.1, 1.1, 0.5)
        with pytest.raises(DomainError):
            best_response(Strategy.constant(0.1, p, 11), p, SpreadQuad(2.0), FAST)


class TestSolveFixedPoint:
    def test_main_market_converges_monotone(self, main_params, solved_gamma2):
        rep = solved_gamma2
        assert rep.converged and rep.residual <= 1e-6
        assert bool(np.all(np.diff(rep.strategy.values) >= 0.0))
        assert rep.concavity_ok

    def test_strategies_shrink_with_fees(self, main_params):
        reps = {
            g: solve_fixed_point(main_params, SpreadQuad(g), FAST) for g in (2.0, 3.0)
        }
        assert all(r.converged for r in reps.values())
        assert np.all(reps[3.0].strategy.values <= reps[2.0].strategy.values + 1e-12)

    def test_degenerate_matches_scalar_root(self):
        p = MarketParams(1.1, 1.1, 0.0)
        fees = SpreadQuad(0.1)
        rep = solve_fixed_point(p, fees, FAST)
        root = solve_degenerate(p, fees)
        assert rep.converged
        assert rep.strategy.values[0] == pytest.approx(root, abs=1e-7)

    def test_near_degenerate_matches_scalar_root(self):
        fees = SpreadQuad(0.1)
        p = MarketParams(1.1 - 1e-6, 1.1, 0.0)
        rep = solve_fixed_point(p, fees, FAST)
        root = solve_degenerate(MarketParams(1.1, 1.1, 0.0), fees)
        assert rep.converged
        assert float(np.max(np.abs(rep.strategy.values - root))) <= 1e-5

    def test_residual_stable_under_quadrature_refinement(self, main_params, solved_gamma2):
        # recompute the best response with a doubled-order rule: the
        # reported residual may inflate by at most 10x
        cfg = replace(SolverConfig(), quad_n=128)
        br = best_response(solved_gamma2.strategy, main_params, SpreadQuad(2.0), cfg)
        res = float(np.max(np.abs(br.values - solved_gamma2.strategy.values)))
        assert res <= 10.0 * max(solved_gamma2.residual, SolverConfig().tol)

    def test_wrong_scheme_rejected(self, main_params):
        with pytest.raises(WrongScheme):
            solve_fixed_point(main_params, NoFee(), FAST)
        with pytest.raises(WrongScheme):
            solve_fixed_point(main_params, MidQuad(2.0), FAST)
        with pytest.raises(WrongScheme):
            solve_fixed_point(main_params, LinearDemand(1.0, 0.0), FAST)

    def test_linear_demand_fixed_point(self, main_params):
        rep = solve_fixed_point(main_params, LinearDemand(1.0, 1.0), FAST)
        assert rep.converged
        assert rep.strategy.max_value() < 0.2


class TestExistenceBound:
    def test_reference_values(self, main_params):
        c, gamma_min = existence_bound(main_params, SpreadQuad(2.0))
        assert c == pytest.approx(4.2973340293105098e-3, rel=1e-12)
        assert gamma_min == pytest.approx(30.434157886691928, rel=1e-12)

    def test_rho_zero_simplification(self, main_params):
        # C = 2 lam A sigma_minus^2/(sigma_plus sqrt2), A = 1/(1-(sm/sp)^2)
        sm, sp = main_params.sigma_minus, main_params.sigma_plus
        a = 1.0 / (1.0 - (sm / sp) ** 2)
        lam = 1.0 / (2.0 * a + 1.0)
        c, _ = existence_bound(main_params, SpreadQuad(2.0))
        assert c == pytest.approx(2 * lam * a * sm * sm / (sp * math.sqrt(2)), rel=1e-12)

    def test_linear_demand_threshold_constant(self, main_params):
        _, gamma_min = existence_bound(main_params, LinearDemand(1.0, 1.0))
        z = math.sqrt(2.0)
        assert gamma_min == pytest.approx(
            0.5 * (z * norm_pdf(z) - (1.0 - norm_cdf(z))), rel=1e-14
        )
        assert gamma_min == pytest.approx(0.5 * 0.12890414518515479, abs=1e-9)

    @pytest.mark.parametrize("rho", [0.0, 0.05, 0.0909])
    @pytest.mark.parametrize("gamma", [0.01, 0.05, 0.3, 1.0])
    @pytest.mark.parametrize("kbar", [0.5, 1.0, 3.0])
    def test_linear_demand_has_no_maximum_past_c(self, kbar, gamma, rho):
        # Q >= 0 under rho <= sigma_minus/sigma_plus, so for x, d >= 0
        # h'(x) <= (kbar/2) Phi'(0) avg[S Q] - 2 gamma x, and C is where
        # that bound's largest value over the rows meets 0: h' < 0 past C
        # at every row, against any strategy
        params, fees = MarketParams(0.1, 1.1, rho), LinearDemand(kbar, gamma)
        c, _ = existence_bound(params, fees)
        rows = np.linspace(0.1, 1.1, 101)
        nodes, w = rule = default_rule(params, SolverConfig.quad_n)
        q = q_rho(rows[:, None], nodes, rho)
        assert np.all(q >= 0.0)
        slope_at_zero = 0.5 * kbar * norm_pdf(0.0) * ((sigma_rho(rows[:, None], nodes, rho) * q) @ w)
        assert np.all(slope_at_zero <= 2.0 * gamma * c * (1.0 + 1e-12))
        xs = c * np.linspace(1.0, 10.0, 91)[:, None]
        for value in (0.0, c, 3.0 * c):
            ctx = PayoffContext(rows, Strategy.constant(value, params, 11), params, fees, rule)
            (d1,) = payoff_terms(xs, ctx, (1,))
            assert np.all(d1 <= slope_at_zero - 2.0 * gamma * xs)
            assert np.max(d1) < 0.0

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateCase):
            existence_bound(MarketParams(1.1, 1.1, 0.0), SpreadQuad(1.0))

    def test_rho_at_its_bound_certifies_no_gamma(self):
        # rho = sigma_minus/sigma_plus makes C = 0: no finite gamma_min, and
        # no division by zero (a RuntimeWarning is an error here)
        params, fees = MarketParams(1.0, 2.0, 0.5), SpreadQuad(1.0)
        assert existence_bound(params, fees, quad_n=4) == (0.0, math.inf)
        assert solve_fixed_point(params, fees, SolverConfig(quad_n=4)).converged


class TestNoNeCertificate:
    def test_zero_strategy_quarter(self, main_params):
        cert = no_ne_certificate(Strategy.constant(0.0, main_params, 31), main_params)
        assert abs(cert - 0.25) <= 1e-10

    def test_bounded_strategy_lower_bound(self, main_params):
        m = 0.8
        cert = no_ne_certificate(Strategy.constant(m, main_params, 31), main_params)
        sig_min = math.sqrt(2.0) * main_params.sigma_minus
        assert cert >= 0.5 * (1.0 - norm_cdf(2.0 * m / sig_min))
        assert cert > 0.0

    def test_solved_strategy_in_open_interval(self, main_params, solved_gamma2):
        cert = no_ne_certificate(solved_gamma2.strategy, main_params)
        assert 0.0 < cert < 0.25

    def test_far_tail_stays_positive(self, main_params):
        # 1 - Phi(u) cancels to exactly 0 here; Phi(-u) keeps ~3.3e-42
        cert = no_ne_certificate(Strategy.constant(10.0, main_params, 31), main_params)
        assert cert > 0.0

    @pytest.mark.parametrize("value", [0.0, 0.3, 5.0, 10.0])
    def test_half_the_trade_probability(self, main_params, value):
        delta = Strategy.constant(value, main_params, 31)
        rule = default_rule(main_params, SolverConfig.quad_n)
        half_trade = 0.5 * analytic_stats(delta, main_params, rule).trade_prob
        cert = no_ne_certificate(delta, main_params)
        assert cert == pytest.approx(half_trade, rel=1e-12, abs=0.0)


class TestVerifyNe:
    def test_solved_equilibrium_has_no_profitable_deviation(
        self, main_params, solved_gamma2
    ):
        gain = verify_ne(solved_gamma2.strategy, main_params, SpreadQuad(2.0))
        assert gain <= 1e-8

    def test_degenerate_closed_form(self):
        p = MarketParams(1.1, 1.1, 0.0)
        fees = SpreadQuad(0.1)
        root = solve_degenerate(p, fees)
        delta = Strategy(np.array([1.1]), np.array([root]))
        assert verify_ne(delta, p, fees) <= 1e-8

    def test_perturbed_strategy_gains(self):
        p = MarketParams(1.1, 1.1, 0.0)
        fees = SpreadQuad(0.1)
        root = solve_degenerate(p, fees)
        delta = Strategy(np.array([1.1]), np.array([root + 0.1]))
        assert verify_ne(delta, p, fees) > 1e-4

    def test_no_fee_always_gains(self, main_params, solved_gamma2):
        assert verify_ne(solved_gamma2.strategy, main_params, NoFee()) > 1e-4

    @staticmethod
    def per_point_gain(delta, params, fees, x_samples):
        """Reference: the largest gain over ``x_samples`` evenly spaced
        offsets, floored at 0, with one context and one kernel call per
        grid point."""
        hi = 3.0 * delta.max_value()
        xs = np.linspace(0.0, hi if hi > 0.0 else 1.0, x_samples)
        rule = default_rule(params, 64)
        worst = -math.inf
        for sa, held in zip(delta.grid, delta.values):
            ctx = PayoffContext(float(sa), delta, params, fees, rule)
            (vals,) = payoff_terms(np.append(xs, held), ctx, (0,))
            worst = max(worst, float(vals[:-1].max() - vals[-1]))
        return max(worst, 0.0)

    @pytest.mark.parametrize("x_samples", [16, 33])
    @pytest.mark.parametrize("fees", [SpreadQuad(2.0), SpreadQuad(0.13), MidQuad(0.5), NoFee(),
                                      LinearDemand(1.0, 0.3)], ids=repr)
    def test_gain_is_at_least_the_sampled_gain(self, fees, x_samples):
        # off-equilibrium strategies, and solved ones scaled off their
        # equilibrium; the supremum may come out one rounding below a
        # sampled value at the same offset
        market = MarketParams(0.1, 1.1, 0.02)
        cases = [(MarketParams(1.1, 1.1, 0.0), Strategy(np.array([1.1]), np.array([0.25])))]
        for n in (2, 11, 31, 101):
            grid = np.linspace(0.1, 1.1, n)
            cases.append((market, Strategy(grid, 0.03 + 0.1 * grid * grid)))
        main = MarketParams(0.1, 1.1, 0.0)
        for solved_fees in (SpreadQuad(2.0), SpreadQuad(0.13), LinearDemand(1.0, 0.3)):
            rows = solved(main, solved_fees).strategy
            for scale in (1.05, 1.001):
                cases.append((main, Strategy(rows.grid, scale * rows.values)))
        for params, delta in cases:
            want = self.per_point_gain(delta, params, fees, 256)
            assert verify_ne(delta, params, fees, x_samples) >= want - 1e-15

    @pytest.mark.parametrize("fees", [SpreadQuad(2.0), SpreadQuad(0.13), LinearDemand(1.0, 0.3)],
                             ids=repr)
    def test_converged_solves_gain_at_rounding_level(self, main_params, fees):
        assert 0.0 <= verify_ne(solved(main_params, fees).strategy, main_params, fees) <= 1e-12

    @pytest.mark.parametrize("x_samples", [16, 33])
    @pytest.mark.parametrize("p1, m, p2", [(0.15, 0.4, 0.75), (0.15, 0.5, 0.75)],
                             ids=["right_peak_higher", "left_peak_higher"])
    def test_two_peaks(self, main_params, p1, m, p2, x_samples, monkeypatch):
        # e'(x) = -sigma_a (x - p1)(x - m)(x - p2): local maxima at p1 and p2
        # and a minimum at m, each in its own scan interval on [0, 0.9] and
        # on no scan point, so only a Newton peak meets the analytic gain
        c3, c2, c1 = p1 + m + p2, p1 * m + p1 * p2 + m * p2, p1 * m * p2

        def quartic(x):
            return -(x**4 / 4 - c3 * x**3 / 3 + c2 * x**2 / 2 - c1 * x)

        def fake_terms(x, ctx, orders):
            x = np.asarray(x, dtype=float)
            terms = {0: quartic(x), 1: -((x - p1) * (x - m) * (x - p2)),
                     2: -(3 * x * x - 2 * c3 * x + c2)}
            return [ctx.sigma_a * terms[k] for k in orders]

        monkeypatch.setattr(equilibrium, "payoff_terms", fake_terms)
        monkeypatch.setattr(equilibrium, "second_deriv_bound", no_row_certified)
        delta = Strategy.constant(0.3, main_params, 11)
        xs = np.linspace(0.0, 0.9, x_samples)
        assert len({np.searchsorted(xs, p) for p in (p1, m, p2)}) == 3
        assert abs(quartic(p1) - quartic(p2)) > 1e-3
        want = main_params.sigma_plus * (max(quartic(p1), quartic(p2)) - quartic(0.3))
        got = verify_ne(delta, main_params, SpreadQuad(2.0), x_samples)
        assert got == pytest.approx(want, rel=0.0, abs=1e-12)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data())
    def test_newton_sup_is_the_scanned_sup(self, data):
        # a random market with rho within its bound, the spread penalty or
        # half-linear demand, and a converged solve's rows: as solved, each
        # moved by up to 1e-3, or all scaled, which puts some suprema at an
        # end of [0, 3 max delta]; the real bound proves rows concave and
        # takes their supremum by Newton, the faked one scans every row
        sm = data.draw(st.floats(0.05, 1.5))
        sp = sm + data.draw(st.floats(0.05, 2.0))
        params = MarketParams(sm, sp, data.draw(st.floats(0.0, 1.0)) * sm / sp)
        gamma = data.draw(st.floats(0.05, 3.0))
        fees = data.draw(st.sampled_from(
            [SpreadQuad(gamma), LinearDemand(data.draw(st.floats(0.2, 2.0)), gamma)]))
        cfg = SolverConfig(grid_n=data.draw(st.integers(2, 60)), quad_n=data.draw(st.integers(4, 40)))
        delta = solve_fixed_point(params, fees, cfg).strategy
        how = data.draw(st.sampled_from(["solved", "moved", "scaled"]))
        if how == "moved":
            moves = data.draw(st.lists(st.floats(-1e-3, 1e-3), min_size=delta.grid.size,
                                       max_size=delta.grid.size))
            delta = Strategy(delta.grid, np.maximum(delta.values + moves, 0.0))
        elif how == "scaled":
            delta = Strategy(delta.grid, data.draw(st.floats(0.05, 2.0)) * delta.values)
        got = verify_ne(delta, params, fees, quad_n=cfg.quad_n)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(equilibrium, "second_deriv_bound", no_row_certified)
            scanned = verify_ne(delta, params, fees, quad_n=cfg.quad_n)
        assert got >= 0.0 and scanned >= 0.0
        assert got == pytest.approx(scanned, rel=0.0, abs=1e-15)

    @staticmethod
    def kernel_calls(monkeypatch):
        """Spy on ``equilibrium.payoff_terms``: a list that gains, per call,
        the offsets' shape, the context's sigma_a and its kernel values."""
        calls, real = [], equilibrium.payoff_terms

        def spy(x, ctx, orders):
            values = np.broadcast(np.asarray(x)[..., None], ctx.sig).size
            calls.append((np.shape(x), ctx.sigma_a, values))
            return real(x, ctx, orders)

        monkeypatch.setattr(equilibrium, "payoff_terms", spy)
        return calls

    @pytest.mark.parametrize("fees", [SpreadQuad(2.0), LinearDemand(1.0, 0.35)], ids=repr)
    def test_proven_rows_take_no_scan(self, main_params, fees, monkeypatch):
        # every row of these solves is proven concave, so every call holds
        # one offset per row: the held offsets, then the Newton iterates
        delta = solved(main_params, fees).strategy
        calls = self.kernel_calls(monkeypatch)
        verify_ne(delta, main_params, fees)
        assert calls and all(shape == np.shape(sigma_a) for shape, sigma_a, _ in calls)
        assert sum(values for _, _, values in calls) <= 6 * 101 * 64

    def test_only_unproven_rows_are_scanned(self, main_params, monkeypatch):
        fees = SpreadQuad(0.05)
        delta = solved(main_params, fees).strategy
        ctx = PayoffContext(delta.grid, delta, main_params, fees,
                            default_rule(main_params, SolverConfig.quad_n))
        bound = second_deriv_bound(ctx, 3.0 * delta.max_value())
        unproven = delta.grid[bound >= 0.0]
        assert 0 < unproven.size < delta.grid.size
        calls = self.kernel_calls(monkeypatch)
        verify_ne(delta, main_params, fees, x_samples=33)
        # a scan call takes a block of offsets, of shape (offsets, 1),
        # against every scanned row; its blocks cover the 33 offsets once
        scans = [(shape, sigma_a) for shape, sigma_a, _ in calls if len(shape) == 2]
        assert sum(shape[0] for shape, _ in scans) == 33
        assert all(np.array_equal(sigma_a, unproven) for _, sigma_a in scans)

    def test_scan_memory_is_one_block_at_a_time(self, main_params, monkeypatch):
        # at 4096 scan points a kernel call takes a block of offsets on all
        # 11 rows, at most _BLOCK_ELEMENTS values, so the peak stays below
        # the kernel's four (4096, 64) arrays of one row; a call on every
        # offset would hold 44 such arrays
        monkeypatch.setattr(equilibrium, "second_deriv_bound", no_row_certified)
        grid = np.linspace(0.1, 1.1, 11)
        delta = Strategy(grid, 0.03 + 0.1 * grid * grid)
        one_row = 4096 * 64 * 8
        tracemalloc.start()
        try:
            verify_ne(delta, main_params, SpreadQuad(2.0), x_samples=4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * one_row


def scalar_best_response(delta, params, fees, quad_n=64):
    """Per-point reference: brentq on the scalar payoff derivative."""
    rule = default_rule(params, quad_n)
    out = []
    for sa in delta.grid:
        ctx = PayoffContext(float(sa), delta, params, fees, rule)
        f = lambda x: payoff_deriv(x, ctx)
        if f(0.0) <= 0.0:
            out.append(0.0)
            continue
        hi = 1.0
        while f(hi) >= 0.0:
            hi *= 2.0
        out.append(scipy.optimize.brentq(f, 0.0, hi, xtol=1e-15, rtol=1e-15))
    return np.array(out)


def no_row_certified(ctx, hi):
    """What ``payoff.second_deriv_bound`` says of a faked e'': it reads the
    real context, so it proves no row, and every row is sampled."""
    return np.zeros(np.shape(ctx.sigma_a))


class TestBatchedBestResponse:
    @pytest.mark.parametrize(
        "params",
        [MarketParams(0.1, 1.1, 0.0), MarketParams(0.1, 1.1, 0.03), MarketParams(1.1 - 1e-6, 1.1, 0.0)],
        ids=["rho0", "rho0.03", "near_degenerate"],
    )
    @pytest.mark.parametrize(
        "fees", [SpreadQuad(2.0), LinearDemand(1.0, 0.3)], ids=["spread_quad", "linear_demand"]
    )
    def test_matches_scalar_roots(self, params, fees):
        grid = np.linspace(params.sigma_minus, params.sigma_plus, 41)
        delta = Strategy(grid, 0.02 + 0.05 * grid)
        br = best_response(delta, params, fees, FAST)
        assert np.max(np.abs(br.values - scalar_best_response(delta, params, fees))) <= 1e-9

    def test_no_fee_flat_derivative_is_bracket_failure(self, main_params, monkeypatch):
        # against a strategy this wide every Phi and Phi' term underflows, so
        # both unpenalized derivatives are exactly zero: the 0/0 Newton step
        # at the start raises a typed error after one kernel call, and
        # never returns NaN
        calls, real = [], equilibrium.payoff_terms

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(equilibrium, "payoff_terms", counted)
        delta = Strategy.constant(100.0, main_params, 11)
        with pytest.raises(NoConvergence):
            best_response(delta, main_params, NoFee(), FAST)
        assert len(calls) == 1

    @staticmethod
    def three_roots(monkeypatch):
        """Fake e' = (0.2 - x)(0.5 - x)(0.8 - x) at every grid point; the
        node system keeps the real cross term."""
        real = equilibrium.payoff_terms

        def fake_terms(x, ctx, orders, cross=False):
            x = np.asarray(x, dtype=float)
            d1 = (0.2 - x) * (0.5 - x) * (0.8 - x)
            d2 = -((0.5 - x) * (0.8 - x) + (0.2 - x) * (0.8 - x) + (0.2 - x) * (0.5 - x))
            extra = real(x, ctx, (1,), cross=True)[1:] if cross else []
            return [{1: d1, 2: d2}[k] for k in orders] + extra

        monkeypatch.setattr(equilibrium, "payoff_terms", fake_terms)

    @pytest.mark.parametrize("start, root", [(0.35, 0.8), (0.45, 0.5), (0.65, 0.2)])
    def test_non_concave_starts_reach_a_root(self, main_params, start, root, monkeypatch):
        # e'' > 0 at each start: from 0.35 and 0.65 the Newton point leaves
        # the one bracket end that e' there gives, and a midpoint with the
        # other end unknown would be NaN; from 0.45 Newton overshoots 0.5,
        # and the two known ends then bisect onto it
        self.three_roots(monkeypatch)
        delta = Strategy.constant(start, main_params, 11)
        br = best_response(delta, main_params, SpreadQuad(2.0), FAST)
        assert np.max(np.abs(br.values - root)) <= 1e-9

    def test_two_crossings_are_non_concave(self, main_params, monkeypatch):
        # with e' = (0.2 - x)(0.5 - x)(0.8 - x) the best response stops at the
        # first root, the final check flags it
        self.three_roots(monkeypatch)
        monkeypatch.setattr(equilibrium, "second_deriv_bound", no_row_certified)
        delta = Strategy.constant(0.1, main_params, 11)
        br = best_response(delta, main_params, SpreadQuad(2.0), FAST)
        assert np.max(np.abs(br.values - 0.2)) <= 1e-9
        rep = solve_fixed_point(main_params, SpreadQuad(2.0), FAST)
        assert not rep.converged
        assert not rep.concavity_ok

    def test_non_concave_kernel_flags_the_solve(self, main_params, monkeypatch):
        # e'' turns positive past x = 0.1, above every offset the solve plays
        # (max delta is 0.06) but inside the checked 3 max delta
        real = equilibrium.payoff_terms

        def bumped(x, ctx, orders, cross=False):
            terms = real(x, ctx, orders, cross)
            bump = 10.0 * (np.asarray(x) > 0.1)
            return [t + bump if k == 2 else t for k, t in zip(orders, terms)] + terms[len(orders):]

        monkeypatch.setattr(equilibrium, "payoff_terms", bumped)
        monkeypatch.setattr(equilibrium, "second_deriv_bound", no_row_certified)
        rep = solve_fixed_point(main_params, SpreadQuad(2.0), FAST)
        assert rep.residual <= FAST.tol
        assert not rep.converged
        assert not rep.concavity_ok

    def test_concavity_check_covers_the_played_offsets(self, main_params, monkeypatch):
        # e'' = x - 0.1 is negative on (0, bound_C) but not up to 3 * 0.3
        def fake_terms(x, ctx, orders):
            return [np.asarray(x, dtype=float) - 0.1 for _ in orders]

        monkeypatch.setattr(equilibrium, "payoff_terms", fake_terms)
        monkeypatch.setattr(equilibrium, "second_deriv_bound", no_row_certified)
        delta = Strategy.constant(0.3, main_params, 11)
        ctx = PayoffContext(delta.grid, delta, main_params, SpreadQuad(2.0),
                            default_rule(main_params, SolverConfig.quad_n))
        assert not equilibrium._concavity_ok(delta, ctx, bound_c=0.0043)

    @pytest.mark.parametrize("where, kernel_calls", [("first", 1), ("last", 10), (None, 10)])
    def test_concavity_scan_stops_at_the_first_non_concave_block(
        self, main_params, where, kernel_calls, monkeypatch
    ):
        # 50 offsets up to hi = 3 * 0.3, the block cap set to 5 offsets on
        # the 11 rows; e'' is positive only at the first offset, only at
        # the last one, or nowhere
        delta = Strategy.constant(0.3, main_params, 11)
        monkeypatch.setattr(equilibrium, "_BLOCK_ELEMENTS", 5 * 11 * SolverConfig.quad_n)
        hi = 3.0 * delta.max_value()
        step = hi / 50
        calls = []

        def fake_terms(x, ctx, orders):
            calls.append(np.shape(x))
            x = np.asarray(x, dtype=float)
            bump = {"first": x < 1.5 * step, "last": x > hi - 0.5 * step, None: x < 0.0}[where]
            return [np.where(bump, 1.0, -1.0) for _ in orders]

        monkeypatch.setattr(equilibrium, "payoff_terms", fake_terms)
        monkeypatch.setattr(equilibrium, "second_deriv_bound", no_row_certified)
        ctx = PayoffContext(delta.grid, delta, main_params, SpreadQuad(2.0),
                            default_rule(main_params, SolverConfig.quad_n))
        assert equilibrium._concavity_ok(delta, ctx, bound_c=0.0043) is (where is None)
        assert calls == [(5, 1)] * kernel_calls

    @pytest.mark.parametrize(
        "fees", [SpreadQuad(2.0), LinearDemand(1.0, 0.3)], ids=["spread_quad", "linear_demand"]
    )
    def test_kernel_calls_per_newton_step(self, main_params, fees, monkeypatch):
        # a cold solve builds three contexts: the coarse and the fine node
        # contexts, each re-pointed at each evaluation of its level, and one
        # output-row context that the row best response and the concavity
        # check share; each node level makes one kernel call per evaluation
        # of G and J (no halvings here), which returns the cross term,
        # computed nowhere else; the closed-form bound proves every row of
        # the default market concave, so the check samples no offset block;
        # verify_ne builds one context at any thread count and starts no
        # worker
        calls = {"ctx": 0, "kernel": 0, "cross": 0, "concavity": None}
        kernel_at_ctx, evaluations = [], []
        real_init = PayoffContext.__post_init__
        real_terms, real_cross = equilibrium.payoff_terms, payoff._cross_term
        real_concavity, real_newton = equilibrium._concavity_ok, equilibrium._newton

        def counted_init(self, *args):
            calls["ctx"] += 1
            kernel_at_ctx.append(calls["kernel"])
            real_init(self, *args)

        def counted_terms(*args, **kwargs):
            calls["kernel"] += 1
            return real_terms(*args, **kwargs)

        def counted_cross(*args, **kwargs):
            calls["cross"] += 1
            return real_cross(*args, **kwargs)

        def counted_concavity(*args, **kwargs):
            before = calls["kernel"]
            ok = real_concavity(*args, **kwargs)
            calls["concavity"] = calls["kernel"] - before
            return ok

        def counted_newton(*args):
            out = real_newton(*args)
            evaluations.append(out[2])
            return out

        monkeypatch.setattr(PayoffContext, "__post_init__", counted_init)
        monkeypatch.setattr(equilibrium, "payoff_terms", counted_terms)
        monkeypatch.setattr(payoff, "_cross_term", counted_cross)
        monkeypatch.setattr(equilibrium, "_concavity_ok", counted_concavity)
        monkeypatch.setattr(equilibrium, "_newton", counted_newton)
        rep = solve_fixed_point(main_params, fees, SolverConfig())
        assert rep.converged and calls["ctx"] == 3
        coarse, fine = evaluations
        assert fine == rep.iterations
        assert kernel_at_ctx == [0, coarse, coarse + fine]
        assert calls["cross"] == coarse + fine
        assert calls["concavity"] == 0

        def no_workers(*args, **kwargs):
            raise AssertionError("verify_ne called map_ordered")

        monkeypatch.setattr(parallel, "map_ordered", no_workers)
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("AEL_THREADS", threads)
            calls["ctx"] = 0
            verify_ne(rep.strategy, main_params, fees)
            assert calls["ctx"] == 1


@lru_cache(maxsize=None)
def solved(params, fees, tol=SolverConfig.tol):
    return solve_fixed_point(params, fees, SolverConfig(tol=tol))


def plain_start(params, fees, nodes):
    """The degenerate-market root at each of ``nodes``, where a cold solve
    starts the node values of its coarse level, or of its fine level when
    the coarse one is skipped or fails."""
    return equilibrium._degenerate_root(fees, nodes, params.rho)


def plain_solve(params, fees, cfg=SolverConfig()):
    """The solve from the plain start on the fine nodes, given as ``init``,
    so no coarse level runs."""
    nodes, _ = default_rule(params, cfg.quad_n)
    return solve_fixed_point(params, fees, cfg,
                             init=Strategy(nodes, plain_start(params, fees, nodes)))


def report_bytes(rep):
    """Every field of an ``EquilibriumReport``, arrays as bytes."""
    return (rep.nodes.grid.tobytes(), rep.nodes.values.tobytes(), rep.strategy.grid.tobytes(),
            rep.strategy.values.tobytes(), rep.residual, rep.iterations, rep.converged,
            rep.concavity_ok)


SOLVER_CASES = pytest.mark.parametrize(
    "params, fees",
    [(MarketParams(0.1, 1.1, 0.0), SpreadQuad(2.0)),
     (MarketParams(0.1, 1.1, 0.0), LinearDemand(1.0, 0.3)),
     (MarketParams(0.1, 1.1, 0.0), SpreadQuad(0.13)),
     (MarketParams(1.1 - 1e-6, 1.1, 0.0), SpreadQuad(2.0))],
    ids=["spread_quad", "linear_demand", "spread_quad_low_gamma", "near_degenerate"],
)


def node_system(x, params, fees, quad_n=64):
    """G and the analytic J of the node equations at node values ``x``."""
    rule = nodes, _ = default_rule(params, quad_n)
    ctx = PayoffContext(nodes, Strategy(nodes, x), params, fees, rule)
    g, d2, cross = payoff_terms(x, ctx, (1, 2), cross=True)
    return g, cross * ctx.w + np.diag(d2)


class TestNewtonSolve:
    @SOLVER_CASES
    def test_residual_is_the_node_correction(self, params, fees):
        rep = solved(params, fees)
        assert rep.converged
        assert np.array_equal(rep.nodes.grid, default_rule(params, SolverConfig.quad_n)[0])
        g, jac = node_system(rep.nodes.values, params, fees)
        assert rep.residual == pytest.approx(float(np.max(np.abs(np.linalg.solve(jac, g)))),
                                             rel=1e-12)
        # the rows are the best response to the nodes: each row's Newton
        # step against them is within the argmax tolerance, so the rows
        # agree with a best response started elsewhere to twice that
        rows = rep.strategy
        ctx = PayoffContext(rows.grid, rep.nodes, params, fees,
                            default_rule(params, SolverConfig.quad_n))
        d1, d2 = payoff_terms(rows.values, ctx, (1, 2))
        assert np.max(np.abs(np.maximum(rows.values - d1 / d2, 0.0) - rows.values)) <= ARGMAX_TOL
        again = best_response(rep.nodes, params, fees, SolverConfig())
        assert np.max(np.abs(again.values - rows.values)) <= 2.0 * ARGMAX_TOL

    @SOLVER_CASES
    def test_residual_measures_the_node_error(self, params, fees):
        # the correction is the distance in delta to a tol = 1e-15 solve
        rep, exact = solved(params, fees), solved(params, fees, 1e-15)
        err = float(np.max(np.abs(rep.nodes.values - exact.nodes.values)))
        assert 0.5 * rep.residual <= err <= 2.0 * rep.residual

    @pytest.mark.parametrize(
        "fees", [SpreadQuad(2.0), SpreadQuad(0.13), LinearDemand(1.0, 0.3)],
        ids=["spread_quad", "spread_quad_low_gamma", "linear_demand"],
    )
    def test_resolve_from_own_nodes_is_one_evaluation(self, main_params, fees):
        rep = solved(main_params, fees)
        again = solve_fixed_point(main_params, fees, SolverConfig(), init=rep.nodes)
        assert again.converged and again.iterations == 1
        assert np.array_equal(again.nodes.values, rep.nodes.values)
        assert np.array_equal(again.strategy.values, rep.strategy.values)

    def test_warm_start_from_a_coarser_node_set(self, main_params):
        # 16 nodes span less of the sigma interval than 64; init is read
        # flat past its outer nodes
        fees = SpreadQuad(2.0)
        coarse = solve_fixed_point(main_params, fees, SolverConfig(quad_n=16))
        rep = solve_fixed_point(main_params, fees, SolverConfig(), init=coarse.nodes)
        gap = np.max(np.abs(rep.nodes.values - solved(main_params, fees).nodes.values))
        assert rep.converged and gap <= 2.0 * SolverConfig.tol

    @SOLVER_CASES
    @pytest.mark.parametrize("rho", [0.0, 0.03])
    def test_concavity_verdict_against_nodes_matches_rows(self, params, fees, rho):
        # the node strategy and its published rows give the same worst e''
        # over the offsets _concavity_ok samples
        params = replace(params, rho=rho)
        rep = solved(params, fees)
        c, _ = existence_bound(params, fees)
        offsets = np.linspace(0.0, max(c, 3.0 * rep.strategy.max_value()), 51)[1:, None]

        def worst_d2(opponent):
            ctx = PayoffContext(rep.strategy.grid, opponent, params, fees,
                                default_rule(params, SolverConfig.quad_n))
            return float(np.max(payoff_terms(offsets, ctx, (2,))[0]))

        at_nodes, at_rows = worst_d2(rep.nodes), worst_d2(rep.strategy)
        assert rep.concavity_ok and at_nodes < 0.0 and at_rows < 0.0
        assert at_nodes == pytest.approx(at_rows, rel=1e-3)

    @SOLVER_CASES
    def test_within_two_tol_of_a_tight_solve(self, params, fees):
        rep, tight = solved(params, fees), solved(params, fees, 1e-11)
        assert rep.converged and tight.converged
        gap = np.max(np.abs(rep.strategy.values - tight.strategy.values))
        assert gap <= 2.0 * SolverConfig.tol

    @pytest.mark.parametrize("rho", [0.0, 0.03])
    @pytest.mark.parametrize("fees", [SpreadQuad(2.0), LinearDemand(1.0, 0.3)],
                             ids=["spread_quad", "linear_demand"])
    def test_jacobian_matches_fd(self, fees, rho):
        params = MarketParams(0.1, 1.1, rho)
        nodes, _ = default_rule(params, 16)
        x = 0.02 + 0.05 * nodes
        _, jac = node_system(x, params, fees, 16)
        h = 1e-6
        fd = np.column_stack([
            (node_system(x + h * e, params, fees, 16)[0]
             - node_system(x - h * e, params, fees, 16)[0]) / (2.0 * h)
            for e in np.eye(x.size)
        ])
        assert np.max(np.abs(jac - fd)) <= 1e-7 * np.max(np.abs(jac))

    @pytest.mark.parametrize(
        "params, fees, start",
        [(MarketParams(0.1, 1.1, 0.0), SpreadQuad(2.0), None),
         (MarketParams(0.1, 1.1, 0.0), SpreadQuad(0.13), None),
         (MarketParams(0.1, 1.1, 0.0), LinearDemand(1.0, 0.3), 0.0),
         (MarketParams(0.1, 1.1, 0.05), LinearDemand(1.0, 0.2), None)],
        ids=["spread_quad", "spread_quad_low_gamma", "linear_demand", "linear_demand_rho"],
    )
    def test_convergence_is_quadratic(self, params, fees, start):
        # residuals of max_iter = 1, 2, ... solves, down to the rounding
        # floor; the cold start of LinearDemand(1, 0.3) is two steps from
        # that floor, so it starts from 0 instead
        init = None if start is None else Strategy.constant(start, params, 2)
        residuals = [solve_fixed_point(params, fees, SolverConfig(tol=1e-15, max_iter=k),
                                       init=init).residual
                     for k in range(1, 9)]
        pairs = [(a, b) for a, b in zip(residuals, residuals[1:]) if a <= 2e-2 and b > 1e-15]
        assert len(pairs) >= 2
        assert all(b <= 10.0 * a * a for a, b in pairs)

    @pytest.mark.parametrize("fees", [SpreadQuad(2.0), LinearDemand(1.0, 0.3)],
                             ids=["spread_quad", "linear_demand"])
    def test_newton_step_counts(self, main_params, fees):
        # the evaluations on the 64 fine nodes, after the 16-node coarse solve
        rep = solve_fixed_point(main_params, fees, SolverConfig())
        assert rep.converged and rep.iterations == 1

    @pytest.mark.parametrize("fees", [SpreadQuad(0.1), LinearDemand(1.0, 0.3)],
                             ids=["spread_quad", "linear_demand"])
    def test_degenerate_market_from_twice_the_root(self, fees):
        # one unit-weight node: the Newton solve against the closed form
        params = MarketParams(1.1, 1.1, 0.0)
        root = equilibrium._degenerate_root(fees, 1.1, 0.0)
        init = Strategy(np.array([1.1]), np.array([2.0 * root]))
        rep = solve_fixed_point(params, fees, SolverConfig(tol=1e-12), init=init)
        assert rep.converged and rep.iterations > 2
        assert abs(rep.strategy.values[0] - root) <= 1e-14

    def test_halving_keeps_the_iterate_nonnegative(self):
        # G = atan(x - 10): plain Newton from 14 overshoots to -8.5 and
        # diverges; the half step lands at 2.7, where |G| grew, so the
        # quarter step is taken, and every evaluated x stays >= 0
        seen = []

        def system(x):
            seen.append(x)
            g = np.arctan(x - 10.0)
            return g, g * (1.0 + (x - 10.0) ** 2)

        x, residual, iterations, _ = equilibrium._newton(system, np.array([14.0]), 1e-12, 50)
        assert residual <= 1e-12 and abs(x[0] - 10.0) <= 1e-12
        assert len(seen) > iterations and all(v[0] >= 0.0 for v in seen)

    @pytest.mark.parametrize("rho", [0.0, 0.03])
    @pytest.mark.parametrize(
        "fees", [SpreadQuad(2.0), SpreadQuad(0.13), LinearDemand(1.0, 0.3)],
        ids=["spread_quad", "spread_quad_low_gamma", "linear_demand"],
    )
    def test_repointed_node_context_matches_fresh_contexts(self, fees, rho):
        # oracle: the node system with a fresh context per evaluation, through
        # the same Newton loop, on the coarse nodes from their degenerate
        # roots, then on the fine nodes from the coarse solution's interpolant
        params = MarketParams(0.1, 1.1, rho)
        cfg = SolverConfig()

        def fresh_newton(quad_n, x):
            def fresh_system(x):
                g, jac = node_system(x, params, fees, quad_n)
                return g, np.linalg.solve(jac, g)

            return equilibrium._newton(fresh_system, x, cfg.tol, cfg.max_iter)

        coarse, _ = default_rule(params, cfg.quad_n // 4)
        x, residual, _, _ = fresh_newton(coarse.size, plain_start(params, fees, coarse))
        assert residual <= cfg.tol
        fine, _ = default_rule(params, cfg.quad_n)
        start = np.maximum(legendre_interpolate(coarse, x, fine), 0.0)
        x, residual, iterations, _ = fresh_newton(cfg.quad_n, start)
        rep = solve_fixed_point(params, fees, cfg)
        assert rep.nodes.values.tobytes() == x.tobytes()
        assert rep.residual == residual and rep.iterations == iterations


class TestCoarseStart:
    # a cold solve first solves the node system on quad_n // 4 nodes and
    # starts the fine Newton from that solution's interpolant

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(st.data())
    def test_a_bench_range_solve_is_one_fine_evaluation(self, data):
        # SpreadQuad gamma in [1.5, 3] or LinearDemand(1, gamma in [0.2,
        # 0.5]) on sigma in [0.1, 1.1], rho in [0, 0.05]: the interpolated
        # coarse solve is already within tol at the fine nodes, and the rows
        # are those of the solve from the plain start
        params = MarketParams(0.1, 1.1, data.draw(st.floats(0.0, 0.05)))
        fees = data.draw(st.one_of(st.floats(1.5, 3.0).map(SpreadQuad),
                                   st.floats(0.2, 0.5).map(lambda g: LinearDemand(1.0, g))))
        rep = solve_fixed_point(params, fees)
        assert rep.converged and rep.residual <= SolverConfig.tol and rep.iterations == 1
        plain = plain_solve(params, fees)
        assert plain.converged and plain.iterations > 1
        assert np.max(np.abs(rep.strategy.values - plain.strategy.values)) <= 1e-10

    @pytest.mark.parametrize("failure", ["raises", "above_tol"])
    @pytest.mark.parametrize("fees", [SpreadQuad(2.0), LinearDemand(1.0, 0.3)],
                             ids=["spread_quad", "linear_demand"])
    def test_a_failed_coarse_solve_leaves_the_plain_start(self, main_params, fees, failure,
                                                           monkeypatch):
        real_newton, coarse = equilibrium._newton, []

        def newton(system, x, tol, max_iter):
            if x.size == SolverConfig.quad_n:
                return real_newton(system, x, tol, max_iter)
            if failure == "raises":
                coarse.append(None)
                raise NoConvergence("planted coarse failure")
            out = real_newton(system, x, tol, 1)
            coarse.append(out[1])
            return out

        monkeypatch.setattr(equilibrium, "_newton", newton)
        rep = solve_fixed_point(main_params, fees)
        assert len(coarse) == 1
        if failure == "above_tol":
            assert coarse[0] > SolverConfig.tol
        monkeypatch.undo()
        assert report_bytes(rep) == report_bytes(plain_solve(main_params, fees))

    @pytest.mark.parametrize("rho", [0.0, 0.05])
    def test_low_gamma_cold_solves_reach_tol(self, rho):
        # from each node's own degenerate root the node solves converge down
        # to gamma = 1e-4; the concavity verdict on the rows stays false
        # there, and at gamma = 1e-5 the cold Newton still diverges
        params = MarketParams(0.1, 1.1, rho)
        for gamma in (1e-4, 1e-3):
            rep = solve_fixed_point(params, SpreadQuad(gamma))
            assert rep.residual <= SolverConfig.tol and not rep.converged
        assert solve_fixed_point(params, SpreadQuad(1e-5)).residual > SolverConfig.tol

    @pytest.mark.parametrize("case", ["init", "degenerate", "quad_n_31", "quad_n_16", "quad_n_32"])
    def test_where_no_coarse_rule_is_built(self, main_params, case, monkeypatch):
        # with init, on a degenerate market and below 8 coarse nodes the
        # solve builds its fine rule only; 32 fine nodes take 8 coarse ones
        fees, params, cfg, init = SpreadQuad(2.0), main_params, SolverConfig(), None
        if case == "init":
            init = solved(main_params, fees).nodes
        elif case == "degenerate":
            params = MarketParams(1.1, 1.1, 0.0)
        else:
            cfg = SolverConfig(quad_n=int(case.rsplit("_", 1)[1]))
        sizes, real_rule = [], equilibrium.default_rule

        def rule(params, n):
            sizes.append(n)
            return real_rule(params, n)

        monkeypatch.setattr(equilibrium, "default_rule", rule)
        rep = solve_fixed_point(params, fees, cfg, init=init)
        assert rep.converged
        assert set(sizes) == ({cfg.quad_n, 8} if case == "quad_n_32" else {cfg.quad_n})

    def test_a_solve_does_not_recurse(self, main_params, monkeypatch):
        # the coarse level is a node solve, not a nested solve_fixed_point:
        # no second row phase, concavity check, best response or verify_ne
        counts = dict.fromkeys(
            ["solve_fixed_point", "_concavity_ok", "_argmax_rows", "best_response", "verify_ne",
             "_newton"], 0)
        for name in counts:
            def counted(*args, _real=getattr(equilibrium, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(equilibrium, name, counted)
        assert equilibrium.solve_fixed_point(main_params, SpreadQuad(2.0)).converged
        assert counts == {"solve_fixed_point": 1, "_concavity_ok": 1, "_argmax_rows": 1,
                          "best_response": 0, "verify_ne": 0, "_newton": 2}


class TestSpectralRowStart:
    @staticmethod
    def row_kernel_calls(monkeypatch):
        """Count ``payoff_terms`` calls made inside ``_argmax_rows``."""
        calls, inside = [0], [False]
        real_terms, real_argmax = equilibrium.payoff_terms, equilibrium._argmax_rows

        def terms(*args, **kwargs):
            calls[0] += inside[0]
            return real_terms(*args, **kwargs)

        def argmax(*args, **kwargs):
            inside[0] = True
            try:
                return real_argmax(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(equilibrium, "payoff_terms", terms)
        monkeypatch.setattr(equilibrium, "_argmax_rows", argmax)
        return calls

    @pytest.mark.parametrize(
        "params, fees",
        [(MarketParams(0.1, 1.1, rho), fees)
         for rho in (0.0, 0.05)
         for fees in (SpreadQuad(1.5), SpreadQuad(3.0), LinearDemand(1.0, 0.2),
                      LinearDemand(1.0, 0.5))]
        + [(MarketParams(1.1 - 1e-6, 1.1, 0.0), SpreadQuad(2.0))],
        ids=repr,
    )
    def test_row_phase_is_one_kernel_call(self, params, fees, monkeypatch):
        # the interpolated node best responses are already within the
        # argmax step, so the row Newton accepts its start at once
        calls = self.row_kernel_calls(monkeypatch)
        rep = solve_fixed_point(params, fees, SolverConfig())
        assert rep.converged and calls[0] == 1

    @pytest.mark.parametrize("grid_n", [101, 1001])
    def test_a_row_on_a_node_is_finite(self, main_params, grid_n):
        # an odd rule and an odd grid share the interval's centre
        cfg = SolverConfig(quad_n=15, grid_n=grid_n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = solve_fixed_point(main_params, SpreadQuad(2.0), cfg)
        assert np.intersect1d(rep.nodes.grid, rep.strategy.grid).size == 1
        assert rep.converged and np.all(np.isfinite(rep.strategy.values))
        again = best_response(rep.nodes, main_params, SpreadQuad(2.0), cfg)
        assert np.max(np.abs(again.values - rep.strategy.values)) <= 2.0 * ARGMAX_TOL

    def test_a_node_without_a_maximum_starts_at_its_value(self, main_params, monkeypatch):
        # where the last fine evaluation's e'' is >= 0 or not finite, the
        # node gives its own value to the interpolant; the row Newton
        # corrects it
        fees, broken = SpreadQuad(2.0), [3, 10, 31, 50]
        real_newton, real_interp = equilibrium._newton, equilibrium.legendre_interpolate
        seen = {}

        def newton(*args):
            if args[1].size != SolverConfig.quad_n:  # the coarse level
                return real_newton(*args)
            x, residual, iterations, (g, step, d2) = real_newton(*args)
            d2 = d2.copy()
            d2[broken] = [0.0, 1.0, np.nan, -np.inf]
            seen["x"] = x
            return x, residual, iterations, (g, step, d2)

        def interp(nodes, values, at):
            seen["b"] = values
            return real_interp(nodes, values, at)

        monkeypatch.setattr(equilibrium, "_newton", newton)
        monkeypatch.setattr(equilibrium, "legendre_interpolate", interp)
        rep = solve_fixed_point(main_params, fees, SolverConfig())
        assert np.array_equal(seen["b"][broken], seen["x"][broken])
        kept = np.setdiff1d(np.arange(seen["x"].size), broken)
        assert not np.array_equal(seen["b"][kept], seen["x"][kept])
        want = solved(main_params, fees).strategy.values
        assert rep.converged and np.max(np.abs(rep.strategy.values - want)) <= 2.0 * ARGMAX_TOL

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.data())
    def test_rows_match_a_linear_start(self, data):
        # a random market with rho within its bound, either scheme, any
        # node and row count: the published rows stay within the argmax
        # step (1e-10) of a best response started from the nodes' linear
        # interpolant
        sm = data.draw(st.floats(0.05, 1.5))
        sp = sm + data.draw(st.floats(0.05, 2.0))
        params = MarketParams(sm, sp, data.draw(st.floats(0.0, 1.0)) * sm / sp)
        gamma = data.draw(st.floats(0.05, 3.0))
        fees = data.draw(st.sampled_from(
            [SpreadQuad(gamma), LinearDemand(data.draw(st.floats(0.2, 2.0)), gamma)]))
        cfg = SolverConfig(grid_n=data.draw(st.integers(2, 101)), quad_n=data.draw(st.integers(8, 64)))
        rep = solve_fixed_point(params, fees, cfg)
        linear = best_response(rep.nodes, params, fees, cfg)
        assert np.max(np.abs(linear.values - rep.strategy.values)) <= ARGMAX_TOL


def concavity_args(params, fees):
    """A solve and what it hands ``_concavity_ok``: the output rows, their
    context against the solved nodes, and the invariant-set bound C."""
    rep = solved(params, fees)
    ctx = PayoffContext(rep.strategy.grid, rep.nodes, params, fees,
                        default_rule(params, SolverConfig.quad_n))
    return rep, (rep.strategy, ctx, existence_bound(params, fees)[0])


class TestConcavityBound:
    # the closed-form bound decides which rows the check samples, never
    # the verdict

    def assert_sampled_verdict(self, params, fees, monkeypatch):
        rep, args = concavity_args(params, fees)
        with_bound = equilibrium._concavity_ok(*args)
        with monkeypatch.context() as m:
            m.setattr(equilibrium, "second_deriv_bound", no_row_certified)
            sampled = equilibrium._concavity_ok(*args)
        assert with_bound is sampled is rep.concavity_ok

    @SOLVER_CASES
    @pytest.mark.parametrize("rho", [0.0, 0.03])
    def test_verdict_is_the_sampled_one(self, params, fees, rho, monkeypatch):
        self.assert_sampled_verdict(replace(params, rho=rho), fees, monkeypatch)

    @pytest.mark.parametrize("gamma", [0.05, 0.1337, 0.5, 2.0])
    def test_verdict_is_the_sampled_one_at_low_gamma(self, main_params, gamma, monkeypatch):
        self.assert_sampled_verdict(main_params, SpreadQuad(gamma), monkeypatch)

    @staticmethod
    def sampled_calls(args, monkeypatch):
        """The offsets' shape, the sigma_a and the kernel values of every
        kernel call of a concave ``_concavity_ok``."""
        seen = []
        real = equilibrium.payoff_terms

        def spy(x, ctx, orders):
            seen.append((np.shape(x), ctx.sigma_a, np.broadcast(x[..., None], ctx.sig).size))
            return real(x, ctx, orders)

        monkeypatch.setattr(equilibrium, "payoff_terms", spy)
        assert equilibrium._concavity_ok(*args)
        return seen

    @staticmethod
    def blocks(n_rows):
        """The offset blocks in which all 50 offsets are sampled on
        ``n_rows`` rows: as many as the cap allows per kernel call."""
        step = max(1, equilibrium._BLOCK_ELEMENTS // (n_rows * SolverConfig.quad_n))
        return [(min(step, 50 - i), 1) for i in range(0, 50, step)]

    def test_only_the_unproven_rows_are_sampled(self, main_params, monkeypatch):
        # at gamma = 0.1337 the bound proves about half the rows; the scan
        # takes all its blocks on exactly the others
        _, args = concavity_args(main_params, SpreadQuad(0.1337))
        rows, ctx, bound_c = args
        hi = max(bound_c, 3.0 * rows.max_value())
        unproven = rows.grid[second_deriv_bound(ctx, hi) >= 0.0]
        assert 0 < unproven.size < rows.grid.size
        seen = self.sampled_calls(args, monkeypatch)
        assert [shape for shape, _, _ in seen] == self.blocks(unproven.size)
        assert all(np.array_equal(sigma_a, unproven) for _, sigma_a, _ in seen)

    def test_a_nan_bound_proves_no_row(self, main_params, monkeypatch):
        _, args = concavity_args(main_params, SpreadQuad(2.0))
        monkeypatch.setattr(equilibrium, "second_deriv_bound",
                            lambda ctx, hi: np.full(np.shape(ctx.sigma_a), np.nan))
        seen = self.sampled_calls(args, monkeypatch)
        assert [shape for shape, _, _ in seen] == self.blocks(args[0].grid.size)
        assert all(np.array_equal(sigma_a, args[0].grid) for _, sigma_a, _ in seen)

    def test_a_sampled_block_holds_at_most_the_cap(self, main_params, monkeypatch):
        # with no row proven, one offset on 2001 rows already holds more
        # than _BLOCK_ELEMENTS values, so each call takes one offset
        fees = SpreadQuad(2.0)
        rep, (rows, _, bound_c) = concavity_args(main_params, fees)
        ctx = PayoffContext(np.linspace(0.1, 1.1, 2001), rep.nodes, main_params, fees,
                            default_rule(main_params, SolverConfig.quad_n))
        monkeypatch.setattr(equilibrium, "second_deriv_bound", no_row_certified)
        seen = self.sampled_calls((rows, ctx, bound_c), monkeypatch)
        assert [shape for shape, _, _ in seen] == self.blocks(2001) == [(1, 1)] * 50
        assert all(values <= max(equilibrium._BLOCK_ELEMENTS, 2001 * 64)
                   for _, _, values in seen)


class TestExistenceBoundQuadrature:
    @staticmethod
    def reference_c(params, fees, n):
        nodes, w = default_rule(params, n)
        best = max(
            float(np.dot(w, sigma_rho(sa, nodes, params.rho) * q_rho(sa, nodes, params.rho)))
            for sa in np.linspace(params.sigma_minus, params.sigma_plus, 33)
        )
        return fees.kbar / (4.0 * fees.gamma) * best * norm_pdf(0.0)

    @pytest.mark.parametrize("n", [4, 16])
    def test_linear_demand_honours_quad_n(self, main_params, n):
        fees = LinearDemand(1.0, 1.0)
        c, _ = existence_bound(main_params, fees, quad_n=n)
        assert c == pytest.approx(self.reference_c(main_params, fees, n), rel=1e-14)

    def test_coarse_rule_changes_the_bound(self, main_params):
        fees = LinearDemand(1.0, 1.0)
        coarse, _ = existence_bound(main_params, fees, quad_n=4)
        default, _ = existence_bound(main_params, fees)
        assert abs(coarse - default) > 1e-9
