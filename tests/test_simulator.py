from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ael import simulator
from ael.errors import WrongScheme
from ael.model import (
    LinearDemand,
    MarketParams,
    SpreadQuad,
    Strategy,
    analytic_stats,
    default_rule,
)
from ael.payoff import PayoffContext, base_payoff, penalized_payoff
from ael.simulator import (
    _CHUNK,
    SimConfig,
    _market_draws,
    _moment_pack,
    _uniforms,
    estimate_half_linear_payoff,
    estimate_limit_payoff,
    estimate_stats,
)

MARKET = MarketParams(0.1, 1.1, 0.03)
FEES = LinearDemand(1.0, 0.3)
DELTA = Strategy.constant(0.3, MARKET, 51)
SIM = SimConfig(samples=200_000, seed=7)
POINTS = [(0.1, 0.3), (0.4, 0.6), (0.8, 0.9)]


def context(sigma_a):
    return PayoffContext(sigma_a, DELTA, MARKET, FEES, default_rule(MARKET))


@pytest.mark.parametrize("x, sigma_a", POINTS)
def test_half_linear_estimate_matches_quadrature(x, sigma_a):
    mean, se = estimate_half_linear_payoff(x, sigma_a, DELTA, MARKET, FEES, SIM)
    assert abs(mean - penalized_payoff(x, context(sigma_a))) <= 4.0 * se


@pytest.mark.parametrize("x, sigma_a", POINTS)
def test_limit_estimate_matches_quadrature(x, sigma_a):
    mean, se = estimate_limit_payoff(x, sigma_a, DELTA, MARKET, SIM)
    assert abs(mean - base_payoff(x, context(sigma_a))) <= 4.0 * se


def test_half_linear_estimate_needs_linear_demand():
    with pytest.raises(WrongScheme):
        estimate_half_linear_payoff(0.1, 0.3, DELTA, MARKET, SpreadQuad(2.0), SIM)


def test_stats_identical_across_thread_counts(monkeypatch):
    # three chunks, the last holding a single sample
    sim = SimConfig(samples=2 * _CHUNK + 1, seed=11)
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("AEL_THREADS", threads)
        reports.append(estimate_stats(DELTA, MARKET, sim))
    assert reports[0] == reports[1]


def test_limit_payoff_identical_across_thread_counts(monkeypatch):
    sim = SimConfig(samples=2 * _CHUNK + 1, seed=11)
    estimates = []
    for threads in ("1", "2"):
        monkeypatch.setenv("AEL_THREADS", threads)
        estimates.append(estimate_limit_payoff(0.4, 0.6, DELTA, MARKET, sim))
    assert estimates[0] == estimates[1]


def test_stats_report_is_pinned():
    # pins the Philox stream, the slot layout and the chunked reduction
    rep = estimate_stats(DELTA, MARKET, SimConfig(samples=2 * _CHUNK + 1, seed=11))
    assert astuple(rep.stats) == (
        0.5997538213416292,
        0.8653939463744456,
        -0.0017871603495739712,
        0.22812804930378874,
        0.23316103683076161,
    )
    se_sp_mean, se_sp_var, se_me_mean, se_me_var, se_trade = rep.std_errors
    assert (se_sp_mean, se_me_mean, se_trade) == (
        0.0018169179218634089,
        0.000932862694360456,
        0.0008258654261388233,
    )
    # the variance errors come from third and fourth power sums, which may
    # round differently from one evaluation order to another
    assert se_sp_var == pytest.approx(0.0028884819009263375, rel=1e-14, abs=0.0)
    assert se_me_var == pytest.approx(0.0007716195072284582, rel=1e-14, abs=0.0)


def test_nonconstant_strategy_estimates_are_pinned(monkeypatch):
    # a constant strategy cannot tell one lookup segment from another;
    # this pins both estimators on delta = 0.1 + 0.25 sigma^2
    grid = np.linspace(MARKET.sigma_minus, MARKET.sigma_plus, 101)
    delta = Strategy(grid, 0.1 + 0.25 * grid * grid)
    sim = SimConfig(samples=2 * _CHUNK + 1, seed=11)
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("AEL_THREADS", threads)
        runs.append((estimate_stats(delta, MARKET, sim),
                     estimate_limit_payoff(0.4, 0.6, delta, MARKET, sim)))
    assert runs[0] == runs[1]
    rep, limit = runs[0]
    assert astuple(rep.stats) == (
        0.42164733599135346,
        0.8813563958313702,
        -0.0019082045206698834,
        0.23217833449694855,
        0.31341051708024187,
    )
    se_sp_mean, se_sp_var, se_me_mean, se_me_var, se_trade = rep.std_errors
    assert (se_sp_mean, se_me_mean, se_trade) == (
        0.001833598151863895,
        0.0009411074861580152,
        0.0009060132873850472,
    )
    # as in test_stats_report_is_pinned: third and fourth power sums
    assert se_sp_var == pytest.approx(0.002938148971374894, rel=1e-14, abs=0.0)
    assert se_me_var == pytest.approx(0.0007843238361825925, rel=1e-14, abs=0.0)
    assert limit == (0.026022280814412876, 0.00045929856624078697)


def test_zero_uniforms_stay_finite(monkeypatch):
    # the raw window may hold 0.0; only the ndtri inputs are floored
    monkeypatch.setattr(
        simulator, "_uniforms", lambda seed, start, count: np.zeros((count, 8))
    )
    sim = SimConfig(samples=1000, seed=3)
    rep = estimate_stats(DELTA, MARKET, sim)
    assert np.all(np.isfinite(astuple(rep.stats))) and np.all(np.isfinite(rep.std_errors))
    assert np.all(np.isfinite(estimate_limit_payoff(0.4, 0.6, DELTA, MARKET, sim)))
    sigma_a, sigma_b, eps_a, eps_b = _market_draws(np.zeros((4, 8)), MARKET)
    assert np.all(sigma_a == MARKET.sigma_minus) and np.all(sigma_b == MARKET.sigma_minus)
    assert np.all(np.isfinite(eps_a)) and np.all(np.isfinite(eps_b))


def test_moment_pack_matches_exact_power_sums():
    x = np.random.default_rng(5).normal(0.5, 1.0, 2000)
    exact = [sum(Fraction(v) ** k for v in x.tolist()) for k in (1, 2, 3, 4)]
    for got, want in zip(_moment_pack(x), exact):
        assert abs(Fraction(float(got)) - want) <= Fraction(1, 10**14) * abs(want)


def test_draws_do_not_depend_on_the_chunk_boundary():
    seed = 11
    whole = _uniforms(seed, 0, _CHUNK + 1)
    split = np.vstack([_uniforms(seed, 0, _CHUNK), _uniforms(seed, _CHUNK, 1)])
    assert np.array_equal(whole, split)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(
    sigma_minus=st.floats(0.05, 2.0),
    spread=st.floats(1.0, 5.0),
    rho_frac=st.floats(-0.9, 0.9),
    level=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32),
)
def test_estimated_stats_match_analytic_stats(sigma_minus, spread, rho_frac, level, seed):
    # rho stays within the equilibrium bound sigma_minus/sigma_plus; a
    # constant strategy of at most sigma_minus/2 keeps the trade
    # probability far from 0, so its standard error is not degenerate
    sigma_plus = sigma_minus * spread
    market = MarketParams(sigma_minus, sigma_plus, rho_frac * sigma_minus / sigma_plus)
    delta = Strategy.constant(level * sigma_minus, market, 11)
    analytic = analytic_stats(delta, market, default_rule(market))
    rep = estimate_stats(delta, market, SimConfig(samples=50_000, seed=seed))
    for a, e, se in zip(astuple(analytic), astuple(rep.stats), rep.std_errors):
        assert abs(e - a) <= 4.0 * se
