from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
