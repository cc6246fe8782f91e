import math

import pytest

from ael.errors import DomainError, WrongScheme
from ael.model import LinearDemand, MarketParams, SpreadQuad, Strategy, default_rule
from ael.payoff import PayoffContext, base_payoff, half_linear_payoff
from ael.simulator import (
    _CHUNK,
    SimConfig,
    estimate_conditional_payoff,
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
    assert abs(mean - half_linear_payoff(x, context(sigma_a))) <= 4.0 * se


@pytest.mark.parametrize("x, sigma_a", POINTS)
def test_limit_estimate_matches_quadrature(x, sigma_a):
    mean, se = estimate_limit_payoff(x, sigma_a, DELTA, MARKET, SIM)
    assert abs(mean - base_payoff(x, context(sigma_a))) <= 4.0 * se


def test_half_linear_estimate_needs_linear_demand():
    with pytest.raises(WrongScheme):
        estimate_half_linear_payoff(0.1, 0.3, DELTA, MARKET, SpreadQuad(2.0), SIM)


def test_conditional_estimate_needs_finite_v():
    assert math.isinf(SIM.v)
    with pytest.raises(DomainError):
        estimate_conditional_payoff(0.1, 0.3, 0.0, DELTA, MARKET, SIM)


def test_stats_identical_across_thread_counts(monkeypatch):
    # three chunks, the last holding a single sample
    sim = SimConfig(samples=2 * _CHUNK + 1, seed=11)
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("AEL_THREADS", threads)
        reports.append(estimate_stats(DELTA, MARKET, sim))
    assert reports[0] == reports[1]
