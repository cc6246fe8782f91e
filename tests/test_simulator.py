import math
import sys
import threading
import tracemalloc
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import PCG64DXSM, Generator
from scipy.special import ndtri

from ael import simulator
from ael.equilibrium import SolverConfig
from ael.errors import DomainError, WrongScheme
from ael.model import (
    LinearDemand,
    MarketParams,
    NoFee,
    SpreadQuad,
    Strategy,
    analytic_stats,
    default_rule,
    q_rho,
    sigma_rho,
)
from ael.payoff import PayoffContext, penalized_payoff
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
QUAD_N = SolverConfig.quad_n


def context(sigma_a, fees=FEES):
    return PayoffContext(sigma_a, DELTA, MARKET, fees, default_rule(MARKET, QUAD_N))


@pytest.mark.parametrize("x, sigma_a", POINTS)
def test_half_linear_estimate_matches_quadrature(x, sigma_a):
    mean, se = estimate_half_linear_payoff(x, sigma_a, DELTA, MARKET, FEES, SIM)
    assert abs(mean - penalized_payoff(x, context(sigma_a))) <= 4.0 * se


@pytest.mark.parametrize("x, sigma_a", POINTS)
def test_limit_estimate_matches_quadrature(x, sigma_a):
    mean, se = estimate_limit_payoff(x, sigma_a, DELTA, MARKET, SIM)
    assert abs(mean - penalized_payoff(x, context(sigma_a, NoFee()))) <= 4.0 * se


def test_half_linear_estimate_needs_linear_demand():
    with pytest.raises(WrongScheme):
        estimate_half_linear_payoff(0.1, 0.3, DELTA, MARKET, SpreadQuad(2.0), SIM)


@pytest.mark.parametrize("estimate", [
    estimate_limit_payoff,
    lambda x, sigma_a, delta, market, sim: estimate_half_linear_payoff(
        x, sigma_a, delta, market, FEES, sim),
], ids=["limit", "half_linear"])
@pytest.mark.parametrize("x, sigma_a", [(0.4, 5.0), (0.4, -1.0), (0.4, 0.0), (math.nan, 0.6)])
def test_limit_estimates_reject_impossible_points(estimate, x, sigma_a):
    # a sigma_a off [sigma_minus, sigma_plus] or a non-finite x raises before
    # any draw, also as one entry of an array, instead of returning a number,
    # dividing by zero or returning NaN
    with pytest.raises(DomainError):
        estimate(x, sigma_a, DELTA, MARKET, SIM)
    with pytest.raises(DomainError):
        estimate(np.array([0.1, x]), np.array([0.3, sigma_a]), DELTA, MARKET, SIM)


def test_limit_estimates_take_scalars_or_1d_arrays():
    mean, se = estimate_limit_payoff(0.4, 0.6, DELTA, MARKET, SIM)
    assert type(mean) is float and type(se) is float
    # one x against two sigma_a broadcasts to two points
    mean, se = estimate_limit_payoff(0.4, np.array([0.3, 0.6]), DELTA, MARKET, SIM)
    assert mean.shape == se.shape == (2,)
    with pytest.raises(DomainError):
        estimate_limit_payoff(np.full((2, 2), 0.4), 0.6, DELTA, MARKET, SIM)


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
    # pins the PCG64DXSM stream, the slot layout and the chunked reduction
    rep = estimate_stats(DELTA, MARKET, SimConfig(samples=262145, seed=11))
    assert astuple(rep.stats) == (
        0.5999566227531667,
        0.8660940784964836,
        -0.00029892937609728756,
        0.22766527084088967,
        0.23206622289191098,
    )
    se_sp_mean, se_sp_var, se_me_mean, se_me_var, se_trade = rep.std_errors
    assert (se_sp_mean, se_me_mean, se_trade) == (
        0.0018176527464022255,
        0.0009319160156693237,
        0.0008245121554196349,
    )
    # the variance errors come from third and fourth power sums, which may
    # round differently from one evaluation order to another
    assert se_sp_var == pytest.approx(0.0029107888003888868, rel=1e-14, abs=0.0)
    assert se_me_var == pytest.approx(0.0007671856461417415, rel=1e-14, abs=0.0)


def test_nonconstant_strategy_estimates_are_pinned(monkeypatch):
    # a constant strategy cannot tell one lookup segment from another;
    # this pins both estimators on delta = 0.1 + 0.25 sigma^2
    grid = np.linspace(MARKET.sigma_minus, MARKET.sigma_plus, 101)
    delta = Strategy(grid, 0.1 + 0.25 * grid * grid)
    sim = SimConfig(samples=262145, seed=11)
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("AEL_THREADS", threads)
        runs.append((estimate_stats(delta, MARKET, sim),
                     estimate_limit_payoff(0.4, 0.6, delta, MARKET, sim)))
    assert runs[0] == runs[1]
    rep, limit = runs[0]
    assert astuple(rep.stats) == (
        0.4217318284168414,
        0.8815576155079442,
        -0.0002191857206273266,
        0.23158988134967373,
        0.3127162448263366,
    )
    se_sp_mean, se_sp_var, se_me_mean, se_me_var, se_trade = rep.std_errors
    assert (se_sp_mean, se_me_mean, se_trade) == (
        0.0018338074514006313,
        0.0009399141168303323,
        0.0009054666754935532,
    )
    # as in test_stats_report_is_pinned: third and fourth power sums
    assert se_sp_var == pytest.approx(0.002953386836701864, rel=1e-14, abs=0.0)
    assert se_me_var == pytest.approx(0.0007788154453725824, rel=1e-14, abs=0.0)
    # sqrt(m2/n), as the stats' standard errors
    assert limit == (0.02559835283822472, 0.00046315701581144873)


def test_zero_uniforms_stay_finite(monkeypatch):
    # the raw window may hold 0.0; only the ndtri inputs are floored
    drawn = []

    def zeros(seed, start, out):
        drawn.append(len(out))
        out.fill(0.0)
        return out

    monkeypatch.setattr(simulator, "_uniforms", zeros)
    sim = SimConfig(samples=1000, seed=3)
    rep = estimate_stats(DELTA, MARKET, sim)
    assert drawn == [1000]
    assert np.all(np.isfinite(astuple(rep.stats))) and np.all(np.isfinite(rep.std_errors))
    assert np.all(np.isfinite(estimate_limit_payoff(0.4, 0.6, DELTA, MARKET, sim)))
    assert drawn == [1000, 1000]
    # three points draw one window between them
    batched = estimate_limit_payoff(np.full(3, 0.4), np.array([0.3, 0.6, 0.9]), DELTA, MARKET, sim)
    assert np.all(np.isfinite(batched))
    assert drawn == [1000, 1000, 1000]
    sigma_a, sigma_b, eps_a, eps_b = _market_draws(np.zeros((4, 4)), MARKET, np.empty((4, 4)))
    assert np.all(sigma_a == MARKET.sigma_minus) and np.all(sigma_b == MARKET.sigma_minus)
    assert np.all(np.isfinite(eps_a)) and np.all(np.isfinite(eps_b))


def test_moment_pack_matches_exact_power_sums():
    x = np.random.default_rng(5).normal(0.5, 1.0, 2000)
    exact = [sum(Fraction(v) ** k for v in x.tolist()) for k in (1, 2, 3, 4)]
    for got, want in zip(_moment_pack(x.copy(), np.empty_like(x)), exact):
        assert abs(Fraction(float(got)) - want) <= Fraction(1, 10**14) * abs(want)


def window(seed, start, count):
    """Rows [start, start + count) of the seed's PCG64DXSM stream drawn
    four doubles per row from the stream's start."""
    return Generator(PCG64DXSM(seed)).random((start + count, 4))[start:]


@pytest.mark.parametrize("start, count", [
    (0, 1), (0, _CHUNK - 1), (0, _CHUNK), (_CHUNK - 1, 2), (_CHUNK - 1, _CHUNK), (_CHUNK, 1)])
def test_uniforms_are_four_stream_draws_per_sample(start, count):
    # the window is the stream's rows [start, start + count), also when it
    # straddles a chunk edge
    out = np.empty((count, 4))
    u = _uniforms(11, start, out)
    assert u is out
    assert np.array_equal(u, window(11, start, count))


def test_each_chunk_draws_one_block_per_sample_from_one_generator(monkeypatch):
    made = []

    def pcg(seed):
        made.append(PCG64DXSM(seed))
        return made[-1]

    monkeypatch.setattr("numpy.random.PCG64DXSM", pcg)
    sim = SimConfig(samples=2 * _CHUNK + 1, seed=11)
    estimate_stats(DELTA, MARKET, sim)
    # each chunk's generator starts at the chunk's first sample and stops
    # at its end, in the state of the seed's stream advanced 4 draws per
    # sample up to that end, so the call takes exactly `samples` windows
    def state_at(end):
        bg = PCG64DXSM(sim.seed)
        bg.advance(4 * end)
        return bg.state["state"]

    ends = [_CHUNK, 2 * _CHUNK, sim.samples]
    got = [bg.state["state"] for bg in made]
    assert len(got) == len(ends)
    assert all(state_at(end) in got for end in ends)


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
    analytic = analytic_stats(delta, market, default_rule(market, QUAD_N))
    rep = estimate_stats(delta, market, SimConfig(samples=50_000, seed=seed))
    for a, e, se in zip(astuple(analytic), astuple(rep.stats), rep.std_errors):
        assert abs(e - a) <= 4.0 * se


# --- the one-shot chunk formulas, as a reference -------------------------------
# Each chunk draws its whole uniform window at once with window(seed,
# start, count) and evaluates every formula on fresh full-chunk arrays.  The
# estimators write into a reused workspace and must reproduce these bits.

SIZES = [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]
GRID = np.linspace(0.1, 1.1, 101)
CURVED = Strategy(GRID, 0.1 + 0.25 * GRID * GRID)


def oracle_chunks(sim, fn):
    return [fn(window(sim.seed, s, min(_CHUNK, sim.samples - s)))
            for s in range(0, sim.samples, _CHUNK)]


def oracle_normal(u_col):
    return ndtri(np.maximum(u_col, 1e-300))


def oracle_pack(x):
    x2 = x * x
    return np.array([x.sum(), x2.sum(), (x2 * x).sum(), (x2 * x2).sum()])


def oracle_stats(delta, params, sim):
    sm, sp, rho = params.sigma_minus, params.sigma_plus, params.rho

    def chunk(u):
        sigma_a = sm + (sp - sm) * u[:, 0]
        sigma_b = sm + (sp - sm) * u[:, 1]
        eps_a = oracle_normal(u[:, 2])
        eps_b = rho * eps_a + math.sqrt(1.0 - rho * rho) * oracle_normal(u[:, 3])
        p_a = sigma_a * eps_a + delta(sigma_a)
        p_b = sigma_b * eps_b - delta(sigma_b)
        return oracle_pack(p_a - p_b), oracle_pack(0.5 * (p_a + p_b)), float(
            np.count_nonzero(p_a <= p_b))

    packs = oracle_chunks(sim, chunk)
    n = sim.samples
    sp_mean, sp_var, se_sp_mean, se_sp_var = simulator._mean_var_ses(
        np.sum([p[0] for p in packs], axis=0), n)
    me_mean, me_var, se_me_mean, se_me_var = simulator._mean_var_ses(
        np.sum([p[1] for p in packs], axis=0), n)
    p_trade = float(sum(p[2] for p in packs)) / n
    se_trade = math.sqrt(max(p_trade * (1.0 - p_trade), 0.0) / n)
    return (sp_mean, sp_var, me_mean, me_var, p_trade,
            se_sp_mean, se_sp_var, se_me_mean, se_me_var, se_trade)


def oracle_limit(x, sigma_a, delta, params, sim, kbar=None):
    sm, sp, rho = params.sigma_minus, params.sigma_plus, params.rho

    def chunk(u):
        sb = sm + (sp - sm) * u[:, 0]
        z = oracle_normal(u[:, 1])
        w = oracle_normal(u[:, 2])
        d = delta(sb)
        sig = sigma_rho(sigma_a, sb, rho)
        q = q_rho(sigma_a, sb, rho)
        coef_w = sigma_a * sb * math.sqrt(1.0 - rho * rho) / sig
        mid_err = 0.5 * (x - d) + w * coef_w + z * sig * (0.5 - q)
        gain = mid_err if kbar is None else 0.5 * kbar * (sig * z - d - x) * mid_err
        pay = gain * (z >= (x + d) / sig)
        return np.array([pay.sum(), (pay * pay).sum()])

    return simulator._mean_se(np.sum(oracle_chunks(sim, chunk), axis=0), sim.samples)[:2]


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("rho", [0.0, 0.03])
@pytest.mark.parametrize("samples", SIZES)
def test_estimators_match_the_one_shot_chunk_formulas(monkeypatch, samples, rho):
    market = MarketParams(0.1, 1.1, rho)
    sim = SimConfig(samples=samples, seed=11)
    fees = LinearDemand(1.0, 0.3)
    stats = oracle_stats(CURVED, market, sim)
    limit = oracle_limit(0.4, 0.6, CURVED, market, sim)
    half = oracle_limit(0.3, 0.9, CURVED, market, sim, kbar=fees.kbar)
    half = (half[0] - fees.gamma * 0.3 * 0.3, half[1])
    for threads in ("1", "2"):
        monkeypatch.setenv("AEL_THREADS", threads)
        rep = estimate_stats(CURVED, market, sim)
        assert bits(astuple(rep.stats) + rep.std_errors) == bits(stats)
        assert bits(estimate_limit_payoff(0.4, 0.6, CURVED, market, sim)) == bits(limit)
        assert bits(estimate_half_linear_payoff(0.3, 0.9, CURVED, market, fees, sim)) == bits(half)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("rho", [0.0, 0.03])
def test_each_point_of_a_batched_call_has_the_bits_of_a_one_point_call(monkeypatch, rho, threads):
    # three chunks, the last holding a single sample; the points share
    # their draws, and each runs a one-point call's operations on them
    monkeypatch.setenv("AEL_THREADS", threads)
    market = MarketParams(0.1, 1.1, rho)
    sim = SimConfig(samples=2 * _CHUNK + 1, seed=11)
    x, sigma_a = np.array([0.1, 0.4, 0.8]), np.array([0.3, 0.6, 0.9])
    limit = estimate_limit_payoff(x, sigma_a, CURVED, market, sim)
    half = estimate_half_linear_payoff(x, sigma_a, CURVED, market, FEES, sim)
    for i in range(3):
        one = estimate_limit_payoff(x[i], sigma_a[i], CURVED, market, sim)
        assert bits(one) == bits((limit[0][i], limit[1][i]))
        one = estimate_half_linear_payoff(x[i], sigma_a[i], CURVED, market, FEES, sim)
        assert bits(one) == bits((half[0][i], half[1][i]))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_concurrent_callers_keep_their_bits(monkeypatch, threads):
    # more calling threads than cores, under a short switch interval: on
    # one thread each caller runs its chunks on its own workspace, on two
    # the callers' chunks share the pool's workers and their workspaces
    monkeypatch.setenv("AEL_THREADS", threads)
    sim = SimConfig(samples=2 * _CHUNK + 1, seed=5)
    want = bits(oracle_stats(CURVED, MARKET, sim))
    got = []

    def run():
        rep = estimate_stats(CURVED, MARKET, sim)
        got.append(bits(astuple(rep.stats) + rep.std_errors))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=run) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == [want] * 4


def peak_bytes(fn):
    fn()  # warm: the workspace and the strategy's bucket tables exist
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_warm_estimates_allocate_under_a_megabyte(monkeypatch):
    monkeypatch.setenv("AEL_THREADS", "1")
    sim = SimConfig(samples=4 * _CHUNK, seed=3)
    assert peak_bytes(lambda: estimate_stats(CURVED, MARKET, sim)) < 1 << 20
    assert peak_bytes(lambda: estimate_limit_payoff(0.4, 0.6, CURVED, MARKET, sim)) < 1 << 20
    x, sigma_a = np.array([0.1, 0.4, 0.8]), np.array([0.3, 0.6, 0.9])
    assert peak_bytes(lambda: estimate_limit_payoff(x, sigma_a, CURVED, MARKET, sim)) < 1 << 20
