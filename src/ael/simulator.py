"""Monte Carlo engine for the auction game.

Random numbers come from a counter-based Philox stream: every sample
owns a fixed window of ``_SLOTS`` = 8 uniform draws (two Philox blocks),
addressed directly by its draw index.  A sample is therefore a pure
function of (seed, draw_index), results are bit-identical however the
work is sharded, and disjoint index ranges give independent substreams.
Normal variates are produced by applying the inverse normal CDF to the
uniforms, which keeps the counter addressing exact.  The raw window may
hold 0.0; the ``_U_FLOOR`` clamp is applied only to the columns that
``ndtri`` reads, so the sigma columns keep their bits.

Shared slot layout per draw window (unused slots are reserved):

    market samples:       0 -        1 sigma_a  2 sigma_b  3 eps_a  4 eta
    limit-payoff samples: 0 sigma_b  1 z        2 w

where eps_b = rho * eps_a + sqrt(1 - rho^2) * eta, and (z, w) play the
roles of the trade-direction and residual-error Gaussians of the
limit-regime payoff representation.  Every estimate is a limit-regime
one: prices are increments relative to the efficient price, which is
fixed at zero.  Market slot 0 stays unused; moving the other market
draws down a slot would change every market estimate.

The environment variable ``AEL_THREADS`` caps the number of worker
threads used to process chunks (0 or unset means auto).  Chunk
aggregates are reduced in index order, so threading never changes any
reported number.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .errors import DomainError, WrongScheme
from .model import (
    FeeScheme,
    LinearDemand,
    MarketParams,
    PairStats,
    Strategy,
    q_rho,
    sigma_rho,
)

_SLOTS = 8  # uniforms reserved per sample; 8 doubles = 2 Philox blocks
_BLOCKS_PER_SAMPLE = _SLOTS // 4
_CHUNK = 1 << 17
_U_FLOOR = 1e-300  # keep ndtri finite if a uniform lands on exactly 0.0


@dataclass(frozen=True)
class SimConfig:
    """Sample count and stream seed."""

    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 1:
            raise DomainError("samples must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class SimReport:
    """Empirical market statistics with standard errors.

    ``std_errors`` follows the field order of PairStats: spread mean,
    spread variance, mid-error mean, mid-error variance, trade
    probability.
    """

    stats: PairStats
    std_errors: tuple[float, float, float, float, float]
    samples: int
    seed: int


def worker_count() -> int:
    """Worker cap from AEL_THREADS (0 or unset: one per CPU)."""
    raw = os.environ.get("AEL_THREADS", "0").strip()
    try:
        n = int(raw)
    except ValueError:
        raise DomainError(f"AEL_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise DomainError(f"AEL_THREADS must be >= 0, got {n}")
    return n if n > 0 else (os.cpu_count() or 1)


def _uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """The raw (count, 8) uniform window for samples [start, start + count).

    Values lie in [0, 1); callers floor the columns they pass to ``ndtri``
    (see ``_normal``).
    """
    bg = Philox(key=seed)
    bg.advance(start * _BLOCKS_PER_SAMPLE)
    return Generator(bg).random((count, _SLOTS))


def _normal(u_col: np.ndarray) -> np.ndarray:
    """Standard normals from one uniform column, floored so ndtri stays finite."""
    t = np.maximum(u_col, _U_FLOOR)
    return ndtri(t, out=t)


def _map_chunks(total: int, fn):
    """Apply fn(start, count) over fixed-size chunks; ordered results."""
    spans = [(s, min(s + _CHUNK, total) - s) for s in range(0, total, _CHUNK)]
    workers = min(worker_count(), len(spans))
    if workers <= 1:
        return [fn(s, c) for s, c in spans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda sc: fn(*sc), spans))


def _market_draws(u: np.ndarray, params: MarketParams):
    """Map a uniform window to (sigma_a, sigma_b, eps_a, eps_b)."""
    sm, sp, rho = params.sigma_minus, params.sigma_plus, params.rho
    sigma_a = sm + (sp - sm) * u[:, 1]
    sigma_b = sm + (sp - sm) * u[:, 2]
    eps_a = _normal(u[:, 3])
    eps_b = rho * eps_a + math.sqrt(1.0 - rho * rho) * _normal(u[:, 4])
    return sigma_a, sigma_b, eps_a, eps_b


def _moment_pack(x: np.ndarray) -> np.ndarray:
    """Sums of x, x^2, x^3 and x^4, formed by multiplication (no pow)."""
    x2 = x * x
    return np.array([x.sum(), x2.sum(), (x2 * x).sum(), (x2 * x2).sum()])


def _mean_var_ses(sums: np.ndarray, n: int) -> tuple[float, float, float, float]:
    """(mean, unbiased variance, se(mean), se(variance)) from raw power sums."""
    s1, s2, s3, s4 = sums
    mean = s1 / n
    m2 = max(s2 / n - mean * mean, 0.0)
    m4 = s4 / n - 4.0 * mean * s3 / n + 6.0 * mean * mean * s2 / n - 3.0 * mean**4
    var = m2 * n / (n - 1) if n > 1 else 0.0
    se_mean = math.sqrt(m2 / n)
    # at n == 1, m4 holds only the cancellation of the raw sums
    se_var = math.sqrt(max(m4 - m2 * m2, 0.0) / n) if n > 1 else 0.0
    return mean, var, se_mean, se_var


def estimate_stats(delta: Strategy, params: MarketParams, sim: SimConfig) -> SimReport:
    """Empirical spread / mid-error / trade statistics with standard errors."""

    def chunk(start: int, count: int):
        u = _uniforms(sim.seed, start, count)
        sigma_a, sigma_b, eps_a, eps_b = _market_draws(u, params)
        da = np.asarray(delta(sigma_a), dtype=float)
        db = np.asarray(delta(sigma_b), dtype=float)
        p_a = sigma_a * eps_a + da
        p_b = sigma_b * eps_b - db
        spread = p_a - p_b
        mid_err = 0.5 * (p_a + p_b)
        traded = float(np.count_nonzero(p_a <= p_b))
        return _moment_pack(spread), _moment_pack(mid_err), traded

    packs = _map_chunks(sim.samples, chunk)
    spread_sums = np.sum([p[0] for p in packs], axis=0)
    mid_sums = np.sum([p[1] for p in packs], axis=0)
    n_traded = float(sum(p[2] for p in packs))
    n = sim.samples

    sp_mean, sp_var, se_sp_mean, se_sp_var = _mean_var_ses(spread_sums, n)
    me_mean, me_var, se_me_mean, se_me_var = _mean_var_ses(mid_sums, n)
    p_trade = n_traded / n
    se_trade = math.sqrt(max(p_trade * (1.0 - p_trade), 0.0) / n)

    return SimReport(
        stats=PairStats(
            spread_mean=sp_mean,
            spread_var=sp_var,
            mid_error_mean=me_mean,
            mid_error_var=me_var,
            trade_prob=p_trade,
        ),
        std_errors=(se_sp_mean, se_sp_var, se_me_mean, se_me_var, se_trade),
        samples=n,
        seed=sim.seed,
    )


def _mean_se(sums: np.ndarray, n: int) -> tuple[float, float]:
    s1, s2 = sums
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0) * (n / (n - 1) if n > 1 else 1.0)
    return mean, math.sqrt(var / n)


def _limit_estimate(
    x: float, sigma_a: float, delta: Strategy, params: MarketParams, sim: SimConfig, gain
) -> tuple[float, float]:
    """Mean and standard error of gain(z, sig, d, mid_err) on the traded
    event z >= (x + d)/sig, over the limit-regime draws (sigma_b, z, w).

    ``mid_err`` is the clearing-mid error
    (x - d)/2 + w * sa sb sqrt(1-rho^2)/S + z S (1/2 - Q).
    """
    sm, sp, rho = params.sigma_minus, params.sigma_plus, params.rho

    def chunk(start: int, count: int):
        u = _uniforms(sim.seed, start, count)
        sb = sm + (sp - sm) * u[:, 0]
        z = _normal(u[:, 1])
        w = _normal(u[:, 2])
        d = np.asarray(delta(sb), dtype=float)
        sig = sigma_rho(sigma_a, sb, rho)
        q = q_rho(sigma_a, sb, rho)
        coef_w = sigma_a * sb * math.sqrt(1.0 - rho * rho) / sig
        mid_err = 0.5 * (x - d) + w * coef_w + z * sig * (0.5 - q)
        pay = gain(z, sig, d, mid_err) * (z >= (x + d) / sig)
        return np.array([pay.sum(), (pay * pay).sum()])

    sums = np.sum(_map_chunks(sim.samples, chunk), axis=0)
    return _mean_se(sums, sim.samples)


def estimate_limit_payoff(
    x: float, sigma_a: float, delta: Strategy, params: MarketParams, sim: SimConfig
) -> tuple[float, float]:
    """Monte Carlo estimate of the limit-regime expected payoff.

    Samples the expectation representation of the payoff directly: with
    sigma_b uniform and (z, w) independent standard normals,

        pay = ((x - d)/2 + w * sa sb sqrt(1-rho^2)/S + z S (1/2 - Q))
              * 1{z >= (x + d)/S}.

    Its mean equals the quadrature payoff, providing the independent
    cross-check used by the validation suite.
    """
    return _limit_estimate(x, sigma_a, delta, params, sim, lambda z, sig, d, mid_err: mid_err)


def estimate_half_linear_payoff(
    x: float,
    sigma_a: float,
    delta: Strategy,
    params: MarketParams,
    fees: FeeScheme,
    sim: SimConfig,
) -> tuple[float, float]:
    """Limit-regime volume-weighted payoff under half-linear demand.

    Samples (kbar/2)(P_b - P_a)(clearing mid - efficient price) on the
    traded event through the same (sigma_b, z, w) representation as
    ``estimate_limit_payoff``; the deterministic penalty gamma x^2 is
    subtracted from the mean.
    """
    if not isinstance(fees, LinearDemand):
        raise WrongScheme(
            f"estimate_half_linear_payoff requires LinearDemand fees, "
            f"got {type(fees).__name__}"
        )
    mean, se = _limit_estimate(
        x, sigma_a, delta, params, sim,
        lambda z, sig, d, mid_err: 0.5 * fees.kbar * (sig * z - d - x) * mid_err,
    )
    return mean - fees.gamma * x * x, se
