"""Monte Carlo engine for the auction game.

Random numbers come from a counter-based Philox stream: every sample
owns a fixed window of ``_SLOTS`` = 4 uniform draws, one Philox4x64
block, addressed directly by its draw index.  A sample is therefore a
pure function of (seed, draw_index), results are bit-identical however
the work is sharded, and disjoint index ranges give independent
substreams.  Normal variates are produced by applying the inverse
normal CDF to the uniforms, which keeps the counter addressing exact.
The raw window may hold 0.0; the ``_U_FLOOR`` clamp is applied only to
the columns that ``ndtri`` reads, so the sigma columns keep their bits.

Slot layout per draw window (unused slots are reserved):

    market samples:       0 sigma_a  1 sigma_b  2 eps_a  3 eta
    limit-payoff samples: 0 sigma_b  1 z        2 w      3 -

where eps_b = rho * eps_a + sqrt(1 - rho^2) * eta, and (z, w) play the
roles of the trade-direction and residual-error Gaussians of the
limit-regime payoff representation.  Every estimate is a limit-regime
one: prices are increments relative to the efficient price, which is
fixed at zero.

Chunks of ``_CHUNK`` samples run on the package's worker threads
(``parallel.map_ordered``).  The environment variable ``AEL_THREADS``
caps their number, here and in the row blocks of
``equilibrium.verify_ne`` (0 or unset means one per usable CPU).  Chunk
aggregates are reduced in index order, so every result is bit-identical
at every thread count.

A chunk allocates no array of its size.  Each thread that runs chunks
(a pool worker, or the caller when one thread runs them all) keeps one
``_Workspace`` for as long as the thread lives, and a chunk walks its
samples in sub-blocks of ``SUB`` samples: one Philox generator, set to
the chunk's first sample, draws each sub-block's window into the
workspace in turn (a sub-block takes whole blocks, so the stream has the
bits of one generator per sub-block), and the floors, ``ndtri``, sigma
maps, strategy lookups and prices are written into its ``SUB``-length
columns, which stay in cache.  Only the values whose sums are taken
(spread and mid error, or the payoff) go into full-chunk arrays, and
their power sums run on the whole chunk: ``np.sum`` adds pairwise in an
order set by the array length, so sums over sub-blocks would round
differently.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator
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
    _lookup_scratch,
    _q_rho_into,
    _sigma_rho_into,
)
from .parallel import map_ordered

_SLOTS = 4  # uniforms per sample: the 4 doubles of one Philox4x64 block
_CHUNK = 1 << 17
SUB = 1 << 14  # samples per sub-block; see the module docstring
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


class _Workspace:
    """One thread's Monte Carlo buffers, reused by every chunk it runs.

    ``u`` is the (``SUB``, 4) uniform window of a sub-block, one Philox
    block per row, and ``cols`` its columns of intermediate values (rows,
    each contiguous).  ``scratch`` is the strategy lookup's scratch;
    ``flag``, its boolean column, is free between lookups.  ``sums``
    holds the full-chunk values whose power sums are taken.
    """

    __slots__ = ("u", "cols", "scratch", "flag", "sums")

    def __init__(self):
        self.u = np.empty((SUB, _SLOTS))
        self.cols = np.empty((8, SUB))
        self.scratch = _lookup_scratch(SUB)
        self.flag = self.scratch[3]
        self.sums = np.empty((3, _CHUNK))

    def lookup(self, delta: Strategy, sigma: np.ndarray, out: np.ndarray) -> np.ndarray:
        """delta(sigma) written to ``out``, through the workspace's scratch."""
        n = sigma.size
        delta._evaluate(sigma, out, *(a[:n] for a in self.scratch))
        return out


_local = threading.local()


def _workspace() -> _Workspace:
    """The calling thread's workspace, made on its first chunk."""
    ws = getattr(_local, "ws", None)
    if ws is None:
        ws = _local.ws = _Workspace()
    return ws


def _uniforms(
    seed: int, start: int, count: int, out: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """The raw uniform windows of samples [start, start + count), one
    sub-block of at most ``SUB`` samples at a time: yields (offset, u),
    u being the sub-block's (n, 4) window written to ``out[:n]``.

    One Philox generator, advanced ``start`` blocks (one block per
    sample), draws them all in order.
    Values lie in [0, 1); callers floor the columns they pass to ``ndtri``
    (see ``_normal``).
    """
    bg = Philox(key=seed)
    bg.advance(start)
    gen = Generator(bg)
    for off in range(0, count, SUB):
        n = min(SUB, count - off)
        yield off, gen.random((n, _SLOTS), out=out[:n])


def _normal(u_col: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Standard normals from one uniform column, floored so ndtri stays finite."""
    np.maximum(u_col, _U_FLOOR, out=out)
    return ndtri(out, out=out)


def _sigma(u_col: np.ndarray, params: MarketParams, out: np.ndarray) -> np.ndarray:
    """sigma_minus + (sigma_plus - sigma_minus) * u, written to ``out``."""
    sm, sp = params.sigma_minus, params.sigma_plus
    np.multiply(u_col, sp - sm, out=out)
    out += sm
    return out


def _map_chunks(total: int, fn):
    """Apply fn(ws, start, count) over fixed-size chunks, ws being the
    running thread's workspace; ordered results."""
    spans = [(s, min(s + _CHUNK, total) - s) for s in range(0, total, _CHUNK)]
    return map_ordered(lambda sc: fn(_workspace(), *sc), spans)


def _market_draws(u: np.ndarray, params: MarketParams, out: np.ndarray):
    """Map a uniform window to (sigma_a, sigma_b, eps_a, eps_b), the rows
    of the (4, n) ``out``."""
    rho = params.rho
    sigma_a, sigma_b, eps_a, eps_b = out
    _normal(u[:, 2], eps_a)
    _normal(u[:, 3], eps_b)
    eps_b *= math.sqrt(1.0 - rho * rho)
    eps_b += np.multiply(eps_a, rho, out=sigma_a)  # eps_b = rho eps_a + sqrt(1 - rho^2) eta
    _sigma(u[:, 0], params, sigma_a)
    _sigma(u[:, 1], params, sigma_b)
    return sigma_a, sigma_b, eps_a, eps_b


def _moment_pack(x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Sums of x, x^2, x^3 and x^4, formed by multiplication (no pow).

    Overwrites x and ``work`` (of x's shape) and allocates no array of
    x's size.
    """
    s1 = x.sum()
    x2 = np.multiply(x, x, out=work)
    s2 = x2.sum()
    x *= x2
    s3 = x.sum()
    s4 = np.multiply(x2, x2, out=x).sum()
    return np.array([s1, s2, s3, s4])


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

    def chunk(ws: _Workspace, start: int, count: int):
        spread, mid_err, work = ws.sums[:, :count]
        traded = 0
        for off, u in _uniforms(sim.seed, start, count, ws.u):
            n = len(u)
            sigma_a, sigma_b, p_a, p_b = _market_draws(u, params, ws.cols[:4, :n])
            da, db = ws.cols[4:6, :n]
            p_a *= sigma_a  # p_a = sigma_a eps_a + delta(sigma_a)
            p_a += ws.lookup(delta, sigma_a, da)
            p_b *= sigma_b  # p_b = sigma_b eps_b - delta(sigma_b)
            p_b -= ws.lookup(delta, sigma_b, db)
            np.subtract(p_a, p_b, out=spread[off:off + n])
            np.add(p_a, p_b, out=mid_err[off:off + n])
            mid_err[off:off + n] *= 0.5
            traded += np.count_nonzero(np.less_equal(p_a, p_b, out=ws.flag[:n]))
        # mid_err's pack may use spread as its scratch once spread's is taken
        return _moment_pack(spread, work), _moment_pack(mid_err, spread), float(traded)

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
    (x - d)/2 + w * sa sb sqrt(1-rho^2)/S + z S (1/2 - Q).  ``gain`` gets
    sub-block arrays and a scratch ``out`` of their length, and returns
    the gain: one of its inputs, or ``out`` written in place.
    """
    rho = params.rho
    root = math.sqrt(1.0 - rho * rho)

    def chunk(ws: _Workspace, start: int, count: int):
        pay, work = ws.sums[:2, :count]
        for off, u in _uniforms(sim.seed, start, count, ws.u):
            n = len(u)
            sb, z, w, d, sig, q, t1, t2 = ws.cols[:, :n]
            flag = ws.flag[:n]
            _sigma(u[:, 0], params, sb)
            _normal(u[:, 1], z)
            _normal(u[:, 2], w)
            ws.lookup(delta, sb, d)
            _sigma_rho_into(sigma_a, sb, rho, sig, t1, flag)
            _q_rho_into(sigma_a, sb, rho, q, t1, t2, flag)
            # mid_err = 0.5 (x - d) + w sa sb sqrt(1-rho^2)/S + z S (1/2 - Q), into t1
            np.multiply(sb, sigma_a, out=t2)
            t2 *= root
            t2 /= sig
            w *= t2
            np.subtract(x, d, out=t1)
            t1 *= 0.5
            t1 += w
            np.subtract(0.5, q, out=q)
            q *= np.multiply(z, sig, out=t2)
            t1 += q
            # traded event z >= (x + d)/S
            np.add(d, x, out=t2)
            t2 /= sig
            np.greater_equal(z, t2, out=flag)
            np.multiply(gain(z, sig, d, t1, t2), flag, out=pay[off:off + n])
        return np.array([pay.sum(), np.multiply(pay, pay, out=work).sum()])

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
    return _limit_estimate(x, sigma_a, delta, params, sim, lambda z, sig, d, mid_err, out: mid_err)


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
    scale = 0.5 * fees.kbar

    def gain(z, sig, d, mid_err, out):
        # (kbar/2) (sig z - d - x) mid_err
        np.multiply(sig, z, out=out)
        out -= d
        out -= x
        out *= scale
        out *= mid_err
        return out

    mean, se = _limit_estimate(x, sigma_a, delta, params, sim, gain)
    return mean - fees.gamma * x * x, se
