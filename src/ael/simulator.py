"""Monte Carlo engine for the auction game.

Random numbers come from one PCG64DXSM stream per call (O'Neill, "PCG:
A family of simple fast space-efficient statistically good algorithms
for random number generation", HMC-CS-2014-0905), seeded through
numpy's ``SeedSequence`` so every seed in [0, 2**64) is valid.  Every
sample owns a fixed window of ``_SLOTS`` = 4 consecutive doubles of
that stream: sample i reads draws [4 i, 4 i + 4), reached by
``advance(4 i)``, a jump of O(log i) steps.  A sample is therefore a
pure function of (seed, index), results are bit-identical however the
work is sharded, and disjoint index ranges are disjoint stretches of
one stream.  What this gives up against a counter-based generator such
as Philox (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11) is the keyed mixing of each counter: PCG's windows are
successive outputs of one linear congruential state, not independent
hashes of their index; in exchange a window fills in about half the
time.  Normal variates are produced by applying the inverse normal CDF
to the uniforms, which keeps the addressing exact.  The raw window may
hold 0.0; the ``_U_FLOOR`` clamp is applied only to the columns that
``ndtri`` reads, so the sigma columns keep their bits.

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
caps their number (0 or unset means one per usable CPU).  Chunk
aggregates are reduced in index order, so every result is bit-identical
at every thread count.

A chunk is also the unit of memory: it allocates no array of its size.
Each thread that runs chunks (a pool worker, or the caller when one
thread runs them all) keeps one ``_Workspace`` of chunk-length columns,
small enough to stay in cache, for as long as the thread lives.  One
generator, advanced to the chunk's first sample, draws the chunk's
window into it; the floors, ``ndtri``, sigma maps, strategy lookups,
prices and the power sums all run on its columns.

The points of one limit-payoff call share their draws: a chunk draws
(sigma_b, z, w) and looks up delta(sigma_b) once, and each point (x,
sigma_a) runs only its own part on those columns.  These are common
random numbers (Glasserman, "Monte Carlo Methods in Financial
Engineering", 2003).  Each point's estimate has the bits of a one-point
call at the same seed, so its mean and standard error stay exact; the
estimates of one call are correlated.  A test of every point at k SE
therefore keeps each point's power, and, the estimates being close to
jointly normal, the largest of their |z| scores exceeds k no more often
than if they were independent (Sidak, JASA 62, 1967).
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64DXSM, Generator
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
from .payoff import check_sigma_a

_SLOTS = 4  # uniforms per sample: 4 consecutive doubles of the stream
_CHUNK = 1 << 15  # samples per chunk; see the module docstring
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
    probability.  The sample count and seed are the caller's
    ``SimConfig``; the report does not repeat them.
    """

    stats: PairStats
    std_errors: tuple[float, float, float, float, float]


class _Workspace:
    """One thread's Monte Carlo buffers, reused by every chunk it runs.

    ``u`` is the (``_CHUNK``, 4) uniform window of a chunk, one
    sample's ``_SLOTS`` consecutive stream draws per row, and ``cols``
    its columns of intermediate values (rows, each contiguous).
    ``scratch`` is the strategy lookup's scratch; ``flag``, its boolean
    column, is free between lookups.
    """

    __slots__ = ("u", "cols", "scratch", "flag")

    def __init__(self):
        self.u = np.empty((_CHUNK, _SLOTS))
        self.cols = np.empty((8, _CHUNK))
        self.scratch = _lookup_scratch(_CHUNK)
        self.flag = self.scratch[3]

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


def _uniforms(seed: int, start: int, out: np.ndarray) -> np.ndarray:
    """The raw uniform window of samples [start, start + len(out)),
    written to the (n, 4) ``out`` and returned.

    One PCG64DXSM generator, seeded with ``seed`` and advanced
    ``_SLOTS * start`` draws (``_SLOTS`` per sample), draws it row by
    row.  Values lie in [0, 1); callers floor the columns they pass to
    ``ndtri`` (see ``_normal``).
    """
    bg = PCG64DXSM(seed)
    bg.advance(_SLOTS * start)
    return Generator(bg).random(out.shape, out=out)


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
    # one sample has no spread, and two deviate by +-d, so m4 = m2^2
    # exactly: at n <= 2, m4 - m2^2 holds only the cancellation of the raw sums
    se_var = math.sqrt(max(m4 - m2 * m2, 0.0) / n) if n > 2 else 0.0
    return mean, var, se_mean, se_var


def estimate_stats(delta: Strategy, params: MarketParams, sim: SimConfig) -> SimReport:
    """Empirical spread / mid-error / trade statistics with standard errors."""

    def chunk(ws: _Workspace, start: int, count: int):
        u = _uniforms(sim.seed, start, ws.u[:count])
        sigma_a, sigma_b, p_a, p_b = _market_draws(u, params, ws.cols[:4, :count])
        da, db, spread, mid_err = ws.cols[4:, :count]
        p_a *= sigma_a  # p_a = sigma_a eps_a + delta(sigma_a)
        p_a += ws.lookup(delta, sigma_a, da)
        p_b *= sigma_b  # p_b = sigma_b eps_b - delta(sigma_b)
        p_b -= ws.lookup(delta, sigma_b, db)
        np.subtract(p_a, p_b, out=spread)
        np.add(p_a, p_b, out=mid_err)
        mid_err *= 0.5
        traded = np.count_nonzero(np.less_equal(p_a, p_b, out=ws.flag[:count]))
        # the lookup columns are free once the prices hold them
        return _moment_pack(spread, da), _moment_pack(mid_err, db), float(traded)

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
    )


def _mean_se(sums: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and its standard error from the sums of x and x^2 in the last
    axis of ``sums``, one pair per leading index."""
    s1, s2 = sums.T
    mean = s1 / n
    var = np.maximum(s2 / n - mean * mean, 0.0) * (n / (n - 1) if n > 1 else 1.0)
    return mean, np.sqrt(var / n)


def _limit_estimate(
    x, sigma_a, delta: Strategy, params: MarketParams, sim: SimConfig, gain
) -> tuple[np.ndarray, np.ndarray]:
    """Means and standard errors of gain(x, z, sig, d, mid_err) on the
    traded event z >= (x + d)/sig, over the limit-regime draws
    (sigma_b, z, w), at each point of the broadcast (x, sigma_a).

    ``mid_err`` is the clearing-mid error
    (x - d)/2 + w * sa sb sqrt(1-rho^2)/S + z S (1/2 - Q).  ``gain`` gets
    a point's offset, a chunk's columns and a scratch ``out`` of their
    length, and returns the gain: one of its inputs, or ``out`` written
    in place.  A chunk draws (sigma_b, z, w) and looks up d = delta(sigma_b)
    once, then runs each point's own operations on those columns, so a
    point's result does not depend on the other points of the call.
    """
    xs, sas = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(sigma_a, dtype=float))
    if xs.ndim > 1:
        raise DomainError("x and sigma_a must be scalars or 1-D arrays")
    if not np.isfinite(xs).all():
        raise DomainError(f"x = {x} is not finite")
    check_sigma_a(sas, params)  # a NaN sigma_a fails it too
    points = list(zip(xs.ravel().tolist(), sas.ravel().tolist()))
    rho = params.rho
    root = math.sqrt(1.0 - rho * rho)

    def chunk(ws: _Workspace, start: int, count: int):
        u = _uniforms(sim.seed, start, ws.u[:count])
        sb, z, w, d, sig, q, t1, t2 = ws.cols[:, :count]
        flag = ws.flag[:count]
        _sigma(u[:, 0], params, sb)
        _normal(u[:, 1], z)
        _normal(u[:, 2], w)
        ws.lookup(delta, sb, d)
        # the lookup's float scratch is free once d holds its values
        wt = ws.scratch[0][:count]
        sums = np.empty((len(points), 2))
        for i, (xi, sa) in enumerate(points):
            _sigma_rho_into(sa, sb, rho, sig, t1, flag)
            _q_rho_into(sa, sb, rho, q, t1, t2, flag)
            # mid_err = 0.5 (x - d) + w sa sb sqrt(1-rho^2)/S + z S (1/2 - Q), into t1
            np.multiply(sb, sa, out=t2)
            t2 *= root
            t2 /= sig
            np.multiply(w, t2, out=wt)
            np.subtract(xi, d, out=t1)
            t1 *= 0.5
            t1 += wt
            np.subtract(0.5, q, out=q)
            q *= np.multiply(z, sig, out=t2)
            t1 += q
            # traded event z >= (x + d)/S
            np.add(d, xi, out=t2)
            t2 /= sig
            np.greater_equal(z, t2, out=flag)
            # q and wt are free once mid_err holds their terms
            pay = np.multiply(gain(xi, z, sig, d, t1, t2), flag, out=q)
            sums[i] = pay.sum(), np.multiply(pay, pay, out=wt).sum()
        return sums

    sums = np.sum(_map_chunks(sim.samples, chunk), axis=0)
    mean, se = _mean_se(sums, sim.samples)
    return mean.reshape(xs.shape), se.reshape(xs.shape)


def _as_given(mean: np.ndarray, se: np.ndarray):
    """Floats for scalar points, the arrays themselves for 1-D ones."""
    return (float(mean), float(se)) if mean.ndim == 0 else (mean, se)


def estimate_limit_payoff(x, sigma_a, delta: Strategy, params: MarketParams, sim: SimConfig):
    """Monte Carlo estimate of the limit-regime expected payoff.

    Samples the expectation representation of the payoff directly: with
    sigma_b uniform and (z, w) independent standard normals,

        pay = ((x - d)/2 + w * sa sb sqrt(1-rho^2)/S + z S (1/2 - Q))
              * 1{z >= (x + d)/S}.

    Its mean equals the quadrature payoff, providing the independent
    cross-check used by the validation suite.

    ``x`` and ``sigma_a`` are floats, giving a float mean and SE, or 1-D
    arrays that broadcast together, giving an array of each, one entry
    per point.  The points share their draws (see the module docstring).
    Raises DomainError for a non-finite x, or a sigma_a outside
    [sigma_minus, sigma_plus].
    """
    return _as_given(*_limit_estimate(
        x, sigma_a, delta, params, sim, lambda x, z, sig, d, mid_err, out: mid_err))


def estimate_half_linear_payoff(
    x,
    sigma_a,
    delta: Strategy,
    params: MarketParams,
    fees: FeeScheme,
    sim: SimConfig,
):
    """Limit-regime volume-weighted payoff under half-linear demand.

    Samples (kbar/2)(P_b - P_a)(clearing mid - efficient price) on the
    traded event through the same (sigma_b, z, w) representation as
    ``estimate_limit_payoff``; the deterministic penalty gamma x^2 is
    subtracted from each point's mean.  Takes and returns scalars or
    arrays, and raises, as ``estimate_limit_payoff`` does.
    """
    if not isinstance(fees, LinearDemand):
        raise WrongScheme(
            f"estimate_half_linear_payoff requires LinearDemand fees, "
            f"got {type(fees).__name__}"
        )
    scale = 0.5 * fees.kbar

    def gain(x, z, sig, d, mid_err, out):
        # (kbar/2) (sig z - d - x) mid_err
        np.multiply(sig, z, out=out)
        out -= d
        out -= x
        out *= scale
        out *= mid_err
        return out

    mean, se = _limit_estimate(x, sigma_a, delta, params, sim, gain)
    x = np.asarray(x, dtype=float)
    return _as_given(mean - fees.gamma * x * x, se)
