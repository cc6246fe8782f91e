"""Domain types for the quoting game and closed-form market statistics.

Two players quote around private estimates of an unobserved efficient
price.  Each player's estimate error has standard deviation sigma drawn
uniformly from [sigma_minus, sigma_plus]; the two error terms have
correlation rho.  A strategy maps the own noise level sigma to a
non-negative half-spread delta(sigma).

For a pair of noise levels (sa, sb) the recurring scalar quantities are

    Sigma_rho = sqrt(sa^2 + sb^2 - 2 rho sa sb)
    Q         = (1/sb^2 - rho/(sa sb)) / (1/sa^2 + 1/sb^2 - 2 rho/(sa sb))
    Q~        = same with sa and sb swapped,   Q + Q~ = 1.

Q and Q~ are precision ratios: the weights the best linear combination
of the two signals puts on each of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, OutOfDomain
from .gaussmath import gauss_legendre, norm_cdf

_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class MarketParams:
    """Market model parameters.

    The game's payoffs and statistics, and every Monte Carlo estimate,
    are those of the limit regime (infinite prior scale of the
    efficient price), so no prior scale is carried anywhere.
    Equilibrium routines additionally assume
    ``rho <= sigma_minus / sigma_plus``; that is checked where needed,
    not here, because the market statistics are valid without it.
    """

    sigma_minus: float
    sigma_plus: float
    rho: float

    def __post_init__(self):
        if not 0.0 < self.sigma_minus <= self.sigma_plus:
            raise DomainError(
                f"need 0 < sigma_minus <= sigma_plus, got "
                f"({self.sigma_minus}, {self.sigma_plus})"
            )
        if not -1.0 < self.rho < 1.0:
            raise DomainError(f"rho must lie in (-1, 1), got {self.rho}")

    @property
    def is_degenerate(self) -> bool:
        """True when the sigma interval collapses to a point."""
        return self.sigma_plus - self.sigma_minus <= _DEGENERATE_TOL * max(1.0, self.sigma_plus)

    @property
    def rho_bound_ok(self) -> bool:
        """Whether rho <= sigma_minus/sigma_plus (equilibrium assumption)."""
        return self.rho <= self.sigma_minus / self.sigma_plus


def _lookup_scratch(n: int):
    """Scratch arrays for ``Strategy._evaluate`` on n points."""
    return np.empty(n), np.empty(n, np.intp), np.empty(n, np.intp), np.empty(n, bool)


class _Buckets(NamedTuple):
    """Bucket tables of ``Strategy.__call__``; see the ``Strategy`` docstring."""

    scale: float  # buckets per unit of sigma
    first: np.ndarray  # bucket -> lowest segment index a sigma in it can have
    strides: tuple[int, ...]  # search steps above 1, largest first
    right: np.ndarray  # grid[j + 1], padded with +inf for the largest stride


@dataclass(frozen=True)
class Strategy:
    """Half-spread function sampled on a grid, piecewise-linear between points.

    A single-point grid (degenerate market) evaluates to a constant.

    Evaluation is exact: ``delta(s)`` has the bits of
    ``np.interp(s, grid, values)`` on every grid the constructor accepts
    (a -0.0 in ``values`` can come back as +0.0 at its own grid point).
    A lookup clamps sigma to the grid, finds the segment j with
    grid[j] <= sigma < grid[j + 1] (j = n - 1 at the last grid point,
    whose slope is 0), and evaluates
    ``slope[j] * (sigma - grid[j]) + values[j]``, the expression and
    rounding of ``np.interp``.

    A query with more points than the grid reads j from bucket tables
    instead of searching the whole grid.  The first such query splits
    [grid[0], grid[-1]] into 2 (n - 1) equal buckets and stores, for each
    bucket, the lowest segment index a sigma in it can have.  Let W be the
    most segments past that index a sigma in any bucket can reach; W = 1
    on a near-uniform grid.  A lookup starts from its bucket's index j and
    searches the W segments that follow: for each power of two h below
    W + 1, largest first, it adds h to j where sigma >= grid[j + h], so a
    near-uniform grid takes one step.  Grid points and queries go into
    buckets through the same monotone floating-point expression, so the
    start index never passes the true segment.  A smaller query, such as
    the solver's quadrature nodes on a strategy it evaluates once, costs
    less as a binary search than the tables cost to build.
    """

    grid: np.ndarray
    values: np.ndarray
    _lo: float = field(init=False, repr=False, compare=False)
    _hi: float = field(init=False, repr=False, compare=False)
    _slope: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        set_ = object.__setattr__
        set_(self, "grid", grid)
        set_(self, "values", values)
        if grid.ndim != 1 or values.ndim != 1 or grid.shape != values.shape:
            raise DomainError("grid and values must be 1-D arrays of equal length")
        if grid.size < 1:
            raise DomainError("strategy grid must contain at least one point")
        if not np.isfinite(grid).all():
            raise DomainError("strategy grid must be finite")
        with np.errstate(all="ignore"):
            step = grid[1:] - grid[:-1]
            slope = np.append((values[1:] - values[:-1]) / step, 0.0)
        if (step <= 0.0).any():
            raise DomainError("strategy grid must be strictly increasing")
        if not np.isfinite(values).all() or (values < 0.0).any():
            raise DomainError("strategy values must be finite and non-negative")
        lo, hi = float(grid[0]), float(grid[-1])
        # a finite span and finite slopes keep the bucket map and the
        # evaluation finite
        if not (math.isfinite(hi - lo) and np.isfinite(slope).all()):
            raise DomainError("strategy grid span and slopes must be finite")
        grid.flags.writeable = False
        values.flags.writeable = False
        slack = _DEGENERATE_TOL * max(1.0, abs(lo), abs(hi))
        set_(self, "_lo", lo - slack)
        set_(self, "_hi", hi + slack)
        set_(self, "_slope", slope)

    @cached_property
    def _buckets(self) -> _Buckets:
        grid = self.grid
        scale = 2.0 * (grid.size - 1) / (grid[-1] - grid[0]) if grid.size > 1 else 0.0
        # bucket of each grid point, by the expression _segment uses
        kg = ((grid - grid[0]) * scale).astype(np.intp)
        k = np.arange(kg[-1] + 1)
        first = np.maximum(kg.searchsorted(k, side="left") - 1, 0)
        reach = int((kg.searchsorted(k, side="right") - 1 - first).max())
        strides = tuple(1 << i for i in range(reach.bit_length() - 1, 0, -1))
        pad = np.full(strides[0] if strides else 1, np.inf)
        return _Buckets(scale, first, strides, np.concatenate((grid[1:], pad)))

    def _segment(self, t, j, k, f, b) -> None:
        """Write the segment index of each sigma in ``t`` (already clamped
        to the grid) to ``j``; k, f and b are scratch (see ``_evaluate``)."""
        grid = self.grid
        if t.size <= grid.size:
            np.subtract(grid.searchsorted(t, side="right"), 1, out=j)
            return
        scale, first, strides, right = self._buckets
        np.subtract(t, grid[0], out=f)
        f *= scale
        k[...] = f  # truncates, as astype(np.intp) does
        # mode="clip" takes without a buffer; every index is in range
        np.take(first, k, mode="clip", out=j)
        for h in strides:
            np.take(right[h - 1:], j, mode="clip", out=f)
            j += np.multiply(np.greater_equal(t, f, out=b), h, out=k)
        np.take(right, j, mode="clip", out=f)
        j += np.greater_equal(t, f, out=b)

    def _evaluate(self, x: np.ndarray, out: np.ndarray, f, j, k, b) -> None:
        """Write delta at each sigma of the 1-D ``x`` to ``out``, allocating
        nothing on a query larger than the grid.

        f, j, k and b are scratch of x's length with dtypes float, intp,
        intp and bool (``_lookup_scratch``).  Raises OutOfDomain for a NaN
        or for a sigma beyond the slack.
        """
        grid = self.grid
        # min and max of a NaN are NaN, which fails both comparisons
        if x.size and not (
            np.minimum.reduce(x) >= self._lo and np.maximum.reduce(x) <= self._hi
        ):
            raise OutOfDomain(f"sigma outside strategy span [{grid[0]}, {grid[-1]}]")
        t = np.clip(x, grid[0], grid[-1], out=out)
        self._segment(t, j, k, f, b)
        np.subtract(t, np.take(grid, j, mode="clip", out=f), out=out)
        out *= np.take(self._slope, j, mode="clip", out=f)
        out += np.take(self.values, j, mode="clip", out=f)

    @classmethod
    def constant(cls, value: float, params: MarketParams, n: int = 101) -> "Strategy":
        """Constant strategy on a uniform grid spanning the sigma interval."""
        grid = uniform_grid(params, n)
        return cls(grid, np.full(grid.shape, float(value)))

    def __call__(self, sigma):
        """Evaluate at a scalar or array of sigma values (with 1e-12 slack).

        Raises OutOfDomain for a NaN or for a sigma beyond the slack.
        """
        s = np.asarray(sigma, dtype=float)
        x = s.reshape(-1)
        out = np.empty(x.size)
        self._evaluate(x, out, *_lookup_scratch(x.size))
        out = out.reshape(s.shape)
        return out if isinstance(sigma, np.ndarray) or s.ndim else float(out)

    def max_value(self) -> float:
        return float(self.values.max())


def uniform_grid(params: MarketParams, n: int = 101) -> np.ndarray:
    """Uniform sigma grid; a degenerate interval gives a single point."""
    if params.is_degenerate:
        return np.array([params.sigma_plus])
    if n < 2:
        raise DomainError("need at least two grid points on a non-degenerate interval")
    return np.linspace(params.sigma_minus, params.sigma_plus, n)


# --- fee schemes -----------------------------------------------------------


@dataclass(frozen=True)
class NoFee:
    """No exchange penalty."""


@dataclass(frozen=True)
class MidQuad:
    """Quadratic penalty on the clearing-mid vs efficient-price error."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class SpreadQuad:
    """Quadratic penalty on each player's own half-spread."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class LinearDemand:
    """Half-linear demand schedules of common slope kbar, optional
    quadratic half-spread penalty gamma."""

    kbar: float
    gamma: float = 0.0

    def __post_init__(self):
        if not self.kbar > 0.0:
            raise DomainError(f"kbar must be positive, got {self.kbar}")
        if self.gamma < 0.0:
            raise DomainError(f"gamma must be non-negative, got {self.gamma}")


FeeScheme = NoFee | MidQuad | SpreadQuad | LinearDemand


@dataclass(frozen=True)
class PairStats:
    """The five market-quality statistics for a fixed strategy."""

    spread_mean: float
    spread_var: float
    mid_error_mean: float
    mid_error_var: float
    trade_prob: float

    def __post_init__(self):
        if self.spread_var < 0.0 or self.mid_error_var < 0.0:
            raise DomainError("variances must be non-negative")
        if not -1e-12 <= self.trade_prob <= 1.0 + 1e-12:
            raise DomainError(f"trade probability out of [0, 1]: {self.trade_prob}")


# --- scalar quantities -----------------------------------------------------


def sigma_rho(sa, sb, rho: float):
    """sqrt(sa^2 + sb^2 - 2 rho sa sb); elementwise in sa/sb, a numpy.float64
    for scalars."""
    rad = sa * sa + sb * sb - 2.0 * rho * sa * sb
    if np.any(rad <= 0.0):
        raise DomainError("sigma_rho radicand is non-positive")
    return np.sqrt(rad)


def q_rho_pair(sa, sb, rho: float):
    """(q_rho, q_tilde_rho) from one precision denominator, which IEEE's
    commutative + and * make the same whichever player comes first."""
    inv_a2, inv_b2, ab = 1.0 / (sa * sa), 1.0 / (sb * sb), sa * sb
    den = inv_a2 + inv_b2 - 2.0 * rho / ab
    if np.any(np.asarray(den) <= 0.0):
        raise DomainError("degenerate precision denominator")
    r = rho / ab
    return (inv_b2 - r) / den, (inv_a2 - r) / den


def q_rho(sa, sb, rho: float):
    """Precision-ratio weight of player a's signal; scalar or vectorized."""
    return q_rho_pair(sa, sb, rho)[0]


def _sigma_rho_into(sa: float, sb: np.ndarray, rho: float, out, tmp, flag) -> None:
    """``sigma_rho(sa, sb, rho)`` for a scalar sa, written to ``out`` by the
    same operations; tmp and flag are scratch of sb's shape."""
    np.multiply(sb, sb, out=out)
    out += sa * sa
    out -= np.multiply(sb, 2.0 * rho * sa, out=tmp)
    if np.less_equal(out, 0.0, out=flag).any():
        raise DomainError("sigma_rho radicand is non-positive")
    np.sqrt(out, out=out)


def _q_rho_into(sa: float, sb: np.ndarray, rho: float, out, tmp1, tmp2, flag) -> None:
    """``q_rho(sa, sb, rho)`` for a scalar sa, written to ``out`` by the
    same operations; tmp1, tmp2 and flag are scratch of sb's shape."""
    inv_b2 = np.divide(1.0, np.multiply(sb, sb, out=tmp1), out=tmp1)
    ab = np.multiply(sb, sa, out=tmp2)
    np.subtract(inv_b2, np.divide(rho, ab, out=out), out=out)  # numerator
    den = np.add(inv_b2, 1.0 / (sa * sa), out=tmp1)
    den -= np.divide(2.0 * rho, ab, out=tmp2)
    if np.less_equal(den, 0.0, out=flag).any():
        raise DomainError("degenerate precision denominator")
    out /= den


def q_tilde_rho(sa, sb, rho: float):
    """Precision-ratio weight of player b's signal; q_rho + q_tilde_rho = 1."""
    return q_rho_pair(sa, sb, rho)[1]


# --- averaging over the sigma distribution ---------------------------------


def default_rule(params: MarketParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights, summing to one, of the ``n``-node
    Gauss-Legendre rule for the uniform average over [sigma_minus,
    sigma_plus].  A degenerate interval collapses to the one node
    sigma_plus with weight 1, so every averaging formula holds there.
    """
    if params.is_degenerate:
        nodes, w = np.array([params.sigma_plus]), np.array([1.0])
    else:
        nodes, w = gauss_legendre(params.sigma_minus, params.sigma_plus, n)
        w = w / (params.sigma_plus - params.sigma_minus)
    nodes.flags.writeable = w.flags.writeable = False
    return nodes, w


def uniform_sigma_moments(params: MarketParams) -> tuple[float, float]:
    """(E[sigma], E[sigma^2]) of the uniform law, in closed form."""
    sm, sp = params.sigma_minus, params.sigma_plus
    return 0.5 * (sm + sp), (sm * sm + sm * sp + sp * sp) / 3.0


def _trade_prob(nodes: np.ndarray, w: np.ndarray, dvals: np.ndarray, rho: float) -> float:
    """E_ab[Phi(-(d_a + d_b)/Sigma_rho)] on the nodes x nodes grid.

    ``dvals`` holds the strategy at ``nodes``.  The tail is evaluated as
    Phi(-u), not 1 - Phi(u), so it stays accurate (and positive) until
    the Gaussian tail itself underflows.
    """
    sig = sigma_rho(nodes[:, None], nodes[None, :], rho)
    ww = w[:, None] * w[None, :]
    return float(np.sum(ww * norm_cdf(-(dvals[:, None] + dvals[None, :]) / sig)))


def analytic_stats(
    delta: Strategy, params: MarketParams, rule: tuple[np.ndarray, np.ndarray]
) -> PairStats:
    """Closed-form market statistics for a fixed strategy.

    Strategy moments are averages over ``rule``, a ``default_rule`` pair;
    the uniform moments of sigma are closed-form.  The trade probability
    needs a double average over both players' sigma.
    """
    nodes, w = rule
    dvals = delta(nodes)
    e_d = float(np.dot(w, dvals))
    e_d2 = float(np.dot(w, dvals * dvals))
    v_d = max(e_d2 - e_d * e_d, 0.0)
    e_s, e_s2 = uniform_sigma_moments(params)
    rho = params.rho

    return PairStats(
        spread_mean=2.0 * e_d,
        spread_var=2.0 * (e_s2 - rho * e_s * e_s + v_d),
        mid_error_mean=0.0,
        mid_error_var=0.5 * (e_s2 + rho * e_s * e_s + v_d),
        trade_prob=_trade_prob(nodes, w, dvals, rho),
    )
