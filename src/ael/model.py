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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfDomain
from .gaussmath import QuadratureRule, gauss_legendre, norm_cdf

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


@dataclass(frozen=True)
class Strategy:
    """Half-spread function sampled on a grid, piecewise-linear between points.

    A single-point grid (degenerate market) evaluates to a constant.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or values.ndim != 1 or grid.shape != values.shape:
            raise DomainError("grid and values must be 1-D arrays of equal length")
        if grid.size < 1:
            raise DomainError("strategy grid must contain at least one point")
        if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
            raise DomainError("strategy grid must be strictly increasing")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise DomainError("strategy values must be finite and non-negative")
        grid.flags.writeable = False
        values.flags.writeable = False

    @classmethod
    def constant(cls, value: float, params: MarketParams, n: int = 101) -> "Strategy":
        """Constant strategy on a uniform grid spanning the sigma interval."""
        grid = uniform_grid(params, n)
        return cls(grid, np.full(grid.shape, float(value)))

    def __call__(self, sigma):
        """Evaluate at a scalar or array of sigma values (with 1e-12 slack)."""
        slack = _DEGENERATE_TOL * max(1.0, abs(self.grid[0]), abs(self.grid[-1]))
        s = np.asarray(sigma, dtype=float)
        if np.any(s < self.grid[0] - slack) or np.any(s > self.grid[-1] + slack):
            raise OutOfDomain(
                f"sigma outside strategy span [{self.grid[0]}, {self.grid[-1]}]"
            )
        out = np.interp(s, self.grid, self.values)
        return out if isinstance(sigma, np.ndarray) else float(out)

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


def _precision_den(sa, sb, rho: float):
    return 1.0 / (sa * sa) + 1.0 / (sb * sb) - 2.0 * rho / (sa * sb)


def q_rho(sa, sb, rho: float):
    """Precision-ratio weight of player a's signal; scalar or vectorized."""
    den = _precision_den(sa, sb, rho)
    if np.any(np.asarray(den) <= 0.0):
        raise DomainError("degenerate precision denominator")
    return (1.0 / (sb * sb) - rho / (sa * sb)) / den


def q_tilde_rho(sa, sb, rho: float):
    """Precision-ratio weight of player b's signal; q_rho + q_tilde_rho = 1."""
    den = _precision_den(sa, sb, rho)
    if np.any(np.asarray(den) <= 0.0):
        raise DomainError("degenerate precision denominator")
    return (1.0 / (sa * sa) - rho / (sa * sb)) / den


# --- averaging over the sigma distribution ---------------------------------


def average_nodes(params: MarketParams, n: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the uniform average over [sigma_minus, sigma_plus].

    Weights sum to one.  A degenerate interval collapses to a single
    unit-weight node, so every averaging formula remains valid there.
    """
    if params.is_degenerate:
        return np.array([params.sigma_plus]), np.array([1.0])
    rule = gauss_legendre(params.sigma_minus, params.sigma_plus, n)
    return rule.nodes, rule.weights / (params.sigma_plus - params.sigma_minus)


def rule_average_nodes(
    params: MarketParams, rule: QuadratureRule | None
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``rule`` for the uniform average over the sigma
    interval; ``average_nodes(params)`` when ``rule`` is None or the market
    is degenerate (one unit-weight node).

    Raises DomainError when the rule does not span the sigma interval.
    """
    if rule is None or params.is_degenerate:
        return average_nodes(params)
    if abs(rule.a - params.sigma_minus) > 1e-9 or abs(rule.b - params.sigma_plus) > 1e-9:
        raise DomainError("quadrature rule does not span the sigma interval")
    return rule.nodes, rule.weights / (params.sigma_plus - params.sigma_minus)


def default_rule(params: MarketParams, n: int = 64) -> QuadratureRule | None:
    """Gauss-Legendre rule for the sigma interval (None when degenerate)."""
    if params.is_degenerate:
        return None
    return gauss_legendre(params.sigma_minus, params.sigma_plus, n)


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
    delta: Strategy, params: MarketParams, rule: QuadratureRule | None = None
) -> PairStats:
    """Closed-form market statistics for a fixed strategy.

    Strategy moments are computed by quadrature; the uniform moments of
    sigma are closed-form.  The trade probability needs a double average
    over both players' sigma.
    """
    nodes, w = rule_average_nodes(params, rule)
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
