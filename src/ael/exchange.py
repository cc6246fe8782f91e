"""The exchange's fee-design problem for the spread-penalty scheme.

The exchange collects gamma * (half-spread)^2 from each player and
tunes gamma.  Every revenue here is per player, gamma E[delta^2]; the
exchange collects twice that from the pair, which has the same
maximizer.  In a degenerate market the equilibrium half-spread is the
scalar root delta(gamma) of the first-order condition, and the revenue
gamma delta^2 has a closed-form maximizer:

    gamma* = Phi'(y*) / (2 sqrt(2) sigma_eff),   delta* = sigma_eff y* / sqrt(2)

where y* is the unique root of 1 - Phi(y) - y Phi'(y) and
sigma_eff = sigma sqrt(1 - rho) generalizes the rho = 0 statement (it
reproduces the degenerate first-order condition exactly).

For a non-degenerate market there is no closed form; revenue reads the
solved node values (``EquilibriumReport.nodes``), never the output rows.
``revenue_curve`` solves each gamma of a grid cold, with convergence
flags, on one fee-free table (``market_tables``), so a point still equals
its gamma priced alone; ``optimal_gamma_numeric`` golden-section
searches the converged region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AelError, DomainError, NoEquilibrium
from .gaussmath import monotone_newton, norm_cdf, norm_pdf
from .model import MarketParams, SpreadQuad, default_rule
from .equilibrium import (GAIN_TOL, SolverConfig, market_tables, solve_degenerate,
                          solve_fixed_point)

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class FeeDesignResult:
    """Closed-form degenerate-market optimum; ``revenue`` is per player."""

    gamma_star: float
    y_star: float
    delta_star: float
    revenue: float


@dataclass(frozen=True)
class RevenuePoint:
    """``revenue(gamma)``, bit for bit; NaN and not converged where it raised an AelError."""

    gamma: float
    revenue: float
    converged: bool


def y_star() -> float:
    """Unique positive root of f(y) = 1 - Phi(y) - y Phi'(y), by
    ``monotone_newton`` from 0: f(0) = 1/2, and f' = (y^2 - 2) Phi'(y)
    and f'' = y (4 - y^2) Phi'(y) make f decreasing and convex on
    [0, sqrt 2], which holds the root."""

    def f_df(y):
        return 1.0 - norm_cdf(y) - y * norm_pdf(y), (y * y - 2.0) * norm_pdf(y)

    return float(monotone_newton(f_df, 0.0))


def optimal_gamma_degenerate(sigma: float, rho: float = 0.0) -> FeeDesignResult:
    """Closed-form optimal fee for a degenerate market."""
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if not -1.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (-1, 1), got {rho}")
    ys = y_star()
    sigma_eff = sigma * math.sqrt(1.0 - rho)
    gamma = norm_pdf(ys) / (2.0 * _SQRT2 * sigma_eff)
    delta = sigma_eff * ys / _SQRT2
    return FeeDesignResult(
        gamma_star=gamma,
        y_star=ys,
        delta_star=delta,
        revenue=gamma * delta * delta,
    )


def _solve_revenue(gamma: float, params: MarketParams, cfg: SolverConfig,
                   tables=None) -> float:
    """gamma * w . x^2 at the equilibrium for SpreadQuad(gamma), solved cold
    (on ``tables`` if given), with x the node values ``report.nodes``
    carries; a degenerate market has the scalar root.

    Raises NoEquilibrium when the equilibrium solve does not converge,
    naming the test that failed: the residual, or the deviation gain.
    """
    fees = SpreadQuad(gamma)
    if params.is_degenerate:
        root = solve_degenerate(params, fees)
        return gamma * root * root
    report = solve_fixed_point(params, fees, cfg, tables=tables)
    if not report.residual <= cfg.tol:
        raise NoEquilibrium(f"fixed point did not converge at gamma = {gamma} (residual "
                            f"{report.residual:.3e} after {report.iterations} iterations)")
    if not report.converged:
        raise NoEquilibrium(f"solved rows are not best responses at gamma = {gamma} "
                            f"(deviation gain {report.deviation_gain:.3e} above {GAIN_TOL:g})")
    w = default_rule(params, cfg.quad_n)[1] if tables is None else tables[1].w
    x = report.nodes.values
    return gamma * float(np.dot(w, x * x))


def revenue(
    gamma: float, params: MarketParams, cfg: SolverConfig = SolverConfig()
) -> float:
    """Per-player expected penalty gamma * E[delta(sigma)^2] at the
    equilibrium solved for SpreadQuad(gamma).

    Raises DomainError for gamma <= 0 and NoEquilibrium when the
    equilibrium solve does not converge at this gamma.
    """
    return _solve_revenue(gamma, params, cfg)


def revenue_curve(
    gamma_grid,
    params: MarketParams,
    cfg: SolverConfig = SolverConfig(),
) -> list[RevenuePoint]:
    """Revenue at each gamma, each solved cold as ``revenue`` solves it
    alone, so a point's value depends on its gamma only.  Two or more
    points of a non-degenerate market are solved on one fee-free table
    (``market_tables``), built once: the same bits.

    The grid must be non-empty, positive and strictly increasing
    (DomainError otherwise).  A gamma whose solve raises an ``AelError``
    (NoEquilibrium included) is recorded as not converged and the sweep
    goes on; any other exception is a bug and propagates.
    """
    gammas = [float(g) for g in gamma_grid]
    if not gammas:
        raise DomainError("gamma grid must be non-empty")
    if not all(g > 0.0 for g in gammas):
        raise DomainError("gamma grid must be positive")
    if any(b <= a for a, b in zip(gammas, gammas[1:])):
        raise DomainError("gamma grid must be strictly increasing")
    tables = (None if params.is_degenerate or len(gammas) == 1
              else market_tables(params, SpreadQuad(gammas[0]), cfg))
    points: list[RevenuePoint] = []
    for g in gammas:
        try:
            points.append(RevenuePoint(g, _solve_revenue(g, params, cfg, tables), True))
        except AelError:
            points.append(RevenuePoint(g, math.nan, False))
    return points


def optimal_gamma_numeric(
    params: MarketParams,
    cfg: SolverConfig = SolverConfig(),
    lo: float = 0.05,
    hi: float = 5.0,
    tol: float = 1e-4,
) -> float:
    """Golden-section search for the revenue-maximizing gamma on [lo, hi].

    Assumes the solver converges on the whole interval (NoEquilibrium
    propagates otherwise) and that revenue is unimodal there, which
    holds in the degenerate closed-form case.
    """
    if not 0.0 < lo < hi:
        raise DomainError("need 0 < lo < hi")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = revenue(c, params, cfg), revenue(d, params, cfg)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = revenue(c, params, cfg)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = revenue(d, params, cfg)
    return 0.5 * (a + b)
