"""Equilibrium computation for the quoting game.

A strategy delta is an equilibrium when, for every sigma_a, delta(sigma_a)
maximizes the penalized payoff against delta itself.  Equilibria are
computed as fixed points of the best-response operator by damped Picard
iteration; convergence is never assumed, only verified through the
sup-norm residual |delta - BR(delta)|.

Without fees (and with the mid-price penalty alone) no equilibrium
exists; ``no_ne_certificate`` returns the aggregated first-order-condition
integral that witnesses this (half the trade probability, positive
until the Gaussian tail underflows), and ``verify_ne`` measures the best
deviation gain a player can realize against a candidate strategy.

For a degenerate market (sigma_minus = sigma_plus) the equilibrium
reduces to a scalar root of the one-dimensional first-order condition,
solved to near machine precision by ``solve_degenerate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketFailure,
    DegenerateCase,
    DomainError,
    NoConvergence,
    NonConcave,
    WrongScheme,
)
from .gaussmath import Bracket, _sign_changes, find_root, norm_cdf, norm_pdf
from .model import (
    FeeScheme,
    LinearDemand,
    MarketParams,
    MidQuad,
    NoFee,
    SpreadQuad,
    Strategy,
    _trade_prob,
    average_nodes,
    default_rule,
    q_rho,
    sigma_rho,
    uniform_grid,
)
from .payoff import PayoffContext, payoff_terms

_SQRT2 = math.sqrt(2.0)
_MAX_DOUBLINGS = 60
_SCAN_N = 33  # derivative samples of the NonConcave scan
_MAX_NEWTON = 100


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point solver knobs."""

    grid_n: int = 101
    damping: float = 0.5
    tol: float = 1e-7
    max_iter: int = 200
    search_cap: float = 1.0
    quad_n: int = 64

    def __post_init__(self):
        if self.grid_n < 2:
            raise DomainError("grid_n must be >= 2")
        if not 0.0 < self.damping <= 1.0:
            raise DomainError("damping must lie in (0, 1]")
        if not self.tol > 0.0:
            raise DomainError("tol must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")
        if not self.search_cap > 0.0:
            raise DomainError("search_cap must be positive")
        if self.quad_n < 1:
            raise DomainError("quad_n must be >= 1")


@dataclass(frozen=True)
class EquilibriumReport:
    """Solved strategy with residual and existence-bound diagnostics."""

    strategy: Strategy
    residual: float
    iterations: int
    converged: bool
    bound_C: float
    gamma_min: float
    concavity_ok: bool


def _scheme_gamma(fees: FeeScheme) -> float:
    if isinstance(fees, (SpreadQuad, LinearDemand)):
        return fees.gamma
    raise WrongScheme(f"no penalty coefficient on {type(fees).__name__}")


def _require_solvable(fees: FeeScheme) -> None:
    if isinstance(fees, (NoFee, MidQuad)):
        raise WrongScheme(
            f"{type(fees).__name__} admits no equilibrium; "
            "use SpreadQuad or LinearDemand with gamma > 0"
        )
    if isinstance(fees, LinearDemand) and not fees.gamma > 0.0:
        raise WrongScheme("LinearDemand needs gamma > 0 for an equilibrium")


def _require_rho_bound(params: MarketParams) -> None:
    if not params.rho_bound_ok:
        raise DomainError(
            f"equilibrium computation assumes rho <= sigma_minus/sigma_plus; "
            f"rho = {params.rho} exceeds {params.sigma_minus / params.sigma_plus:.6g}"
        )


def _degenerate_foc(fees: FeeScheme, sigma: float, rho: float):
    """Scalar first-order condition of the symmetric degenerate game."""
    se = sigma * math.sqrt(1.0 - rho)
    g = _scheme_gamma(fees)
    if isinstance(fees, SpreadQuad):

        def f(x: float) -> float:
            return 0.5 * (1.0 - norm_cdf(_SQRT2 * x / se)) - 2.0 * g * x

        def df(x: float) -> float:
            return -0.5 * norm_pdf(_SQRT2 * x / se) * _SQRT2 / se - 2.0 * g

        hi = 0.25 / g + se
        return f, df, hi

    kbar = fees.kbar

    def f(x: float) -> float:
        u = _SQRT2 * x / se
        return 0.5 * kbar * (
            -x * (1.0 - norm_cdf(u)) + (se / _SQRT2) * norm_pdf(u)
        ) - 2.0 * g * x

    def df(x: float) -> float:
        # the two Phi' terms cancel along the diagonal, leaving a strictly
        # negative slope for every x
        u = _SQRT2 * x / se
        return -0.5 * kbar * (1.0 - norm_cdf(u)) - 2.0 * g

    hi = se
    for _ in range(_MAX_DOUBLINGS):
        if f(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise BracketFailure("degenerate first-order condition never turns negative")
    return f, df, hi


def _degenerate_root(fees: FeeScheme, sigma: float, rho: float) -> float:
    f, df, hi = _degenerate_foc(fees, sigma, rho)
    root = find_root(f, Bracket.scan(f, 0.0, hi), tol=1e-15)
    # two guarded Newton steps push the FOC residual to machine level
    for _ in range(2):
        slope = df(root)
        if slope == 0.0:
            break
        step = f(root) / slope
        cand = root - step
        if 0.0 < cand < hi:
            root = cand
    return root


def solve_degenerate(params: MarketParams, fees: FeeScheme) -> float:
    """Scalar equilibrium half-spread of a degenerate market.

    Only the spread-penalty and half-linear schemes admit one; the
    first-order condition is strictly decreasing past its root, which is
    located to |FOC| <= 1e-12 * max(1, gamma).
    """
    if not params.is_degenerate:
        raise DomainError("solve_degenerate requires sigma_minus = sigma_plus")
    _require_solvable(fees)
    _require_rho_bound(params)
    return _degenerate_root(fees, params.sigma_plus, params.rho)


def existence_bound(
    params: MarketParams, fees: FeeScheme, quad_n: int = 64
) -> tuple[float, float]:
    """Closed-form invariant-set bound C and penalty threshold gamma_min.

    For the spread penalty, strategies within [0, C] keep every payoff
    strictly concave on (0, C), and gamma >= gamma_min forces the best
    response back into [0, C]; the threshold is conservative by
    construction.  For half-linear demand the threshold is
    (kbar/2) * max_z(z Phi'(z) - (1 - Phi(z))), attained at z = sqrt(2),
    and C scales like kbar/(4 gamma) times the averaged slope of the
    derivative at zero offset (maximized over 33 sigma_a, averaged with a
    ``quad_n``-node rule).
    """
    if params.is_degenerate:
        raise DegenerateCase("existence bounds apply to sigma_minus < sigma_plus only")
    _require_solvable(fees)
    _require_rho_bound(params)
    sm, sp, rho = params.sigma_minus, params.sigma_plus, params.rho

    if isinstance(fees, SpreadQuad):
        b = (1.0 - rho * sp / sm) / (1.0 - (sm / sp) ** 2)
        lam = 1.0 / (2.0 * b + 1.0)
        c = 2.0 * lam * b * math.sqrt(0.5 * (1.0 - rho * rho) ** 2 * sm**4 / sp**2)
        u = c / (_SQRT2 * sp)
        gamma_min = (1.0 - norm_cdf(u)) / (4.0 * c) + norm_pdf(u) / (2.0 * _SQRT2 * sm)
        return c, gamma_min

    z = _SQRT2
    gamma_min = 0.5 * fees.kbar * (z * norm_pdf(z) - (1.0 - norm_cdf(z)))
    nodes, w = average_nodes(params, quad_n)
    sa = np.linspace(sm, sp, 33)[:, None]
    best = max(0.0, float(np.max((sigma_rho(sa, nodes, rho) * q_rho(sa, nodes, rho)) @ w)))
    c = fees.kbar / (4.0 * fees.gamma) * best * norm_pdf(0.0)
    return c, gamma_min


def best_response(
    delta: Strategy, params: MarketParams, fees: FeeScheme, cfg: SolverConfig = SolverConfig()
) -> Strategy:
    """Pointwise argmax strategy against ``delta`` on the same grid.

    All grid points are solved at once on one batched payoff kernel.  The
    search interval [0, hi] has hi doubling from ``cfg.search_cap`` until
    the payoff derivative turns negative (it always does: the derivative
    tends to minus infinity); BracketFailure after 60 doublings.  A point
    whose derivative at 0 is <= 0 responds with 0.  For the others the
    derivative is scanned on 33 points of [0, hi], one column of all
    points per kernel call, so no (points, 33, nodes) array is built;
    NonConcave is raised when a point's scan changes sign more than once
    (exact zeros ignored).  The leftmost sign change brackets the root,
    which a bracket-safeguarded Newton iteration on the analytic second
    derivative refines to max(tol * 1e-3, 1e-13).
    """
    _require_rho_bound(params)
    ctx = PayoffContext(delta.grid, delta, params, fees, default_rule(params, cfg.quad_n))
    argmax_tol = max(cfg.tol * 1e-3, 1e-13)

    hi = np.full(delta.grid.shape, float(cfg.search_cap))
    for _ in range(_MAX_DOUBLINGS):
        (d_hi,) = payoff_terms(hi, ctx, (1,))
        up = ~(d_hi < 0.0)
        if not up.any():
            break
        hi = np.where(up, 2.0 * hi, hi)
    else:
        raise BracketFailure(f"payoff derivative never turned negative below {hi.max()} "
                             f"(sigma_a={delta.grid[np.argmax(up)]})")

    xs = np.linspace(0.0, hi, _SCAN_N, axis=-1)
    ds = np.empty(xs.shape)
    ds[:, -1] = d_hi
    for j in range(_SCAN_N - 1):
        (ds[:, j],) = payoff_terms(xs[:, j], ctx, (1,))
    # leftmost + -> - crossing; ds[:, 0] > 0 > ds[:, -1] guarantees one
    k = np.argmax((ds[:, :-1] > 0.0) & (ds[:, 1:] <= 0.0), axis=-1)
    rows = np.arange(k.size)
    lo, up = xs[rows, k], xs[rows, k + 1]
    f_lo, f_up = ds[rows, k], ds[rows, k + 1]
    rising = ds[:, 0] > 0.0  # the others respond with 0
    x = np.where(rising, up, 0.0)
    active = rising & (f_up != 0.0)
    x[active] -= (up - lo)[active] * f_up[active] / (f_up - f_lo)[active]  # secant start

    for _ in range(_MAX_NEWTON):
        if not active.any():
            break
        d1, d2 = payoff_terms(x, ctx, (1, 2))
        lo = np.where(d1 > 0.0, x, lo)
        up = np.where(d1 < 0.0, x, up)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = x - d1 / d2
        nxt = np.where((nxt > lo) & (nxt < up), nxt, 0.5 * (lo + up))
        converged = np.abs(nxt - x) <= argmax_tol
        x = np.where(active, nxt, x)
        active &= ~converged
    if active.any():
        raise NoConvergence(f"best response not located within {_MAX_NEWTON} Newton steps")

    nonconcave = rising & (_sign_changes(ds) > 1)
    if nonconcave.any():
        i = int(np.argmax(nonconcave))
        raise NonConcave(f"derivative changes sign more than once on [0, {hi[i]}] "
                         f"(sigma_a={delta.grid[i]})", smallest_root=float(x[i]))
    return Strategy(delta.grid, x)


def _concavity_ok(
    delta: Strategy,
    params: MarketParams,
    fees: FeeScheme,
    cfg: SolverConfig,
    bound_c: float,
) -> bool:
    """Sample the second derivative on (0, bound_C) for negativity at 11
    sigma_a by 50 offsets, one kernel call over all 11 sigma_a per offset."""
    if not bound_c > 0.0 or not math.isfinite(bound_c):
        return False
    sigmas = np.linspace(params.sigma_minus, params.sigma_plus, 11)
    ctx = PayoffContext(sigmas, delta, params, fees, default_rule(params, cfg.quad_n))
    for x in np.linspace(0.0, bound_c, 52)[1:-1]:
        (d2,) = payoff_terms(x, ctx, (2,))
        if np.any(d2 >= 0.0):
            return False
    return True


def solve_fixed_point(
    params: MarketParams,
    fees: FeeScheme,
    cfg: SolverConfig = SolverConfig(),
    init: Strategy | None = None,
) -> EquilibriumReport:
    """Damped Picard iteration on the best-response operator.

    The iterate starts at the constant C/2 when gamma clears the
    analytic threshold, otherwise at the degenerate-market root for
    sigma_plus (the analytic threshold is far from tight, and fixed
    points routinely exist below it).  Non-convergence and concavity
    flags are reported, never silently accepted; if the kernel flags a
    non-concave payoff the run is returned with converged=False rather
    than raised.
    """
    _require_solvable(fees)
    _require_rho_bound(params)
    gamma = _scheme_gamma(fees)

    if params.is_degenerate:
        grid = uniform_grid(params)
        root = _degenerate_root(fees, params.sigma_plus, params.rho)
        bound_c, gamma_min = 2.0 * root, 0.0
        start = root
    else:
        grid = uniform_grid(params, cfg.grid_n)
        bound_c, gamma_min = existence_bound(params, fees, cfg.quad_n)
        if gamma >= gamma_min:
            start = 0.5 * bound_c
        else:
            start = _degenerate_root(fees, params.sigma_plus, params.rho)

    delta = init if init is not None else Strategy(grid, np.full(grid.shape, start))
    if init is not None and (init.grid.shape != grid.shape or not np.allclose(init.grid, grid)):
        raise DomainError("initial strategy grid does not match the solver grid")

    residual = math.inf
    converged = False
    iterations = 0
    nonconcave = False
    for iterations in range(1, cfg.max_iter + 1):
        try:
            br = best_response(delta, params, fees, cfg)
        except NonConcave:
            nonconcave = True
            break
        residual = float(np.max(np.abs(br.values - delta.values)))
        if residual <= cfg.tol:
            converged = True
            break
        mixed = (1.0 - cfg.damping) * delta.values + cfg.damping * br.values
        delta = Strategy(grid, mixed)

    concavity = (not nonconcave) and _concavity_ok(delta, params, fees, cfg, bound_c)
    return EquilibriumReport(
        strategy=delta,
        residual=residual,
        iterations=iterations,
        converged=converged,
        bound_C=bound_c,
        gamma_min=gamma_min,
        concavity_ok=concavity,
    )


def no_ne_certificate(delta: Strategy, params: MarketParams, n: int = 64) -> float:
    """Normalized double average of (1/2) Phi(-(d_a + d_b)/Sigma_rho),
    half the trade probability of ``delta``.

    An unpenalized equilibrium would force this integral to zero, so a
    positive value certifies that ``delta`` cannot satisfy the
    aggregated unpenalized first-order condition.  It stays positive for
    every finite strategy until the Gaussian tail underflows: a constant
    strategy of 20 on the default market gives 2.3e-151, one of 30
    gives 0.
    """
    nodes, w = average_nodes(params, n)
    return 0.5 * _trade_prob(nodes, w, np.asarray(delta(nodes), dtype=float), params.rho)


def verify_ne(
    delta: Strategy,
    params: MarketParams,
    fees: FeeScheme,
    x_samples: int = 256,
    quad_n: int = 64,
) -> float:
    """Largest deviation gain over sampled quote offsets.

    Scans x in [0, 3 * max(delta)] at every grid sigma_a and returns the
    maximum of payoff(x) - payoff(delta(sigma_a)), floored at zero.  Each
    grid point is one batched kernel call on an (x_samples + 1, nodes)
    block.  A true equilibrium yields a value at solver-tolerance level.
    """
    if x_samples < 2:
        raise DomainError("x_samples must be >= 2")
    hi = 3.0 * delta.max_value()
    if not hi > 0.0:
        hi = 1.0
    xs = np.linspace(0.0, hi, x_samples)
    rule = default_rule(params, quad_n)
    worst = -math.inf
    for sa, held in zip(delta.grid, delta.values):
        ctx = PayoffContext(float(sa), delta, params, fees, rule)
        (vals,) = payoff_terms(np.append(xs, held), ctx, (0,))
        worst = max(worst, float(vals[:-1].max() - vals[-1]))
    return max(worst, 0.0)
