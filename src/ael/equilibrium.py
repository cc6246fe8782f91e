"""Equilibrium computation for the quoting game.

A strategy delta is an equilibrium when, for every sigma_a, delta(sigma_a)
maximizes the penalized payoff against delta itself.  Equilibria are
computed as fixed points of the best-response operator by Anderson
mixing (Walker & Ni, SIAM J. Numer. Anal. 49, 2011), which falls back to
a damped step whenever the residual more than doubles; convergence is
never assumed, only verified through the sup-norm residual
|delta - BR(delta)| of the returned strategy.  ``best_response`` locates a
root of the first-order condition, and one concavity check on the
solved strategy (``_concavity_ok``) decides whether that root is the
argmax on the offsets the strategy plays.

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
    WrongScheme,
)
from .gaussmath import Bracket, find_root, norm_cdf, norm_pdf
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
_MAX_NEWTON = 100
_DAMPING = 0.5  # weight of the residual in each mixing step
_HISTORY = 3  # Anderson depth: past differences the mixing step combines
_DEVIATION_SPAN = 3.0  # offsets up to this multiple of max delta are checked


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point solver knobs."""

    grid_n: int = 101
    tol: float = 1e-7
    max_iter: int = 200
    quad_n: int = 64

    def __post_init__(self):
        if self.grid_n < 2:
            raise DomainError("grid_n must be >= 2")
        if not self.tol > 0.0:
            raise DomainError("tol must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")
        if self.quad_n < 1:
            raise DomainError("quad_n must be >= 1")


@dataclass(frozen=True)
class EquilibriumReport:
    """Solved strategy with residual and existence-bound diagnostics.

    ``concavity_ok``: the penalized payoff against ``strategy`` has a
    negative second derivative at every grid sigma_a on the offsets
    (0, max(bound_C, 3 max strategy)].  ``converged``: the sup-norm
    residual |strategy - BR(strategy)| reached the solver tolerance
    within max_iter iterations and ``concavity_ok`` holds.
    """

    strategy: Strategy
    residual: float
    iterations: int
    converged: bool
    bound_C: float
    gamma_min: float
    concavity_ok: bool


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
    """Scalar first-order condition of the symmetric degenerate game, its
    slope, and an upper end hi > 0 of a sign-change bracket [0, hi]."""
    se = sigma * math.sqrt(1.0 - rho)
    g = fees.gamma
    if isinstance(fees, SpreadQuad):

        def f(x: float) -> float:
            return 0.5 * (1.0 - norm_cdf(_SQRT2 * x / se)) - 2.0 * g * x

        def df(x: float) -> float:
            return -0.5 * norm_pdf(_SQRT2 * x / se) * _SQRT2 / se - 2.0 * g

        # f(x) <= 1/2 - 2 g x, which is negative past 1/(4 g)
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

    # for x >= 0, f(x) <= kbar se Phi'(0) / (2 sqrt 2) - 2 g x, which is
    # negative past kbar se Phi'(0) / (4 sqrt 2 g)
    hi = kbar * se * norm_pdf(0.0) / (4.0 * _SQRT2 * g) + se
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

    Only the spread-penalty and half-linear schemes admit one.  The
    first-order condition is positive at 0 and strictly decreasing past
    its root; both schemes bracket it on [0, hi] with hi in closed form
    (the FOC is bounded above by a line of slope -2 gamma), and Brent
    iteration plus two Newton steps locate it to
    |FOC| <= 1e-12 * max(1, gamma).
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

    All grid points are solved at once on one batched payoff kernel, by
    one Newton iteration on the analytic second derivative that starts
    at ``delta``'s own values (in ``solve_fixed_point`` the current
    iterate, so the start is warm).  Each point keeps a bracket [lo, up]
    from the sign of the derivative; a step that leaves it falls back to
    the midpoint, or to doubling while no negative derivative has been
    seen (BracketFailure after 60 doublings).  Iteration stops once the
    step is within max(tol * 1e-3, 1e-13).  This locates a root of the
    first-order condition only; whether it is the argmax is the
    concavity verdict of ``solve_fixed_point``.
    """
    _require_rho_bound(params)
    ctx = PayoffContext(delta.grid, delta, params, fees, default_rule(params, cfg.quad_n))
    argmax_tol = max(cfg.tol * 1e-3, 1e-13)

    x = delta.values
    lo = np.zeros(x.shape)
    up = np.full(x.shape, math.inf)
    doublings = np.zeros(x.shape, dtype=int)
    active = np.ones(x.shape, dtype=bool)
    for _ in range(_MAX_NEWTON):
        if not active.any():
            break
        d1, d2 = payoff_terms(x, ctx, (1, 2))
        lo = np.where(d1 >= 0.0, x, lo)
        up = np.where(d1 < 0.0, x, up)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = x - d1 / d2
        inside = (lo <= nxt) & (nxt <= up)  # a zero derivative steps to x itself
        grow = active & ~inside & np.isinf(up)
        doublings += grow
        if np.any(doublings > _MAX_DOUBLINGS):
            i = int(np.argmax(doublings))
            raise BracketFailure(f"payoff derivative never turned negative below {x[i]} "
                                 f"(sigma_a={delta.grid[i]})")
        # 2x + tol doubles away from an offset of 0 too
        nxt = np.where(inside, nxt, np.where(grow, 2.0 * x + argmax_tol, 0.5 * (lo + up)))
        converged = np.abs(nxt - x) <= argmax_tol
        x = np.where(active, nxt, x)
        active &= ~converged
    if active.any():
        raise NoConvergence(f"best response not located within {_MAX_NEWTON} Newton steps")
    return Strategy(delta.grid, x)


def _concavity_ok(
    delta: Strategy,
    params: MarketParams,
    fees: FeeScheme,
    cfg: SolverConfig,
    bound_c: float,
) -> bool:
    """Whether the penalized payoff against ``delta`` is strictly concave
    in the offset at every grid sigma_a, on (0, max(bound_C, 3 max delta)].

    The upper end covers both the invariant set and the offsets
    ``verify_ne`` scans.  The second derivative is sampled at 50 offsets,
    one kernel call over the whole grid per offset.  Strict concavity
    there also rules out a second sign change of the derivative, so a
    root ``best_response`` located is the argmax on that interval.
    """
    hi = max(bound_c, _DEVIATION_SPAN * delta.max_value())
    if not 0.0 < hi < math.inf:
        return False
    ctx = PayoffContext(delta.grid, delta, params, fees, default_rule(params, cfg.quad_n))
    for x in np.linspace(0.0, hi, 51)[1:]:
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
    """Anderson-mixed fixed-point iteration on the best-response operator.

    The iterate starts at the constant C/2 when gamma clears the
    analytic threshold, otherwise at the degenerate-market root for
    sigma_plus (the analytic threshold is far from tight, and fixed
    points routinely exist below it).  Each iteration is one
    ``best_response`` call warm-started at the iterate delta, giving the
    residual f = BR(delta) - delta.  The next iterate is
    delta + b f - (dX + b dF) c, with b = 0.5, dX and dF the last three
    differences of iterates and of residuals, and c the least-squares
    solution of dF c = f; it is clipped at 0, since a strategy cannot
    be negative.  When the sup-norm residual more than doubles the
    history is cleared, so that step is the plain damped one
    delta + b f.  The loop stops once the residual is within ``tol``
    (or after ``max_iter`` best responses), and the strategy returned is
    the one whose residual was measured.  ``_concavity_ok`` then runs
    once on it; a failed check reports converged=False, so a non-concave
    payoff is flagged, never raised and never silently accepted.
    """
    _require_solvable(fees)
    _require_rho_bound(params)

    if params.is_degenerate:
        grid = uniform_grid(params)
        root = _degenerate_root(fees, params.sigma_plus, params.rho)
        bound_c, gamma_min = 2.0 * root, 0.0
        start = root
    else:
        grid = uniform_grid(params, cfg.grid_n)
        bound_c, gamma_min = existence_bound(params, fees, cfg.quad_n)
        if fees.gamma >= gamma_min:
            start = 0.5 * bound_c
        else:
            start = _degenerate_root(fees, params.sigma_plus, params.rho)

    delta = init if init is not None else Strategy(grid, np.full(grid.shape, start))
    if init is not None and (init.grid.shape != grid.shape or not np.allclose(init.grid, grid)):
        raise DomainError("initial strategy grid does not match the solver grid")

    dx, df = [], []  # last _HISTORY differences of iterates and of residuals
    for iterations in range(1, cfg.max_iter + 1):
        x = delta.values
        f = best_response(delta, params, fees, cfg).values - x
        residual = float(np.max(np.abs(f)))
        if residual <= cfg.tol or iterations == cfg.max_iter:
            break
        if iterations > 1 and residual <= 2.0 * prev_residual:
            dx = [*dx, x - prev_x][-_HISTORY:]
            df = [*df, f - prev_f][-_HISTORY:]
        else:
            dx, df = [], []
        prev_x, prev_f, prev_residual = x, f, residual
        step = x + _DAMPING * f
        if df:
            dx_mat, df_mat = np.column_stack(dx), np.column_stack(df)
            coef = np.linalg.lstsq(df_mat, f, rcond=None)[0]
            step -= (dx_mat + _DAMPING * df_mat) @ coef
        delta = Strategy(grid, np.maximum(step, 0.0))

    concavity = _concavity_ok(delta, params, fees, cfg, bound_c)
    return EquilibriumReport(
        strategy=delta,
        residual=residual,
        iterations=iterations,
        converged=residual <= cfg.tol and concavity,
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
    hi = _DEVIATION_SPAN * delta.max_value()
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
