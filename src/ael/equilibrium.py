"""Equilibrium computation for the quoting game.

A strategy delta is an equilibrium when, for every sigma_a, delta(sigma_a)
maximizes the penalized payoff against delta itself.  The opponent's
strategy enters the payoff only through its values x at the q quadrature
nodes sigma_i, so an equilibrium solves G_i(x) = e'(x_i; sigma_a =
sigma_i, d = x) = 0, i = 1..q, by Newton's method on the analytic
Jacobian J = diag(e'') + w * (the kernel's cross term).  A cold solve
first solves the same system on floor(q/4) nodes and starts the q-node
Newton from the polynomial through that solution (nested iteration);
the coarse Newton starts at each node's degenerate-market root, the
same rule at every gamma > 0.
The node values converge spectrally in q, so on the markets tried that
start is already within the tolerance and the q-node system is
evaluated once; the nodes and every output stay the q-node ones.  The
strategy elsewhere is one best response against x, the Nystrom interpolant
(Atkinson, The Numerical Solution of Integral Equations of the Second
Kind, 1997, section 4.1).  That best response is analytic in sigma_a, so
its rows start from the polynomial through the node best responses
(x less one diagonal Newton step, from the last evaluation of G), which
converges spectrally and usually leaves the rows nothing to step.  Every
per-row root of e' (the best-response rows, and the maxima ``verify_ne``
takes) is found by one safeguarded Newton on all rows at once,
``_row_newton``.  Convergence is verified
through the Newton correction max|J^-1 G|, a distance in delta; one
concavity check against the solved nodes (``_concavity_ok``) decides
whether each root of the output rows is the argmax on the offsets the
strategy plays.  It proves a row strictly concave on that whole interval
where a closed-form bound on e'' (``payoff.second_deriv_bound``) is
negative, and samples e'' on the other rows.

Without fees (and with the mid-price penalty alone) no equilibrium
exists; ``no_ne_certificate`` returns the aggregated first-order-condition
integral that witnesses this (half the trade probability, positive
until the Gaussian tail underflows), and ``verify_ne`` returns the
supremum of the gain a player can realize by deviating from a candidate
strategy, over offsets up to three times its largest value.  On the rows
the same bound on e'' proves strictly concave there, that supremum is
taken by Newton from the held offset; the other rows are scanned, with
Newton from each bracketed sign change of e', and only on those can a
maximum be missed, when a scan interval hides two sign changes of e'.

For a degenerate market (sigma_minus = sigma_plus) the equilibrium
reduces to a scalar root of the one-dimensional first-order condition,
which is positive at 0, decreasing and convex, so Newton's method from
0 rises monotonically to it with no bracket (``gaussmath.monotone_newton``
in ``_degenerate_root``, for ``solve_degenerate`` and every cold start).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCase, DomainError, NoConvergence, WrongScheme
from .gaussmath import legendre_interpolate, monotone_newton, norm_cdf, norm_pdf
from .model import (
    FeeScheme,
    LinearDemand,
    MarketParams,
    MidQuad,
    NoFee,
    SpreadQuad,
    Strategy,
    _trade_prob,
    default_rule,
    q_rho,
    sigma_rho,
    uniform_grid,
)
from .payoff import PayoffContext, payoff_terms, second_deriv_bound

_SQRT2 = math.sqrt(2.0)
_MAX_NEWTON = 100  # Newton steps of a best response
_MAX_HALVINGS = 50  # step halvings before a Newton step gives up
_DEVIATION_SPAN = 3.0  # offsets up to this multiple of max delta are checked
_BLOCK_ELEMENTS = 65792  # kernel values per _scan call unless one offset holds more: 2.1 MB
_POLISH_STEPS = 8  # Newton steps of verify_ne's proven rows and scan peaks
VERIFY_X_SAMPLES = 33  # default scan density of verify_ne
_CONCAVITY_OFFSETS = 50  # offsets at which _concavity_ok samples e'' on unproven rows
_COARSE_RATIO = 4  # a cold solve first solves the node system on quad_n // 4 nodes
_COARSE_MIN = 8  # fewest nodes of that coarse level; below it, no coarse level


@dataclass(frozen=True)
class SolverConfig:
    """Equilibrium solver knobs: ``quad_n`` quadrature nodes, which are
    the unknowns, and ``grid_n`` uniform rows of the returned strategy;
    ``tol`` bounds max|J^-1 G| and ``max_iter`` the evaluations of G at
    each node level of a solve.
    ``quad_n`` is the package's only default node count of a sigma_b rule."""

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
    """Solved equilibrium with its convergence diagnostics.

    ``nodes``: the solved node values x, as ``Strategy(nodes, x)`` on the
    ``quad_n`` quadrature nodes.  ``strategy``: the best response against
    ``nodes`` on ``grid_n`` rows, the published output, each row within a
    Newton step of max(tol * 1e-3, 1e-13) of its root of e'.  ``residual``:
    the Newton correction max|J^-1 G| at ``nodes``; ``iterations``: the
    evaluations of G and J on the ``quad_n`` nodes, not counting a cold
    solve's coarse level.  ``concavity_ok``: the penalized payoff
    against ``nodes`` has a negative second derivative at every row on
    the offsets (0, max(C, 3 max strategy)], proven on the whole interval
    at the rows where ``payoff.second_deriv_bound`` allows it and sampled
    at the others; C is ``existence_bound``'s (0 on a degenerate market),
    and ``_concavity_ok`` says when the verdict certifies the global
    argmax.  ``converged``: the residual reached ``tol`` and
    ``concavity_ok`` holds.
    """

    nodes: Strategy
    strategy: Strategy
    residual: float
    iterations: int
    converged: bool
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


def _degenerate_foc(fees: FeeScheme, x, sigma, rho: float):
    """First-order condition of the symmetric degenerate game at the
    offsets ``x`` and its slope, elementwise in ``x`` and ``sigma``.

    The Gaussian tail is Phi(-u), which keeps its relative precision deep
    in the tail, where 1 - Phi(u) is a multiple of eps/2.  Both schemes'
    conditions are positive at 0, strictly decreasing and convex on
    [0, inf)."""
    se = np.multiply(sigma, math.sqrt(1.0 - rho))
    u = _SQRT2 * x / se
    tail = norm_cdf(-u)
    g = fees.gamma
    if isinstance(fees, SpreadQuad):
        return 0.5 * tail - 2.0 * g * x, -0.5 * norm_pdf(u) * _SQRT2 / se - 2.0 * g
    kbar = fees.kbar
    # the two Phi' terms of the slope cancel along the diagonal
    return (0.5 * kbar * (-x * tail + (se / _SQRT2) * norm_pdf(u)) - 2.0 * g * x,
            -0.5 * kbar * tail - 2.0 * g)


def _degenerate_root(fees: FeeScheme, sigma, rho: float):
    """Root of the degenerate first-order condition at every ``sigma`` (a
    float or an array), by ``monotone_newton`` from 0 on all of them at
    once: the condition is positive at 0, decreasing and convex."""
    return monotone_newton(lambda x: _degenerate_foc(fees, x, sigma, rho),
                           np.zeros(np.shape(sigma)))


def solve_degenerate(params: MarketParams, fees: FeeScheme) -> float:
    """Scalar equilibrium half-spread of a degenerate market.

    Only the spread-penalty and half-linear schemes admit one; its root
    of the first-order condition (``_degenerate_root``) is located to a
    few ulp.
    """
    if not params.is_degenerate:
        raise DomainError("solve_degenerate requires sigma_minus = sigma_plus")
    _require_solvable(fees)
    _require_rho_bound(params)
    return float(_degenerate_root(fees, params.sigma_plus, params.rho))


def existence_bound(
    params: MarketParams, fees: FeeScheme, quad_n: int = SolverConfig.quad_n
) -> tuple[float, float]:
    """Closed-form invariant-set bound C and penalty threshold gamma_min.

    For the spread penalty, strategies within [0, C] keep every payoff
    strictly concave on (0, C), and gamma >= gamma_min forces the best
    response back into [0, C]; the threshold is conservative by
    construction.  C says nothing about offsets past it (0.0043 on the
    default market).  For half-linear demand the threshold is
    (kbar/2) * max_z(z Phi'(z) - (1 - Phi(z))), attained at z = sqrt(2),
    and C = kbar Phi'(0) max avg[S Q] / (4 gamma), the max over 33
    sigma_a and the average by a ``quad_n``-node rule.  Q >= 0 under
    rho <= sigma_minus/sigma_plus, so at offsets and strategy values
    x, d >= 0, h'(x) <= (kbar/2) Phi'(0) avg[S Q] - 2 gamma x, which is
    negative past C: no payoff has a maximum beyond C.
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
        if not c > 0.0:  # rho = sigma_minus/sigma_plus: no finite gamma certifies {0}
            return 0.0, math.inf
        u = c / (_SQRT2 * sp)
        gamma_min = (1.0 - norm_cdf(u)) / (4.0 * c) + norm_pdf(u) / (2.0 * _SQRT2 * sm)
        return c, gamma_min

    z = _SQRT2
    gamma_min = 0.5 * fees.kbar * (z * norm_pdf(z) - (1.0 - norm_cdf(z)))
    nodes, w = default_rule(params, quad_n)
    sa = np.linspace(sm, sp, 33)[:, None]
    best = max(0.0, float(np.max((sigma_rho(sa, nodes, rho) * q_rho(sa, nodes, rho)) @ w)))
    c = fees.kbar / (4.0 * fees.gamma) * best * norm_pdf(0.0)
    return c, gamma_min


def _newton(system, x: np.ndarray, tol: float, max_iter: int):
    """Newton iteration of the node system from ``x`` on
    system(x) -> (G, J^-1 G, ...), each step x - t J^-1 G with t halved
    from 1 until x >= 0 and max|G| does not grow.  The rows' roots of e'
    take ``_row_newton`` instead.

    Stops at max|J^-1 G| <= tol, at ``max_iter`` evaluations or when no
    halving is accepted, and returns (x, max|J^-1 G| at x, evaluations,
    system(x)).  A non-finite step raises NoConvergence.
    """
    at = system(x)
    for iterations in range(1, max_iter + 1):
        g, step = at[:2]
        residual = float(np.max(np.abs(step)))
        if not math.isfinite(residual):
            raise NoConvergence(f"non-finite Newton step at evaluation {iterations}")
        if residual <= tol or iterations == max_iter:
            break
        size = np.max(np.abs(g))
        for t in 0.5 ** np.arange(_MAX_HALVINGS):
            cand = x - t * step
            if np.all(cand >= 0.0):
                at_cand = system(cand)
                if np.max(np.abs(at_cand[0])) <= size:
                    break
        else:
            break
        x, at = cand, at_cand
    return x, residual, iterations, at


def _row_newton(ctx: PayoffContext, x, lo, up, hi: float, tol: float, steps: int, orders,
                terms=None):
    """Safeguarded Newton on e' at every row of the row context ``ctx``,
    one offset per row from ``x`` (Press et al., Numerical Recipes, 3rd
    ed., section 9.4, ``rtsafe``).  ``orders`` ends in (1, 2); ``terms``,
    if given, holds their ``payoff_terms`` at ``x``.

    Each step is one kernel call on all rows.  The sign of e' at the
    iterate narrows each row's bracket [lo, up], where NaN marks an end
    not yet known.  Every row moves to its Newton point clipped to
    [0, hi], or to its bracket's midpoint where that point leaves a
    bracket whose two ends are known; with one end known the Newton
    point stands.  Stops once no step exceeds ``tol``, after ``steps``
    steps, or at a non-finite step.  Returns the last iterate, its terms
    and whether each row's step there is within ``tol``.
    """
    for taken in range(steps + 1):
        if terms is None:
            terms = payoff_terms(x, ctx, orders)
        d1, d2 = terms[-2:]
        lo = np.where(d1 > 0.0, x, lo)
        up = np.where(d1 < 0.0, x, up)
        mid = 0.5 * (lo + up)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.minimum(np.maximum(x - d1 / d2, 0.0), hi)
        new = np.where(((newton < lo) | (newton > up)) & ~np.isnan(mid), mid, newton)
        step = new - x
        done = np.abs(step) <= tol
        if done.all() or taken == steps or not np.isfinite(step).all():
            return x, terms, done
        x = new
        terms = None


def _argmax_rows(ctx: PayoffContext, start: np.ndarray, tol: float) -> np.ndarray:
    """Root of the first-order condition at every sigma_a of the row
    context ``ctx``: ``_row_newton`` from the caller's ``start``, with no
    bracket and no upper end, to a step within max(tol * 1e-3, 1e-13) at
    every row, else NoConvergence."""
    argmax_tol = max(tol * 1e-3, 1e-13)
    x, _, done = _row_newton(ctx, start, np.nan, np.nan, math.inf, argmax_tol, _MAX_NEWTON, (1, 2))
    if not np.all(done):
        raise NoConvergence(f"best response not located at {np.count_nonzero(~done)} of "
                            f"{done.size} rows")
    return x


def best_response(
    delta: Strategy, params: MarketParams, fees: FeeScheme, cfg: SolverConfig = SolverConfig()
) -> Strategy:
    """Pointwise argmax strategy against ``delta`` on ``cfg.grid_n`` uniform rows.

    All rows are solved by one safeguarded Newton loop on the batched
    kernel (``_argmax_rows``), started from ``delta`` itself (its
    piecewise-linear interpolant, flat past its grid): an arbitrary
    ``delta`` carries no first-order condition to start from.  This
    locates a root of the first-order condition only; whether it is the
    argmax is the concavity verdict of ``solve_fixed_point``.
    """
    _require_rho_bound(params)
    rows = uniform_grid(params, cfg.grid_n)
    ctx = PayoffContext(rows, delta, params, fees, default_rule(params, cfg.quad_n))
    return Strategy(rows, _argmax_rows(ctx, delta(np.clip(rows, delta.grid[0], delta.grid[-1])),
                                       cfg.tol))


def _node_system(params: MarketParams, fees: FeeScheme, rule):
    """The node system of ``rule`` for ``_newton``: x -> (G, J^-1 G, e''),
    one node context built here and re-pointed (``PayoffContext.against``)
    at each evaluation, one kernel call with the cross term per
    evaluation.  A singular J raises NoConvergence."""
    node_ctx = PayoffContext(rule[0], None, params, fees, rule)

    def system(x):
        ctx = node_ctx.against(x)
        g, d2, jac = payoff_terms(x, ctx, (1, 2), cross=True)
        jac *= ctx.w
        jac.flat[::jac.shape[0] + 1] += d2
        try:
            return g, np.linalg.solve(jac, g), d2
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular equilibrium Jacobian: {exc}") from None

    return system


def _cold_start(params: MarketParams, fees: FeeScheme, cfg: SolverConfig,
                nodes: np.ndarray) -> np.ndarray:
    """Start of a solve without ``init`` at ``nodes``, the ``cfg.quad_n``
    nodes: the node system of the floor(q/4)-node rule solved by the
    same ``_newton`` from the degenerate root at each coarse node's own
    sigma (``_degenerate_root``), to ``cfg.tol`` within ``cfg.max_iter``
    evaluations, then its polynomial interpolant at ``nodes``
    (``legendre_interpolate``) clipped at 0 (nested iteration: Hackbusch,
    Multi-Grid Methods and Applications, 1985, section 5.3).  The
    degenerate roots at ``nodes`` instead on a degenerate market, below
    ``_COARSE_MIN`` coarse nodes, and where the coarse solve raises
    NoConvergence or stops above ``tol``."""
    coarse_n = cfg.quad_n // _COARSE_RATIO
    if not params.is_degenerate and coarse_n >= _COARSE_MIN:
        coarse_rule = coarse, _ = default_rule(params, coarse_n)
        try:
            x, residual, _, _ = _newton(_node_system(params, fees, coarse_rule),
                                        _degenerate_root(fees, coarse, params.rho),
                                        cfg.tol, cfg.max_iter)
        except NoConvergence:
            residual = math.inf
        if residual <= cfg.tol:
            return np.maximum(legendre_interpolate(coarse, x, nodes), 0.0)
    return _degenerate_root(fees, nodes, params.rho)


def _concavity_ok(rows: Strategy, ctx: PayoffContext, bound_c: float) -> bool:
    """Whether the penalized payoff of the row context ``ctx``, on the
    sigma_a of ``rows`` against the node strategy whose roots ``rows``
    holds, is strictly concave in the offset at every row on
    (0, max(bound_C, 3 max rows)].

    The upper end covers both ``existence_bound``'s C (0 on a degenerate
    market) and the offsets over which ``verify_ne`` takes its supremum
    on ``rows``.  A row whose closed-form bound on e''
    (``payoff.second_deriv_bound``) is negative is proven strictly
    concave on the whole interval.  On the other rows e'' is sampled at
    ``_CONCAVITY_OFFSETS`` offsets by ``_scan``, stopping at the first
    block with a non-negative value.  Strict concavity also rules out a
    second sign change of the derivative, so each located root is the
    argmax on that interval.  Under half-linear demand h' < 0 past C at
    every row, so that argmax is the global one; under the spread
    penalty C is only the invariant-set bound, and nothing covers the
    offsets past the interval.  The check bounds or samples e''; it does
    not measure how far a row is from its argmax, which is what
    ``verify_ne``'s gain does.
    """
    hi = max(bound_c, _DEVIATION_SPAN * rows.max_value())
    if not 0.0 < hi < math.inf:
        return False
    # a NaN bound proves nothing, so it is sampled too
    unproven = np.flatnonzero(~(second_deriv_bound(ctx, hi) < 0.0))
    if not unproven.size:
        return True
    offsets = np.linspace(0.0, hi, _CONCAVITY_OFFSETS + 1)[1:]
    return not any(np.any(d2 >= 0.0) for (d2,) in _scan(ctx.rows(unproven), offsets, (2,)))


def solve_fixed_point(
    params: MarketParams,
    fees: FeeScheme,
    cfg: SolverConfig = SolverConfig(),
    init: Strategy | None = None,
) -> EquilibriumReport:
    """Newton solve of G(x) = 0 on the q = ``quad_n`` quadrature nodes.

    The node values start at ``init`` read at the nodes (clamped to its
    grid).  Without ``init``, ``_cold_start`` solves a coarse level, the
    same node system on floor(q/4) nodes, to the same ``tol`` from the
    degenerate-market root at each coarse node's own sigma, and reads it
    at the q nodes; a degenerate market is one unit-weight node.  The
    coarse level builds no row context and runs no check, and where it
    fails the q-node Newton starts from the degenerate roots at its own
    nodes.  Each level builds one node context and
    re-points it (``PayoffContext.against``) at each evaluation of G and
    J; ``_newton`` stops at max|J^-1 G| <= ``tol`` or after ``max_iter``
    evaluations.  The report's ``nodes`` are the q node values returned,
    with their residual and their evaluations.  One row context against
    them gives both the output rows and the ``_concavity_ok`` verdict; a
    failed check reports converged=False, never raises.  The rows are the best response of
    ``_argmax_rows``, one ``_row_newton`` on every row, started from
    ``gaussmath.legendre_interpolate`` of the node best responses b = x -
    G/e'', a diagonal Newton step from the G and e'' that ``_newton``
    evaluated at the returned x, so no kernel call is added; where e'' is
    >= 0 or not finite, b = x.  The start is clipped at 0.  It is within
    the argmax step of the rows on the markets tried, so the row phase
    takes one kernel call where a linear start takes two or three.
    """
    _require_solvable(fees)
    _require_rho_bound(params)

    bound_c = 0.0 if params.is_degenerate else existence_bound(params, fees, cfg.quad_n)[0]
    rule = default_rule(params, cfg.quad_n)
    nodes = rule[0]
    x = (_cold_start(params, fees, cfg, nodes) if init is None
         else init(np.clip(nodes, init.grid[0], init.grid[-1])))
    x, residual, iterations, (g, _, d2) = _newton(
        _node_system(params, fees, rule), x, cfg.tol, cfg.max_iter)
    solved = Strategy(nodes, x)
    # each node's best response against x, one diagonal Newton step away;
    # where e'' proves no maximum, the node value itself
    curved = np.isfinite(d2) & (d2 < 0.0)
    b = x - np.divide(g, d2, out=np.zeros_like(x), where=curved)
    rows = uniform_grid(params, cfg.grid_n)
    row_ctx = PayoffContext(rows, solved, params, fees, rule)
    start = np.maximum(legendre_interpolate(nodes, b, rows), 0.0)
    delta = Strategy(rows, _argmax_rows(row_ctx, start, cfg.tol))
    concavity = _concavity_ok(delta, row_ctx, bound_c)
    return EquilibriumReport(
        nodes=solved,
        strategy=delta,
        residual=residual,
        iterations=iterations,
        converged=residual <= cfg.tol and concavity,
        concavity_ok=concavity,
    )


def no_ne_certificate(
    delta: Strategy, params: MarketParams, quad_n: int = SolverConfig.quad_n
) -> float:
    """Normalized double average of (1/2) Phi(-(d_a + d_b)/Sigma_rho) on
    the ``quad_n``-node rule, half the trade probability of ``delta``.

    An unpenalized equilibrium would force this integral to zero, so a
    positive value certifies that ``delta`` cannot satisfy the
    aggregated unpenalized first-order condition.  It stays positive for
    every finite strategy until the Gaussian tail underflows: a constant
    strategy of 20 on the default market gives 2.3e-151, one of 30
    gives 0.
    """
    nodes, w = default_rule(params, quad_n)
    return 0.5 * _trade_prob(nodes, w, np.asarray(delta(nodes), dtype=float), params.rho)


def _scan(ctx: PayoffContext, xs: np.ndarray, orders):
    """``payoff_terms`` of ``orders`` at the offsets ``xs`` on every row of
    the row context ``ctx``, one block of offsets per kernel call, each
    yielded as arrays of shape (offsets, rows).  A block holds as many
    offsets as fit in ``_BLOCK_ELEMENTS`` kernel values, and at least one."""
    step = max(1, _BLOCK_ELEMENTS // ctx.sig.size)
    for i in range(0, xs.size, step):
        yield payoff_terms(xs[i:i + step, None], ctx, orders)


def _scan_sup(ctx: PayoffContext, xs: np.ndarray, hi: float, tol: float) -> np.ndarray:
    """Supremum of the payoff over the offsets ``xs`` at every row of the
    row context ``ctx``: e and e' at every offset by ``_scan``, then
    ``_row_newton`` from the secant point of every + -> - sign change of
    e' between neighbours, all such brackets in one kernel call per step."""
    vals, slopes = (np.concatenate(terms).T for terms in zip(*_scan(ctx, xs, (0, 1))))
    at, j = np.nonzero((slopes[:, :-1] > 0.0) & (slopes[:, 1:] <= 0.0))
    best = vals.max(axis=1)
    if at.size:
        lo, up = xs[j], xs[j + 1]
        d_lo, d_up = slopes[at, j], slopes[at, j + 1]
        start = lo + d_lo * (up - lo) / (d_lo - d_up)
        _, (peaks, _, _), _ = _row_newton(ctx.rows(at), start, lo, up, hi, tol,
                                         _POLISH_STEPS, (0, 1, 2))
        np.maximum.at(best, at, peaks)
    return best


def verify_ne(
    delta: Strategy,
    params: MarketParams,
    fees: FeeScheme,
    x_samples: int = VERIFY_X_SAMPLES,
    quad_n: int = SolverConfig.quad_n,
) -> float:
    """Largest gain a player can realize by deviating from ``delta``.

    At every grid sigma_a, the supremum of payoff(x) over the offsets
    x in [0, hi], hi = 3 * max(delta), less payoff(delta(sigma_a)),
    maximized over the rows; the held offset is a candidate, so the gain
    is >= 0.  One kernel call gives e, e' and e'' at the held offset of
    every row.

    A row whose closed-form bound on e'' over [0, hi]
    (``payoff.second_deriv_bound``) is negative is strictly concave
    there, so its supremum is the one root of e' or an end of the
    interval: ``_row_newton`` from the held offset finds it to a step of
    1e-12 * hi, in at most ``_POLISH_STEPS`` steps on all such rows
    together.  Every other row, and a proven one whose Newton does not
    reach that step, is scanned (``_scan_sup``): ``x_samples`` evenly
    spaced offsets for e and e', then ``_row_newton`` with the same step
    and step cap from the secant point of every + -> - sign change of e'
    between neighbours, inside that bracket.  A scanned row's supremum is
    the largest of its scanned values and the maxima Newton finds, so on
    scanned rows a maximum is missed only when a scan interval hides two
    sign changes of e'.

    One context holds every grid row and is sliced by
    ``PayoffContext.rows``.  The held offsets, the proven rows' Newton
    and the peak Newton take one offset per row; the scan takes blocks
    of offsets against all scanned rows (``_scan``, which also samples
    ``_concavity_ok``'s e'').  A true equilibrium yields a value at
    rounding level, and a converged solve one of order e'' times the
    squared distance between each row and its best response.
    """
    if x_samples < 2:
        raise DomainError("x_samples must be >= 2")
    hi = _DEVIATION_SPAN * delta.max_value()
    if not hi > 0.0:
        hi = 1.0
    tol = 1e-12 * hi
    ctx = PayoffContext(delta.grid, delta, params, fees, default_rule(params, quad_n))
    x = delta.values
    terms = payoff_terms(x, ctx, (0, 1, 2))
    held = terms[0]
    best = held.copy()
    # a NaN bound proves nothing, so that row is scanned
    proven = np.flatnonzero(second_deriv_bound(ctx, hi) < 0.0)
    _, (sup, _, _), done = _row_newton(ctx.rows(proven), x[proven], np.nan, np.nan, hi, tol,
                                       _POLISH_STEPS, (0, 1, 2), [t[proven] for t in terms])
    solved = proven[done]
    best[solved] = sup[done]
    scan = np.setdiff1d(np.arange(delta.grid.size), solved)
    if scan.size:
        best[scan] = _scan_sup(ctx.rows(scan), np.linspace(0.0, hi, x_samples), hi, tol)
    return float(np.max(np.maximum(best, held) - held))
