"""Equilibrium computation for the quoting game.

A strategy delta is an equilibrium when, for every sigma_a, delta(sigma_a)
maximizes the penalized payoff against delta itself.  The opponent's
strategy enters the payoff only through its values x at the q quadrature
nodes sigma_i, so an equilibrium solves G_i(x) = e'(x_i; sigma_a =
sigma_i, d = x) = 0, i = 1..q, by Newton's method on the analytic
Jacobian J = diag(e'') + w * (the kernel's cross term), each step taken
whole or not at all (``_newton``).  A cold solve climbs (``_cold_start``):
the system on floor(q/4) nodes, or on the q nodes below ``_COARSE_MIN``
coarse ones, is solved from the degenerate-market roots at 10^k gamma,
k = 0, 1, ..., until one converges, then back down a decade at a time,
and the q-node Newton starts from the polynomial through that solution.
The climb's decades share one context, priced at each.  The node
values converge spectrally in q, so on the markets tried that
start is already within the tolerance and the q-node system is
evaluated once; the nodes and every output stay the q-node ones.  The
strategy elsewhere is one best response against x, the Nystrom interpolant
(Atkinson, The Numerical Solution of Integral Equations of the Second
Kind, 1997, section 4.1).  That best response is analytic in sigma_a, so
its rows start from the polynomial through the node best responses
(x less one diagonal Newton step, from the last evaluation of G), which
converges spectrally and usually leaves the rows nothing to step.  Every
per-row root of e' (the best-response rows, and the maxima ``_row_sup``
takes) is found by one safeguarded Newton on all rows at once,
``_row_newton``.  Convergence is verified through the Newton correction
max|J^-1 G|, a distance in delta, and the deviation gain: one routine,
``_row_sup``, decides whether each row is a best response, by the most
it gains at offsets up to max(C, 3 max delta), at most ``GAIN_TOL``
in a converged solve.  Rows that a closed-form bound on e''
(``payoff.second_deriv_bound``) proves strictly concave there take Newton
from the held offset; the others are scanned, with Newton from each
bracketed sign change of e', and only there can a maximum hide, in a
scan interval with two sign changes of e'.  The concavity flag
(``_concavity_ok``) reads the same scan's e': a scanned row whose e'
does not fall between two neighbouring offsets fails it.  It is
reported: sufficient for the argmax, not necessary.

Without fees (and with the mid-price penalty alone) no equilibrium
exists; ``no_ne_certificate`` returns the aggregated first-order-condition
integral that witnesses this (half the trade probability, positive
until the Gaussian tail underflows), and ``verify_ne`` returns the
largest gain a player can realize by deviating from a candidate
strategy, over offsets up to three times its largest value, by the same
``_row_sup``.

For a degenerate market (sigma_minus = sigma_plus) the equilibrium
reduces to a scalar root of the one-dimensional first-order condition,
which is positive at 0, decreasing and convex, so Newton's method from
0 rises monotonically to it with no bracket (``gaussmath.monotone_newton``
in ``_degenerate_root``, for ``solve_degenerate`` and every cold start).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
_DEVIATION_SPAN = 3.0  # offsets up to this multiple of max delta are checked
_BLOCK_ELEMENTS = 65792  # kernel values per scan call unless one offset holds more: 2.1 MB
_POLISH_STEPS = 8  # Newton steps of _row_sup's proven rows and scan peaks
VERIFY_X_SAMPLES = 33  # scan offsets of a solve's gain and flag, and verify_ne's default
GAIN_TOL = 1e-12  # largest deviation gain of a converged solve: 1e5 times e's rounding
_COARSE_RATIO = 4  # a cold solve first solves the node system on quad_n // 4 nodes
_COARSE_MIN = 8  # fewest nodes of that coarse level; below it, the climb is on quad_n nodes
_DECADES = 8  # a failed cold solve of the climb is retried at up to 10**_DECADES times gamma


@dataclass(frozen=True)
class SolverConfig:
    """Equilibrium solver knobs: ``quad_n`` quadrature nodes, which are
    the unknowns, and ``grid_n`` uniform rows of the returned strategy;
    ``tol`` bounds max|J^-1 G| and ``max_iter`` the evaluations of G of each
    Newton run; a cold solve's climb makes up to 2 ``_DECADES`` + 1 runs.
    ``quad_n`` is the package's only default node count of a sigma_b rule."""

    grid_n: int = 101
    tol: float = 1e-7
    max_iter: int = 200
    quad_n: int = 64

    @property
    def row_tol(self) -> float:
        """Newton step bound of the output rows' best response."""
        return max(self.tol * 1e-3, 1e-13)

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
    Newton step of ``SolverConfig.row_tol`` of its root of e'.
    ``residual``: the Newton correction max|J^-1 G| at ``nodes``;
    ``iterations``: the evaluations of G and J at accepted iterates on the
    ``quad_n`` nodes, not counting the climb's, so 1 where a cold solve
    climbed on that rule (below 32 nodes).  ``deviation_gain``: the most
    any row gains against ``nodes`` at an offset in [0, max(C, 3 max
    strategy)] (``_row_sup``), C being ``existence_bound``'s (0 on a
    degenerate market).  ``converged``: the residual reached ``tol`` and
    the gain ``GAIN_TOL``.  ``concavity_ok``, reported only: every row is
    proven strictly concave against ``nodes`` on [0, max(C, 3 max
    strategy)] by the bound on e'', or its e' falls between every pair of
    neighbouring offsets of the gain's scan (``_concavity_ok``).
    """

    nodes: Strategy
    strategy: Strategy
    residual: float
    iterations: int
    converged: bool
    concavity_ok: bool
    deviation_gain: float


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
    system(x) -> (G, J^-1 G, ...), each step the full x - J^-1 G, taken
    when it keeps x >= 0 and max|G| there does not exceed max|G| at x (a
    NaN rejects it).  The rows' roots of e' take ``_row_newton`` instead.

    Stops at max|J^-1 G| <= tol, at ``max_iter`` evaluations or at a
    rejected step, and returns (x, max|J^-1 G| at x, evaluations at the
    accepted iterates, system(x)).  A non-finite step raises NoConvergence.
    """
    at = system(x)
    for iterations in range(1, max_iter + 1):
        g, step = at[:2]
        residual = float(np.max(np.abs(step)))
        if not math.isfinite(residual):
            raise NoConvergence(f"non-finite Newton step at evaluation {iterations}")
        if residual <= tol or iterations == max_iter:
            break
        cand = x - step
        if not np.all(cand >= 0.0):
            break
        at_cand = system(cand)
        if not np.max(np.abs(at_cand[0])) <= np.max(np.abs(g)):
            break
        x, at = cand, at_cand
    return x, residual, iterations, at


def _row_newton(ctx: PayoffContext, x, lo, up, hi: float, tol: float, steps: int, terms=None):
    """Safeguarded Newton on e' at every row of the row context ``ctx``,
    one offset per row from ``x`` (Press et al., Numerical Recipes, 3rd
    ed., section 9.4, ``rtsafe``).  ``terms``, if given, holds the
    ``payoff_terms`` of orders (0, 1, 2) at ``x``.

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
            terms = payoff_terms(x, ctx, (0, 1, 2))
        _, d1, d2 = terms
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


def _argmax_rows(ctx: PayoffContext, start: np.ndarray, tol: float):
    """Root of the first-order condition at every sigma_a of the row
    context ``ctx``: ``_row_newton`` from the caller's ``start``, with no
    bracket and no upper end, to a step within ``tol`` at every row, else
    NoConvergence.  Returns the roots and their ``payoff_terms`` of
    orders (0, 1, 2)."""
    x, terms, done = _row_newton(ctx, start, np.nan, np.nan, math.inf, tol, _MAX_NEWTON)
    if not np.all(done):
        raise NoConvergence(f"best response not located at {np.count_nonzero(~done)} of "
                            f"{done.size} rows")
    return x, terms


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
    start = delta(np.clip(rows, delta.grid[0], delta.grid[-1]))
    return Strategy(rows, _argmax_rows(ctx, start, cfg.row_tol)[0])


def _node_system(node_ctx: PayoffContext):
    """The node system of ``node_ctx``, a context on its rule's nodes, for
    ``_newton``: x -> (G, J^-1 G, e''), the context re-pointed
    (``PayoffContext.against``) at each evaluation, one kernel call with
    the cross term per evaluation.  A singular J raises NoConvergence."""

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


def _climb_context(params: MarketParams, fees: FeeScheme, cfg: SolverConfig, rule):
    """The node context of a cold solve's climb rule: floor(q/4) nodes where
    that is at least ``_COARSE_MIN`` (nested iteration: Hackbusch, Multi-Grid
    Methods and Applications, 1985, section 5.3), else ``rule``, the q-node
    one."""
    coarse_n = cfg.quad_n // _COARSE_RATIO
    climb = default_rule(params, coarse_n) if coarse_n >= _COARSE_MIN else rule
    return PayoffContext(climb[0], None, params, fees, climb)


def _cold_start(params: MarketParams, cfg: SolverConfig, rule,
                climb_ctx: PayoffContext) -> np.ndarray:
    """Start of a solve without ``init`` on ``rule``, the q = ``cfg.quad_n``
    node rule: the node system of ``climb_ctx`` (``_climb_context`` at the
    solve's fees, priced at each gamma by ``PayoffContext.priced``) solved
    by ``_newton`` to ``cfg.tol`` and read at the nodes of ``rule`` by its
    interpolant (``legendre_interpolate``, exact at a shared node) clipped
    at 0.  It is solved cold, from each node's degenerate root, at 10^k
    gamma for k = 0, 1, ... ``_DECADES`` until one reaches ``tol``, then
    down a decade at a time to those fees, each from the last
    (natural-parameter continuation: Allgower and Georg, Introduction to
    Numerical Continuation Methods, 2003, ch. 1).
    The degenerate roots at the nodes of ``rule`` instead where every cold
    solve, or one on the way down, raises NoConvergence or stops above
    ``tol``."""
    fees = climb_ctx.fees
    x, k = None, 0  # x: the last solution of the climb rule, None while climbing
    while 0 <= k <= _DECADES:
        ctx = climb_ctx.priced(replace(fees, gamma=fees.gamma * 10**k)) if k else climb_ctx
        start = _degenerate_root(ctx.fees, ctx.nodes, params.rho) if x is None else x
        try:
            y, residual = _newton(_node_system(ctx), start, cfg.tol, cfg.max_iter)[:2]
        except NoConvergence:
            residual = math.inf
        if residual > cfg.tol and x is not None:
            break  # a solve on the way down failed
        x, k = (y, k - 1) if residual <= cfg.tol else (None, k + 1)
    if k < 0:
        return np.maximum(legendre_interpolate(climb_ctx.nodes, x, rule[0]), 0.0)
    return _degenerate_root(fees, rule[0], params.rho)


def market_tables(params: MarketParams, fees: FeeScheme,
                  cfg: SolverConfig = SolverConfig()) -> tuple[PayoffContext, ...]:
    """``solve_fixed_point``'s fee-free ``tables`` for any gamma of ``fees``'s
    scheme: contexts against no strategy on the climb rule's nodes, the q
    nodes and the output rows."""
    rule = default_rule(params, cfg.quad_n)
    return (_climb_context(params, fees, cfg, rule),
            PayoffContext(rule[0], None, params, fees, rule),
            PayoffContext(uniform_grid(params, cfg.grid_n), None, params, fees, rule))


def _priced_tables(tables, params: MarketParams, fees: FeeScheme, cfg: SolverConfig):
    """``tables`` priced at ``fees``; DomainError unless they hold ``params``
    on the node and row counts of ``market_tables(params, fees, cfg)``
    (one node and one row on a degenerate market)."""
    _, node_ctx, row_ctx = tables
    sizes = (node_ctx.nodes.size, row_ctx.sigma_a.size)
    if any(t.params != params for t in tables) or sizes != (
            (1, 1) if params.is_degenerate else (cfg.quad_n, cfg.grid_n)):
        raise DomainError(f"tables of {node_ctx.params} on {sizes[0]} nodes and {sizes[1]} "
                          f"rows, not of {params} at quad_n={cfg.quad_n}, grid_n={cfg.grid_n}")
    return [t.priced(fees) for t in tables]


def _concavity_ok(hi: float, slopes: np.ndarray) -> bool:
    """Whether the penalized payoff is strictly concave in the offset at
    every row on [0, hi], as far as the deviation gain's scan shows it;
    ``slopes`` is e' at the scan offsets of the rows ``_row_sup`` scanned,
    one row per line.  The other rows are proven strictly concave there
    by the closed-form bound on e'' (``payoff.second_deriv_bound``).

    A solve passes the interval of its deviation gain, hi = max(C, 3 max
    rows) with ``existence_bound``'s C (0 on a degenerate market).  A
    scanned row passes when e' falls between every pair of neighbouring
    offsets: a rise or a tie means e'' >= 0 somewhere between them (the
    mean value theorem), so a false flag is never a false alarm, though a
    convex stretch inside one scan interval can pass unseen.  Strict
    concavity rules out a second sign change of the derivative, so each
    located root is the argmax on the interval, and under half-linear
    demand, where h' < 0 past C at every row, the global one.  The flag
    suffices but is not necessary: a row whose e' changes sign once is
    maximized at its root though a convex stretch lies past it, as on the
    low-sigma rows at low gamma.  So it is reported, and the gain of
    ``_row_sup`` decides convergence.
    """
    if not 0.0 < hi < math.inf:
        return False
    return not np.any(np.diff(slopes) >= 0.0)


def solve_fixed_point(
    params: MarketParams,
    fees: FeeScheme,
    cfg: SolverConfig = SolverConfig(),
    init: Strategy | None = None,
    *,
    tables: tuple[PayoffContext, ...] | None = None,
) -> EquilibriumReport:
    """Newton solve of G(x) = 0 on the q = ``quad_n`` quadrature nodes.

    The node values start at ``init`` read at the nodes (clamped to its
    grid), a start kept public as the tests' reference.  Without ``init``,
    ``_cold_start`` climbs in gamma on the same node system, on floor(q/4)
    nodes or, below ``_COARSE_MIN`` of them, on the q nodes, to the same
    ``tol``, and reads it at the q nodes; a degenerate market is one
    unit-weight node.  The climb builds no row context and runs no check,
    and where it fails the q-node Newton starts from the degenerate roots
    at its nodes.  The climb and the q-node Newton each build one node
    context and re-point it (``PayoffContext.against``) at each
    evaluation of G and J;
    ``_newton`` stops at max|J^-1 G| <= ``tol``, after ``max_iter``
    evaluations or at a rejected step.  The report's ``nodes`` are the q node values returned,
    with their residual and their evaluations.  One row context against
    them gives the output rows, their deviation gain (``_row_sup`` on
    [0, max(C, 3 max rows)], ``VERIFY_X_SAMPLES`` scan offsets) and the
    ``concavity_ok`` flag, read from the e' of that gain's scan; a gain above
    ``GAIN_TOL`` reports converged=False, never raises.  The gain steps to
    ``SolverConfig.row_tol``, where the rows' Newton stopped, so a proven
    row takes no step and no kernel call.  The rows are the best response of
    ``_argmax_rows``, one ``_row_newton`` on every row, started from
    ``gaussmath.legendre_interpolate`` of the node best responses b = x -
    G/e'', a diagonal Newton step from the G and e'' that ``_newton``
    evaluated at the returned x, so no kernel call is added; where e'' is
    >= 0 or not finite, b = x.  The start is clipped at 0.  It is within
    the argmax step of the rows on the markets tried, so the row phase
    takes one kernel call where a linear start takes two or three.  Given
    ``tables`` (``market_tables`` of this market, ``cfg`` and scheme), the
    three contexts are those tables priced at ``fees``, not built; tables
    of another market, ``quad_n`` or ``grid_n`` raise DomainError.
    """
    _require_solvable(fees)
    _require_rho_bound(params)

    bound_c = 0.0 if params.is_degenerate else existence_bound(params, fees, cfg.quad_n)[0]
    climb_ctx, node_ctx, row_ctx = (None,) * 3 if tables is None else _priced_tables(
        tables, params, fees, cfg)
    rule = default_rule(params, cfg.quad_n) if node_ctx is None else node_ctx.rule
    nodes = rule[0]
    x = (_cold_start(params, cfg, rule, climb_ctx or _climb_context(params, fees, cfg, rule))
         if init is None else init(np.clip(nodes, init.grid[0], init.grid[-1])))
    x, residual, iterations, (g, _, d2) = _newton(
        _node_system(node_ctx or PayoffContext(nodes, None, params, fees, rule)), x, cfg.tol,
        cfg.max_iter)
    solved = Strategy(nodes, x)
    # each node's best response against x, one diagonal Newton step away;
    # where e'' proves no maximum, the node value itself
    curved = np.isfinite(d2) & (d2 < 0.0)
    b = x - np.divide(g, d2, out=np.zeros_like(x), where=curved)
    row_ctx = (PayoffContext(uniform_grid(params, cfg.grid_n), solved, params, fees, rule)
               if row_ctx is None else row_ctx.against(solved(nodes)))
    rows = row_ctx.sigma_a
    start = np.maximum(legendre_interpolate(nodes, b, rows), 0.0)
    best, terms = _argmax_rows(row_ctx, start, cfg.row_tol)
    delta = Strategy(rows, best)
    hi = max(bound_c, _DEVIATION_SPAN * delta.max_value())
    gains, slopes = _row_sup(row_ctx, best, hi, cfg.row_tol, terms, VERIFY_X_SAMPLES)
    gain = float(np.max(gains))
    return EquilibriumReport(
        nodes=solved,
        strategy=delta,
        residual=residual,
        iterations=iterations,
        converged=residual <= cfg.tol and gain <= GAIN_TOL,
        concavity_ok=_concavity_ok(hi, slopes),
        deviation_gain=gain,
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


def _scan_sup(ctx: PayoffContext, xs: np.ndarray, hi: float, tol: float):
    """Supremum of the payoff over the offsets ``xs`` at every row of the
    row context ``ctx``, and e' there, of shape (rows, offsets).  e and e'
    come one block of offsets per kernel call, as many offsets as fit in
    ``_BLOCK_ELEMENTS`` kernel values and at least one; then ``_row_newton``
    runs from the secant point of every + -> - sign change of e' between
    neighbours, all such brackets in one kernel call per step."""
    step = max(1, _BLOCK_ELEMENTS // ctx.sig.size)
    blocks = [payoff_terms(xs[i:i + step, None], ctx, (0, 1)) for i in range(0, xs.size, step)]
    vals, slopes = (np.concatenate(terms).T for terms in zip(*blocks))
    at, j = np.nonzero((slopes[:, :-1] > 0.0) & (slopes[:, 1:] <= 0.0))
    best = vals.max(axis=1)
    if at.size:
        lo, up = xs[j], xs[j + 1]
        d_lo, d_up = slopes[at, j], slopes[at, j + 1]
        start = lo + d_lo * (up - lo) / (d_lo - d_up)
        _, (peaks, _, _), _ = _row_newton(ctx.rows(at), start, lo, up, hi, tol, _POLISH_STEPS)
        np.maximum.at(best, at, peaks)
    return best, slopes


def _row_sup(ctx: PayoffContext, x: np.ndarray, hi: float, tol: float, terms,
             x_samples: int):
    """Gain at every row of the row context ``ctx`` from its best offset in
    [0, hi] over the held offset ``x``, whose ``payoff_terms`` of orders
    (0, 1, 2) are ``terms``; the held offset is a candidate, so each gain
    is >= 0.  Returns the gains and e' at the scan offsets on the scanned
    rows, of shape (scanned rows, ``x_samples``).

    A row that the closed-form bound on e'' (``payoff.second_deriv_bound``)
    proves strictly concave on [0, hi] has its supremum at the one root of
    e' or an end: ``_row_newton`` from the held offset finds
    it to a step of ``tol`` in at most ``_POLISH_STEPS`` steps on all such
    rows together, and a row already within ``tol`` takes no step.  The
    other rows, and a proven one whose Newton does not reach that step,
    are scanned (``_scan_sup``): e and e' at ``x_samples`` evenly spaced
    offsets, then ``_row_newton`` with the same step and cap from the
    secant point of every + -> - sign change of e' between neighbours,
    inside that bracket.  A scanned row's supremum is the largest of its
    scanned values and those maxima, so only there is a maximum missed,
    when a scan interval hides two sign changes of e'.
    """
    held = terms[0]
    best = held.copy()
    proven = second_deriv_bound(ctx, hi) < 0.0  # a NaN bound proves nothing
    at = np.flatnonzero(proven)
    sub = ctx if at.size == x.size else ctx.rows(at)  # a slice copies the context's arrays
    _, (sup, _, _), done = _row_newton(sub, x[at], np.nan, np.nan, hi, tol, _POLISH_STEPS,
                                       [t[at] for t in terms])
    best[at[done]] = sup[done]
    scan = ~proven
    scan[at[~done]] = True
    slopes = np.empty((0, x_samples))
    if scan.any():
        best[scan], slopes = _scan_sup(ctx.rows(scan), np.linspace(0.0, hi, x_samples), hi, tol)
    return np.maximum(best, held) - held, slopes


def verify_ne(
    delta: Strategy,
    params: MarketParams,
    fees: FeeScheme,
    x_samples: int = VERIFY_X_SAMPLES,
    quad_n: int = SolverConfig.quad_n,
) -> float:
    """Largest gain a player can realize by deviating from ``delta``.

    The largest ``_row_sup`` gain over [0, hi], hi = 3 * max(delta), at
    every grid sigma_a against ``delta``, with a Newton step of 1e-12 * hi
    and ``x_samples`` scan offsets: one context, one kernel call for e,
    e' and e'' at the held offsets, and ``payoff.second_deriv_bound`` on
    [0, hi] for the rows Newton alone takes.  A true equilibrium yields a
    value at rounding level, and a converged solve one of order e'' times
    the squared distance between each row and its best response.
    """
    if x_samples < 2:
        raise DomainError("x_samples must be >= 2")
    hi = _DEVIATION_SPAN * delta.max_value()
    if not hi > 0.0:
        hi = 1.0
    ctx = PayoffContext(delta.grid, delta, params, fees, default_rule(params, quad_n))
    terms = payoff_terms(delta.values, ctx, (0, 1, 2))
    return float(np.max(_row_sup(ctx, delta.values, hi, 1e-12 * hi, terms, x_samples)[0]))
