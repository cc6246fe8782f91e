"""Equilibrium computation for the quoting game.

A strategy delta is an equilibrium when, for every sigma_a, delta(sigma_a)
maximizes the penalized payoff against delta itself.  The opponent's
strategy enters the payoff only through its values x at the q quadrature
nodes sigma_i, so an equilibrium solves G_i(x) = e'(x_i; sigma_a =
sigma_i, d = x) = 0, i = 1..q, by Newton's method on the analytic
Jacobian J = diag(e'') + w * (the kernel's cross term).  The strategy
elsewhere is one best response against x, the Nystrom interpolant
(Atkinson, The Numerical Solution of Integral Equations of the Second
Kind, 1997, section 4.1).  Convergence is verified through the Newton
correction max|J^-1 G|, a distance in delta; one concavity check against
the solved nodes (``_concavity_ok``) decides whether each root of the
output rows is the argmax on the offsets the strategy plays.  It proves
a row strictly concave on that whole interval where a closed-form bound
on e'' (``payoff.second_deriv_bound``) is negative, and samples e''
on the other rows.

Without fees (and with the mid-price penalty alone) no equilibrium
exists; ``no_ne_certificate`` returns the aggregated first-order-condition
integral that witnesses this (half the trade probability, positive
until the Gaussian tail underflows), and ``verify_ne`` returns the
supremum of the gain a player can realize by deviating from a candidate
strategy, over offsets up to three times its largest value.  On the rows
the same bound on e'' proves strictly concave there, that supremum is
taken by Newton from the held offset; the other rows are scanned and
polished, and only on those can a maximum be missed, when a scan
interval hides two sign changes of e'.

For a degenerate market (sigma_minus = sigma_plus) the equilibrium
reduces to a scalar root of the one-dimensional first-order condition,
solved to near machine precision by ``solve_degenerate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCase, DomainError, NoConvergence, WrongScheme
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
_BLOCK_ELEMENTS = 4 * 257 * 64  # kernel values per verify_ne call: 2.1 MB of kernel scratch
_POLISH_STEPS = 8  # Newton steps per verify_ne bracket or proven row
VERIFY_X_SAMPLES = 33  # default scan density of verify_ne
_CONCAVITY_OFFSETS = 50  # offsets at which _concavity_ok samples e'' on unproven rows
_CONCAVITY_BLOCK = 5  # offsets per _concavity_ok kernel call


@dataclass(frozen=True)
class SolverConfig:
    """Equilibrium solver knobs: ``quad_n`` quadrature nodes, which are
    the unknowns, and ``grid_n`` uniform rows of the returned strategy;
    ``tol`` bounds max|J^-1 G| and ``max_iter`` the evaluations of G.
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
    ``nodes`` on ``grid_n`` rows, the published output.  ``residual``:
    the Newton correction max|J^-1 G| at ``nodes``; ``iterations``: the
    evaluations of G and J.  ``concavity_ok``: the penalized payoff
    against ``nodes`` has a negative second derivative at every row on
    the offsets (0, max(C, 3 max strategy)], proven on the whole interval
    at the rows where ``payoff.second_deriv_bound`` allows it and sampled
    at the others.  ``converged``: the residual
    reached ``tol`` and ``concavity_ok`` holds.
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
    params: MarketParams, fees: FeeScheme, quad_n: int = SolverConfig.quad_n
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
    """Newton iteration from ``x`` on system(x) -> (G, J^-1 G), each step
    x - t J^-1 G with t halved from 1 until x >= 0 and max|G| does not grow.

    Stops at max|J^-1 G| <= tol, at ``max_iter`` evaluations or when no
    halving is accepted, and returns (x, max|J^-1 G| at x, evaluations).
    A non-finite step raises NoConvergence.
    """
    g, step = system(x)
    for iterations in range(1, max_iter + 1):
        residual = float(np.max(np.abs(step)))
        if not math.isfinite(residual):
            raise NoConvergence(f"non-finite Newton step at evaluation {iterations}")
        if residual <= tol or iterations == max_iter:
            break
        size = np.max(np.abs(g))
        for t in 0.5 ** np.arange(_MAX_HALVINGS):
            cand = x - t * step
            if np.all(cand >= 0.0):
                g_cand, step_cand = system(cand)
                if np.max(np.abs(g_cand)) <= size:
                    break
        else:
            break
        x, g, step = cand, g_cand, step_cand
    return x, residual, iterations


def _argmax_rows(ctx: PayoffContext, delta: Strategy, tol: float) -> np.ndarray:
    """Root of the first-order condition at every sigma_a of the row
    context ``ctx`` (which plays against ``delta``): ``_newton`` with the
    diagonal J = e'' from ``delta`` (flat past its grid) to a step within
    max(tol * 1e-3, 1e-13), else NoConvergence."""

    def system(x):
        d1, d2 = payoff_terms(x, ctx, (1, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            return d1, d1 / d2

    argmax_tol = max(tol * 1e-3, 1e-13)
    start = delta(np.clip(ctx.sigma_a, delta.grid[0], delta.grid[-1]))
    x, residual, evaluations = _newton(system, start, argmax_tol, _MAX_NEWTON)
    if residual > argmax_tol:
        raise NoConvergence(f"best response not located: Newton step {residual:.3e} "
                            f"after {evaluations} evaluations")
    return x


def best_response(
    delta: Strategy, params: MarketParams, fees: FeeScheme, cfg: SolverConfig = SolverConfig()
) -> Strategy:
    """Pointwise argmax strategy against ``delta`` on ``cfg.grid_n`` uniform rows.

    All rows are solved by one Newton loop on the batched kernel
    (``_argmax_rows``).  This locates a root of the first-order condition
    only; whether it is the argmax is the concavity verdict of
    ``solve_fixed_point``.
    """
    _require_rho_bound(params)
    rows = uniform_grid(params, cfg.grid_n)
    ctx = PayoffContext(rows, delta, params, fees, default_rule(params, cfg.quad_n))
    return Strategy(rows, _argmax_rows(ctx, delta, cfg.tol))


def _concavity_ok(rows: Strategy, ctx: PayoffContext, bound_c: float) -> bool:
    """Whether the penalized payoff of the row context ``ctx``, on the
    sigma_a of ``rows`` against the node strategy whose roots ``rows``
    holds, is strictly concave in the offset at every row on
    (0, max(bound_C, 3 max rows)].

    The upper end covers both the invariant set and the offsets over
    which ``verify_ne`` takes its supremum on ``rows``.  A row whose
    closed-form bound on e'' (``payoff.second_deriv_bound``) is negative
    is proven strictly concave on the whole interval.  On the other rows
    e'' is sampled at ``_CONCAVITY_OFFSETS`` offsets, one kernel call
    over those rows per block of ``_CONCAVITY_BLOCK`` offsets, stopping
    at the first block with a non-negative value.  Strict concavity
    also rules out a second sign change of the derivative, so each
    located root is the argmax on that interval.  The check bounds or
    samples e''; it does not measure how far a row is from its argmax,
    which is what ``verify_ne``'s gain does.
    """
    hi = max(bound_c, _DEVIATION_SPAN * rows.max_value())
    if not 0.0 < hi < math.inf:
        return False
    # a NaN bound proves nothing, so it is sampled too
    unproven = np.flatnonzero(~(second_deriv_bound(ctx, hi) < 0.0))
    if not unproven.size:
        return True
    ctx = ctx.rows(unproven)
    offsets = np.linspace(0.0, hi, _CONCAVITY_OFFSETS + 1)[1:]
    for block in offsets.reshape(-1, _CONCAVITY_BLOCK, 1):
        (d2,) = payoff_terms(block, ctx, (2,))
        if np.any(d2 >= 0.0):
            return False
    return True


def solve_fixed_point(
    params: MarketParams,
    fees: FeeScheme,
    cfg: SolverConfig = SolverConfig(),
    init: Strategy | None = None,
) -> EquilibriumReport:
    """Newton solve of G(x) = 0 on the q = ``quad_n`` quadrature nodes.

    The node values start at ``init`` read at the nodes (clamped to its
    grid), else at the constant C/2 when gamma clears the analytic
    threshold, otherwise at the degenerate-market root for sigma_plus
    (the threshold is far from tight); a degenerate market is one
    unit-weight node.  The node context is built once and re-pointed
    (``PayoffContext.against``) at each evaluation of G and J.  ``_newton``
    stops at max|J^-1 G| <= ``tol`` or after ``max_iter`` evaluations.
    The report's ``nodes`` are the node values returned, with their
    residual.  One row context against them gives both the output rows
    (the best response of ``_argmax_rows``) and the ``_concavity_ok``
    verdict; a failed check reports converged=False, never raises.
    """
    _require_solvable(fees)
    _require_rho_bound(params)

    if params.is_degenerate:
        start = _degenerate_root(fees, params.sigma_plus, params.rho)
        bound_c = 2.0 * start
    else:
        bound_c, gamma_min = existence_bound(params, fees, cfg.quad_n)
        start = (0.5 * bound_c if fees.gamma >= gamma_min
                 else _degenerate_root(fees, params.sigma_plus, params.rho))

    rule = default_rule(params, cfg.quad_n)
    nodes = rule[0]
    x = (np.full(nodes.shape, start) if init is None
         else init(np.clip(nodes, init.grid[0], init.grid[-1])))
    node_ctx = PayoffContext(nodes, None, params, fees, rule)

    def system(x):
        ctx = node_ctx.against(x)
        g, d2, jac = payoff_terms(x, ctx, (1, 2), cross=True)
        jac *= ctx.w
        jac[np.diag_indices_from(jac)] += d2
        try:
            return g, np.linalg.solve(jac, g)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular equilibrium Jacobian: {exc}") from None

    x, residual, iterations = _newton(system, x, cfg.tol, cfg.max_iter)
    solved = Strategy(nodes, x)
    rows = uniform_grid(params, cfg.grid_n)
    row_ctx = PayoffContext(rows, solved, params, fees, rule)
    delta = Strategy(rows, _argmax_rows(row_ctx, solved, cfg.tol))
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


def _row_terms(ctx: PayoffContext, index: np.ndarray, x: np.ndarray, orders) -> list:
    """``payoff_terms`` of the offsets ``x[i]`` (one row of offsets each)
    against row ``index[i]`` of the row context ``ctx``, in kernel calls
    of at most ``_BLOCK_ELEMENTS`` values (or one row)."""
    step = max(1, _BLOCK_ELEMENTS // (x.shape[1] * ctx.nodes.size))
    blocks = [payoff_terms(x[i:i + step], ctx.rows(index[i:i + step]), orders)
              for i in range(0, index.size, step)]
    return [np.concatenate(terms) for terms in zip(*blocks)]


def _polish(ctx: PayoffContext, row, lo, up, d_lo, d_up, tol: float) -> np.ndarray:
    """Local maximum of the payoff at row ``row[i]`` of ``ctx`` in each
    bracket [lo[i], up[i]], where e' falls from d_lo > 0 to d_up <= 0.

    All brackets take one kernel call per step: a Newton step on e' and
    e'' from the secant point, kept only inside the bracket that the sign
    of e' narrows, otherwise a bisection.  Stops once no step exceeds
    ``tol``, or after ``_POLISH_STEPS`` steps.
    """
    x = lo + d_lo * (up - lo) / (d_lo - d_up)
    if not row.size:
        return x
    for _ in range(_POLISH_STEPS):
        d1, d2 = (t[:, 0] for t in _row_terms(ctx, row, x[:, None], (1, 2)))
        lo = np.where(d1 > 0.0, x, lo)
        up = np.where(d1 < 0.0, x, up)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - d1 / d2
        step = np.where((lo <= newton) & (newton <= up), newton, 0.5 * (lo + up)) - x
        x = x + step
        if np.all(np.abs(step) <= tol):
            break
    return x


def _concave_sup(ctx: PayoffContext, x, terms, hi: float, tol: float):
    """Supremum of the payoff over [0, hi] at every row of ``ctx``, each
    strictly concave there, by safeguarded Newton on e' from the offsets
    ``x``, where ``terms`` holds e, e' and e''.

    e' falls on the whole interval, so its sign at each iterate narrows
    the bracket of the one root.  Each step is one kernel call on all
    rows: the Newton point clipped to [0, hi], or the midpoint where it
    leaves the bracket between two iterates.  No end value is computed
    unless an iterate is clipped to that end; if e' there still points
    out of the interval, the next step is zero and the end is the
    maximiser.  Stops once no step exceeds ``tol``, or after
    ``_POLISH_STEPS`` steps.  Returns e at the last iterate and whether
    each row's last step is within ``tol``; a row whose iterates go
    non-finite fails that test.
    """
    lo = np.full(x.shape, np.nan)
    up = np.full(x.shape, np.nan)
    for steps in range(_POLISH_STEPS + 1):
        vals, d1, d2 = terms
        lo = np.where(d1 > 0.0, x, lo)
        up = np.where(d1 < 0.0, x, up)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.clip(x - d1 / d2, 0.0, hi)
        step = np.where((newton < lo) | (newton > up), 0.5 * (lo + up), newton) - x
        done = np.abs(step) <= tol
        if np.all(done) or steps == _POLISH_STEPS:
            return vals, done
        x = x + step
        terms = payoff_terms(x, ctx, (0, 1, 2))


def _scan_sup(ctx: PayoffContext, rows: np.ndarray, xs: np.ndarray, tol: float) -> np.ndarray:
    """Supremum of the payoff over the offsets ``xs`` at rows ``rows`` of
    ``ctx``: e and e' at every offset, then every + -> - sign change of
    e' between neighbours polished to a local maximum (``_polish``)."""
    vals, slopes = _row_terms(ctx, rows, np.broadcast_to(xs, (rows.size, xs.size)), (0, 1))
    at, j = np.nonzero((slopes[:, :-1] > 0.0) & (slopes[:, 1:] <= 0.0))
    peaks = _polish(ctx, rows[at], xs[j], xs[j + 1], slopes[at, j], slopes[at, j + 1], tol)
    best = vals.max(axis=1)
    if at.size:
        (peak_vals,) = _row_terms(ctx, rows[at], peaks[:, None], (0,))
        np.maximum.at(best, at, peak_vals[:, 0])
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
    interval: safeguarded Newton from the held offset finds it to a step
    of 1e-12 * hi, in at most ``_POLISH_STEPS`` steps on all such rows
    together (``_concave_sup``).  Every other row, and a proven one whose
    Newton does not reach that step, is scanned: ``x_samples`` evenly
    spaced offsets for e and e', and every + -> - sign change of e'
    between neighbours polished to the same step (``_scan_sup``).  A
    scanned row's supremum is the largest of its scanned values and
    polished maxima, so on scanned rows a maximum is missed only when a
    scan interval hides two sign changes of e'.

    One context holds every grid row and is sliced by
    ``PayoffContext.rows``; each scan call holds at most
    ``_BLOCK_ELEMENTS`` values.  A true equilibrium yields a value at
    rounding level, and a converged solve one of order e'' times the
    squared distance between each row and its best response.
    """
    if x_samples < 2:
        raise DomainError("x_samples must be >= 2")
    hi = _DEVIATION_SPAN * delta.max_value()
    if not hi > 0.0:
        hi = 1.0
    tol = 1e-12 * hi
    ctx = PayoffContext(delta.grid[:, None], delta, params, fees, default_rule(params, quad_n))
    x = delta.values[:, None]
    terms = payoff_terms(x, ctx, (0, 1, 2))
    held = terms[0][:, 0]
    best = held.copy()
    # a NaN bound proves nothing, so that row is scanned
    proven = np.flatnonzero(second_deriv_bound(ctx, hi)[:, 0] < 0.0)
    sup, done = _concave_sup(ctx.rows(proven), x[proven], [t[proven] for t in terms], hi, tol)
    solved = proven[done[:, 0]]
    best[solved] = sup[done]
    scan = np.setdiff1d(np.arange(delta.grid.size), solved)
    if scan.size:
        best[scan] = _scan_sup(ctx, scan, np.linspace(0.0, hi, x_samples), tol)
    return float(np.max(np.maximum(best, held) - held))
