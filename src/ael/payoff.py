"""Payoff functionals of the quoting game in the illiquid limit.

Player a holds noise level sigma_a, assumes the opponent plays a known
strategy delta, and chooses a quote offset x.  Writing u = (x + d)/S
with d = delta(sigma_b), S = Sigma_rho(sigma_a, sigma_b) and averaging
over sigma_b uniform on [sigma_minus, sigma_plus], the base expected
payoff is

    e(x) = avg[ (x - d)/2 * (1 - Phi(u)) + S (1/2 - Q) Phi'(u) ]

with first and second derivatives

    e'(x)  = avg[ (1 - Phi(u))/2 + (-x Q~ + d Q)/S * Phi'(u) ]
    e''(x) = avg[ Phi'(u)/S * ( -(1/2 + Q~ + Q d^2/S^2)
                                + (Q~ - Q) x d / S^2 + Q~ x^2 / S^2 ) ]

Fee schemes modify these additively:

    SpreadQuad(g):  e(x) - g x^2            (derivative -2 g x)
    MidQuad(g):     e(x) - (g/4) (x^2 - 2 x E[d] + E[d^2] + sigma_a^2
                                  + E[sigma_b^2] + 2 rho sigma_a E[sigma_b])
                    (derivative -(g/2)(x - E[d]))

Under half-linear demand schedules of slope kbar the payoff is the
volume-weighted variant

    h(x)  = (kbar/2) avg[ (S^2 (1/2 - Q) - (x - d)(d + x)/2)(1 - Phi(u))
                          + S (x - d)/2 * Phi'(u) ] - g x^2
    h'(x) = (kbar/2) avg[ -x (1 - Phi(u)) + S Q Phi'(u) ] - 2 g x.

The node Newton system also needs the cross term, the d-derivative of
the e' or h' integrand at each node, not averaged:
Phi'(u)/S (Q - 1/2 - u (d Q - x Q~)/S), or (kbar/2) Phi'(u) (x/S - Q u).

One kernel, ``payoff_terms``, evaluates all of these.  A context built
on an array of sigma_a caches S, Q and Q~ as matrices with one row per
sigma_a and one column per quadrature node, once, together with the
strategy values at the nodes and the x-free factors of
the second-derivative integrand: e'' is avg[Phi'(u) (a0 + x (a1 + x a2))],
and h'' is (kbar/2) avg[-(1 - Phi(u)) + Phi'(u) (b0 + x b1)] - 2 g.
S, Q, Q~ and the d-free parts of those factors do not depend on the
strategy: ``PayoffContext.against`` shares them (and the nodes and
weights) with a context against other node values, re-deriving only
the rest, and ``PayoffContext.rows`` shares the strategy's caches with
a context on some of the sigma_a rows.  Each call computes u and
Phi'(u) once for a whole array of offsets, the cross term from them on
request, and 1 - Phi(u) only when a requested order needs it: orders 0
and 1 always, order 2 only under half-linear demand.  The requested
terms follow in place (``out=`` ufuncs) in at most five arrays of the
(offsets, nodes) shape rather than one temporary per operation, with
the operations of the formulas above in their order, so the bits are
those of the plain expressions.  The fee scheme contributes one
closed-form quadratic penalty.  Contexts are immutable and
evaluations pure, hence freely shareable across workers.

``second_deriv_bound`` bounds the penalized e'' (or h'') from above on a
whole interval of offsets [0, hi], at every sigma_a, from the same
caches: Phi'(u) by its largest value over the interval's range of u,
the polynomial in x by the larger of its end values (it is linear or
convex) floored at 0, and -(1 - Phi(u)) by its value at the top of the
range.  It takes one (sigma_a, nodes) array per term and no offset axis.
"""

from __future__ import annotations

import copy
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DomainError, WrongScheme
from .gaussmath import norm_cdf, norm_pdf
from .model import (
    FeeScheme,
    LinearDemand,
    MarketParams,
    MidQuad,
    NoFee,
    SpreadQuad,
    Strategy,
    q_rho_pair,
    sigma_rho,
    uniform_sigma_moments,
)


def check_sigma_a(sigma_a, params: MarketParams) -> None:
    """Raise DomainError unless every ``sigma_a`` lies in [sigma_minus,
    sigma_plus], with 1e-12 relative slack."""
    slack = 1e-12 * max(1.0, params.sigma_plus)
    sa = np.asarray(sigma_a, dtype=float)
    if not np.all((params.sigma_minus - slack <= sa) & (sa <= params.sigma_plus + slack)):
        raise DomainError(
            f"sigma_a = {sigma_a} outside [{params.sigma_minus}, {params.sigma_plus}]"
        )


@dataclass(frozen=True)
class PayoffContext:
    """Frozen evaluation context for one sigma_a, or an array of them,
    against a fixed opponent strategy.

    With an array ``sigma_a`` the caches gain its shape in front of the
    node axis, and ``payoff_terms`` takes offsets that broadcast against
    that shape.  The opponent strategy ``delta`` is read once, at its
    node values ``delta_b``, and not stored; built with None, the
    context serves ``against`` only.  ``rule`` is the ``default_rule``
    pair the averages over sigma_b use.

    ``against`` and ``rows`` derive contexts without rebuilding the
    x-free caches: the first shares S, Q, Q~ and the d-free factors of
    ``e2_poly`` and re-derives what depends on the opponent's node
    values, the second shares those and takes some rows of every cache.
    """

    sigma_a: float | np.ndarray
    delta: InitVar[Strategy | None]
    params: MarketParams
    fees: FeeScheme
    rule: tuple[np.ndarray, np.ndarray]

    # caches, derived in __post_init__
    nodes: np.ndarray = field(init=False, repr=False)
    w: np.ndarray = field(init=False, repr=False)
    delta_b: np.ndarray = field(init=False, repr=False)
    sig: np.ndarray = field(init=False, repr=False)
    q: np.ndarray = field(init=False, repr=False)
    qt: np.ndarray = field(init=False, repr=False)
    e2_factors: tuple = field(init=False, repr=False)
    e2_poly: tuple = field(init=False, repr=False)

    def __post_init__(self, delta: Strategy | None):
        p = self.params
        check_sigma_a(self.sigma_a, p)
        nodes, w = self.rule
        sa = np.asarray(self.sigma_a, dtype=float)[..., None]
        s = sigma_rho(sa, nodes, p.rho)
        q, qt = q_rho_pair(sa, nodes, p.rho)
        if isinstance(self.fees, LinearDemand):
            factors = -q, qt / s
        else:
            s2 = s * s
            s3 = s2 * s
            factors = s2, s3, 0.5 + qt, qt - q, qt / s3
        for name, value in zip(("nodes", "w", "sig", "q", "qt", "e2_factors"),
                               (nodes, w, s, q, qt, factors)):
            object.__setattr__(self, name, value)
        if delta is not None:
            self._point_at(np.asarray(delta(nodes), dtype=float))

    def _point_at(self, delta_b: np.ndarray) -> None:
        """Set the opponent's node values and ``e2_poly``, the x-free
        factors of the second-derivative integrand, lowest power first,
        by the operations of the plain expressions of e'' and h''."""
        d, s, q = delta_b, self.sig, self.q
        if isinstance(self.fees, LinearDemand):
            neg_q, qt_s = self.e2_factors
            poly = neg_q * d / s, qt_s
        else:
            s2, s3, half_qt, qt_q, qt_s3 = self.e2_factors
            poly = -(half_qt + q * d * d / s2) / s, qt_q * d / s3, qt_s3
        object.__setattr__(self, "delta_b", delta_b)
        object.__setattr__(self, "e2_poly", poly)

    def against(self, values) -> "PayoffContext":
        """This context against the opponent strategy that takes ``values``
        at ``self.nodes``, as if built on ``Strategy(self.nodes, values)``."""
        ctx = copy.copy(self)
        ctx._point_at(np.asarray(values, dtype=float))
        return ctx

    def rows(self, index) -> "PayoffContext":
        """This context on ``sigma_a[index]`` of an array ``sigma_a``, as
        if built on those rows; ``index`` is a slice or an integer array
        along the first axis."""
        ctx = copy.copy(self)
        for name in ("sigma_a", "sig", "q", "qt"):
            object.__setattr__(ctx, name, getattr(self, name)[index])
        for name in ("e2_factors", "e2_poly"):
            object.__setattr__(ctx, name, tuple(a[index] for a in getattr(self, name)))
        return ctx


def _mid_quad_constant(ctx: PayoffContext):
    """x-free part of the mid-price penalty expectation (without gamma/4)."""
    e_sb, e_sb2 = uniform_sigma_moments(ctx.params)
    sa = np.asarray(ctx.sigma_a, dtype=float)
    e_delta2 = float(np.dot(ctx.w, ctx.delta_b**2))
    return e_delta2 + sa * sa + e_sb2 + 2.0 * ctx.params.rho * sa * e_sb


# The exchange penalty a x^2 + b x + c each scheme subtracts from the payoff.
_PENALTY = {
    NoFee: lambda f, ctx: (0.0, 0.0, 0.0),
    SpreadQuad: lambda f, ctx: (f.gamma, 0.0, 0.0),
    LinearDemand: lambda f, ctx: (f.gamma, 0.0, 0.0),
    MidQuad: lambda f, ctx: (
        0.25 * f.gamma,
        -0.5 * f.gamma * float(np.dot(ctx.w, ctx.delta_b)),
        0.25 * f.gamma * _mid_quad_constant(ctx),
    ),
}


def _penalty(ctx: PayoffContext) -> tuple:
    """The (a, b, c) of the exchange penalty of ``ctx.fees``."""
    fees = ctx.fees
    if type(fees) not in _PENALTY:
        raise WrongScheme(f"unknown fee scheme {fees!r}")
    return _PENALTY[type(fees)](fees, ctx)


def _averages(x: np.ndarray, ctx: PayoffContext, orders, cross=False) -> list:
    """Averages over sigma_b, one per order, of the base integrand (the
    half-linear one times kbar/2 under half-linear demand) and its
    x-derivatives, followed with ``cross`` by the unaveraged cross term.

    Orders 0 and 1 need Phi(u) and Phi'(u).  Order 2 is Phi'(u) times a
    polynomial in x with the factors ``ctx.e2_poly`` caches, less
    1 - Phi(u) under half-linear demand; the base order 2 needs no
    Phi(u) at all.

    The (offsets, nodes) arrays are u (then 1 - Phi(u)), Phi'(u), two
    work arrays r and t, and the cross term, views of one allocation: as
    separate ones, glibc's malloc handed the freed memory back to the
    system after each call on a (4, 257, 64) block, and the next call
    page-faulted it in again (12k minor faults per default ``verify_ne``).
    Order 2 needs no t, and without a tail u's array serves as r once
    Phi'(u) is taken, so a base order-2 call allocates two arrays.  The
    cross term, taken before the tail overwrites u, uses r as scratch.
    """
    volume = isinstance(ctx.fees, LinearDemand)
    xx = x[..., None]
    d, s = ctx.delta_b, ctx.sig
    lower = min(orders) < 2
    with_tail = volume or lower
    shape = np.broadcast(xx, s).shape
    u, dens, *work = np.empty((2 + max(with_tail + lower, cross) + cross, *shape))
    np.add(xx, d, out=u)
    u /= s
    norm_pdf(u, out=dens)
    extra = [_cross_term(xx, ctx, u, dens, work.pop(), work[0])] if cross else []
    if with_tail:
        tail = np.subtract(1.0, norm_cdf(u, out=u), out=u)
    else:
        tail, work = None, [u]
    scale = 0.5 * ctx.fees.kbar if volume else 1.0
    integrand = _volume_integrand if volume else _base_integrand
    return [scale * (integrand(k, xx, ctx, dens, tail, *work) @ ctx.w) for k in orders] + extra


def _cross_term(xx, ctx, u, dens, c, t):
    """The cross term, written into c (t is scratch)."""
    d, s, q = ctx.delta_b, ctx.sig, ctx.q
    if isinstance(ctx.fees, LinearDemand):
        np.divide(xx, s, out=c)
        c -= np.multiply(q, u, out=t)
        c *= np.multiply(dens, 0.5 * ctx.fees.kbar, out=t)
    else:
        np.multiply(xx, ctx.qt, out=c)
        np.subtract(d * q, c, out=c)
        c *= u
        c /= s
        np.subtract(q - 0.5, c, out=c)
        c *= np.divide(dens, s, out=t)
    return c


def _base_integrand(k, xx, ctx, dens, tail, r, t=None):
    """Order-k base integrand, written into r (t is scratch for orders 0
    and 1): 0.5 (x - d) tail + S (1/2 - Q) dens, then
    0.5 tail + ((d Q - x Q~)/S) dens, then dens (a0 + x (a1 + x a2))."""
    d, s, q, qt = ctx.delta_b, ctx.sig, ctx.q, ctx.qt
    if k == 0:
        np.subtract(xx, d, out=r)
        r *= 0.5
        r *= tail
        r += np.multiply(s * (0.5 - q), dens, out=t)
    elif k == 1:
        np.multiply(xx, qt, out=r)
        np.subtract(d * q, r, out=r)
        r /= s
        r *= dens
        r += np.multiply(tail, 0.5, out=t)
    else:
        a0, a1, a2 = ctx.e2_poly
        np.multiply(xx, a2, out=r)
        r += a1
        r *= xx
        r += a0
        r *= dens
    return r


def _volume_integrand(k, xx, ctx, dens, tail, r, t=None):
    """Order-k half-linear integrand (without kbar/2), written into r (t is
    scratch for orders 0 and 1):
    (S^2 (1/2 - Q) - 0.5 (x - d)(d + x)) tail + S (0.5 (x - d)) dens,
    then -x tail + S Q dens, then dens (b0 + x b1) - tail."""
    d, s, q = ctx.delta_b, ctx.sig, ctx.q
    if k == 0:
        np.subtract(xx, d, out=t)
        t *= 0.5
        np.add(d, xx, out=r)
        r *= t
        np.subtract(s * s * (0.5 - q), r, out=r)
        r *= tail
        t *= s
        t *= dens
        r += t
    elif k == 1:
        np.multiply(-xx, tail, out=r)
        r += np.multiply(s * q, dens, out=t)
    else:
        b0, b1 = ctx.e2_poly
        np.multiply(xx, b1, out=r)
        r += b0
        r *= dens
        r -= tail
    return r


def payoff_terms(x, ctx: PayoffContext, orders=(0, 1, 2), cross=False) -> list:
    """Penalized payoff (order 0) and its first and second x-derivatives
    (orders 1 and 2) at the offsets ``x``, one array per requested order.

    ``x`` broadcasts against the shape of ``ctx.sigma_a``: one offset per
    sigma_a, or any array of offsets for a single sigma_a.  With ``cross``
    the list ends with the cross term: times ``ctx.w`` it is
    d e'(x)/d delta_b, without the mid-price penalty's E[d].
    """
    a, b, c = _penalty(ctx)
    x = np.asarray(x, dtype=float)
    penalty = (lambda: x * (a * x + b) + c, lambda: 2.0 * a * x + b, lambda: 2.0 * a)
    avgs = _averages(x, ctx, orders, cross)
    return [avg - penalty[k]() for k, avg in zip(orders, avgs)] + avgs[len(orders):]


def second_deriv_bound(ctx: PayoffContext, hi: float) -> np.ndarray:
    """Upper bound, at every sigma_a of ``ctx``, on the penalized second
    derivative over all offsets x in [0, hi].

    u = (x + d)/S stays in [d/S, (hi + d)/S], so Phi'(u) is at most its
    value at the point of that interval nearest 0.  The x-polynomial of
    ``ctx.e2_poly`` is linear or convex (its x^2 factor Q~/S^3 is taken
    as at least 0), so its maximum on [0, hi] lies at x = 0 or x = hi;
    floored at 0, it times that Phi' bounds the Phi' term.  Under
    half-linear demand -(1 - Phi(u)) is at most its value at the
    largest u.  The bound takes one (sigma_a, nodes) array per term and
    no offset axis.
    """
    a = _penalty(ctx)[0]
    d, s = ctx.delta_b, ctx.sig
    top = (hi + d) / s
    *coef, lead = ctx.e2_poly
    at_hi = np.maximum(lead, 0.0)
    for c in reversed(coef):
        at_hi = at_hi * hi + c
    bound = norm_pdf(np.clip(0.0, d / s, top)) * np.maximum(np.maximum(coef[0], at_hi), 0.0)
    if isinstance(ctx.fees, LinearDemand):
        bound = 0.5 * ctx.fees.kbar * (bound - norm_cdf(-top))
    return bound @ ctx.w - 2.0 * a


# Kept only as span targets of bench/layers.py, which tests/test_bench_targets.py
# requires; cli's derivative_fd check is what feeds those spans.
def penalized_payoff(x: float, ctx: PayoffContext) -> float:
    """Payoff net of the exchange penalty of ctx.fees."""
    return float(payoff_terms(x, ctx, (0,))[0])


def payoff_deriv(x: float, ctx: PayoffContext) -> float:
    """d/dx of penalized_payoff."""
    return float(payoff_terms(x, ctx, (1,))[0])


def payoff_second_deriv(x: float, ctx: PayoffContext) -> float:
    """d^2/dx^2 of penalized_payoff."""
    return float(payoff_terms(x, ctx, (2,))[0])

