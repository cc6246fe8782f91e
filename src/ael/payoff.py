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

``cross_deriv`` gives the d-derivative of the e' or h' integrand.

One kernel, ``payoff_terms``, evaluates all of these.  A context built
on an array of sigma_a caches S, Q and Q~ as matrices with one row per
sigma_a and one column per quadrature node, once, together with the
strategy values at the nodes, their moments and the x-free factors of
the second-derivative integrand: e'' is avg[Phi'(u) (a0 + x (a1 + x a2))],
and h'' is (kbar/2) avg[-(1 - Phi(u)) + Phi'(u) (b0 + x b1)] - 2 g.
S, Q and Q~ do not depend on the strategy: ``PayoffContext.against``
shares them (and the nodes and weights) with a context against other
node values, re-deriving only the strategy's values, moments and
second-derivative factors, and ``PayoffContext.rows`` shares the
strategy's caches with a context on a block of the sigma_a rows.
Each call computes u and Phi'(u) once for a whole array of offsets, and
1 - Phi(u) only when a requested order needs it: orders 0 and 1 always,
order 2 only under half-linear demand.  The requested value and
derivatives follow from these, evaluated in place (``out=`` ufuncs) in
four arrays of the (offsets, nodes) shape rather than one temporary per
operation, with the operations of the formulas above in their order, so
the bits are those of the plain expressions.  The fee scheme contributes
one closed-form quadratic penalty.  Contexts are immutable and
evaluations pure, hence freely shareable across workers.
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
    default_rule,
    q_rho,
    q_tilde_rho,
    sigma_rho,
    uniform_sigma_moments,
)


@dataclass(frozen=True)
class PayoffContext:
    """Frozen evaluation context for one sigma_a, or an array of them,
    against a fixed opponent strategy.

    With an array ``sigma_a`` the caches gain its shape in front of the
    node axis, and ``payoff_terms`` takes offsets that broadcast against
    that shape.  The opponent strategy ``delta`` is read once, at its
    node values ``delta_b``, and not stored.  ``rule`` is the ``default_rule``
    pair the averages over sigma_b use; None stands for ``default_rule(params)``.

    ``against`` and ``rows`` derive contexts without rebuilding the
    x-free caches: the first shares S, Q and Q~ and re-derives what
    depends on the opponent's node values, the second shares those and
    slices S, Q and Q~.
    """

    sigma_a: float | np.ndarray
    delta: InitVar[Strategy]
    params: MarketParams
    fees: FeeScheme
    rule: tuple[np.ndarray, np.ndarray] | None = None

    # caches, derived in __post_init__
    nodes: np.ndarray = field(init=False, repr=False)
    w: np.ndarray = field(init=False, repr=False)
    delta_b: np.ndarray = field(init=False, repr=False)
    sig: np.ndarray = field(init=False, repr=False)
    q: np.ndarray = field(init=False, repr=False)
    qt: np.ndarray = field(init=False, repr=False)
    e_delta: float = field(init=False, repr=False)
    e_delta2: float = field(init=False, repr=False)
    e2_poly: tuple = field(init=False, repr=False)

    def __post_init__(self, delta: Strategy):
        p = self.params
        slack = 1e-12 * max(1.0, p.sigma_plus)
        sa = np.asarray(self.sigma_a, dtype=float)
        if not np.all((p.sigma_minus - slack <= sa) & (sa <= p.sigma_plus + slack)):
            raise DomainError(
                f"sigma_a = {self.sigma_a} outside [{p.sigma_minus}, {p.sigma_plus}]"
            )
        nodes, w = default_rule(p) if self.rule is None else self.rule
        sa = sa[..., None]
        set_ = object.__setattr__
        set_(self, "nodes", nodes)
        set_(self, "w", w)
        set_(self, "sig", sigma_rho(sa, nodes, p.rho))
        set_(self, "q", q_rho(sa, nodes, p.rho))
        set_(self, "qt", q_tilde_rho(sa, nodes, p.rho))
        self._point_at(np.asarray(delta(nodes), dtype=float))

    def _point_at(self, delta_b: np.ndarray) -> None:
        """Set the caches that depend on the opponent's node values."""
        set_ = object.__setattr__
        set_(self, "delta_b", delta_b)
        set_(self, "e_delta", float(np.dot(self.w, delta_b)))
        set_(self, "e_delta2", float(np.dot(self.w, delta_b**2)))
        set_(self, "e2_poly", _e2_poly(self))

    def against(self, values) -> "PayoffContext":
        """This context against the opponent strategy that takes ``values``
        at ``self.nodes``, as if built on ``Strategy(self.nodes, values)``."""
        ctx = copy.copy(self)
        ctx._point_at(np.asarray(values, dtype=float))
        return ctx

    def rows(self, start: int, stop: int) -> "PayoffContext":
        """This context on ``sigma_a[start:stop]`` of an array ``sigma_a``,
        as if built on that slice."""
        ctx = copy.copy(self)
        set_ = object.__setattr__
        for name in ("sigma_a", "sig", "q", "qt"):
            set_(ctx, name, getattr(self, name)[start:stop])
        set_(ctx, "e2_poly", tuple(a[start:stop] for a in self.e2_poly))
        return ctx


def _e2_poly(ctx: PayoffContext) -> tuple:
    """x-free factors of the second-derivative integrand, lowest power
    first: it is Phi'(u) times their polynomial in x, less 1 - Phi(u)
    under half-linear demand."""
    d, s, q, qt = ctx.delta_b, ctx.sig, ctx.q, ctx.qt
    if isinstance(ctx.fees, LinearDemand):
        return -q * d / s, qt / s
    s3 = s * s * s
    return -(0.5 + qt + q * d * d / (s * s)) / s, (qt - q) * d / s3, qt / s3


def _mid_quad_constant(ctx: PayoffContext):
    """x-free part of the mid-price penalty expectation (without gamma/4)."""
    e_sb, e_sb2 = uniform_sigma_moments(ctx.params)
    sa = np.asarray(ctx.sigma_a, dtype=float)
    return ctx.e_delta2 + sa * sa + e_sb2 + 2.0 * ctx.params.rho * sa * e_sb


# The exchange penalty a x^2 + b x + c each scheme subtracts from the payoff.
_PENALTY = {
    NoFee: lambda f, ctx: (0.0, 0.0, 0.0),
    SpreadQuad: lambda f, ctx: (f.gamma, 0.0, 0.0),
    LinearDemand: lambda f, ctx: (f.gamma, 0.0, 0.0),
    MidQuad: lambda f, ctx: (
        0.25 * f.gamma, -0.5 * f.gamma * ctx.e_delta, 0.25 * f.gamma * _mid_quad_constant(ctx)
    ),
}


def _averages(x: np.ndarray, ctx: PayoffContext, orders) -> list:
    """Averages over sigma_b, one per order, of the base integrand (the
    half-linear one times kbar/2 under half-linear demand) and its x-derivatives.

    Orders 0 and 1 need Phi(u) and Phi'(u).  Order 2 is Phi'(u) times a
    polynomial in x with the factors ``ctx.e2_poly`` caches, less
    1 - Phi(u) under half-linear demand; the base order 2 needs no
    Phi(u) at all.

    The (offsets, nodes) arrays are u (then 1 - Phi(u)), Phi'(u) and
    two work arrays r and t, views of one allocation: as four separate
    ones, glibc's malloc handed the freed memory back to the system after
    each call on a (4, 257, 64) block, and the next call page-faulted it
    in again (12k minor faults per default ``verify_ne``).  Order 2 needs
    no t, and without a tail u's array serves as r once Phi'(u) is
    taken, so a base order-2 call allocates two arrays.
    """
    volume = isinstance(ctx.fees, LinearDemand)
    xx = x[..., None]
    d, s = ctx.delta_b, ctx.sig
    lower = min(orders) < 2
    with_tail = volume or lower
    u, dens, *work = np.empty((2 + with_tail + lower, *np.broadcast(xx, s).shape))
    np.add(xx, d, out=u)
    u /= s
    norm_pdf(u, out=dens)
    if with_tail:
        tail = np.subtract(1.0, norm_cdf(u, out=u), out=u)
    else:
        tail, work = None, [u]
    scale = 0.5 * ctx.fees.kbar if volume else 1.0
    integrand = _volume_integrand if volume else _base_integrand
    return [scale * (integrand(k, xx, ctx, dens, tail, *work) @ ctx.w) for k in orders]


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


def payoff_terms(x, ctx: PayoffContext, orders=(0, 1, 2)) -> list:
    """Penalized payoff (order 0) and its first and second x-derivatives
    (orders 1 and 2) at the offsets ``x``, one array per requested order.

    ``x`` broadcasts against the shape of ``ctx.sigma_a``: one offset per
    sigma_a, or any array of offsets for a single sigma_a.
    """
    fees = ctx.fees
    if type(fees) not in _PENALTY:
        raise WrongScheme(f"unknown fee scheme {fees!r}")
    a, b, c = _PENALTY[type(fees)](fees, ctx)
    x = np.asarray(x, dtype=float)
    penalty = (lambda: x * (a * x + b) + c, lambda: 2.0 * a * x + b, lambda: 2.0 * a)
    avgs = _averages(x, ctx, orders)
    return [avg - penalty[k]() for k, avg in zip(orders, avgs)]


def cross_deriv(x, ctx: PayoffContext) -> np.ndarray:
    """Derivative of the order-1 integrand in the opponent's value d at
    each node, not averaged (times ``ctx.w``: d e'(x)/d delta_b, without
    the mid-price penalty's E[d]).  With u = (x + d)/S it is
    Phi'(u)/S (Q - 1/2 - u (d Q - x Q~)/S), or (kbar/2) Phi'(u) (x/S - Q u)
    under half-linear demand."""
    xx = np.asarray(x, dtype=float)[..., None]
    d, s, q = ctx.delta_b, ctx.sig, ctx.q
    u = (xx + d) / s
    dens = norm_pdf(u)
    if isinstance(ctx.fees, LinearDemand):
        return 0.5 * ctx.fees.kbar * dens * (xx / s - q * u)
    return dens / s * (q - 0.5 - u * (d * q - xx * ctx.qt) / s)


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

