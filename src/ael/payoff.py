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

One kernel, ``payoff_terms``, evaluates all of these.  A context built
on an array of sigma_a caches S, Q and Q~ as matrices with one row per
sigma_a and one column per quadrature node, once, together with the
strategy values at the nodes, their moments and the x-free factors of
the second-derivative integrand: e'' is avg[Phi'(u) (a0 + x (a1 + x a2))],
and h'' is (kbar/2) avg[-(1 - Phi(u)) + Phi'(u) (b0 + x b1)] - 2 g.
Each call computes u and Phi'(u) once for a whole array of offsets, and
1 - Phi(u) only when a requested order needs it: orders 0 and 1 always,
order 2 only under half-linear demand.  The requested value and
derivatives follow from these, evaluated in place (``out=`` ufuncs) in
four arrays of the (offsets, nodes) shape rather than one temporary per
operation, with the operations of the formulas above in their order, so
the bits are those of the plain expressions.  The fee scheme contributes
one closed-form quadratic penalty.  The scalar functions below are
one-point calls into the same kernel.  Contexts are immutable and
evaluations pure, hence freely shareable across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, WrongScheme
from .gaussmath import QuadratureRule, norm_cdf, norm_pdf
from .model import (
    FeeScheme,
    LinearDemand,
    MarketParams,
    MidQuad,
    NoFee,
    SpreadQuad,
    Strategy,
    q_rho,
    q_tilde_rho,
    rule_average_nodes,
    sigma_rho,
    uniform_sigma_moments,
)


@dataclass(frozen=True)
class PayoffContext:
    """Frozen evaluation context for one sigma_a, or an array of them,
    against a fixed opponent strategy.

    With an array ``sigma_a`` the caches gain its shape in front of the
    node axis, and ``payoff_terms`` takes offsets that broadcast against
    that shape.
    """

    sigma_a: float | np.ndarray
    delta: Strategy
    params: MarketParams
    fees: FeeScheme
    rule: QuadratureRule | None = None

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

    def __post_init__(self):
        p = self.params
        slack = 1e-12 * max(1.0, p.sigma_plus)
        sa = np.asarray(self.sigma_a, dtype=float)
        if not np.all((p.sigma_minus - slack <= sa) & (sa <= p.sigma_plus + slack)):
            raise DomainError(
                f"sigma_a = {self.sigma_a} outside [{p.sigma_minus}, {p.sigma_plus}]"
            )
        nodes, w = rule_average_nodes(p, self.rule)
        sa = sa[..., None]
        set_ = object.__setattr__
        set_(self, "nodes", nodes)
        set_(self, "w", w)
        set_(self, "delta_b", np.asarray(self.delta(nodes), dtype=float))
        set_(self, "sig", sigma_rho(sa, nodes, p.rho))
        set_(self, "q", q_rho(sa, nodes, p.rho))
        set_(self, "qt", q_tilde_rho(sa, nodes, p.rho))
        set_(self, "e_delta", float(np.dot(w, self.delta_b)))
        set_(self, "e_delta2", float(np.dot(w, self.delta_b**2)))
        set_(self, "e2_poly", _e2_poly(self))


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


def _averages(x: np.ndarray, ctx: PayoffContext, orders, volume: bool) -> list:
    """Averages over sigma_b of the base integrand (the half-linear one
    times kbar/2 with ``volume``) and its x-derivatives, one per order.

    Orders 0 and 1 need Phi(u) and Phi'(u).  Order 2 is Phi'(u) times a
    polynomial in x with the factors ``ctx.e2_poly`` caches, less
    1 - Phi(u) under half-linear demand; the base order 2 needs no
    Phi(u) at all.  The cached factors are those of the context's own
    scheme, so for order 2 ``volume`` must match it.

    The four (offsets, nodes) arrays are u (then 1 - Phi(u)), Phi'(u)
    and two work arrays, views of one allocation: as four separate ones,
    glibc's malloc handed the freed memory back to the system after each
    call on a (4, 257, 64) block, and the next call page-faulted it in
    again (12k minor faults per default ``verify_ne``).
    """
    xx = x[..., None]
    d, s = ctx.delta_b, ctx.sig
    u, dens, *work = np.empty((4, *np.broadcast(xx, s).shape))
    np.add(xx, d, out=u)
    u /= s
    norm_pdf(u, out=dens)
    tail = None
    if volume or min(orders) < 2:
        tail = np.subtract(1.0, norm_cdf(u, out=u), out=u)
    scale = 0.5 * ctx.fees.kbar if volume else 1.0
    integrand = _volume_integrand if volume else _base_integrand
    return [scale * (integrand(k, xx, ctx, dens, tail, *work) @ ctx.w) for k in orders]


def _base_integrand(k, xx, ctx, dens, tail, r, t):
    """Order-k base integrand, written into r (t is scratch):
    0.5 (x - d) tail + S (1/2 - Q) dens, then 0.5 tail + ((d Q - x Q~)/S) dens,
    then dens (a0 + x (a1 + x a2))."""
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


def _volume_integrand(k, xx, ctx, dens, tail, r, t):
    """Order-k half-linear integrand (without kbar/2), written into r (t is
    scratch): (S^2 (1/2 - Q) - 0.5 (x - d)(d + x)) tail + S (0.5 (x - d)) dens,
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
    avgs = _averages(x, ctx, orders, isinstance(fees, LinearDemand))
    return [avg - penalty[k]() for k, avg in zip(orders, avgs)]


def base_payoff(x: float, ctx: PayoffContext) -> float:
    """Expected payoff with no fees, regardless of ctx.fees."""
    return float(_averages(np.asarray(x, dtype=float), ctx, (0,), False)[0])


def penalized_payoff(x: float, ctx: PayoffContext) -> float:
    """Payoff net of the exchange penalty of ctx.fees."""
    return float(payoff_terms(x, ctx, (0,))[0])


def payoff_deriv(x: float, ctx: PayoffContext) -> float:
    """d/dx of penalized_payoff."""
    return float(payoff_terms(x, ctx, (1,))[0])


def payoff_second_deriv(x: float, ctx: PayoffContext) -> float:
    """d^2/dx^2 of penalized_payoff."""
    return float(payoff_terms(x, ctx, (2,))[0])

