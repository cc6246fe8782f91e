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
the e' or h' integrand at each node, not averaged.  With u = (x + d)/S,
d/dd less d/dx of the e' integrand is Phi'(u) (Q + Q~)/S = Phi'(u)/S, and
of the h' integrand 1 - Phi(u), so the cross term is the Phi' part of
the order-2 integrand plus Phi'(u)/S, or that part alone (times kbar/2).

One kernel, ``payoff_terms``, evaluates all of these.  A context built
on an array of sigma_a caches S, Q and Q~ as matrices with one row per
sigma_a and one column per quadrature node, once, together with the
strategy values at the nodes and the x-free coefficients of P2, the
polynomial of the second-derivative integrand: e'' is
avg[Phi'(u) P2(x)], P2(x) = a0 + x (a1 + x a2), and h'' is
(kbar/2) avg[Phi'(u) P2(x) - (1 - Phi(u))] - 2 g, P2(x) = b0 + x b1.
S, Q and Q~ do not depend on the strategy: ``PayoffContext.against``
shares them (and the nodes and weights) with a context against other
node values, re-deriving only the rest, and ``PayoffContext.rows``
takes some sigma_a rows of the caches the kernel reads.  Nor do they
depend on gamma, and P2 only on whether the scheme is half-linear, so
the fees leave the caches: ``PayoffContext.priced`` shares them all
under other fees of that kind and kbar, one fee-free table per market
for every gamma of a sweep and every decade of a climb.  Each call
computes u and Phi'(u) once for a whole array of offsets, Phi'(u) P2(x)
once for order 2 and the cross term together, and 1 - Phi(u) once,
which neither the base order 2 nor the cross term reads.  The requested
terms follow in place (``out=`` ufuncs) in at most four arrays of the
(offsets, nodes) shape rather than one temporary per operation, with
the operations of the formulas above in their order, so the bits are
those of the plain expressions.  Those arrays are views of one block
per calling thread, kept from call to call.  The fee scheme
contributes one closed-form quadratic penalty.  Contexts are immutable
and evaluations pure, hence freely shareable across workers.

``second_deriv_bound`` bounds the penalized e'' (or h'') from above on a
whole interval of offsets [0, hi], at every sigma_a, from the same
caches: Phi'(u) by its largest value over the interval's range of u,
the polynomial in x by the larger of its end values (it is linear or
convex) floored at 0, and -(1 - Phi(u)) by its value at the top of the
range.  It takes one (sigma_a, nodes) array per term and no offset axis.
"""

from __future__ import annotations

import copy
import math
import threading
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

    ``against``, ``rows`` and ``priced`` derive contexts without
    rebuilding the x-free caches: the first shares S, Q and Q~ and
    re-derives what depends on the opponent's node values, the second
    takes some rows of every cache, the third swaps in other fees of the
    same kind, which no cache reads, and each may follow the others.
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
    e2_poly: tuple = field(init=False, repr=False)

    def __post_init__(self, delta: Strategy | None):
        p = self.params
        check_sigma_a(self.sigma_a, p)
        nodes, w = self.rule
        sa = np.asarray(self.sigma_a, dtype=float)[..., None]
        s = sigma_rho(sa, nodes, p.rho)
        q, qt = q_rho_pair(sa, nodes, p.rho)
        for name, value in zip(("nodes", "w", "sig", "q", "qt"), (nodes, w, s, q, qt)):
            object.__setattr__(self, name, value)
        if delta is not None:
            self._point_at(np.asarray(delta(nodes), dtype=float))

    def _point_at(self, delta_b: np.ndarray) -> None:
        """Set the opponent's node values and ``e2_poly``, the x-free
        factors of the second-derivative integrand, lowest power first,
        by the operations of the plain expressions of e'' and h''."""
        d, s, q, qt = delta_b, self.sig, self.q, self.qt
        if isinstance(self.fees, LinearDemand):
            poly = -q * d / s, qt / s
        else:
            s3 = s * s * s
            poly = -(0.5 + qt + q * d * d / (s * s)) / s, (qt - q) * d / s3, qt / s3
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
        if built on those rows; ``index`` is a slice, an integer array or a
        boolean mask along the first axis."""
        ctx = copy.copy(self)
        for name in ("sigma_a", "sig", "q", "qt"):
            object.__setattr__(ctx, name, getattr(self, name)[index])
        object.__setattr__(ctx, "e2_poly", tuple(a[index] for a in self.e2_poly))
        return ctx

    def priced(self, fees: FeeScheme) -> "PayoffContext":
        """This context under ``fees``, as if built with them, every cache
        shared; WrongScheme unless both schemes are half-linear with one
        kbar, or neither is (``e2_poly`` follows the kind)."""
        if getattr(fees, "kbar", None) != getattr(self.fees, "kbar", None):
            raise WrongScheme(f"a table built under {self.fees!r} cannot price {fees!r}")
        ctx = copy.copy(self)
        object.__setattr__(ctx, "fees", fees)
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


_scratch = threading.local()


def _scratch_block(n: int, shape: tuple) -> np.ndarray:
    """n arrays of ``shape`` in one block that this thread reuses from
    call to call, grown when a call needs more.  A fresh block per call
    is handed back to the system by glibc's malloc whenever the top of
    the heap passes its trim threshold, which depends on everything the
    process allocated before, and each call then page-faults its block
    in again (81 minor faults per default solve where scipy.special's
    package init has not run)."""
    size = n * math.prod(shape)
    block = getattr(_scratch, "block", None)
    if block is None or block.size < size:
        block = _scratch.block = np.empty(size)
    return block[:size].reshape(n, *shape)


def _horner(x, poly, out):
    """The polynomial with coefficients ``poly``, lowest power first, at
    ``x`` by Horner's rule, written into ``out`` (which may be the
    leading coefficient itself)."""
    *coef, lead = poly
    np.multiply(x, lead, out=out)
    for c in reversed(coef[1:]):
        out += c
        out *= x
    out += coef[0]
    return out


def _averages(x: np.ndarray, ctx: PayoffContext, orders, cross=False) -> list:
    """Averages over sigma_b, one per order, of the base integrand (the
    half-linear one times kbar/2 under half-linear demand) and its
    x-derivatives, followed with ``cross`` by the unaveraged cross term.

    Orders 0 and 1 need Phi(u) and Phi'(u).  Order 2 and the cross term
    share Phi'(u) P2(x), P2 the polynomial of ``ctx.e2_poly``: order 2 is
    that, less 1 - Phi(u) under half-linear demand, and the cross term is
    that plus Phi'(u)/S, or that times kbar/2.

    The (offsets, nodes) arrays are u (then 1 - Phi(u)), Phi'(u) and the
    work arrays r and t, views of the calling thread's ``_scratch_block``;
    a call of order 2 alone takes no t.  The cross term is a new array.
    """
    volume = isinstance(ctx.fees, LinearDemand)
    xx = x[..., None]
    d, s = ctx.delta_b, ctx.sig
    u, dens, *work = _scratch_block(3 + (min(orders) < 2), np.broadcast(xx, s).shape)
    np.add(xx, d, out=u)
    u /= s
    norm_pdf(u, out=dens)
    tail = np.subtract(1.0, norm_cdf(u, out=u), out=u)
    scale = 0.5 * ctx.fees.kbar if volume else 1.0
    second, extra = None, []
    if 2 in orders or cross:
        r = _horner(xx, ctx.e2_poly, work[0])
        r *= dens
        if cross:
            extra = [np.multiply(r, scale) if volume else dens / s + r]
        if volume:
            r -= tail
        second = scale * (r @ ctx.w)
    integrand = _volume_integrand if volume else _base_integrand
    return [second if k == 2 else scale * (integrand(k, xx, ctx, dens, tail, *work) @ ctx.w)
            for k in orders] + extra


def _base_integrand(k, xx, ctx, dens, tail, r, t):
    """Order-k base integrand for k = 0 or 1, written into r (t is
    scratch): 0.5 (x - d) tail + S (1/2 - Q) dens, then
    0.5 tail + ((d Q - x Q~)/S) dens."""
    d, s, q, qt = ctx.delta_b, ctx.sig, ctx.q, ctx.qt
    if k == 0:
        np.subtract(xx, d, out=r)
        r *= 0.5
        r *= tail
        r += np.multiply(s * (0.5 - q), dens, out=t)
    else:
        np.multiply(xx, qt, out=r)
        np.subtract(d * q, r, out=r)
        r /= s
        r *= dens
        r += np.multiply(tail, 0.5, out=t)
    return r


def _volume_integrand(k, xx, ctx, dens, tail, r, t):
    """Order-k half-linear integrand (without kbar/2) for k = 0 or 1,
    written into r (t is scratch):
    (S^2 (1/2 - Q) - 0.5 (x - d)(d + x)) tail + S (0.5 (x - d)) dens,
    then -x tail + S Q dens."""
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
    else:
        np.multiply(-xx, tail, out=r)
        r += np.multiply(s * q, dens, out=t)
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
    largest u.  The bound has no offset axis, and is formed in place in
    at most three (sigma_a, nodes) arrays.
    """
    a = _penalty(ctx)[0]
    d, s = ctx.delta_b, ctx.sig
    top = np.divide(hi + d, s)
    u = np.divide(d, s)
    np.clip(0.0, u, top, out=u)  # the point of [d/S, top] nearest 0
    bound = norm_pdf(u, out=np.empty_like(u))
    # u is free: the polynomial at hi, floored at its value at 0 and at 0
    *coef, lead = ctx.e2_poly
    poly = _horner(hi, (*coef, np.maximum(lead, 0.0, out=u)), u)
    np.maximum(coef[0], poly, out=poly)
    bound *= np.maximum(poly, 0.0, out=poly)
    if isinstance(ctx.fees, LinearDemand):
        bound -= norm_cdf(np.negative(top, out=top), out=top)
        bound *= 0.5 * ctx.fees.kbar
    return bound @ ctx.w - 2.0 * a


# One order of payoff_terms each, on whatever it takes: an array of offsets
# against a row context, or one offset on one sigma_a (a float).  Span
# targets of bench/layers.py (tests/test_bench_targets.py); cli's
# derivative_fd check feeds the first two, and the third has no src/ caller.
def penalized_payoff(x, ctx: PayoffContext):
    """Payoff net of the exchange penalty of ctx.fees."""
    return payoff_terms(x, ctx, (0,))[0]


def payoff_deriv(x, ctx: PayoffContext):
    """d/dx of penalized_payoff."""
    return payoff_terms(x, ctx, (1,))[0]


def payoff_second_deriv(x, ctx: PayoffContext):
    """d^2/dx^2 of penalized_payoff."""
    return payoff_terms(x, ctx, (2,))[0]
