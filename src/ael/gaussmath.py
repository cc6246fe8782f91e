"""Numerical primitives: the standard-normal CDF/PDF, the monotone
Newton root of a decreasing convex function, bracketed root finding,
concave 1-D maximization, and the nodes and weights of fixed-node
Gauss-Legendre quadrature with the polynomial interpolant through them.
Everything in this module is a pure function of its arguments, so all
of it is safe to call from any number of concurrent workers.

The normal CDF/PDF have one numpy path for scalars and arrays alike, so
a scalar closed form and the batched payoff kernel see the same bits.
Every scalar root the package takes (the degenerate equilibria, each
cold start's node roots, y*) comes from ``monotone_newton``.  The
Brent-style ``find_root`` on a ``Bracket`` serves only
``maximize_concave``, which only the benchmark's spans and the tests
reach (as span targets and as references).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import erfc

from .errors import DomainError, NoConvergence, NonConcave, NoSignChange

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_EPS = np.finfo(float).eps
_MONOTONE_STEPS = 100  # evaluations of a monotone_newton before NoConvergence


def norm_cdf(x, out=None):
    """Standard-normal CDF, 0.5 * erfc(-x / sqrt(2)).

    scipy's complementary error function keeps the lower tail free of
    cancellation, but not of the rounding of x / sqrt(2) and of an
    unsplit exp(-z^2): against 40-digit mpmath, 3001 points per range,
    the relative error reaches 1034 eps on x in [-37, -10], 74 eps on
    [-10, -3] and 10 eps on [-3, 0].  Elementwise on arrays;
    a scalar gives a numpy.float64.  With ``out`` every step writes
    there, so no temporary is allocated; ``out`` may be ``x`` itself.
    """
    t = np.negative(x, out=out)
    t = np.divide(t, _SQRT2, out=out)
    t = erfc(t, out=out)
    return np.multiply(t, 0.5, out=out)


def norm_pdf(x, out=None):
    """Standard-normal density exp(-x^2/2)/sqrt(2*pi).  Elementwise on
    arrays; a scalar gives a numpy.float64.  With ``out`` (which must not
    be ``x``) every step writes there, so no temporary is allocated."""
    t = np.multiply(x, -0.5, out=out)
    t = np.multiply(t, x, out=out)
    t = np.exp(t, out=out)
    return np.multiply(t, _INV_SQRT_2PI, out=out)


@dataclass(frozen=True)
class Bracket:
    """A sign-change interval with cached endpoint values."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")
        if not (math.isfinite(self.f_lo) and math.isfinite(self.f_hi)):
            raise DomainError("bracket endpoint values must be finite")
        if not self.f_lo * self.f_hi < 0.0:
            raise NoSignChange(
                f"f({self.lo}) = {self.f_lo} and f({self.hi}) = {self.f_hi} "
                "do not have opposite signs"
            )

    @classmethod
    def scan(cls, f: Callable[[float], float], lo: float, hi: float) -> "Bracket":
        """Evaluate ``f`` at the endpoints and build the bracket."""
        return cls(lo, hi, float(f(lo)), float(f(hi)))


def find_root(
    f: Callable[[float], float],
    bracket: Bracket,
    tol: float = 1e-13,
    max_iter: int = 200,
) -> float:
    """Root of ``f`` inside ``bracket`` by safeguarded Brent iteration.

    Stops when the bracket width falls below ``tol`` plus a machine-level
    relative term, or when an iterate hits an exact zero.  Deterministic:
    identical inputs produce bit-identical output.

    Raises NoSignChange if the bracket is invalid and NoConvergence if
    ``max_iter`` iterations do not shrink the bracket far enough.
    """
    a, b = bracket.lo, bracket.hi
    fa, fb = bracket.f_lo, bracket.f_hi
    if not fa * fb < 0.0:
        raise NoSignChange("bracket endpoint values do not have opposite signs")
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                # secant step
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                # inverse quadratic interpolation
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = float(f(b))
    raise NoConvergence(f"root not located within {max_iter} iterations")


def monotone_newton(f_df: Callable, x):
    """Root of f at every element of ``x`` (a float or an array), by
    Newton's method from ``x`` on all of them at once; ``f_df(x)``
    returns (f, f') elementwise.

    Where f is positive at the start, decreasing and convex up to the
    root, every Newton iterate stays below the root and rises to it
    (Ortega and Rheinboldt, Iterative Solution of Nonlinear Equations in
    Several Variables, 1970, section 13.3): no bracket is needed.  An
    iterate that would fall, which rounding alone can cause, is kept,
    and the iteration stops once none rises.  NoConvergence after
    ``_MONOTONE_STEPS`` evaluations.
    """
    for _ in range(_MONOTONE_STEPS):
        f, df = f_df(x)
        new = x - f / df
        if not np.any(new > x):
            return x
        x = np.maximum(x, new)
    raise NoConvergence(f"root still rising after {_MONOTONE_STEPS} Newton steps")


def _sign_changes(values: np.ndarray):
    """Count strict sign flips along the last axis, ignoring exact zeros."""
    signs = np.sign(values)
    # carry the last nonzero sign forward over zeros
    last = np.where(signs != 0.0, np.arange(signs.shape[-1]), 0)
    np.maximum.accumulate(last, axis=-1, out=last)
    signs = np.take_along_axis(signs, last, axis=-1)
    return np.count_nonzero((signs[..., 1:] != signs[..., :-1]) & (signs[..., :-1] != 0.0), axis=-1)


def maximize_concave(
    f: Callable[[float], float],
    f_prime: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    diag_n: int = 33,
) -> tuple[float, float]:
    """Maximize a concave function on [lo, hi] through its derivative.

    Returns ``(x_star, f(x_star))``.  If ``f_prime(lo) <= 0`` the maximum
    is at ``lo``; if ``f_prime(hi) >= 0`` it is at ``hi``.  Otherwise the
    derivative is sampled on a ``diag_n``-point grid: more than one sign
    change raises NonConcave (carrying the leftmost stationary point),
    a single one is refined by bracketed root finding.
    """
    if not lo < hi:
        raise DomainError(f"maximize_concave requires lo < hi, got [{lo}, {hi}]")
    d_lo = float(f_prime(lo))
    if d_lo <= 0.0:
        return lo, float(f(lo))
    d_hi = float(f_prime(hi))
    if d_hi >= 0.0:
        return hi, float(f(hi))

    xs = np.linspace(lo, hi, diag_n)
    ds = np.empty(diag_n)
    ds[0], ds[-1] = d_lo, d_hi
    for i in range(1, diag_n - 1):
        ds[i] = float(f_prime(xs[i]))

    # leftmost + -> - crossing; d_lo > 0 > d_hi guarantees one exists
    k = next(i for i in range(diag_n - 1) if ds[i] > 0.0 and ds[i + 1] <= 0.0)
    if ds[k + 1] == 0.0:
        x = float(xs[k + 1])
    else:
        x = find_root(f_prime, Bracket(float(xs[k]), float(xs[k + 1]), ds[k], ds[k + 1]), tol)

    if _sign_changes(ds) > 1:
        raise NonConcave(
            f"derivative changes sign more than once on [{lo}, {hi}]",
            smallest_root=x,
        )
    return x, float(f(x))


@functools.lru_cache(maxsize=16)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights on [-1, 1]; cached, as the eigensolve costs ~1 ms."""
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the ``n``-node Gauss-Legendre rule
    mapped onto [a, b]; the weights sum to b - a.

    Exact for polynomials of degree <= 2n - 1.  The integrands this
    package feeds it are smooth compositions of the normal CDF/PDF; the
    caller picks n (``SolverConfig.quad_n`` across the package), and a
    fixed rule keeps every evaluation deterministic.
    """
    if n < 1:
        raise DomainError("need at least one node")
    if not a < b:
        raise DomainError(f"rule requires a < b, got [{a}, {b}]")
    x, w = _legendre(n)
    half = 0.5 * (b - a)
    nodes, weights = a + half * (x + 1.0), w * half
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def legendre_interpolate(nodes: np.ndarray, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The polynomial through ``values`` at the Gauss-Legendre ``nodes`` of
    any interval (ascending, as ``gauss_legendre`` gives them), at ``x``.

    Second-kind barycentric formula with the weights (-1)^j sqrt((1 -
    t_j^2) lambda_j) of the rule on [-1, 1] (Wang, Huybrechs and
    Vandewalle, Math. Comp. 83, 2014); an affine map of the nodes scales
    every weight alike, so the formula takes ``nodes`` as they are.  It
    is stable wherever the interpolation problem is well conditioned
    (Berrut and Trefethen, SIAM Rev. 46, 2004).  A point equal to a node
    takes that node's value.
    """
    t, lam = _legendre(nodes.size)
    w = np.sqrt((1.0 - t * t) * lam)
    w[1::2] *= -1.0
    diff = x[:, None] - nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        c = w / diff
        out = (c @ values) / c.sum(axis=1)
    at, j = np.nonzero(diff == 0.0)
    out[at] = values[j]
    return out
