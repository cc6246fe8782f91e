import math
import warnings

import numpy as np
import pytest
import scipy.interpolate
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import ael.gaussmath as gaussmath
from ael.errors import DomainError, NoConvergence, NonConcave, NoSignChange
from ael.gaussmath import (
    Bracket,
    find_root,
    gauss_legendre,
    legendre_interpolate,
    maximize_concave,
    monotone_newton,
    norm_cdf,
    norm_pdf,
)
from ael.model import MarketParams, default_rule, sigma_rho

# high-precision reference values (40-digit erf/erfc evaluation)
PHI_196 = 0.9750021048517796
PDF_0 = 0.3989422804014327
PDF_1 = 0.24197072451914337


class TestNormCdf:
    def test_zero_is_half(self):
        assert norm_cdf(0.0) == 0.5

    def test_tail_saturation(self):
        assert norm_cdf(40.0) == 1.0
        assert norm_cdf(-40.0) == pytest.approx(0.0, abs=1e-300)

    def test_reference_value(self):
        assert norm_cdf(1.96) == pytest.approx(PHI_196, abs=1e-14)

    def test_monotone(self):
        xs = np.linspace(-10, 10, 2001)
        assert np.all(np.diff(norm_cdf(xs)) >= 0.0)

    @given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
    def test_symmetry(self, x):
        assert abs(norm_cdf(x) + norm_cdf(-x) - 1.0) <= 1e-14

    def test_derivative_matches_pdf_with_observed_order(self):
        # central differences at two step sizes; convergence order >= 1.9
        xs = np.array([-2.0, -0.7, 0.3, 1.5])
        errs = []
        for h in (1e-4, 1e-5):
            fd = (norm_cdf(xs + h) - norm_cdf(xs - h)) / (2 * h)
            errs.append(np.max(np.abs(fd - norm_pdf(xs))))
        order = math.log(errs[0] / errs[1]) / math.log(10.0)
        assert order >= 1.9

    def test_array_and_scalar_agree(self):
        xs = np.linspace(-8.0, 8.0, 2001)
        for fn in (norm_cdf, norm_pdf, lambda x: sigma_rho(x, 1.1, 0.3)):
            assert np.array_equal(fn(xs), [fn(float(x)) for x in xs])


class TestNormPdf:
    def test_at_zero(self):
        assert norm_pdf(0.0) == pytest.approx(PDF_0, abs=1e-16)

    def test_even(self):
        assert norm_pdf(1.3) == norm_pdf(-1.3)

    def test_reference_value(self):
        assert norm_pdf(1.0) == pytest.approx(PDF_1, abs=1e-16)


class TestFindRoot:
    def test_linear(self):
        root = find_root(lambda x: x - 1.0, Bracket.scan(lambda x: x - 1.0, 0.0, 2.0))
        assert root == pytest.approx(1.0, abs=1e-12)

    def test_exchange_first_order_condition(self):
        # same root as an independent Brent implementation
        f = lambda y: 1.0 - norm_cdf(y) - y * norm_pdf(y)
        root = find_root(f, Bracket.scan(f, 0.5, 1.0), tol=1e-14)
        oracle = scipy.optimize.brentq(f, 0.5, 1.0, xtol=1e-15, rtol=8.9e-16)
        assert root == pytest.approx(oracle, abs=1e-12)
        assert root == pytest.approx(0.7517915246935645, abs=1e-10)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            Bracket.scan(lambda x: x * x + 1.0, 0.0, 2.0)

    def test_deterministic(self):
        f = lambda x: math.cos(x) - x
        b = Bracket.scan(f, 0.0, 1.0)
        assert find_root(f, b) == find_root(f, b)

    def test_rejects_tampered_bracket(self):
        with pytest.raises(NoSignChange):
            Bracket(0.0, 1.0, 1.0, 2.0)


class TestMonotoneNewton:
    def test_rises_to_each_root_from_below(self):
        # 1/(1 + x) - a is positive at 0, decreasing and convex; root 1/a - 1
        a = np.array([0.9, 0.5, 0.1, 1e-3])
        seen = []

        def f_df(x):
            seen.append(np.array(x))
            return 1.0 / (1.0 + x) - a, -1.0 / (1.0 + x) ** 2

        roots = monotone_newton(f_df, np.zeros(4))
        assert roots == pytest.approx(1.0 / a - 1.0, rel=1e-14)
        assert all(np.all(b >= p) for p, b in zip(seen, seen[1:]))
        assert all(np.all(x <= 1.0 / a - 1.0 + 1e-9) for x in seen)

    def test_gives_up_while_still_rising(self, monkeypatch):
        monkeypatch.setattr(gaussmath, "_MONOTONE_STEPS", 3)
        with pytest.raises(NoConvergence):
            monotone_newton(lambda x: (1.0 / (1.0 + x) - 1e-6, -1.0 / (1.0 + x) ** 2), 0.0)


class TestMaximizeConcave:
    def test_parabola(self):
        x, fx = maximize_concave(
            lambda x: -((x - 1.0) ** 2), lambda x: -2.0 * (x - 1.0), 0.0, 3.0
        )
        assert x == pytest.approx(1.0, abs=1e-10)
        assert fx == pytest.approx(0.0, abs=1e-18)

    def test_decreasing_returns_lower_bound(self):
        x, _ = maximize_concave(lambda x: -x, lambda x: -1.0, 0.0, 1.0)
        assert x == 0.0

    def test_increasing_returns_upper_bound(self):
        x, _ = maximize_concave(lambda x: x, lambda x: 1.0, 0.0, 1.0)
        assert x == 1.0

    def test_degenerate_market_fixed_point(self):
        # symmetric penalized payoff: maximizing against the scalar
        # equilibrium root must return that root
        sigma, gamma = 1.1, 0.1
        sig = sigma * math.sqrt(2.0)
        d = scipy.optimize.brentq(
            lambda x: 0.5 * (1 - norm_cdf(math.sqrt(2) * x / sigma)) - 2 * gamma * x,
            0.0,
            5.0,
            xtol=1e-15,
        )

        def pay(x):
            u = (x + d) / sig
            return 0.5 * (x - d) * (1 - norm_cdf(u)) - gamma * x * x

        def dpay(x):
            u = (x + d) / sig
            return (
                0.5 * (1 - norm_cdf(u))
                + ((d - x) / (2 * sig)) * norm_pdf(u)
                - 2 * gamma * x
            )

        x, _ = maximize_concave(pay, dpay, 0.0, 5.0, tol=1e-13)
        assert x == pytest.approx(d, abs=1e-9)

    def test_non_concave_flagged_with_smallest_root(self):
        with pytest.raises(NonConcave) as exc:
            maximize_concave(math.sin, math.cos, 0.0, 3.0 * math.pi, diag_n=65)
        assert exc.value.smallest_root == pytest.approx(math.pi / 2, abs=1e-8)


class TestQuadrature:
    def test_weight_sum_invariant(self):
        nodes, weights = gauss_legendre(0.1, 1.1, 64)
        assert weights @ np.ones_like(nodes) == pytest.approx(1.0, abs=1e-13)

    def test_linear(self):
        nodes, weights = gauss_legendre(0.0, 1.0, 16)
        assert weights @ nodes == pytest.approx(0.5, abs=1e-14)

    def test_gaussian_density_normalizes(self):
        # [-8, 8] truncates only ~1.2e-15 of the mass, so the quadrature
        # recovers the normalization to 1e-10; on [-6, 6] the exact mass
        # is 1 - 2 Phi(-6) and the rule reproduces that instead
        nodes, weights = gauss_legendre(-8.0, 8.0, 64)
        assert weights @ norm_pdf(nodes) == pytest.approx(1.0, abs=1e-10)
        nodes6, weights6 = gauss_legendre(-6.0, 6.0, 64)
        assert weights6 @ norm_pdf(nodes6) == pytest.approx(
            1.0 - 2.0 * norm_cdf(-6.0), abs=1e-12
        )

    @pytest.mark.parametrize("degree", range(16))
    def test_monomial_exactness(self, degree):
        # an 8-node rule integrates monomials up to degree 15 exactly
        nodes, weights = gauss_legendre(0.0, 1.0, 8)
        exact = 1.0 / (degree + 1)
        assert weights @ nodes**degree == pytest.approx(exact, abs=1e-12)

    def test_invariant_violations(self):
        with pytest.raises(DomainError):
            gauss_legendre(1.0, 1.0, 8)
        with pytest.raises(DomainError):
            gauss_legendre(0.0, 1.0, 0)


class TestLegendreInterpolate:
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 64])
    def test_reproduces_polynomials_below_the_node_count(self, n):
        # the interpolant of a degree n - 1 polynomial is that polynomial,
        # also past the outer nodes, where the rows of a strategy grid lie
        nodes, _ = gauss_legendre(0.1, 1.1, n)
        coef = np.random.default_rng(n).standard_normal(n)
        x = np.linspace(0.1, 1.1, 101)
        got = legendre_interpolate(nodes, np.polynomial.polynomial.polyval(nodes, coef), x)
        want = np.polynomial.polynomial.polyval(x, coef)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_matches_scipy_barycentric(self):
        nodes, _ = gauss_legendre(-2.0, 3.0, 24)
        values = np.exp(-nodes) * np.sin(3.0 * nodes)
        x = np.linspace(-2.0, 3.0, 57)
        want = scipy.interpolate.BarycentricInterpolator(nodes, values)(x)
        assert legendre_interpolate(nodes, values, x) == pytest.approx(want, abs=1e-12)

    def test_converges_spectrally_on_analytic_functions(self):
        x = np.linspace(0.1, 1.1, 101)
        errs = []
        for n in (8, 16, 32):
            nodes, _ = gauss_legendre(0.1, 1.1, n)
            got = legendre_interpolate(nodes, np.exp(-nodes) * np.sin(3.0 * nodes), x)
            errs.append(np.max(np.abs(got - np.exp(-x) * np.sin(3.0 * x))))
        assert errs[0] < 1e-4 and errs[1] < 1e-12 and errs[2] < 1e-14

    def test_a_point_on_a_node_takes_its_value(self):
        # an odd rule has its middle node at the interval's centre, which
        # an odd uniform grid also holds; no division by zero is warned of
        nodes, _ = gauss_legendre(0.1, 1.1, 15)
        x = np.linspace(0.1, 1.1, 101)
        assert nodes[7] == x[50]
        values = np.cos(nodes)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = legendre_interpolate(nodes, values, x)
        assert got[50] == values[7] and np.all(np.isfinite(got))
        assert np.array_equal(legendre_interpolate(nodes, values, nodes), values)


class TestDefaultRule:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=2.0),
        st.floats(min_value=1e-3, max_value=3.0),
        st.floats(min_value=-0.9, max_value=0.9),
        st.integers(min_value=1, max_value=40),
    )
    def test_uniform_average_rule(self, sigma_minus, width, rho, n):
        params = MarketParams(sigma_minus, sigma_minus + width, rho)
        nodes, w = default_rule(params, n)
        assert nodes.shape == w.shape == (n,)
        assert w.sum() == pytest.approx(1.0, abs=1e-13)
        # exact for every polynomial of degree <= 2n - 1 in sigma, here
        # the monomials of the interval's own coordinate t in [0, 1]
        t = (nodes - params.sigma_minus) / (params.sigma_plus - params.sigma_minus)
        for degree in range(2 * n):
            assert w @ t**degree == pytest.approx(1.0 / (degree + 1), abs=1e-12)
        for a in (nodes, w):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    @settings(derandomize=True, deadline=None)
    @given(st.floats(min_value=0.01, max_value=5.0), st.integers(min_value=1, max_value=64))
    def test_degenerate_market_is_one_unit_node(self, sigma, n):
        nodes, w = default_rule(MarketParams(sigma, sigma, 0.0), n)
        assert nodes.tolist() == [sigma] and w.tolist() == [1.0]
        assert not nodes.flags.writeable and not w.flags.writeable
