import math
import sys
import threading
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from ael.equilibrium import SolverConfig
from ael.errors import WrongScheme
from ael.gaussmath import gauss_legendre, norm_cdf, norm_pdf
from ael.model import (
    LinearDemand,
    MarketParams,
    MidQuad,
    NoFee,
    SpreadQuad,
    Strategy,
    default_rule,
)
import ael.payoff as payoff
from ael.payoff import (
    PayoffContext,
    payoff_deriv,
    payoff_second_deriv,
    payoff_terms,
    penalized_payoff,
    second_deriv_bound,
)

ALL_SCHEMES = (NoFee(), SpreadQuad(2.0), MidQuad(0.5), LinearDemand(1.0, 0.3))
QUAD_N = SolverConfig.quad_n


def ctx_for(params, fees, delta_const=0.3, sigma_a=None, grid_n=51):
    sigma_a = 0.5 * (params.sigma_minus + params.sigma_plus) if sigma_a is None else sigma_a
    delta = Strategy.constant(delta_const, params, grid_n)
    return PayoffContext(sigma_a, delta, params, fees, default_rule(params, QUAD_N))


class TestBasePayoff:
    # the base payoff is the payoff of a NoFee context

    def test_degenerate_zero_strategy(self):
        # single sigma, rho = 0, delta = 0: e(x) = (x/2)(1 - Phi(x/(s sqrt2)))
        p = MarketParams(1.1, 1.1, 0.0)
        ctx = ctx_for(p, NoFee(), delta_const=0.0, sigma_a=1.1)
        assert penalized_payoff(0.0, ctx) == pytest.approx(0.0, abs=1e-16)
        for x in (0.2, 0.7, 1.5):
            expected = 0.5 * x * (1.0 - norm_cdf(x / (1.1 * math.sqrt(2))))
            assert penalized_payoff(x, ctx) == pytest.approx(expected, abs=1e-15)

    def test_degenerate_constant_strategy_at_zero(self):
        p = MarketParams(1.1, 1.1, 0.0)
        d = 0.4
        ctx = ctx_for(p, NoFee(), delta_const=d, sigma_a=1.1)
        expected = -0.5 * d * (1.0 - norm_cdf(d / (1.1 * math.sqrt(2))))
        assert penalized_payoff(0.0, ctx) == pytest.approx(expected, abs=1e-15)

    def test_ignores_fee_scheme(self, main_params):
        # every scheme but half-linear demand averages the base integrand
        for fees in (NoFee(), SpreadQuad(3.0), MidQuad(0.5)):
            (avg,) = payoff._averages(np.asarray(0.4), ctx_for(main_params, fees), (0,))
            assert avg == penalized_payoff(0.4, ctx_for(main_params, NoFee()))

    def test_large_offset_behavior(self, main_params):
        # the raw payoff decays to zero at large offsets (the trade
        # probability dies faster than the offset grows); the spread
        # penalty is what drives the objective to minus infinity
        ctx = ctx_for(main_params, NoFee())
        vals = [penalized_payoff(x, ctx) for x in (5.0, 7.0, 9.0)]
        assert all(0 <= v < 1e-4 for v in vals)
        assert vals[0] > vals[1] > vals[2]
        pen = ctx_for(main_params, SpreadQuad(2.0))
        pvals = [penalized_payoff(x, pen) for x in (5.0, 7.0, 9.0)]
        assert all(v < 0 for v in pvals)
        assert pvals[0] > pvals[1] > pvals[2]


class TestPenalizedPayoff:
    def test_no_fee_equals_base(self, main_params):
        # NoFee subtracts an exact zero from the base average
        ctx = ctx_for(main_params, NoFee())
        (avg,) = payoff._averages(np.asarray(0.7), ctx, (0,))
        assert penalized_payoff(0.7, ctx) == avg

    def test_spread_quad_vanishes_at_zero(self, main_params):
        ctx = ctx_for(main_params, SpreadQuad(1.7))
        assert penalized_payoff(0.0, ctx) == penalized_payoff(0.0, ctx_for(main_params, NoFee()))

    def test_spread_quad_additive(self):
        p = MarketParams(1.1, 1.1, 0.0)
        ctx = ctx_for(p, SpreadQuad(1.0), delta_const=0.1, sigma_a=1.1)
        base = ctx_for(p, NoFee(), delta_const=0.1, sigma_a=1.1)
        assert penalized_payoff(0.1, ctx) == pytest.approx(
            penalized_payoff(0.1, base) - 0.01, abs=1e-15
        )

    def test_mid_quad_quadratic_expansion(self):
        # delta = 0, x = 0, sigma_a = 1, single sigma, rho = 0:
        # penalty = (gamma/4)(sigma_a^2 + E[sigma_b^2]) = 0.25 at gamma = 1/2
        p = MarketParams(1.0, 1.0, 0.0)
        ctx = ctx_for(p, MidQuad(0.5), delta_const=0.0, sigma_a=1.0)
        assert penalized_payoff(0.0, ctx) == pytest.approx(-0.25, abs=1e-14)


class TestDerivatives:
    def test_positive_for_nonpositive_offsets(self, main_params):
        for fees in (NoFee(), SpreadQuad(2.0)):
            ctx = ctx_for(main_params, fees)
            for x in (-5.0, -2.0, -1.0, -0.25, 0.0):
                assert payoff_deriv(x, ctx) > 0.0

    def test_symmetric_phi_term_cancels(self):
        # single sigma, constant delta, x = delta: only the CDF and fee
        # terms survive; this is the degenerate first-order condition
        sigma, d, gamma = 1.1, 0.3, 0.8
        p = MarketParams(sigma, sigma, 0.0)
        ctx = ctx_for(p, SpreadQuad(gamma), delta_const=d, sigma_a=sigma)
        expected = 0.5 * (1.0 - norm_cdf(math.sqrt(2) * d / sigma)) - 2 * gamma * d
        assert payoff_deriv(d, ctx) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("fees", ALL_SCHEMES, ids=lambda f: type(f).__name__)
    def test_first_derivative_matches_finite_differences(self, main_params, fees):
        rng = np.random.default_rng(99)
        h, worst = 1e-4, 0.0
        for _ in range(40):
            sa = rng.uniform(main_params.sigma_minus, main_params.sigma_plus)
            x = rng.uniform(0.0, 2.0)
            ctx = ctx_for(main_params, fees, sigma_a=sa)
            fd = (penalized_payoff(x + h, ctx) - penalized_payoff(x - h, ctx)) / (2 * h)
            worst = max(worst, abs(payoff_deriv(x, ctx) - fd))
        assert worst <= 1e-6

    @pytest.mark.parametrize("fees", ALL_SCHEMES, ids=lambda f: type(f).__name__)
    def test_second_derivative_matches_finite_differences(self, main_params, fees):
        rng = np.random.default_rng(7)
        h, worst = 1e-3, 0.0
        for _ in range(25):
            sa = rng.uniform(main_params.sigma_minus, main_params.sigma_plus)
            x = rng.uniform(0.0, 1.5)
            ctx = ctx_for(main_params, fees, sigma_a=sa)
            fd = (payoff_deriv(x + h, ctx) - payoff_deriv(x - h, ctx)) / (2 * h)
            worst = max(worst, abs(payoff_second_deriv(x, ctx) - fd))
        assert worst <= 1e-5

    def test_second_derivative_reference_point(self):
        # unit sigma, delta = 0, x = 0: integral term is -phi(0)/sqrt(2),
        # the spread penalty adds -2 gamma
        p = MarketParams(1.0, 1.0, 0.0)
        ctx = ctx_for(p, SpreadQuad(2.0), delta_const=0.0, sigma_a=1.0)
        expected = -norm_pdf(0.0) / math.sqrt(2.0) - 4.0
        got = payoff_second_deriv(0.0, ctx)
        assert got == pytest.approx(expected, abs=1e-14)
        assert got < -4.0


class TestHalfLinear:
    def test_kbar_is_a_global_factor(self, main_params):
        c1 = ctx_for(main_params, LinearDemand(1.0, 0.0))
        c2 = ctx_for(main_params, LinearDemand(2.0, 0.0))
        for x in (-0.5, 0.0, 0.3, 1.0):
            assert penalized_payoff(x, c2) == pytest.approx(
                2.0 * penalized_payoff(x, c1), rel=1e-14
            )

    def test_symmetric_zero_case(self):
        # single sigma, delta = 0, x = 0, rho = 0: Q = 1/2 kills the first
        # term and (x - d)/2 = 0 kills the second
        p = MarketParams(0.9, 0.9, 0.0)
        ctx = ctx_for(p, LinearDemand(1.3, 0.0), delta_const=0.0, sigma_a=0.9)
        assert penalized_payoff(0.0, ctx) == pytest.approx(0.0, abs=1e-16)

    def test_positive_derivative_for_nonpositive_offsets(self, main_params):
        ctx = ctx_for(main_params, LinearDemand(1.0, 0.0))
        for x in (-5.0, -1.0, -0.1, 0.0):
            assert payoff_deriv(x, ctx) > 0.0

    def test_symmetric_derivative_reduction(self):
        # single sigma = 1, rho = 0, delta = d, x = d:
        # (kbar/2)(-d (1 - Phi(sqrt2 d)) + phi(sqrt2 d)/sqrt2)
        d, kbar = 0.25, 1.0
        p = MarketParams(1.0, 1.0, 0.0)
        ctx = ctx_for(p, LinearDemand(kbar, 0.0), delta_const=d, sigma_a=1.0)
        u = math.sqrt(2) * d
        expected = 0.5 * kbar * (-d * (1 - norm_cdf(u)) + norm_pdf(u) / math.sqrt(2))
        assert payoff_deriv(d, ctx) == pytest.approx(expected, abs=1e-14)

    def test_derivative_integrates_back_to_payoff(self, main_params):
        # quadrature of h' over [x0, x1] reproduces h(x1) - h(x0)
        ctx = ctx_for(main_params, LinearDemand(1.0, 0.0), delta_const=0.2)
        x0, x1 = 0.1, 0.9
        nodes, weights = gauss_legendre(x0, x1, 48)
        integral = float(np.dot(weights, [payoff_deriv(float(x), ctx) for x in nodes]))
        diff = penalized_payoff(x1, ctx) - penalized_payoff(x0, ctx)
        assert integral == pytest.approx(diff, abs=1e-8)



class TestKernelOrders:
    @staticmethod
    def grid_ctx(params, fees):
        delta = Strategy(np.linspace(params.sigma_minus, params.sigma_plus, 21),
                         0.02 + 0.05 * np.linspace(0.0, 1.0, 21))
        return PayoffContext(delta.grid, delta, params, fees, default_rule(params, QUAD_N)), delta

    @pytest.mark.parametrize("fees", ALL_SCHEMES, ids=lambda f: type(f).__name__)
    def test_orders_do_not_depend_on_each_other(self, main_params, fees):
        ctx, delta = self.grid_ctx(main_params, fees)
        x = np.linspace(0.0, 1.0, 21)
        together = payoff_terms(x, ctx, (0, 1, 2))
        for k, value in zip((0, 1, 2), together):
            assert np.array_equal(payoff_terms(x, ctx, (k,))[0], value)


class TestOneOrderFunctions:
    ONE_ORDER = (penalized_payoff, payoff_deriv, payoff_second_deriv)

    @pytest.mark.parametrize("fees", ALL_SCHEMES, ids=lambda f: type(f).__name__)
    def test_each_is_its_order_of_the_kernel(self, main_params, fees):
        # on a 12-row context, one offset per row, as validate's
        # derivative_fd check calls them, and a block of offsets
        rows = np.linspace(main_params.sigma_minus, main_params.sigma_plus, 12)
        ctx = ctx_for(main_params, fees, sigma_a=rows)
        for x in (np.linspace(0.0, 1.5, 12), np.linspace(-0.2, 1.2, 3)[:, None]):
            for k, f in enumerate(self.ONE_ORDER):
                got = f(x, ctx)
                assert got.shape == np.broadcast(x, rows).shape
                assert same_bits(got, payoff_terms(x, ctx, (k,))[0])

    @pytest.mark.parametrize("fees", ALL_SCHEMES, ids=lambda f: type(f).__name__)
    def test_one_offset_on_one_sigma_a_is_a_float(self, main_params, fees):
        ctx = ctx_for(main_params, fees)
        for k, f in enumerate(self.ONE_ORDER):
            got = f(0.4, ctx)
            assert isinstance(got, float) and got == payoff_terms(0.4, ctx, (k,))[0]


def reference_e2(ctx):
    """The x-free second-derivative factors as plain expressions of
    S, Q, Q~ and d: ``ctx.e2_poly`` must hold these bits."""
    d, s, q, qt = ctx.delta_b, ctx.sig, ctx.q, ctx.qt
    if isinstance(ctx.fees, LinearDemand):
        return -q * d / s, qt / s
    s3 = s * s * s
    return -(0.5 + qt + q * d * d / (s * s)) / s, (qt - q) * d / s3, qt / s3


def reference_terms(x, ctx, orders):
    """The kernel as plain (allocating) numpy expressions, with Phi and
    Phi' written out: the in-place kernel must return these bits."""
    x = np.asarray(x, dtype=float)
    xx = x[..., None]
    d, s, q, qt, e2 = ctx.delta_b, ctx.sig, ctx.q, ctx.qt, reference_e2(ctx)
    u = (xx + d) / s
    dens = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * u * u)
    tail = 1.0 - 0.5 * erfc(-u / math.sqrt(2.0))
    if isinstance(ctx.fees, LinearDemand):
        scale = 0.5 * ctx.fees.kbar
        terms = (
            lambda: (s * s * (0.5 - q) - 0.5 * (xx - d) * (d + xx)) * tail
            + s * (0.5 * (xx - d)) * dens,
            lambda: -xx * tail + s * q * dens,
            lambda: dens * (e2[0] + xx * e2[1]) - tail,
        )
    else:
        scale = 1.0
        terms = (
            lambda: 0.5 * (xx - d) * tail + s * (0.5 - q) * dens,
            lambda: 0.5 * tail + ((d * q - xx * qt) / s) * dens,
            lambda: dens * (e2[0] + xx * (e2[1] + xx * e2[2])),
        )
    a, b, c = payoff._PENALTY[type(ctx.fees)](ctx.fees, ctx)
    penalty = (lambda: x * (a * x + b) + c, lambda: 2.0 * a * x + b, lambda: 2.0 * a)
    return [scale * (terms[k]() @ ctx.w) - penalty[k]() for k in orders]


def reference_cross(x, ctx):
    """The cross term as plain numpy expressions of the identity the
    kernel uses: Phi'(u) P2(x) + Phi'(u)/S, or (kbar/2) Phi'(u) P2(x), P2
    the polynomial of e'' (h'') at each node, not averaged.  The kernel's
    cross term must return these bits."""
    xx = np.asarray(x, dtype=float)[..., None]
    d, s, e2 = ctx.delta_b, ctx.sig, reference_e2(ctx)
    u = (xx + d) / s
    dens = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * u * u)
    if isinstance(ctx.fees, LinearDemand):
        return 0.5 * ctx.fees.kbar * (dens * (e2[0] + xx * e2[1]))
    return dens * (e2[0] + xx * (e2[1] + xx * e2[2])) + dens / s


def closed_form_cross(x, ctx):
    """The d-derivative of the order-1 integrand at each node, not
    averaged, in its own closed form (not through the polynomial of e''):
    Phi'(u)/S (Q - 1/2 - u (d Q - x Q~)/S), or (kbar/2) Phi'(u) (x/S - Q u)."""
    xx = np.asarray(x, dtype=float)[..., None]
    d, s, q = ctx.delta_b, ctx.sig, ctx.q
    u = (xx + d) / s
    dens = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * u * u)
    if isinstance(ctx.fees, LinearDemand):
        return 0.5 * ctx.fees.kbar * dens * (xx / s - q * u)
    return dens / s * (q - 0.5 - u * (d * q - xx * ctx.qt) / s)


class TestInPlaceKernel:
    ORDERS = ((0,), (1,), (2,), (1, 2), (0, 1, 2))

    @staticmethod
    def cases(params):
        """(sigma_a, offsets) for one sigma_a, a grid, and a block of grid rows."""
        delta = Strategy(np.linspace(params.sigma_minus, params.sigma_plus, 21),
                         0.02 + 0.3 * np.linspace(0.0, 1.0, 21) ** 2)
        grid = delta.grid
        block = np.column_stack([np.tile(np.linspace(-0.2, 1.2, 37), (5, 1)), delta.values[3:8]])
        return delta, [(0.37, np.linspace(-0.5, 1.5, 41)), (0.37, 0.25), (grid, delta.values),
                       (grid[3:8, None], block)]

    @pytest.mark.parametrize("fees", (SpreadQuad(2.0), MidQuad(0.5), NoFee(),
                                      LinearDemand(1.3, 0.3)), ids=lambda f: type(f).__name__)
    @pytest.mark.parametrize("rho", (0.0, 0.05))
    def test_bits_match_the_allocating_expressions(self, fees, rho):
        params = MarketParams(0.1, 1.1, rho)
        delta, cases = self.cases(params)
        for sigma_a, x in cases:
            ctx = PayoffContext(sigma_a, delta, params, fees, default_rule(params, QUAD_N))
            assert same_bits(ctx.e2_poly, reference_e2(ctx))
            for orders in self.ORDERS:
                want = reference_terms(x, ctx, orders)
                got = payoff_terms(x, ctx, orders)
                *fused, cross = payoff_terms(x, ctx, orders, cross=True)
                for g, f, w in zip(got, fused, want):
                    assert np.shape(g) == np.shape(w)
                    assert np.array_equal(g, w) and np.array_equal(f, w)
                assert same_bits(cross, reference_cross(x, ctx))
                # the identity against the closed form, to rounding
                closed = closed_form_cross(x, ctx)
                assert np.max(np.abs(cross - closed)) <= 1e-14 * np.max(np.abs(closed))

    def kernel_calls(self):
        """A ``payoff_terms`` call with the cross term on every case, under
        both schemes, so the work arrays take several shapes."""
        params = MarketParams(0.1, 1.1, 0.05)
        delta, cases = self.cases(params)
        return [lambda c=PayoffContext(sigma_a, delta, params, fees, default_rule(params, QUAD_N)),
                x=x: payoff_terms(x, c, (0, 1, 2), cross=True)
                for fees in (SpreadQuad(2.0), LinearDemand(1.3, 0.3)) for sigma_a, x in cases]

    def test_results_outlive_later_calls(self):
        # the work arrays are views of a block each thread reuses from call
        # to call; no returned array, the cross term included, may be one
        held, bits = [], []
        for call in self.kernel_calls():
            held.append(call())
            bits.append([t.tobytes() for t in held[-1]])
        assert [[t.tobytes() for t in terms] for terms in held] == bits

    def test_concurrent_callers_keep_their_bits(self):
        # more calling threads than cores, under a short switch interval:
        # each thread's calls must run on its own block
        calls = self.kernel_calls()
        want = [[t.tobytes() for t in call()] for call in calls]
        got = []

        def run(k):
            order = calls[k:] + calls[:k]
            for _ in range(20):
                got.append([[t.tobytes() for t in call()] for call in order] == want[k:] + want[:k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=run, args=(k,)) for k in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == [True] * 80


def same_bits(a, b) -> bool:
    """Bitwise equality of two context fields (arrays, floats or tuples of
    arrays); any other field must be the very same object."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same_bits(u, v) for u, v in zip(a, b))
    if isinstance(a, (float, np.ndarray)):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a is b


def assert_same_context(got: PayoffContext, want: PayoffContext, x) -> None:
    """Every field and kernel value of ``got`` is that of ``want``."""
    for f in fields(PayoffContext):
        assert same_bits(getattr(got, f.name), getattr(want, f.name)), f.name
    for g, w in zip(payoff_terms(x, got), payoff_terms(x, want)):
        assert same_bits(g, w)
    cross = [payoff_terms(x, c, (1,), cross=True)[1] for c in (got, want)]
    assert same_bits(*cross)


@st.composite
def context_cases(draw):
    """(params, fees, rule, sigma_a rows, offsets, two opponent node-value
    arrays) on a small rule, or on a degenerate market."""
    rho = draw(st.sampled_from((0.0, 0.03)))
    degenerate = draw(st.booleans())
    params = MarketParams(1.1, 1.1, rho) if degenerate else MarketParams(0.1, 1.1, rho)
    rule = default_rule(params, 8)
    n_nodes = 1 if degenerate else 8
    n_rows = 1 if degenerate else draw(st.integers(1, 7))
    rows = np.linspace(params.sigma_minus, params.sigma_plus, n_rows)
    # one offset per row, or a block of offsets against every row, as
    # equilibrium._scan_sup takes them
    shape = (3, 1) if draw(st.booleans()) else (n_rows,)
    offsets = st.lists(st.floats(-0.5, 2.0), min_size=math.prod(shape), max_size=math.prod(shape))
    values = st.lists(st.floats(0.0, 2.0), min_size=n_nodes, max_size=n_nodes)
    return (params, draw(st.sampled_from(ALL_SCHEMES)), rule, rows,
            np.reshape(draw(offsets), shape), [np.abs(draw(values)) for _ in range(2)])


class TestDerivedContexts:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(context_cases())
    def test_repointed_context_is_a_fresh_one(self, case):
        params, fees, rule, rows, x, (first, second) = case
        nodes, _ = rule
        base = PayoffContext(rows, Strategy(nodes, first), params, fees, rule)
        fresh = PayoffContext(rows, Strategy(nodes, second), params, fees, rule)
        got = base.against(second)
        assert_same_context(got, fresh, x)
        # one built with no opponent serves as well
        assert_same_context(PayoffContext(rows, None, params, fees, rule).against(second),
                            fresh, x)
        # the re-pointed context shares the strategy-free caches
        for name in ("nodes", "w", "sig", "q", "qt"):
            assert getattr(got, name) is getattr(base, name)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(context_cases(), st.data())
    def test_row_slice_is_a_fresh_one(self, case, data):
        params, fees, rule, rows, x, (values, _) = case
        n = rows.shape[0]
        start = data.draw(st.integers(0, n - 1))
        stop = data.draw(st.integers(start + 1, n))
        # a slice, or integer rows in any order with repeats
        index = data.draw(st.sampled_from([slice(start, stop), np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))]))
        delta = Strategy(rule[0], values)
        full = PayoffContext(rows, delta, params, fees, rule)
        fresh = PayoffContext(rows[index], delta, params, fees, rule)
        assert_same_context(full.rows(index), fresh, x[index] if x.shape == rows.shape else x)

    @pytest.mark.parametrize("fees", ALL_SCHEMES, ids=lambda f: type(f).__name__)
    @pytest.mark.parametrize("index", [slice(2, 6), np.array([5, 0, 3, 3])],
                             ids=["slice", "int_array"])
    def test_rows_and_against_in_either_order(self, fees, index):
        # every scheme's cached factors, re-pointed then sliced or sliced
        # then re-pointed, from a context built with or without an
        # opponent, hold the bits of a fresh build on those rows and values
        params = MarketParams(0.1, 1.1, 0.03)
        rule = nodes, _ = default_rule(params, 16)
        rows = np.linspace(params.sigma_minus, params.sigma_plus, 7)
        first, second = 0.05 + 0.2 * nodes, 0.3 - 0.1 * nodes
        x = np.linspace(0.0, 0.8, 7)
        full = PayoffContext(rows, Strategy(nodes, first), params, fees, rule)
        fresh = PayoffContext(rows[index], Strategy(nodes, second), params, fees, rule)
        for got in (full.against(second).rows(index),
                    PayoffContext(rows, None, params, fees, rule).against(second).rows(index),
                    full.rows(index).against(second)):
            assert_same_context(got, fresh, x[index])

    @pytest.mark.parametrize("fees, other", [
        (SpreadQuad(2.0), SpreadQuad(1e-5)),
        (NoFee(), MidQuad(0.5)),
        (LinearDemand(1.0, 0.3), LinearDemand(1.0, 1e-5)),
    ], ids=["spread_quad", "base_kind", "linear_demand"])
    @pytest.mark.parametrize("index", [slice(2, 6), np.array([5, 0, 3, 3])],
                             ids=["slice", "int_array"])
    def test_priced_context_is_a_fresh_one(self, fees, other, index):
        # a context priced at other fees of its kind, before or after it is
        # re-pointed or sliced, and the fee-free table built with no
        # opponent, hold the bits of a fresh build under those fees, the
        # bound on e'' included, and share every cache
        params = MarketParams(0.1, 1.1, 0.03)
        rule = nodes, _ = default_rule(params, 16)
        rows = np.linspace(params.sigma_minus, params.sigma_plus, 7)
        first, second = 0.05 + 0.2 * nodes, 0.3 - 0.1 * nodes
        x = np.linspace(0.0, 0.8, 7)
        full = PayoffContext(rows, Strategy(nodes, first), params, fees, rule)
        fresh = PayoffContext(rows[index], Strategy(nodes, second), params, other, rule)
        for got in (full.priced(other).against(second).rows(index),
                    full.against(second).priced(other).rows(index),
                    full.rows(index).against(second).priced(other),
                    full.rows(index).priced(other).against(second),
                    PayoffContext(rows, None, params, fees, rule).priced(other)
                    .against(second).rows(index)):
            assert_same_context(got, fresh, x[index])
            assert same_bits(second_deriv_bound(got, 0.9), second_deriv_bound(fresh, 0.9))
        priced = full.priced(other)
        assert priced.fees is other and full.fees is fees
        for name in ("nodes", "w", "sig", "q", "qt", "delta_b", "e2_poly"):
            assert getattr(priced, name) is getattr(full, name)

    @pytest.mark.parametrize("fees, other", [
        (SpreadQuad(2.0), LinearDemand(1.0, 2.0)),
        (LinearDemand(1.0, 0.3), SpreadQuad(0.3)),
        (NoFee(), LinearDemand(1.0, 0.3)),
        (LinearDemand(1.0, 0.3), LinearDemand(2.0, 0.3)),
    ], ids=["to_linear_demand", "to_spread_quad", "no_fee", "kbar"])
    def test_priced_keeps_the_scheme_kind(self, fees, other):
        # the second-derivative factors differ between the base and the
        # half-linear schemes, and a table is priced under one kbar
        params = MarketParams(0.1, 1.1, 0.0)
        rule = default_rule(params, 8)
        with pytest.raises(WrongScheme):
            PayoffContext(rule[0], None, params, fees, rule).priced(other)


@st.composite
def bound_cases(draw):
    """(row context, hi) on a random market with 0 <= rho <= sigma_minus /
    sigma_plus (or a degenerate one on its one-node rule), under any fee
    scheme.  The context is on rows of shape (n,) against random node
    values of which one is negative, or, as ``verify_ne`` builds it,
    against a piecewise-linear strategy on its own grid."""
    sm = draw(st.floats(0.05, 1.5))
    degenerate = draw(st.booleans())
    sp = sm if degenerate else sm + draw(st.floats(0.05, 2.0))
    rho = min(draw(st.floats(0.0, 1.0)) * sm / sp, 0.99)
    params = MarketParams(sm, sp, rho)
    rule = default_rule(params, draw(st.integers(2, 12)))
    n_nodes = rule[0].size
    hi = draw(st.floats(0.01, 3.0))
    values = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n_nodes, max_size=n_nodes)))
    # below -hi the whole u interval is negative; above it, Phi' peaks at u = 0
    values[draw(st.integers(0, n_nodes - 1))] = -draw(st.floats(0.01, 1.5)) * hi
    gamma, kbar = draw(st.floats(0.01, 3.0)), draw(st.floats(0.2, 2.0))
    fees = draw(st.sampled_from((NoFee(), SpreadQuad(gamma), MidQuad(gamma),
                                 LinearDemand(kbar, gamma))))
    rows = np.linspace(sm, sp, 1 if degenerate else draw(st.integers(1, 9)))
    if draw(st.booleans()):
        grid = np.linspace(sm, sp, 1 if degenerate else draw(st.integers(2, 12)))
        strategy = draw(st.lists(st.floats(0.0, 2.0), min_size=grid.size, max_size=grid.size))
        return PayoffContext(rows, Strategy(grid, strategy), params, fees, rule), hi
    # a Strategy holds no negative value, but a re-pointed context does
    ctx = PayoffContext(rows, Strategy(rule[0], np.zeros(n_nodes)), params, fees, rule)
    return ctx.against(values), hi


class TestSecondDerivBound:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(bound_cases())
    def test_bounds_every_sampled_second_derivative(self, case):
        ctx, hi = case
        # one offset axis in front of the rows
        x = np.linspace(0.0, hi, 201)[:, None]
        (d2,) = payoff_terms(x, ctx, (2,))
        bound = payoff.second_deriv_bound(ctx, hi)
        assert bound.shape == ctx.sigma_a.shape
        scale = 1.0 + float(np.max(np.abs(d2)))
        assert np.all(bound >= d2.max(axis=0) - 1e-12 * scale)

    @staticmethod
    def plain_bound(ctx, hi):
        # the bound as plain expressions, each term a fresh array
        d, s = ctx.delta_b, ctx.sig
        top = (hi + d) / s
        *coef, lead = ctx.e2_poly
        at_hi = np.maximum(lead, 0.0)
        for c in reversed(coef):
            at_hi = at_hi * hi + c
        bound = norm_pdf(np.clip(0.0, d / s, top)) * np.maximum(np.maximum(coef[0], at_hi), 0.0)
        if isinstance(ctx.fees, LinearDemand):
            bound = 0.5 * ctx.fees.kbar * (bound - norm_cdf(-top))
        return bound @ ctx.w - 2.0 * payoff._penalty(ctx)[0]

    @pytest.mark.parametrize("fees", ALL_SCHEMES + (SpreadQuad(0.1337),), ids=repr)
    @pytest.mark.parametrize("rho", [0.0, 0.05])
    def test_in_place_bound_is_bit_identical_to_the_plain_expressions(self, fees, rho):
        params = MarketParams(0.1, 1.1, rho)
        grid = np.linspace(0.1, 1.1, 101)
        ctx = PayoffContext(grid, Strategy(grid, 0.05 + 0.3 * grid * grid), params, fees,
                            default_rule(params, QUAD_N))
        for hi in (0.1, 1.0, 3.0):
            want = self.plain_bound(ctx, hi)
            assert payoff.second_deriv_bound(ctx, hi).tobytes() == want.tobytes()

    @pytest.mark.parametrize("fees", [SpreadQuad(0.1337), LinearDemand(1.0, 0.3)], ids=repr)
    def test_bound_holds_at_most_three_row_arrays(self, main_params, fees):
        # the bound is formed in place; the plain expressions hold five
        # (rows, nodes) arrays at once, six under half-linear demand
        grid = np.linspace(main_params.sigma_minus, main_params.sigma_plus, 20001)
        ctx = PayoffContext(grid, Strategy(grid, 0.05 + 0.3 * grid * grid), main_params, fees,
                            default_rule(main_params, QUAD_N))
        one = ctx.sig.nbytes
        tracemalloc.start()
        try:
            payoff.second_deriv_bound(ctx, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * one

    def test_unknown_scheme_rejected(self, main_params):
        ctx = ctx_for(main_params, SpreadQuad(2.0))
        object.__setattr__(ctx, "fees", object())
        with pytest.raises(WrongScheme):
            payoff.second_deriv_bound(ctx, 1.0)
