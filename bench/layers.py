"""Per-layer metrics of ``ael``, computed from traced spans.

The layers are the package's modules.  ``TARGETS`` lists the calls into
each module that get a span; ``METRICS`` maps every per-layer metric to
the spans it is computed from.  See README.md for which end-to-end
metric each one should move, and on which workload.
"""

from __future__ import annotations

import math

from spans import SpanSet

# span targets, relative to the ael package
DERIV = "payoff.payoff_deriv"
VALUE = "payoff.penalized_payoff"
DERIV2 = "payoff.payoff_second_deriv"
CTX = "payoff.PayoffContext.__post_init__"
MAXIMIZE = "gaussmath.maximize_concave"
ROOT = "gaussmath.find_root"
SOLVE = "equilibrium.solve_fixed_point"
BR = "equilibrium.best_response"
CONCAVITY = "equilibrium._concavity_ok"
VERIFY = "equilibrium.verify_ne"
SWEEP = "exchange.revenue_curve"
STATS = "simulator.estimate_stats"
LIMIT = "simulator.estimate_limit_payoff"
STRATEGY = "model.Strategy.__call__"
ANALYTIC = "model.analytic_stats"
CONFIG = "cli.RunConfig.build"
WRITE_CSV = "cli.write_csv"

TARGETS = [
    "cli.main", CONFIG, WRITE_CSV, "cli.load_strategy_csv",
    SWEEP, "exchange.revenue",
    SOLVE, BR, CONCAVITY, VERIFY, "equilibrium.existence_bound",
    "equilibrium.solve_degenerate", "equilibrium.no_ne_certificate",
    VALUE, DERIV, DERIV2, CTX,
    MAXIMIZE, ROOT, "gaussmath.gauss_legendre",
    STRATEGY, ANALYTIC,
    STATS, LIMIT,
]
KEEP_RESULTS = (SOLVE, SWEEP)

# Spans the harness opens around its Monte Carlo throughput probe: one
# estimate_stats call of MC_PROBE_SAMPLES samples at each thread count.
MC_T1 = "probe.mc_threads_1"
MC_T2 = "probe.mc_threads_2"
MC_PROBE_SAMPLES = 1 << 20

QUAD_N = 64  # SolverConfig.quad_n at its default, the size of every kernel call


def _ratio(num, den):
    return num / den if den else None


def _picard(s: SpanSet) -> int:
    return s.count(BR, SOLVE)


def _derivs_per_br_point(s: SpanSet):
    under_br = s.nearest_ancestor([BR]) >= 0
    return _ratio(int((s.mask(DERIV) & under_br).sum()), s.count(CTX, BR))


def _sweep_iters_per_point(s: SpanSet):
    points = s.mask(SOLVE, SWEEP)
    iters = int(points[s.parent[s.mask(BR, SOLVE)]].sum())
    return _ratio(iters, int(points.sum())) or 0.0


def _final_residual(s: SpanSet):
    reports = s.results.get(SOLVE, [])
    return max((r.residual for r in reports), default=None)


def _converged_frac(s: SpanSet):
    points = [p for curve in s.results.get(SWEEP, []) for p in curve]
    return _ratio(sum(p.converged for p in points), len(points))


def _mc_rate(s: SpanSet, probe: str):
    d = s.duration[s.mask(STATS, probe)]
    return MC_PROBE_SAMPLES / float(d[0]) if d.size else None


def _speedup(s: SpanSet):
    t1, t2 = _mc_rate(s, MC_T1), _mc_rate(s, MC_T2)
    return t2 / t1 if t1 and t2 else None


# name -> (unit, better, compute(spans), counted)
# A counted metric is exact and comes from the workload's own traced job
# only (0 when the workload never enters the layer).  The others are
# per-call costs; when the workload never makes that call they come from
# the toy-size probe run of all workloads, so every metric is measured.
METRICS = {
    "payoff.deriv_calls": ("count", "lower", lambda s: s.count(DERIV), True),
    "payoff.deriv_us": ("us", "lower", lambda s: s.mean(DERIV, scale=1e6), False),
    "payoff.node_evals": ("count", "lower",
                          lambda s: QUAD_N * (s.count(DERIV) + s.count(VALUE) + s.count(DERIV2)), True),
    "payoff.derivs_per_br_point": ("calls/point", "lower", _derivs_per_br_point, False),
    "payoff.deriv_share_root": ("ratio", "higher",
                                lambda s: _ratio(s.count(DERIV, ROOT), s.count(DERIV)), False),
    "payoff.value_calls": ("count", "lower", lambda s: s.count(VALUE), True),
    "payoff.value_us": ("us", "lower", lambda s: s.mean(VALUE, scale=1e6), False),
    "payoff.second_deriv_calls": ("count", "lower", lambda s: s.count(DERIV2), True),
    "payoff.ctx_builds": ("count", "lower", lambda s: s.count(CTX), True),
    "payoff.ctx_build_us": ("us", "lower", lambda s: s.mean(CTX, scale=1e6), False),
    "gaussmath.maximize_calls": ("count", "lower", lambda s: s.count(MAXIMIZE), True),
    "gaussmath.maximize_us": ("us", "lower", lambda s: s.mean(MAXIMIZE, scale=1e6), False),
    "gaussmath.find_root_calls": ("count", "lower", lambda s: s.count(ROOT), True),
    "equilibrium.picard_iters": ("count", "lower", _picard, True),
    "equilibrium.best_response_ms": ("ms", "lower", lambda s: s.mean(BR, scale=1e3), False),
    "equilibrium.bracket_doublings": ("count", "lower",
                                      lambda s: s.count(DERIV, BR) - s.count(CTX, BR), True),
    "equilibrium.concavity_ms": ("ms", "lower", lambda s: s.mean(CONCAVITY, scale=1e3), False),
    "equilibrium.verify_ne_ms": ("ms", "lower", lambda s: s.mean(VERIFY, scale=1e3), False),
    "equilibrium.final_residual": ("1", "lower", _final_residual, False),
    "exchange.point_ms": ("ms", "lower", lambda s: s.mean(SOLVE, SWEEP, scale=1e3), False),
    "exchange.iters_per_point": ("count", "lower", _sweep_iters_per_point, True),
    "exchange.converged_frac": ("ratio", "higher", _converged_frac, False),
    "simulator.samples_per_s_t1": ("1/s", "higher", lambda s: _mc_rate(s, MC_T1), False),
    "simulator.samples_per_s_t2": ("1/s", "higher", lambda s: _mc_rate(s, MC_T2), False),
    "simulator.thread_speedup": ("ratio", "higher", _speedup, False),
    "simulator.limit_payoff_ms": ("ms", "lower", lambda s: s.mean(LIMIT, scale=1e3), False),
    "model.strategy_calls": ("count", "lower", lambda s: s.count(STRATEGY), True),
    "model.strategy_us": ("us", "lower", lambda s: s.mean(STRATEGY, scale=1e6), False),
    "model.analytic_stats_ms": ("ms", "lower", lambda s: s.mean(ANALYTIC, scale=1e3), False),
    "cli.config_ms": ("ms", "lower", lambda s: s.mean(CONFIG, scale=1e3), False),
    "cli.write_csv_ms": ("ms", "lower", lambda s: s.mean(WRITE_CSV, scale=1e3), False),
}


def layer_metrics(job: SpanSet, probe: SpanSet) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, source), source 'job' or 'probe'."""
    out = {}
    for name, (_unit, _better, fn, counted) in METRICS.items():
        value, source = fn(job), "job"
        if value is None and not counted:
            value, source = fn(probe), "probe"
        if value is None or not math.isfinite(value):
            value, source = 0.0, "absent"
        out[name] = (value, source)
    return out
