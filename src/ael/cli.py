"""Command-line front end.

Configuration is flat ``key=value`` text with dotted section prefixes
(``market.sigma_minus=0.1``); any key can be overridden on the command
line with a flag of the same dotted name (``--market.sigma_minus 0.2``
or ``--market.sigma_minus=0.2``).  Outputs are CSV files with a
'#'-prefixed header block that echoes every configuration key (itself
valid config syntax), 17-significant-digit scientific notation for
floats, and no timestamps.  Every key fixes the numbers; the output
path is an argument (``-o``, default out.csv), not a key, so one run
writes the same bytes to any path.

Subcommands: stats (closed forms), solve-ne, optimal-fee, payoff-curve,
simulate (the one Monte Carlo command), validate.  Every subcommand
takes the same flags.  validate prints PASS, FAIL or SKIP per check; a
check that assumes rho <= sigma_minus/sigma_plus is a SKIP when rho
exceeds that bound, and OVERALL reads only the checks that ran.  Exit
codes: 0 success, 2 configuration error, 3 convergence failure under
--strict or a fee scheme that admits no equilibrium, 4 validation
failure.
stdout stays empty except for the validate report; progress goes to
stderr, with one ``validate: <check> <ms> ms`` line per validate check
that ran.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import equilibrium, exchange
from .errors import (
    AelError,
    ConfigError,
    NoConvergence,
    NoEquilibrium,
    WrongScheme,
)
from .model import (
    FeeScheme,
    LinearDemand,
    MarketParams,
    MidQuad,
    NoFee,
    PairStats,
    SpreadQuad,
    Strategy,
    analytic_stats,
    default_rule,
)
from .payoff import PayoffContext, check_sigma_a, payoff_deriv, payoff_terms, penalized_payoff
from .parallel import worker_count
from .simulator import SimConfig, estimate_limit_payoff, estimate_stats


# --- configuration schema ---------------------------------------------------


def _p_float(s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise ConfigError(f"expected a number, got {s!r}")
    if not math.isfinite(v):
        raise ConfigError(f"expected a finite number, got {s!r}")
    return v


def _p_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"expected an integer, got {s!r}")


def _p_count(s: str) -> int:
    v = _p_int(s)
    if v < 0:
        raise ConfigError(f"expected a non-negative integer, got {s!r}")
    return v


def _p_sigma_a(s: str) -> float | str:
    return s if s == "mid" else _p_float(s)


def _p_float_list(s: str) -> tuple[float, ...]:
    s = s.strip()
    if not s:
        return ()
    return tuple(_p_float(tok) for tok in s.split(","))


_SOLVER_DEFAULTS = equilibrium.SolverConfig()

_SCHEMA: dict[str, tuple] = {
    "market.sigma_minus": (_p_float, 0.1),
    "market.sigma_plus": (_p_float, 1.1),
    "market.rho": (_p_float, 0.0),
    "fees.scheme": (str, "spread_quad"),
    "fees.gamma": (_p_float, 2.0),
    "fees.kbar": (_p_float, 1.0),
    "solver.grid_n": (_p_int, _SOLVER_DEFAULTS.grid_n),
    "solver.tol": (_p_float, _SOLVER_DEFAULTS.tol),
    "solver.max_iter": (_p_int, _SOLVER_DEFAULTS.max_iter),
    "solver.quad_n": (_p_int, _SOLVER_DEFAULTS.quad_n),
    "sim.samples": (_p_int, 1000000),
    "sim.seed": (_p_int, 12345),
    "strategy.constant": (_p_float, 0.0),
    "strategy.file": (str, ""),
    "strategy.column": (str, ""),
    "solve.gammas": (_p_float_list, ()),
    "sweep.gammas": (_p_float_list, ()),
    "sweep.gamma_min": (_p_float, 1.5),
    "sweep.gamma_max": (_p_float, 5.0),
    "sweep.count": (_p_count, 20),
    "curve.x_min": (_p_float, -0.5),
    "curve.x_max": (_p_float, 1.5),
    "curve.n": (_p_count, 201),
    "curve.sigma_a": (_p_sigma_a, "mid"),
    "validate.samples": (_p_int, 200000),
    "verify.x_samples": (_p_int, equilibrium.VERIFY_X_SAMPLES),
}

# fees.scheme name -> constructor of (gamma, kbar)
_FEES = {
    "none": lambda gamma, kbar: NoFee(),
    "mid_quad": lambda gamma, kbar: MidQuad(gamma),
    "spread_quad": lambda gamma, kbar: SpreadQuad(gamma),
    "linear_demand": lambda gamma, kbar: LinearDemand(kbar=kbar, gamma=gamma),
}


def _canon(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_canon(v) for v in value)
    return str(value)


def parse_config_text(text: str, source: str) -> dict[str, str]:
    """Raw key=value pairs from config text, with line diagnostics."""
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{ln}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{ln}: unknown key {key!r}")
        out[key] = value
    return out


def _checked(what: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its AelError relabelled as a config error about ``what``."""
    try:
        return make(*args, **kwargs)
    except AelError as exc:
        raise ConfigError(f"{what}: {exc}")


@dataclass
class RunConfig:
    """Effective, type-checked configuration for one command."""

    values: dict

    @classmethod
    def build(cls, config_path: str | None, overrides: list[tuple[str, str]]) -> "RunConfig":
        raw: dict[str, str] = {}
        if config_path:
            try:
                with open(config_path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file {config_path}: {exc}")
            raw.update(parse_config_text(text, config_path))
        for key, value in overrides:
            if key not in _SCHEMA:
                raise ConfigError(f"command line: unknown key {key!r}")
            raw[key] = value
        values = {}
        for key, (parse, default) in _SCHEMA.items():
            if key in raw:
                try:
                    values[key] = parse(raw[key])
                except ConfigError as exc:
                    raise ConfigError(f"key {key}: {exc}")
            else:
                values[key] = default
        if values["fees.scheme"] not in _FEES:
            raise ConfigError(
                f"key fees.scheme: expected one of {sorted(_FEES)}, "
                f"got {values['fees.scheme']!r}"
            )
        return cls(values)

    def __getitem__(self, key: str):
        return self.values[key]

    def market(self) -> MarketParams:
        return _checked("market parameters", MarketParams, self["market.sigma_minus"],
                        self["market.sigma_plus"], self["market.rho"])

    def fees(self, gamma: float | None = None) -> FeeScheme:
        g = self["fees.gamma"] if gamma is None else gamma
        return _checked("fee parameters", _FEES[self["fees.scheme"]], g, self["fees.kbar"])

    def solver(self) -> equilibrium.SolverConfig:
        knobs = {f.name: self[f"solver.{f.name}"] for f in fields(equilibrium.SolverConfig)}
        return _checked("solver parameters", equilibrium.SolverConfig, **knobs)

    def rule(self, market: MarketParams) -> tuple[np.ndarray, np.ndarray]:
        return default_rule(market, self.solver().quad_n)

    def sim(self, samples: int | None = None) -> SimConfig:
        n = self["sim.samples"] if samples is None else samples
        return _checked("simulation parameters", SimConfig, n, self["sim.seed"])

    def strategy(self, market: MarketParams) -> Strategy:
        path = self["strategy.file"]
        if path:
            return load_strategy_csv(path, self["strategy.column"])
        return _checked("strategy", Strategy.constant, self["strategy.constant"], market,
                        self["solver.grid_n"])

    def config_lines(self) -> list[str]:
        return [f"{key}={_canon(self.values[key])}" for key in sorted(self.values)]


def load_strategy_csv(path: str, column: str = "") -> Strategy:
    """Strategy from a prior solve-ne output (sigma plus a delta column)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        raise ConfigError(f"cannot read strategy file {path}: {exc}")
    if len(lines) < 2:
        raise ConfigError(f"strategy file {path} has no data rows")
    header = lines[0].split(",")
    if "sigma" not in header:
        raise ConfigError(f"strategy file {path} lacks a 'sigma' column")
    si = header.index("sigma")
    if column:
        if column not in header:
            raise ConfigError(f"strategy file {path} lacks column {column!r}")
        di = header.index(column)
    else:
        candidates = [i for i, name in enumerate(header) if name.startswith("delta")]
        if not candidates:
            raise ConfigError(f"strategy file {path} lacks a delta column")
        di = candidates[0]
    sigmas, deltas = [], []
    for ln in lines[1:]:
        cells = ln.split(",")
        try:
            sigmas.append(float(cells[si]))
            deltas.append(float(cells[di]))
        except (ValueError, IndexError):
            raise ConfigError(f"strategy file {path}: malformed row {ln!r}")
    try:
        return Strategy(np.array(sigmas), np.array(deltas))
    except AelError as exc:
        raise ConfigError(f"strategy file {path}: {exc}")


# --- CSV emission -----------------------------------------------------------


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.16e}"
    return str(v)


def write_csv(path, command, cfg, header, rows, footer=()):
    lines = [f"# ael {command}"]
    lines += [f"# {line}" for line in cfg.config_lines()]
    lines.append(",".join(header))
    lines += [",".join(_fmt_cell(c) for c in row) for row in rows]
    lines += [f"# {line}" for line in footer]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# --- subcommands ------------------------------------------------------------

_STAT_COLS = tuple(f.name for f in fields(PairStats))  # astuple(PairStats) follows this order


def cmd_stats(cfg: RunConfig, args: argparse.Namespace) -> int:
    market = cfg.market()
    delta = cfg.strategy(market)
    stats = analytic_stats(delta, market, cfg.rule(market))
    write_csv(args.output, "stats", cfg, _STAT_COLS, [astuple(stats)])
    return 0


def cmd_solve_ne(cfg: RunConfig, args: argparse.Namespace) -> int:
    market = cfg.market()
    solver = cfg.solver()
    gammas = cfg["solve.gammas"] or (cfg["fees.gamma"],)
    names = [f"gamma_{g:g}" for g in gammas]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"key solve.gammas: {gammas[names.index(name)]!r} and "
                              f"{gammas[i]!r} share the column delta_{name}")
    reports = []
    for g in gammas:
        _log(f"ael solve-ne: solving gamma={g:g}")
        reports.append(equilibrium.solve_fixed_point(market, cfg.fees(gamma=g), solver))
    header = ["sigma"] + [f"delta_{name}" for name in names]
    rows = np.column_stack([reports[0].strategy.grid, *(r.strategy.values for r in reports)])
    footer = [f"{key}_{name}={_fmt_cell(getattr(r, key))}"
              for name, r in zip(names, reports)
              for key in ("residual", "iterations", "converged", "concavity_ok")]
    write_csv(args.output, "solve-ne", cfg, header, rows.tolist(), footer)
    if args.strict and not all(r.converged for r in reports):
        _log("ael solve-ne: at least one gamma failed to converge")
        return 3
    return 0


def cmd_optimal_fee(cfg: RunConfig, args: argparse.Namespace) -> int:
    if cfg["fees.scheme"] != "spread_quad":
        raise ConfigError(f"key fees.scheme: optimal-fee prices spread_quad only, "
                          f"got {cfg['fees.scheme']!r}")
    market = cfg.market()
    grid = cfg["sweep.gammas"] or tuple(
        np.linspace(cfg["sweep.gamma_min"], cfg["sweep.gamma_max"], cfg["sweep.count"])
    )
    footer = []
    if market.is_degenerate:
        res = exchange.optimal_gamma_degenerate(market.sigma_plus, market.rho)
        footer += [
            f"closed_form.y_star={res.y_star:.16e}",
            f"closed_form.gamma_star={res.gamma_star:.16e}",
            f"closed_form.delta_star={res.delta_star:.16e}",
            f"closed_form.revenue={res.revenue:.16e}",
        ]
    points = exchange.revenue_curve(grid, market, cfg.solver())
    rows = [[p.gamma, p.revenue, p.converged] for p in points]
    write_csv(args.output, "optimal-fee", cfg, ["gamma", "revenue", "converged"], rows, footer)
    if args.strict and not all(p.converged for p in points):
        _log("ael optimal-fee: at least one gamma failed to converge")
        return 3
    return 0


def cmd_payoff_curve(cfg: RunConfig, args: argparse.Namespace) -> int:
    market = cfg.market()
    delta = cfg.strategy(market)
    sigma_a = cfg["curve.sigma_a"]
    if sigma_a == "mid":
        sigma_a = 0.5 * (market.sigma_minus + market.sigma_plus)
    _checked("key curve.sigma_a", check_sigma_a, sigma_a, market)
    ctx = PayoffContext(sigma_a, delta, market, cfg.fees(), cfg.rule(market))
    xs = np.linspace(cfg["curve.x_min"], cfg["curve.x_max"], cfg["curve.n"])
    rows = np.column_stack([xs, *payoff_terms(xs, ctx, (0, 1))]).tolist()
    write_csv(args.output, "payoff-curve", cfg, ["x", "payoff", "deriv"], rows)
    return 0


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    market = cfg.market()
    delta = cfg.strategy(market)
    sim = cfg.sim()
    start = time.perf_counter()
    rep = estimate_stats(delta, market, sim)
    seconds = time.perf_counter() - start
    _log(f"ael simulate: {sim.samples} samples in {seconds:.3f} s "
         f"({sim.samples / max(seconds, 1e-9):.4g} samples/s, worker cap {worker_count()})")
    header = ["emp_" + c for c in _STAT_COLS] + ["se_" + c for c in _STAT_COLS]
    write_csv(args.output, "simulate", cfg, header, [[*astuple(rep.stats), *rep.std_errors]])
    return 0


# --- validation suite -------------------------------------------------------


def _check_rho_bound(cfg, market):
    ok = market.rho_bound_ok
    bound = market.sigma_minus / market.sigma_plus
    detail = f"rho={market.rho:g} bound={bound:.6g}"
    if not ok:
        detail += " (equilibrium assumption rho <= sigma_minus/sigma_plus violated)"
    return ok, detail


def _check_derivative_fd(cfg, market):
    rng = np.random.default_rng(2024)
    schemes = [NoFee(), SpreadQuad(2.0), MidQuad(0.5), LinearDemand(1.0, 0.3)]
    delta = Strategy.constant(0.3, market, 51)
    rule = cfg.rule(market)
    h, worst = 1e-4, 0.0
    for fees in schemes:
        for _ in range(12):
            sa = rng.uniform(market.sigma_minus, market.sigma_plus)
            x = rng.uniform(0.0, 1.5)
            ctx = PayoffContext(sa, delta, market, fees, rule)
            fd = (penalized_payoff(x + h, ctx) - penalized_payoff(x - h, ctx)) / (2 * h)
            worst = max(worst, abs(payoff_deriv(x, ctx) - fd))
    return worst <= 1e-6, f"max_err={worst:.3e} (tol 1e-06)"


def _dev_in_se(dev: float, se: float) -> float:
    """|dev| in standard errors.  A zero SE (one sample, or samples that
    all agree) reads 0 when dev is 0 too, and inf otherwise."""
    if se > 0.0:
        return dev / se
    return 0.0 if dev == 0.0 else math.inf


def _check_payoff_mc(cfg, market):
    delta = Strategy.constant(0.3, market, 51)
    x = np.array([0.1, 0.4, 0.8])
    sa = market.sigma_minus + np.array([0.2, 0.5, 0.9]) * (market.sigma_plus - market.sigma_minus)
    ctx = PayoffContext(sa, delta, market, NoFee(), cfg.rule(market))
    (ref,) = payoff_terms(x, ctx, (0,))
    # one call: the three points share their draws, each keeps its own SE
    sim = cfg.sim(samples=cfg["validate.samples"])
    mean, se = estimate_limit_payoff(x, sa, delta, market, sim)
    worst = max(_dev_in_se(abs(m - r), s) for m, r, s in zip(mean, ref, se))
    return worst <= 4.0, f"max_dev={worst:.2f} SE (tol 4)"


def _check_stats_mc(cfg, market):
    delta = cfg.strategy(market)
    stats = analytic_stats(delta, market, cfg.rule(market))
    rep = estimate_stats(delta, market, cfg.sim(samples=cfg["validate.samples"]))
    worst = max(
        _dev_in_se(abs(e - a), se)
        for a, e, se in zip(astuple(stats), astuple(rep.stats), rep.std_errors)
    )
    return worst <= 4.0, f"max_dev={worst:.2f} SE (tol 4)"


def _check_degenerate_consistency(cfg, market):
    gamma = cfg["fees.gamma"] if cfg["fees.scheme"] == "spread_quad" else 2.0
    sp = market.sigma_plus
    near = MarketParams(sp - 1e-6, sp, market.rho)
    exact = MarketParams(sp, sp, market.rho)
    fees = SpreadQuad(gamma)
    root = equilibrium.solve_degenerate(exact, fees)
    solver = cfg.solver()
    report = equilibrium.solve_fixed_point(near, fees, solver)
    gap = float(np.max(np.abs(report.strategy.values - root)))
    ok = report.converged and gap <= 1e-5
    return ok, f"gap={gap:.3e} converged={report.converged} (tol 1e-05)"


def _check_certificate(cfg, market):
    quad_n = cfg.solver().quad_n
    c0 = equilibrium.no_ne_certificate(Strategy.constant(0.0, market, 31), market, quad_n)
    c1 = equilibrium.no_ne_certificate(Strategy.constant(0.5, market, 31), market, quad_n)
    ok = abs(c0 - 0.25) <= 1e-10 and c1 > 0.0
    return ok, f"cert(0)={c0:.12f} cert(0.5)={c1:.6f}"


def _check_no_ne_gain(cfg, market):
    delta = Strategy.constant(0.3, market, 31)
    gain = equilibrium.verify_ne(delta, market, NoFee(), x_samples=cfg["verify.x_samples"],
                                 quad_n=cfg.solver().quad_n)
    return gain > 0.0, f"deviation_gain={gain:.6f} (must be > 0)"


# (name, check, whether it assumes rho <= sigma_minus/sigma_plus)
_CHECKS = [
    ("rho_assumption", _check_rho_bound, False),
    ("derivative_fd", _check_derivative_fd, False),
    ("payoff_mc", _check_payoff_mc, False),
    ("stats_mc", _check_stats_mc, False),
    ("degenerate_consistency", _check_degenerate_consistency, True),
    ("certificate", _check_certificate, False),
    ("no_ne_deviation_gain", _check_no_ne_gain, True),
]


def cmd_validate(cfg: RunConfig, args: argparse.Namespace) -> int:
    market = cfg.market()
    all_ok = True
    lines = []
    for name, fn, needs_rho_bound in _CHECKS:
        if needs_rho_bound and not market.rho_bound_ok:
            verdict, detail = "SKIP", "rho exceeds sigma_minus/sigma_plus (assumption violated)"
        else:
            start = time.perf_counter()
            try:
                ok, detail = fn(cfg, market)
            except AelError as exc:
                ok, detail = False, f"error: {exc}"
            _log(f"validate: {name} {1e3 * (time.perf_counter() - start):.1f} ms")
            all_ok &= ok
            verdict = "PASS" if ok else "FAIL"
        lines.append(f"{name:<26} {verdict:<5} {detail}")
    lines.append(f"OVERALL: {'PASS' if all_ok else 'FAIL'}")
    print("\n".join(lines))
    return 0 if all_ok else 4


_COMMANDS = {
    "stats": cmd_stats,
    "solve-ne": cmd_solve_ne,
    "optimal-fee": cmd_optimal_fee,
    "payoff-curve": cmd_payoff_curve,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
}


# --- argument handling ------------------------------------------------------


def _parse_overrides(extras: list[str]) -> list[tuple[str, str]]:
    out = []
    i = 0
    while i < len(extras):
        tok = extras[i]
        if not tok.startswith("--"):
            raise ConfigError(f"command line: unexpected argument {tok!r}")
        body = tok[2:]
        if "=" in body:
            key, value = body.split("=", 1)
            i += 1
        else:
            if i + 1 >= len(extras):
                raise ConfigError(f"command line: missing value for --{body}")
            key, value = body, extras[i + 1]
            i += 2
        out.append((key, value))
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ael",
        description="Double-auction quoting game: equilibria, fee design, validation.",
        epilog="environment: AEL_THREADS caps the worker threads of the Monte Carlo "
               "chunks (0 or unset: one per CPU); "
               "every output is bit-identical at every thread count.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("-c", "--config", default=None, help="config file path")
        p.add_argument("-o", "--output", default="out.csv", help="output CSV path")
        p.add_argument("--strict", action="store_true",
                       help="exit 3 when any requested solve fails to converge")
        p.add_argument("--samples", type=int, default=None, help="override sim.samples")
        p.add_argument("--seed", type=int, default=None, help="override sim.seed")
    return parser


def main(argv=None) -> int:
    args, extras = _build_parser().parse_known_args(argv)
    try:
        overrides = _parse_overrides(extras)
        if args.samples is not None:
            overrides.append(("sim.samples", str(args.samples)))
        if args.seed is not None:
            overrides.append(("sim.seed", str(args.seed)))
        cfg = RunConfig.build(args.config, overrides)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        _log(f"ael: config error: {exc}")
        return 2
    except (NoEquilibrium, NoConvergence, WrongScheme) as exc:
        _log(f"ael: {exc}")
        return 3
    except AelError as exc:
        _log(f"ael: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
