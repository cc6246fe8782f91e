"""The four benchmark workloads and their correctness gates.

Each workload drives ``ael`` through its command-line entry point
(``ael.cli.main``, in this process) and then checks the outputs.  One
*job* is one batch of CLI calls; the harness runs jobs back to back.
Every job is split into *operations*, the unit that ``attempted`` and
``failed`` count: one solve, one sweep point, one Monte Carlo estimate
or one validate report.

Inputs are drawn from the workload seed only.  ``toy=True`` shrinks a
job to a fraction of a second (coarse grid, few samples); the traced
run uses toy jobs as its probe and ``selftest.py`` checks them.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ael import LinearDemand, MarketParams, SpreadQuad, AelError
from ael import cli, equilibrium, model

import layers

SE_GATE = 4.0  # simulate: |empirical - analytic| <= SE_GATE standard errors
GAIN_GATE = 1e-6  # solve_ne: verify_ne deviation gain

TOY_SOLVER = ["--solver.grid_n", "11", "--solver.quad_n", "16"]
SIM_SEEDS_PER_JOB = 3
# The default optimal-fee grid is 20 gammas in [1.5, 5]; one fee_sweep job
# runs its first two (a cold solve, then a warm-started one), so that many
# jobs fit in one run.
SWEEP_GAMMAS = np.linspace(1.5, 5.0, 20)[:2]
SIM_STRATEGY_GRID = 101


@dataclass
class Op:
    """One gated operation: its output text and any gate it failed."""

    label: str
    output: str = ""
    problems: list[str] = field(default_factory=list)


class CliRunner:
    """Runs ``ael`` subcommands in this process, writing under ``out_dir``."""

    def __init__(self, out_dir: Path, extra_args=()):
        self.out_dir = out_dir
        self.extra_args = list(extra_args)

    def path(self, name: str) -> Path:
        return self.out_dir / name

    def __call__(self, argv) -> tuple[int, str, str]:
        """(exit code, stdout, stderr) of ``ael <argv>``."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv] + self.extra_args)
        return code, out.getvalue(), err.getvalue()


def parse_csv(text: str):
    """(echoed config, header, data rows, footer key=value) of an ael CSV."""
    config, footer, header, rows = {}, {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, eq, value = line[2:].partition("=")
            if eq:
                (footer if header is not None else config)[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return config, header or [], rows, footer


def market_of(config: dict) -> MarketParams:
    return MarketParams(float(config["market.sigma_minus"]), float(config["market.sigma_plus"]),
                        float(config["market.rho"]))


def _exit_problem(code: int, err: str) -> list[str]:
    return [] if code == 0 else [f"exit code {code}: {err.strip()[-200:]}"]


# --- solve_ne -----------------------------------------------------------------


def draw_solve_ne(rng: np.random.Generator) -> dict:
    return {
        "gamma_spread_quad": round(float(rng.uniform(1.5, 3.0)), 4),
        "gamma_linear_demand": round(float(rng.uniform(0.2, 0.5)), 4),
        "rho": round(float(rng.uniform(0.0, 0.05)), 4),
    }


def job_solve_ne(run: CliRunner, inp: dict, toy: bool) -> list[Op]:
    """Two cold solves, SpreadQuad and LinearDemand, each checked by verify_ne."""
    size = TOY_SOLVER + ["--verify.x_samples", "16"] if toy else []
    cases = [
        ("spread_quad", ["--fees.scheme", "spread_quad", "--fees.gamma", inp["gamma_spread_quad"]]),
        ("linear_demand", ["--fees.scheme", "linear_demand", "--fees.kbar", 1.0,
                           "--fees.gamma", inp["gamma_linear_demand"]]),
    ]
    ops = []
    for scheme, fee_args in cases:
        path = run.path(f"solve_ne_{scheme}.csv")
        code, _, err = run(["solve-ne", "--strict", "-o", path, "--market.rho", inp["rho"],
                            *fee_args, *size])
        op = Op(f"solve:{scheme}", problems=_exit_problem(code, err))
        ops.append(op)
        if code != 0:
            continue
        op.output = path.read_text(encoding="utf-8")
        config, _, _, footer = parse_csv(op.output)
        get = lambda prefix: next(v for k, v in footer.items() if k.startswith(prefix))
        residual = float(get("residual_"))
        if get("converged_") != "true":
            op.problems.append("not converged")
        if get("concavity_ok_") != "true":
            op.problems.append("concavity check failed")
        if not residual <= float(config["solver.tol"]):
            op.problems.append(f"residual {residual:.3e} above tol")
        gamma = float(config["fees.gamma"])
        fees = SpreadQuad(gamma) if scheme == "spread_quad" else LinearDemand(float(config["fees.kbar"]), gamma)
        try:
            gain = equilibrium.verify_ne(cli.load_strategy_csv(str(path)), market_of(config), fees,
                                         x_samples=int(config["verify.x_samples"]),
                                         quad_n=int(config["solver.quad_n"]))
        except AelError as exc:
            op.problems.append(f"verify_ne raised {exc!r}")
            continue
        if not gain <= GAIN_GATE:
            op.problems.append(f"verify_ne gain {gain:.3e} above {GAIN_GATE:g}")
    return ops


# --- fee_sweep ----------------------------------------------------------------


def draw_fee_sweep(rng: np.random.Generator) -> dict:
    return {"rho": round(float(rng.uniform(0.0, 0.05)), 4)}


def job_fee_sweep(run: CliRunner, inp: dict, toy: bool) -> list[Op]:
    """`ael optimal-fee` over SWEEP_GAMMAS, the first gammas of its default
    grid (20 in [1.5, 5]): one cold solve, then warm-started ones."""
    path = run.path("fee_sweep.csv")
    argv = ["optimal-fee", "--strict", "-o", path, "--market.rho", inp["rho"],
            "--sweep.gammas", ",".join(repr(float(g)) for g in SWEEP_GAMMAS)]
    if toy:
        argv += TOY_SOLVER
    path.unlink(missing_ok=True)
    code, _, err = run(argv)
    if not path.exists():
        return [Op("sweep", problems=_exit_problem(code, err) or ["no output"])]
    _, header, rows, _ = parse_csv(path.read_text(encoding="utf-8"))
    ops = []
    for row in rows:
        point = dict(zip(header, row))
        op = Op(f"gamma={point['gamma']}", output=",".join(row))
        if point["converged"] != "true":
            op.problems.append("not converged")
        if not math.isfinite(float(point["revenue"])):
            op.problems.append("revenue not finite")
        ops.append(op)
    if code != 0 or len(ops) != len(SWEEP_GAMMAS):
        ops.append(Op("sweep", problems=_exit_problem(code, err) or [f"{len(ops)} rows"]))
    return ops


# --- simulate -----------------------------------------------------------------


def draw_simulate(rng: np.random.Generator) -> dict:
    return {"sim_seeds": [int(s) for s in rng.integers(0, 2**62, SIM_SEEDS_PER_JOB)]}


def sim_strategy_values(sigma: np.ndarray) -> np.ndarray:
    """The fixed, increasing, non-constant strategy the simulate workload uses."""
    return 0.1 + 0.25 * sigma * sigma


def write_sim_strategy(run: CliRunner) -> Path:
    path = run.path("simulate_strategy.csv")
    grid = np.linspace(0.1, 1.1, SIM_STRATEGY_GRID)
    rows = [f"{s:.16e},{d:.16e}" for s, d in zip(grid, sim_strategy_values(grid))]
    path.write_text("sigma,delta\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def job_simulate(run: CliRunner, inp: dict, toy: bool) -> list[Op]:
    """`ael simulate` at 1M samples, once per derived sim.seed, checked
    against the closed-form statistics."""
    strategy_path = write_sim_strategy(run)
    strategy = cli.load_strategy_csv(str(strategy_path))
    stats = None
    ops = []
    for i, seed in enumerate(inp["sim_seeds"]):
        path = run.path(f"simulate_{i}.csv")
        argv = ["simulate", "-o", path, "--seed", seed, "--strategy.file", strategy_path]
        if toy:
            argv += ["--samples", 1 << 14]
        code, _, err = run(argv)
        op = Op(f"simulate:seed={seed}", problems=_exit_problem(code, err))
        ops.append(op)
        if code != 0:
            continue
        op.output = path.read_text(encoding="utf-8")
        config, header, rows, _ = parse_csv(op.output)
        values = dict(zip(header, map(float, rows[0])))
        if stats is None:
            market = market_of(config)
            stats = model.analytic_stats(strategy, market,
                                         model.default_rule(market, int(config["solver.quad_n"])))
        for stat in ("spread_mean", "spread_var", "mid_error_mean", "mid_error_var", "trade_prob"):
            dev = abs(values["emp_" + stat] - getattr(stats, stat))
            if not dev <= SE_GATE * values["se_" + stat]:
                op.problems.append(f"{stat} off by {dev / values['se_' + stat]:.2f} SE")
    return ops


# --- validate -----------------------------------------------------------------


def draw_validate(rng: np.random.Generator) -> dict:
    return {"sim_seed": int(rng.integers(0, 2**31))}


def job_validate(run: CliRunner, inp: dict, toy: bool) -> list[Op]:
    """`ael validate` at its defaults; the report must end OVERALL: PASS."""
    argv = ["validate", "--seed", inp["sim_seed"]]
    if toy:
        argv += TOY_SOLVER + ["--validate.samples", 20000, "--verify.x_samples", 16]
    code, out, err = run(argv)
    op = Op("validate", output=out, problems=_exit_problem(code, err))
    if "OVERALL: PASS" not in out:
        op.problems.append("report: " + " | ".join(ln for ln in out.splitlines() if "FAIL" in ln))
    return [op]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op_span: str  # the call timed as one operation for op_s_norm/op_s_p50
    op_noun: str
    draw: object
    job: object
    # Calls timed inside a job besides op_span, each normalized by its own
    # reference kernel (see run.normalize).
    parts: tuple = ()


SOLVE_PARTS = (layers.BR, layers.VERIFY)
WORKLOADS = {
    w.name: w
    for w in [
        Workload("solve_ne", "two cold solves plus verify_ne: payoff kernel, gaussmath and solver only",
                 layers.SOLVE, "equilibrium solve", draw_solve_ne, job_solve_ne, SOLVE_PARTS),
        Workload("fee_sweep", "optimal-fee on the first 2 default gammas, cold then warm-started: "
                 "the only exchange-layer load",
                 layers.SOLVE, "equilibrium solve", draw_fee_sweep, job_fee_sweep, SOLVE_PARTS),
        Workload("simulate", "1M-sample Monte Carlo per call on a fixed strategy; the solver is idle",
                 layers.STATS, "1M-sample estimate_stats call", draw_simulate, job_simulate),
        Workload("validate", "validate defaults: near-degenerate solve, MC payoff checks, certificate, FD",
                 layers.SOLVE, "equilibrium solve", draw_validate, job_validate,
                 SOLVE_PARTS + (layers.STATS, layers.LIMIT, "equilibrium.no_ne_certificate")),
    ]
}
