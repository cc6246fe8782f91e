import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import ael
from ael import cli
from ael.cli import main
from ael.model import MarketParams, SpreadQuad, Strategy, analytic_stats, default_rule
from ael.payoff import PayoffContext, payoff_deriv, penalized_payoff

TOY = ["--solver.grid_n", "11", "--solver.quad_n", "16"]


def data_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [[float(c) for c in ln.split(",")] for ln in lines[1:]]


def test_solve_ne_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "ne.csv"
    runs = []
    for _ in range(2):
        assert main(["solve-ne", "-o", str(out), *TOY]) == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]


def test_echoed_config_reproduces_the_output(tmp_path):
    out = tmp_path / "ne.csv"
    assert main(["solve-ne", "-o", str(out), *TOY, "--solve.gammas", "2,3"]) == 0
    first = out.read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == "# ael solve-ne"
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    config = tmp_path / "echo.cfg"
    config.write_text("\n".join(ln[2:] for ln in lines[1:header]) + "\n")
    out.unlink()
    assert main(["solve-ne", "-c", str(config)]) == 0
    assert out.read_bytes() == first


def test_unknown_key_is_config_error(tmp_path):
    assert main(["solve-ne", "-o", str(tmp_path / "x.csv"), "--solver.no_such_key", "1"]) == 2


@pytest.mark.parametrize(
    "args",
    [["--fees.scheme", "none"], ["--strict", "--solver.max_iter", "1"]],
    ids=["no_equilibrium_scheme", "strict_not_converged"],
)
def test_solve_failure_exit_code(tmp_path, args):
    assert main(["solve-ne", "-o", str(tmp_path / "x.csv"), *TOY, *args]) == 3


@pytest.mark.parametrize(
    "args, message",
    [(["solve-ne", "--fees.scheme", "mid_quad", "--fees.gamma", "0"],
      "ael: config error: fee parameters:"),
     (["optimal-fee", "--strict", "--sweep.gammas=-1,2"], "ael: gamma grid must be positive"),
     (["solve-ne", "--fees.scheme", "bogus"], "ael: config error: key fees.scheme:"),
     (["solve-ne", "--market.sigma_minus", "2"], "ael: config error: market parameters:"),
     (["payoff-curve", "--curve.sigma_a", "foo"], "ael: config error: key curve.sigma_a:"),
     (["payoff-curve", "--curve.sigma_a", "5"], "ael: config error: key curve.sigma_a:"),
     (["simulate", "--strategy.file", "nan_sigma.csv"],
      "ael: config error: strategy file nan_sigma.csv: strategy grid must be finite"),
     (["optimal-fee", "--sweep.count", "-1"],
      "ael: config error: key sweep.count: expected a non-negative integer"),
     (["payoff-curve", "--curve.n", "-1"],
      "ael: config error: key curve.n: expected a non-negative integer"),
     (["solve-ne", "--solve.gammas", "2,3,2"],
      "ael: config error: key solve.gammas: 2.0 and 2.0 share the column delta_gamma_2"),
     (["solve-ne", "--solve.gammas", "0.1234561,0.1234562"],
      "ael: config error: key solve.gammas: 0.1234561 and 0.1234562 share the column")],
    ids=["mid_quad_zero_gamma", "nonpositive_sweep_gamma", "unknown_scheme", "bad_market",
         "bad_curve_sigma_a", "curve_sigma_a_out_of_range", "nan_strategy_sigma",
         "negative_sweep_count", "negative_curve_n", "repeated_solve_gamma",
         "colliding_solve_gammas"],
)
def test_bad_input_exit_code(tmp_path, monkeypatch, capsys, args, message):
    monkeypatch.chdir(tmp_path)
    Path("nan_sigma.csv").write_text("sigma,delta\n0.1,0.2\nnan,0.3\n1.1,0.4\n")
    out = tmp_path / "x.csv"
    assert main([*args, "-o", str(out), *TOY]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines()[-1].startswith(message)


@pytest.mark.parametrize("command", ["stats", "payoff-curve", "validate"])
def test_quad_n_below_one_is_config_error(tmp_path, capsys, command):
    # every command reads solver.quad_n through the checked SolverConfig
    out = tmp_path / "x.csv"
    args = ["--solver.quad_n", "0", "--validate.samples", "2000", "--verify.x_samples", "16"]
    message = "solver parameters: quad_n must be >= 1"
    if command == "validate":
        assert main([command, *args]) == 4
        report = capsys.readouterr().out.splitlines()
        assert f"stats_mc                   FAIL  error: {message}" in report
    else:
        assert main([command, "-o", str(out), *args]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines()[-1] == f"ael: config error: {message}"


@pytest.mark.parametrize("rho, code", [("0", 0), ("0.5", 4)])
def test_validate_report_and_exit_code(capsys, rho, code):
    args = [*TOY, "--validate.samples", "20000", "--verify.x_samples", "16", "--market.rho", rho]
    assert main(["validate", *args]) == code
    out, err = capsys.readouterr()
    verdicts = dict(ln.split()[:2] for ln in out.splitlines())
    assert len(verdicts) == 8
    if code == 0:
        assert set(verdicts.values()) == {"PASS"}
    else:
        assert verdicts["rho_assumption"] == verdicts["OVERALL:"] == "FAIL"
        assert verdicts["degenerate_consistency"] == verdicts["no_ne_deviation_gain"] == "SKIP"
    # stdout holds the report alone; each check that ran logs its time to stderr
    ran = [name for name, verdict in verdicts.items() if name != "OVERALL:" and verdict != "SKIP"]
    timings = [ln.split(" ") for ln in err.splitlines()]
    assert [t[:2] for t in timings] == [["validate:", name] for name in ran]
    assert all(len(t) == 4 and float(t[2]) >= 0.0 and t[3] == "ms" for t in timings)


@pytest.mark.parametrize("seed, seeds", [(5, [5, 6, 7]), (2**64 - 1, [2**64 - 1, 0, 1])])
def test_validate_payoff_mc_seeds_wrap_at_2_64(monkeypatch, capsys, seed, seeds):
    # the three payoff checks take sim.seed + i, reduced mod 2**64 so a
    # seed near the top of the range stays valid
    used = []
    estimate = cli.estimate_limit_payoff

    def spy(x, sigma_a, delta, market, sim):
        used.append(sim.seed)
        return estimate(x, sigma_a, delta, market, sim)

    monkeypatch.setattr(cli, "estimate_limit_payoff", spy)
    args = [*TOY, "--validate.samples", "20000", "--verify.x_samples", "16"]
    assert main(["validate", *args, "--seed", str(seed)]) == 0
    assert used == seeds
    verdicts = dict(ln.split()[:2] for ln in capsys.readouterr().out.splitlines())
    assert verdicts["payoff_mc"] == "PASS"


def test_stats_columns_match_analytic_stats_and_simulate(tmp_path):
    args = [*TOY, "--strategy.constant", "0.3", "--market.rho", "0.03", "--samples", "50000"]
    assert main(["stats", "--simulate", "-o", str(tmp_path / "stats.csv"), *args]) == 0
    assert main(["simulate", "-o", str(tmp_path / "sim.csv"), *args]) == 0
    header, (row,) = data_rows(tmp_path / "stats.csv")
    market = MarketParams(0.1, 1.1, 0.03)
    analytic = asdict(analytic_stats(Strategy.constant(0.3, market, 11), market,
                                     default_rule(market, 16)))
    assert {h: v for h, v in zip(header, row) if h in analytic} == analytic
    empirical = {h: v for h, v in zip(header, row) if h not in analytic}
    sim_header, (sim_row,) = data_rows(tmp_path / "sim.csv")
    assert len(empirical) == 10
    assert {h: v for h, v in zip(sim_header, sim_row) if h in empirical} == empirical


@pytest.mark.parametrize("command", [["simulate"], ["stats", "--simulate"]])
def test_simulation_throughput_goes_to_stderr(tmp_path, monkeypatch, capsys, command):
    out = tmp_path / "sim.csv"
    csvs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("AEL_THREADS", threads)
        assert main([*command, "-o", str(out), *TOY, "--samples", "20000"]) == 0
        csvs.append(out.read_bytes())
        (line,) = capsys.readouterr().err.splitlines()
        words = line.split()
        assert words[:4] == ["ael", f"{command[0]}:", "20000", "samples"]
        assert words[4] == "in" and float(words[5]) > 0.0 and words[6] == "s"
        assert float(words[7].lstrip("(")) > 0.0 and words[8] == "samples/s,"
        assert words[9:] == ["worker", "cap", f"{threads})"]
    # the log changes with the thread count; the output file does not
    assert csvs[0] == csvs[1]
    assert b"samples/s" not in csvs[0]


def test_single_sample_simulate_has_zero_standard_errors(tmp_path):
    # one sample has no spread; the fourth-moment sums must not leak
    # their rounding into se_*_var
    out = tmp_path / "sim.csv"
    assert main(["simulate", "-o", str(out), "--samples", "1", "--seed", "12345"]) == 0
    header, (row,) = data_rows(out)
    values = dict(zip(header, row))
    assert values["emp_spread_var"] == values["emp_mid_error_var"] == 0.0
    assert all(v == 0.0 for h, v in values.items() if h.startswith("se_"))


def test_payoff_curve_matches_scalar_functions(tmp_path):
    out = tmp_path / "curve.csv"
    args = ["--strategy.constant", "0.3", "--curve.n", "41"]
    assert main(["payoff-curve", "-o", str(out), *TOY, *args]) == 0
    header, rows = data_rows(out)
    assert header == ["x", "payoff", "deriv"] and len(rows) == 41
    market = MarketParams(0.1, 1.1, 0.0)
    ctx = PayoffContext(0.6, Strategy.constant(0.3, market, 11), market, SpreadQuad(2.0),
                        default_rule(market, 16))
    for x, value, deriv in rows:
        assert abs(value - penalized_payoff(x, ctx)) <= 1e-15
        assert abs(deriv - payoff_deriv(x, ctx)) <= 1e-15


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(ael.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "ne.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "ael", "solve-ne", "-o", str(out), *TOY],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    from_subprocess = out.read_bytes()
    assert main(["solve-ne", "-o", str(out), *TOY]) == 0
    assert out.read_bytes() == from_subprocess
