import math
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import ael
from ael import cli, model, payoff
from ael.cli import main
from ael.errors import ConfigError
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
    rerun = tmp_path / "rerun.csv"
    assert main(["solve-ne", "-c", str(config), "-o", str(rerun)]) == 0
    assert rerun.read_bytes() == first


@pytest.mark.parametrize("command", [
    ["stats", "--strategy.constant", "0.3"],
    ["solve-ne"],
    ["optimal-fee", "--sweep.gammas", "2,3"],
    ["payoff-curve", "--strategy.constant", "0.3", "--curve.n", "11"],
    ["simulate", "--samples", "1000"],
], ids=lambda command: command[0])
def test_output_bytes_do_not_depend_on_the_path(tmp_path, command):
    outputs = []
    for name in ("a.csv", "b.csv"):
        assert main([*command, "-o", str(tmp_path / name), *TOY]) == 0
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]
    assert b"output" not in outputs[0]


def test_solve_ne_column_does_not_depend_on_the_gamma_order(tmp_path):
    # every gamma is solved cold, its coarse level climbing in gamma where
    # the cold solve fails (as at 1e-5), so a column is a function of its
    # gamma alone
    columns = []
    for gammas in ("1e-5,2", "2,1e-5"):
        out = tmp_path / "ne.csv"
        assert main(["solve-ne", "--strict", "-o", str(out), "--solver.grid_n", "11",
                     "--solve.gammas", gammas]) == 0
        header, rows = data_rows(out)
        columns.append([row[header.index("delta_gamma_1e-05")] for row in rows])
    assert columns[0] == columns[1]


def test_output_path_is_not_a_config_key(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("output.path=x.csv\n")
    assert main(["stats", "-c", str(config), "-o", str(tmp_path / "stats.csv")]) == 2


def test_stats_takes_no_simulate_flag(tmp_path):
    out = tmp_path / "stats.csv"
    assert main(["stats", "--simulate", "-o", str(out), *TOY]) == 2
    assert not out.exists()


def test_unknown_key_is_config_error(tmp_path):
    assert main(["solve-ne", "-o", str(tmp_path / "x.csv"), "--solver.no_such_key", "1"]) == 2


def parse(argv):
    args, extras = cli._build_parser().parse_known_args(argv)
    return vars(args), cli._parse_overrides(extras)


def namespace(command, config=None, output="out.csv", strict=False, samples=None, seed=None):
    return dict(command=command, config=config, output=output, strict=strict,
                samples=samples, seed=seed)


# each argv with the namespace and key overrides that one subparser per
# command gave it
@pytest.mark.parametrize("argv, args, overrides", [
    (["stats"], namespace("stats"), []),
    (["solve-ne", "-c", "run.cfg", "-o", "ne.csv", "--strict", "--samples", "7", "--seed", "3"],
     namespace("solve-ne", "run.cfg", "ne.csv", True, 7, 3), []),
    (["optimal-fee", "--config=run.cfg", "--output=fee.csv", "--samples=7", "--seed=3",
      "--sweep.gammas=2,3"],
     namespace("optimal-fee", "run.cfg", "fee.csv", False, 7, 3), [("sweep.gammas", "2,3")]),
    (["payoff-curve", "--curve.x_min", "-0.5", "--curve.x_max=-0.1", "-o", "-"],
     namespace("payoff-curve", output="-"), [("curve.x_min", "-0.5"), ("curve.x_max", "-0.1")]),
    (["simulate", "--samples", "10", "--market.rho", "-0.02", "--seed", "-1"],
     namespace("simulate", samples=10, seed=-1), [("market.rho", "-0.02")]),
    (["validate", "--strict", "--solve.gammas", "2,3", "--solver.tol=1e-9"],
     namespace("validate", strict=True), [("solve.gammas", "2,3"), ("solver.tol", "1e-9")]),
], ids=["stats", "solve-ne", "optimal-fee", "payoff-curve", "simulate", "validate"])
def test_parse_matches_the_per_command_parsers(argv, args, overrides):
    assert parse(argv) == (args, overrides)


@pytest.mark.parametrize("before, after", [
    (["-o", "x.csv", "--strict", "stats"], ["stats", "-o", "x.csv", "--strict"]),
    (["--seed=3", "-c", "run.cfg", "--market.rho=-0.05", "solve-ne", "--fees.gamma", "1.5"],
     ["solve-ne", "--seed=3", "-c", "run.cfg", "--market.rho=-0.05", "--fees.gamma", "1.5"]),
], ids=["flags", "flags_and_keys"])
def test_flags_may_precede_the_command(before, after):
    assert parse(before) == parse(after)


@pytest.mark.parametrize("argv, code", [
    ([], 2), (["nosuch"], 2), (["--help"], 0), (["solve-ne", "--help"], 0),
], ids=["no_command", "unknown_command", "help", "command_help"])
def test_usage_exits(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert "usage: ael" in captured.out + captured.err


def test_csv_cells_keep_their_text(tmp_path):
    out = tmp_path / "cells.csv"
    row = [True, 3, np.int64(3), 0.1, np.float64(0.1), np.float32(0.1), "mid"]
    cli.write_csv(out, "cells", cli.RunConfig.build(None, []), list("abcdefg"), [row])
    assert out.read_text().splitlines()[-1] == (
        "true,3,3,1.0000000000000001e-01,1.0000000000000001e-01,1.0000000149011612e-01,mid")


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
     (["stats", "--strategy.file", "narrow.csv", "--strategy.column", "delta_gamma_5"],
      "ael: config error: strategy file narrow.csv lacks column 'delta_gamma_5'"),
     (["optimal-fee", "--sweep.count", "-1"],
      "ael: config error: key sweep.count: expected a non-negative integer"),
     (["payoff-curve", "--curve.n", "-1"],
      "ael: config error: key curve.n: expected a non-negative integer"),
     (["solve-ne", "--solve.gammas", "2,3,2"],
      "ael: config error: key solve.gammas: 2.0 and 2.0 share the column delta_gamma_2"),
     (["solve-ne", "--solve.gammas", "0.1234561,0.1234562"],
      "ael: config error: key solve.gammas: 0.1234561 and 0.1234562 share the column"),
     (["optimal-fee", "--fees.scheme", "linear_demand", "--fees.kbar", "3"],
      "ael: config error: key fees.scheme: optimal-fee prices spread_quad only, "
      "got 'linear_demand'"),
     # a strategy narrower than the market fails alike in every command;
     # only a sigma_a outside the market is a curve.sigma_a error
     (["stats", "--strategy.file", "narrow.csv"], "ael: sigma outside strategy span [0.5, 0.9]"),
     (["simulate", "--strategy.file", "narrow.csv", "--samples", "1000"],
      "ael: sigma outside strategy span [0.5, 0.9]"),
     (["payoff-curve", "--strategy.file", "narrow.csv"],
      "ael: sigma outside strategy span [0.5, 0.9]"),
     (["payoff-curve", "--strategy.file", "narrow.csv", "--curve.sigma_a", "5"],
      "ael: config error: key curve.sigma_a: sigma_a = 5.0 outside [0.1, 1.1]")],
    ids=["mid_quad_zero_gamma", "nonpositive_sweep_gamma", "unknown_scheme", "bad_market",
         "bad_curve_sigma_a", "curve_sigma_a_out_of_range", "nan_strategy_sigma",
         "absent_strategy_column",
         "negative_sweep_count", "negative_curve_n", "repeated_solve_gamma",
         "colliding_solve_gammas", "optimal_fee_other_scheme", "stats_strategy_span",
         "simulate_strategy_span", "curve_strategy_span", "curve_sigma_a_outside_market"],
)
def test_bad_input_exit_code(tmp_path, monkeypatch, capsys, args, message):
    monkeypatch.chdir(tmp_path)
    Path("nan_sigma.csv").write_text("sigma,delta\n0.1,0.2\nnan,0.3\n1.1,0.4\n")
    Path("narrow.csv").write_text("sigma,delta\n0.5,0.3\n0.9,0.3\n")
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


def test_validate_rejects_a_bad_sample_count_alike_in_both_mc_checks(capsys):
    # both Monte Carlo checks build their SimConfig through RunConfig.sim
    args = [*TOY, "--validate.samples", "0", "--verify.x_samples", "16"]
    assert main(["validate", *args]) == 4
    report = dict(ln.split(maxsplit=1) for ln in capsys.readouterr().out.splitlines())
    message = "FAIL  error: simulation parameters: samples must be >= 1"
    assert report["payoff_mc"] == report["stats_mc"] == message


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


def test_validate_builds_every_rule_on_solver_quad_n(monkeypatch, capsys):
    # record the node count of every sigma_b rule, and the check that built it
    built, running = [], [None]
    rule = model.default_rule

    def spy(*args, **kwargs):
        nodes, w = rule(*args, **kwargs)
        built.append((running[0], nodes.size))
        return nodes, w

    for name, module in list(sys.modules.items()):
        if name.startswith("ael.") and getattr(module, "default_rule", None) is rule:
            monkeypatch.setattr(module, "default_rule", spy)

    def tagged(name, check):
        def run(cfg, market):
            running[0] = name
            return check(cfg, market)
        return run

    monkeypatch.setattr(cli, "_CHECKS", [(name, tagged(name, check), needs)
                                         for name, check, needs in cli._CHECKS])
    assert main(["validate", *TOY, "--validate.samples", "20000"]) == 0
    assert "OVERALL: PASS" in capsys.readouterr().out
    numeric = {name for name, _, _ in cli._CHECKS} - {"rho_assumption"}
    assert {name for name, _ in built} == numeric
    assert {size for _, size in built} == {16}


@pytest.mark.parametrize("seed", [5, 2**64 - 1])
def test_validate_payoff_mc_seeds_wrap_at_2_64(monkeypatch, capsys, seed):
    # the three payoff points share one estimator call at sim.seed itself,
    # so a seed at the top of the range stays valid with no wrap
    calls = []
    estimate = cli.estimate_limit_payoff

    def spy(x, sigma_a, delta, market, sim):
        calls.append((sim.seed, np.shape(x), np.shape(sigma_a)))
        return estimate(x, sigma_a, delta, market, sim)

    monkeypatch.setattr(cli, "estimate_limit_payoff", spy)
    args = [*TOY, "--validate.samples", "20000", "--verify.x_samples", "16"]
    assert main(["validate", *args, "--seed", str(seed)]) == 0
    assert calls == [(seed, (3,), (3,))]
    verdicts = dict(ln.split()[:2] for ln in capsys.readouterr().out.splitlines())
    assert verdicts["payoff_mc"] == "PASS"


@pytest.mark.parametrize("point", [0, 1, 2])
def test_validate_payoff_mc_fails_a_reference_off_by_ten_se(monkeypatch, capsys, point):
    # the shared draws correlate the three estimates but leave each its own
    # exact SE: moving any one reference payoff by 10 SE fails the check
    args = [*TOY, "--validate.samples", "20000", "--verify.x_samples", "16"]
    ses = []
    estimate, terms = cli.estimate_limit_payoff, cli.payoff_terms

    def record(*call):
        mean, se = estimate(*call)
        ses.append(se)
        return mean, se

    monkeypatch.setattr(cli, "estimate_limit_payoff", record)
    assert main(["validate", *args]) == 0
    (se,) = ses
    shift = np.zeros(3)
    shift[point] = 10.0 * se[point]

    def shifted(x, ctx, orders, cross=False):
        (ref,) = terms(x, ctx, orders, cross)
        return [ref + shift]

    monkeypatch.setattr(cli, "payoff_terms", shifted)
    capsys.readouterr()
    assert main(["validate", *args]) == 4
    verdicts = dict(ln.split()[:2] for ln in capsys.readouterr().out.splitlines())
    assert verdicts.pop("payoff_mc") == verdicts.pop("OVERALL:") == "FAIL"
    assert set(verdicts.values()) == {"PASS"}


def derivative_fd_calls(monkeypatch):
    """Run validate's derivative_fd check on the default market and return
    its verdict, the (x, ctx, orders, result) of each of its kernel calls,
    and the indexes of the row contexts it derived."""
    calls, rows = [], []
    terms, take = payoff.payoff_terms, PayoffContext.rows

    def spy(x, ctx, orders=(0, 1, 2), cross=False):
        calls.append((x, ctx, orders, terms(x, ctx, orders, cross)))
        return calls[-1][-1]

    monkeypatch.setattr(payoff, "payoff_terms", spy)
    monkeypatch.setattr(PayoffContext, "rows", lambda self, index: rows.append(index)
                        or take(self, index))
    cfg = cli.RunConfig.build(None, [])
    verdict = cli._check_derivative_fd(cfg, cfg.market())
    monkeypatch.undo()
    return verdict, calls, rows


def test_derivative_fd_evaluates_all_its_points_at_once(monkeypatch):
    # per scheme, the payoff at x - h and x + h and e' at x, each on all
    # 12 rows of one context: no one-point call and no row context
    verdict, calls, rows = derivative_fd_calls(monkeypatch)
    assert verdict == (True, "max_err=3.974e-09 (tol 1e-06)")
    assert [(np.shape(x), ctx.sigma_a.shape, orders) for x, ctx, orders, _ in calls] == [
        ((12,), (12,), (0,)), ((12,), (12,), (0,)), ((12,), (12,), (1,))] * 4
    assert rows == []


def test_derivative_fd_batch_matches_its_points_one_at_a_time(monkeypatch):
    _, calls, _ = derivative_fd_calls(monkeypatch)
    for x, ctx, orders, (batch,) in calls:
        alone = np.array([payoff.payoff_terms(x[i], ctx.rows(i), orders)[0] for i in range(12)])
        assert np.all(np.abs(batch - alone) <= 1e-15 * np.abs(alone))


def test_validate_reads_a_zero_standard_error_as_an_infinite_deviation(capsys):
    # one sample has a zero SE: a nonzero deviation from it is infinite,
    # not a quotient by a tiny floor
    args = [*TOY, "--validate.samples", "1", "--verify.x_samples", "16"]
    assert main(["validate", *args]) == 4
    details = dict(ln.split(None, 1) for ln in capsys.readouterr().out.splitlines())
    assert details["payoff_mc"] == details["stats_mc"] == "FAIL  max_dev=inf SE (tol 4)"
    assert cli._dev_in_se(0.0, 0.0) == 0.0
    assert cli._dev_in_se(1e-12, 0.0) == math.inf
    assert cli._dev_in_se(3.0, 1.5) == 2.0


def test_stats_columns_match_analytic_stats(tmp_path):
    args = [*TOY, "--strategy.constant", "0.3", "--market.rho", "0.03"]
    assert main(["stats", "-o", str(tmp_path / "stats.csv"), *args]) == 0
    header, (row,) = data_rows(tmp_path / "stats.csv")
    market = MarketParams(0.1, 1.1, 0.03)
    analytic = asdict(analytic_stats(Strategy.constant(0.3, market, 11), market,
                                     default_rule(market, 16)))
    assert dict(zip(header, row)) == analytic


@pytest.fixture(scope="module")
def two_gamma_csv(tmp_path_factory):
    """A solve-ne CSV with the columns delta_gamma_2 and delta_gamma_3."""
    out = tmp_path_factory.mktemp("two_gamma") / "ne.csv"
    assert main(["solve-ne", "-o", str(out), *TOY, "--solve.gammas", "2,3"]) == 0
    return out


@pytest.mark.parametrize("column", ["delta_gamma_2", "delta_gamma_3"])
def test_strategy_column_picks_that_column(two_gamma_csv, column):
    header, rows = data_rows(two_gamma_csv)
    strategy = cli.load_strategy_csv(str(two_gamma_csv), column)
    assert strategy.grid.tolist() == [row[header.index("sigma")] for row in rows]
    assert strategy.values.tolist() == [row[header.index(column)] for row in rows]


def test_strategy_column_defaults_to_the_first_delta_column(two_gamma_csv):
    default = cli.load_strategy_csv(str(two_gamma_csv))
    first = cli.load_strategy_csv(str(two_gamma_csv), "delta_gamma_2")
    assert default.grid.tobytes() == first.grid.tobytes()
    assert default.values.tobytes() == first.values.tobytes()


def test_absent_strategy_column_is_config_error(two_gamma_csv):
    with pytest.raises(ConfigError, match="lacks column 'delta_gamma_5'"):
        cli.load_strategy_csv(str(two_gamma_csv), "delta_gamma_5")


def test_simulate_columns_are_the_estimates_and_their_errors(tmp_path):
    assert main(["simulate", "-o", str(tmp_path / "sim.csv"), *TOY, "--samples", "1000"]) == 0
    header, _ = data_rows(tmp_path / "sim.csv")
    names = [f.name for f in fields(model.PairStats)]
    assert header == ["emp_" + n for n in names] + ["se_" + n for n in names]


def test_simulation_throughput_goes_to_stderr(tmp_path, monkeypatch, capsys):
    out = tmp_path / "sim.csv"
    csvs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("AEL_THREADS", threads)
        assert main(["simulate", "-o", str(out), *TOY, "--samples", "20000"]) == 0
        csvs.append(out.read_bytes())
        (line,) = capsys.readouterr().err.splitlines()
        words = line.split()
        assert words[:4] == ["ael", "simulate:", "20000", "samples"]
        assert words[4] == "in" and float(words[5]) > 0.0 and words[6] == "s"
        assert float(words[7].lstrip("(")) > 0.0 and words[8] == "samples/s,"
        assert words[9:] == ["worker", "cap", f"{threads})"]
    # the log changes with the thread count; the output file does not
    assert csvs[0] == csvs[1]
    assert b"samples/s" not in csvs[0]


def test_simulate_is_byte_identical_across_processes(tmp_path, monkeypatch):
    # the integer seed reaches the stream only through SeedSequence
    # hashing; a run in a fresh process, which would draw other OS
    # entropy, must write the same bytes at every thread count
    src = str(Path(ael.__file__).resolve().parent.parent)
    out = tmp_path / "sim.csv"
    args = ["simulate", "-o", str(out), "--samples", "70001", "--seed", "9"]
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, AEL_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "ael", *args],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(out.read_bytes())
        monkeypatch.setenv("AEL_THREADS", threads)
        assert main(args) == 0
        runs.append(out.read_bytes())
    assert runs == [runs[0]] * 4


def test_single_sample_simulate_has_zero_standard_errors(tmp_path):
    # one sample has no spread; the fourth-moment sums must not leak
    # their rounding into se_*_var
    out = tmp_path / "sim.csv"
    assert main(["simulate", "-o", str(out), "--samples", "1", "--seed", "12345"]) == 0
    header, (row,) = data_rows(out)
    values = dict(zip(header, row))
    assert values["emp_spread_var"] == values["emp_mid_error_var"] == 0.0
    assert all(v == 0.0 for h, v in values.items() if h.startswith("se_"))


def test_two_sample_simulate_has_zero_variance_standard_errors(tmp_path):
    # two samples deviate from their mean by +-d, so m4 = m2^2 exactly
    # and the SE of each variance is 0, while the variances are not
    out = tmp_path / "sim.csv"
    args = ["--samples", "2", "--seed", "12345", "--strategy.constant", "0"]
    assert main(["simulate", "-o", str(out), *args]) == 0
    header, (row,) = data_rows(out)
    values = dict(zip(header, row))
    assert values["emp_spread_var"] > 0.0 and values["emp_mid_error_var"] > 0.0
    assert values["se_spread_var"] == values["se_mid_error_var"] == 0.0


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
