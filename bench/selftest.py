"""Self-test of the benchmark harness, at toy size (well under a minute).

    python3 bench/selftest.py

Checks that:
- every workload's toy job passes its gates, and a repeat reproduces its
  outputs;
- a changed output between repeats is reported as a failed operation;
- a forced solver failure (``solver.max_iter=1`` on solve_ne) is counted
  in ``failed``, not dropped;
- the traced per-layer counts repeat exactly, and tracing leaves the
  outputs unchanged.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run

SEED = 7


def main() -> int:
    run.configure()
    import numpy as np

    import layers
    from spans import Tracer
    from workloads import WORKLOADS, CliRunner, Op

    out = run.OUT / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    runner = CliRunner(out)
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    def inputs(w):
        return w.draw(np.random.default_rng(SEED))

    untraced = {}
    for w in WORKLOADS.values():
        first = w.job(runner, inputs(w), True)
        jobs = [first, w.job(runner, inputs(w), True)]
        attempted, problems = run.tally(jobs)
        untraced[w.name] = [op.output for op in first]
        check(attempted > 0 and not problems,
              f"{w.name}: {attempted} toy operations pass and repeat identically {problems[:3]}")

    attempted, problems = run.tally([[Op("x", "a")], [Op("x", "b")]])
    check((attempted, len(problems)) == (2, 1), "a changed output between repeats is a failed operation")

    solve_ne = WORKLOADS["solve_ne"]
    forced = CliRunner(out, ["--solver.max_iter", "1"])
    attempted, problems = run.tally([solve_ne.job(forced, inputs(solve_ne), True)])
    check((attempted, len(problems)) == (2, 2),
          f"solver.max_iter=1 on solve_ne: {len(problems)}/{attempted} operations counted as failed")

    counts, traced = [], {}
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed(layers.TARGETS, layers.KEEP_RESULTS):
            for w in WORKLOADS.values():
                traced[w.name] = [op.output for op in w.job(runner, inputs(w), True)]
        spans = tracer.spans()
        values = layers.layer_metrics(spans, spans)
        counts.append({n: values[n][0] for n, spec in layers.METRICS.items() if spec[3]})
    check(counts[0] == counts[1] and counts[0]["payoff.deriv_calls"] > 0,
          f"traced per-layer counts repeat exactly: {counts[0]}")
    check(not tracer.absent, f"every span target exists: absent {tracer.absent}")
    check(traced == untraced, "tracing leaves every output unchanged")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {n: s[0] for n, s in layers.METRICS.items()} | {"trace.overhead_frac": "ratio"}
    check(declared == emitted, "BENCHMARK.json per_layer names and units match layers.METRICS")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end_to_end names and units match run.END_TO_END")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json workloads match workloads.WORKLOADS")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
