"""Benchmark harness for ael.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/`` and from nowhere else.  Load model: one caller in
one process runs the workload's batch jobs back to back (closed loop)
for ``--seconds`` and at least ``MIN_JOBS`` jobs, with ``AEL_THREADS=2``
for the Monte Carlo layer and BLAS pinned to one thread.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one job
untraced and one job with a span around every call into the package's
layers, followed by a toy-size probe of all workloads, and prints the
per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Outputs, traces and a full result file go to
``.bench_out/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy, ael and the modules beside this file are imported inside the
# functions, after configure() has pinned the thread counts.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set before numpy is imported.  AEL_THREADS unset would mean one MC
# worker per CPU, which differs between machines.
THREAD_ENV = {
    "AEL_THREADS": "2",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_REPEATS = 7
# Times set-up, then the scalar Python reference kernel (see reference.py)
# five times; argv[1] is the directory of reference.py.
SETUP_CODE = """
import time
t = time.perf_counter()
import ael
from ael.cli import RunConfig
RunConfig.build(None, [])
setup = time.perf_counter() - t
import statistics, sys
sys.path.insert(0, sys.argv[1])
import reference
runs = []
for _ in range(5):
    t = time.perf_counter()
    reference.PYTHON[1]()
    runs.append(time.perf_counter() - t)
print(setup, statistics.median(runs))
"""
MIN_JOBS = 3  # a run lasts at least --seconds and at least this many jobs
JOB_SPAN = "bench.job"
# The end-to-end metrics BENCHMARK.json bounds.  The times are normalized
# seconds (see reference.py): the shared host's speed moves between levels
# up to about 2x apart for spans of a second to over a minute, so raw
# seconds of the same work spread by more than any bound allows, even as
# the fastest of many repeats.  Raw seconds are printed too.
END_TO_END = {
    "setup_s": "s",
    "wall_s_norm": "s",
    "op_s_norm": "s",
    "peak_rss_mb": "MB",
}
PRINTED = {"setup_s_raw": "s", "wall_s_p50": "s", "op_s_p50": "s", "host_speed": "ratio"}


def configure() -> None:
    """Pin thread counts and make the checkout's ``src/ael`` importable."""
    if not (SRC / "ael" / "__init__.py").is_file():
        raise SystemExit(f"bench/run.py: no ael package at {SRC}; run it inside a checkout")
    os.environ.update(THREAD_ENV)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import ael

    if not Path(ael.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench/run.py: imported ael from {ael.__file__}, not from {SRC}")


def machine_info() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in THREAD_ENV},
    }


def measure_setup(n: int) -> list[tuple[float, float]]:
    """(seconds for ``import ael`` plus ``RunConfig.build``, seconds of the
    scalar Python reference kernel) in each of ``n`` fresh processes."""
    runs = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(Path(__file__).resolve().parent)],
                              capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        setup, ref = map(float, proc.stdout.split()[-2:])
        runs.append((setup, ref))
    return runs


def tally(jobs) -> tuple[int, list[str]]:
    """(attempted, problems) over all jobs' ops.  Each op's output must equal
    the output of the op with the same label in the first job."""
    first = {op.label: op.output for op in jobs[0]}
    attempted, problems = 0, []
    for k, ops in enumerate(jobs):
        for op in ops:
            attempted += 1
            if k and op.label in first and op.output != first[op.label]:
                op.problems.append(f"output differs from repeat 0 (repeat {k})")
            if op.problems:
                problems.append(f"repeat {k} {op.label}: {'; '.join(op.problems)}")
    return attempted, problems


def mc_probe(tracer, run, seed: int) -> None:
    """One estimate_stats call at AEL_THREADS=1 and one at 2, in named spans."""
    import layers
    from ael import MarketParams, SimConfig, cli, simulator
    from workloads import write_sim_strategy

    strategy = cli.load_strategy_csv(str(write_sim_strategy(run)))
    sim = SimConfig(samples=layers.MC_PROBE_SAMPLES, seed=seed)
    try:
        for threads, name in (("1", layers.MC_T1), ("2", layers.MC_T2)):
            os.environ["AEL_THREADS"] = threads
            with tracer.span(name):
                simulator.estimate_stats(strategy, MarketParams(0.1, 1.1, 0.0), sim)
    finally:
        os.environ["AEL_THREADS"] = THREAD_ENV["AEL_THREADS"]


def timed(job, *args):
    t = time.perf_counter()
    ops = job(*args)
    return time.perf_counter() - t, ops


def reference_hooks(tracer, targets) -> dict:
    """For each target, a callable that runs and times (as a span) the
    reference kernel matching the target's kind of work."""
    import layers
    import reference

    def hook(kind):
        name, kernel, _ = kind

        def run_reference():
            with tracer.span(name):
                kernel()

        return run_reference

    large = {layers.STATS, layers.LIMIT}
    return {t: hook(reference.LARGE if t in large else reference.SMALL) for t in targets}


def normalize(trace, op_span: str):
    """(normalized job seconds, normalized seconds of each op, raw job
    seconds, host speed) of one job's main-thread trace.

    Each span's self time (its duration less that of its children) is
    scaled by nominal/measured time of the reference span opened just
    before it, averaged with that of the first reference opened after it
    closed.  Spans with none before them (the job itself) use the host
    speed: the median of that ratio over the job's small-array
    references, or over all its references when it has no small-array
    one.  Above 1 means faster than the nominal host.  Reference spans
    count for nothing.
    """
    import numpy as np
    import reference

    nominal = np.zeros(len(trace.names))
    for name, _, seconds in (reference.SMALL, reference.LARGE):
        if name in trace.names:
            nominal[trace.names.index(name)] = seconds
    ref_speed = nominal[trace.name] / trace.duration  # 0 for spans that are not references
    is_ref = ref_speed > 0
    small = trace.mask(reference.SMALL[0])
    speed = float(np.median(ref_speed[small if small.any() else is_ref]))
    scale = np.full(trace.name.size, speed)
    refs = np.flatnonzero(is_ref)
    after_ref = np.flatnonzero(~is_ref[1:] & is_ref[:-1]) + 1
    # the first reference opened after each of these spans closed, if any
    following = refs[np.minimum(np.searchsorted(trace.start[refs], trace.end[after_ref]), refs.size - 1)]
    has_next = trace.start[following] >= trace.end[after_ref]
    scale[after_ref] = np.where(has_next, 0.5 * (ref_speed[after_ref - 1] + ref_speed[following]),
                                ref_speed[after_ref - 1])
    work = np.where(is_ref, 0.0, trace.self_time * scale)
    is_op = trace.name == (trace.names.index(op_span) if op_span in trace.names else -2)
    op_of = np.where(is_op, np.arange(trace.name.size), trace.nearest_ancestor([op_span]))
    ops = [float(work[op_of == i].sum()) for i in np.flatnonzero(is_op)]
    raw = float(trace.self_time[~is_ref].sum())
    return float(work.sum()), ops, raw, speed


def run_untraced(w, run, inp, seconds: float):
    """Jobs back to back for ``seconds`` and at least MIN_JOBS; returns
    (jobs, end-to-end metrics, a note on each metric's samples, raw timings)."""
    import reference
    from spans import Tracer

    setup = measure_setup(SETUP_REPEATS)
    jobs, per_job = [], []
    start = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - start < seconds:
        timer = Tracer()
        targets = (w.op_span,) + w.parts
        with timer.installed(targets, before=reference_hooks(timer, targets)), timer.span(JOB_SPAN):
            jobs.append(w.job(run, inp, False))
        spans = timer.spans()
        trace = spans.select(spans.thread == spans.thread[spans.mask(JOB_SPAN)][0])
        raw_ops = trace.duration[trace.mask(w.op_span)]
        if not raw_ops.size:
            raise SystemExit(f"bench/run.py: no {w.op_span} call was recorded")
        norm_job, norm_ops, raw_job, speed = normalize(trace, w.op_span)
        per_job.append({"norm_job_s": norm_job, "norm_ops_s": norm_ops, "raw_job_s": raw_job,
                        "raw_ops_s": raw_ops.tolist(), "host_speed": speed,
                        "pieces": int(trace.name.size)})
    col = lambda key: [j[key] for j in per_job]
    metrics = {
        "setup_s": statistics.median(t * reference.PYTHON[2] / ref for t, ref in setup),
        "setup_s_raw": statistics.median(t for t, _ in setup),
        "wall_s_norm": statistics.median(col("norm_job_s")),
        "op_s_norm": statistics.median(statistics.mean(o) for o in col("norm_ops_s")),
        "wall_s_p50": statistics.median(col("raw_job_s")),
        "op_s_p50": statistics.median(t for o in col("raw_ops_s") for t in o),
        "host_speed": statistics.median(col("host_speed")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n_ops = sum(len(o) for o in col("raw_ops_s"))
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes, normalized by the scalar Python kernel",
        "setup_s_raw": f"raw, median of {len(setup)} fresh processes",
        "wall_s_norm": f"median of {len(jobs)} jobs, {per_job[0]['pieces']} timed spans each",
        "op_s_norm": f"median of {len(jobs)} jobs' mean over their {w.op_noun}s",
        "wall_s_p50": f"raw, n={len(jobs)} jobs, reference kernels excluded",
        "op_s_p50": f"raw, n={n_ops} x {w.op_noun}",
        "host_speed": "median over jobs of nominal/measured reference time",
        "peak_rss_mb": "max RSS of this process",
    }
    return jobs, metrics, notes, {"jobs": per_job, "setup_runs_s": setup}


def run_traced(w, run, inp, seed: int):
    """One untraced and one traced job, then the toy probe of every workload."""
    import numpy as np
    import layers
    from spans import Tracer
    from workloads import WORKLOADS, CliRunner

    untraced, ops0 = timed(w.job, run, inp, False)
    job_tracer = Tracer()
    with job_tracer.installed(layers.TARGETS, layers.KEEP_RESULTS):
        traced, ops1 = timed(w.job, run, inp, False)
    probe_tracer = Tracer()
    probe_run = CliRunner(OUT / "probe")
    probe_run.out_dir.mkdir(parents=True, exist_ok=True)
    with probe_tracer.installed(layers.TARGETS, layers.KEEP_RESULTS):
        for v in WORKLOADS.values():
            v.job(probe_run, v.draw(np.random.default_rng(seed)), True)
        mc_probe(probe_tracer, probe_run, seed)
    job_spans, probe_spans = job_tracer.spans(), probe_tracer.spans()
    job_spans.save(OUT / f"trace_{w.name}.npz")
    probe_spans.save(OUT / f"trace_{w.name}_probe.npz")
    metrics = layers.layer_metrics(job_spans, probe_spans)
    metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "job")
    info = {
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "spans": int(job_spans.name.size),
        "absent_targets": job_tracer.absent,
        "span_table": job_spans.table(),
    }
    return [ops0, ops1], metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    configure()

    import numpy as np

    import layers
    from workloads import WORKLOADS, CliRunner

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    inp = w.draw(np.random.default_rng(args.seed))
    run = CliRunner(OUT / w.name)
    run.out_dir.mkdir(parents=True, exist_ok=True)
    machine = machine_info()
    print(f"workload {w.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"why: {w.why}")
    print(f"inputs: {json.dumps(inp)}")
    print(f"machine: {json.dumps(machine)}")

    if args.trace:
        jobs, layer_values, info = run_traced(w, run, inp, args.seed)
        units = {n: spec[0] for n, spec in layers.METRICS.items()}
        units["trace.overhead_frac"] = "ratio"
        metrics = {n: {"value": v, "unit": units[n]} for n, (v, _src) in layer_values.items()}
        print(f"untraced job {info['untraced_wall_s']:.4f} s, traced job {info['traced_wall_s']:.4f} s, "
              f"{info['spans']} spans; absent targets: {info['absent_targets'] or 'none'}")
        print(f"{'span':<40} {'calls':>9} {'total ms':>11} {'self ms':>11}")
        for name, calls, total, self_ms in info["span_table"]:
            print(f"{name:<40} {calls:>9} {total:>11.1f} {self_ms:>11.1f}")
        for n, (v, src) in layer_values.items():
            print(f"  {n:<32} {v:>16.6g} {units[n]:<12} ({src})")
    else:
        jobs, values, notes, info = run_untraced(w, run, inp, args.seconds)
        metrics = {n: {"value": values[n], "unit": END_TO_END[n]} for n in END_TO_END}
        for n, unit in (END_TO_END | PRINTED).items():
            bounded = "" if n in END_TO_END else ", printed only"
            print(f"  {n:<12} {values[n]:>12.6g} {unit:<3} ({notes[n]}{bounded})")
        if w.op_span == layers.STATS:
            print(f"  mc_samples_per_s {1e6 / values['op_s_p50']:.6g} 1/s (1M samples / op_s_p50, raw)")
        else:
            print("  solve_s_norm = op_s_norm, solve_s_p50 = op_s_p50")

    attempted, problems = tally(jobs)
    print(f"  failed_frac  {len(problems) / attempted:.6g} ({len(problems)}/{attempted} operations)")
    for p in problems[:20]:
        print(f"FAILED {p}")
    result = {"correct": not problems, "attempted": attempted, "failed": len(problems), "metrics": metrics}
    with open(OUT / f"result_{w.name}_trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": w.name, "seed": args.seed, "inputs": inp, "machine": machine,
                   "problems": problems, "info": info}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
