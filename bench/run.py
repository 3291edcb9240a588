"""sc2combat benchmark: one workload per run, one JSON result line at the end.

    python3 bench/run.py --workload {grid,planner,exact,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src`` (not installed). With ``--trace 0`` the result holds the end-to-end
metrics. With ``--trace 1`` the workload runs twice with the same inputs,
untraced and then traced, and the result holds the per-layer metrics and
the tracing overhead. The last line of stdout is always the JSON result;
problems found by the correctness checks go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import clock
from stats import percentile
from workloads import BENCH_DIR, OUT, SRC, WORKLOADS, peak_rss_mb, subprocess_env

SETUP_REPEATS = 9


def fresh_interpreters_s(code: str) -> float:
    """Calibrated seconds for a new interpreter that runs ``code`` and exits:
    the median of SETUP_REPEATS interpreters.

    Each child times clock.py's reference job right before and right after
    ``code``, so that its time is calibrated by the core it ran on; the
    time spent on that is subtracted. clock.py imports nothing, so whatever
    ``code`` imports is loaded on its time.
    """
    wrapped = ("import time\n_t = time.perf_counter()\nimport clock\n"
               "_before = clock.reference_s()\n_spent = time.perf_counter() - _t\n"
               f"{code}\n"
               "_t = time.perf_counter()\n_after = clock.reference_s()\n"
               "print(_before, _after, _spent + time.perf_counter() - _t)")
    env = subprocess_env()
    env["PYTHONPATH"] = os.pathsep.join((str(BENCH_DIR), env["PYTHONPATH"]))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", wrapped], env=env, check=True,
                              capture_output=True, text=True)
        raw_s = time.perf_counter() - start
        before, after, spent = map(float, proc.stdout.split())
        times.append((raw_s - spent) * clock.scale(before, after))
    return statistics.median(times)


def end_to_end(workload, seed: int, seconds: int) -> tuple[dict, object]:
    setup = fresh_interpreters_s(workload.setup_code)
    inputs = workload.inputs(seed, seconds)
    ctx = workload.prepare()
    run = workload.measure(inputs, ctx)
    run.peak_rss_mb = peak_rss_mb(children=workload.name == "cli")
    workload.check(inputs, run, ctx)
    trials, trial_s = (run.trials, run.wall_s) if run.trials else (run.sample_trials,
                                                                    run.sample_s)
    query_ms = [q * 1e3 for q in run.query_s]
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (run.wall_s, "s"),
        "trials_per_s": (trials / trial_s, "trials/s"),
        "query_ms_p50": (statistics.median(query_ms), "ms"),
        "query_ms_p90": (percentile(query_ms, 90), "ms"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }
    raw_ms = [q * 1e3 for q in run.clock.raw_queries]
    print(f"{workload.name}: {len(query_ms)} queries, {trials} trials; uncalibrated: "
          f"wall_s {run.clock.raw_s:.4f} query_ms_p50 {statistics.median(raw_ms):.4f} "
          f"query_ms_p90 {percentile(raw_ms, 90):.4f}", file=sys.stderr)
    return metrics, run


def import_ms() -> float:
    """Import of sc2combat.cli minus a bare interpreter start, in calibrated ms."""
    return (fresh_interpreters_s("import sc2combat.cli") - fresh_interpreters_s("pass")) * 1e3


def per_layer(workload, seed: int, seconds: int) -> tuple[dict, object]:
    from tracing import Tracer, layer_metrics

    inputs = workload.inputs(seed, seconds)
    untraced = workload.measure(inputs, workload.prepare())
    import sc2combat.cli  # noqa: F401 - the tracer patches loaded modules
    tracer = Tracer().install()
    try:
        ctx = workload.prepare()
        run = workload.measure(inputs, ctx, tracer)
    finally:
        tracer.uninstall()
    workload.check(inputs, run, ctx)
    # Span times are raw; scale them by the traced run's own calibration.
    metrics = layer_metrics(tracer, run.clock.total_s / run.clock.raw_s)
    cli = workload.name == "cli"
    metrics["cli.import_ms"] = (import_ms() if cli else 0.0, "ms")
    metrics["cli.process_ms"] = (statistics.fmean(run.query_s) * 1e3 if cli else 0.0, "ms")
    metrics["trace.overhead_s"] = (run.wall_s - untraced.wall_s, "s")
    metrics["trace.overhead_pct"] = ((run.wall_s / untraced.wall_s - 1) * 100, "%")
    if tracer.missing:
        print("traced functions missing: " + ", ".join(tracer.missing), file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace_{workload.name}.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return metrics, run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "sc2combat" / "__init__.py").is_file():
        print(f"error: no sc2combat sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    metrics, run = measure(workload, args.seed, args.seconds)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
