"""Span tracing around sc2combat's public functions, installed from outside.

``Tracer.install`` replaces each named function with a wrapper in every
loaded ``sc2combat`` module that refers to it, so calls made inside the
package (``montecarlo`` calling ``engine.run_trial``) are traced as well as
calls from the benchmark. A name the package no longer defines is recorded
as missing and its metrics are left out; nothing fails.

Spans are aggregated as they close, keyed by (parent span name, span name),
with call count, inclusive time and self time (inclusive time minus the time
covered by child spans). Holding every span would take hundreds of MB on
the grid workload, where the engine opens about seventy spans per trial.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable

ROOT = "<root>"

# (module, attribute, span name). Attributes may be "Class.method".
TARGETS = (
    ("sc2combat.units", "default_catalog", "units.catalog"),
    ("sc2combat.units", "load_catalog", "units.catalog"),
    ("sc2combat.units", "loads_catalog", "units.catalog"),
    ("sc2combat.scenarios", "builtin_matchups", "scenarios.bundled"),
    ("sc2combat.scenarios", "reference_table", "scenarios.bundled"),
    ("sc2combat.scenarios", "find_matchup", "scenarios.lookup"),
    ("sc2combat.scenarios", "find_reference_row", "scenarios.lookup"),
    ("sc2combat.scenarios", "build_armies", "scenarios.build_armies"),
    ("sc2combat.engine", "run_trial", "engine.run_trial"),
    ("sc2combat.engine", "compute_pool", "engine.compute_pool"),
    ("sc2combat.engine", "apply_pool", "engine.apply_pool"),
    ("sc2combat.montecarlo", "trial_rng", "montecarlo.trial_rng"),
    ("sc2combat.montecarlo", "run_experiment", "montecarlo.run_experiment"),
    ("sc2combat.oracle", "enumerate_compositions", "oracle.enumerate"),
    ("sc2combat.oracle", "enumerate_exact", "oracle.enumerate"),
    ("sc2combat.report", "comparison_rows", "report"),
    ("sc2combat.report", "mae_by_model", "report"),
    ("sc2combat.report", "ascii_bar_chart", "report"),
    ("sc2combat.report", "render", "report"),
    ("sc2combat.cli", "run_command", "cli.command"),
)


def _experiment_span(args: tuple, kwargs: dict) -> str:
    """run_experiment(spec, catalog, n_jobs) hands trials to worker processes
    when n_jobs > 1 and there is more than one trial."""
    n_jobs = kwargs.get("n_jobs", args[2] if len(args) > 2 else 1)
    if n_jobs > 1 and args[0].trials > 1:
        return "montecarlo.run_experiment.pooled"
    return "montecarlo.run_experiment.serial"


class Tracer:
    def __init__(self) -> None:
        # (parent, name) -> [calls, inclusive seconds, self seconds]
        self.spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.installed: set[str] = set()  # span names with at least one function wrapped
        self._stack: list[list] = []  # [name, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        relabel = _experiment_span if name == "montecarlo.run_experiment" else None
        on_return = getattr(self, "_after_" + name.replace(".", "_"), None)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = relabel(args, kwargs) if relabel else name
            frame = [label, 0.0]
            parent = stack[-1][0] if stack else ROOT
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(spans, stack, parent, frame, clock() - start)
                self._raised(label, exc)
                raise
            self._close(spans, stack, parent, frame, clock() - start)
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    @staticmethod
    def _close(spans, stack, parent, frame, elapsed) -> None:
        stack.pop()
        entry = spans[(parent, frame[0])]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - frame[1]
        if stack:
            stack[-1][1] += elapsed

    def _raised(self, name: str, exc: BaseException) -> None:
        if name == "engine.run_trial" and type(exc).__name__ == "StalemateError":
            self.counters["engine.stalemates"] += 1
            self.counters["engine.rounds"] += sys.modules["sc2combat.engine"].ROUND_CAP

    def _after_engine_run_trial(self, outcome) -> None:
        self.counters["engine.rounds"] += outcome.rounds

    def _after_oracle_enumerate(self, dist) -> None:
        self.counters["oracle.outcomes"] += len(dist.outcomes)

    def install(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sc2combat" or n.startswith("sc2combat."))]
        for module_name, attr, name in TARGETS:
            owner = sys.modules.get(module_name)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name)
            self.installed.add(name)
            if len(path) > 1:
                self._patch(owner, path[-1], wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def _patch(self, owner: object, key: str, value: object) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- aggregation --------------------------------------------------------

    def dump(self) -> dict:
        """JSON-ready copy of the aggregates, mergeable with ``merge``."""
        return {"spans": [[p, n, *v] for (p, n), v in self.spans.items()],
                "counters": dict(self.counters), "missing": list(self.missing)}

    def merge(self, doc: dict) -> None:
        for parent, name, calls, incl, own in doc["spans"]:
            entry = self.spans[(parent, name)]
            entry[0] += calls
            entry[1] += incl
            entry[2] += own
        for key, value in doc["counters"].items():
            self.counters[key] += value
        for name in doc["missing"]:
            if name not in self.missing:
                self.missing.append(name)

    def calls(self, name: str, outermost: bool = False) -> int:
        return sum(v[0] for (p, n), v in self.spans.items()
                   if n == name and not (outermost and p == name))

    def inclusive(self, name: str, outermost: bool = False, parent: str | None = None) -> float:
        """Seconds inside spans called ``name``; ``outermost`` skips spans
        nested directly in a span of the same name."""
        return sum(v[1] for (p, n), v in self.spans.items()
                   if n == name and (parent is None or p == parent)
                   and not (outermost and p == name))

    def self_time(self, name: str) -> float:
        return sum(v[2] for (p, n), v in self.spans.items() if n == name)



def layer_metrics(t: Tracer, time_scale: float = 1.0) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a tracer's aggregates: name -> (value, unit).

    A metric whose spans could not be installed (the function is gone) is
    left out. Span times are raw; ``time_scale`` converts them (to the
    calibrated seconds of clock.py). What each time is a total or a mean of
    is listed in the README.
    """
    pooled, serial = "montecarlo.run_experiment.pooled", "montecarlo.run_experiment.serial"
    trials = t.calls("engine.run_trial")
    rounds = t.counters["engine.rounds"]
    serial_calls = t.calls(serial)
    rng_calls = t.calls("montecarlo.trial_rng")
    pooled_calls = t.calls(pooled)
    commands = t.calls("cli.command")
    table = (
        ("units.catalog", "units.catalog_ms", t.inclusive("units.catalog", True) * 1e3, "ms"),
        ("units.catalog", "units.catalog_loads", t.calls("units.catalog", True), "count"),
        ("scenarios.bundled", "scenarios.bundled_loads",
         t.calls("scenarios.bundled", True), "count"),
        ("scenarios.lookup", "scenarios.lookup_ms",
         t.inclusive("scenarios.lookup", True) * 1e3, "ms"),
        ("scenarios.build_armies", "scenarios.build_armies_ms",
         t.inclusive("scenarios.build_armies") * 1e3, "ms"),
        ("engine.run_trial", "engine.trials", trials, "count"),
        ("engine.run_trial", "engine.rounds", rounds, "count"),
        ("engine.run_trial", "engine.rounds_per_trial", rounds / trials if trials else 0.0,
         "rounds"),
        ("engine.run_trial", "engine.stalemates", t.counters["engine.stalemates"], "count"),
        ("engine.run_trial", "engine.run_trial_us",
         t.self_time("engine.run_trial") / trials * 1e6 if trials else 0.0, "us"),
        ("engine.compute_pool", "engine.compute_pool_calls",
         t.calls("engine.compute_pool"), "count"),
        ("engine.compute_pool", "engine.compute_pool_ms",
         t.inclusive("engine.compute_pool") * 1e3, "ms"),
        ("engine.apply_pool", "engine.apply_pool_calls", t.calls("engine.apply_pool"), "count"),
        ("engine.apply_pool", "engine.apply_pool_ms",
         t.inclusive("engine.apply_pool") * 1e3, "ms"),
        ("montecarlo.trial_rng", "montecarlo.trial_rng_us",
         t.inclusive("montecarlo.trial_rng") / rng_calls * 1e6 if rng_calls else 0.0, "us"),
        ("montecarlo.run_experiment", "montecarlo.experiments",
         serial_calls + pooled_calls, "count"),
        ("montecarlo.run_experiment", "montecarlo.experiment_overhead_ms",
         (t.inclusive(serial) - t.inclusive("engine.run_trial", parent=serial)
          - t.inclusive("montecarlo.trial_rng", parent=serial)) / serial_calls * 1e3
         if serial_calls else 0.0, "ms"),
        ("montecarlo.run_experiment", "montecarlo.run_experiment_ms",
         t.inclusive(pooled) / pooled_calls * 1e3 if pooled_calls else 0.0, "ms"),
        ("oracle.enumerate", "oracle.enumerations", t.calls("oracle.enumerate", True), "count"),
        ("oracle.enumerate", "oracle.enumerate_ms",
         t.inclusive("oracle.enumerate", True) * 1e3, "ms"),
        ("oracle.enumerate", "oracle.outcomes", t.counters["oracle.outcomes"], "count"),
        ("report", "report.ms", t.inclusive("report", True) * 1e3, "ms"),
        ("cli.command", "cli.command_ms",
         t.inclusive("cli.command") / commands * 1e3 if commands else 0.0, "ms"),
    )
    return {name: (value * time_scale if unit in ("ms", "us") else value, unit)
            for span, name, value, unit in table if span in t.installed}
