"""The four workloads: inputs made from a seed, the measured phase, the checks.

Each workload's input set is fixed in size and shape so that every seed
does the same amount of work; the seed draws the order of the operations
and every random stream the program is given. ``--seconds`` scales the
number of operations (sized so that a run measures about that long at the
time the benchmark was written, on a 2-core machine), so ``wall_s`` is the
time for a fixed amount of work and falls when the program gets faster.

The checks compare against computations made apart from the program (the
reference sampler in refsim.py, the exact oracle, values recomputed from
the bundled YAML) or against properties the models must have. None of them
compares against a stored copy of the program's output.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import yaml

import clock
import refsim
from clock import Stopwatch
from stats import FamilyCheck, binomial_p, fisher_p

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = SRC / "sc2combat" / "data"
OUT = ROOT / ".bench_out"
MODELS = ("APX1", "APX2", "APX3", "APX4")
PAIRINGS = ("PvT", "TvZ", "PvZ")


@dataclass
class Run:
    """What one measured phase did. Times are calibrated seconds (clock.py)."""

    clock: Stopwatch = field(default_factory=Stopwatch)
    trials: int = 0
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    # Monte Carlo trials run outside the measured phase (exact's agreement check)
    sample_trials: int = 0
    sample_s: float = 0.0
    outputs: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def op(self, label: str, fn, *args):
        """Time one operation, counting it; an exception counts as a failure."""
        self.attempted += 1
        try:
            return self.clock.time(fn, *args)
        except Exception as exc:  # noqa: BLE001 - any error is one failed operation
            self.failed += 1
            print(f"operation failed: {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    @property
    def wall_s(self) -> float:
        self.clock.flush()
        return self.clock.total_s

    @property
    def query_s(self) -> list[float]:
        self.clock.flush()
        return self.clock.queries


def peak_rss_mb(children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def subprocess_env() -> dict[str, str]:
    """The environment of the tier-1 command: ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def bundled_yaml(name: str):
    return yaml.safe_load((DATA / name).read_text(encoding="utf-8"))


def reference_win1() -> dict[tuple[int, str, str], float]:
    """(round, row type, match) -> win1, read from reference_table.yaml."""
    return {(r["round"], r["type"], r["match"]): float(r["win1"])
            for r in bundled_yaml("reference_table.yaml")}


def invariant_problems(label: str, result, counts1, counts2) -> list[str]:
    """Integer invariants every AggregateResult must satisfy."""
    w1, w2, d = result.win1_count, result.win2_count, result.draw_count
    problems = []
    if min(w1, w2, d) < 0 or w1 + w2 + d != result.trials:
        problems.append(f"{label}: {w1}+{w2}+{d} != {result.trials} trials")
    if not 0 <= result.stalemate_count <= d:
        problems.append(f"{label}: {result.stalemate_count} stalemates > {d} draws")
    for side, sums, counts, wins in (("1", result.survivors1_sum, counts1, w1),
                                     ("2", result.survivors2_sum, counts2, w2)):
        if len(sums) != len(counts) or any(s < 0 or s > wins * c for s, c in zip(sums, counts)):
            problems.append(f"{label}: survivors{side} sums {sums} exceed {wins} x {counts}")
    return problems


def add_rate_tests(family: FamilyCheck, label: str, trials: int, win1: int, draw: int,
                   ref: dict, combine: bool = False) -> None:
    """Fisher tests of win1 and draw counts against refsim's stored counts.

    With ``combine``, the win1 and the draw p-values also go into one combined
    test each; only for specs tested once, so that the p-values of a group
    are independent.
    """
    family.add(f"{label} win1", fisher_p(win1, trials, ref["win1"], ref["trials"]),
               "win1" if combine else None)
    family.add(f"{label} draw", fisher_p(draw, trials, ref["draw"], ref["trials"]),
               "draw" if combine else None)


def family_problems(family: FamilyCheck) -> list[str]:
    tests = len(family.tests())
    print(f"family-wise check: {tests} tests at alpha {family.alpha:g}", file=sys.stderr)
    return [f"{label}: p = {p:.3g} below the family-wise threshold "
            f"{family.alpha / tests:.3g}" for label, p in family.failures()]


# ---------------------------------------------------------------------------
# grid: the paper's 12 matchups x APX1..APX4, serial, in-process

GRID_TRIALS = 50  # per spec per pass; one pass of 48 specs takes about 1 s


class Grid:
    name = "grid"
    setup_code = ("import sc2combat as s; s.default_catalog(); "
                  "s.builtin_matchups(); s.reference_table()")

    def inputs(self, seed: int, seconds: int) -> list[int]:
        rng = random.Random(f"grid/{seed}")
        return [rng.getrandbits(63) for _ in range(max(1, seconds))]

    def prepare(self) -> dict:
        import sc2combat as s
        return {"catalog": s.default_catalog(), "matchups": s.builtin_matchups(),
                "reference": s.reference_table()}

    def measure(self, master_seeds: list[int], ctx: dict, tracer=None) -> Run:
        import sc2combat as s
        run = Run()
        for master_seed in master_seeds:
            results = []
            for matchup in ctx["matchups"]:
                for model in s.ModelId:
                    spec = s.ExperimentSpec(matchup, model, GRID_TRIALS, master_seed)
                    result = run.op(f"{matchup.label} {model.name}",
                                    s.run_experiment, spec, ctx["catalog"])
                    if result is not None:
                        results.append(result)
                        run.trials += result.trials
            rows = run.clock.time(s.comparison_rows, ctx["reference"], results, query=False)
            mae = run.clock.time(s.mae_by_model, ctx["reference"], results, query=False)
            run.outputs.append((results, rows, mae))
        return run

    def check(self, master_seeds: list[int], run: Run, ctx: dict) -> None:
        rates = refsim.load_rates()
        win1 = reference_win1()
        family = FamilyCheck()
        totals: dict[tuple, list] = {}
        for results, rows, mae in run.outputs:
            own_errors: dict[str, list[float]] = {m: [] for m in MODELS}
            for result, row in zip(results, rows):
                m = result.spec.matchup
                key = (m.round, m.pairing, result.spec.model.name)
                label = "round {} {} {}".format(*key)
                run.problems += invariant_problems(
                    label, result, [c for _, c in m.army1], [c for _, c in m.army2])
                if (row.round, row.match, row.model) != (m.round, m.pairing, result.spec.model):
                    run.problems.append(f"{label}: comparison row out of order")
                test = win1[(m.round, "Test", m.pairing)]
                if (row.simulated_win1 != result.reported_win1
                        or row.reference_win1 != win1[(m.round, key[2], m.pairing)]
                        or row.test_win1 != test):
                    run.problems.append(f"{label}: comparison row {row} disagrees")
                own_errors[key[2]].append(abs(result.reported_win1 - test))
                total = totals.setdefault(key, [0, 0, 0])
                total[0] += result.trials
                total[1] += result.win1_count
                total[2] += result.draw_count
            for model in mae.errors:
                own = sum(own_errors[model.name]) / len(own_errors[model.name])
                if abs(mae.errors[model] - own) > 1e-12:
                    run.problems.append(f"mae_by_model {model.name}: {mae.errors[model]} != {own}")
        if len(totals) != 48:
            run.problems.append(f"{len(totals)} grid specs ran, expected 48")
        for key, total in sorted(totals.items()):
            add_rate_tests(family, "round {} {} {}".format(*key), *total, rates[key],
                           combine=True)
        run.problems += family_problems(family)


# ---------------------------------------------------------------------------
# planner: one closed-loop client sending short mixed queries

PLANNER_QUERIES_PER_SECOND = 25
PLANNER_TINY = 4  # queries with at most this many units a side are enumerated


def _compose(rng: random.Random, names: list[str], total: int) -> tuple[tuple[str, int], ...]:
    classes = rng.randint(1, min(4, total))
    cuts = sorted(rng.sample(range(1, total), classes - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return tuple(zip(rng.sample(names, classes), sizes))


def planner_query_set(n: int) -> list[dict]:
    """The first ``n`` queries of a fixed stream; independent of --seed so
    that every seed costs the same."""
    rng = random.Random("planner-query-set")
    names = sorted(refsim.load_units())
    queries = []
    for _ in range(n):
        kind = rng.random()
        model = rng.choice(MODELS)
        if kind < 0.15:
            q = {"builtin": (rng.randint(1, 4), rng.choice(PAIRINGS)),
                 "trials": rng.choice((50, 100, 200))}
        elif kind < 0.40:
            q = {"army1": _compose(rng, names, rng.randint(2, PLANNER_TINY)),
                 "army2": _compose(rng, names, rng.randint(2, PLANNER_TINY)),
                 "trials": rng.choice((100, 200, 400))}
        else:
            q = {"army1": _compose(rng, names, rng.randint(5, 40)),
                 "army2": _compose(rng, names, rng.randint(5, 40)),
                 "trials": rng.choice((25, 50, 100, 200))}
        q["model"] = model
        queries.append(q)
    return queries


class Planner:
    name = "planner"
    setup_code = "import sc2combat as s; s.default_catalog(); s.builtin_matchups()"

    def inputs(self, seed: int, seconds: int) -> list[tuple[dict, int]]:
        queries = planner_query_set(PLANNER_QUERIES_PER_SECOND * max(1, seconds))
        rng = random.Random(f"planner/{seed}")
        rng.shuffle(queries)
        return [(q, rng.getrandbits(63)) for q in queries]

    def prepare(self) -> dict:
        import sc2combat as s
        return {"catalog": s.default_catalog()}

    def measure(self, stream: list[tuple[dict, int]], ctx: dict, tracer=None) -> Run:
        import sc2combat as s

        def query(q: dict, master_seed: int):
            if "builtin" in q:
                matchup = s.find_matchup(*q["builtin"])
            else:
                matchup = s.MatchupSpec(army1=q["army1"], army2=q["army2"])
            spec = s.ExperimentSpec(matchup, s.ModelId[q["model"]], q["trials"], master_seed)
            return s.run_experiment(spec, ctx["catalog"])

        run = Run()
        for q, master_seed in stream:
            result = run.op(str(q), query, q, master_seed)
            run.outputs.append(result)
            if result is not None:
                run.trials += result.trials
        return run

    def check(self, stream: list[tuple[dict, int]], run: Run, ctx: dict) -> None:
        import sc2combat as s
        catalog = ctx["catalog"]
        rates = refsim.load_rates()
        family = FamilyCheck()
        exact: dict[tuple, object] = {}
        for (q, master_seed), result in zip(stream, run.outputs):
            if result is None:
                continue
            label = f"{q} seed {master_seed}"
            m = result.spec.matchup
            run.problems += invariant_problems(
                label, result, [c for _, c in m.army1], [c for _, c in m.army2])
            if result.trials != q["trials"]:
                run.problems.append(f"{label}: ran {result.trials} trials")
            if "builtin" in q:
                if (m.round, m.pairing) != q["builtin"]:
                    run.problems.append(f"{label}: find_matchup returned {m.label}")
                add_rate_tests(family, label, result.trials, result.win1_count,
                               result.draw_count, rates[(*q["builtin"], q["model"])])
                continue
            if max(sum(c for _, c in q["army1"]), sum(c for _, c in q["army2"])) > PLANNER_TINY:
                continue
            key = (q["army1"], q["army2"], q["model"])
            if key not in exact:
                exact[key] = s.enumerate_compositions(
                    [(catalog[n], c) for n, c in q["army1"]],
                    [(catalog[n], c) for n, c in q["army2"]], s.ModelId[q["model"]])
            dist = exact[key]
            n = result.trials
            family.add(f"{label} win1", binomial_p(
                result.win1_count, n, float(dist.winner_probability(s.Winner.ARMY1))))
            family.add(f"{label} draw", binomial_p(
                result.draw_count, n, float(dist.winner_probability(s.Winner.DRAW))))
        if not exact:
            run.problems.append("no planner query was small enough to enumerate")
        run.problems += family_problems(family)


# ---------------------------------------------------------------------------
# exact: the enumeration oracle on mixed battles, all four models

# (army1, army2). 3+3 vs 3+3 under APX1-APX3 takes over half of a pass.
EXACT_BATTLES = (
    ((("zealot", 2), ("stalker", 2)), (("marine", 2), ("marauder", 2))),
    ((("zealot", 3), ("stalker", 1)), (("zergling", 3), ("roach", 1))),
    ((("marine", 3), ("marauder", 1)), (("zergling", 2), ("roach", 2))),
    ((("zealot", 3), ("stalker", 3)), (("marine", 3), ("marauder", 3))),
    ((("stalker", 2), ("sentry", 2)), (("hydralisk", 2), ("roach", 2))),
    ((("zealot", 4),), (("zergling", 5),)),
    ((("marine", 5),), (("hydralisk", 3),)),
    ((("zealot", 2), ("archon", 1)), (("marine", 3), ("hellion", 1))),
    ((("immortal", 1), ("zealot", 2)), (("roach", 2), ("zergling", 3))),
    ((("zealot", 3), ("sentry", 1)), (("zergling", 3), ("hydralisk", 1))),
    ((("marine", 4), ("marauder", 2)), (("zealot", 2), ("stalker", 2))),
    ((("zergling", 8),), (("zealot", 3),)),
    ((("roach", 3), ("hydralisk", 2)), (("marine", 4), ("hellion", 1))),
)
EXACT_PASS_SECONDS = 7  # passes = round(seconds / 7); a pass takes 5-7 s raw
EXACT_MAX_UNITS = 8
EXACT_MAX_STATES = 200_000
EXACT_MC_TRIALS = 500  # Monte Carlo trials per battle and model in the check


def _degeneracies(army1, army2, units: dict[str, dict]) -> list[tuple[str, str]]:
    """Model pairs whose exact distributions must be equal for this battle,
    decided from the raw unit fields."""
    stats = [units[n] for n, _ in army1 + army2]
    pairs = []
    if all(u["ranged"] for u in stats):
        pairs.append(("APX1", "APX2"))
    if all(u["bonus"] == 0 for u in stats):
        pairs.append(("APX2", "APX3"))
    if all(len({units[n]["ranged"] for n, _ in army}) == 1 for army in (army1, army2)):
        pairs.append(("APX3", "APX4"))
    return pairs


class Exact:
    name = "exact"
    setup_code = "import sc2combat as s; s.default_catalog()"

    def inputs(self, seed: int, seconds: int) -> dict:
        # Enumeration is deterministic, so the seed only draws the Monte Carlo
        # streams of the check; a fixed order keeps the allocation pattern,
        # and so peak_rss_mb, the same on every seed.
        passes = max(1, round(seconds / EXACT_PASS_SECONDS))
        tasks = [(b, model) for b in range(len(EXACT_BATTLES)) for model in MODELS] * passes
        rng = random.Random(f"exact/{seed}")
        mc_seeds = {(b, model): rng.getrandbits(63)
                    for b in range(len(EXACT_BATTLES)) for model in MODELS}
        return {"tasks": tasks, "mc_seeds": mc_seeds}

    def prepare(self) -> dict:
        import sc2combat as s
        return {"catalog": s.default_catalog()}

    def measure(self, inputs: dict, ctx: dict, tracer=None) -> Run:
        import sc2combat as s
        catalog = ctx["catalog"]
        limits = s.EnumerationLimits(max_units_per_side=EXACT_MAX_UNITS,
                                     max_states=EXACT_MAX_STATES)
        run = Run()
        for b, model in inputs["tasks"]:
            army1, army2 = EXACT_BATTLES[b]
            dist = run.op(f"{army1} vs {army2} {model}", s.enumerate_compositions,
                          [(catalog[n], c) for n, c in army1],
                          [(catalog[n], c) for n, c in army2], s.ModelId[model], limits)
            run.outputs.append(((b, model), dist))
        return run

    def check(self, inputs: dict, run: Run, ctx: dict) -> None:
        units = refsim.load_units()
        first: dict[tuple, object] = {}
        for key, dist in run.outputs:
            if dist is None:
                continue
            label = "{} vs {} {}".format(*EXACT_BATTLES[key[0]], key[1])
            if key not in first:
                first[key] = dist
                run.problems += self._distribution_problems(label, key, dist)
            elif dist.outcomes != first[key].outcomes:
                run.problems.append(f"{label}: enumeration is not repeatable")
        for b, (army1, army2) in enumerate(EXACT_BATTLES):
            for m1, m2 in _degeneracies(army1, army2, units):
                d1, d2 = first.get((b, m1)), first.get((b, m2))
                if d1 is not None and d2 is not None and d1.outcomes != d2.outcomes:
                    run.problems.append(f"{army1} vs {army2}: {m1} != {m2}")
        run.problems += self._closed_form_problems()
        self._monte_carlo_agreement(inputs, run, ctx, first)

    @staticmethod
    def _distribution_problems(label: str, key: tuple, dist) -> list[str]:
        import sc2combat as s
        army1, army2 = EXACT_BATTLES[key[0]]
        n1, n2 = [c for _, c in army1], [c for _, c in army2]
        problems = []
        if sum(dist.outcomes.values(), Fraction(0)) != 1:
            problems.append(f"{label}: probabilities do not sum to exactly 1")
        for (winner, s1, s2), p in dist.outcomes.items():
            alive1, alive2 = any(s1), any(s2)
            expected = (s.Winner.ARMY1 if alive1 else s.Winner.ARMY2 if alive2
                        else s.Winner.DRAW)
            if (p <= 0 or winner is not expected or (alive1 and alive2)
                    or any(a > b for a, b in zip(s1 + s2, n1 + n2))):
                problems.append(f"{label}: impossible outcome {winner} {s1} {s2} p={p}")
        return problems

    @staticmethod
    def _closed_form_problems() -> list[str]:
        """1v1 battles of made-up ranged units whose answer is derived by hand."""
        import sc2combat as s

        def unit(name: str, health: int, dps: float):
            return s.UnitClass(name=name, race=s.Race.TERRAN, base_health=health,
                               shields=0, armor=0, base_dps=dps, ranged=True)

        draw = (s.Winner.DRAW, (0,), (0,))
        # Each pool covers the other unit's health: both die in round 1.
        overkill = {draw: Fraction(1)}
        # Army1 kills with a = 25/100 = 1/4 a round, army2 with b = 10/50 = 1/5,
        # independently, until one lands: P(win1) = a(1-b) / (1 - (1-a)(1-b)) = 1/2,
        # P(draw) = ab / (...) = 1/8, P(win2) = (1-a)b / (...) = 3/8.
        geometric = {(s.Winner.ARMY1, (1,), (0,)): Fraction(1, 2), draw: Fraction(1, 8),
                     (s.Winner.ARMY2, (0,), (1,)): Fraction(3, 8)}
        cases = (("mutual overkill", unit("a", 50, 60.0), unit("b", 40, 55.0), overkill),
                 ("geometric series", unit("a", 50, 25.0), unit("b", 100, 10.0), geometric))
        problems = []
        for label, a, b, expected in cases:
            for model in s.ModelId:
                got = s.enumerate_compositions([(a, 1)], [(b, 1)], model).outcomes
                if got != expected:
                    problems.append(f"{label} {model.name}: {got} != {expected}")
        return problems

    @staticmethod
    def _monte_carlo_agreement(inputs: dict, run: Run, ctx: dict, first: dict) -> None:
        import sc2combat as s
        family = FamilyCheck()
        timer = Stopwatch()
        for (b, model), dist in sorted(first.items()):
            army1, army2 = EXACT_BATTLES[b]
            spec = s.ExperimentSpec(s.MatchupSpec(army1=army1, army2=army2), s.ModelId[model],
                                    EXACT_MC_TRIALS, inputs["mc_seeds"][(b, model)])
            counts = timer.time(s.sample_outcomes, spec, ctx["catalog"])
            run.sample_trials += EXACT_MC_TRIALS
            label = f"{army1} vs {army2} {model}"
            for outcome in set(counts) | set(dist.outcomes):
                p = float(dist.outcomes.get(outcome, 0))
                family.add(f"{label} {outcome}",
                           binomial_p(counts.get(outcome, 0), EXACT_MC_TRIALS, p))
        timer.flush()
        run.sample_s = timer.total_s
        run.problems += family_problems(family)


# ---------------------------------------------------------------------------
# cli: the real commands as subprocesses

CLI_REPRODUCE_TRIALS = 40
CLI_COMPARE_TRIALS = 100
CLI_RUN_TRIALS = 300
CLI_SECONDS_PER_ROUND = 5.5
# Fails today: --trials 0 ends in a ValueError traceback with exit code 1.
# It counts as done once it exits 2 with a one-line "error:" message.
CLI_BAD_TRIALS = "reproduce-trials-0"
SCENARIO = {"army1": {"zealot": 6, "stalker": 3}, "army2": {"marine": 10, "marauder": 3},
            "model": "apx3", "trials": CLI_RUN_TRIALS}


def cli_commands(cli_seed: int, scenario: Path) -> list[tuple[str, list[str]]]:
    seed = ["--seed", str(cli_seed)]
    return [
        ("reproduce", ["reproduce", "--trials", str(CLI_REPRODUCE_TRIALS), "--jobs", "2", *seed]),
        ("compare", ["compare", "--trials", str(CLI_COMPARE_TRIALS), *seed]),
        ("mae", ["mae"]),
        ("list-units", ["list-units", "--format", "csv"]),
        ("list-matchups", ["list-matchups"]),
        ("run", ["run", "--scenario", str(scenario), "--format", "json", *seed]),
        (CLI_BAD_TRIALS, ["reproduce", "--trials", "0"]),
    ]


def run_cli(args: list[str], trace: bool = False) -> tuple[subprocess.CompletedProcess,
                                                          dict | None]:
    """One command through cli_child.py: the process and the child's report,
    None if the child ended before writing it."""
    OUT.mkdir(exist_ok=True)
    report = OUT / "cli_child.json"
    report.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(report), str(int(trace)), *args]
    proc = subprocess.run(argv, cwd=ROOT, env=subprocess_env(), capture_output=True,
                          text=True, timeout=150)
    return proc, json.loads(report.read_text(encoding="utf-8")) if report.exists() else None


def _table_rows(text: str) -> list[list[str]]:
    """Data rows of a fixed-width table whose cells hold no spaces."""
    return [line.split() for line in text.splitlines()[2:] if line.strip()]


class Cli:
    name = "cli"
    setup_code = ("import sc2combat.cli as c; c.default_catalog(); "
                  "c.builtin_matchups(); c.reference_table()")

    def inputs(self, seed: int, seconds: int) -> dict:
        rounds = max(1, round(seconds / CLI_SECONDS_PER_ROUND))
        return {"cli_seed": random.Random(f"cli/{seed}").getrandbits(31), "rounds": rounds}

    def prepare(self) -> dict:
        OUT.mkdir(exist_ok=True)
        scenario = OUT / "scenario.yaml"
        scenario.write_text(yaml.safe_dump(SCENARIO), encoding="utf-8")
        return {"scenario": scenario}

    def measure(self, inputs: dict, ctx: dict, tracer=None) -> Run:
        run = Run()
        commands = cli_commands(inputs["cli_seed"], ctx["scenario"])
        for _ in range(inputs["rounds"]):
            outputs = {}
            for name, args in commands:
                outputs[name] = proc = self._command(run, name, args, tracer)
                if proc is not None and not self._succeeded(name, proc):
                    run.failed += 1
            run.outputs.append(outputs)
        run.trials = inputs["rounds"] * (48 * (CLI_REPRODUCE_TRIALS + CLI_COMPARE_TRIALS)
                                         + CLI_RUN_TRIALS)
        return run

    @staticmethod
    def _command(run: Run, name: str, args: list[str], tracer):
        """Run one command, timed by the parent and calibrated by the child."""
        run.attempted += 1
        start = time.perf_counter()
        try:
            proc, report = run_cli(args, trace=tracer is not None)
        except subprocess.SubprocessError as exc:
            proc, report = None, None
            print(f"operation failed: {name}: {exc}", file=sys.stderr)
        if report is None:
            run.failed += 1
            if proc is not None:
                print(f"operation failed: {name}: {proc.stderr[-300:]}", file=sys.stderr)
            return None
        raw_s = time.perf_counter() - start - report["calibration_s"]
        run.clock.add_scaled(raw_s, clock.scale(*report["reference_s"]))
        if tracer is not None:
            tracer.merge(report["trace"])
        return proc

    @staticmethod
    def _succeeded(name: str, proc: subprocess.CompletedProcess) -> bool:
        if name == CLI_BAD_TRIALS:
            lines = proc.stderr.strip().splitlines()
            return proc.returncode == 2 and len(lines) == 1 and lines[0].startswith("error:")
        return proc.returncode == 0

    def check(self, inputs: dict, run: Run, ctx: dict) -> None:
        first = run.outputs[0]
        for name, proc in first.items():
            if name != CLI_BAD_TRIALS and proc is not None and proc.returncode != 0:
                run.problems.append(f"{name}: exit {proc.returncode}: {proc.stderr[-300:]}")
        for outputs in run.outputs[1:]:
            for name, proc in outputs.items():
                if (name != CLI_BAD_TRIALS and None not in (proc, first[name])
                        and proc.stdout != first[name].stdout):
                    run.problems.append(f"{name}: output differs between rounds")
        serial, _ = run_cli(["reproduce", "--trials", str(CLI_REPRODUCE_TRIALS), "--jobs", "1",
                             "--seed", str(inputs["cli_seed"])])
        if first["reproduce"] is not None and (
                serial.returncode != 0 or serial.stdout != first["reproduce"].stdout):
            run.problems.append("reproduce --jobs 2 output differs from --jobs 1")
        check_outputs = (self._check_reproduce, self._check_compare, self._check_mae,
                         self._check_list_units, self._check_list_matchups, self._check_run)
        for fn in check_outputs:
            name = fn.__name__[len("_check_"):].replace("_", "-")
            if first[name] is None or first[name].returncode != 0:
                continue
            try:
                run.problems += fn(first[name].stdout)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                run.problems.append(f"{name}: unreadable output ({exc})")

    @staticmethod
    def _check_reproduce(text: str) -> list[str]:
        rows = _table_rows(text)
        problems = [] if len(rows) == 48 else [f"reproduce printed {len(rows)} rows, not 48"]
        for row in rows:
            if len(row) != 13 or abs(float(row[11]) + float(row[12]) - 1) > 0.01 + 1e-9:
                problems.append(f"reproduce row {row}: win columns do not sum to 1")
        return problems

    @staticmethod
    def _check_compare(text: str) -> list[str]:
        win1 = reference_win1()
        rows = _table_rows(text)
        problems = [] if len(rows) == 48 else [f"compare printed {len(rows)} rows, not 48"]
        for rnd, match, model, sim, ref, test, d_test, d_ref in rows:
            key = (int(rnd), model, match)
            if (abs(float(ref) - win1[key]) > 0.005 + 1e-9
                    or abs(float(test) - win1[(int(rnd), "Test", match)]) > 0.005 + 1e-9
                    or abs(float(d_test) - abs(float(sim) - float(test))) > 0.011
                    or abs(float(d_ref) - abs(float(sim) - float(ref))) > 0.011):
                problems.append(f"compare row {key} disagrees with reference_table.yaml")
        return problems

    @staticmethod
    def _check_mae(text: str) -> list[str]:
        win1 = reference_win1()
        tests = [(rnd, match) for rnd, kind, match in win1 if kind == "Test"]
        expected = {m: sum(abs(win1[(r, m, x)] - win1[(r, "Test", x)]) for r, x in tests)
                    / len(tests) for m in MODELS}
        printed = {row[0]: float(row[1]) for row in _table_rows(text)}
        problems = []
        if set(printed) != set(MODELS):
            problems.append(f"mae printed models {sorted(printed)}")
        for model in MODELS:
            if abs(printed.get(model, -1) - expected[model]) > 5e-5 + 1e-9:
                problems.append(f"mae {model}: printed {printed.get(model)}, "
                                f"recomputed {expected[model]:.4f}")
        if not expected["APX3"] < expected["APX4"]:
            problems.append("reference data no longer has APX3 MAE < APX4 MAE")
        return problems

    @staticmethod
    def _check_list_units(text: str) -> list[str]:
        lines = text.splitlines()
        header = lines[0].split(",")
        rows = {r[0]: dict(zip(header, r)) for r in (line.split(",") for line in lines[1:])}
        problems = []
        records = bundled_yaml("units.yaml")
        if set(rows) != {u["name"] for u in records}:
            problems.append(f"list-units names {sorted(rows)}")
        for u in records:
            row = rows.get(u["name"])
            if row is None:
                continue
            expected = {
                "eff_health": (u["health"] + u["shields"]) * 1.5 ** u["armor"],
                "eff_dps": u["dps"] * u["aoe_area"],
                "eff_bonus_dps": u["bonus_dps"] * u["bonus_aoe_area"],
            }
            for column, value in expected.items():
                if abs(float(row[column]) - value) > 0.005 + 1e-9:
                    problems.append(f"list-units {u['name']} {column}: {row[column]} "
                                    f"!= {value:.2f}")
        return problems

    @staticmethod
    def _check_list_matchups(text: str) -> list[str]:
        doc = bundled_yaml("matchups.yaml")
        lines = [line for line in text.splitlines()[2:] if line.strip()]
        problems = [] if len(lines) == len(doc) == 12 else [
            f"list-matchups printed {len(lines)} rows for {len(doc)} matchups"]
        for line, m in zip(lines, doc):
            army = " + ".join(f"{c} {n}" for n, c in m["army1"].items())
            if not line.split()[:2] == [str(m["round"]), m["match"]] or army not in line:
                problems.append(f"list-matchups row {line!r} does not match {m}")
        return problems

    @staticmethod
    def _check_run(text: str) -> list[str]:
        (record,) = json.loads(text)
        total = record["win1"] + record["win2"] + record["draw"]
        problems = []
        if record["trials"] != CLI_RUN_TRIALS or record["model"] != "APX3":
            problems.append(f"run ignored the scenario file: {record}")
        if abs(total - 1) > 0.015 + 1e-9:
            problems.append(f"run win1 + win2 + draw = {total}")
        return problems


WORKLOADS = {w.name: w for w in (Grid(), Planner(), Exact(), Cli())}
