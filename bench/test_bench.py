"""Tests of the benchmark itself: its statistics, its checks and its tracer.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import sc2combat as s  # noqa: E402
import sc2combat.engine  # noqa: E402
import sc2combat.montecarlo  # noqa: E402

import refsim  # noqa: E402
import tracing  # noqa: E402
from stats import binomial_p, combined_p, fisher_p  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RATES = refsim.load_rates()
CATALOG = s.default_catalog()
MATCHUPS = {(m.round, m.pairing): m for m in s.builtin_matchups()}
RUN_SECONDS = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]


def grid_problems(seed: int) -> list[str]:
    """The grid workload's own check on a run of the benchmark's own length."""
    grid = WORKLOADS["grid"]
    inputs, ctx = grid.inputs(seed, RUN_SECONDS), grid.prepare()
    run = grid.measure(inputs, ctx)
    grid.check(inputs, run, ctx)
    return run.problems


def test_exact_tests_match_hand_values():
    assert binomial_p(5, 10, 0.5) == pytest.approx(1.0)
    # P(X <= 1) for Binomial(10, 1/2) is 11/1024; two-sided doubles it.
    assert binomial_p(1, 10, 0.5) == pytest.approx(22 / 1024)
    assert binomial_p(0, 10, 0.0) == 1.0 and binomial_p(1, 10, 0.0) == 0.0
    # Fisher: 3 of 3 vs 0 of 3 has one-sided hypergeometric tail 1/20.
    assert fisher_p(3, 3, 0, 3) == pytest.approx(2 / 20)
    assert fisher_p(10, 100, 100, 1000) == pytest.approx(1.0)
    # Fisher's method: one p-value is its own combination; for two, the
    # chi-squared(4) tail at x = -2 ln(p1 p2) is q (1 - ln q) with q = p1 p2.
    assert combined_p([0.3]) == pytest.approx(0.3)
    q = 0.1 * 0.2
    assert combined_p([0.1, 0.2]) == pytest.approx(q * (1 - math.log(q)))
    assert combined_p([1.0, 1.0]) == 1.0 and combined_p([0.5, 0.0]) == 0.0


def test_grid_check_accepts_the_engine_on_fresh_seeds():
    for seed in (90001, 90002):
        assert grid_problems(seed) == []


def test_grid_check_rejects_a_small_shift_on_mid_range_specs(monkeypatch):
    """Moves win1 up by 6 points on the 14 specs whose reference win1 lies
    between 0.2 and 0.8, and leaves the other 34 alone. No single spec's
    test catches that reliably at this run length; the combined test does."""
    shift = 0.06
    mid = {}
    for (rnd, match, model), ref in RATES.items():
        win1 = ref["win1"] / ref["trials"]
        if 0.2 < win1 < 0.8:
            m = MATCHUPS[(rnd, match)]
            counts = (tuple(c for _, c in m.army1), tuple(c for _, c in m.army2))
            mid[(counts, model)] = shift / (1 - win1)
    assert len(mid) == 14
    original = sc2combat.montecarlo.run_trial

    def shifted(army1, army2, model, rng):
        flip = mid.get(((army1.initial_counts, army2.initial_counts), model.name))
        outcome = original(army1, army2, model, rng)
        if flip and outcome.winner is not s.Winner.ARMY1 and rng.random() < flip:
            return s.TrialOutcome(s.Winner.ARMY1, army1.survivors(),
                                  (0,) * len(army2.counts), outcome.rounds)
        return outcome

    monkeypatch.setattr(sc2combat.montecarlo, "run_trial", shifted)
    problems = grid_problems(90003)
    assert any(p.startswith("win1 combined") for p in problems)


def test_grid_check_rejects_apx3_without_bonus_share_scaling(monkeypatch):
    def unscaled(attacker, defender, ranged_only):
        total = 0.0
        for i, count in enumerate(attacker.counts):
            if count == 0 or (ranged_only and not attacker.ranged[i]):
                continue
            tags = attacker.classes[i].bonus_vs
            if any(c and not tags.isdisjoint(defender.classes[j].attributes)
                   for j, c in enumerate(defender.counts)):
                total += count * attacker.eff_bonus_dps[i]
        return total

    monkeypatch.setattr(sc2combat.engine, "bonus_pool", unscaled)
    assert grid_problems(90004) != []


def test_tracer_survives_missing_functions(monkeypatch):
    targets = [t for t in tracing.TARGETS if t[1] != "compute_pool"] + [
        ("sc2combat.engine", "compute_pool_removed", "engine.compute_pool"),
        ("sc2combat.engine", "ArmyState.removed", "engine.fresh"),
        ("sc2combat.no_such_module", "anything", "nothing"),
    ]
    monkeypatch.setattr(tracing, "TARGETS", tuple(targets))
    tracer = tracing.Tracer().install()
    try:
        spec = s.ExperimentSpec(MATCHUPS[(1, "PvT")], s.ModelId.APX4, 20, 3)
        result = s.run_experiment(spec, CATALOG)
    finally:
        tracer.uninstall()
    assert result.trials == 20
    assert "sc2combat.engine.compute_pool_removed" in tracer.missing
    assert "sc2combat.no_such_module.anything" in tracer.missing
    metrics = tracing.layer_metrics(tracer)
    assert "engine.compute_pool_calls" not in metrics
    assert metrics["engine.trials"] == (20, "count")
    assert metrics["engine.apply_pool_calls"][0] > 0
    assert s.run_experiment is not None and not hasattr(s.run_experiment, "__wrapped_original__")


def test_trace_counts_repeat_exactly():
    workload = WORKLOADS["planner"]
    inputs = workload.inputs(5, 1)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer().install()
        try:
            workload.measure(inputs, workload.prepare(), tracer)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["engine.trials"] > 0 and counts[0]["scenarios.bundled_loads"] > 0


def test_reference_sampler_is_seeded_by_stream_name():
    m = refsim.load_matchups()[0]
    a = refsim.sample_counts(m["army1"], m["army2"], 4, 50, "x")
    b = refsim.sample_counts(m["army1"], m["army2"], 4, 50, "x")
    assert a == b and sum(a.values()) == 50
