"""Acceptance suite: tests named by criterion, each printing one ACCEPTANCE line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import re
from pathlib import Path

import pytest

import sc2combat.engine
from sc2combat import (
    ExperimentSpec,
    MatchupSpec,
    ModelId,
    UnitCatalog,
    builtin_matchups,
    enumerate_compositions,
    find_matchup,
    mae_by_model,
    reference_table,
    run_experiment,
    run_experiments,
    sample_outcomes,
)
from sc2combat.units import default_catalog, effective_bonus_dps, effective_dps, effective_health

from conftest import make_unit
from family_check import binomial_p, bonferroni_failures
from invariant_props import PROPERTIES

DOCS = Path(__file__).resolve().parents[1] / "docs" / "reproduction.md"

ORACLE_TRIALS = 10_000
ORACLE_ALPHA = 1e-3  # chance that a correct sampler fails criterion 1


def _tiny_unit(rng, name):
    """Small integer-statted unit with randomly mixed melee/ranged/bonus traits."""
    bonus_tag = rng.choice((None, None, "light", "armored"))
    attrs = set()
    if rng.random() < 0.8:
        attrs.add(rng.choice(("light", "armored")))
    if rng.random() < 0.3:
        attrs.add("biological")
    return make_unit(
        name=name,
        health=rng.choice((6, 9, 12, 16, 20)),
        shields=rng.choice((0, 0, 4)),
        armor=rng.choice((0, 0, 1)),
        dps=float(rng.choice((3, 4, 6, 8, 11))),
        ranged=rng.random() < 0.5,
        aoe=float(rng.choice((1, 1, 2))),
        attrs=attrs,
        bonus=float(rng.choice((2, 3, 5))) if bonus_tag else 0.0,
        bonus_vs=(bonus_tag,) if bonus_tag else (),
    )


def _tiny_compositions(rng, max_units=3):
    comps = []
    for side in range(2):
        n_classes = rng.randint(1, 2)
        counts = [1] * n_classes
        while sum(counts) < max_units and rng.random() < 0.6:
            counts[rng.randrange(n_classes)] += 1
        comps.append([(_tiny_unit(rng, f"s{side}c{i}"), counts[i])
                      for i in range(n_classes)])
    return comps[0], comps[1]


def _as_experiment(comp1, comp2, model, trials, seed):
    catalog = UnitCatalog([u for u, _ in comp1] + [u for u, _ in comp2])
    matchup = MatchupSpec(army1=tuple((u.name, c) for u, c in comp1),
                          army2=tuple((u.name, c) for u, c in comp2))
    return ExperimentSpec(matchup=matchup, model=model,
                          trials=trials, master_seed=seed), catalog


def _oracle_cases(models=tuple(ModelId)):
    """The 20 tiny matchups under each model, with their exact outcome
    probabilities: (case index, model, comp1, comp2, exact)."""
    rng = random.Random(20250810)
    cases = [_tiny_compositions(rng) for _ in range(20)]
    return [(index, model, comp1, comp2,
             enumerate_compositions(comp1, comp2, model).as_floats())
            for index, (comp1, comp2) in enumerate(cases) for model in models]


def _oracle_p_values(cases, seed_base):
    """An exact binomial p-value for each outcome that is possible or was
    sampled, the sampler running case i at master seed seed_base + i."""
    p_values = []
    for index, model, comp1, comp2, exact in cases:
        spec, catalog = _as_experiment(comp1, comp2, model,
                                       ORACLE_TRIALS, seed=seed_base + index)
        sampled = sample_outcomes(spec, catalog)
        assert sum(sampled.values()) == ORACLE_TRIALS
        for outcome in set(exact) | set(sampled):
            p_values.append((f"case {index} {model.name} outcome {outcome}",
                             binomial_p(sampled.get(outcome, 0), ORACLE_TRIALS,
                                        exact.get(outcome, 0.0))))
    return p_values


def test_criterion_1_oracle_equivalence():
    """MC outcome frequencies match exact enumeration: every outcome's exact
    binomial test passes at a Bonferroni-corrected family-wise alpha."""
    p_values = _oracle_p_values(_oracle_cases(), seed_base=3000)
    failures = bonferroni_failures(p_values, ORACLE_ALPHA)
    assert not failures, failures
    print(f"\nACCEPTANCE 1 PASS: 20 tiny matchups x 4 models, {len(p_values)} outcome "
          f"frequencies match the oracle at family-wise alpha {ORACLE_ALPHA}, N={ORACLE_TRIALS}")


def test_criterion_1_catches_unscaled_bonus_pools(monkeypatch):
    """The same check fails a sampler whose APX3 bonus pools skip the
    vulnerable-share scaling (the oracle runs before the fault is planted)."""
    cases = _oracle_cases(models=(ModelId.APX3,))

    def unscaled(attacker, defender, ranged_only):
        total = 0.0
        for i, targets, _, _ in attacker.bonus_targets(defender):
            count = attacker.counts[i]
            if (count and (attacker.ranged[i] or not ranged_only)
                    and any(defender.counts[j] for j in targets)):
                total += count * attacker.eff_bonus_dps[i]
        return total

    monkeypatch.setattr(sc2combat.engine, "bonus_pool", unscaled)
    assert bonferroni_failures(_oracle_p_values(cases, seed_base=3000), ORACLE_ALPHA)


def test_criterion_2_determinism():
    """Identical spec gives byte-identical results, serial or parallel."""
    spec = ExperimentSpec(matchup=find_matchup(1, "PvT"), model=ModelId.APX4,
                          trials=250, master_seed=99)
    catalog = default_catalog()
    serial_a = run_experiment(spec, catalog, n_jobs=1)
    serial_b = run_experiment(spec, catalog, n_jobs=1)
    parallel_2 = run_experiment(spec, catalog, n_jobs=2)
    parallel_3 = run_experiment(spec, catalog, n_jobs=3)
    assert repr(serial_a).encode() == repr(serial_b).encode()
    assert repr(serial_a).encode() == repr(parallel_2).encode()
    assert repr(serial_a).encode() == repr(parallel_3).encode()
    assert serial_a == parallel_2 == parallel_3
    print("\nACCEPTANCE 2 PASS: byte-identical AggregateResult for serial, "
          "2-worker and 3-worker runs of the same spec")


def test_criterion_3_model_degeneracies():
    """APX2=APX1 all-ranged; APX3=APX2 no-bonus; APX4=APX3 homogeneous armies."""
    rng = random.Random(31337)

    def strip(unit, *, ranged=None, no_bonus=False):
        kwargs = dict(name=unit.name, health=unit.base_health, shields=unit.shields,
                      armor=unit.armor, dps=unit.base_dps, aoe=unit.aoe_area,
                      attrs=unit.attributes, bonus=unit.bonus_base_dps,
                      bonus_vs=unit.bonus_vs, bonus_aoe=unit.bonus_aoe_area,
                      ranged=unit.ranged)
        if ranged is not None:
            kwargs["ranged"] = ranged
        if no_bonus:
            kwargs["bonus"] = 0.0
            kwargs["bonus_vs"] = ()
        return make_unit(**kwargs)

    pairs_checked = 0
    for _ in range(6):
        comp1, comp2 = _tiny_compositions(rng)

        all_ranged = ([(strip(u, ranged=True), c) for u, c in comp1],
                      [(strip(u, ranged=True), c) for u, c in comp2])
        a = enumerate_compositions(*all_ranged, ModelId.APX1)
        b = enumerate_compositions(*all_ranged, ModelId.APX2)
        assert a.outcomes == b.outcomes

        no_bonus = ([(strip(u, no_bonus=True), c) for u, c in comp1],
                    [(strip(u, no_bonus=True), c) for u, c in comp2])
        a = enumerate_compositions(*no_bonus, ModelId.APX2)
        b = enumerate_compositions(*no_bonus, ModelId.APX3)
        assert a.outcomes == b.outcomes

        for ranged1 in (False, True):
            for ranged2 in (False, True):
                homogeneous = ([(strip(u, ranged=ranged1), c) for u, c in comp1],
                               [(strip(u, ranged=ranged2), c) for u, c in comp2])
                a = enumerate_compositions(*homogeneous, ModelId.APX3)
                b = enumerate_compositions(*homogeneous, ModelId.APX4)
                assert a.outcomes == b.outcomes
        pairs_checked += 6
    print(f"\nACCEPTANCE 3 PASS: {pairs_checked} exact distribution equalities "
          "across the three model degeneracies")


def test_criterion_4_reference_row_reproduction():
    """Pinned model rows at 1000 trials; out-of-tolerance rows must be documented."""
    catalog = default_catalog()

    def win1(round, match, model):
        spec = ExperimentSpec(matchup=find_matchup(round, match), model=model,
                              trials=1000, master_seed=0)
        return run_experiment(spec, catalog).reported_win1

    r1_pvt = win1(1, "PvT", ModelId.APX1)
    assert abs(r1_pvt - 0.99) <= 0.05

    r4_pvt = win1(4, "PvT", ModelId.APX1)
    assert 0.98 <= r4_pvt <= 1.00

    r4_tvz = win1(4, "TvZ", ModelId.APX4)
    assert r4_tvz <= 0.05

    r1_tvz = win1(1, "TvZ", ModelId.APX4)
    if abs(r1_tvz - 0.55) <= 0.10:
        tvz_note = f"round 1 TvZ APX4 {r1_tvz:.2f} (within 0.55 +/-0.10)"
    else:
        # the stated fallback: document the per-unit sensitivity, never tune stats
        assert DOCS.exists(), "out-of-tolerance row requires docs/reproduction.md"
        text = DOCS.read_text()
        match = re.search(
            r"measured: round 1 TvZ APX4 reported win1 = ([0-9.]+)", text)
        assert match, "docs/reproduction.md must record the measured value"
        assert abs(float(match.group(1)) - r1_tvz) <= 0.005, \
            "documented measurement is stale"
        assert "sensitivity" in text.lower()
        tvz_note = (f"round 1 TvZ APX4 {r1_tvz:.2f} OUTSIDE 0.55 +/-0.10; "
                    f"per-unit sensitivity documented in docs/reproduction.md "
                    f"(the criterion's stated fallback, stats not tuned)")

    print(f"\nACCEPTANCE 4 PASS: round 1 PvT APX1 {r1_pvt:.2f} (0.99 +/-0.05), "
          f"round 4 PvT APX1 {r4_pvt:.2f} (1.00 -0.02), "
          f"round 4 TvZ APX4 {r4_tvz:.2f} (0.00 +0.05); {tvz_note}")


def test_criterion_4_docs_full_grid_is_current():
    """The docs' full grid is what the code gives at seed 0 and 1000 trials:
    every row's simulated, bundled and diff cells, as printed."""
    grid = DOCS.read_text().split("## Full grid", 1)[1]
    documented = {
        (int(m[1]), m[2], m[3]): m.group(4, 5, 6)
        for m in re.finditer(r"^\| (\d) \| (\w+) \| (APX\d) \| (\S+) \| (\S+) \| (\S+) \|$",
                             grid, re.MULTILINE)
    }
    specs = [ExperimentSpec(matchup=m, model=model, trials=1000, master_seed=0)
             for m in builtin_matchups() for model in ModelId]
    bundled = {(r.round, r.match, r.type): r.win1 for r in reference_table()}
    regenerated = {}
    for result in run_experiments(specs, default_catalog()):
        m = result.spec.matchup
        key = (m.round, m.pairing, result.spec.model.name)
        simulated = round(result.reported_win1, 2)
        regenerated[key] = (f"{simulated:.2f}", f"{bundled[key]:.2f}",
                            f"{simulated - bundled[key]:+.2f}")
    assert len(documented) == 48
    stale = {key: (documented.get(key), cells) for key, cells in regenerated.items()
             if documented.get(key) != cells}
    assert not stale, f"docs/reproduction.md full grid (documented, regenerated): {stale}"
    print(f"\nACCEPTANCE 4 PASS: docs full grid matches all {len(regenerated)} specs")


def test_criterion_5_test_rows_are_reference_only():
    """In-game test rows enter as transcribed data; nothing simulates them."""
    rows = reference_table()
    test_rows = [r for r in rows if r.type == "Test"]
    assert len(test_rows) == 12
    assert {(r.round, r.match) for r in test_rows} == {
        (rnd, match) for rnd in (1, 2, 3, 4) for match in ("PvT", "TvZ", "PvZ")
    }
    print("\nACCEPTANCE 5 PASS: the 12 in-game Test rows are consumed as "
          "transcribed reference data only (criterion 6 provides the data-level check)")


def test_criterion_6_mae_ordering_from_data_alone():
    """From the bundled table, APX3 has strictly lower MAE than APX4."""
    summary = mae_by_model(reference_table())
    mae3 = summary.errors[ModelId.APX3]
    mae4 = summary.errors[ModelId.APX4]
    assert mae3 < mae4
    assert abs(mae3 - 0.28833333333333333) < 1e-9
    assert abs(mae4 - 0.2975) < 1e-9
    print(f"\nACCEPTANCE 6 PASS: MAE(APX3)={mae3:.4f} < MAE(APX4)={mae4:.4f}, "
          "exact arithmetic over the bundled table, no simulation")


def test_criterion_7_derived_unit_stats():
    """Effective health/DPS/bonus DPS match the documented worked examples."""
    catalog = default_catalog()
    assert effective_health(catalog["zealot"]) == 225.0
    assert effective_dps(catalog["hellion"]) == 16.0
    assert effective_bonus_dps(catalog["hellion"]) == 12.0
    print("\nACCEPTANCE 7 PASS: effective_health(zealot)=225, "
          "effective_dps(hellion)=16.0, effective_bonus_dps(hellion)=12.0, exact")


@pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.__name__)
def test_criterion_8_invariant_property_suite(prop):
    """Every module invariant holds over 1000 generated cases per property,
    one test id per property."""
    prop()
    print(f"\nACCEPTANCE 8 PASS: {prop.__name__}, 1000 generated cases")
