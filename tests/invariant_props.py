"""Property-based invariant suite, run by acceptance criterion 8.

Each property runs 1000 generated cases. They are plain functions (no
fixtures), and every module-level ``prop_`` function is one: PROPERTIES
lists them in definition order, so a property cannot be defined and never
run.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from sc2combat import (
    ArmyState,
    ExperimentSpec,
    MatchupSpec,
    ModelId,
    UnitCatalog,
    Winner,
    apply_pool,
    bonus_pool,
    compute_pool,
    dumps_catalog,
    effective_bonus_dps,
    effective_dps,
    effective_health,
    enumerate_compositions,
    loads_catalog,
    run_experiment,
    run_trial,
)
from sc2combat.montecarlo import trial_rng

from conftest import make_unit

CASES = settings(max_examples=1000, deadline=None)

ATTRS = ("light", "armored", "biological")
MAX_UNITS = 3
MAX_CLASSES = 2

# Every strategy the composites below draw from is built once, here: built
# on every draw, they cost more than the properties that use them.
BONUS_TAG = st.sampled_from((None,) + ATTRS)
HEALTH = st.integers(1, 30)
SHIELDS = st.integers(0, 10)
ARMOR = st.integers(0, 2)
DPS = {True: st.integers(1, 12), False: st.integers(0, 12)}  # keyed by force_dps
RANGED = st.booleans()
AOE = st.sampled_from((1, 2))
UNIT_ATTRS = st.sets(st.sampled_from(ATTRS), max_size=2)
BONUS = st.integers(1, 6)
UP_TO = {hi: st.integers(1, hi) for hi in range(1, MAX_UNITS + 1)}


@st.composite
def units(draw, index=0, force_dps=True):
    bonus_tag = draw(BONUS_TAG)
    return make_unit(
        name=f"u{index}",
        health=draw(HEALTH),
        shields=draw(SHIELDS),
        armor=draw(ARMOR),
        dps=float(draw(DPS[force_dps])),
        ranged=draw(RANGED),
        aoe=float(draw(AOE)),
        attrs=draw(UNIT_ATTRS),
        bonus=float(draw(BONUS)) if bonus_tag else 0.0,
        bonus_vs=(bonus_tag,) if bonus_tag else (),
    )


# the units of each class index, keyed by force_dps
CLASS_UNITS = {force: tuple(units(index=i, force_dps=force) for i in range(MAX_CLASSES))
               for force in (True, False)}


@st.composite
def compositions(draw, force_dps=True):
    """1 to MAX_CLASSES unit classes of MAX_UNITS units at most in all."""
    n_classes = draw(UP_TO[MAX_CLASSES])
    comp = []
    remaining = MAX_UNITS
    for i in range(n_classes):
        count = draw(UP_TO[max(1, remaining - (n_classes - 1 - i))])
        comp.append((draw(CLASS_UNITS[force_dps][i]), count))
        remaining -= count
    return comp


@CASES
@given(health=st.integers(1, 500), shields=st.integers(0, 400),
       armor=st.integers(0, 5), d_health=st.integers(0, 100),
       d_shields=st.integers(0, 100), d_armor=st.integers(0, 2))
def prop_effective_health_monotone(health, shields, armor,
                                   d_health, d_shields, d_armor):
    base = effective_health(make_unit(health=health, shields=shields, armor=armor))
    assert effective_health(make_unit(health=health + d_health,
                                      shields=shields, armor=armor)) >= base
    assert effective_health(make_unit(health=health,
                                      shields=shields + d_shields, armor=armor)) >= base
    assert effective_health(make_unit(health=health,
                                      shields=shields, armor=armor + d_armor)) >= base


@CASES
@given(dps=st.floats(0, 100, allow_nan=False), area=st.floats(1, 8, allow_nan=False),
       bonus=st.floats(0.001, 50, allow_nan=False), bonus_area=st.floats(1, 8, allow_nan=False))
def prop_effective_dps_at_least_base(dps, area, bonus, bonus_area):
    unit = make_unit(dps=dps, aoe=area, bonus=bonus, bonus_vs=("light",),
                     bonus_aoe=bonus_area)
    assert effective_dps(unit) >= unit.base_dps
    assert effective_bonus_dps(unit) >= unit.bonus_base_dps


@CASES
@given(st.lists(units(), min_size=0, max_size=3))
def prop_catalog_round_trip(unit_list):
    named = [make_unit(name=f"u{i}", health=u.base_health, shields=u.shields,
                       armor=u.armor, dps=u.base_dps, ranged=u.ranged,
                       aoe=u.aoe_area, attrs=u.attributes, bonus=u.bonus_base_dps,
                       bonus_vs=u.bonus_vs, bonus_aoe=u.bonus_aoe_area)
             for i, u in enumerate(unit_list)]
    catalog = UnitCatalog(named)
    assert loads_catalog(dumps_catalog(catalog)) == catalog


@CASES
@given(comp1=compositions(), comp2=compositions(),
       model=st.sampled_from(ModelId), seed=st.integers(0, 2**32))
def prop_trial_survivors_bounded(comp1, comp2, model, seed):
    army1 = ArmyState(comp1)
    army2 = ArmyState(comp2)
    outcome = run_trial(army1, army2, model, random.Random(seed))
    for survivors, comp in ((outcome.survivors1, comp1), (outcome.survivors2, comp2)):
        for left, (_, initial) in zip(survivors, comp):
            assert 0 <= left <= initial
    if outcome.winner is Winner.ARMY1:
        assert any(outcome.survivors1) and not any(outcome.survivors2)
    elif outcome.winner is Winner.ARMY2:
        assert any(outcome.survivors2) and not any(outcome.survivors1)
    else:
        assert not any(outcome.survivors1) and not any(outcome.survivors2)


@CASES
@given(comp=compositions(), pool=st.integers(1, 120),
       model=st.sampled_from((ModelId.APX1, ModelId.APX4)), seed=st.integers(0, 2**32))
def prop_pool_kills_bounded(comp, pool, model, seed):
    defender = ArmyState(comp)
    before = sum(defender.counts)
    min_health = min(defender.eff_health)
    group, left = defender.eligible(model, defender.counts)
    apply_pool(float(pool), defender, model, group, left, random.Random(seed).random)
    kills = before - sum(defender.counts)
    assert kills <= min(before, math.ceil(pool / min_health))


@CASES
@given(comp1=compositions(), comp2=compositions(),
       model=st.sampled_from(ModelId), seed=st.integers(0, 2**32))
def prop_trial_reproducible(comp1, comp2, model, seed):
    first = run_trial(ArmyState(comp1), ArmyState(comp2), model, random.Random(seed))
    second = run_trial(ArmyState(comp1), ArmyState(comp2), model, random.Random(seed))
    assert first == second


@CASES
@given(comp1=compositions(), comp2=compositions(),
       model=st.sampled_from(ModelId), first=st.booleans())
def prop_pools_nonnegative_bonus_bounded(comp1, comp2, model, first):
    attacker = ArmyState(comp1)
    defender = ArmyState(comp2)
    assert compute_pool(attacker, defender, model, first) >= 0.0
    capacity = sum(c * b for c, b in zip(attacker.counts, attacker.eff_bonus_dps))
    for ranged_only in (False, True):
        extra = bonus_pool(attacker, defender, ranged_only)
        assert 0.0 <= extra <= capacity + 1e-9


@CASES
@given(comp=compositions(), enemy=compositions(),
       model=st.sampled_from([ModelId.APX2, ModelId.APX3, ModelId.APX4]))
def prop_melee_contributes_nothing_first_round(comp, enemy, model):
    attacker = ArmyState(comp)
    defender = ArmyState(enemy)
    ranged_comp = [(u, c) for u, c in comp if u.ranged]
    full = compute_pool(attacker, defender, model, is_first_round=True)
    if not ranged_comp:
        assert full == 0.0
    else:
        ranged_army = ArmyState(ranged_comp)
        assert full == compute_pool(ranged_army, defender, model,
                                    is_first_round=True)


@CASES
@given(comp1=compositions(), comp2=compositions(),
       model=st.sampled_from(ModelId),
       trials=st.integers(1, 40), seed=st.integers(0, 2**32))
def prop_aggregate_sums_exact(comp1, comp2, model, trials, seed):
    catalog = UnitCatalog(
        [make_unit(name=f"a{i}", health=u.base_health, shields=u.shields, armor=u.armor,
                   dps=u.base_dps, ranged=u.ranged, aoe=u.aoe_area, attrs=u.attributes,
                   bonus=u.bonus_base_dps, bonus_vs=u.bonus_vs)
         for i, (u, _) in enumerate(comp1)]
        + [make_unit(name=f"b{i}", health=u.base_health, shields=u.shields, armor=u.armor,
                     dps=u.base_dps, ranged=u.ranged, aoe=u.aoe_area, attrs=u.attributes,
                     bonus=u.bonus_base_dps, bonus_vs=u.bonus_vs)
           for i, (u, _) in enumerate(comp2)]
    )
    matchup = MatchupSpec(
        army1=tuple((f"a{i}", c) for i, (_, c) in enumerate(comp1)),
        army2=tuple((f"b{i}", c) for i, (_, c) in enumerate(comp2)),
    )
    spec = ExperimentSpec(matchup=matchup, model=model, trials=trials, master_seed=seed)
    result = run_experiment(spec, catalog)
    assert result.win1_count + result.win2_count + result.draw_count == trials
    assert result.stalemate_count <= result.draw_count
    assert result.reported_win1 + result.reported_win2 == 1.0


@CASES
@given(comp=compositions(), model=st.sampled_from(ModelId))
def prop_oracle_mirror_symmetric(comp, model):
    dist = enumerate_compositions(comp, comp, model)
    swap = {Winner.ARMY1: Winner.ARMY2, Winner.ARMY2: Winner.ARMY1,
            Winner.DRAW: Winner.DRAW}
    for (winner, s1, s2), p in dist.outcomes.items():
        assert dist.outcomes.get((swap[winner], s2, s1)) == p


@CASES
@given(index=st.integers(0, 2**31), seed=st.integers(0, 2**63))
def prop_trial_streams_deterministic(index, seed):
    assert trial_rng(seed, index).random() == trial_rng(seed, index).random()


PROPERTIES = [value for name, value in list(globals().items()) if name.startswith("prop_")]
