import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

import sc2combat.oracle as oracle
from sc2combat import (
    ArmyState,
    EnumerationLimitError,
    EnumerationLimits,
    MatchupSpec,
    ModelId,
    ScenarioError,
    StalemateError,
    UnitCatalog,
    Winner,
    enumerate_compositions,
    enumerate_exact,
)

from conftest import make_unit, sha256


def test_one_versus_one_coin_flip():
    a = make_unit("a", health=10, dps=10.0)
    b = make_unit("b", health=10, dps=5.0)
    dist = enumerate_compositions([(a, 1)], [(b, 1)], ModelId.APX1)
    assert dist.outcomes == {
        (Winner.ARMY1, (1,), (0,)): Fraction(1, 2),
        (Winner.DRAW, (0,), (0,)): Fraction(1, 2),
    }


def test_two_versus_one():
    a = make_unit("a", health=5, dps=10.0)
    b = make_unit("b", health=20, dps=4.0)
    dist = enumerate_compositions([(a, 2)], [(b, 1)], ModelId.APX1)
    assert dist.outcomes == {
        (Winner.ARMY1, (1,), (0,)): Fraction(4, 5),
        (Winner.ARMY1, (2,), (0,)): Fraction(1, 5),
    }


def test_one_sided_damage_always_wins():
    a = make_unit("a", health=10, dps=4.0)
    b = make_unit("b", health=12, dps=0.0)
    dist = enumerate_compositions([(a, 2)], [(b, 2)], ModelId.APX1)
    assert dist.winner_probability(Winner.ARMY1) == 1


def test_no_progress_rounds_are_folded_exactly():
    # each round kills with probability 1/10; the distribution is still exact
    a = make_unit("a", health=10, dps=1.0)
    b = make_unit("b", health=10, dps=0.0)
    dist = enumerate_compositions([(a, 1)], [(b, 1)], ModelId.APX1)
    assert dist.outcomes == {(Winner.ARMY1, (1,), (0,)): Fraction(1)}


def test_melee_first_certain_order():
    melee = make_unit("m", health=10, ranged=False, dps=1.0)
    shooter = make_unit("r", health=10, ranged=True, dps=1.0)
    big = make_unit("b", health=1000, dps=10.0, ranged=True)
    dist = enumerate_compositions([(big, 1)], [(melee, 1), (shooter, 1)], ModelId.APX4)
    # army2's first casualty is always the melee unit
    for (_, _, survivors2), prob in dist.outcomes.items():
        if survivors2[0] == 1:
            assert survivors2[1] == 1 and prob == 0


def test_probabilities_sum_to_one():
    a = make_unit("a", health=7, dps=3.0, ranged=True, attrs=("light",))
    b = make_unit("b", health=11, dps=4.0, bonus=2.0, bonus_vs=("light",))
    for model in ModelId:
        dist = enumerate_compositions([(a, 2), (b, 1)], [(a, 1), (b, 2)], model)
        assert sum(dist.outcomes.values()) == 1
        assert abs(sum(dist.as_floats().values()) - 1.0) < 1e-12


def test_sum_checked_exactly(monkeypatch):
    # one leaf weight of every spending distribution gains 1 / (den * 10**30),
    # far below any float tolerance; the exact sum check still sees it
    original = oracle._apply_distribution

    def shifted(*args):
        weights, denominator = original(*args)
        weights = {left: w * 10**30 for left, w in weights.items()}
        weights[next(iter(weights))] += 1
        return weights, denominator * 10**30

    monkeypatch.setattr(oracle, "_apply_distribution", shifted)
    a = make_unit("a", health=7, dps=3.0)
    with pytest.raises(AssertionError, match="sum to"):
        enumerate_compositions([(a, 2)], [(a, 1)], ModelId.APX1)


def test_unit_limit_enforced():
    a = make_unit("a")
    with pytest.raises(EnumerationLimitError):
        enumerate_compositions([(a, 5)], [(a, 1)], ModelId.APX1,
                               EnumerationLimits(max_units_per_side=4))


def test_stalemate_detected():
    a = make_unit("a", dps=0.0)
    b = make_unit("b", dps=0.0)
    with pytest.raises(StalemateError):
        enumerate_compositions([(a, 1)], [(b, 1)], ModelId.APX1)


def test_stalemate_reached_after_kills_detected():
    # each side kills one unit a round; if both killers fall, only the
    # harmless units remain and no later round can change anything
    killer = make_unit("k", health=10, dps=10.0, ranged=True)
    harmless = make_unit("h", health=10, dps=0.0, ranged=True)
    comp = [(killer, 1), (harmless, 1)]
    with pytest.raises(StalemateError):
        enumerate_compositions(comp, comp, ModelId.APX1)


def test_melee_only_apx2_first_round_kills_nothing():
    # APX2's first round fires ranged units only, so here it changes nothing
    # and the battle proceeds as under APX1 from the start
    a = make_unit("a", health=10, dps=6.0)
    b = make_unit("b", health=12, dps=5.0)
    dist = enumerate_compositions([(a, 2)], [(b, 2)], ModelId.APX2)
    assert dist.outcomes == {
        (Winner.ARMY1, (1,), (0,)): Fraction(1, 3),
        (Winner.ARMY2, (0,), (1,)): Fraction(1, 3),
        (Winner.DRAW, (0,), (0,)): Fraction(1, 3),
    }
    assert dist.outcomes == enumerate_compositions([(a, 2)], [(b, 2)], ModelId.APX1).outcomes


RANGED, MELEE = make_unit("r", health=9, dps=4.0, ranged=True), make_unit("m", health=14, dps=6.0)
SHOOTER, BRUTE = make_unit("w", health=12, dps=5.0, ranged=True), make_unit("x", health=10, dps=3.0)
TWIN = make_unit("u", health=10, dps=5.0, ranged=True)


@pytest.mark.parametrize("army1, army2, model, states, digest", [
    # A 15-point pool kills one unit for sure and a second with chance 1/2,
    # so 3v3 reaches the opening state, then 2v2, 2v1, 1v2 and 1v1: 5 states.
    pytest.param([(TWIN, 3)], [(TWIN, 3)], ModelId.APX1, 5,
                 "241ef45268ad8a335e744882b33cd8c1de438ddb41b4dd4be19aa6171f416612",
                 id="mirror"),
    pytest.param([(RANGED, 2), (MELEE, 1)], [(SHOOTER, 1), (BRUTE, 2)], ModelId.APX2, 26,
                 "25ac9aeff7e167e1367316cb247ec7546163ec0756bee922419412baa1b8a9f0",
                 id="apx2-ranged-opening"),
    # the opening kills nothing, so the opening counts are expanded twice
    pytest.param([(make_unit("a", health=10, dps=6.0), 2)],
                 [(make_unit("b", health=12, dps=5.0), 2)], ModelId.APX2, 3,
                 "04a78c80094c3996160a910fd34bfe108317c63b77385d1215b1388e9268b9fc",
                 id="apx2-melee-opening"),
    pytest.param([("zealot", 2), ("stalker", 2)], [("marine", 2), ("marauder", 2)],
                 ModelId.APX3, 65,
                 "3fbb4b5e226a7ac229e2e9a958c522600238f126c92485d2272594262a223320",
                 id="mixed-4v4"),
])
def test_max_states_counts_expanded_states(catalog, army1, army2, model, states, digest):
    # N states pass at max_states=N and fail at N - 1. Neither the count nor
    # the exact outcomes depend on the order in which the states of one unit
    # total are expanded.
    comp1, comp2 = ([(catalog[u] if isinstance(u, str) else u, n) for u, n in army]
                    for army in (army1, army2))
    dist = enumerate_compositions(comp1, comp2, model, EnumerationLimits(max_states=states))
    exact = sorted((repr(outcome), hex(p.numerator), hex(p.denominator))
                   for outcome, p in dist.outcomes.items())
    assert sha256(repr(exact)) == digest
    with pytest.raises(EnumerationLimitError):
        enumerate_compositions(comp1, comp2, model, EnumerationLimits(max_states=states - 1))


def test_empty_army_rejected():
    a = make_unit("a")
    with pytest.raises(ValueError):
        enumerate_compositions([(a, 0)], [(a, 1)], ModelId.APX1)


def test_enumerate_exact_resolves_matchup():
    catalog = UnitCatalog([
        make_unit("alpha", health=10, dps=10.0),
        make_unit("beta", health=10, dps=5.0),
    ])
    matchup = MatchupSpec(army1=(("alpha", 1),), army2=(("beta", 1),))
    dist = enumerate_exact(matchup, ModelId.APX1, catalog)
    assert dist.winner_probability(Winner.ARMY1) == Fraction(1, 2)


def test_enumerate_exact_pins_builtin_races(catalog):
    # the same race check as build_armies: a PvT matchup with a terran army1
    bad = MatchupSpec(army1=(("marine", 1),), army2=(("zealot", 1),),
                      round=1, pairing="PvT")
    with pytest.raises(ScenarioError, match="terran"):
        enumerate_exact(bad, ModelId.APX1, catalog)


def test_repr_of_a_mid_sized_battle(catalog):
    # its exact Fractions have more digits than Python's int-to-str limit
    dist = enumerate_compositions([(catalog["zealot"], 3), (catalog["stalker"], 3)],
                                  [(catalog["marine"], 3), (catalog["marauder"], 3)],
                                  ModelId.APX1, EnumerationLimits(8, 200_000))
    text = repr(dist)
    assert text.startswith("ExactDistribution(as_floats={")
    assert all(isinstance(p, Fraction) for p in dist.outcomes.values())


def _leaf_list_distribution(pool, army, counts, model):
    """The reference for ``oracle._apply_distribution``: one leaf per ordered
    kill sequence, no two merged, folded over one lcm at the end."""
    leaves = []  # (counts, num, den)

    def expand(pool, counts, num, den):
        if pool <= 0 or not any(counts):
            leaves.append((counts, num, den))
            return
        eligible, total = army.eligible(model, counts)
        for i in eligible:
            if not counts[i]:
                continue
            n, d = num * counts[i], den * total
            health = army.eff_health[i]
            killed = counts[:i] + (counts[i] - 1,) + counts[i + 1:]
            if pool >= health:
                expand(pool - health, killed, n, d)
            else:
                pool_n, pool_d = pool.as_integer_ratio()
                health_n, health_d = health.as_integer_ratio()
                kill, d = pool_n * health_d, d * pool_d * health_n
                leaves.append((killed, n * kill, d))
                leaves.append((counts, n * (pool_d * health_n - kill), d))

    expand(pool, counts, 1, 1)
    denominator = lcm(*(d for _, _, d in leaves))
    weights = {}
    for left, n, d in leaves:
        weights[left] = weights.get(left, 0) + n * (denominator // d)
    g = gcd(denominator, *weights.values())
    return {left: w // g for left, w in weights.items()}, denominator // g


def test_spending_matches_leaf_list_expansion():
    # 1-4 classes of 0-3 units, melee and ranged, armor 0-3 (so non-integer
    # effective healths); small pools, and pools near 1e16 where a float
    # subtraction rounds and two kill orders can leave different pools
    rng = random.Random(22)
    for _ in range(600):
        huge = rng.random() < 0.3
        comp = [(make_unit(f"u{i}", health=rng.choice((1e16, 1e16 + 6, 2, 7)) if huge
                           else rng.randint(1, 30),
                           ranged=rng.random() < 0.5, armor=0 if huge else rng.randint(0, 3)),
                 rng.randint(0, 3)) for i in range(rng.randint(1, 4))]
        army = ArmyState(comp)
        pool = (rng.randint(1, 3) * 1e16 + rng.choice((0, 1, 5, 13)) if huge
                else rng.choice((rng.uniform(0, 60), float(rng.randint(0, 60)))))
        for model in (ModelId.APX1, ModelId.APX4):
            assert (oracle._apply_distribution(pool, army, army.initial_counts, model)
                    == _leaf_list_distribution(pool, army, army.initial_counts, model))


def test_kill_orders_leaving_different_pools_stay_apart():
    # killing the 1e16 unit before or after the 6.5 one leaves two different
    # float pools at the same counts, and so two chances to kill the last unit
    army = ArmyState([(make_unit("big", health=1e16), 2), (make_unit("small", health=6.5), 1)])
    pool = 2e16 + 5
    assert (pool - 1e16) - 6.5 != (pool - 6.5) - 1e16
    for model in (ModelId.APX1, ModelId.APX4):
        assert (oracle._apply_distribution(pool, army, army.initial_counts, model)
                == _leaf_list_distribution(pool, army, army.initial_counts, model))


@pytest.mark.parametrize("model", (ModelId.APX1, ModelId.APX4))
def test_sixteen_unit_pool_spends_in_under_a_second(model):
    # ten sure kills over four classes: about 4**10 kill orders, far fewer
    # distinct (pool, counts) nodes
    classes = [make_unit(f"c{h}", health=h, dps=1.0) for h in (10, 11, 12, 13)]
    small = ArmyState([(unit, 2) for unit in classes])
    assert (oracle._apply_distribution(11.5 * 6, small, small.initial_counts, model)
            == _leaf_list_distribution(11.5 * 6, small, small.initial_counts, model))
    army = ArmyState([(unit, 4) for unit in classes])
    start = time.perf_counter()
    weights, denominator = oracle._apply_distribution(11.5 * 10, army, army.initial_counts, model)
    assert time.perf_counter() - start < 1.0
    assert sum(weights.values()) == denominator
