from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

import sc2combat.oracle as oracle
from sc2combat import (
    ArmyState,
    ModelId,
    StalemateError,
    enumerate_compositions,
    run_trial,
    trial_rng,
)

from conftest import make_unit
from invariant_props import compositions


def _disarmed(comp):
    return [(unit._replace(base_dps=0.0, bonus_base_dps=0.0, bonus_vs=frozenset()), count)
            for unit, count in comp]


@settings(max_examples=200, deadline=None)
@given(comp1=compositions(force_dps=False), comp2=compositions(force_dps=False),
       model=st.sampled_from(ModelId), disarm=st.booleans(), seed=st.integers(0, 2**32))
def test_engine_stalemates_only_where_the_oracle_does(comp1, comp2, model, disarm, seed):
    # The converse does not hold per battle: the oracle raises when any
    # reachable state stalls, which a sampled trial may never reach.
    if disarm:
        comp1, comp2 = _disarmed(comp1), _disarmed(comp2)
    army1, army2 = ArmyState(comp1), ArmyState(comp2)
    trials, stalled = 30, 0
    for index in range(trials):
        army1.counts[:], army2.counts[:] = army1.initial_counts, army2.initial_counts
        try:
            run_trial(army1, army2, model, trial_rng(seed, index))
        except StalemateError:
            stalled += 1
    try:
        enumerate_compositions(comp1, comp2, model)
    except StalemateError:
        oracle_stalls = True
    else:
        oracle_stalls = False
    assert oracle_stalls or not stalled
    if disarm:
        assert oracle_stalls and stalled == trials


class _CountingArmy(ArmyState):
    """An army state that counts its ``eligible`` calls: spending a pool
    makes one for each (pool, counts) node it expands."""

    __slots__ = ("calls",)

    def eligible(self, model, counts):
        self.calls += 1
        return super().eligible(model, counts)


@settings(max_examples=300, deadline=None)
@given(classes=st.lists(st.tuples(st.integers(1, 20), st.integers(0, 3), st.booleans()),
                        min_size=1, max_size=4),
       pool=st.integers(0, 60))
def test_spending_expands_at_most_the_reachable_count_vectors(classes, pool):
    # Armor 0 and an integer pool keep every subtraction exact, so a node's
    # pool is fixed by its counts and equal counts merge into one node. A
    # node is k sure kills deep, k <= pool // (least health alive), so the
    # nodes are at most the count vectors that many removals reach.
    army = _CountingArmy([(make_unit(f"u{i}", health=health, ranged=ranged), count)
                          for i, (health, count, ranged) in enumerate(classes)])
    alive = [health for health, count, _ in classes if count]
    kills = pool // min(alive) if alive else 0
    reachable = sum(1 for removed in product(*(range(c + 1) for c in army.initial_counts))
                    if sum(removed) <= kills)
    for model in (ModelId.APX1, ModelId.APX4):
        army.calls = 0
        oracle._apply_distribution(float(pool), army, army.initial_counts, model)
        assert army.calls <= reachable
