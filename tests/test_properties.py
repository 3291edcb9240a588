from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sc2combat import (
    ArmyState,
    ModelId,
    StalemateError,
    enumerate_compositions,
    run_trial,
    trial_rng,
)

from invariant_props import PROPERTIES, compositions


@pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.__name__)
def test_invariant(prop, run_property):
    assert run_property(prop), f"{prop.__name__} failed earlier in this session"


def _disarmed(comp):
    return [(replace(unit, base_dps=0.0, bonus_base_dps=0.0, bonus_vs=frozenset()), count)
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
