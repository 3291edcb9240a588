import inspect
import math
import random
from itertools import product

import pytest

import sc2combat.engine as engine
from sc2combat import (
    ArmyState,
    ModelId,
    StalemateError,
    TrialOutcome,
    Winner,
    apply_pool,
    bonus_pool,
    compute_pool,
    enumerate_compositions,
    run_trial,
    trial_rng,
)

from conftest import make_unit, three_sigma
from family_check import binomial_p, bonferroni_failures


def army(*entries):
    return ArmyState(list(entries))


class TestModelId:
    def test_parse(self):
        assert ModelId.parse("apx1") is ModelId.APX1
        assert ModelId.parse("APX4") is ModelId.APX4
        with pytest.raises(ValueError):
            ModelId.parse("apx5")

    def test_each_model_adds_exactly_one_feature(self):
        features = {
            m: (m.ranged_first_round, m.bonus_pools, m.melee_first)
            for m in ModelId
        }
        assert features[ModelId.APX1] == (False, False, False)
        assert features[ModelId.APX2] == (True, False, False)
        assert features[ModelId.APX3] == (True, True, False)
        assert features[ModelId.APX4] == (True, True, True)


class TestComputePool:
    def test_four_hellions_apx1(self, catalog):
        hellions = army((catalog["hellion"], 4))
        lings = army((catalog["zergling"], 10))
        assert compute_pool(hellions, lings, ModelId.APX1, True) == 64.0
        assert compute_pool(hellions, lings, ModelId.APX1, False) == 64.0

    def test_apx2_first_round_all_melee_is_zero(self):
        melee = army((make_unit("m", dps=9.0), 5))
        other = army((make_unit("x"), 1))
        assert compute_pool(melee, other, ModelId.APX2, True) == 0.0
        assert compute_pool(melee, other, ModelId.APX2, False) == 45.0

    def test_apx2_first_round_all_ranged_matches_apx1(self):
        ranged = army((make_unit("r", dps=7.0, ranged=True), 3),
                      (make_unit("s", dps=2.5, ranged=True), 2))
        other = army((make_unit("x"), 1))
        apx1 = compute_pool(ranged, other, ModelId.APX1, True)
        apx2 = compute_pool(ranged, other, ModelId.APX2, True)
        assert apx1 == apx2

    def test_dead_classes_contribute_nothing(self):
        a = army((make_unit("a", dps=4.0), 2), (make_unit("b", dps=9.0), 1))
        a.counts[1] = 0
        other = army((make_unit("x"), 1))
        assert compute_pool(a, other, ModelId.APX1, False) == 8.0

    @pytest.mark.parametrize("model, first, later", [
        (ModelId.APX1, 13.0, 13.0),
        (ModelId.APX2, 5.0, 13.0),
        (ModelId.APX3, 7.5, 20.0),
        (ModelId.APX4, 7.5, 20.0),
    ])
    def test_mixed_bonus_pools_by_hand(self, model, first, later):
        # DPS 2*4 + 1*2 + 3*1 = 13, of which 5 is ranged. Bonus: 2 melee x 3
        # on 3 of 4 light defenders = 4.5, 1 ranged x 5 on 2 of 4 armored = 2.5.
        attacker = army(
            (make_unit("m", dps=4.0, bonus=3.0, bonus_vs=("light",)), 2),
            (make_unit("r", dps=2.0, ranged=True, bonus=5.0, bonus_vs=("armored",)), 1),
            (make_unit("p", dps=1.0, ranged=True), 3))
        defender = army((make_unit("l", attrs=("light",)), 2),
                        (make_unit("a", attrs=("armored",)), 1),
                        (make_unit("la", attrs=("light", "armored")), 1))
        assert compute_pool(attacker, defender, model, True) == first
        assert compute_pool(attacker, defender, model, False) == later


class TestSidePoolMemo:
    """``compute_pool`` keeps each side's DPS sum in a memo keyed by its
    counts, for any defender and model; every pool equals a fresh state's."""

    ATTACKER = ((make_unit("m", dps=4.0, bonus=3.0, bonus_vs=("light",)), 3),
                (make_unit("r", dps=2.5, ranged=True, bonus=5.0, bonus_vs=("armored",)), 2),
                (make_unit("p", dps=1.1, ranged=True), 2))
    DEFENDERS = (((make_unit("l", attrs=("light",)), 2), (make_unit("a", attrs=("armored",)), 2)),
                 ((make_unit("la", attrs=("light", "armored")), 2),
                  (make_unit("b", attrs=("biological",)), 1), (make_unit("x"), 1)))

    @staticmethod
    def pools(attacker, defender):
        return [compute_pool(attacker, defender, model, first)
                for model in ModelId for first in (True, False)]

    def fresh_pools(self, counts, defender):
        # new states for every pool, so no memo entry is ever read
        classes = [unit for unit, _ in self.ATTACKER]
        return [compute_pool(army(*zip(classes, counts)),
                             army(*zip(defender.classes, defender.counts)), model, first)
                for model in ModelId for first in (True, False)]

    def test_one_state_against_two_defenders_gives_fresh_pools(self):
        shared = ArmyState(self.ATTACKER)
        defenders = [ArmyState(d) for d in self.DEFENDERS]
        attacker_counts = list(product(range(4), range(3), range(3)))
        for counts in attacker_counts:
            for defender in defenders:
                for defender_counts in product(range(3), repeat=len(defender.counts)):
                    shared.counts[:], defender.counts[:] = counts, defender_counts
                    assert self.pools(shared, defender) == self.fresh_pools(counts, defender)
        assert set(shared._dps_sums) == set(attacker_counts)

    @pytest.mark.parametrize("model", [ModelId.APX2, ModelId.APX4])
    def test_opening_and_later_rounds_share_the_memo(self, model):
        # a ranged-only opening reads the melee counts as 0, and that masked
        # tuple is the key a later round at those very counts reads
        shared, defender = ArmyState(self.ATTACKER), ArmyState(self.DEFENDERS[0])
        shared.counts[:] = (3, 2, 1)
        compute_pool(shared, defender, model, True)
        assert set(shared._dps_sums) == {(0, 2, 1)}
        opening_sum = shared._dps_sums[0, 2, 1]
        shared.counts[:] = (0, 2, 1)
        later = compute_pool(shared, defender, ModelId.APX1, False)
        assert later == opening_sum == self.fresh_pools((0, 2, 1), defender)[1]
        assert set(shared._dps_sums) == {(0, 2, 1)}

    def test_memo_stops_growing_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(engine, "_POOL_CACHE_ENTRIES", 5)
        shared, defender = ArmyState(self.ATTACKER), ArmyState(self.DEFENDERS[1])
        for _ in range(2):  # the second pass reads the kept entries
            for counts in product(range(4), range(3), range(3)):
                shared.counts[:] = counts
                assert self.pools(shared, defender) == self.fresh_pools(counts, defender)
        assert len(shared._dps_sums) == 5


class TestBonusPool:
    def test_half_vulnerable_gives_half_bonus(self, catalog):
        hellions = army((catalog["hellion"], 2))
        defenders = army((catalog["zergling"], 2), (catalog["roach"], 2))
        # two hellions at 12 effective bonus DPS each, half the enemy is light
        assert bonus_pool(hellions, defenders, ranged_only=False) == pytest.approx(12.0)

    def test_no_bonus_traits_gives_zero(self):
        plain = army((make_unit("p", dps=5.0), 4))
        defenders = army((make_unit("d", attrs=("light",)), 4))
        assert bonus_pool(plain, defenders, ranged_only=False) == 0.0

    def test_fully_vulnerable_gives_full_bonus(self):
        attacker = army((make_unit("a", dps=1.0, bonus=3.0, bonus_vs=("light",)), 2))
        defenders = army((make_unit("d", attrs=("light", "biological")), 3))
        assert bonus_pool(attacker, defenders, ranged_only=False) == pytest.approx(6.0)

    def test_ranged_only_excludes_melee_bonus(self):
        melee = make_unit("m", dps=1.0, bonus=3.0, bonus_vs=("light",), ranged=False)
        shooter = make_unit("s", dps=1.0, bonus=2.0, bonus_vs=("light",), ranged=True)
        attacker = army((melee, 1), (shooter, 1))
        defenders = army((make_unit("d", attrs=("light",)), 2))
        assert bonus_pool(attacker, defenders, ranged_only=True) == pytest.approx(2.0)
        assert bonus_pool(attacker, defenders, ranged_only=False) == pytest.approx(5.0)

    def test_apx3_pool_includes_bonus(self, catalog):
        hellions = army((catalog["hellion"], 2))
        defenders = army((catalog["zergling"], 2), (catalog["roach"], 2))
        pool = compute_pool(hellions, defenders, ModelId.APX3, False)
        assert pool == pytest.approx(32.0 + 12.0)

    def test_dps_summed_left_to_right(self):
        # a compensated sum (math.fsum, or sum() of floats from Python 3.12) gives 0.6
        attacker = army(*((make_unit(f"u{i}", dps=dps), 1)
                          for i, dps in enumerate((0.1, 0.2, 0.3))))
        assert compute_pool(attacker, army((make_unit("d"), 1)), ModelId.APX1, False) \
            == 0.6000000000000001


def spend_from_counts(pool, defender, model, draw):
    """``apply_pool`` from the defender's counts, with no group carried in."""
    return apply_pool(pool, defender, model, *defender.eligible(model, defender.counts), draw)


class TestApplyPool:
    def test_exact_lethal_kill_is_certain(self):
        defender = army((make_unit("d", health=20), 1))
        spend_from_counts(20.0, defender, ModelId.APX1, random.Random(1).random)
        assert defender.counts == [0]

    def test_partial_pool_kills_at_ratio(self):
        kills = 0
        n = 10_000
        for i in range(n):
            defender = army((make_unit("d", health=10), 1))
            spend_from_counts(5.0, defender, ModelId.APX1, random.Random(i).random)
            kills += defender.counts[0] == 0
        assert abs(kills / n - 0.5) <= three_sigma(0.5, n)

    def test_melee_first_kills_melee_with_certainty(self):
        melee = make_unit("m", health=10, ranged=False)
        shooter = make_unit("r", health=10, ranged=True)
        for seed in range(200):
            defender = army((melee, 1), (shooter, 1))
            spend_from_counts(10.0, defender, ModelId.APX4, random.Random(seed).random)
            assert defender.counts == [0, 1]

    def test_overkill_is_discarded(self):
        defender = army((make_unit("d", health=5), 2))
        spend_from_counts(1000.0, defender, ModelId.APX1, random.Random(0).random)
        assert defender.counts == [0]

    @pytest.mark.parametrize("model, comp, expected", [
        (ModelId.APX1, ((False, 1), (False, 1), (False, 0)), [1, 0, 0]),
        (ModelId.APX4, ((False, 1), (False, 0), (True, 1)), [0, 0, 1]),
    ])
    def test_pick_rounding_falls_back_to_last_eligible_class(self, model, comp, expected):
        def top_of_range():
            # random() never returns 1.0; a pick that rounds up to the total
            # takes the same path
            return 1.0

        defender = army(*((make_unit(f"u{i}", health=10, ranged=r), c)
                          for i, (r, c) in enumerate(comp)))
        spend_from_counts(10.0, defender, model, top_of_range)
        assert defender.counts == expected

    def test_zero_pool_is_noop(self):
        defender = army((make_unit("d"), 3))
        spend_from_counts(0.0, defender, ModelId.APX1, random.Random(0).random)
        assert defender.counts == [3]


class TestOneRoundBattles:
    def test_simultaneous_exchange(self):
        # pools fixed from start-of-round state: B always dies, A dies half the time
        deaths = 0
        n = 10_000
        for i in range(n):
            a = army((make_unit("a", health=10, dps=10.0), 1))
            b = army((make_unit("b", health=10, dps=5.0), 1))
            outcome = run_trial(a, b, ModelId.APX1, random.Random(i))
            assert outcome.rounds == 1
            assert b.counts == [0]
            deaths += a.counts == [0]
        assert abs(deaths / n - 0.5) <= three_sigma(0.5, n)

    def test_zero_dps_changes_nothing(self):
        # round 1 kills nothing, and round 2 ends the trial as a stalemate
        a = army((make_unit("a", dps=0.0), 2))
        b = army((make_unit("b", dps=0.0), 3))
        with pytest.raises(StalemateError, match="round 2"):
            run_trial(a, b, ModelId.APX1, random.Random(0))
        assert a.counts == [2] and b.counts == [3]

    def test_apx2_ranged_wipe_before_melee_contact(self):
        shooters = army((make_unit("r", health=10, dps=50.0, ranged=True), 2))
        melee = army((make_unit("m", health=10, dps=100.0), 10))
        outcome = run_trial(shooters, melee, ModelId.APX2, random.Random(3))
        assert outcome.rounds == 1
        assert melee.counts == [0]
        assert shooters.counts == [2]


class TestEligibleCount:
    """After ``apply_pool`` and ``_lottery_kill``, ``(group, left)`` is what
    ``ArmyState.eligible`` gives for the defender's counts, so ``left`` is 0
    exactly when the defender has no unit alive: the one fact ``run_trial``
    reads to end a battle and name its winner."""

    CLASSES = (make_unit("m1", health=10), make_unit("r", health=15, ranged=True),
               make_unit("m2", health=20))

    def wipe_out(self, model, spend):
        """Spend on a defender of every start of up to 2 units a class until
        it is wiped out, checking ``(group, left)`` after each call; returns
        how often melee-first targeting moved on to the ranged class."""
        switches = 0
        for counts in product(range(3), repeat=len(self.CLASSES)):
            defender, rng = army(*zip(self.CLASSES, counts)), random.Random(sum(counts))
            group, left = defender.eligible(model, defender.counts)
            while left:
                before = group
                group, left = spend(defender, group, left, rng)
                assert (group, left) == defender.eligible(model, defender.counts)
                assert (left == 0) == (sum(defender.counts) == 0)
                switches += before == defender.melee != group and left > 0
        return switches

    @pytest.mark.parametrize("model", (ModelId.APX1, ModelId.APX4))
    @pytest.mark.parametrize("pool", [4.0, 12.0, 27.0, 100.0])
    def test_spend(self, model, pool):
        def spend(defender, group, left, rng):
            return engine.apply_pool(pool, defender, model, group, left, rng.random)

        switches = self.wipe_out(model, spend)
        # a pool of 100 kills every army here in one call
        assert bool(switches) == (model.melee_first and pool < 100)

    @pytest.mark.parametrize("model", (ModelId.APX1, ModelId.APX4))
    def test_lottery_kill(self, model):
        def spend(defender, group, left, rng):
            kill, table = engine._kill_odds(4.0, defender, group, left)
            return engine._lottery_kill(table, rng.random() * kill, defender, model, group, left)

        assert bool(self.wipe_out(model, spend)) == model.melee_first

    @pytest.mark.parametrize("model, rounds", [(ModelId.APX1, 1), (ModelId.APX4, 2)])
    def test_mutual_wipe_out_is_a_draw(self, model, rounds):
        # APX1: each side's pool of 20 kills both enemy units in round 1.
        # APX4: the ranged units' pools of 10 kill the melee units first, and
        # round 2 the ranged ones.
        units = (make_unit("m", health=10, dps=10.0),
                 make_unit("r", health=10, dps=10.0, ranged=True))
        for seed in range(20):
            a, b = army(*zip(units, (1, 1))), army(*zip(units, (1, 1)))
            outcome = run_trial(a, b, model, random.Random(seed))
            assert outcome == TrialOutcome(Winner.DRAW, (0, 0), (0, 0), rounds)


class TestLotteryRounds:
    """States after round 1 where no pool reaches the health of any eligible
    target: the trial skips their idle rounds by the geometric law."""

    @pytest.mark.parametrize("dps", [1e-17, 1e-300, 1e-320])
    def test_tiny_dps_attacker_wins(self, dps):
        # 1e-17: 1 - k rounds to 1.0, so log(q) would be 0; 1e-320: a
        # subnormal kill chance, whose idle count overflows a float
        a = army((make_unit("a", health=50, dps=dps), 1))
        b = army((make_unit("b", health=50, dps=0.0), 1))
        rng = random.Random(1)
        for _ in range(200):
            a.counts[:], b.counts[:] = a.initial_counts, b.initial_counts
            assert run_trial(a, b, ModelId.APX1, rng).winner is Winner.ARMY1

    def test_kill_chances_of_zero_are_a_stalemate(self):
        # a positive pool whose kill chance 5e-324 / 50 rounds to 0.0
        a = army((make_unit("a", health=50, dps=5e-324), 1))
        b = army((make_unit("b", health=50, dps=0.0), 1))
        assert compute_pool(a, b, ModelId.APX1, False) > 0.0
        with pytest.raises(StalemateError, match="round 2"):
            run_trial(a, b, ModelId.APX1, random.Random(0))

    def test_closed_form_duel(self, monkeypatch):
        # each round army1 kills with chance 25/100 and army2 with 10/50, so a
        # round decides with chance 1 - 0.75 * 0.8 = 0.4: win1 0.25 * 0.8 / 0.4,
        # draw 0.25 * 0.2 / 0.4, win2 0.75 * 0.2 / 0.4, and 1 / 0.4 rounds on average
        spends = []
        original = engine.apply_pool
        monkeypatch.setattr(engine, "apply_pool",
                            lambda *args: spends.append(1) or original(*args))
        a = army((make_unit("a", health=50, dps=25.0, ranged=True), 1))
        b = army((make_unit("b", health=100, dps=10.0, ranged=True), 1))
        n = 20_000
        wins, rounds, rng = {w: 0 for w in Winner}, [], random.Random(7)
        for _ in range(n):
            a.counts[:], b.counts[:] = a.initial_counts, b.initial_counts
            outcome = run_trial(a, b, ModelId.APX1, rng)
            wins[outcome.winner] += 1
            rounds.append(outcome.rounds)
        assert len(spends) == 2 * n  # only round 1 is played pick by pick
        exact = {Winner.ARMY1: 1 / 2, Winner.DRAW: 1 / 8, Winner.ARMY2: 3 / 8}
        p_values = [(w.name, binomial_p(wins[w], n, p)) for w, p in exact.items()]
        assert not bonferroni_failures(p_values, 1e-3), p_values
        # rounds: geometric with success 0.4, variance 0.6 / 0.4**2
        assert abs(sum(rounds) / n - 2.5) <= 4 * math.sqrt(3.75 / n)

    @pytest.mark.parametrize("model", list(ModelId))
    def test_lottery_heavy_battle_matches_oracle(self, model):
        # army1's pool of 11 (with bonus: up to 15) reaches only the 10-health
        # unit, and army2's pool of 10 no unit: every other state is a lottery
        comp1 = [(make_unit("a", health=40, dps=3.0, ranged=True, bonus=2.0,
                            bonus_vs=("armored",)), 2),
                 (make_unit("b", health=60, dps=5.0), 1)]
        comp2 = [(make_unit("c", health=50, dps=4.0, attrs=("armored",)), 2),
                 (make_unit("d", health=10, dps=2.0, ranged=True), 1)]
        exact = enumerate_compositions(comp1, comp2, model).as_floats()
        a, b = ArmyState(comp1), ArmyState(comp2)
        n = 10_000
        sampled, rng = {}, random.Random(11)
        for _ in range(n):
            a.counts[:], b.counts[:] = a.initial_counts, b.initial_counts
            outcome = run_trial(a, b, model, rng)
            key = (outcome.winner, outcome.survivors1, outcome.survivors2)
            sampled[key] = sampled.get(key, 0) + 1
        p_values = [(repr(o), binomial_p(sampled.get(o, 0), n, exact.get(o, 0.0)))
                    for o in set(exact) | set(sampled)]
        assert not bonferroni_failures(p_values, 1e-3), p_values


class TestRunTrial:
    def test_two_versus_one(self):
        # army1 pool 20 always covers the single 20-health defender;
        # the return fire of 4 kills one 5-health attacker 80% of the time
        ones = 0
        n = 10_000
        for i in range(n):
            a = army((make_unit("a", health=5, dps=10.0), 2))
            b = army((make_unit("b", health=20, dps=4.0), 1))
            outcome = run_trial(a, b, ModelId.APX1, random.Random(i))
            assert outcome.winner is Winner.ARMY1
            assert outcome.rounds == 1
            ones += outcome.survivors1 == (1,)
        assert abs(ones / n - 0.8) <= three_sigma(0.8, n)

    def test_mirror_exact_lethal_always_draws(self):
        for seed in range(50):
            a = army((make_unit("a", health=10, dps=10.0), 1))
            b = army((make_unit("b", health=10, dps=10.0), 1))
            outcome = run_trial(a, b, ModelId.APX1, random.Random(seed))
            assert outcome.winner is Winner.DRAW
            assert outcome.survivors1 == (0,) and outcome.survivors2 == (0,)

    def test_zero_dps_stalemate(self):
        a = army((make_unit("a", dps=0.0), 1))
        b = army((make_unit("b", dps=0.0), 1))
        with pytest.raises(StalemateError):
            run_trial(a, b, ModelId.APX1, random.Random(0))

    def test_zero_progress_is_a_stalemate_in_round_two(self, monkeypatch):
        calls = []
        original = engine.compute_pool
        monkeypatch.setattr(engine, "compute_pool",
                            lambda *args: calls.append(args) or original(*args))
        a = army((make_unit("a", dps=0.0), 1))
        b = army((make_unit("b", dps=0.0), 1))
        with pytest.raises(StalemateError, match="round 2"):
            run_trial(a, b, ModelId.APX1, random.Random(0))
        assert len(calls) == 4

    def test_melee_only_first_round_is_not_a_stalemate(self):
        # APX2: round one's pools are 0 for melee-only armies, round two's are not
        a = army((make_unit("a", health=10, dps=10.0), 1))
        b = army((make_unit("b", health=10, dps=10.0), 1))
        outcome = run_trial(a, b, ModelId.APX2, random.Random(0))
        assert outcome.winner is Winner.DRAW and outcome.rounds == 2

    def test_signature(self):
        assert list(inspect.signature(run_trial).parameters) == ["army1", "army2", "model", "rng"]

    @pytest.mark.parametrize("entries", [0, 3, None])  # None: the module's cap
    def test_round_pool_cache_changes_no_outcome(self, catalog, monkeypatch, entries):
        def trials(a, b, model, fresh):
            outcomes = []
            for index in range(40):
                if fresh:
                    a = army(*zip(a.classes, a.initial_counts))
                    b = army(*zip(b.classes, b.initial_counts))
                a.counts[:], b.counts[:] = a.initial_counts, b.initial_counts
                outcomes.append(run_trial(a, b, model, trial_rng(4, index)))
            return outcomes

        a = army((catalog["zealot"], 4), (catalog["stalker"], 3))
        b = army((catalog["marine"], 6), (catalog["marauder"], 2))
        cap = engine._POOL_CACHE_ENTRIES if entries is None else entries
        monkeypatch.setattr(engine, "_POOL_CACHE_ENTRIES", 0)
        expected = {m: trials(a, b, m, fresh=True) for m in ModelId}
        monkeypatch.setattr(engine, "_POOL_CACHE_ENTRIES", cap)
        for model in (*ModelId, ModelId.APX1):  # one state pair for every model
            assert trials(a, b, model, fresh=False) == expected[model]
            size = len(a._round_pools(b, model))
            assert size == entries if entries is not None else 3 < size <= cap
        # the state pair played the other way round keeps its own cache
        assert trials(b, a, ModelId.APX4, fresh=False) == trials(b, a, ModelId.APX4, fresh=True)

    def test_new_defender_starts_new_round_pools(self, catalog):
        # b and c have the same class counts, so their battle states share
        # cache keys; pools kept from the battles against b are wrong against c
        a = army((catalog["zealot"], 4), (catalog["stalker"], 3))
        b = army((catalog["marine"], 6), (catalog["marauder"], 2))
        c = army((catalog["zergling"], 6), (catalog["roach"], 2))

        def trials(attacker, defender):
            outcomes = []
            for index in range(40):
                attacker.counts[:] = attacker.initial_counts
                defender.counts[:] = defender.initial_counts
                outcomes.append(run_trial(attacker, defender, ModelId.APX4, trial_rng(4, index)))
            return outcomes

        trials(a, b)
        assert trials(a, c) == trials(army(*zip(a.classes, a.initial_counts)), c)

    def test_long_one_sided_battle_is_no_stalemate(self):
        # army1 kills one harmless unit a round: a sure win, however many
        # rounds it takes
        a = army((make_unit("a", health=10, dps=1.0), 1))
        b = army((make_unit("b", health=1, dps=0.0), 10_001))
        outcome = run_trial(a, b, ModelId.APX1, random.Random(0))
        assert outcome.winner is Winner.ARMY1 and outcome.rounds == 10_001

    def test_empty_army_rejected(self):
        a = army((make_unit("a"), 0))
        b = army((make_unit("b"), 1))
        with pytest.raises(ValueError):
            run_trial(a, b, ModelId.APX1, random.Random(0))


class TestArmyState:
    def test_counts_validated(self):
        with pytest.raises(ValueError):
            ArmyState([(make_unit("a"), -1)])

    @pytest.mark.parametrize("count", [2.5, True, "3"])
    def test_non_integer_counts_rejected(self, count):
        with pytest.raises(ValueError, match="integers"):
            ArmyState([(make_unit("a"), 2), (make_unit("b"), count)])

    @pytest.mark.parametrize("model, counts, expected", [
        (ModelId.APX4, [2, 3, 1], ((0, 2), 3)),
        (ModelId.APX4, [0, 3, 0], ((0, 1, 2), 3)),  # no melee left: every class
        (ModelId.APX1, [2, 3, 1], ((0, 1, 2), 6)),
        (ModelId.APX4, [0, 0, 0], ((0, 1, 2), 0)),
    ])
    def test_eligible_targets(self, model, counts, expected):
        state = army((make_unit("m1"), 2), (make_unit("r", ranged=True), 3), (make_unit("m2"), 1))
        assert state.eligible(model, counts) == expected

    def test_bonus_targets_built_once_per_opponent(self):
        attacker = army((make_unit("a", bonus=2.0, bonus_vs=("light",)), 1),
                        (make_unit("p"), 1))
        defender = army((make_unit("heavy", attrs=("armored",)), 1),
                        (make_unit("lite", attrs=("light",)), 1))
        bonus = attacker.eff_bonus_dps[0]
        table = attacker.bonus_targets(defender)
        assert table == ((0, (1,), bonus, False),)
        assert attacker.bonus_targets(defender) is table
        other = army((make_unit("lite", attrs=("light",)), 1))
        assert attacker.bonus_targets(other) == ((0, (0,), bonus, False),)

    def test_bonus_rows_follow_the_defenders_classes(self):
        attacker = army((make_unit("a", bonus=2.0, bonus_vs=("light",)), 1))
        light_first = army((make_unit("lite", attrs=("light",)), 1),
                           (make_unit("heavy", attrs=("armored",)), 1))
        light_last = army((make_unit("heavy", attrs=("armored",)), 1),
                          (make_unit("lite", attrs=("light",)), 3))
        assert bonus_pool(attacker, light_first, ranged_only=False) == 1.0
        # rows kept from light_first would count the 1 heavy unit: 0.5
        assert bonus_pool(attacker, light_last, ranged_only=False) == 1.5
        assert bonus_pool(attacker, light_first, ranged_only=False) == 1.0


class TestTrialOutcome:
    def test_fields_construction_immutability_and_repr(self):
        outcome = TrialOutcome(Winner.ARMY1, (2, 0), (0,), 3)
        assert outcome == TrialOutcome(winner=Winner.ARMY1, survivors1=(2, 0),
                                       survivors2=(0,), rounds=3)
        assert (outcome.winner, outcome.survivors1, outcome.survivors2, outcome.rounds) \
            == (Winner.ARMY1, (2, 0), (0,), 3)
        with pytest.raises(AttributeError):
            outcome.rounds = 4
        assert repr(outcome) == ("TrialOutcome(winner=<Winner.ARMY1: 'army1'>, "
                                 "survivors1=(2, 0), survivors2=(0,), rounds=3)")
