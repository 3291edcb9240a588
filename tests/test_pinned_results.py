"""Simulation results and exact distributions pinned bit for bit.

A rewrite of the engine or the Monte Carlo loop must keep every float
operation and every random draw in the same order, so that a given
(seed, trials) gives the same results; a change that alters the random
streams or a model rule on purpose must say so and pin new digests. The
sampled digests were last re-pinned when one random stream came to serve
each 64-trial chunk and lottery states came to skip their idle rounds. The
exact-distribution digests were computed with the recursive oracle that
preceded forward mass propagation, and hold unedited under the unreduced
integer arithmetic that replaced step-by-step Fractions. The big-fraction
digests were taken with step-by-step Fractions, before that change. The
zero-pool digests were taken while the trial loop still skipped spending a
pool of 0, which draws nothing either way.
"""

from sc2combat import EnumerationLimits, ExperimentSpec, MatchupSpec, ModelId, Race, UnitCatalog
from sc2combat import builtin_matchups, enumerate_compositions, find_matchup, run_experiment
from sc2combat import sample_outcomes

from conftest import make_unit, sha256

GRID_DIGEST = "88571bcb522041d50f3d27a565cc783a673c8f7db73f02f51b9601333bcfeb44"
MIXED_4V4_DIGEST = "20b2a8dc233f6233e30e349ee16177d49a7967770fd58fc7cf7e4d40433aff10"
LONG_RUN_DIGEST = "d81e152ed2af9fbde599ed0ea89ea548ea34a27c28fb4d805e009cac3f4ed82f"

# Battles with rounds whose pool is 0, which must spend nothing and draw
# nothing: the opening round of a melee-only army under APX2-APX4, on one
# side and on both, and every round of a side with no DPS. One digest covers
# the results and sampled outcomes of all four models.
ZERO_POOL_DIGESTS = {
    "melee-only army1":
        "682c012b5bf928b181413b4a4d6f1c7431a314153956c073365f1105d39adc9a",
    "melee-only armies":
        "4f814f36e25c1c385e6c5a5ab72b7a04be2719154729e35a1ea1cec357ad728f",
    "zero-DPS army1":
        "752bd1b06c00fca9d608b7530578c8b63e37fbf48e0c52b2ce1c988e86bd06e1",
}

# Mixed battles of melee, ranged and bonus units; one digest covers the
# sorted outcomes of all four models.
EXACT_DIGESTS = {
    ((("zealot", 2), ("stalker", 2)), (("marine", 2), ("marauder", 2))):
        "a904e3abdff70d32377660cc5a933dec2ef1b8959a909f620ac5e355ea9d1add",
    ((("zealot", 3), ("stalker", 1)), (("zergling", 3), ("roach", 1))):
        "c7ed8fa38b0c294cf1456996e170ed139557169943ce6bdcdadeb79369541817",
    ((("marine", 3), ("marauder", 1)), (("zergling", 2), ("roach", 2))):
        "2aa39d011a8732ca1014340e8787677c33cb1277a6685798e2a921879bffbfb7",
    ((("zealot", 2), ("archon", 1)), (("marine", 3), ("hellion", 1))):
        "b0a099e9942f559c5eeee4e62325aa6aebcf36b694e9151cb87b3e5af698f234",
    ((("stalker", 2), ("sentry", 2)), (("hydralisk", 2), ("roach", 2))):
        "9bb64db58a83f29880385485e8588afd399fe213d909e06ece6b2be70a850583",
}

# Exact distributions whose denominators run to thousands of bits. The first
# three are lottery-heavy battles of made-up units: every pool is below every
# health, so most states fold a self-loop; the mirror battle has distinct
# states with equal self-loop chances. One digest covers all four models.
# "big denominators" is a catalog battle under APX4 whose outcome
# denominators reach 9,002 bits.
BIG_FRACTION_DIGESTS = {
    "mixed 3+2 vs 2+4":
        "065b5fd69cd764f3098f5603bfccc43a60f62de099c150c52cf7778e8146f992",
    "mixed 2+2 vs 3+2":
        "904953d668e3aa6a47313a6d84228e3356618ab3e48be20ceb64ac661f315a7c",
    "mirror 3+2":
        "9ab5a9c6ec623ae95cc79360cbb8313a74aa9e4847b93db90ac1d7d16241a9fb",
    "big denominators":
        "7172c1f3b8931fab043bf9af9840613c4eada9e0a157d39cb4187a9494da0c28",
}


def test_grid_results_are_pinned(catalog):
    """The 12 builtin matchups x APX1-APX4, 20 trials each at seed 0."""
    results = [run_experiment(ExperimentSpec(m, model, 20, 0), catalog)
               for m in builtin_matchups() for model in ModelId]
    assert len(results) == 48
    assert sha256("\n".join(map(repr, results))) == GRID_DIGEST


def test_long_runs_are_pinned(catalog):
    """One builtin matchup per model, 1000 trials each at seed 0: long blocks,
    which revisit battle states and fill the round-pool cache."""
    specs = [((1, "PvT"), ModelId.APX1), ((2, "TvZ"), ModelId.APX2),
             ((3, "PvZ"), ModelId.APX3), ((4, "TvZ"), ModelId.APX4)]
    results = [run_experiment(ExperimentSpec(find_matchup(*m), model, 1000, 0), catalog)
               for m, model in specs]
    assert sha256("\n".join(map(repr, results))) == LONG_RUN_DIGEST


def test_sampled_outcomes_are_pinned(catalog):
    """Terminal-outcome frequencies of a mixed 4v4 under APX4, 500 trials at seed 0."""
    spec = ExperimentSpec(MatchupSpec(army1=(("zealot", 2), ("stalker", 2)),
                                      army2=(("marine", 2), ("marauder", 2))),
                          ModelId.APX4, 500, 0)
    counts = sample_outcomes(spec, catalog)
    assert sum(counts.values()) == 500
    assert sha256(repr(sorted(counts.items(), key=repr))) == MIXED_4V4_DIGEST


def test_zero_pool_rounds_are_pinned(catalog):
    """300 trials at seed 5 under each model; the decoy has health 10 and no DPS."""
    decoy = make_unit("decoy", health=10, dps=0.0, race=Race.PROTOSS)
    with_decoy = UnitCatalog([*catalog, decoy])
    battles = {
        "melee-only army1": ((("zealot", 2), ("zergling", 3)), (("marine", 3), ("marauder", 2))),
        "melee-only armies": ((("zealot", 2),), (("zergling", 4), ("ultralisk", 1))),
        "zero-DPS army1": ((("decoy", 3),), (("zergling", 2), ("marine", 1))),
    }
    for name, (army1, army2) in battles.items():
        lines = []
        for model in ModelId:
            spec = ExperimentSpec(MatchupSpec(army1=army1, army2=army2), model, 300, 5)
            counts = sample_outcomes(spec, with_decoy)
            lines += [repr(run_experiment(spec, with_decoy)),
                      repr(sorted(counts.items(), key=repr))]
        assert sha256("\n".join(lines)) == ZERO_POOL_DIGESTS[name], name


def exact_digest(army1, army2, catalog) -> str:
    comp1 = [(catalog[name], count) for name, count in army1]
    comp2 = [(catalog[name], count) for name, count in army2]
    return sha256("\n".join(
        repr(sorted(enumerate_compositions(comp1, comp2, model).outcomes.items(), key=repr))
        for model in ModelId))


def test_exact_distributions_pinned(catalog):
    """Exact outcome distributions of mixed battles up to 4 units a side."""
    for (army1, army2), digest in EXACT_DIGESTS.items():
        assert exact_digest(army1, army2, catalog) == digest, (army1, army2)


def big_fraction_battles(catalog) -> dict[str, tuple[list, list, tuple[ModelId, ...]]]:
    big = make_unit("big", health=100, dps=1.3, attrs=("armored",))
    sniper = make_unit("sniper", health=60, dps=0.7, ranged=True)
    guard = make_unit("guard", health=80, dps=1.1, ranged=True)
    brute = make_unit("brute", health=45, dps=0.9, bonus=0.4, bonus_vs=("armored",))
    protoss = [(catalog["zealot"], 3), (catalog["stalker"], 3)]
    terran = [(catalog["marine"], 3), (catalog["marauder"], 3)]
    return {
        "mixed 3+2 vs 2+4": ([(big, 3), (sniper, 2)], [(guard, 2), (brute, 4)], tuple(ModelId)),
        "mixed 2+2 vs 3+2": ([(big, 2), (sniper, 2)], [(guard, 3), (brute, 2)], tuple(ModelId)),
        "mirror 3+2": ([(big, 3), (sniper, 2)], [(big, 3), (sniper, 2)], tuple(ModelId)),
        "big denominators": (protoss, terran, (ModelId.APX4,)),
    }


def hex_digest(comp1, comp2, models) -> str:
    """Digest of the sorted outcomes with each probability's numerator and
    denominator in hex: repr of a Fraction past 4300 digits raises ValueError."""
    limits = EnumerationLimits(max_units_per_side=6)
    return sha256("\n".join(
        f"{model.name} {outcome!r} {p.numerator:x} {p.denominator:x}"
        for model in models
        for outcome, p in sorted(enumerate_compositions(comp1, comp2, model, limits)
                                 .outcomes.items(), key=lambda item: repr(item[0]))))


def test_big_fraction_distributions_pinned(catalog):
    """Exact distributions whose denominators are products of many folded
    self-loop factors."""
    for name, (comp1, comp2, models) in big_fraction_battles(catalog).items():
        assert hex_digest(comp1, comp2, models) == BIG_FRACTION_DIGESTS[name], name
