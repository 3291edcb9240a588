"""Simulation results and exact distributions pinned bit for bit.

A rewrite of the engine or the Monte Carlo loop must keep every float
operation and every random draw in the same order, so that a given
(seed, trials) gives the same results; a change that alters the random
streams or a model rule on purpose must say so and pin new digests. The
sampled digests were last re-pinned when one random stream came to serve
each 64-trial chunk and lottery states came to skip their idle rounds. The
exact-distribution digests were computed with the recursive oracle that
preceded forward mass propagation.
"""

import hashlib

from sc2combat import ExperimentSpec, MatchupSpec, ModelId, builtin_matchups, find_matchup
from sc2combat import run_experiment
from sc2combat import enumerate_compositions, sample_outcomes

GRID_DIGEST = "88571bcb522041d50f3d27a565cc783a673c8f7db73f02f51b9601333bcfeb44"
MIXED_4V4_DIGEST = "20b2a8dc233f6233e30e349ee16177d49a7967770fd58fc7cf7e4d40433aff10"
LONG_RUN_DIGEST = "d81e152ed2af9fbde599ed0ea89ea548ea34a27c28fb4d805e009cac3f4ed82f"

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


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


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
