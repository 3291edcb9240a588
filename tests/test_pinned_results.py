"""Simulation results pinned bit for bit.

A rewrite of the engine or the Monte Carlo loop must keep every float
operation and every random draw in the same order, so that a given
(seed, trials) gives the same results. These digests were computed before
the engine's hot path was rewritten around per-experiment tables; a change
that alters the random streams or a model rule on purpose must say so and
pin new digests.
"""

import hashlib

from sc2combat import ExperimentSpec, MatchupSpec, ModelId, builtin_matchups, run_experiment
from sc2combat import sample_outcomes

GRID_DIGEST = "3d71ce5ff3fdb85c94fe265c0a4a9eea73393ac98c888d52a24ab8101649f176"
MIXED_4V4_DIGEST = "63478e76393bf93fa7385007bf2ed6d1820ec391500e2d94a7a43a4af1c54c58"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_grid_results_are_pinned(catalog):
    """The 12 builtin matchups x APX1-APX4, 20 trials each at seed 0."""
    results = [run_experiment(ExperimentSpec(m, model, 20, 0), catalog)
               for m in builtin_matchups() for model in ModelId]
    assert len(results) == 48
    assert sha256("\n".join(map(repr, results))) == GRID_DIGEST


def test_sampled_outcomes_are_pinned(catalog):
    """Terminal-outcome frequencies of a mixed 4v4 under APX4, 500 trials at seed 0."""
    spec = ExperimentSpec(MatchupSpec(army1=(("zealot", 2), ("stalker", 2)),
                                      army2=(("marine", 2), ("marauder", 2))),
                          ModelId.APX4, 500, 0)
    counts = sample_outcomes(spec, catalog)
    assert sum(counts.values()) == 500
    assert sha256(repr(sorted(counts.items(), key=repr))) == MIXED_4V4_DIGEST
