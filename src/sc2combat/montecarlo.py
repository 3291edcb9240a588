"""Deterministic Monte Carlo harness.

Trials are grouped in chunks of ``CHUNK`` consecutive trial indices, and
each chunk gets its own random stream, seeded by ``trial_seed``: the
BLAKE2b-128 digest of ``struct.pack("<QQ", master_seed, chunk)`` (both
taken mod 2**64), read as a little-endian integer. The trials of a chunk
draw from it one after another, in index order. One loop runs every trial:
it counts the terminal outcomes of a block of trials, which starts on a
chunk boundary and shares one pair of army states and with it the engine's
cache of round pools.
``run_experiments`` splits each spec into blocks of whole chunks, runs the
blocks of all specs on one process pool, and sums each spec's counts; every
trial sees the same stream however the trials were partitioned, and summing
is order-independent, so results are identical for any number of jobs.
``sample_outcomes`` returns the counts of one serial block.
"""

from __future__ import annotations

import os
import random
import struct
from collections import Counter
from typing import NamedTuple, Optional, Sequence

# ``import hashlib`` loads OpenSSL's libcrypto (about 3.4 MB of resident
# memory), while ``hashlib.blake2b`` is this same ``_blake2.blake2b``.
from _blake2 import blake2b

from .engine import ArmyState, ModelId, Outcome, Winner, run_trial
from .errors import StalemateError
from .scenarios import SEED_LIMIT, MatchupSpec, count_problem, resolve_matchup, seed_problem
from .units import UnitCatalog, UnitClass, validated

_SEED_MASK = SEED_LIMIT - 1

# Consecutive trials that draw from one random stream. Seeding a generator
# costs about a tenth of a short trial, so a stream serves a whole chunk.
CHUNK = 64


def trial_seed(master_seed: int, chunk: int) -> int:
    """Keyed, splittable derivation of the seed of one chunk of trials."""
    packed = struct.pack("<QQ", master_seed & _SEED_MASK, chunk & _SEED_MASK)
    return int.from_bytes(blake2b(packed, digest_size=16).digest(), "little")


def trial_rng(master_seed: int, chunk: int) -> random.Random:
    """The random stream of trials ``chunk * CHUNK`` to ``chunk * CHUNK + CHUNK - 1``."""
    return random.Random(trial_seed(master_seed, chunk))


@validated
class ExperimentSpec(NamedTuple):
    """N trials of one model on one matchup, reproducibly seeded."""

    matchup: MatchupSpec
    model: ModelId
    trials: int = 1000
    master_seed: int = 0

    def _check(self) -> None:
        if not isinstance(self.matchup, MatchupSpec):
            raise ValueError(f"matchup must be a MatchupSpec, got {self.matchup!r}")
        if not isinstance(self.model, ModelId):
            raise ValueError(f"model must be a ModelId, got {self.model!r}")
        if reason := (count_problem("trials", self.trials)
                      or seed_problem("master_seed", self.master_seed)):
            raise ValueError(reason)


class AggregateResult(NamedTuple):
    """Win/draw tallies and survivor sums over an experiment's trials.

    Stalemated trials count as draws and are additionally tallied in
    ``stalemate_count``. A trial stalemates when ``run_trial`` raises
    StalemateError: no kill is possible in a round after the first. Survivor
    sums add per-class counts over the finished trials, in which a side that
    did not win has no unit left, so ``mean_survivors*`` are win-conditioned
    means (None if that army never won).
    """

    spec: ExperimentSpec
    win1_count: int
    win2_count: int
    draw_count: int
    stalemate_count: int
    survivors1_sum: tuple[int, ...]
    survivors2_sum: tuple[int, ...]

    @property
    def trials(self) -> int:
        return self.spec.trials

    @property
    def win1(self) -> float:
        return self.win1_count / self.trials

    @property
    def win2(self) -> float:
        return self.win2_count / self.trials

    @property
    def draw(self) -> float:
        return self.draw_count / self.trials

    @property
    def reported_win1(self) -> float:
        """Win fraction with draws split evenly, as in the reference table."""
        return (self.win1_count + self.draw_count / 2) / self.trials

    @property
    def reported_win2(self) -> float:
        return 1.0 - self.reported_win1

    @property
    def mean_survivors1(self) -> tuple[float, ...] | None:
        return _mean_over_wins(self.survivors1_sum, self.win1_count)

    @property
    def mean_survivors2(self) -> tuple[float, ...] | None:
        return _mean_over_wins(self.survivors2_sum, self.win2_count)


def _mean_over_wins(sums: tuple[int, ...], wins: int) -> tuple[float, ...] | None:
    return tuple(s / wins for s in sums) if wins else None


Resolved = Sequence[tuple[UnitClass, int]]  # an army as (unit class, count) pairs


def _count_outcomes(comp1: Resolved, comp2: Resolved, model: ModelId, master_seed: int,
                    start: int, stop: int) -> Counter[Optional[Outcome]]:
    """How often each ``(winner, survivors1, survivors2)`` outcome ends the
    trials ``start:stop``, with None counting stalemates. ``start`` must be
    on a chunk boundary; each chunk's stream serves its trials in order.
    Both army states are built once and reset in place before each trial,
    so all the block's trials share their round-pool cache."""
    if start % CHUNK:
        raise ValueError(f"a block must start on a {CHUNK}-trial chunk boundary, got {start}")
    army1, army2 = ArmyState(comp1), ArmyState(comp2)
    counts: Counter[Optional[Outcome]] = Counter()
    for index in range(start, stop):
        if not index % CHUNK:
            rng = trial_rng(master_seed, index // CHUNK)
        army1.counts[:] = army1.initial_counts
        army2.counts[:] = army2.initial_counts
        try:
            outcome = run_trial(army1, army2, model, rng)
        except StalemateError:
            counts[None] += 1
        else:
            counts[outcome.winner, outcome.survivors1, outcome.survivors2] += 1
    return counts


def _aggregate(spec: ExperimentSpec, counts: Counter[Optional[Outcome]]) -> AggregateResult:
    wins: Counter[Winner] = Counter()
    survivors1, survivors2 = [0] * len(spec.matchup.army1), [0] * len(spec.matchup.army2)
    for outcome, n in counts.items():
        if outcome is None:
            continue
        winner, alive1, alive2 = outcome
        wins[winner] += n
        survivors1 = [s + n * a for s, a in zip(survivors1, alive1)]
        survivors2 = [s + n * a for s, a in zip(survivors2, alive2)]
    return AggregateResult(
        spec=spec,
        win1_count=wins[Winner.ARMY1],
        win2_count=wins[Winner.ARMY2],
        draw_count=wins[Winner.DRAW] + counts[None],
        stalemate_count=counts[None],
        survivors1_sum=tuple(survivors1),
        survivors2_sum=tuple(survivors2),
    )


def run_experiments(specs: Sequence[ExperimentSpec], catalog: UnitCatalog,
                    n_jobs: int = 1) -> list[AggregateResult]:
    """Run all trials of every experiment and aggregate each one.

    ``n_jobs`` > 1 splits each spec's trials into at most ``n_jobs`` blocks
    of whole ``CHUNK``-trial chunks (the last block may end mid-chunk) and
    runs the blocks of all specs on one pool of worker processes, no more of
    them than there are blocks or CPUs this process may use; where that is
    one, they run serially, with no pool. A spec's result is the sum of its blocks' outcome counts,
    so it is identical to a serial run for any ``n_jobs``.
    """
    if reason := count_problem("n_jobs", n_jobs):
        raise ValueError(reason)
    blocks = []  # (spec index, arguments of _count_outcomes)
    for k, spec in enumerate(specs):
        comp1, comp2 = resolve_matchup(spec.matchup, catalog)
        chunks = -(-spec.trials // CHUNK)
        size = -(-chunks // n_jobs) * CHUNK
        blocks += [(k, (comp1, comp2, spec.model, spec.master_seed,
                        start, min(start + size, spec.trials)))
                   for start in range(0, spec.trials, size)]
    totals: list[Counter[Optional[Outcome]]] = [Counter() for _ in specs]
    # the CPUs this process may run on, which a taskset or cpuset pin narrows
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(n_jobs, len(blocks), cpus)
    if workers <= 1:
        for k, args in blocks:
            totals[k].update(_count_outcomes(*args))
    else:
        # imported here: it loads multiprocessing, ~30 ms that serial runs need not pay
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [(k, pool.submit(_count_outcomes, *args)) for k, args in blocks]
            for k, future in futures:
                totals[k].update(future.result())
    return [_aggregate(spec, total) for spec, total in zip(specs, totals)]


def run_experiment(spec: ExperimentSpec, catalog: UnitCatalog,
                   n_jobs: int = 1) -> AggregateResult:
    """Run all trials of one experiment; see ``run_experiments``."""
    return run_experiments([spec], catalog, n_jobs)[0]


def sample_outcomes(spec: ExperimentSpec, catalog: UnitCatalog) -> dict[Outcome, int]:
    """Frequency of each terminal (winner, survivors1, survivors2) outcome.

    Counterpart of the oracle's ExactDistribution keys, for distribution-
    level comparisons. Raises StalemateError if a trial stalemates.
    """
    counts = _count_outcomes(*resolve_matchup(spec.matchup, catalog), spec.model,
                             spec.master_seed, 0, spec.trials)
    if None in counts:
        raise StalemateError("a trial ended in a stalemate")
    return dict(counts)
