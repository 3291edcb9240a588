"""Deterministic Monte Carlo harness.

Each trial gets its own random stream, keyed by (master seed, trial index)
through a hash so that streams are independent of execution order: running
trials serially, in any order, or across worker processes produces the same
per-trial outcomes. Aggregation only ever sums integers, so merged partial
results are identical no matter how the trials were partitioned.
"""

from __future__ import annotations

import hashlib
import random
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .engine import ArmyState, ModelId, TrialOutcome, Winner, run_trial
from .errors import StalemateError
from .scenarios import MatchupSpec, resolve_matchup
from .units import UnitCatalog, UnitClass

SEED_LIMIT = 1 << 64  # master seeds lie in [0, SEED_LIMIT)
_SEED_MASK = SEED_LIMIT - 1


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Keyed, splittable derivation of one trial's seed."""
    packed = struct.pack("<QQ", master_seed & _SEED_MASK, trial_index & _SEED_MASK)
    return int.from_bytes(hashlib.blake2b(packed, digest_size=16).digest(), "little")


def trial_rng(master_seed: int, trial_index: int) -> random.Random:
    return random.Random(trial_seed(master_seed, trial_index))


@dataclass(frozen=True)
class ExperimentSpec:
    """N trials of one model on one matchup, reproducibly seeded."""

    matchup: MatchupSpec
    model: ModelId
    trials: int = 1000
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.master_seed < SEED_LIMIT:
            raise ValueError(f"master_seed must be in [0, 2**64), got {self.master_seed}")


@dataclass(frozen=True)
class AggregateResult:
    """Win/draw tallies and survivor sums over an experiment's trials.

    Stalemated trials (round cap hit with both armies standing) count as
    draws and are additionally tallied in ``stalemate_count``. Survivor
    sums accumulate per-class counts only over trials the army won, so
    ``mean_survivors*`` are win-conditioned means (None if that army never
    won).
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
        if self.win1_count == 0:
            return None
        return tuple(s / self.win1_count for s in self.survivors1_sum)

    @property
    def mean_survivors2(self) -> tuple[float, ...] | None:
        if self.win2_count == 0:
            return None
        return tuple(s / self.win2_count for s in self.survivors2_sum)


class _Tally:
    """Order-independent integer accumulators for trial outcomes."""

    __slots__ = ("win1", "win2", "draw", "stalemate", "survivors1", "survivors2")

    def __init__(self, classes1: int, classes2: int):
        self.win1 = 0
        self.win2 = 0
        self.draw = 0
        self.stalemate = 0
        self.survivors1 = [0] * classes1
        self.survivors2 = [0] * classes2

    def record(self, outcome: TrialOutcome | None) -> None:
        """Tally one trial; None stands for a stalemate, counted as a draw."""
        if outcome is None:
            self.draw += 1
            self.stalemate += 1
        elif outcome.winner is Winner.ARMY1:
            self.win1 += 1
            for i, count in enumerate(outcome.survivors1):
                self.survivors1[i] += count
        elif outcome.winner is Winner.ARMY2:
            self.win2 += 1
            for i, count in enumerate(outcome.survivors2):
                self.survivors2[i] += count
        else:
            self.draw += 1

    def merge(self, other: "_Tally") -> None:
        self.win1 += other.win1
        self.win2 += other.win2
        self.draw += other.draw
        self.stalemate += other.stalemate
        self.survivors1 = [a + b for a, b in zip(self.survivors1, other.survivors1)]
        self.survivors2 = [a + b for a, b in zip(self.survivors2, other.survivors2)]


Resolved = Sequence[tuple[UnitClass, int]]  # an army as (unit class, count) pairs


def _trials(comp1: Resolved, comp2: Resolved, model: ModelId,
            master_seed: int, start: int, stop: int) -> Iterator[TrialOutcome | None]:
    """Outcome of each trial in ``start:stop``, None for a stalemate. Both
    army states are built once and reset in place before each trial."""
    army1, army2 = ArmyState(comp1), ArmyState(comp2)
    for index in range(start, stop):
        army1.counts[:] = army1.initial_counts
        army2.counts[:] = army2.initial_counts
        try:
            yield run_trial(army1, army2, model, trial_rng(master_seed, index))
        except StalemateError:
            yield None


def _run_block(comp1: Resolved, comp2: Resolved, model: ModelId,
               master_seed: int, start: int, stop: int) -> _Tally:
    tally = _Tally(len(comp1), len(comp2))
    for outcome in _trials(comp1, comp2, model, master_seed, start, stop):
        tally.record(outcome)
    return tally


def _blocks(trials: int, n_jobs: int) -> Iterable[tuple[int, int]]:
    size = -(-trials // n_jobs)
    for start in range(0, trials, size):
        yield start, min(start + size, trials)


def run_experiment(spec: ExperimentSpec, catalog: UnitCatalog,
                   n_jobs: int = 1) -> AggregateResult:
    """Run all trials of an experiment and aggregate them.

    ``n_jobs`` > 1 splits the trial range across worker processes; the
    result is identical to a serial run.
    """
    comp1, comp2 = resolve_matchup(spec.matchup, catalog)
    total = _Tally(len(comp1), len(comp2))
    if n_jobs <= 1 or spec.trials == 1:
        total.merge(_run_block(comp1, comp2, spec.model, spec.master_seed, 0, spec.trials))
    else:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            futures = [
                pool.submit(_run_block, comp1, comp2, spec.model,
                            spec.master_seed, start, stop)
                for start, stop in _blocks(spec.trials, n_jobs)
            ]
            for future in futures:
                total.merge(future.result())

    return AggregateResult(
        spec=spec,
        win1_count=total.win1,
        win2_count=total.win2,
        draw_count=total.draw,
        stalemate_count=total.stalemate,
        survivors1_sum=tuple(total.survivors1),
        survivors2_sum=tuple(total.survivors2),
    )


def sample_outcomes(spec: ExperimentSpec, catalog: UnitCatalog) -> dict[tuple, int]:
    """Frequency of each terminal (winner, survivors1, survivors2) outcome.

    Counterpart of the oracle's ExactDistribution keys, for distribution-
    level comparisons. Raises StalemateError if a trial stalemates.
    """
    counts: dict[tuple, int] = {}
    for outcome in _trials(*resolve_matchup(spec.matchup, catalog), spec.model,
                           spec.master_seed, 0, spec.trials):
        if outcome is None:
            raise StalemateError("a trial ended in a stalemate")
        key = (outcome.winner, outcome.survivors1, outcome.survivors2)
        counts[key] = counts.get(key, 0) + 1
    return counts
