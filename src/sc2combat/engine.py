"""Round-stepped damage-pool combat engine implementing models APX1-APX4.

All four models share one loop. Each one-second round, every army converts
its surviving units into a damage pool, and both pools (computed from the
start-of-round state, so damage lands simultaneously) are spent killing
randomly selected enemy units. A selected unit whose effective health fits
inside the remaining pool dies outright and shrinks the pool; otherwise it
dies with probability pool / health and the pool is exhausted either way.
No partial hit points are ever tracked: units are alive at full strength or
dead, and the probabilistic kill stands in for fractional damage carryover.

The models are additive refinements:

    APX1  damage pools with uniformly random targeting
    APX2  + only ranged units contribute to the first round's pool
          (free damage landed before melee contact)
    APX3  + bonus-damage pools, scaled by the fraction of enemy units
          carrying a vulnerable attribute (ranged-only on round one)
    APX4  + melee units are targeted before any ranged unit

A round's two pools depend only on the alive counts of both armies and on
whether it is the opening round, and the trials of one experiment replay
many of the same rounds. So ``run_trial`` keeps each round it computes in
a cache on army1's state, one per model, keyed by that exact battle state:
``(*counts1, *counts2, True)`` for an opening round and ``(*counts1,
*counts2)`` for a later one (each side's number of classes is fixed). A
side is bound to one defender's classes at a time
(``ArmyState.bonus_targets``); the binding holds its bonus rows and its
caches, and another defender starts both afresh. An opening entry also
holds both sides' eligible groups and unit totals, so a trial that starts
from cached counts, as every trial of a Monte Carlo block but its first
does, sets up nothing. A later round's entry also holds the state's kill
tables when it is a lottery state, a state where no pool can kill more
than one unit and the trial skips the rounds that kill nothing (see
``run_trial``). The army states of a Monte Carlo block are built once and
serve all its trials, so the block's trials share the cache. A hit
returns the very values a miss computes for that state, and a full cache
(``_POOL_CACHE_ENTRIES``) keeps its entries and computes other rounds
afresh, so results are bit-identical with or without it: every float
operation and every random draw happens in the same order either way.

A miss is cheaper where one side's counts repeat, as they do when a round
kills only on the other side: each ``ArmyState`` keeps a side memo of its
DPS sum keyed by its contributing counts (see ``compute_pool``), valid for
any defender, model and round and bounded and bit-identical in the same
way. The bonus pool depends on both sides; it reads per-defender rows
built by ``ArmyState.bonus_targets``.
"""

import enum
import math
import random
import sys
from typing import Callable, NamedTuple, Sequence

from .errors import StalemateError, quoted
from .units import UnitClass, effective_bonus_dps, effective_dps, effective_health, is_integer

# Entries one round-pool cache holds; a full cache stops growing. Bounds the
# memory of a block whose trials spread over many battle states.
_POOL_CACHE_ENTRIES = 1024

# Bound once: the trial loop reads them in every lottery step or trial.
_log = math.log
_FLOAT_MAX = sys.float_info.max
_tuple_new = tuple.__new__


class ModelId(enum.Enum):
    """The four approximation models; each adds one feature to the last."""

    APX1 = 1
    APX2 = 2
    APX3 = 3
    APX4 = 4
    __hash__ = object.__hash__  # members are singletons: Enum.__hash__ runs Python code

    def __init__(self, value: int) -> None:
        self.ranged_first_round = value >= 2  # only ranged units feed round one's pool
        self.bonus_pools = value >= 3  # attribute-bonus damage joins the pools
        self.melee_first = value >= 4  # melee units are targeted before ranged ones

    @classmethod
    def parse(cls, text: str) -> "ModelId":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown model: {quoted(text)} (expected apx1..apx4)") from None


class Winner(enum.Enum):
    ARMY1 = "army1"
    ARMY2 = "army2"
    DRAW = "draw"
    __hash__ = object.__hash__  # members are singletons: Enum.__hash__ runs Python code


Outcome = tuple[Winner, tuple[int, ...], tuple[int, ...]]  # (winner, survivors1, survivors2)


class TrialOutcome(NamedTuple):
    """Result of one simulated battle."""

    winner: Winner
    survivors1: tuple[int, ...]
    survivors2: tuple[int, ...]
    rounds: int


class ArmyState:
    """Per-class alive counts for one side, with derived stats cached.

    Mutable: the engine decrements ``counts`` in place. A new trial resets
    ``counts`` to ``initial_counts`` in place, so one state, its tables and
    its round-pool cache serve every trial of an experiment.
    """

    __slots__ = ("classes", "counts", "initial_counts", "eff_health", "eff_dps",
                 "eff_bonus_dps", "ranged", "melee", "indices", "_dps_sums",
                 "_against", "_bonus_rows", "_pools")

    def __init__(self, composition: Sequence[tuple[UnitClass, int]]):
        if any(not is_integer(count) or count < 0 for _, count in composition):
            raise ValueError("unit counts must be non-negative integers")
        self.classes: tuple[UnitClass, ...] = tuple(unit for unit, _ in composition)
        self.initial_counts: tuple[int, ...] = tuple(count for _, count in composition)
        self.counts: list[int] = list(self.initial_counts)
        self.eff_health: tuple[float, ...] = tuple(effective_health(u) for u in self.classes)
        self.eff_dps: tuple[float, ...] = tuple(effective_dps(u) for u in self.classes)
        self.eff_bonus_dps: tuple[float, ...] = tuple(effective_bonus_dps(u) for u in self.classes)
        self.ranged: tuple[bool, ...] = tuple(u.ranged for u in self.classes)
        self.melee: tuple[int, ...] = tuple(i for i, r in enumerate(self.ranged) if not r)
        self.indices: tuple[int, ...] = tuple(range(len(self.classes)))
        self._dps_sums: dict[tuple[int, ...], float] = {}  # see compute_pool
        self._against, self._bonus_rows, self._pools = None, (), {}  # see bonus_targets

    def bonus_targets(self, defender: "ArmyState") -> tuple[tuple, ...]:
        """The rows ``(i, js, bonus DPS of i, i is ranged)`` that ``bonus_pool``
        reads, one for each class ``i`` with bonus damage, ``js`` being the
        defender classes it gets bonus damage against. Built once per
        ``defender.classes`` object, so no attribute test runs per round. A
        new ``defender.classes`` also starts new round-pool caches, one per
        model in ``_pools`` (see the module docstring): this one binding ties
        both to the opponent."""
        if self._against is not defender.classes:
            self._against, self._pools = defender.classes, {}
            self._bonus_rows = tuple(
                (i, tuple(j for j, target in enumerate(defender.classes)
                          if not unit.bonus_vs.isdisjoint(target.attributes)),
                 self.eff_bonus_dps[i], self.ranged[i])
                for i, unit in enumerate(self.classes) if self.eff_bonus_dps[i] != 0.0)
        return self._bonus_rows

    def eligible(self, model: ModelId, counts: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """The classes the next target is drawn from when this side has
        ``counts`` alive, and how many units they hold: under a melee-first
        model the melee classes while any of them is alive, otherwise every
        class. A class in the result may have no unit alive."""
        if model.melee_first:
            alive = sum([counts[i] for i in self.melee])
            if alive:
                return self.melee, alive
        return self.indices, sum(counts)

    def survivors(self) -> tuple[int, ...]:
        return tuple(self.counts)


def bonus_pool(attacker: ArmyState, defender: ArmyState, ranged_only: bool) -> float:
    """Total bonus DPS, each contribution scaled by the fraction of
    defender units carrying a vulnerable attribute.

    The fraction is recomputed from current alive counts every round.
    """
    acounts, dcounts = attacker.counts, defender.counts
    defenders = sum(dcounts)
    if defenders == 0:
        return 0.0
    total = 0.0
    for i, targets, dps, ranged in attacker.bonus_targets(defender):
        if ranged_only and not ranged:
            continue
        vulnerable = 0
        for j in targets:
            vulnerable += dcounts[j]
        total += acounts[i] * dps * (vulnerable / defenders)
    return total


def compute_pool(attacker: ArmyState, defender: ArmyState,
                 model: ModelId, is_first_round: bool) -> float:
    """One round's damage pool for ``attacker``, per the model's rules: the
    DPS of the contributing classes, then the bonus pool added once.

    The DPS sum is memoized on the attacker, keyed by the contributing
    counts (melee ones read as 0 in a ranged-only opening round), for any
    defender, model and round, the oracle's too; a full memo
    (``_POOL_CACHE_ENTRIES``) keeps its entries and sums other counts
    afresh. Sums run left to right, never compensated, so a memo hit is the
    float a fresh sum gives."""
    ranged_only = model.ranged_first_round and is_first_round
    key = tuple(attacker.counts)
    if ranged_only:
        key = tuple([count if ranged else 0 for count, ranged in zip(key, attacker.ranged)])
    sums = attacker._dps_sums
    total = sums.get(key)
    if total is None:
        total = 0.0
        for count, dps in zip(key, attacker.eff_dps):
            total += count * dps
        if len(sums) < _POOL_CACHE_ENTRIES:
            sums[key] = total
    if model.bonus_pools:
        total += bonus_pool(attacker, defender, ranged_only)
    return total


def apply_pool(pool: float, defender: ArmyState, model: ModelId,
               group: tuple[int, ...], left: int,
               random: Callable[[], float]) -> tuple[tuple[int, ...], int]:
    """Spend a damage pool on the defender, killing units one at a time.

    ``group`` and ``left`` are the defender's eligible classes and the units
    they hold (``ArmyState.eligible``), carried from the last call; a caller
    starting from counts passes ``defender.eligible(model,
    defender.counts)``. Each target is one unit drawn uniformly from them by
    ``random()`` in [0, 1), and killed units cannot be re-selected. Returns
    the new ``(group, left)``; damage left after a wipe-out is discarded.
    A pool of 0 draws nothing. A ``left`` of 0 is refreshed, so it stays 0
    only when no unit is alive."""
    counts, health = defender.counts, defender.eff_health
    while pool > 0 and left:
        pick = random() * left
        for i in group:
            pick -= counts[i]
            if pick < 0:
                break
        else:  # rounding left pick >= 0: the last eligible class
            i = next(j for j in reversed(group) if counts[j])
        h = health[i]
        if pool < h:
            if random() >= pool / h:
                return group, left
            pool = 0.0
        else:
            pool -= h
        counts[i] -= 1
        left -= 1
        if not left:
            group, left = defender.eligible(model, counts)
    return group, left


def _kill_odds(pool: float, defender: ArmyState, group: tuple[int, ...],
               left: int) -> tuple[float, tuple[tuple[float, int], ...]] | None:
    """The chance that ``pool`` kills a unit of ``defender``, whose eligible
    classes ``group`` hold ``left`` units, and the cumulative kill table
    ``((k, i), ...)`` over the classes with a unit alive. Class i adds
    ``c_i/left * pool/h_i``. None unless ``pool`` is below the health of
    every such class, where spending it is one pick and one kill roll, and
    the chance rounds below 1, so that ``log1p(-k)`` is finite."""
    counts, health = defender.counts, defender.eff_health
    kill, table = 0.0, []
    for i in group:
        if counts[i]:
            h = health[i]
            if pool >= h:
                return None
            kill += counts[i] / left * (pool / h)
            table.append((kill, i))
    return (kill, tuple(table)) if kill < 1.0 else None


def _round_entry(army1: ArmyState, army2: ArmyState, model: ModelId,
                 group1: tuple[int, ...], left1: int,
                 group2: tuple[int, ...], left2: int) -> tuple:
    """The round-pool cache entry of a round after the first: both pools
    and, for a lottery state (see ``run_trial``), ``(log q, share1, k1,
    table1, k2, table2)`` from ``_kill_odds``, q being the chance the round
    kills nothing, else None; ``share1 = k1 / (1 - q)``, so side 1 surely
    kills when k2 is 0. The opening round's entry is built in ``run_trial``."""
    pool1 = compute_pool(army1, army2, model, False)
    pool2 = compute_pool(army2, army1, model, False)
    odds1 = _kill_odds(pool1, army2, group2, left2)
    odds2 = odds1 and _kill_odds(pool2, army1, group1, left1)
    if not odds2:
        return pool1, pool2, None
    (kill1, table1), (kill2, table2) = odds1, odds2
    decisive = kill1 + (1.0 - kill1) * kill2
    return pool1, pool2, (math.log1p(-kill1) + math.log1p(-kill2),
                          kill1 / decisive if decisive else 0.0, kill1, table1, kill2, table2)


def _lottery_kill(table: tuple[tuple[float, int], ...], pick: float, defender: ArmyState,
                  model: ModelId, group: tuple[int, ...], left: int) -> tuple[tuple[int, ...], int]:
    """Kill the unit of the first class whose cumulative odds in ``table``
    exceed ``pick``; returns the new ``(group, left)``, refreshed as in ``apply_pool``."""
    for odds, i in table:
        if pick < odds:
            break
    # else rounding left pick >= the last odds: the last class, as i holds
    counts = defender.counts
    counts[i] -= 1
    left -= 1
    if not left:
        group, left = defender.eligible(model, counts)
    return group, left


def run_trial(army1: ArmyState, army2: ArmyState,
              model: ModelId, rng: random.Random) -> TrialOutcome:
    """Simulate one battle to completion; mutates both army states.

    Each round computes both pools from the start-of-round state, army1's
    pool is spent on army2 and army2's on army1 (``apply_pool``), so both may
    end the round defeated. Pools come from army1's round-pool cache for
    ``model``, bound to ``army2.classes`` (see the module docstring); a side
    is wiped out when its eligible count is 0. The opening round's entry
    also holds both sides' eligible groups and unit totals; computing it
    raises ValueError for an empty army.

    A lottery state is one after round 1 where each side's pool is below
    the health of every alive eligible target: each round there is one pick
    and one kill roll a side, side s killing with chance k_s (``_kill_odds``)
    and the round killing nothing with chance q = (1 - k1)(1 - k2). The
    trial does not play those idle rounds one by one. It draws their number
    from the geometric law P(n) = q**n (1 - q), then which sides kill given
    that one does (side 1 with chance k1 / (1 - q); side 2 then with chance
    k2, and surely if side 1 does not), then each killed unit's class. This
    has the law of playing the rounds, and ``TrialOutcome.rounds`` counts
    the skipped rounds.

    Raises StalemateError in a lottery state where both kill chances are 0
    (both pools are 0 in a round after the first, say), as no round can
    change anything from then on; the oracle stalemates there too (q == 1).
    Every other trial ends: a round after the first that is not a lottery
    state has a side whose pool covers the health of some alive eligible
    class (or whose kill chance rounds to 1), so it kills with chance at
    least 1 / (eligible units), and each lottery step kills. A trial thus
    takes O(units**2) expected loop passes.
    """
    counts1, counts2 = army1.counts, army2.counts
    army1.bonus_targets(army2)
    pools = army1._pools.setdefault(model, {})
    key = (*counts1, *counts2, True)
    opening = pools.get(key)
    if opening is None:
        group1, left1 = army1.eligible(model, counts1)
        group2, left2 = army2.eligible(model, counts2)
        if not left1 or not left2:
            raise ValueError("both armies must start with at least one unit")
        opening = (compute_pool(army1, army2, model, True), compute_pool(army2, army1, model, True),
                   group1, left1, group2, left2)
        if len(pools) < _POOL_CACHE_ENTRIES:
            pools[key] = opening
    pool1, pool2, group1, left1, group2, left2 = opening
    draw = rng.random
    group2, left2 = apply_pool(pool1, army2, model, group2, left2, draw)
    group1, left1 = apply_pool(pool2, army1, model, group1, left1, draw)
    rounds = 1
    while left1 and left2:
        rounds += 1
        key = (*counts1, *counts2)
        entry = pools.get(key)
        if entry is None:
            entry = _round_entry(army1, army2, model, group1, left1, group2, left2)
            if len(pools) < _POOL_CACHE_ENTRIES:
                pools[key] = entry
        pool1, pool2, lottery = entry
        if lottery is not None:
            log_q, share1, kill1, table1, kill2, table2 = lottery
            if not (kill1 or kill2):
                raise StalemateError(f"no kill is possible in round {rounds}: no progress possible")
            # a kill chance below about 1e-308 can take the count past the
            # largest float; it then stays there
            rounds += int(min(_log(1.0 - draw()) / log_q, _FLOAT_MAX))
            if draw() < share1:
                group2, left2 = _lottery_kill(table1, draw() * kill1, army2, model, group2, left2)
                side2 = draw() < kill2
            else:
                side2 = True
            if side2:
                group1, left1 = _lottery_kill(table2, draw() * kill2, army1, model, group1, left1)
        else:
            group2, left2 = apply_pool(pool1, army2, model, group2, left2, draw)
            group1, left1 = apply_pool(pool2, army1, model, group1, left1, draw)
    winner = Winner.ARMY1 if left1 else Winner.ARMY2 if left2 else Winner.DRAW
    # the NamedTuple's own __new__ is a Python call; this builds the same record
    return _tuple_new(TrialOutcome, (winner, tuple(counts1), tuple(counts2), rounds))
