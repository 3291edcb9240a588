"""Exact outcome distributions for small battles by exhaustive enumeration.

This is a brute-force cross-check for the sampling engine. It shares the
engine's rules core: each side is an engine ArmyState, whose effective stats
are built once per enumeration and whose ``eligible`` names the classes a
target is drawn from, and each round's damage pools come from
engine.compute_pool. What it does on its own is spend those pools: where
the engine's trial loop draws targets and kill rolls (engine._spend, or one
draw per played round in a lottery state), the enumeration works out every
target selection and probabilistic kill with exact rational arithmetic.
Comparing the two, through the sampled outcomes of
montecarlo.sample_outcomes, checks the engine's sampling.

A battle state is (counts1, counts2, first_round). The enumeration
propagates probability mass forward: it starts with mass 1 on the opening
state and expands each reachable state exactly once, pushing its mass
through one round's transitions to the successor states and adding the mass
that reaches a terminal state (one or both armies dead) to the result. Every
transition lowers the total unit count, except the move from the opening
round to the same counts in a later round, and that successor only enters
the queue once the opening state is expanded. So states are expanded in
order of falling unit total, and each state's mass is then complete when it
is expanded.

Rounds that change nothing on either side (possible when both pools are too
small to guarantee a kill) map a state to itself with some probability q.
The enumeration folds that loop analytically by dividing the state's mass by
1 - q before pushing it on, so it needs no round cap. A reachable state with
q == 1 can never progress and raises StalemateError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush

from .engine import ArmyState, ModelId, TargetPolicy, Winner, compute_pool
from .errors import EnumerationLimitError, StalemateError
from .scenarios import MatchupSpec, resolve_matchup
from .units import UnitCatalog, UnitClass

# (winner, survivors1, survivors2)
Outcome = tuple[Winner, tuple[int, ...], tuple[int, ...]]

_SUM_TOLERANCE = Fraction(1, 10**12)


@dataclass(frozen=True)
class EnumerationLimits:
    """Guard rails for the state-space expansion.

    ``max_units_per_side`` caps each army's starting unit count.
    EnumerationLimitError is raised when more than ``max_states`` distinct
    non-terminal states (counts1, counts2, first_round) would be expanded,
    so a battle with N reachable states passes at ``max_states=N``.
    """

    max_units_per_side: int = 4
    max_states: int = 20_000


@dataclass(frozen=True)
class ExactDistribution:
    """Exact probability of every terminal (winner, survivors) outcome."""

    outcomes: dict[Outcome, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        total = sum(self.outcomes.values(), Fraction(0))
        if abs(total - 1) > _SUM_TOLERANCE:
            raise AssertionError(f"outcome probabilities sum to {float(total)}, not 1")

    def probability(self, outcome: Outcome) -> Fraction:
        return self.outcomes.get(outcome, Fraction(0))

    def winner_probability(self, winner: Winner) -> Fraction:
        return sum(
            (p for (w, _, _), p in self.outcomes.items() if w is winner),
            Fraction(0),
        )

    def as_floats(self) -> dict[Outcome, float]:
        return {outcome: float(p) for outcome, p in self.outcomes.items()}

    def __repr__(self) -> str:
        # The exact Fractions of a mid-sized battle can outgrow Python's
        # int-to-str digit limit, so show the outcomes as floats.
        return f"ExactDistribution(as_floats={self.as_floats()!r})"


def _apply_distribution(pool: float, army: ArmyState, counts: tuple[int, ...],
                        policy: TargetPolicy) -> dict[tuple[int, ...], Fraction]:
    """Distribution of the counts left when ``pool`` is spent on ``army`` at
    ``counts``: every selection/kill branch, exactly, with targets drawn from
    the classes ``ArmyState.eligible`` names, as ``engine.apply_pool`` does."""
    out: dict[tuple[int, ...], Fraction] = {}

    def expand(pool: float, counts: tuple[int, ...], prob: Fraction) -> None:
        if pool <= 0 or not any(counts):
            out[counts] = out.get(counts, Fraction(0)) + prob
            return
        eligible, total = army.eligible(policy, counts)
        for i in eligible:
            if not counts[i]:
                continue
            p_select = prob * Fraction(counts[i], total)
            health = army.eff_health[i]
            killed = counts[:i] + (counts[i] - 1,) + counts[i + 1:]
            if pool >= health:
                expand(pool - health, killed, p_select)
            else:
                p_kill = Fraction(pool) / Fraction(health)
                out[killed] = out.get(killed, Fraction(0)) + p_select * p_kill
                out[counts] = out.get(counts, Fraction(0)) + p_select * (1 - p_kill)

    expand(pool, counts, Fraction(1))
    return out


def enumerate_compositions(comp1: list[tuple[UnitClass, int]],
                           comp2: list[tuple[UnitClass, int]],
                           model: ModelId,
                           limits: EnumerationLimits = EnumerationLimits()) -> ExactDistribution:
    """Exact outcome distribution for two resolved compositions."""
    army1, army2 = ArmyState(comp1), ArmyState(comp2)
    counts1, counts2 = army1.initial_counts, army2.initial_counts
    for side, counts in (("army1", counts1), ("army2", counts2)):
        if sum(counts) > limits.max_units_per_side:
            raise EnumerationLimitError(
                f"{side} has {sum(counts)} units; limit is {limits.max_units_per_side}"
            )
    if not any(counts1) or not any(counts2):
        raise ValueError("both armies must start with at least one unit")

    policy = model.target_policy
    # Pop by falling unit total; each state's mass is then complete when it
    # is expanded (see the module docstring).
    start = (counts1, counts2, True)
    mass: dict[tuple, Fraction] = {start: Fraction(1)}
    heap = [(-sum(counts1) - sum(counts2), start)]
    result: dict[Outcome, Fraction] = {}
    expanded = 0
    while heap:
        key = heappop(heap)[1]
        c1, c2, first_round = key
        expanded += 1
        if expanded > limits.max_states:
            raise EnumerationLimitError(f"more than {limits.max_states} battle states")

        army1.counts[:] = c1
        army2.counts[:] = c2
        pool1 = compute_pool(army1, army2, model, first_round)
        pool2 = compute_pool(army2, army1, model, first_round)
        dist2 = _apply_distribution(pool1, army2, c2, policy)
        dist1 = _apply_distribution(pool2, army1, c1, policy)
        self_prob = 0 if first_round else dist1.get(c1, 0) * dist2.get(c2, 0)
        if self_prob == 1:
            raise StalemateError("neither army can make progress from this state")
        scale = mass.pop(key) / (1 - self_prob)

        for n1, p1 in dist1.items():
            p1 *= scale
            alive1 = any(n1)
            for n2, p2 in dist2.items():
                alive2 = any(n2)
                if alive1 and alive2:
                    if n1 == c1 and n2 == c2 and not first_round:
                        continue
                    successor = (n1, n2, False)
                    if successor in mass:
                        mass[successor] += p1 * p2
                    else:
                        mass[successor] = p1 * p2
                        heappush(heap, (-sum(n1) - sum(n2), successor))
                else:
                    winner = Winner.ARMY1 if alive1 else Winner.ARMY2 if alive2 else Winner.DRAW
                    outcome = (winner, n1, n2)
                    result[outcome] = result.get(outcome, 0) + p1 * p2

    return ExactDistribution(result)


def enumerate_exact(matchup: MatchupSpec, model: ModelId, catalog: UnitCatalog,
                    limits: EnumerationLimits = EnumerationLimits()) -> ExactDistribution:
    """Exact outcome distribution for a matchup resolved against a catalog
    (for builtin matchups, the pairing pins each side's race)."""
    return enumerate_compositions(*resolve_matchup(matchup, catalog), model, limits)
