"""Exact outcome distributions for small battles by exhaustive enumeration.

This is a brute-force cross-check for the sampling engine. It shares the
engine's rules core: each side is an engine ArmyState, whose effective stats
are built once per enumeration and whose ``eligible`` names the classes a
target is drawn from, and each round's damage pools come from
engine.compute_pool. What it does on its own is spend those pools: where
the engine's trial loop draws targets and kill rolls (engine.apply_pool, or one
draw per played round in a lottery state), the enumeration works out every
target selection and probabilistic kill exactly, over nodes (pool left,
counts left), one level per sure kill. Branches that meet at a node merge,
as nothing else decides what follows, so a pool costs its distinct nodes,
not its kill orders; the float pool in the key keeps apart kill orders
that round differently. Comparing the two, through the sampled outcomes of
montecarlo.sample_outcomes, checks the engine's sampling.

A battle state is the pair (counts1, counts2). The enumeration propagates
probability mass forward: it starts with mass 1 on the opening state and
expands each reachable state once, pushing its mass through one round's
transitions to the successor states and adding the mass that reaches a
terminal state (one or both armies dead) to the result. Pending states wait
in one table per unit total, and the tables are emptied from the highest
total down. Every transition lowers the total unit count, except the move
from the opening round to the same counts in a later round: that successor
joins the opening state's table after the opening state has left it, and
is expanded once more as a later round. So each state's mass is complete
when it is expanded. The opening state is the first state expanded, and
the only one whose round is a first round.

Rounds that change nothing on either side (possible when both pools are too
small to guarantee a kill) map a state to itself with some probability q.
The enumeration folds that loop analytically by dividing the state's mass by
1 - q before pushing it on, so it needs no round cap. A reachable state with
q == 1 can never progress and raises StalemateError.

Probabilities are exact integer arithmetic, carried unreduced. A mass, of a
state, an outcome or a spending node, is a triple (n, d, u) worth
n / (d * prod(factors[k] for k in u)): d gathers the small denominators of
selection odds and kill chances; factors[k] is the numerator of 1 - q, in
lowest terms, at the k-th folded state, where the large factors come from;
and u holds the indices of the folded states on the paths in. A factor is
keyed by the state that made it, not by its value, since distinct states
(of a mirror battle, say) can share a 1 - q. Two masses add over the lcm of
their d and the union of their index sets, each numerator times the factors
it lacks, so no step takes the gcd of two large numbers, as a Fraction does
on every operation. Each outcome is reduced once, to a Fraction equal to
the one that step-by-step Fraction arithmetic gives. The outcome triples
are added the same way into one total, which must equal 1 exactly.
"""

from math import gcd, lcm, prod
from typing import TYPE_CHECKING, NamedTuple

from .engine import ArmyState, ModelId, Outcome, TargetPolicy, Winner, compute_pool
from .errors import EnumerationLimitError, StalemateError
from .scenarios import MatchupSpec, resolve_matchup
from .units import UnitCatalog, UnitClass

if TYPE_CHECKING:
    from fractions import Fraction

# An unreduced probability (n, d, u): n / (d * prod(factors[k] for k in u))
_Mass = tuple[int, int, frozenset[int]]


class EnumerationLimits(NamedTuple):
    """Guard rails for the state-space expansion.

    ``max_units_per_side`` caps each army's starting unit count.
    EnumerationLimitError is raised when more than ``max_states``
    non-terminal states (counts1, counts2) would be expanded, the opening
    counts counting twice when the opening round kills nothing, so a
    battle with N expansions passes at ``max_states=N``.
    """

    max_units_per_side: int = 4
    max_states: int = 20_000


class ExactDistribution(NamedTuple):
    """Exact probability of every terminal (winner, survivors) outcome."""

    outcomes: dict[Outcome, "Fraction"]

    def winner_probability(self, winner: Winner) -> "Fraction":
        # imported here: it loads decimal, ~3 ms that only exact runs need pay
        from fractions import Fraction
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
                        policy: TargetPolicy) -> tuple[dict[tuple[int, ...], int], int]:
    """Distribution of the counts left when ``pool`` is spent on ``army`` at
    ``counts``: every selection/kill branch, exactly, with targets drawn from
    the classes ``ArmyState.eligible`` names, as ``engine.apply_pool`` does.
    Returned as integer weights over one denominator, in lowest terms."""
    no_factors: frozenset[int] = frozenset()
    nodes: dict[tuple[float, tuple[int, ...]], _Mass] = {(pool, counts): (1, 1, no_factors)}
    left: dict[tuple[int, ...], _Mass] = {}
    while nodes:
        after: dict = {}  # the nodes one more sure kill on
        for (pool, counts), (num, den, _) in nodes.items():
            if pool <= 0 or not any(counts):
                _add_mass(left, counts, num, den, no_factors, [])
                continue
            eligible, total = army.eligible(policy, counts)
            for i in eligible:
                if not counts[i]:
                    continue
                n, d = num * counts[i], den * total
                health = army.eff_health[i]
                killed = counts[:i] + (counts[i] - 1,) + counts[i + 1:]
                if pool >= health:
                    _add_mass(after, (pool - health, killed), n, d, no_factors, [])
                else:  # kill with chance pool / health, both floats taken exactly
                    pool_n, pool_d = pool.as_integer_ratio()
                    health_n, health_d = health.as_integer_ratio()
                    kill, d = pool_n * health_d, d * pool_d * health_n
                    _add_mass(left, killed, n * kill, d, no_factors, [])
                    _add_mass(left, counts, n * (pool_d * health_n - kill), d, no_factors, [])
        nodes = after
    denominator = lcm(*(d for _, d, _ in left.values()))
    weights = {counts: n * (denominator // d) for counts, (n, d, _) in left.items()}
    g = gcd(denominator, *weights.values())
    return {counts: w // g for counts, w in weights.items()}, denominator // g


def _add_mass(masses: dict, key, n: int, d: int, u: frozenset[int],
              factors: list[int]) -> None:
    """Add the mass ``(n, d, u)`` to ``masses[key]``: over the lcm of the
    small denominators and the union of the factor sets, each numerator
    times the factors it lacks."""
    old = masses.get(key)
    if old is not None:
        n0, d0, u0 = old
        g = gcd(d0, d)
        n0 *= d // g
        n *= d0 // g
        d *= d0 // g
        for k in u - u0:
            n0 *= factors[k]
        for k in u0 - u:
            n *= factors[k]
        u = u0 | u
        n += n0
    masses[key] = (n, d, u)


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
    # Pending states by unit total, expanded from the highest total down
    # (see the module docstring).
    top = sum(counts1) + sum(counts2)
    pending: list[dict[tuple, _Mass]] = [{} for _ in range(top + 1)]
    pending[top][counts1, counts2] = (1, 1, frozenset())
    factors: list[int] = []  # numerator of 1 - q at the k-th folded state
    result: dict[Outcome, _Mass] = {}
    expanded = 0
    for bucket in reversed(pending):
        while bucket:
            (c1, c2), (n, d, u) = bucket.popitem()
            first_round = expanded == 0
            expanded += 1
            if expanded > limits.max_states:
                raise EnumerationLimitError(f"more than {limits.max_states} battle states")

            army1.counts[:] = c1
            army2.counts[:] = c2
            pool1 = compute_pool(army1, army2, model, first_round)
            pool2 = compute_pool(army2, army1, model, first_round)
            dist2, den2 = _apply_distribution(pool1, army2, c2, policy)
            dist1, den1 = _apply_distribution(pool2, army1, c1, policy)
            joint = den1 * den2
            self_weight = 0 if first_round else dist1.get(c1, 0) * dist2.get(c2, 0)
            if self_weight == joint:
                raise StalemateError("neither army can make progress from this state")
            # divide by 1 - q = rest / joint = (rest / g) / (joint / g); with no
            # self-loop, rest == g == joint and no factor is kept
            rest = joint - self_weight
            g = gcd(rest, joint)
            d *= g
            if rest != g:
                u = u | {len(factors)}
                factors.append(rest // g)

            for n1, w1 in dist1.items():
                num1 = n * w1
                alive1 = any(n1)
                for n2, w2 in dist2.items():
                    alive2 = any(n2)
                    num = num1 * w2
                    if alive1 and alive2:
                        if n1 == c1 and n2 == c2 and not first_round:
                            continue
                        _add_mass(pending[sum(n1) + sum(n2)], (n1, n2), num, d, u, factors)
                    else:
                        winner = Winner.ARMY1 if alive1 else Winner.ARMY2 if alive2 else Winner.DRAW
                        _add_mass(result, (winner, n1, n2), num, d, u, factors)

    # the outcomes must sum to exactly 1, checked on the unreduced triples
    total = {None: (0, 1, frozenset())}
    for n, d, u in result.values():
        _add_mass(total, None, n, d, u, factors)
    n, d, u = total[None]
    whole = d * prod(factors[k] for k in u)
    if n != whole:
        raise AssertionError(f"outcome probabilities sum to {n / whole}, not 1")
    # imported here: it loads decimal, ~3 ms that only exact runs need pay
    from fractions import Fraction
    return ExactDistribution({outcome: Fraction(n, d * prod(factors[k] for k in u))
                              for outcome, (n, d, u) in result.items()})


def enumerate_exact(matchup: MatchupSpec, model: ModelId, catalog: UnitCatalog,
                    limits: EnumerationLimits = EnumerationLimits()) -> ExactDistribution:
    """Exact outcome distribution for a matchup resolved against a catalog
    (for builtin matchups, the pairing pins each side's race)."""
    return enumerate_compositions(*resolve_matchup(matchup, catalog), model, limits)
