"""Benchmark matchups, bundled reference results, and the scenario file format.

The twelve benchmark matchups come in four rounds of increasing army
complexity, three race pairings each (PvT, TvZ, PvZ). The reference table
bundles, for every matchup, the win rates and mean surviving compositions
observed in scripted in-game test battles plus the predictions of the four
approximation models. Both live as YAML data files so transcription fixes
are diffable, and are validated against count and sum invariants at load.
"""

from pathlib import Path
from typing import NamedTuple

from .engine import ArmyState, ModelId
from .errors import ScenarioError, listed, quoted
from .units import Race, UnitCatalog, UnitClass, bundled_yaml, is_integer, read_yaml, validated

PAIRINGS = ("PvT", "TvZ", "PvZ")
ROUNDS = (1, 2, 3, 4)
ROW_TYPES = ("Test", *(model.name for model in ModelId))

_RACE_BY_LETTER = {"P": Race.PROTOSS, "T": Race.TERRAN, "Z": Race.ZERG}

Composition = tuple[tuple[str, int], ...]
SEED_LIMIT = 1 << 64  # seeds lie in [0, SEED_LIMIT)


def count_problem(name: str, value: object) -> str | None:
    """Why ``value`` is no count of trials, jobs or units, or None if it is
    one: an int, not a bool, of at least 1. The reason names it ``name``."""
    valid = is_integer(value) and value >= 1
    return None if valid else f"{name} must be an int >= 1, got {quoted(value)}"


def seed_problem(name: str, value: object) -> str | None:
    """Why ``value`` is no master seed, or None if it is one: an int, not a
    bool, in ``[0, SEED_LIMIT)``. The reason names it ``name``."""
    valid = is_integer(value) and 0 <= value < SEED_LIMIT
    return None if valid else f"{name} must be an int in [0, 2**64), got {quoted(value)}"


@validated
class MatchupSpec(NamedTuple):
    """Two armies by (unit name, count); builtin matchups carry a round/pairing id."""

    army1: Composition
    army2: Composition
    round: int | None = None
    pairing: str | None = None
    name: str | None = None

    def _check(self) -> None:
        for side, army in (("army1", self.army1), ("army2", self.army2)):
            if not army:
                raise ScenarioError(f"{side} must contain at least one unit entry")
            for unit_name, count in army:
                if reason := count_problem(f"{side} count for {quoted(unit_name)}", count):
                    raise ScenarioError(reason)
            try:  # the engine's pools and draws scale the total as a float
                float(sum(count for _, count in army))
            except OverflowError:
                raise ScenarioError(f"{side} has too many units: "
                                    "their total must convert to a float") from None
        if self.pairing is not None and self.pairing not in PAIRINGS:
            raise ScenarioError(f"unknown pairing: {self.pairing!r}")
        if self.round is not None and self.round not in ROUNDS:
            raise ScenarioError(f"round must be 1..4, got {self.round}")

    @property
    def label(self) -> str:
        if self.round is not None and self.pairing is not None:
            return f"round {self.round} {self.pairing}"
        return self.name or "custom"


class Scenario(NamedTuple):
    """A matchup plus optional experiment settings from a scenario file."""

    matchup: MatchupSpec
    model: ModelId | None = None
    trials: int | None = None
    seed: int | None = None


@validated
class ReferenceRow(NamedTuple):
    """One bundled reference result: a test battle or a model prediction."""

    round: int
    type: str
    match: str
    survivors1: tuple[int, int, int, int]
    survivors2: tuple[int, int, int, int]
    win1: float
    win2: float

    def _check(self) -> None:
        if self.type not in ROW_TYPES:
            raise ScenarioError(f"unknown row type: {self.type!r}")
        if self.match not in PAIRINGS or self.round not in ROUNDS:
            raise ScenarioError(f"bad row id: round {self.round} {self.match}")
        if not (0 <= self.win1 <= 1 and 0 <= self.win2 <= 1
                and 0.99 <= self.win1 + self.win2 <= 1.01):
            raise ScenarioError(f"round {self.round} {self.type} {self.match}: win percentages "
                                f"{self.win1} and {self.win2} must lie in [0, 1] and sum to 1")


def resolve_matchup(matchup: MatchupSpec, catalog: UnitCatalog
                    ) -> tuple[list[tuple[UnitClass, int]], list[tuple[UnitClass, int]]]:
    """Look up both armies of a matchup in the catalog.

    For builtin matchups the pairing also pins each side's race.
    """
    race1 = race2 = None
    if matchup.pairing is not None:
        race1 = _RACE_BY_LETTER[matchup.pairing[0]]
        race2 = _RACE_BY_LETTER[matchup.pairing[2]]
    comp1: list[tuple[UnitClass, int]] = []
    comp2: list[tuple[UnitClass, int]] = []
    for army, race, comp in ((matchup.army1, race1, comp1), (matchup.army2, race2, comp2)):
        for name, count in army:
            if name not in catalog:
                raise ScenarioError(f"unknown unit name: {quoted(name)}")
            unit = catalog[name]
            if race is not None and unit.race is not race:
                raise ScenarioError(f"{quoted(name)} is {unit.race.value}, expected {race.value}")
            comp.append((unit, count))
    return comp1, comp2


def build_armies(matchup: MatchupSpec, catalog: UnitCatalog) -> tuple[ArmyState, ArmyState]:
    """Resolve a matchup (see resolve_matchup) into two fresh army states."""
    comp1, comp2 = resolve_matchup(matchup, catalog)
    return ArmyState(comp1), ArmyState(comp2)


def _parse_army(doc: object, context: str) -> Composition:
    if not isinstance(doc, dict) or not doc:
        raise ScenarioError(f"{context} must be a non-empty mapping of unit name -> count")
    return tuple((str(name), count) for name, count in doc.items())


def builtin_matchups() -> list[MatchupSpec]:
    """The 12 benchmark matchups (4 rounds x PvT, TvZ, PvZ)."""
    doc = bundled_yaml("matchups.yaml")
    matchups = [
        MatchupSpec(
            army1=_parse_army(entry["army1"], "army1"),
            army2=_parse_army(entry["army2"], "army2"),
            round=int(entry["round"]),
            pairing=str(entry["match"]),
        )
        for entry in doc
    ]
    ids = [(m.round, m.pairing) for m in matchups]
    # 12 distinct ids of 4 rounds x 3 pairings put 3 matchups in every round
    if len(matchups) != 12 or len(set(ids)) != 12:
        raise ScenarioError("matchup data must contain exactly the 12 benchmark matchups")
    return matchups


def find_matchup(round: int, pairing: str) -> MatchupSpec:
    """Look up one builtin matchup by round number and pairing."""
    pairing = _normalize_pairing(pairing)
    for matchup in builtin_matchups():
        if matchup.round == round and matchup.pairing == pairing:
            return matchup
    raise ScenarioError(f"no builtin matchup for round {round} {pairing}")


def _normalize_pairing(text: str) -> str:
    for pairing in PAIRINGS:
        if text.lower() == pairing.lower():
            return pairing
    raise ScenarioError(f"unknown pairing: {text!r}")


def reference_table() -> list[ReferenceRow]:
    """All 60 bundled reference rows (12 matchups x Test + APX1..APX4)."""
    doc = bundled_yaml("reference_table.yaml")
    rows = [
        ReferenceRow(
            round=int(entry["round"]),
            type=str(entry["type"]),
            match=str(entry["match"]),
            survivors1=tuple(int(v) for v in entry["survivors1"]),
            survivors2=tuple(int(v) for v in entry["survivors2"]),
            win1=float(entry["win1"]),
            win2=float(entry["win2"]),
        )
        for entry in doc
    ]
    ids = [(r.round, r.type, r.match) for r in rows]
    if len(rows) != 60 or len(set(ids)) != 60:
        raise ScenarioError("reference data must contain exactly 60 distinct rows")
    return rows


def find_reference_row(round: int, type: str, match: str) -> ReferenceRow:
    match = _normalize_pairing(match)
    for row in reference_table():
        if (row.round, row.type.lower(), row.match) == (round, type.lower(), match):
            return row
    raise ScenarioError(f"no reference row for round {round} {type} {match}")


def load_scenario(path: str | Path, catalog: UnitCatalog) -> Scenario:
    """Load a user scenario file and resolve it against the catalog.

    The document holds ``army1`` and ``army2`` mappings of unit name to
    count, plus optional ``model``, ``trials``, ``seed`` and ``name`` keys; a
    ``name`` is kept in its ``str()`` form. The file is read as
    ``units.parse_yaml`` states, which never yields a null value.
    """
    doc = read_yaml(path, "scenario", ScenarioError)
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    unknown = doc.keys() - {"army1", "army2", "model", "trials", "seed", "name"}
    if unknown:
        raise ScenarioError(f"scenario has unknown keys: {listed(unknown)}")
    if "army1" not in doc or "army2" not in doc:
        raise ScenarioError("scenario must define army1 and army2")
    matchup = MatchupSpec(
        army1=_parse_army(doc["army1"], "army1"),
        army2=_parse_army(doc["army2"], "army2"),
        name=str(doc["name"]) if "name" in doc else None,
    )
    resolve_matchup(matchup, catalog)
    model = None
    if "model" in doc:
        try:
            model = ModelId.parse(str(doc["model"]))
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
    for key, problem in (("trials", count_problem), ("seed", seed_problem)):
        if key in doc and (reason := problem(key, doc[key])):
            raise ScenarioError(reason)
    return Scenario(matchup=matchup, model=model, trials=doc.get("trials"), seed=doc.get("seed"))
