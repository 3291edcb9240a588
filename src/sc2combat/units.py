"""Unit type definitions and the data-driven unit catalog.

A unit type is reduced to the handful of numbers the combat models consume:
hit points plus shields folded into a single health figure, armor as a
multiplicative health scale, damage per second with the maximum potential
area-of-effect folded in, a ranged flag, attribute tags, and bonus damage
against tagged targets.
"""

import enum
import functools
import math
from importlib import resources
from pathlib import Path
from typing import IO, Iterable, NamedTuple

import yaml

from .errors import CatalogError, CombatError

# Each point of armor multiplies surviving power by this factor.
ARMOR_HEALTH_FACTOR = 1.5

CatalogSource = str | Path | IO[str]  # a YAML catalog or scenario: path or text stream

# libyaml's C parser when PyYAML was built with it, else the pure-Python one;
# both build the same documents, and the C one parses the bundled files ~7x faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class Race(enum.Enum):
    PROTOSS = "protoss"
    TERRAN = "terran"
    ZERG = "zerg"


def validated(cls):
    """Make the NamedTuple ``cls`` run its ``_check``, which raises on a bad
    value, on every record it builds: by the constructor, ``_make``,
    ``_replace`` or unpickling. A NamedTuple body may not define ``__new__``,
    so this wraps the generated one, keeping its signature for ``help()``.
    """
    new = cls.__new__

    @functools.wraps(new)
    def __new__(*args, **kwargs):
        record = new(*args, **kwargs)
        record._check()
        return record

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


@validated
class UnitClass(NamedTuple):
    """Immutable stats for one unit type."""

    name: str
    race: Race
    base_health: int
    shields: int
    armor: int
    base_dps: float
    aoe_area: float = 1.0
    ranged: bool = False
    attributes: frozenset[str] = frozenset()
    bonus_base_dps: float = 0.0
    bonus_aoe_area: float = 1.0
    bonus_vs: frozenset[str] = frozenset()

    def _check(self) -> None:
        if not self.name:
            raise CatalogError("unit name must be non-empty")
        try:  # a NaN or infinite stat, or a product past the largest float
            finite = all(math.isfinite(stat) for stat in (
                effective_health(self), effective_dps(self), effective_bonus_dps(self)))
        except OverflowError:
            finite = False
        if not finite:
            raise CatalogError(f"{self.name}: effective health and DPS must be finite")
        if self.base_health < 0 or self.shields < 0 or self.armor < 0:
            raise CatalogError(f"{self.name}: health, shields and armor must be non-negative")
        if self.base_health + self.shields <= 0:
            raise CatalogError(f"{self.name}: health + shields must be positive")
        if self.base_dps < 0 or self.bonus_base_dps < 0:
            raise CatalogError(f"{self.name}: DPS values must be non-negative")
        if self.aoe_area < 1 or self.bonus_aoe_area < 1:
            raise CatalogError(f"{self.name}: area multipliers must be >= 1")
        if bool(self.bonus_vs) != (self.bonus_base_dps > 0):
            raise CatalogError(
                f"{self.name}: bonus_vs must be non-empty exactly when bonus_dps > 0"
            )


def effective_health(unit: UnitClass) -> float:
    """Hit points plus shields, scaled by the armor multiplier."""
    return (unit.base_health + unit.shields) * ARMOR_HEALTH_FACTOR ** unit.armor


def effective_dps(unit: UnitClass) -> float:
    """Single-target DPS times the maximum potential area-of-effect."""
    return unit.base_dps * unit.aoe_area


def effective_bonus_dps(unit: UnitClass) -> float:
    """Bonus DPS times the bonus attack's area-of-effect."""
    return unit.bonus_base_dps * unit.bonus_aoe_area


class UnitCatalog:
    """Immutable name -> UnitClass mapping with unique names."""

    def __init__(self, units: Iterable[UnitClass] = ()):
        entries: dict[str, UnitClass] = {}
        for unit in units:
            if unit.name in entries:
                raise CatalogError(f"duplicate unit name: {unit.name}")
            entries[unit.name] = unit
        self._entries = entries

    def __getitem__(self, name: str) -> UnitClass:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnitCatalog):
            return NotImplemented
        return self._entries == other._entries

    def names(self) -> list[str]:
        return list(self._entries)


def _race(value: object) -> Race:
    try:
        return Race(str(value).lower())
    except ValueError:
        raise CatalogError(f"unknown race: {value!r}") from None


def _tags(values: list) -> frozenset[str]:
    return frozenset(str(value).lower() for value in values)


def is_integer(value: object) -> bool:
    """Whether ``value`` is an int and not a bool, which Python counts as one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value: object) -> int:
    """A YAML integer, taken as it is: a float, bool or string is an error."""
    if not is_integer(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _number(value: object) -> float:
    """A YAML integer or float as a float: a bool or string is an error."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _boolean(value: object) -> bool:
    """A YAML bool, taken as it is: a string or number is an error."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _string(value: object) -> str:
    """A YAML string, taken as it is: a number or bool is an error."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


# (YAML key, UnitClass field, conversion of the YAML value), in dump order
_RECORD_FIELDS = (
    ("name", "name", _string),
    ("race", "race", _race),
    ("health", "base_health", _integer),
    ("shields", "shields", _integer),
    ("armor", "armor", _integer),
    ("dps", "base_dps", _number),
    ("aoe_area", "aoe_area", _number),
    ("ranged", "ranged", _boolean),
    ("attributes", "attributes", _tags),
    ("bonus_dps", "bonus_base_dps", _number),
    ("bonus_aoe_area", "bonus_aoe_area", _number),
    ("bonus_vs", "bonus_vs", _tags),
)


def _parse_record(record: object) -> UnitClass:
    if not isinstance(record, dict):
        raise CatalogError(f"unit record must be a mapping, got {type(record).__name__}")
    keys = {key for key, _, _ in _RECORD_FIELDS}
    missing = keys - record.keys()
    unknown = record.keys() - keys
    if missing:
        raise CatalogError(f"unit record missing keys: {sorted(missing)}")
    if unknown:
        raise CatalogError(f"unit record has unknown keys: {sorted(unknown)}")
    _race(record["race"])  # an unknown race is reported before a bad list or value
    for key in ("attributes", "bonus_vs"):
        if not isinstance(record[key], list):
            raise CatalogError(f"{record['name']}: {key} must be a list")
    fields = {}
    for key, field, convert in _RECORD_FIELDS:
        try:
            fields[field] = convert(record[key])
        except (ValueError, OverflowError) as exc:  # OverflowError: float() of a huge int
            raise CatalogError(f"{record['name']}: bad {key} value ({exc})") from exc
    return UnitClass(**fields)


def parse_yaml(text: str, what: str, error: type[CombatError]) -> object:
    """Parse one YAML document; a syntax error raises ``error``."""
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise error(f"{what} is not valid YAML: {exc}") from exc


def read_yaml(source: CatalogSource, what: str, error: type[CombatError]) -> object:
    """Read a UTF-8 YAML path or open text stream and parse it; text that
    does not decode or parse raises ``error``."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            text = Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not UTF-8 text: {exc}") from exc
    return parse_yaml(text, what, error)


@functools.cache
def bundled_yaml(name: str) -> object:
    """A bundled data file, parsed once per process. The document is shared:
    callers build new objects from it and never mutate it."""
    text = resources.files("sc2combat.data").joinpath(name).read_text(encoding="utf-8")
    return parse_yaml(text, name, CombatError)


def _catalog_from(doc: object) -> UnitCatalog:
    if doc is None:
        return UnitCatalog()
    if not isinstance(doc, list):
        raise CatalogError("catalog document must be a list of unit records")
    return UnitCatalog(_parse_record(record) for record in doc)


def load_catalog(source: CatalogSource) -> UnitCatalog:
    """Load a catalog from a YAML path or open text stream.

    The document is a list of unit records; see the bundled
    ``data/units.yaml`` for the schema. An empty document is a valid,
    empty catalog.
    """
    return _catalog_from(read_yaml(source, "catalog", CatalogError))


def loads_catalog(text: str) -> UnitCatalog:
    """Parse a catalog from YAML text."""
    return _catalog_from(parse_yaml(text, "catalog", CatalogError))


def _dumped(value: object) -> object:
    """A field's YAML value: a race by name, a tag set as a sorted list."""
    return value.value if isinstance(value, Race) else (
        sorted(value) if isinstance(value, frozenset) else value)


def dumps_catalog(catalog: UnitCatalog) -> str:
    """Serialize a catalog back to YAML; loads_catalog round-trips it."""
    records = [{key: _dumped(getattr(unit, field)) for key, field, _ in _RECORD_FIELDS}
               for unit in catalog]
    return yaml.safe_dump(records, sort_keys=False)


def default_catalog() -> UnitCatalog:
    """The bundled Wings-of-Liberty-era catalog, parsed once per process.
    Each call returns a new catalog."""
    return _catalog_from(bundled_yaml("units.yaml"))
