"""Unit type definitions and the data-driven unit catalog.

A unit type is reduced to the handful of numbers the combat models consume:
hit points plus shields folded into a single health figure, armor as a
multiplicative health scale, damage per second with the maximum potential
area-of-effect folded in, a ranged flag, attribute tags, and bonus damage
against tagged targets.

The three bundled data files are read by ``_read_bundled``, which accepts
only the small YAML subset they use and builds the documents PyYAML would.
PyYAML parses only text from outside the package, a catalog or scenario,
and is imported when the first such text is parsed: a command that reads
no user file never loads it.
"""

import enum
import functools
import math
import re
from importlib import resources
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import CatalogError, CombatError, quoted

# Each point of armor multiplies surviving power by this factor.
ARMOR_HEALTH_FACTOR = 1.5

# The deepest a file from outside the package may nest collections; a
# scenario or catalog needs 3.
_MAX_DEPTH = 32


class Race(enum.Enum):
    PROTOSS = "protoss"
    TERRAN = "terran"
    ZERG = "zerg"


def validated(cls):
    """Make the NamedTuple ``cls`` run its ``_check``, which raises on a bad
    value, on every record it builds: by the constructor, ``_make``,
    ``_replace`` or unpickling. A NamedTuple body may not define ``__new__``,
    so this wraps the generated one, keeping its signature for ``help()``.
    Records are NamedTuples, not dataclasses: ``import dataclasses`` loads
    ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each dataclass builds
    its methods from generated source.
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


def _race(value: object) -> Race:
    try:
        return Race(str(value).lower())
    except ValueError:
        raise CatalogError(f"unknown race: {quoted(value)}") from None


def _tags(values: list) -> frozenset[str]:
    return frozenset(str(value).lower() for value in values)


def is_integer(value: object) -> bool:
    """Whether ``value`` is an int and not a bool, which Python counts as one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value: object) -> int:
    """A YAML integer, taken as it is: a float, bool or string is an error."""
    if not is_integer(value):
        raise ValueError(f"expected an integer, got {quoted(value)}")
    return value


def _number(value: object) -> float:
    """A YAML integer or float as a float: a bool or string is an error."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"expected a number, got {quoted(value)}")
    return float(value)


def _boolean(value: object) -> bool:
    """A YAML bool, taken as it is: a string or number is an error."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {quoted(value)}")
    return value


def _string(value: object) -> str:
    """A YAML string, taken as it is: a number or bool is an error."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {quoted(value)}")
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
        raise CatalogError(f"unit record has unknown keys: {sorted(unknown, key=str)}")
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


@functools.cache
def _yaml_loader() -> type:
    """PyYAML's safe loader, on libyaml's C parser when PyYAML was built with
    it, else on the pure-Python one; both build the same documents. A key
    repeated in one mapping is an error naming the key and its line, where
    PyYAML keeps the last value. A ``<<`` merge's keys may be overridden."""
    import yaml

    class Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        def construct_mapping(self, node, deep=False):
            own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
            mapping = super().construct_mapping(node, deep)  # rejects an unhashable key
            seen = set()
            for key_node in own:
                key = self.construct_object(key_node)  # built above, so cached
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
            return mapping

    return Loader


def parse_plain_yaml(text: str, what: str, error: type[CombatError]) -> object:
    """Parse YAML text from outside the package, which must be plain data: a
    walk over the parser's events, stopping at the first offender, raises
    ``error`` on an alias or a collection nested deeper than ``_MAX_DEPTH``
    before any document is built. Aliases can grow a document, and a message
    quoting it, exponentially; deep nesting overflows the recursive composers
    (libyaml's crashes the process) and later ``repr`` and ``str`` calls.
    Any other fault in the text raises ``error`` with a one-line message."""
    import yaml

    loader = _yaml_loader()
    depth = 0
    try:
        for event in yaml.parse(text, Loader=loader):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > _MAX_DEPTH:
                    line = event.start_mark.line + 1
                    raise error(f"{what} nests deeper than {_MAX_DEPTH} levels (line {line})")
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
            elif isinstance(event, yaml.AliasEvent):
                line = event.start_mark.line + 1
                raise error(f"{what} uses a YAML alias (line {line}); it must be plain data")
        return yaml.load(text, Loader=loader)
    except yaml.MarkedYAMLError as exc:  # str(exc) spans up to four lines
        mark = exc.problem_mark
        raise error(f"{what} is not valid YAML (line {mark.line + 1}, "
                    f"column {mark.column + 1}): {exc.problem}") from exc
    except yaml.YAMLError as exc:  # a ReaderError: a character YAML does not allow
        raise error(f"{what} is not valid YAML: {str(exc).splitlines()[0]}") from exc
    except ValueError as exc:  # an impossible date, or an int past str()'s digit limit
        raise error(f"{what} has a value that cannot be loaded: {exc}") from exc


def read_yaml(path: str | Path, what: str, error: type[CombatError]) -> object:
    """Read a UTF-8 YAML file and parse it as plain data (``parse_plain_yaml``);
    text that does not decode or parse raises ``error``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not UTF-8 text: {exc}") from exc
    return parse_plain_yaml(text, what, error)


# One line of a bundled file: a block sequence item, or one more key of the
# block mapping an item opened. A line's tokens: a flow indicator, ``": "``,
# a scalar, or one character no other token takes (a ':' before a non-space).
_LINE = re.compile(r"(- |  )(?! )(.*)")
_TOKEN = re.compile(r" *([][{},]|: |[^][{},: ]+|.)")
# A scalar: an int, a float, true or false, or a word that PyYAML reads as a
# string, not as a bool or null in another spelling
_SCALAR = re.compile(r"(0|[1-9][0-9]*)|([0-9]+\.[0-9]+)|(true|false)"
                     r"|(?!(?i:yes|no|on|off|true|false|null)$)([A-Za-z_][A-Za-z0-9_]*)")


def _scalar(token: str) -> object:
    match = _SCALAR.fullmatch(token)
    if not match:
        raise ValueError(f"{token!r} is no plain int, float, true, false or word")
    return (int, float, "true".__eq__, str)[match.lastindex - 1](token)


def _flow(tokens: list[str]) -> object:
    """Take one value off ``tokens``, a line's tokens in reverse order."""
    token = tokens.pop()
    if token not in ("[", "{"):
        return _scalar(token)
    close, items = ("]", []) if token == "[" else ("}", {})
    while tokens[-1] != close:
        if items and tokens.pop() != ",":
            raise ValueError(f"expected ',' or '{close}'")
        if close == "]":
            items.append(_flow(tokens))
        else:
            _put(tokens, items)
    tokens.pop()
    return items


def _put(tokens: list[str], mapping: dict) -> None:
    """Take one ``key: value`` pair off ``tokens`` into ``mapping``."""
    key = _scalar(tokens.pop())
    if tokens.pop() != ": ":
        raise ValueError(f"expected ': ' after the key {key!r}")
    if key in mapping:
        raise ValueError(f"the key {key!r} is repeated")
    mapping[key] = _flow(tokens)


def _read_bundled(text: str, name: str) -> object:
    """Parse a bundled data file, written in a YAML subset: a block sequence
    whose items are one-line flow mappings, or block mappings of one
    ``key: value`` per line; a value is a plain scalar or a one-line flow
    collection. Any other text raises ``CombatError`` naming the line."""
    doc, block = [], None
    for number, line in enumerate(text.replace("\r\n", "\n").split("\n"), 1):
        try:
            if not line.isprintable():
                raise ValueError("a tab, a control character or a line break other than \\n")
            line = line.split(" #", 1)[0].rstrip(" ")
            if not line or line.startswith("#"):
                continue
            match = _LINE.fullmatch(line)
            if not match:
                raise ValueError("expected '- ' or a two-space indent")
            tokens = _TOKEN.findall(match[2])[::-1]
            if match[1] == "- ":
                block = {} if tokens[-2:-1] == [": "] else None
                if block is None and tokens[-1] != "{":
                    raise ValueError("an item is no mapping")
                doc.append(_flow(tokens) if block is None else block)
            elif block is None:
                raise ValueError("an indented line follows no block mapping")
            if block is not None:
                _put(tokens, block)
            if tokens:
                raise ValueError(f"unexpected {tokens[-1]!r}")
        except (ValueError, IndexError) as exc:
            reason = exc if isinstance(exc, ValueError) else "the line ends early"
            raise CombatError(f"{name}, line {number}: outside the YAML subset "
                              f"the package reads: {reason}") from None
    return doc or None


@functools.cache
def bundled_yaml(name: str) -> object:
    """A bundled data file, parsed once per process. The document is shared:
    callers build new objects from it and never mutate it."""
    text = resources.files("sc2combat.data").joinpath(name).read_text(encoding="utf-8")
    return _read_bundled(text, name)


def _catalog_from(doc: object) -> UnitCatalog:
    if doc is None:
        return UnitCatalog()
    if not isinstance(doc, list):
        raise CatalogError("catalog document must be a list of unit records")
    return UnitCatalog(_parse_record(record) for record in doc)


def load_catalog(path: str | Path) -> UnitCatalog:
    """Load a catalog from a YAML file.

    The document is a list of unit records; see the bundled
    ``data/units.yaml`` for the schema. An empty document is a valid,
    empty catalog.
    """
    return _catalog_from(read_yaml(path, "catalog", CatalogError))


def loads_catalog(text: str) -> UnitCatalog:
    """Parse a catalog from YAML text, as plain data (``parse_plain_yaml``)."""
    return _catalog_from(parse_plain_yaml(text, "catalog", CatalogError))


def _dumped(value: object) -> object:
    """A field's YAML value: a race by name, a tag set as a sorted list."""
    return value.value if isinstance(value, Race) else (
        sorted(value) if isinstance(value, frozenset) else value)


def dumps_catalog(catalog: UnitCatalog) -> str:
    """Serialize a catalog back to YAML; loads_catalog round-trips it."""
    import yaml

    records = [{key: _dumped(getattr(unit, field)) for key, field, _ in _RECORD_FIELDS}
               for unit in catalog]
    return yaml.safe_dump(records, sort_keys=False)


def default_catalog() -> UnitCatalog:
    """The bundled Wings-of-Liberty-era catalog, parsed once per process.
    Each call returns a new catalog."""
    return _catalog_from(bundled_yaml("units.yaml"))
