"""Unit type definitions and the data-driven unit catalog.

A unit type is reduced to the handful of numbers the combat models consume:
hit points plus shields folded into a single health figure, armor as a
multiplicative health scale, damage per second with the maximum potential
area-of-effect folded in, a ranged flag, attribute tags, and bonus damage
against tagged targets.

Every data file, the three bundled ones and a user's catalog or scenario,
is read by ``parse_yaml``. It accepts only a small YAML subset, builds the
document PyYAML would, and names the line of any other text; the package
has no runtime dependency. ``dumps_catalog`` writes the same subset.
"""

import enum
import functools
import math
import re
from importlib import resources
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import CatalogError, CombatError, cut, listed, quoted

# Each point of armor multiplies surviving power by this factor.
ARMOR_HEALTH_FACTOR = 1.5


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
        name = cut(str(self.name))
        for key, field, convert in _RECORD_FIELDS:  # the types a catalog file gives
            value = getattr(self, field)
            try:
                if convert is _race:
                    if not isinstance(value, Race):
                        raise ValueError(f"expected a Race, got {quoted(value)}")
                elif convert is _tags:
                    if not isinstance(value, frozenset) or _tags(value) != value:
                        raise ValueError(f"expected a frozenset of lowercase strings, "
                                         f"got {quoted(value)}")
                else:
                    convert(value)
            except (ValueError, OverflowError) as exc:  # OverflowError: float() of a huge int
                raise CatalogError(f"{name}: bad {key} value ({exc})") from None
        if not self.name:
            raise CatalogError("unit name must be non-empty")
        try:  # a NaN or infinite stat, or a product past the largest float
            finite = all(math.isfinite(stat) for stat in (
                effective_health(self), effective_dps(self), effective_bonus_dps(self)))
        except OverflowError:
            finite = False
        if not finite:
            raise CatalogError(f"{name}: effective health and DPS must be finite")
        if self.base_health < 0 or self.shields < 0 or self.armor < 0:
            raise CatalogError(f"{name}: health, shields and armor must be non-negative")
        if self.base_health + self.shields <= 0:
            raise CatalogError(f"{name}: health + shields must be positive")
        if self.base_dps < 0 or self.bonus_base_dps < 0:
            raise CatalogError(f"{name}: DPS values must be non-negative")
        if self.aoe_area < 1 or self.bonus_aoe_area < 1:
            raise CatalogError(f"{name}: area multipliers must be >= 1")
        if bool(self.bonus_vs) != (self.bonus_base_dps > 0):
            raise CatalogError(
                f"{name}: bonus_vs must be non-empty exactly when bonus_dps > 0"
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
                raise CatalogError(f"duplicate unit name: {cut(unit.name)}")
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
        raise CatalogError(f"unit record has unknown keys: {listed(unknown)}")
    _race(record["race"])  # an unknown race is reported before a bad list or value
    name = cut(str(record["name"]))
    for key in ("attributes", "bonus_vs"):
        if not isinstance(record[key], list):
            raise CatalogError(f"{name}: {key} must be a list")
    fields = {}
    for key, field, convert in _RECORD_FIELDS:
        try:
            fields[field] = convert(record[key])
        except (ValueError, OverflowError) as exc:  # OverflowError: float() of a huge int
            raise CatalogError(f"{name}: bad {key} value ({exc})") from exc
    return UnitClass(**fields)


# A line's tokens: a flow indicator, ": " after a non-space, a scalar, or one
# character no other token takes (such as a ':' before a non-space)
_TOKEN = re.compile(r" *([][{},]|(?<! ): |[^][{},: ]+|[^ ])")
# A scalar: an int, a float, true or false, or a word that YAML reads as a
# string, not as a bool or null in another spelling
_SCALAR = re.compile(r"(-?(?:0|[1-9][0-9]*))|(-?[0-9]+\.[0-9]+(?:e[-+][0-9]+)?)|(true|false)"
                     r"|(?!(?i:yes|no|on|off|true|false|null)$)([A-Za-z_][A-Za-z0-9_]*)")


def _scalar(token: str) -> object:
    match = _SCALAR.fullmatch(token)
    if not match:
        raise ValueError(f"{quoted(token)} is no plain int, float, true, false or word")
    return (int, float, "true".__eq__, str)[match.lastindex - 1](token)


def _value(tokens: list[str], depth: int = 2) -> object:
    """Take one value off ``tokens``, a line's tokens in reverse order: a
    scalar or a flow collection, nested at most ``depth`` levels."""
    token = tokens.pop()
    if not depth or token not in ("[", "{"):
        return _scalar(token)
    close, items = ("]", []) if token == "[" else ("}", {})
    while tokens[-1] != close:
        if items and tokens.pop() != ",":
            raise ValueError(f"expected ',' or '{close}'")
        if close == "]":
            items.append(_value(tokens, depth - 1))
        else:
            _put(tokens, items, depth - 1)
    tokens.pop()
    return items


def _put(tokens: list[str], mapping: dict, depth: int = 2) -> object:
    """Take one ``key: value`` pair off ``tokens`` into ``mapping``. A key
    that ends a block line is returned instead: the block under it holds its
    value."""
    token = tokens.pop()
    key = _scalar(token)
    if tokens.pop() != ": " or len(token) > 1024:  # YAML's longest key on one line
        raise ValueError(f"expected ': ' right after the key {quoted(key)}, "
                         "within 1024 characters")
    if key in mapping:
        raise ValueError(f"the key {quoted(key)} is repeated")
    if not tokens and depth == 2:
        return key
    mapping[key] = _value(tokens, depth)


def parse_yaml(text: str, what: str, error: type[CombatError]) -> object:
    """Parse a data file written in the YAML subset the package reads into
    the document YAML builds; any other text raises ``error`` naming ``what``
    and the line. No rule recurses on the input, so a document nests at most
    five levels: a sequence of mappings of blocks of two-level flow values.

    The document is a block sequence or a block mapping at column 0. A
    sequence item is a one-line value, or a block mapping whose first
    ``key: value`` is on the ``- `` line and the rest indented two spaces.
    A one-line value is a plain scalar, or a flow collection of those or of
    flow collections of plain scalars. A key with no value opens a block of
    one-line values on the next lines: a mapping indented two spaces more,
    or a sequence at the key's indent.
    """
    # keys: (column, mapping) of the block mapping a key line may extend;
    # opened: (column, mapping, key, line) of the key whose block is read
    doc = keys = opened = None
    try:
        for number, line in enumerate(text.replace("\r\n", "\n").split("\n"), 1):
            if not line.isprintable():
                raise ValueError("a tab, a control character or a line break other than \\n")
            line = line.split(" #", 1)[0].rstrip(" ")
            body = line.lstrip(" ")
            if not body or body[0] == "#":
                continue
            column, item = len(line) - len(body), body[:2] == "- " and body[2] != " "
            tokens = _TOKEN.findall(f"{body[2:] if item else body} ")[::-1]  # " " ends a key
            if opened and column == opened[0] + (0 if item else 2):  # in the key's block
                nest = opened[1].setdefault(opened[2], [] if item else {})
                if isinstance(nest, list) != item:
                    raise ValueError("a block mixes '- ' items and keys")
                if item:
                    nest.append(_value(tokens))
                elif _put(tokens, nest) is not None:
                    raise ValueError("a key in a block has no value")
            else:
                if opened and opened[2] not in opened[1]:
                    break
                if doc is None:
                    doc = [] if item else {}
                    keys = None if item else (0, doc)
                if item and column == 0 and isinstance(doc, list):  # an item of the document
                    mapping = {} if tokens[-2:-1] == [": "] else None
                    doc.append(_value(tokens) if mapping is None else mapping)
                    keys = None if mapping is None else (2, mapping)
                elif not item and keys and column == keys[0]:  # a key of a block mapping
                    mapping = keys[1]
                else:
                    raise ValueError("a '- ' item or key out of place")
                key = None if mapping is None else _put(tokens, mapping)
                opened = None if key is None else (keys[0], mapping, key, number)
            if tokens:
                raise ValueError(f"unexpected {quoted(tokens[-1])}")
        if opened and opened[2] not in opened[1]:
            number = opened[3]
            raise ValueError(f"the key {quoted(opened[2])} has no value")
    except (ValueError, IndexError) as exc:
        reason = exc if isinstance(exc, ValueError) else "the line ends early"
        raise error(f"{what}, line {number}: outside the YAML subset "
                    f"sc2combat reads: {reason}") from None
    return doc


def read_yaml(path: str | Path, what: str, error: type[CombatError]) -> object:
    """Read a UTF-8 file and parse it (``parse_yaml``); text that does not
    decode or parse raises ``error``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
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


def load_catalog(path: str | Path) -> UnitCatalog:
    """Load a catalog from a YAML file.

    The document is a list of unit records; see the bundled
    ``data/units.yaml`` for the schema. An empty document is a valid,
    empty catalog.
    """
    return _catalog_from(read_yaml(path, "catalog", CatalogError))


def loads_catalog(text: str) -> UnitCatalog:
    """Parse a catalog from YAML text, as ``load_catalog`` reads a file."""
    return _catalog_from(parse_yaml(text, "catalog", CatalogError))


def _plain(value: object) -> str:
    """``value`` as the plain scalar that reads back as it, spelt as
    ``yaml.safe_dump`` spells it; a value no plain scalar holds raises."""
    text = str(value).lower() if isinstance(value, bool) else str(value)
    if isinstance(value, float) and "." not in text:  # YAML spells 1e+16 as 1.0e+16
        text = text.replace("e", ".0e")
    if _SCALAR.fullmatch(text) and repr(_scalar(text)) == repr(value):
        return text
    raise CatalogError(f"{quoted(value)} is no plain int, float, true, false or word")


def dumps_catalog(catalog: UnitCatalog) -> str:
    """Serialize a catalog in the grammar loads_catalog reads, which
    round-trips it: one block mapping per unit, a tag set as a sorted block
    sequence. A value the grammar cannot hold, such as a name with a space,
    raises CatalogError."""
    lines = []
    for unit in catalog:
        lead = "- "
        for key, field, _ in _RECORD_FIELDS:
            value = getattr(unit, field)
            if isinstance(value, frozenset):
                tags = [f"  - {_plain(tag)}" for tag in sorted(value)]
                lines += [f"{lead}{key}:", *tags] if tags else [f"{lead}{key}: []"]
            else:
                text = _plain(value.value if isinstance(value, Race) else value)
                lines.append(f"{lead}{key}: {text}")
            lead = "  "
    return "".join(f"{line}\n" for line in lines)


def default_catalog() -> UnitCatalog:
    """The bundled Wings-of-Liberty-era catalog, parsed once per process.
    Each call returns a new catalog."""
    return _catalog_from(bundled_yaml("units.yaml"))
