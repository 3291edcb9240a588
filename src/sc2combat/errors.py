"""Exception types shared across the package."""

from typing import Iterable


class CombatError(Exception):
    """Base class for all sc2combat errors."""


class CatalogError(CombatError):
    """Malformed or invalid unit catalog data."""


class ScenarioError(CombatError):
    """Bad matchup, scenario document, or reference data."""


class StalemateError(CombatError):
    """Neither army can make progress: no round can kill a unit any more."""


class EnumerationLimitError(CombatError):
    """Exact enumeration would exceed the configured state-space limits."""


# The most characters of a value an error message quotes; a longer value is
# cut there and ends in "...", so a huge bad value gives a short message.
QUOTE_LIMIT = 80


def cut(text: str) -> str:
    """``text``, cut to ``QUOTE_LIMIT`` characters plus "..." when longer."""
    return text if len(text) <= QUOTE_LIMIT else text[:QUOTE_LIMIT] + "..."


def quoted(value: object) -> str:
    """``repr(value)``, cut as ``cut`` does."""
    return cut(repr(value))


def listed(values: Iterable) -> str:
    """``values`` sorted by their text as a quoted list, followed by their
    count when the quote is cut."""
    values = sorted(values, key=str)
    text = quoted(values)
    return text if len(text) <= QUOTE_LIMIT else f"{text} ({len(values)} in all)"
