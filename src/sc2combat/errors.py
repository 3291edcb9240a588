"""Exception types shared across the package."""


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


def quoted(value: object) -> str:
    """``repr(value)``, cut to ``QUOTE_LIMIT`` characters plus "..." when longer."""
    text = repr(value)
    return text if len(text) <= QUOTE_LIMIT else text[:QUOTE_LIMIT] + "..."
