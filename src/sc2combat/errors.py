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
