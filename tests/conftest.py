import hashlib
import math

import pytest
from hypothesis import settings

from sc2combat import Race, UnitClass, default_catalog, units

settings.register_profile("default", deadline=None)
settings.load_profile("default")


def make_unit(name="u", health=10, dps=5.0, ranged=False, armor=0, shields=0,
              attrs=(), bonus=0.0, bonus_vs=(), aoe=1.0, bonus_aoe=1.0,
              race=Race.TERRAN):
    return UnitClass(
        name=name, race=race, base_health=health, shields=shields, armor=armor,
        base_dps=dps, aoe_area=aoe, ranged=ranged,
        attributes=frozenset(attrs), bonus_base_dps=bonus,
        bonus_aoe_area=bonus_aoe, bonus_vs=frozenset(bonus_vs),
    )


def three_sigma(p, n):
    return 3 * math.sqrt(p * (1 - p) / n)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture
def yaml_base(request, monkeypatch):
    """Build PyYAML's loader for user files, for this test, on the base named by
    the indirect parameter: "chosen" (libyaml's C parser where PyYAML has it) or,
    by default, "pure-python", the parser of a PyYAML built without libyaml."""
    import yaml

    base = getattr(request, "param", "pure-python")
    if base == "pure-python":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    units._yaml_loader.cache_clear()
    yield base
    units._yaml_loader.cache_clear()
