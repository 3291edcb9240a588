import hashlib
import math
import os

import pytest
from hypothesis import settings

from sc2combat import Race, UnitClass, default_catalog

settings.register_profile("default", deadline=None)
settings.load_profile("default")

# a scenario file: round 1 PvT's armies with every optional key set
SCENARIO = """
army1:
  zealot: 8
  stalker: 2
army2:
  marine: 12
  marauder: 4
model: apx4
trials: 50
seed: 42
"""

# a one-unit catalog file
ZEALOT_YAML = """
- name: zealot
  race: protoss
  health: 100
  shields: 50
  armor: 1
  dps: 13.33
  aoe_area: 1.0
  ranged: false
  attributes: [light, biological]
  bonus_dps: 0.0
  bonus_aoe_area: 1.0
  bonus_vs: []
"""


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
def forks(monkeypatch):
    """One entry for each ``os.fork`` call made in this process, each still
    forking."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls
