import math
from importlib import resources

import pytest
import yaml

import sc2combat.units as units
from sc2combat import (
    CatalogError,
    CombatError,
    Race,
    ScenarioError,
    UnitCatalog,
    builtin_matchups,
    default_catalog,
    dumps_catalog,
    effective_bonus_dps,
    effective_dps,
    effective_health,
    load_catalog,
    load_scenario,
    loads_catalog,
    reference_table,
)

from conftest import make_unit

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


class TestDerivedStats:
    def test_armor_zero_identity(self):
        unit = make_unit(health=70, shields=30, armor=0)
        assert effective_health(unit) == 100.0

    def test_armor_two_compounds(self):
        unit = make_unit(health=100, shields=0, armor=2)
        assert effective_health(unit) == 225.0

    def test_area_identity(self):
        unit = make_unit(dps=7.5, bonus=3.0, bonus_vs=("light",))
        assert effective_dps(unit) == 7.5
        assert effective_bonus_dps(unit) == 3.0

    def test_zero_dps_with_area(self):
        unit = make_unit(dps=0.0, aoe=5.0)
        assert effective_dps(unit) == 0.0


class TestValidation:
    def test_negative_health_rejected(self):
        with pytest.raises(CatalogError):
            make_unit(health=-1)

    def test_zero_total_health_rejected(self):
        with pytest.raises(CatalogError):
            make_unit(health=0, shields=0)

    def test_bonus_without_tags_rejected(self):
        with pytest.raises(CatalogError):
            make_unit(bonus=5.0, bonus_vs=())

    def test_tags_without_bonus_rejected(self):
        with pytest.raises(CatalogError):
            make_unit(bonus=0.0, bonus_vs=("light",))

    def test_area_below_one_rejected(self):
        with pytest.raises(CatalogError):
            make_unit(aoe=0.5)

    @pytest.mark.parametrize("stats", [dict(dps=math.nan), dict(dps=math.inf),
                                       dict(aoe=math.inf), dict(bonus=math.nan, bonus_vs=("light",)),
                                       dict(armor=2000), dict(health=10**400)])
    def test_non_finite_effective_stats_rejected(self, stats):
        with pytest.raises(CatalogError, match="must be finite"):
            make_unit(**stats)

    def test_duplicate_name_rejected(self):
        marine = make_unit("marine")
        with pytest.raises(CatalogError, match="duplicate"):
            UnitCatalog([marine, make_unit("marine", health=50)])


class TestLoading:
    def test_zealot_record(self):
        cat = loads_catalog(ZEALOT_YAML)
        zealot = cat["zealot"]
        assert zealot.race is Race.PROTOSS
        assert zealot.base_health == 100 and zealot.shields == 50
        assert effective_health(zealot) == 225.0

    def test_empty_document_is_empty_catalog(self):
        assert len(loads_catalog("")) == 0

    def test_duplicate_in_document(self):
        doc = ZEALOT_YAML + ZEALOT_YAML.replace("zealot", "zealot")
        with pytest.raises(CatalogError, match="duplicate"):
            loads_catalog(doc)

    def test_missing_key(self):
        with pytest.raises(CatalogError, match="missing"):
            loads_catalog("- {name: x, race: terran}")

    def test_unknown_key(self):
        doc = ZEALOT_YAML.replace("armor: 1", "armor: 1\n  speed: 3")
        with pytest.raises(CatalogError, match="unknown keys"):
            loads_catalog(doc)

    def test_unknown_race(self):
        with pytest.raises(CatalogError, match="race"):
            loads_catalog(ZEALOT_YAML.replace("protoss", "xelnaga"))

    def test_not_yaml(self):
        with pytest.raises(CatalogError,
                           match=r"^catalog is not valid YAML \(line \d+, column \d+\): "):
            loads_catalog("{unclosed")

    def test_not_a_list(self):
        with pytest.raises(CatalogError, match="list"):
            loads_catalog("name: zealot")

    # a YAML value that overflowed into a traceback or loaded as a wrong stat
    @pytest.mark.parametrize("old, new", [
        ("health: 100", "health: .inf"),
        ("armor: 1", "armor: 2000"),
        ("health: 100", "health: 1" + "0" * 400),
        ("dps: 13.33", "dps: .nan"),
        ("dps: 13.33", "dps: .inf"),
        ("dps: 13.33", "dps: 1" + "0" * 400),
        ("aoe_area: 1.0", "aoe_area: .inf"),
        ("health: 100", "health: 12.7"),
        ("health: 100", "health: true"),
        ("shields: 50", "shields: '50'"),
    ], ids=["inf-health", "armor-2000", "400-digit-health", "nan-dps", "inf-dps",
            "400-digit-dps", "inf-aoe", "fractional-health", "bool-health", "string-shields"])
    def test_bad_stat_is_a_catalog_error(self, old, new):
        with pytest.raises(CatalogError, match="^zealot: "):
            loads_catalog(ZEALOT_YAML.replace(old, new))

    # a value of the wrong YAML type that a bool(), float() or str() call accepted
    @pytest.mark.parametrize("old, new, message", [
        ("ranged: false", "ranged: \"false\"", "^zealot: bad ranged value "),
        ("dps: 13.33", "dps: true", "^zealot: bad dps value "),
        ("dps: 13.33", "dps: \"9.7\"", "^zealot: bad dps value "),
        ("bonus_dps: 0.0", "bonus_dps: false", "^zealot: bad bonus_dps value "),
        ("aoe_area: 1.0", "aoe_area: '2'", "^zealot: bad aoe_area value "),
        ("name: zealot", "name: 5", "^5: bad name value "),
    ], ids=["string-ranged", "bool-dps", "string-dps", "bool-bonus-dps", "string-aoe",
            "integer-name"])
    def test_wrong_value_type_is_a_catalog_error(self, old, new, message):
        with pytest.raises(CatalogError, match=message):
            loads_catalog(ZEALOT_YAML.replace(old, new))

    def test_integer_dps_loads_as_float(self):
        zealot = loads_catalog(ZEALOT_YAML.replace("dps: 13.33", "dps: 13"))["zealot"]
        assert zealot.base_dps == 13.0 and isinstance(zealot.base_dps, float)

    def test_large_finite_stats_load(self):
        zealot = loads_catalog(ZEALOT_YAML.replace("health: 100", "health: 1" + "0" * 300))["zealot"]
        assert effective_health(zealot) == (10**300 + 50) * 1.5

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "units.yaml"
        path.write_text(ZEALOT_YAML)
        assert "zealot" in load_catalog(path)


class TestRoundTrip:
    def test_default_catalog_round_trips(self, catalog):
        assert loads_catalog(dumps_catalog(catalog)) == catalog

    def test_round_trip_twice_is_stable(self, catalog):
        once = dumps_catalog(catalog)
        assert dumps_catalog(loads_catalog(once)) == once

    def test_catalog_is_unequal_to_a_non_catalog(self, catalog):
        # NotImplemented lets the other operand answer, and Python falls
        # back to identity, so a catalog never equals a plain list or dict
        assert catalog.__eq__(list(catalog)) is NotImplemented
        assert catalog != list(catalog) and catalog != {}


class TestDefaultCatalog:
    def test_fifteen_units(self, catalog):
        assert len(catalog) == 15

    def test_races_covered(self, catalog):
        by_race = {race: [u.name for u in catalog if u.race is race] for race in Race}
        assert len(by_race[Race.PROTOSS]) == 6
        assert len(by_race[Race.TERRAN]) == 5
        assert len(by_race[Race.ZERG]) == 4


class TestYamlLoader:
    SCENARIO = """
name: skirmish
army1: {zealot: 8, stalker: 2}
army2:
  marine: 12
  marauder: 4
model: apx4
trials: 1000
seed: 42
"""

    @pytest.mark.parametrize("name", ["units.yaml", "matchups.yaml", "reference_table.yaml"])
    def test_chosen_loader_matches_pure_python_on_bundled_files(self, name):
        # the package reads its own files itself, and builds PyYAML's documents,
        # types included; so a data file edited out of the reader's subset fails here
        text = resources.files("sc2combat.data").joinpath(name).read_text(encoding="utf-8")
        doc = repr(units.bundled_yaml(name))
        assert doc == repr(yaml.load(text, Loader=yaml.SafeLoader))
        if hasattr(yaml, "CSafeLoader"):
            assert doc == repr(yaml.load(text, Loader=yaml.CSafeLoader))

    def test_chosen_loader_matches_pure_python_on_a_scenario(self):
        doc = yaml.load(self.SCENARIO, Loader=units._yaml_loader())
        assert doc == yaml.load(self.SCENARIO, Loader=yaml.SafeLoader)
        assert doc["army1"] == {"zealot": 8, "stalker": 2}

    def test_pure_python_loader_gives_the_same_bundled_data(self, monkeypatch, yaml_base):
        # what a PyYAML built without libyaml parses the bundled files to
        parses = []

        def pure_python(text, name):
            parses.append(name)
            return units.parse_plain_yaml(text, name, CombatError)

        expected = default_catalog(), builtin_matchups(), reference_table()
        monkeypatch.setattr(units, "_read_bundled", pure_python)
        units.bundled_yaml.cache_clear()
        try:
            assert (default_catalog(), builtin_matchups(), reference_table()) == expected
        finally:
            units.bundled_yaml.cache_clear()
        assert len(parses) == 3 and issubclass(units._yaml_loader(), yaml.parser.Parser)

    def test_pure_python_loader_rejects_a_repeated_key(self, tmp_path, yaml_base):
        # the CLI tests cover the chosen loader
        path = tmp_path / "battle.yaml"
        path.write_text(self.SCENARIO + "trials: 60\n")
        with pytest.raises(ScenarioError, match=r"^scenario is not valid YAML "
                           r"\(line 10, column 1\): found duplicate key 'trials'$"):
            load_scenario(path, default_catalog())
        with pytest.raises(CatalogError, match=r"^catalog is not valid YAML "
                           r"\(line 14, column 3\): found duplicate key 'dps'$"):
            loads_catalog(ZEALOT_YAML + "  dps: 20.0\n")
        assert issubclass(units._yaml_loader(), yaml.parser.Parser)

    @pytest.mark.parametrize("text, line", [
        ("- {name: 'zealot'}\n", 2),
        ("- name: &unit zealot\n", 2),
        ("- name: zealot\n  notes: |\n    from the wiki\n", 3),
        ("- {round: 1,\n   type: Test}\n", 2),
        ("- name: zealot\n  attributes: [light, [biological]\n", 3),
        ("- {ranged: yes}\n", 2),
        ("- {health: 010}\n", 2),
        ("- {race:protoss}\n", 2),
    ], ids=["quoted-scalar", "anchor", "block-scalar", "flow-mapping-over-two-lines",
            "unbalanced-bracket", "yaml-1.1-bool", "octal-int", "colon-without-space"])
    def test_reader_rejects_text_outside_its_subset(self, text, line):
        # all but the unbalanced bracket are YAML that PyYAML reads, the last three as
        # True, 8 and the key 'race:protoss'; the reader refuses them, never guesses
        with pytest.raises(CombatError,
                           match=rf"^units\.yaml, line {line}: outside the YAML subset"):
            units._read_bundled("# a comment\n" + text, "units.yaml")

    def test_catalog_text_must_be_plain_data(self):
        # loads_catalog walks the events as load_catalog does; the bundled files go
        # through the package's own reader instead
        with pytest.raises(CatalogError, match=r"^catalog uses a YAML alias \(line 2\)"):
            loads_catalog("- &zealot {name: zealot}\n- *zealot\n")
        # the document's list is the first level
        with pytest.raises(CatalogError, match=r"^unit record must be a mapping, got list"):
            loads_catalog("- " + "[" * 31 + "]" * 31)
        with pytest.raises(CatalogError, match=r"^catalog nests deeper than 32 levels \(line 1\)"):
            loads_catalog("- " + "[" * 32 + "]" * 32)
