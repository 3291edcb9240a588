import collections
import math
import random
import re
from importlib import resources

import pytest
import yaml

import sc2combat.units as units
from sc2combat import (
    CatalogError,
    CombatError,
    Race,
    UnitCatalog,
    UnitClass,
    default_catalog,
    dumps_catalog,
    effective_bonus_dps,
    effective_dps,
    effective_health,
    load_catalog,
    loads_catalog,
)
from sc2combat.errors import listed, quoted

from conftest import SCENARIO, ZEALOT_YAML, make_unit
from test_readme import fenced_block


# The scenario and catalog texts the docs, CI, the benchmark and the tests
# load
VALID_TEXTS = {
    "readme-scenario": fenced_block("### Scenario files"),
    "cli-scenario": SCENARIO,
    "mixed-scenario": "name: skirmish\narmy1: {zealot: 8, stalker: 2}\narmy2:\n  marine: 12\n"
                      "  marauder: 4\nmodel: apx4\ntrials: 1000\nseed: 42\n",
    "ci-scenario": "army1: {zealot: 2}\narmy2: {marine: 3}\n",
    # the file the benchmark's cli workload writes for `run --scenario`
    "safe-dumped-scenario": yaml.safe_dump({
        "army1": {"zealot": 6, "stalker": 3}, "army2": {"marine": 10, "marauder": 3},
        "model": "apx3", "trials": 300}),
    "zealot-catalog": ZEALOT_YAML,
    "longest-key": "k" * 1024 + ": 1\n",  # YAML's limit on a key on one line
}
# what an edit inserts or puts in place of a character: the grammar's own
# characters and YAML's others
EDIT_CHARACTERS = " \n-:#[]{},.0e+_ay'\"&*~!|>?%@`\t"
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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
        for fields in (dict(health=-1), dict(shields=-1), dict(armor=-1)):
            with pytest.raises(CatalogError, match="must be non-negative$"):
                make_unit(**fields)
        make_unit(health=0, shields=1)  # all shields, as no builtin unit has

    def test_defaults_make_a_single_target_melee_unit(self):
        assert UnitClass("u", Race.TERRAN, 10, 0, 0, 5.0) == make_unit()

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

    @pytest.mark.parametrize("fields, message", [
        (dict(name=5), "5: bad name value (expected a string, got 5)"),
        (dict(attrs=(1,)), "u: bad attributes value (expected a frozenset of lowercase "
                           "strings, got frozenset({1}))"),
        (dict(bonus=2.0, bonus_vs=(1,)), "u: bad bonus_vs value (expected a frozenset of "
                                         "lowercase strings, got frozenset({1}))"),
        (dict(attrs=("Light",)), "u: bad attributes value (expected a frozenset of "
                                 "lowercase strings, got frozenset({'Light'}))"),
        (dict(name=""), "unit name must be non-empty"),
        (dict(race="terran"), "u: bad race value (expected a Race, got 'terran')"),
        (dict(health=True), "u: bad health value (expected an integer, got True)"),
        (dict(dps=True), "u: bad dps value (expected a number, got True)"),
        (dict(ranged=1), "u: bad ranged value (expected true or false, got 1)"),
    ], ids=["int-name", "int-attribute", "int-bonus-tag", "capital-tag", "empty-name",
            "str-race", "bool-health", "bool-dps", "int-ranged"])
    def test_field_of_the_wrong_type_rejected(self, fields, message):
        # the rules a catalog file's fields obey: before, race="terran" failed
        # inside the engine, dumps_catalog wrote `health: true` and `- name: 5`,
        # which loads_catalog refuses, and tags read back as '1' and 'light'
        with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
            make_unit(**fields)

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
        with pytest.raises(CatalogError, match=r"^catalog, line 1: outside the YAML subset "
                           r"sc2combat reads: '\{' is no plain int, float, true, false or word$"):
            loads_catalog("{unclosed")

    def test_not_a_list(self):
        with pytest.raises(CatalogError, match="list"):
            loads_catalog("name: zealot")

    # a YAML value that overflowed into a traceback or loaded as a wrong stat; a
    # float past the largest one (1.0e+999) is inf, and the reader has no .nan
    @pytest.mark.parametrize("old, new, message", [
        ("health: 100", "health: 1.0e+999", "^zealot: bad health value "),
        ("armor: 1", "armor: 2000", "^zealot: "),
        ("health: 100", "health: 1" + "0" * 400, "^zealot: "),
        ("dps: 13.33", "dps: .nan", "^catalog, line 7: outside the YAML subset "),
        ("dps: 13.33", "dps: 1.0e+999", "^zealot: effective health and DPS must be finite$"),
        ("dps: 13.33", "dps: 1" + "0" * 400, "^zealot: "),
        ("aoe_area: 1.0", "aoe_area: 1.0e+999", "^zealot: effective health and DPS must be finite$"),
        ("health: 100", "health: 12.7", "^zealot: "),
        ("health: 100", "health: true", "^zealot: "),
        ("shields: 50", "shields: fifty", "^zealot: bad shields value "),
    ], ids=["inf-health", "armor-2000", "400-digit-health", "nan-dps", "inf-dps",
            "400-digit-dps", "inf-aoe", "fractional-health", "bool-health", "string-shields"])
    def test_bad_stat_is_a_catalog_error(self, old, new, message):
        with pytest.raises(CatalogError, match=message):
            loads_catalog(ZEALOT_YAML.replace(old, new))

    # a value of the wrong YAML type that a bool(), float() or str() call accepted
    @pytest.mark.parametrize("old, new, message", [
        ("ranged: false", "ranged: nope", "^zealot: bad ranged value "),
        ("dps: 13.33", "dps: true", "^zealot: bad dps value "),
        ("dps: 13.33", "dps: fast", "^zealot: bad dps value "),
        ("bonus_dps: 0.0", "bonus_dps: false", "^zealot: bad bonus_dps value "),
        ("aoe_area: 1.0", "aoe_area: wide", "^zealot: bad aoe_area value "),
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


@pytest.mark.parametrize("length", [78, 79])
def test_message_quotes_80_characters_of_a_value(length):
    # the README's limit: a repr of 80 characters is whole, a longer one cut there
    text = quoted("x" * length)
    assert text == ("'" + "x" * 78 + "'" if length == 78 else "'" + "x" * 79 + "...")
    # a list adds its count only when its quote is cut
    assert listed(["x" * (length - 2)]).endswith(" (1 in all)") == (length == 79)


class TestRoundTrip:
    def test_default_catalog_round_trips(self, catalog):
        assert loads_catalog(dumps_catalog(catalog)) == catalog
        # str(1e16) is '1e+16', which YAML reads as a string
        one = UnitCatalog([make_unit(dps=1e16)])
        assert "dps: 1.0e+16\n" in dumps_catalog(one) and loads_catalog(dumps_catalog(one)) == one

    def test_dumped_catalog_reads_as_pyyaml_reads_it(self, catalog):
        text = dumps_catalog(catalog)
        assert repr(units.parse_yaml(text, "catalog", CatalogError)) == repr(yaml.safe_load(text))

    def test_catalog_is_unequal_to_a_non_catalog(self, catalog):
        # NotImplemented lets the other operand answer, and Python falls
        # back to identity, so a catalog never equals a plain list or dict
        assert catalog.__eq__(list(catalog)) is NotImplemented
        assert catalog != list(catalog) and catalog != {}


class TestDefaultCatalog:
    def test_races_covered(self, catalog):
        by_race = {race: [u.name for u in catalog if u.race is race] for race in Race}
        assert len(by_race[Race.PROTOSS]) == 6
        assert len(by_race[Race.TERRAN]) == 5
        assert len(by_race[Race.ZERG]) == 4


class TestYamlLoader:
    """The package's one reader, ``units.parse_yaml``, against PyYAML: every
    document it accepts is the one ``yaml.safe_load`` builds."""

    @staticmethod
    def outcome(text):
        """"refused" when the reader refuses ``text`` in one line naming its
        line, "same" when it reads the document PyYAML builds, types
        included, and "different" otherwise."""
        try:
            doc = units.parse_yaml(text, "catalog", CatalogError)
        except CatalogError as exc:
            one_line = re.fullmatch(r"catalog, line \d+: outside the YAML subset "
                                    r"sc2combat reads: [^\n]{1,200}", str(exc))
            return "refused" if one_line else "different"
        try:
            same = repr(doc) == repr(yaml.load(text, Loader=YAML_LOADER))
        except Exception:  # PyYAML refuses the text, or cannot build a value
            same = False
        return "same" if same else "different"

    @pytest.mark.parametrize("name", ["units.yaml", "matchups.yaml", "reference_table.yaml"])
    def test_reader_matches_pyyaml_on_bundled_files(self, name):
        # so a data file edited out of the reader's subset fails here
        text = resources.files("sc2combat.data").joinpath(name).read_text(encoding="utf-8")
        assert repr(units.bundled_yaml(name)) == repr(yaml.safe_load(text))

    @pytest.mark.parametrize("text", VALID_TEXTS.values(), ids=VALID_TEXTS.keys())
    def test_reader_matches_pyyaml_on_valid_files(self, text):
        doc = units.parse_yaml(text, "file", CombatError)
        assert doc is not None and repr(doc) == repr(yaml.safe_load(text))

    def test_reader_matches_pyyaml_on_edited_files(self):
        # 1-3 random one-character edits of each valid text, of the bundled files
        # and of dumps_catalog's block sequences
        bundled = [resources.files("sc2combat.data").joinpath(name).read_text(encoding="utf-8")
                   for name in ("units.yaml", "matchups.yaml", "reference_table.yaml")]
        texts = [*VALID_TEXTS.values(), *bundled, dumps_catalog(default_catalog())]
        rng = random.Random(36)
        outcomes = collections.Counter()
        for _ in range(3000):
            text = rng.choice(texts)
            for _ in range(rng.randint(1, 3)):  # an insertion, a deletion or a change
                at, cut = rng.randrange(len(text) + 1), rng.randint(0, 1)
                text = text[:at] + rng.choice(EDIT_CHARACTERS) * rng.randint(1 - cut, 1) \
                    + text[at + cut:]
            outcome = self.outcome(text)
            assert outcome != "different", text
            outcomes[outcome] += 1
        assert min(outcomes.values()) > 300, outcomes  # the edits reach both outcomes

    @pytest.mark.parametrize("text, line", [
        ("- {name: 'zealot'}\n", 2),
        ("- name: &unit zealot\n", 2),
        ("- name: zealot\n  notes: |\n    from the wiki\n", 3),
        ("- {round: 1,\n   type: Test}\n", 2),
        ("- name: zealot\n  attributes: [light, [biological]\n", 3),
        ("- {ranged: yes}\n", 2),
        ("- {health: 010}\n", 2),
        ("- {race:protoss}\n", 2),
        ("- {name: ~}\n", 2),
        ("- name:\n- x\n", 2),
        ("- attributes:\n    - light\n", 2),
        ("- name: zealot\n  more\n", 3),
        ("- {survivors1: [[1]]}\n", 2),
        ("army1:\n  zealot: 2\n- x\n", 4),
        ("k" * 1025 + ": 1\n", 2),
    ], ids=["quoted-scalar", "anchor", "block-scalar", "flow-mapping-over-two-lines",
            "unbalanced-bracket", "yaml-1.1-bool", "octal-int", "colon-without-space",
            "null", "key-without-value", "indented-sequence", "two-line-scalar",
            "flow-three-levels-deep", "block-of-keys-and-items", "key-past-1024"])
    def test_reader_rejects_text_outside_its_subset(self, text, line):
        # PyYAML reads all but the unbalanced bracket, the mixed block and the long key,
        # the 1.1 bool, octal int and missing space as True, 8 and the key
        # 'race:protoss'; the reader refuses them all, never guesses
        with pytest.raises(CombatError,
                           match=rf"^units\.yaml, line {line}: outside the YAML subset"):
            units.parse_yaml("# a comment\n" + text, "units.yaml", CombatError)

    def test_catalog_text_must_be_plain_data(self):
        # an alias is refused before it is looked up
        with pytest.raises(CatalogError, match=r"^catalog, line 1: outside the YAML subset "
                           r"sc2combat reads: '&zealot' is no plain"):
            loads_catalog("- &zealot {name: zealot}\n- *zealot\n")
        # a one-line value nests flow collections two levels deep at most
        with pytest.raises(CatalogError, match=r"^unit record must be a mapping, got list"):
            loads_catalog("- [[]]")
        with pytest.raises(CatalogError, match=r"^catalog, line 1: outside the YAML subset "
                           r"sc2combat reads: '\[' is no plain"):
            loads_catalog("- [[[]]]")

    @pytest.mark.parametrize("name", ["two words", "1", "yes", "Null", "'q'"])
    def test_dumps_catalog_refuses_a_value_the_reader_would_misread(self, name):
        # each would be refused, or read back as another value
        with pytest.raises(CatalogError, match="is no plain int, float, true, false or word$"):
            dumps_catalog(UnitCatalog([make_unit(name=name)]))
