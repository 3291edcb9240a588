import copy
import re

import pytest

import sc2combat.scenarios as scenarios
import sc2combat.units as units
from sc2combat import (
    ExperimentSpec,
    ModelId,
    ReferenceRow,
    ScenarioError,
    builtin_matchups,
    default_catalog,
    find_matchup,
    find_reference_row,
    load_scenario,
    reference_table,
    run_experiment,
)
from sc2combat.scenarios import MatchupSpec, build_armies, resolve_matchup

SCENARIO = """
army1:
  zealot: 8
  stalker: 2
army2:
  marine: 12
  marauder: 4
model: apx4
trials: 1000
seed: 42
"""


class TestBuiltinMatchups:
    def test_twelve_matchups_three_per_round(self):
        matchups = builtin_matchups()
        assert len(matchups) == 12
        for rnd in (1, 2, 3, 4):
            assert sum(1 for m in matchups if m.round == rnd) == 3

    def test_round1_pvt_composition(self):
        m = find_matchup(1, "PvT")
        assert m.army1 == (("zealot", 8), ("stalker", 2))
        assert m.army2 == (("marine", 12), ("marauder", 4))

    def test_round3_pvz_has_archon_and_ultralisk(self):
        m = find_matchup(3, "PvZ")
        assert ("archon", 1) in m.army1
        assert ("ultralisk", 1) in m.army2

    def test_round4_tvz_composition(self):
        m = find_matchup(4, "TvZ")
        assert m.army1 == (("marine", 30), ("marauder", 10),
                           ("siege_tank", 4), ("thor", 2))
        assert m.army2 == (("zergling", 40), ("roach", 10),
                           ("hydralisk", 10), ("ultralisk", 4))

    def test_pairing_races_match(self, catalog):
        for m in builtin_matchups():
            build_armies(m, catalog)  # raises on any race mismatch

    def test_pairing_is_case_insensitive(self):
        assert find_matchup(1, "pvt") == find_matchup(1, "PvT")

    def test_unknown_matchup(self):
        with pytest.raises(ScenarioError):
            find_matchup(1, "ZvZ")

    def test_missing_matchup(self):
        with pytest.raises(ScenarioError, match="no builtin matchup for round 5 PvT"):
            find_matchup(5, "pvt")

    def test_label_names_round_and_pairing(self):
        assert find_matchup(1, "pvt").label == "round 1 PvT"


class TestReferenceTable:
    def test_sixty_unique_rows(self):
        rows = reference_table()
        assert len(rows) == 60
        assert len({(r.round, r.type, r.match) for r in rows}) == 60

    def test_round1_test_pvt(self):
        row = find_reference_row(1, "Test", "PvT")
        assert row.win1 == 0.92 and row.win2 == 0.08
        assert row.survivors1 == (4, 1, 0, 0)
        assert row.survivors2 == (3, 0, 0, 0)

    def test_round4_apx4_tvz(self):
        row = find_reference_row(4, "APX4", "TvZ")
        assert row.win1 == 0.00 and row.win2 == 1.00

    def test_round2_apx3_tvz(self):
        row = find_reference_row(2, "APX3", "TvZ")
        assert row.win1 == 0.43 and row.win2 == 0.57

    @pytest.mark.parametrize("win1, win2", [(1.5, -0.5), (-0.5, 1.5), (0.5, 0.6)])
    def test_win_fraction_outside_unit_interval_or_bad_sum_rejected(self, win1, win2):
        with pytest.raises(ScenarioError, match=r"must lie in \[0, 1\] and sum to 1"):
            ReferenceRow(1, "Test", "PvT", (0,) * 4, (0,) * 4, win1, win2)

    @pytest.mark.parametrize("type, match, message", [
        ("APX5", "PvT", "unknown row type: 'APX5'"),
        ("Test", "PvP", "bad row id: round 1 PvP"),
    ])
    def test_bad_row_id_rejected(self, type, match, message):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            ReferenceRow(1, type, match, (0,) * 4, (0,) * 4, 0.5, 0.5)

    @pytest.mark.parametrize("round, type", [(5, "Test"), (1, "APX5")])
    def test_missing_row(self, round, type):
        with pytest.raises(ScenarioError, match=f"no reference row for round {round} {type} PvT"):
            find_reference_row(round, type, "pvt")


class TestBundledDataCache:
    @pytest.fixture
    def parsed(self, monkeypatch):
        """The names of the documents parsed from here on, with a cold cache."""
        names = []
        original = units._read_bundled
        monkeypatch.setattr(units, "_read_bundled",
                            lambda text, name: names.append(name) or original(text, name))
        units.bundled_yaml.cache_clear()
        return names

    def test_repeated_lookups_parse_yaml_once(self, parsed):
        for _ in range(3):
            assert find_matchup(1, "PvT").round == 1
            assert find_reference_row(1, "Test", "PvT").win1 == 0.92
        assert len(parsed) == 2

    def test_default_catalog_parses_units_once(self, parsed):
        first, second = default_catalog(), default_catalog()
        assert parsed == ["units.yaml"]
        assert first is not second and first == second

    def test_each_call_returns_a_new_list(self):
        matchups = builtin_matchups()
        matchups.clear()
        assert len(builtin_matchups()) == 12
        rows = reference_table()
        rows.pop()
        assert len(reference_table()) == 60


class TestBundledDataChecks:
    """Each count check of the bundled matchups and reference rows, fed a
    copy of the bundled document with one fault in it."""

    @pytest.fixture
    def bundled(self, monkeypatch):
        """Install ``edit``, applied to a deep copy of every bundled
        document that ``scenarios`` reads."""
        def install(edit):
            monkeypatch.setattr(scenarios, "bundled_yaml",
                                lambda name: edit(copy.deepcopy(units.bundled_yaml(name))))
        return install

    def test_dropped_matchup_rejected(self, bundled):
        bundled(lambda doc: doc[:-1])
        with pytest.raises(ScenarioError, match="exactly the 12 benchmark matchups"):
            builtin_matchups()

    def test_matchup_moved_to_another_round_rejected(self, bundled):
        def move(doc):
            doc[0]["round"] = 2 if doc[0]["round"] == 1 else 1
            return doc
        bundled(move)
        with pytest.raises(ScenarioError, match="exactly the 12 benchmark matchups"):
            builtin_matchups()

    def test_duplicated_reference_row_rejected(self, bundled):
        bundled(lambda doc: doc[:-1] + doc[:1])
        with pytest.raises(ScenarioError, match="exactly 60 distinct rows"):
            reference_table()


class TestMatchupValidation:
    def test_zero_count_rejected(self):
        with pytest.raises(ScenarioError):
            MatchupSpec(army1=(("zealot", 0),), army2=(("marine", 1),))

    def test_empty_army_rejected(self):
        with pytest.raises(ScenarioError):
            MatchupSpec(army1=(), army2=(("marine", 1),))

    @pytest.mark.parametrize("count", [2.5, True])
    def test_non_integer_count_rejected(self, count):
        # a library matchup gets the rule a YAML one does: 2.5 marines once
        # ran and left -90 survivors, and True ran as one unit
        reason = f"army1 count for 'marine' must be an int >= 1, got {count!r}"
        with pytest.raises(ScenarioError, match=re.escape(reason)):
            MatchupSpec(army1=(("marine", count),), army2=(("zergling", 3),))

    @pytest.mark.parametrize("fields, message", [
        ({"round": 1, "pairing": "PvP"}, "unknown pairing: 'PvP'"),
        ({"round": 5, "pairing": "PvT"}, "round must be 1..4, got 5"),
    ])
    def test_bad_builtin_id_rejected(self, fields, message):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            MatchupSpec(army1=(("zealot", 1),), army2=(("marine", 1),), **fields)

    def test_race_mismatch_rejected(self, catalog):
        bad = MatchupSpec(army1=(("marine", 1),), army2=(("zealot", 1),),
                          round=1, pairing="PvT")
        with pytest.raises(ScenarioError, match="terran"):
            build_armies(bad, catalog)

    # army1 is valid, so only army2's lookup or race pin can raise
    @pytest.mark.parametrize("army2, message", [
        ((("zergling", 4),), "'zergling' is zerg, expected terran"),
        ((("wraith", 1),), "unknown unit name: 'wraith'"),
    ])
    @pytest.mark.parametrize("resolve", [
        resolve_matchup,
        lambda matchup, catalog: run_experiment(
            ExperimentSpec(matchup, ModelId.APX1, trials=1), catalog),
    ], ids=["resolve_matchup", "run_experiment"])
    def test_army2_alone_rejected(self, catalog, army2, message, resolve):
        bad = MatchupSpec(army1=(("zealot", 2),), army2=army2, round=1, pairing="PvT")
        with pytest.raises(ScenarioError) as excinfo:
            resolve(bad, catalog)
        assert str(excinfo.value) == message


class TestLoadScenario:
    @pytest.fixture
    def load(self, tmp_path, catalog):
        """``load_scenario`` on a file holding the given text."""
        def load(text):
            path = tmp_path / "battle.yaml"
            path.write_text(text, encoding="utf-8")
            return load_scenario(path, catalog)
        return load

    def test_valid_scenario(self, load):
        scenario = load(SCENARIO)
        assert scenario.matchup.army1 == (("zealot", 8), ("stalker", 2))
        assert scenario.model is ModelId.APX4
        assert scenario.trials == 1000
        assert scenario.seed == 42

    def test_optional_fields_default_to_none(self, load):
        scenario = load("army1: {zealot: 1}\narmy2: {marine: 1}")
        assert scenario.model is None
        assert scenario.trials is None
        assert scenario.seed is None

    def test_unknown_unit(self, load):
        doc = SCENARIO.replace("marine", "wraith")
        with pytest.raises(ScenarioError, match="wraith"):
            load(doc)

    def test_zero_count(self, load):
        doc = SCENARIO.replace("zealot: 8", "zealot: 0")
        with pytest.raises(ScenarioError):
            load(doc)

    def test_missing_army(self, load):
        with pytest.raises(ScenarioError, match="army"):
            load("army1: {zealot: 1}")

    def test_bad_model(self, load):
        doc = SCENARIO.replace("apx4", "apx9")
        with pytest.raises(ScenarioError, match="model"):
            load(doc)

    def test_bad_trials(self, load):
        doc = SCENARIO.replace("trials: 1000", "trials: 0")
        with pytest.raises(ScenarioError, match="trials"):
            load(doc)

    @pytest.mark.parametrize("seed", [-1, 2**64, "x"])
    def test_bad_seed(self, load, seed):
        doc = SCENARIO.replace("seed: 42", f"seed: {seed}")
        with pytest.raises(ScenarioError, match="seed"):
            load(doc)

    @pytest.mark.parametrize("key", ["name", "model", "trials", "seed"])
    def test_null_optional_key_rejected(self, load, key):
        with pytest.raises(ScenarioError, match=key):
            load(f"army1: {{zealot: 1}}\narmy2: {{marine: 1}}\n{key}: ~")

    @pytest.mark.parametrize("value, name", [("skirmish", "skirmish"), ("42", "42"), ("''", "")])
    def test_name_kept_as_text(self, load, value, name):
        doc = f"army1: {{zealot: 1}}\narmy2: {{marine: 1}}\nname: {value}"
        assert load(doc).matchup.name == name

    def test_unknown_key(self, load):
        with pytest.raises(ScenarioError, match="unknown"):
            load(SCENARIO + "\nupgrades: 3")
