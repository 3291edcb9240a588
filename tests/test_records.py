"""The ten record types: each is a NamedTuple whose values, repr, pickling
and validation stay as they were when the records were frozen dataclasses."""

import ast
import importlib
import inspect
import pickle
import pkgutil
from pathlib import Path

import pytest

import sc2combat
from sc2combat import (
    CatalogError,
    ExperimentSpec,
    MatchupSpec,
    ModelId,
    Race,
    Scenario,
    ScenarioError,
    UnitClass,
    comparison_rows,
    enumerate_exact,
    find_matchup,
    mae_by_model,
    reference_table,
    run_experiment,
)
from sc2combat.oracle import EnumerationLimits
from sc2combat.report import ModelErrorSummary

UNIT = UnitClass(name="marauder", race=Race.TERRAN, base_health=125, shields=0, armor=1,
                 base_dps=10.0, ranged=True, attributes=frozenset({"armored"}),
                 bonus_base_dps=10.0, bonus_vs=frozenset({"armored"}))
DUEL = MatchupSpec(army1=(("zealot", 1),), army2=(("marine", 2),), name="duel")
SPEC = ExperimentSpec(DUEL, ModelId.APX1, 10, 3)
DUEL_REPR = ("MatchupSpec(army1=(('zealot', 1),), army2=(('marine', 2),), round=None, "
             "pairing=None, name='duel')")
SPEC_REPR = (f"ExperimentSpec(matchup={DUEL_REPR}, model=<ModelId.APX1: 1>, trials=10, "
             "master_seed=3)")


def _records(catalog):
    """One instance of each record type, in the order of ``REPRS``."""
    pvt = run_experiment(ExperimentSpec(find_matchup(1, "PvT"), ModelId.APX4, 10, 0), catalog)
    exact = MatchupSpec(army1=(("zealot", 1),), army2=(("zergling", 1),))
    return [
        UNIT,
        DUEL,
        Scenario(matchup=DUEL, model=ModelId.APX2, trials=50, seed=7),
        reference_table()[0],
        SPEC,
        run_experiment(SPEC, catalog),
        EnumerationLimits(),
        enumerate_exact(exact, ModelId.APX1, catalog),
        comparison_rows(reference_table(), [pvt])[0],
        mae_by_model(reference_table()),
    ]


# taken from the frozen dataclasses these records replaced
REPRS = [
    "UnitClass(name='marauder', race=<Race.TERRAN: 'terran'>, base_health=125, shields=0, "
    "armor=1, base_dps=10.0, aoe_area=1.0, ranged=True, attributes=frozenset({'armored'}), "
    "bonus_base_dps=10.0, bonus_aoe_area=1.0, bonus_vs=frozenset({'armored'}))",
    DUEL_REPR,
    f"Scenario(matchup={DUEL_REPR}, model=<ModelId.APX2: 2>, trials=50, seed=7)",
    "ReferenceRow(round=1, type='Test', match='PvT', survivors1=(4, 1, 0, 0), "
    "survivors2=(3, 0, 0, 0), win1=0.92, win2=0.08)",
    SPEC_REPR,
    f"AggregateResult(spec={SPEC_REPR}, win1_count=10, win2_count=0, draw_count=0, "
    "stalemate_count=0, survivors1_sum=(10,), survivors2_sum=(0,))",
    "EnumerationLimits(max_units_per_side=4, max_states=20000)",
    "ExactDistribution(as_floats={(<Winner.DRAW: 'draw'>, (0,), (0,)): 0.030337317200748587, "
    "(<Winner.ARMY2: 'army2'>, (0,), (1,)): 0.04931805429409016, "
    "(<Winner.ARMY1: 'army1'>, (1,), (0,)): 0.9203446285051613})",
    "ComparisonRow(round=1, match='PvT', model=<ModelId.APX4: 4>, simulated_win1=0.9, "
    "reference_win1=0.81, test_win1=0.92)",
    "ModelErrorSummary(errors={<ModelId.APX1: 1>: 0.4033333333333333, <ModelId.APX2: 2>: 0.325, "
    "<ModelId.APX3: 3>: 0.28833333333333333, <ModelId.APX4: 4>: 0.2975})",
]


def test_reprs_are_pinned_and_records_immutable(catalog):
    records = _records(catalog)
    assert [type(r).__name__ for r in records] == [text.split("(")[0] for text in REPRS]
    for record, text in zip(records, REPRS):
        assert repr(record) == text
        first = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, first, None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_signatures_list_the_fields(catalog):
    # help() shows each record's constructor by this signature
    wrong = []
    for cls in map(type, _records(catalog)):
        params = inspect.signature(cls).parameters.values()
        defaults = {p.name: p.default for p in params if p.default is not p.empty}
        if [p.name for p in params] != list(cls._fields) or defaults != cls._field_defaults:
            wrong.append(cls.__name__)
    assert wrong == []


def test_no_module_imports_inspect():
    # the signatures come from functools.wraps: importing inspect (which
    # dataclasses did) would cost Python 3.10 and 3.11 CLI processes what
    # dropping dataclasses saved; 3.12+ load it through importlib.resources
    # anyway, so this reads the source rather than sys.modules
    importers = []
    for path in sorted(Path(sc2combat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "inspect" in names:
                importers.append(path.name)
    assert importers == []


# (valid record, field, bad value, exception type, message)
BAD_VALUES = [
    (UNIT, "base_dps", -1.0, CatalogError, "marauder: DPS values must be non-negative"),
    (DUEL, "pairing", "PvP", ScenarioError, "unknown pairing: 'PvP'"),
    (reference_table()[0], "win1", 1.5, ScenarioError,
     "round 1 Test PvT: win percentages 1.5 and 0.08 must lie in [0, 1] and sum to 1"),
    (SPEC, "trials", 0, ValueError, "trials must be an int >= 1, got 0"),
    (ModelErrorSummary({ModelId.APX1: 0.5}), "errors", {ModelId.APX1: 1.5}, AssertionError,
     "APX1 MAE 1.5 outside [0, 1]"),
]


@pytest.mark.parametrize("record, field, bad, error, message", BAD_VALUES,
                         ids=[type(case[0]).__name__ for case in BAD_VALUES])
def test_validation_cannot_be_bypassed(record, field, bad, error, message):
    values = record._asdict()
    assert type(record)(**values) == record
    values[field] = bad
    with pytest.raises(error) as built:
        type(record)(**values)
    with pytest.raises(error) as replaced:
        record._replace(**{field: bad})
    with pytest.raises(error) as made:
        type(record)._make(values.values())
    assert type(built.value) is type(replaced.value) is type(made.value) is error
    assert str(built.value) == str(replaced.value) == str(made.value) == message
    # and each record pickles as itself
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is type(record)


def test_every_validating_record_has_a_bad_value_case():
    modules = [sc2combat] + [importlib.import_module(f"sc2combat.{info.name}")
                             for info in pkgutil.iter_modules(sc2combat.__path__)]
    checked = {value for module in modules for value in vars(module).values()
               if isinstance(value, type) and hasattr(value, "_fields")
               and hasattr(value, "_check")}
    assert checked == {type(case[0]) for case in BAD_VALUES}
