import csv
import io
import json
from fractions import Fraction
from itertools import product

import pytest

from sc2combat import (
    ExperimentSpec,
    ModelErrorSummary,
    ModelId,
    Race,
    ScenarioError,
    UnitCatalog,
    mae_by_model,
    reference_table,
    run_experiment,
)
from sc2combat.report import (
    ascii_bar_chart,
    comparison_rows,
    render,
    render_csv,
    render_json,
    render_table,
)
from sc2combat.scenarios import MatchupSpec, ReferenceRow

from conftest import make_unit

# frozen from the bundled table: mean |win1(model) - win1(Test)| over 12 matches
EXPECTED_MAE = {
    ModelId.APX1: 0.4033333333333333,
    ModelId.APX2: 0.325,
    ModelId.APX3: 0.28833333333333333,
    ModelId.APX4: 0.2975,
}


def ref_row(round, type, match, win1, win2=None):
    return ReferenceRow(round=round, type=type, match=match,
                        survivors1=(0, 0, 0, 0), survivors2=(0, 0, 0, 0),
                        win1=win1, win2=1.0 - win1 if win2 is None else win2)


class TestMaeByModel:
    def test_bundled_table_values(self):
        summary = mae_by_model(reference_table())
        for model, expected in EXPECTED_MAE.items():
            assert summary.errors[model] == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("value", [1.5, -0.25])
    def test_error_outside_unit_interval_rejected(self, value):
        with pytest.raises(AssertionError, match=rf"APX1 MAE {value} outside \[0, 1\]"):
            ModelErrorSummary({ModelId.APX1: value})

    @staticmethod
    def sign_flip_p(model_a, model_b):
        """Exact two-sided p-value of the paired sign-flip test over the 12
        matchups: the share of the 4096 sign patterns of the per-matchup
        differences |a - Test| - |b - Test| whose sum is at least as far from
        0 as the observed one. Win rates are taken in whole percentage
        points, so that no float rounding breaks a tie."""
        win1 = {(r.round, r.match, r.type): round(r.win1 * 100) for r in reference_table()}
        matches = sorted({(rnd, match) for rnd, match, _ in win1})
        diffs = [abs(win1[m + (model_a,)] - win1[m + ("Test",)])
                 - abs(win1[m + (model_b,)] - win1[m + ("Test",)]) for m in matches]
        observed = abs(sum(diffs))
        hits = sum(abs(sum(s * d for s, d in zip(signs, diffs))) >= observed
                   for signs in product((1, -1), repeat=len(diffs)))
        return Fraction(hits, 2 ** len(diffs))

    def test_model_ranking_p_values(self):
        # the README's reading of the ranking: APX3 below APX4 is no evidence,
        # APX2 below APX1 is
        assert self.sign_flip_p("APX3", "APX4") == Fraction(3680, 4096)
        assert self.sign_flip_p("APX1", "APX2") == Fraction(184, 4096)

    def test_zero_error_when_models_equal_tests(self):
        rows = [ref_row(1, t, "PvT", 0.7) for t in ("Test", "APX1", "APX2", "APX3", "APX4")]
        summary = mae_by_model(rows)
        assert all(v == 0.0 for v in summary.errors.values())

    def test_single_match_subset(self):
        rows = [ref_row(2, "Test", "TvZ", 0.50),
                ref_row(2, "APX1", "TvZ", 0.10),
                ref_row(2, "APX2", "TvZ", 0.30),
                ref_row(2, "APX3", "TvZ", 0.45),
                ref_row(2, "APX4", "TvZ", 0.95)]
        summary = mae_by_model(rows)
        assert summary.errors[ModelId.APX1] == pytest.approx(0.40)
        assert summary.errors[ModelId.APX4] == pytest.approx(0.45)

    def test_missing_model_row_is_incomplete(self):
        rows = [ref_row(1, t, "PvT", 0.5) for t in ("Test", "APX1", "APX2", "APX3")]
        with pytest.raises(ScenarioError, match="APX4"):
            mae_by_model(rows)

    def test_no_test_rows_is_incomplete(self):
        rows = [ref_row(1, "APX1", "PvT", 0.5)]
        with pytest.raises(ScenarioError):
            mae_by_model(rows)

    def test_model_row_without_test_row_is_incomplete(self):
        rows = [ref_row(1, "Test", "PvT", 0.5), ref_row(1, "APX1", "TvZ", 0.5)]
        with pytest.raises(ScenarioError, match="model rows without a matching Test row"):
            mae_by_model(rows)

    def test_simulated_results_override_model_rows(self):
        catalog = UnitCatalog([make_unit("a", health=10, dps=10.0, race=Race.PROTOSS),
                               make_unit("b", health=10, dps=10.0, race=Race.TERRAN)])
        results = []
        for model in ModelId:
            matchup = MatchupSpec(army1=(("a", 1),), army2=(("b", 1),),
                                  round=1, pairing="PvT")
            spec = ExperimentSpec(matchup=matchup, model=model, trials=10, master_seed=0)
            results.append(run_experiment(spec, catalog))
        rows = [ref_row(1, t, "PvT", 0.9) for t in ("Test", "APX1", "APX2", "APX3", "APX4")]
        summary = mae_by_model(rows, results)
        # the mirror matchup always draws, so every simulated win rate is 0.5
        assert all(v == pytest.approx(0.4) for v in summary.errors.values())


class TestComparisonRows:
    CATALOG = UnitCatalog([make_unit("a", health=10, dps=10.0, race=Race.PROTOSS),
                           make_unit("b", health=10, dps=5.0, race=Race.TERRAN)])

    def result(self, round=1, pairing="PvT", model=ModelId.APX1):
        matchup = MatchupSpec(army1=(("a", 1),), army2=(("b", 1),),
                              round=round, pairing=pairing)
        spec = ExperimentSpec(matchup=matchup, model=model,
                              trials=100, master_seed=0)
        return run_experiment(spec, self.CATALOG)

    def test_deltas_recomputed(self):
        rows = [ref_row(1, "Test", "PvT", 0.92), ref_row(1, "APX1", "PvT", 0.99)]
        row = comparison_rows(rows, [self.result()])[0]
        assert row.delta_vs_test == abs(row.simulated_win1 - 0.92)
        assert row.delta_vs_reference == abs(row.simulated_win1 - 0.99)

    def test_custom_matchup_result_rejected(self):
        rows = [ref_row(1, "Test", "PvT", 0.92), ref_row(1, "APX1", "PvT", 0.99)]
        custom = self.result(round=None, pairing=None)
        for compare in (comparison_rows, mae_by_model):
            with pytest.raises(ScenarioError, match="must come from builtin matchups"):
                compare(rows, [custom])

    def test_missing_model_row_rejected(self):
        rows = [ref_row(1, "Test", "PvT", 0.92), ref_row(1, "APX1", "PvT", 0.99)]
        with pytest.raises(ScenarioError, match="reference rows missing for"):
            comparison_rows(rows, [self.result(model=ModelId.APX2)])


class TestRendering:
    COLUMNS = ("name", "value")
    ROWS = [["alpha", 1.25], ["beta", None]]

    def test_table_alignment(self):
        text = render_table(self.COLUMNS, self.ROWS)
        lines = text.splitlines()
        assert lines[0].split() == ["name", "value"]
        assert "alpha" in lines[2] and "1.25" in lines[2]

    def test_csv_round_trip(self):
        text = render_csv(self.COLUMNS, self.ROWS)
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == list(self.COLUMNS)
        assert parsed[1] == ["alpha", "1.25"]
        assert parsed[2] == ["beta", ""]

    def test_json_round_trip(self):
        text = render_json(self.COLUMNS, self.ROWS)
        assert json.loads(text) == [{"name": "alpha", "value": 1.25},
                                    {"name": "beta", "value": None}]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format: 'xml'"):
            render("xml", self.COLUMNS, self.ROWS)

    def test_bar_chart_has_all_models(self):
        summary = mae_by_model(reference_table())
        chart = ascii_bar_chart(summary)
        lines = chart.splitlines()
        assert len(lines) == 4
        assert all("#" in line for line in lines)
        assert lines[0].startswith("APX1")
