"""Model-accuracy comparisons and table/CSV/JSON emission."""

from __future__ import annotations

import io
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .engine import ModelId
from .errors import ScenarioError
from .montecarlo import AggregateResult
from .scenarios import PAIRINGS, ReferenceRow
from .units import validated

_BAR_WIDTH = 50  # characters in ascii_bar_chart's longest bar


class ComparisonRow(NamedTuple):
    """One matchup/model: simulated win rate next to the bundled references."""

    round: int
    match: str
    model: ModelId
    simulated_win1: float
    reference_win1: float
    test_win1: float

    @property
    def delta_vs_test(self) -> float:
        return abs(self.simulated_win1 - self.test_win1)

    @property
    def delta_vs_reference(self) -> float:
        return abs(self.simulated_win1 - self.reference_win1)


@validated
class ModelErrorSummary(NamedTuple):
    """Mean absolute win-rate error per model, against the test rows."""

    errors: Mapping[ModelId, float]

    def _check(self) -> None:
        for model, value in self.errors.items():
            if not 0.0 <= value <= 1.0:
                raise AssertionError(f"{model.name} MAE {value} outside [0, 1]")


def _reference_index(reference: Iterable[ReferenceRow]) -> dict[tuple[int, str, str], ReferenceRow]:
    return {(row.round, row.type, row.match): row for row in reference}


def _simulated(results: Iterable[AggregateResult]) -> Iterator[tuple[int, str, ModelId, float]]:
    """(round, pairing, model, reported win1) of each result, in order; only
    a builtin matchup has a place in the reference table."""
    for result in results:
        matchup = result.spec.matchup
        if matchup.round is None or matchup.pairing is None:
            raise ScenarioError("simulated results must come from builtin matchups")
        yield matchup.round, matchup.pairing, result.spec.model, result.reported_win1


def mae_by_model(reference: Iterable[ReferenceRow],
                 simulated: Iterable[AggregateResult] | None = None) -> ModelErrorSummary:
    """Mean absolute error of each model's win rate against the test rows.

    Averages over every match present in the reference set (the bundled
    table has all 12). With ``simulated`` results supplied the metric is
    computed against those runs instead of the bundled model rows.
    """
    index = _reference_index(reference)
    matches = sorted({(rnd, match) for rnd, kind, match in index if kind == "Test"},
                     key=lambda key: (key[0], PAIRINGS.index(key[1])))
    if not matches:
        raise ScenarioError("reference set contains no Test rows")
    if {(rnd, match) for rnd, _, match in index} != set(matches):
        raise ScenarioError("reference set has model rows without a matching Test row")

    if simulated is None:
        values = {(rnd, match, ModelId[kind]): row.win1
                  for (rnd, kind, match), row in index.items() if kind != "Test"}
    else:
        values = {(rnd, match, model): win1 for rnd, match, model, win1 in _simulated(simulated)}

    errors: dict[ModelId, float] = {}
    for model in ModelId:
        deltas = []
        for rnd, match in matches:
            if (rnd, match, model) not in values:
                raise ScenarioError(f"no {model.name} win rate for round {rnd} {match}")
            deltas.append(abs(values[(rnd, match, model)] - index[(rnd, "Test", match)].win1))
        errors[model] = sum(deltas) / len(deltas)
    return ModelErrorSummary(errors)


def comparison_rows(reference: Iterable[ReferenceRow],
                    simulated: Iterable[AggregateResult]) -> list[ComparisonRow]:
    """Pair simulated results, in their order, with their reference model and test rows."""
    index = _reference_index(reference)
    rows = []
    for rnd, match, model, win1 in _simulated(simulated):
        key_model = (rnd, model.name, match)
        key_test = (rnd, "Test", match)
        if key_model not in index or key_test not in index:
            raise ScenarioError(f"reference rows missing for {key_model}")
        rows.append(ComparisonRow(round=rnd, match=match, model=model, simulated_win1=win1,
                                  reference_win1=index[key_model].win1,
                                  test_win1=index[key_test].win1))
    return rows


def ascii_bar_chart(summary: ModelErrorSummary) -> str:
    """Plain-text bars of per-model MAE, one line per model."""
    peak = max(summary.errors.values()) or 1.0
    lines = []
    for model in ModelId:
        value = summary.errors[model]
        bar = "#" * max(1, round(value / peak * _BAR_WIDTH)) if value > 0 else ""
        lines.append(f"{model.name}  {value:.4f}  {bar}")
    return "\n".join(lines)


def render_table(columns: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width text table."""
    cells = [[("" if v is None else str(v)) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in cells:
        for i, value in enumerate(row):
            widths[i] = max(widths[i], len(value))
    lines = ["  ".join(name.ljust(widths[i]) for i, name in enumerate(columns)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(value.ljust(widths[i]) for i, value in enumerate(row)).rstrip())
    return "\n".join(lines)


def render_csv(columns: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    import csv  # imported here: ~1 ms that only CSV output need pay
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buffer.getvalue()


def render_json(columns: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    import json  # imported here: ~2.5 ms that only JSON output need pay
    records = [dict(zip(columns, row)) for row in rows]
    return json.dumps(records, indent=2)


def render(fmt: str, columns: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    rows = list(rows)
    if fmt == "table":
        return render_table(columns, rows)
    if fmt == "csv":
        return render_csv(columns, rows)
    if fmt == "json":
        return render_json(columns, rows)
    raise ValueError(f"unknown format: {fmt!r}")
