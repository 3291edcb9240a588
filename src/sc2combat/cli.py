"""Command-line front end.

Subcommands:
    run            simulate a user scenario file
    reproduce      simulate builtin matchups and emit reference-table-style rows
    compare        simulate builtin matchups and diff against the bundled references
    mae            per-model mean absolute error (from bundled data or fresh runs)
    list-units     show the unit catalog with derived stats
    list-matchups  show the builtin matchups

Exit codes: 0 success, 1 data error, 2 usage error.
"""

import argparse
import sys
from typing import Sequence

from . import report
from .engine import ModelId
from .errors import CombatError
from .montecarlo import (AggregateResult, ExperimentSpec, run_experiment, run_experiments,
                         usable_cpus)
from .scenarios import (PAIRINGS, ROUNDS, builtin_matchups, count_problem, load_scenario,
                        reference_table, seed_problem)
from .units import (
    UnitCatalog,
    default_catalog,
    effective_bonus_dps,
    effective_dps,
    effective_health,
    load_catalog,
)

TABLE1_COLUMNS = ("round", "type", "match",
                  "1-1", "1-2", "1-3", "1-4", "2-1", "2-2", "2-3", "2-4",
                  "1-%", "2-%")
_DEFAULT_TRIALS = ExperimentSpec._field_defaults["trials"]
_DEFAULT_SEED = ExperimentSpec._field_defaults["master_seed"]
_MODELS = tuple(model.name.lower() for model in ModelId)


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "csv", "json"), default="table")
    parser.add_argument("--output", metavar="PATH", help="write report here instead of stdout")


def _add_common(parser: argparse.ArgumentParser, simulation: bool = True) -> None:
    parser.add_argument("--catalog", metavar="PATH",
                        help="unit catalog file (default: bundled catalog)")
    _add_output(parser)
    if simulation:
        # no argparse defaults: None marks a flag not given, which _first_given
        # resolves and mae without --simulate rejects
        parser.add_argument("--trials", type=int)
        parser.add_argument("--seed", type=int)
        parser.add_argument("--jobs", type=int,
                            help="worker processes (default: the usable CPUs; "
                                 "results identical for any value)")


def _add_filters(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="all",
                        choices=(*_MODELS, "all"),
                        help="model to run (default all)")
    parser.add_argument("--round", default="all", dest="round_",
                        choices=(*map(str, ROUNDS), "all"),
                        help="benchmark round (default all)")
    parser.add_argument("--match", default="all",
                        choices=(*(pairing.lower() for pairing in PAIRINGS), "all"),
                        help="race pairing (default all)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sc2combat",
        description="Damage-pool approximation models of army combat.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario file")
    p_run.add_argument("--scenario", required=True, metavar="PATH")
    p_run.add_argument("--model", default=None, choices=_MODELS,
                       help="model to run (overrides the scenario file)")
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("reproduce", help="rerun builtin matchups, reference-table layout")
    _add_filters(p_rep)
    _add_common(p_rep)
    p_rep.set_defaults(func=_cmd_reproduce)

    p_cmp = sub.add_parser("compare", help="diff fresh runs against the bundled references")
    _add_filters(p_cmp)
    _add_common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_mae = sub.add_parser("mae", help="mean absolute error per model vs the test rows")
    p_mae.add_argument("--simulate", action="store_true",
                       help="run fresh simulations instead of the bundled model rows")
    p_mae.add_argument("--chart", action="store_true", help="append a plain-text bar chart")
    _add_common(p_mae)
    # --simulate runs every builtin matchup under every model
    p_mae.set_defaults(func=_cmd_mae, model="all", round_="all", match="all")

    p_units = sub.add_parser("list-units", help="show the unit catalog")
    _add_common(p_units, simulation=False)
    p_units.set_defaults(func=_cmd_list_units)

    p_match = sub.add_parser("list-matchups", help="show the builtin matchups")
    _add_output(p_match)
    p_match.set_defaults(func=_cmd_list_matchups)

    return parser


def _catalog_from(args: argparse.Namespace) -> UnitCatalog:
    if args.catalog:
        return load_catalog(args.catalog)
    return default_catalog()


def _emit(args: argparse.Namespace, text: str) -> None:
    text = text.rstrip("\n")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _first_given(*values: int | None) -> int:
    return next(value for value in values if value is not None)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _run_selected(args: argparse.Namespace) -> list[AggregateResult]:
    """Every selected model on every selected builtin matchup, in report
    order: by round, then model, then pairing. The filter values are already
    restricted by the parser's choices."""
    models = list(ModelId) if args.model == "all" else [ModelId.parse(args.model)]
    matchups = [m for m in builtin_matchups()
                if args.round_ in ("all", str(m.round))
                and args.match in ("all", m.pairing.lower())]
    trials = _first_given(args.trials, _DEFAULT_TRIALS)
    seed = _first_given(args.seed, _DEFAULT_SEED)
    specs = sorted((ExperimentSpec(matchup=matchup, model=model, trials=trials, master_seed=seed)
                    for model in models for matchup in matchups),
                   key=lambda s: (s.matchup.round, s.model.value,
                                  PAIRINGS.index(s.matchup.pairing)))
    return run_experiments(specs, _catalog_from(args),
                           n_jobs=_first_given(args.jobs, usable_cpus()))


def _number(value: float, digits: int, fmt: str) -> object:
    """A number cell: text with ``digits`` decimals, or in JSON the rounded float."""
    return round(value, digits) if fmt == "json" else f"{value:.{digits}f}"


def _survivor_cells(means: tuple[float, ...] | None, fmt: str) -> list[object]:
    """Four survivor columns, padded with zeros; integers in table view, one
    decimal otherwise."""
    if means is None:
        return [0 if fmt == "table" else None] * 4
    values = (list(means) + [0.0] * 4)[:4]
    if fmt == "table":
        return [round(value) for value in values]
    return [_number(value, 1, fmt) for value in values]


def _table1_row(result: AggregateResult, fmt: str) -> list[object]:
    matchup = result.spec.matchup
    return (
        [matchup.round, result.spec.model.name, matchup.pairing]
        + _survivor_cells(result.mean_survivors1, fmt)
        + _survivor_cells(result.mean_survivors2, fmt)
        + [_number(result.reported_win1, 2, fmt), _number(result.reported_win2, 2, fmt)]
    )


def _cmd_run(args: argparse.Namespace) -> int:
    catalog = _catalog_from(args)
    scenario = load_scenario(args.scenario, catalog)
    # a flag that was given wins, then the scenario file, then the default
    model = ModelId.parse(args.model) if args.model else scenario.model or ModelId.APX4
    trials = _first_given(args.trials, scenario.trials, _DEFAULT_TRIALS)
    seed = _first_given(args.seed, scenario.seed, _DEFAULT_SEED)
    spec = ExperimentSpec(matchup=scenario.matchup, model=model,
                          trials=trials, master_seed=seed)
    result = run_experiment(spec, catalog, n_jobs=_first_given(args.jobs, usable_cpus()))

    def survivors(names: Sequence[str], means: tuple[float, ...] | None) -> object:
        if means is None:
            return None
        pairs = [(name, round(mean, 2)) for name, mean in zip(names, means)]
        if args.format == "json":
            return dict(pairs)
        return " ".join(f"{name}:{mean}" for name, mean in pairs)

    names1 = [name for name, _ in scenario.matchup.army1]
    names2 = [name for name, _ in scenario.matchup.army2]
    columns = ("scenario", "model", "trials", "seed",
               "win1", "win2", "draw", "stalemates", "survivors1", "survivors2")
    row = [
        scenario.matchup.label, model.name, trials, seed,
        _number(result.win1, 2, args.format), _number(result.win2, 2, args.format),
        _number(result.draw, 2, args.format), result.stalemate_count,
        survivors(names1, result.mean_survivors1),
        survivors(names2, result.mean_survivors2),
    ]
    _emit(args, report.render(args.format, columns, [row]))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    rows = [_table1_row(result, args.format) for result in _run_selected(args)]
    _emit(args, report.render(args.format, TABLE1_COLUMNS, rows))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    rows = report.comparison_rows(reference_table(), _run_selected(args))
    columns = ("round", "match", "model", "win1_sim", "win1_model", "win1_test",
               "delta_vs_test", "delta_vs_model")
    cells = [
        [row.round, row.match, row.model.name,
         *(_number(value, 2, args.format)
           for value in (row.simulated_win1, row.reference_win1, row.test_win1,
                         row.delta_vs_test, row.delta_vs_reference))]
        for row in rows
    ]
    _emit(args, report.render(args.format, columns, cells))
    return 0


def _cmd_mae(args: argparse.Namespace) -> int:
    if args.chart and args.format != "table":
        return _usage_error("--chart needs --format table")
    given = [f"--{flag}" for flag in ("catalog", "trials", "seed", "jobs")
             if getattr(args, flag) is not None]
    if given and not args.simulate:
        return _usage_error(f"--simulate is required by {', '.join(given)}")
    results = _run_selected(args) if args.simulate else None
    summary = report.mae_by_model(reference_table(), results)
    rows = [[model.name, _number(summary.errors[model], 4, args.format)] for model in ModelId]
    text = report.render(args.format, ("model", "mae"), rows)
    if args.chart:
        text += "\n\n" + report.ascii_bar_chart(summary)
    _emit(args, text)
    return 0


def _cmd_list_units(args: argparse.Namespace) -> int:
    catalog = _catalog_from(args)
    columns = ("name", "race", "health", "shields", "armor", "dps", "aoe_area",
               "ranged", "bonus_dps", "bonus_vs", "attributes",
               "eff_health", "eff_dps", "eff_bonus_dps")
    rows = [
        [u.name, u.race.value, u.base_health, u.shields, u.armor, u.base_dps,
         u.aoe_area, u.ranged, u.bonus_base_dps,
         " ".join(sorted(u.bonus_vs)), " ".join(sorted(u.attributes)),
         round(effective_health(u), 2), round(effective_dps(u), 2),
         round(effective_bonus_dps(u), 2)]
        for u in catalog
    ]
    _emit(args, report.render(args.format, columns, rows))
    return 0


def _cmd_list_matchups(args: argparse.Namespace) -> int:
    def army_text(army: tuple[tuple[str, int], ...]) -> str:
        return " + ".join(f"{count} {name}" for name, count in army)

    columns = ("round", "match", "army1", "army2")
    rows = [
        [m.round, m.pairing, army_text(m.army1), army_text(m.army2)]
        for m in builtin_matchups()
    ]
    _emit(args, report.render(args.format, columns, rows))
    return 0


def run_command(argv: Sequence[str] | None = None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for flag, problem in (("trials", count_problem), ("jobs", count_problem),
                          ("seed", seed_problem)):
        value = getattr(args, flag, None)
        if value is not None and (reason := problem(f"--{flag}", value)):
            return _usage_error(reason)
    try:
        return args.func(args)
    except (CombatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
