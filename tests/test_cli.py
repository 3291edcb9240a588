import concurrent.futures
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sc2combat import (ExperimentSpec, ModelId, builtin_matchups, cli, default_catalog,
                       find_matchup, report, reference_table, run_experiment, run_experiments)
from sc2combat.cli import TABLE1_COLUMNS, run_command
from sc2combat.errors import QUOTE_LIMIT

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

# 100,000 nested lists, 200 KB
DEEP = "[" * 100_000 + "]" * 100_000

# six levels, each listing the one before ten times: quoted in an error
# message, the value took 5.8 million characters
ALIASES = "[&a0 [x, x, x, x, x, x, x, x, x, x]" + "".join(
    f", &a{level} [{', '.join([f'*a{level - 1}'] * 10)}]" for level in range(1, 6)) + "]"

# a flow list of 50,000 ones, 150 KB: quoted whole, an error line took 150,040 bytes
LONG_LIST = "[" + ", ".join(["1"] * 50_000) + "]"

# a UTF-16 byte order mark: not UTF-8 text
UNDECODABLE = b"\xff\xfe" + "army1: {}\n".encode("utf-16-le")

TINY_CATALOG = """
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


def run_cli(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(result, prefix):
    code, out, err = result
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)


def after_name(message, name):
    """The words of ``message`` after the setting's ``name`` that opens it."""
    assert message.startswith(f"{name} "), message
    return message[len(name):]


class TestOneRulePerSetting:
    """A bad trial count, job count, army count or seed gets the same words
    from every front end: a flag (exit 2), a scenario file (exit 1) and the
    library (ValueError), each naming the setting its own way. argparse
    rejects a non-int flag itself, so flags get only the int values."""

    def flag_reasons(self, capsys, flags, value):
        reasons = []
        for flag in flags:
            code, out, err = run_cli(capsys, "reproduce", flag, str(value))
            assert code == 2 and out == ""
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            reasons.append(after_name(lines[0].removeprefix("error: "), flag))
        return reasons

    def file_reason(self, capsys, tmp_path, key, old, value):
        path = tmp_path / "battle.yaml"
        path.write_text(SCENARIO.replace(f"{key}: {old}", f"{key}: {str(value).lower()}"))
        result = run_cli(capsys, "run", "--scenario", str(path))
        assert_one_error_line(result, f"error: {key} ")
        return after_name(result[2].strip().removeprefix("error: "), key)

    def army_reason(self, capsys, tmp_path, value):
        path = tmp_path / "battle.yaml"
        path.write_text(SCENARIO.replace("marine: 12", f"marine: {str(value).lower()}"))
        result = run_cli(capsys, "run", "--scenario", str(path))
        name = "army2 count for 'marine'"
        assert_one_error_line(result, f"error: {name} ")
        return after_name(result[2].strip().removeprefix("error: "), name)

    @staticmethod
    def library_reason(name, call):
        with pytest.raises(ValueError) as info:
            call()
        return after_name(str(info.value), name)

    @pytest.mark.parametrize("value", [0, -1, True, 2.5])
    def test_bad_count_same_words_everywhere(self, capsys, tmp_path, value):
        matchup = find_matchup(1, "PvT")
        spec = ExperimentSpec(matchup, ModelId.APX1, trials=1)
        reasons = [
            self.file_reason(capsys, tmp_path, "trials", 50, value),
            self.army_reason(capsys, tmp_path, value),
            self.library_reason("trials", lambda: ExperimentSpec(matchup, ModelId.APX1, value)),
            self.library_reason("n_jobs", lambda: run_experiments([spec], default_catalog(),
                                                                  n_jobs=value)),
        ]
        if type(value) is int:
            reasons += self.flag_reasons(capsys, ("--trials", "--jobs"), value)
        assert set(reasons) == {f" must be an int >= 1, got {value!r}"}

    @pytest.mark.parametrize("value", [-1, 2**64, False])
    def test_bad_seed_same_words_everywhere(self, capsys, tmp_path, value):
        matchup = find_matchup(1, "PvT")
        reasons = [
            self.file_reason(capsys, tmp_path, "seed", 42, value),
            self.library_reason("master_seed",
                                lambda: ExperimentSpec(matchup, ModelId.APX1, 1, value)),
        ]
        if type(value) is int:
            reasons += self.flag_reasons(capsys, ("--seed",), value)
        assert set(reasons) == {f" must be an int in [0, 2**64), got {value!r}"}


class TestListCommands:
    def test_list_units(self, capsys):
        code, out, _ = run_cli(capsys, "list-units")
        assert code == 0
        assert "zealot" in out and "ultralisk" in out

    def test_list_matchups_has_twelve_rows(self, capsys):
        code, out, _ = run_cli(capsys, "list-matchups", "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == 12

    def test_custom_catalog_flag(self, capsys, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text(TINY_CATALOG)
        code, out, _ = run_cli(capsys, "list-units", "--catalog", str(path),
                               "--format", "json")
        assert code == 0
        assert [r["name"] for r in json.loads(out)] == ["zealot"]

    def test_environment_does_not_choose_the_catalog(self, capsys, tmp_path, monkeypatch):
        # only --catalog chooses a catalog, so every run's catalog is on its command line
        path = tmp_path / "tiny.yaml"
        path.write_text(TINY_CATALOG)
        monkeypatch.setenv("SC2COMBAT_CATALOG", str(path))
        assert len(default_catalog()) == 15
        code, out, _ = run_cli(capsys, "list-units", "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == 15

    def test_undecodable_catalog_flag_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_bytes(UNDECODABLE)
        assert_one_error_line(run_cli(capsys, "list-units", "--catalog", str(path)),
                              "error: catalog is not UTF-8 text: ")

    @pytest.mark.parametrize("old, new", [("health: 100", "health: .inf"),
                                          ("armor: 1", "armor: 2000"),
                                          ("health: 100", "health: 1" + "0" * 400)],
                             ids=["inf-health", "armor-2000", "400-digit-health"])
    def test_overflowing_catalog_stat_is_data_error(self, capsys, tmp_path, old, new):
        path = tmp_path / "tiny.yaml"
        path.write_text(TINY_CATALOG.replace(old, new))
        assert_one_error_line(run_cli(capsys, "list-units", "--catalog", str(path)),
                              "error: zealot: ")

    def test_wrong_value_type_in_catalog_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text(TINY_CATALOG.replace("ranged: false", "ranged: \"false\""))
        assert_one_error_line(run_cli(capsys, "list-units", "--catalog", str(path)),
                              "error: zealot: bad ranged value ")


class TestMalformedInput:
    """A malformed scenario or catalog is a data error: exit 1 and one
    ``error:`` line, never a traceback."""

    @pytest.mark.parametrize("text, message", [
        ("- army1: {zealot: 1}\n  army2: {marine: 1}\n", "scenario document must be a mapping"),
        ("army1: [zealot, stalker]\narmy2: {marine: 1}\n",
         "army1 must be a non-empty mapping of unit name -> count"),
        (SCENARIO + "1: a\nfoo: b\n", "scenario has unknown keys: [1, 'foo']"),
        (SCENARIO + "name: 2001-13-45\n",
         "scenario has a value that cannot be loaded: month must be in 1..12"),
    ], ids=["list-document", "army1-list", "int-and-str-keys", "impossible-date"])
    def test_bad_scenario(self, capsys, tmp_path, text, message):
        path = tmp_path / "battle.yaml"
        path.write_text(text)
        assert_one_error_line(run_cli(capsys, "run", "--scenario", str(path)),
                              f"error: {message}")

    @pytest.mark.parametrize("text, message", [
        (TINY_CATALOG + "- zealot\n", "unit record must be a mapping, got str"),
        (TINY_CATALOG.replace("[light, biological]", "light"), "zealot: attributes must be a list"),
        (TINY_CATALOG.replace("dps: 13.33", "dps: -1"), "zealot: DPS values must be non-negative"),
        (TINY_CATALOG.replace("name: zealot", 'name: ""'), "unit name must be non-empty"),
        (TINY_CATALOG + "  7: x\n  extra: y\n", "unit record has unknown keys: [7, 'extra']"),
    ], ids=["string-record", "string-attributes", "negative-dps", "empty-name",
            "int-and-str-keys"])
    def test_bad_catalog(self, capsys, tmp_path, text, message):
        path = tmp_path / "tiny.yaml"
        path.write_text(text)
        assert_one_error_line(run_cli(capsys, "list-units", "--catalog", str(path)),
                              f"error: {message}")

    @pytest.mark.parametrize("argv, text, key, line", [
        (("run", "--scenario"), SCENARIO.replace("  stalker: 2\n", "  stalker: 2\n  zealot: 3\n"),
         "zealot", 5),
        (("run", "--scenario"), SCENARIO + "trials: 60\n", "trials", 11),
        (("list-units", "--catalog"), TINY_CATALOG + "  dps: 20.0\n", "dps", 14),
    ], ids=["army1-unit", "trials", "catalog-dps"])
    def test_repeated_key_is_data_error(self, capsys, tmp_path, argv, text, key, line):
        # YAML itself would let the last value win
        path = tmp_path / "data.yaml"
        path.write_text(text)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 1 and out == ""
        assert re.fullmatch(rf"error: \w+ is not valid YAML \(line {line}, column \d+\): "
                            rf"found duplicate key '{key}'\n", err), err

    @pytest.mark.parametrize("yaml_base", ["chosen", "pure-python"], indirect=True)
    @pytest.mark.parametrize("argv, what", [
        (("run", "--scenario"), "scenario"), (("list-units", "--catalog"), "catalog"),
    ], ids=["scenario", "catalog"])
    def test_syntax_error_is_one_error_line(self, capsys, tmp_path, yaml_base, argv, what):
        # PyYAML's own message spans four lines and names no file
        path = tmp_path / "data.yaml"
        path.write_text("{unclosed\n")
        assert_one_error_line(run_cli(capsys, *argv, str(path)),
                              f"error: {what} is not valid YAML (line 2, column 1): ")

    @pytest.mark.parametrize("loader", ["chosen", "pure-python"])
    @pytest.mark.parametrize("argv, text, message", [
        (("run", "--scenario"), SCENARIO.replace("seed: 42", "seed: " + DEEP),
         "scenario nests deeper than 32 levels (line 10)"),
        (("list-units", "--catalog"), f"- {DEEP}\n", "catalog nests deeper than 32 levels (line 1)"),
        (("run", "--scenario"), SCENARIO.replace("trials: 50", "trials: " + ALIASES),
         "scenario uses a YAML alias (line 9); it must be plain data"),
        (("run", "--scenario"), SCENARIO.replace("trials: 50", f"trials: {LONG_LIST}"),
         f"trials must be an int >= 1, got {LONG_LIST[:QUOTE_LIMIT]}..."),
    ], ids=["deep-scenario", "deep-catalog", "alias-scenario", "long-trials"])
    def test_hostile_file_is_data_error(self, tmp_path, loader, argv, text, message):
        # in a child process, since libyaml's composer crashed the interpreter
        # on deep nesting and the pure-Python one raised RecursionError
        path = tmp_path / "data.yaml"
        path.write_text(text)
        code = "import sys, yaml\nfrom sc2combat import cli, units\n"
        if loader == "pure-python":  # as a PyYAML built without libyaml has it
            code += "vars(yaml).pop('CSafeLoader', None)\n"
        code += f"status = cli.run_command({[*argv, str(path)]!r})\n"
        if loader == "pure-python":  # the run reached PyYAML's pure-Python parser
            code += "assert issubclass(units._yaml_loader(), yaml.parser.Parser)\n"
        code += "sys.exit(status)"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")
        assert len(proc.stderr) < 300


class TestRun:
    def test_scenario_runs(self, capsys, tmp_path):
        path = tmp_path / "battle.yaml"
        path.write_text(SCENARIO)
        code, out, _ = run_cli(capsys, "run", "--scenario", str(path),
                               "--format", "json")
        assert code == 0
        record = json.loads(out)[0]
        assert record["model"] == "APX4"
        assert record["trials"] == 50 and record["seed"] == 42
        assert 0.0 <= record["win1"] <= 1.0
        assert record["win1"] + record["win2"] + record["draw"] == pytest.approx(1.0, abs=0.01)

    def test_missing_scenario_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--scenario", "missing.scn")
        assert code == 1
        assert "error" in err

    def test_undecodable_scenario_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "battle.yaml"
        path.write_bytes(UNDECODABLE)
        assert_one_error_line(run_cli(capsys, "run", "--scenario", str(path)),
                              "error: scenario is not UTF-8 text: ")

    def test_unknown_unit_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "battle.yaml"
        path.write_text(SCENARIO.replace("marine", "wraith"))
        code, _, err = run_cli(capsys, "run", "--scenario", str(path))
        assert code == 1
        assert "wraith" in err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_scenario_seed_out_of_range_is_data_error(self, capsys, tmp_path, seed):
        path = tmp_path / "battle.yaml"
        path.write_text(SCENARIO.replace("seed: 42", f"seed: {seed}"))
        code, out, err = run_cli(capsys, "run", "--scenario", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "seed" in err

    @pytest.mark.parametrize("key, old, new", [("trials", "50", "true"), ("seed", "42", "false")])
    def test_scenario_boolean_is_data_error(self, capsys, tmp_path, key, old, new):
        # YAML booleans are Python ints; they are no trial count or seed
        path = tmp_path / "battle.yaml"
        path.write_text(SCENARIO.replace(f"{key}: {old}", f"{key}: {new}"))
        assert_one_error_line(run_cli(capsys, "run", "--scenario", str(path)),
                              f"error: {key} must be ")

    @pytest.mark.parametrize("flags, trials, seed", [
        (("--seed", "7", "--trials", "30"), 30, 7),
        (("--seed", "0"), 50, 0),
        ((), 50, 42),
    ])
    def test_flags_override_scenario_values(self, capsys, tmp_path, flags, trials, seed):
        # a flag that was given wins (a zero seed too), else the file's value
        path = tmp_path / "battle.yaml"
        path.write_text(SCENARIO)
        code, out, _ = run_cli(capsys, "run", "--scenario", str(path), *flags,
                               "--format", "json")
        assert code == 0
        record = json.loads(out)[0]
        assert (record["trials"], record["seed"]) == (trials, seed)

    @pytest.mark.parametrize("key", ["name", "model"])
    def test_null_scenario_key_is_data_error(self, capsys, tmp_path, key):
        # a null name once ran with exit 0, labelled "None"; a null model
        # was reported as the unknown model 'None'
        path = tmp_path / "battle.yaml"
        path.write_text(SCENARIO.replace("model: apx4\n", "") + f"{key}: ~\n")
        assert_one_error_line(run_cli(capsys, "run", "--scenario", str(path)),
                              f"error: {key} must not be null")

    def test_model_flag_overrides_scenario(self, capsys, tmp_path):
        path = tmp_path / "battle.yaml"
        path.write_text(SCENARIO)
        code, out, _ = run_cli(capsys, "run", "--scenario", str(path),
                               "--model", "apx1", "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["model"] == "APX1"


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys, )[0] == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "run", "--bogus")[0] == 2

    def test_bad_model_value(self, capsys):
        assert run_cli(capsys, "reproduce", "--model", "apx9")[0] == 2

    def test_run_requires_scenario(self, capsys):
        assert run_cli(capsys, "run")[0] == 2

    @pytest.mark.parametrize("command, choices", [
        ("run", ["--model {apx1,apx2,apx3,apx4}]"]),
        ("reproduce", ["--model {apx1,apx2,apx3,apx4,all}]", "--round {1,2,3,4,all}]",
                       "--match {pvt,tvz,pvz,all}]"]),
        ("compare", ["--model {apx1,apx2,apx3,apx4,all}]", "--round {1,2,3,4,all}]",
                     "--match {pvt,tvz,pvz,all}]"]),
    ])
    def test_help_lists_the_model_round_and_match_names(self, capsys, command, choices):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0 and all(choice in out for choice in choices)

    @pytest.mark.parametrize("argv", [
        ("reproduce", "--trials", "0"),
        ("compare", "--trials", "-5"),
        ("reproduce", "--jobs", "0"),
        ("reproduce", "--jobs", "-3"),
        ("mae", "--simulate", "--jobs", "0"),
    ])
    def test_counts_below_one_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert argv[-2] in lines[0]

    @pytest.mark.parametrize("argv", [
        ("reproduce", "--seed", "-1"),
        ("compare", "--seed", str(2**64)),
        ("mae", "--simulate", "--seed", "-1"),
        ("run", "--scenario", "battle.yaml", "--seed", str(2**64)),
    ])
    def test_seed_out_of_range_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --seed")

    @pytest.mark.parametrize("argv, flag", [
        (("list-matchups", "--catalog", "missing.yaml"), "--catalog"),
        (("mae", "--catalog", "missing.yaml"), "--catalog"),
        (("mae", "--chart", "--format", "csv"), "--chart"),
        (("mae", "--chart", "--format", "json"), "--chart"),
    ])
    def test_flag_without_effect_is_usage_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        lines = [line for line in err.splitlines() if "error:" in line]
        assert len(lines) == 1 and flag in lines[0]

    def test_module_entry_point_exits_with_run_command_code(self, capsys):
        # main() and the __main__ guard, which the console script and
        # ``python -m sc2combat.cli`` run and run_command never does
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))

        def entry_point(*argv):
            return subprocess.run([sys.executable, "-m", "sc2combat.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=60)

        listed = entry_point("list-matchups")
        assert listed.returncode == 0
        assert listed.stdout == run_cli(capsys, "list-matchups")[1]
        rejected = entry_point("reproduce", "--trials", "0")
        assert rejected.returncode == 2 and rejected.stdout == ""
        lines = rejected.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestReproduce:
    def test_single_row_structure(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--model", "apx1",
                               "--round", "1", "--match", "pvt",
                               "--trials", "200", "--seed", "7",
                               "--format", "csv")
        assert code == 0
        parsed = list(csv.reader(io.StringIO(out)))
        assert parsed[0] == list(TABLE1_COLUMNS)
        assert len(parsed) == 2
        row = dict(zip(parsed[0], parsed[1]))
        assert row["round"] == "1" and row["type"] == "APX1" and row["match"] == "PvT"
        win1 = float(row["1-%"])
        assert 0.9 <= win1 <= 1.0

    def test_csv_round_trips_at_emitted_precision(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--round", "1",
                               "--match", "pvt", "--trials", "100",
                               "--format", "csv")
        assert code == 0
        parsed = list(csv.reader(io.StringIO(out)))
        rebuilt = io.StringIO()
        writer = csv.writer(rebuilt, lineterminator="\n")
        writer.writerows(parsed)
        assert rebuilt.getvalue() == out

    def test_all_models_one_match(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--round", "1",
                               "--match", "tvz", "--trials", "50",
                               "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert [r["type"] for r in records] == ["APX1", "APX2", "APX3", "APX4"]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "reproduce", "--round", "1",
                               "--match", "pvt", "--model", "apx1",
                               "--trials", "50", "--format", "csv",
                               "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("round,")


class TestCompare:
    def test_deltas_consistent_at_emitted_precision(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--round", "1",
                               "--match", "pvt", "--model", "apx1",
                               "--trials", "100", "--format", "csv")
        assert code == 0
        row = dict(zip(*list(csv.reader(io.StringIO(out)))[:2]))
        sim = float(row["win1_sim"])
        test = float(row["win1_test"])
        assert row["win1_test"] == "0.92"
        assert abs(float(row["delta_vs_test"]) - abs(sim - test)) <= 0.01


class TestWorkerPool:
    @pytest.mark.parametrize("jobs, pools", [("1", 0), ("2", 1)])
    def test_one_pool_per_command(self, capsys, monkeypatch, jobs, pools):
        built = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        argv = ("reproduce", "--round", "1", "--trials", "6")
        serial = run_cli(capsys, *argv, "--jobs", "1")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        assert run_cli(capsys, *argv, "--jobs", jobs) == serial
        assert len(built) == pools

    def test_workers_capped_at_cpus_this_process_may_use(self, capsys, monkeypatch):
        argv = ("reproduce", "--round", "1", "--trials", "6")
        serial = run_cli(capsys, *argv, "--jobs", "1")
        # pinned to one CPU, as by taskset, whatever the machine has: building
        # a pool would now raise
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        assert run_cli(capsys, *argv, "--jobs", "2") == serial

    def test_cli_import_loads_no_pool_machinery(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        scenario = tmp_path / "battle.yaml"
        scenario.write_text("army1: {zealot: 2}\narmy2: {marine: 3}\n")
        code = ("import contextlib, io, sys, sc2combat.cli\n"
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
                "print(sorted(m for m in ('fractions', 'decimal', 'csv', 'json', 'dataclasses') "
                "if m in sys.modules))\n"
                "from sc2combat import builtin_matchups, default_catalog, reference_table\n"
                "default_catalog(), builtin_matchups(), reference_table()\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert sc2combat.cli.run_command(['mae']) == 0\n"
                "    assert sc2combat.cli.run_command(['list-units']) == 0\n"
                "    loaded = ['yaml' in sys.modules]\n"
                f"    assert sc2combat.cli.run_command(['run', '--scenario', {str(scenario)!r},"
                " '--trials', '5']) == 0\n"
                "print(loaded + ['yaml' in sys.modules])")
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        pools, deferred, yaml_loaded = proc.stdout.splitlines()
        assert pools == "[]"
        # the exact oracle and the CSV/JSON renderers import the first four
        # when called, so a command that skips them never loads them; the
        # records are NamedTuples, so no module imports dataclasses
        assert deferred == "[]"
        # the package reads its bundled files itself: PyYAML loads for a user's file only
        assert yaml_loaded == "[False, True]"

    def test_commands_never_load_openssl(self):
        # a fresh interpreter, since pytest itself imports hashlib: the chunk
        # seeds hash with _blake2, so no run, serial or pooled, needs _hashlib
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import contextlib, io, sys\n"
                "from sc2combat.cli import run_command\n"
                "from sc2combat import ExperimentSpec, ModelId, default_catalog, "
                "find_matchup, run_experiment\n"
                "run_experiment(ExperimentSpec(find_matchup(1, 'PvT'), ModelId.APX4, 100, 3), "
                "default_catalog())\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert run_command(['list-units']) == 0\n"
                "    assert run_command(['reproduce', '--trials', '20', '--jobs', '2']) == 0\n"
                "print('_hashlib' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout.strip() == "False"


class TestMae:
    def test_from_reference_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "mae", "--format", "json")
        assert code == 0
        by_model = {r["model"]: r["mae"] for r in json.loads(out)}
        assert by_model["APX3"] < by_model["APX4"]

    def test_chart(self, capsys):
        code, out, _ = run_cli(capsys, "mae", "--chart")
        assert code == 0
        assert "#" in out

    def test_simulate_small(self, capsys):
        code, out, _ = run_cli(capsys, "mae", "--simulate", "--trials", "10",
                               "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 4
        assert all(0.0 <= r["mae"] <= 1.0 for r in records)

    @pytest.mark.parametrize("flags", [("--trials", "5"), ("--seed", "3"), ("--jobs", "2"),
                                       ("--trials", "5", "--seed", "3", "--jobs", "2")])
    def test_simulation_flags_need_simulate(self, capsys, flags):
        code, out, err = run_cli(capsys, "mae", *flags)
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "--simulate" in lines[0] and flags[0] in lines[0]

    def test_simulate_defaults(self, capsys, monkeypatch):
        seen = []

        def one_trial_each(specs, catalog, n_jobs):
            seen.append((specs, n_jobs))
            return [run_experiment(s._replace(trials=1), catalog) for s in specs]

        monkeypatch.setattr(cli, "run_experiments", one_trial_each)
        assert run_cli(capsys, "mae", "--simulate")[0] == 0
        (specs, n_jobs), = seen
        assert len(specs) == 48 and n_jobs == 1
        assert {(s.trials, s.master_seed) for s in specs} == {(1000, 0)}

    def test_simulate_matches_mae_by_model(self, capsys):
        code, out, _ = run_cli(capsys, "mae", "--simulate", "--trials", "10", "--seed", "4")
        assert code == 0
        catalog = default_catalog()
        results = [run_experiment(ExperimentSpec(m, model, 10, 4), catalog)
                   for model in ModelId for m in builtin_matchups()]
        summary = report.mae_by_model(reference_table(), results)
        expected = report.render("table", ("model", "mae"),
                                 [[model.name, f"{summary.errors[model]:.4f}"]
                                  for model in ModelId])
        assert out == expected + "\n"
