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

from conftest import SCENARIO, ZEALOT_YAML

# 100,000 nested lists, 200 KB
DEEP = "[" * 100_000 + "]" * 100_000

# six levels, each listing the one before ten times: quoted in an error
# message, the value took 5.8 million characters
ALIASES = "[&a0 [x, x, x, x, x, x, x, x, x, x]" + "".join(
    f", &a{level} [{', '.join([f'*a{level - 1}'] * 10)}]" for level in range(1, 6)) + "]"

# a flow list of 50,000 ones, 150 KB: quoted whole, an error line took 150,040 bytes
LONG_LIST = "[" + ", ".join(["1"] * 50_000) + "]"

# 5,000 keys: listed whole, an error line took 43,925 bytes
MANY_KEYS = [f"k{i}" for i in range(5_000)]

# the reader's one-line reason for refusing a token that is no plain scalar
REFUSED = "outside the YAML subset sc2combat reads: {!r} is no plain int, float, true, false or word"

# a UTF-16 byte order mark: not UTF-8 text
UNDECODABLE = b"\xff\xfe" + "army1: {}\n".encode("utf-16-le")


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
    def test_custom_catalog_flag(self, capsys, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text(ZEALOT_YAML.replace("shields: 50", "shields: 51")
                        .replace("armor: 1", "armor: 3").replace("dps: 13.33", "dps: 13.337")
                        .replace("bonus_dps: 0.0", "bonus_dps: 1.005")
                        .replace("bonus_vs: []", "bonus_vs: [light]"))
        code, out, _ = run_cli(capsys, "list-units", "--catalog", str(path),
                               "--format", "json")
        assert code == 0
        # derived stats are rounded to two places: 509.625, 13.337 and 1.005
        assert [(r["name"], r["eff_health"], r["eff_dps"], r["eff_bonus_dps"])
                for r in json.loads(out)] == [("zealot", 509.62, 13.34, 1.0)]

    def test_environment_does_not_choose_the_catalog(self, capsys, tmp_path, monkeypatch):
        # only --catalog chooses a catalog, so every run's catalog is on its command line
        path = tmp_path / "tiny.yaml"
        path.write_text(ZEALOT_YAML)
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

    @pytest.mark.parametrize("old, new", [("health: 100", "health: 1.0e+999"),
                                          ("armor: 1", "armor: 2000"),
                                          ("health: 100", "health: 1" + "0" * 400)],
                             ids=["inf-health", "armor-2000", "400-digit-health"])
    def test_overflowing_catalog_stat_is_data_error(self, capsys, tmp_path, old, new):
        path = tmp_path / "tiny.yaml"
        path.write_text(ZEALOT_YAML.replace(old, new))
        assert_one_error_line(run_cli(capsys, "list-units", "--catalog", str(path)),
                              "error: zealot: ")

    def test_wrong_value_type_in_catalog_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text(ZEALOT_YAML.replace("ranged: false", "ranged: 1"))
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
        (SCENARIO + "name: 2001-13-45\n", "scenario, line 11: " + REFUSED.format("2001-13-45")),
        (SCENARIO.replace("trials: 50", "trials: 50 60"),
         "scenario, line 9: outside the YAML subset sc2combat reads: unexpected '60'"),
        # each count converts to a float (1e308), the total does not
        ("army1: {zealot: 2}\narmy2: {marine: 1" + "0" * 308 + ", marauder: 1" + "0" * 308 + "}\n",
         "army2 has too many units: their total must convert to a float"),
    ], ids=["list-document", "army1-list", "int-and-str-keys", "impossible-date", "two-scalars",
            "army-total-overflows-float"])
    def test_bad_scenario(self, capsys, tmp_path, text, message):
        path = tmp_path / "battle.yaml"
        path.write_text(text)
        assert_one_error_line(run_cli(capsys, "run", "--scenario", str(path)),
                              f"error: {message}")

    @pytest.mark.parametrize("text, message", [
        (ZEALOT_YAML + "- zealot\n", "unit record must be a mapping, got str"),
        (ZEALOT_YAML.replace("[light, biological]", "light"), "zealot: attributes must be a list"),
        (ZEALOT_YAML.replace("dps: 13.33", "dps: -1"), "zealot: DPS values must be non-negative"),
        (ZEALOT_YAML.replace("name: zealot", 'name: ""'), "catalog, line 2: " + REFUSED.format('""')),
        (ZEALOT_YAML + "  7: x\n  extra: y\n", "unit record has unknown keys: [7, 'extra']"),
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
        (("list-units", "--catalog"), ZEALOT_YAML + "  dps: 20.0\n", "dps", 14),
    ], ids=["army1-unit", "trials", "catalog-dps"])
    def test_repeated_key_is_data_error(self, capsys, tmp_path, argv, text, key, line):
        # YAML itself would let the last value win
        path = tmp_path / "data.yaml"
        path.write_text(text)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 1 and out == ""
        assert re.fullmatch(rf"error: \w+, line {line}: outside the YAML subset sc2combat reads: "
                            rf"the key '{key}' is repeated\n", err), err

    @pytest.mark.parametrize("argv, what", [
        (("run", "--scenario"), "scenario"), (("list-units", "--catalog"), "catalog"),
    ], ids=["scenario", "catalog"])
    def test_syntax_error_is_one_error_line(self, capsys, tmp_path, argv, what):
        # PyYAML's own message spanned four lines and named no file
        path = tmp_path / "data.yaml"
        path.write_text("{unclosed\n")
        assert_one_error_line(run_cli(capsys, *argv, str(path)),
                              f"error: {what}, line 1: " + REFUSED.format("{"))

    @pytest.mark.parametrize("argv, text, message", [
        (("run", "--scenario"), SCENARIO.replace("seed: 42", "seed: " + DEEP),
         "scenario, line 10: " + REFUSED.format("[")),
        (("list-units", "--catalog"), f"- {DEEP}\n", "catalog, line 1: " + REFUSED.format("[")),
        (("run", "--scenario"), SCENARIO.replace("trials: 50", "trials: " + ALIASES),
         "scenario, line 9: " + REFUSED.format("&a0")),
        (("run", "--scenario"), SCENARIO.replace("trials: 50", f"trials: {LONG_LIST}"),
         f"trials must be an int >= 1, got {LONG_LIST[:QUOTE_LIMIT]}..."),
        (("run", "--scenario"), "army1:\n" + "".join(f"{'  ' * i}k{i}:\n" for i in range(1, 5_001)),
         "scenario, line 2: outside the YAML subset sc2combat reads: a key in a block has no value"),
        (("run", "--scenario"), SCENARIO + "".join(f"{key}: 1\n" for key in MANY_KEYS),
         f"scenario has unknown keys: {repr(sorted(MANY_KEYS))[:QUOTE_LIMIT]}... (5000 in all)"),
        (("list-units", "--catalog"), ZEALOT_YAML + "".join(f"  {key}: 1\n" for key in MANY_KEYS),
         f"unit record has unknown keys: {repr(sorted(MANY_KEYS))[:QUOTE_LIMIT]}... (5000 in all)"),
        (("list-units", "--catalog"), ZEALOT_YAML.replace("name: zealot", f"name: {LONG_LIST}"),
         f"{LONG_LIST[:QUOTE_LIMIT]}...: bad name value (expected a string, got "
         f"{LONG_LIST[:QUOTE_LIMIT]}...)"),
        (("list-units", "--catalog"),
         ZEALOT_YAML.replace("zealot", "z" * 100_000).replace("dps: 13.33", "dps: -1"),
         f"{'z' * QUOTE_LIMIT}...: DPS values must be non-negative"),
        (("run", "--scenario"), SCENARIO.replace("marine", "z" * 1_000),
         f"unknown unit name: '{'z' * (QUOTE_LIMIT - 1)}..."),
        (("run", "--scenario"), SCENARIO.replace("apx4", "z" * 100_000),
         f"unknown model: '{'z' * (QUOTE_LIMIT - 1)}... (expected apx1..apx4)"),
    ], ids=["deep-scenario", "deep-catalog", "alias-scenario", "long-trials", "indented-5000",
            "many-keys-scenario", "many-keys-catalog", "long-list-name", "long-word-name",
            "long-unit-name", "long-model"])
    def test_hostile_file_is_data_error(self, tmp_path, argv, text, message):
        # in a child process with a small stack: the reader never recurses on
        # its input, where PyYAML's composer crashed or raised RecursionError
        path = tmp_path / "data.yaml"
        path.write_text(text)
        code = ("import sys\nfrom sc2combat import cli\nsys.setrecursionlimit(200)\n"
                f"sys.exit(cli.run_command({[*argv, str(path)]!r}))")
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
        # was reported as the unknown model 'None'. The reader yields no null.
        path = tmp_path / "battle.yaml"
        text = SCENARIO.replace("model: apx4\n", "")
        path.write_text(f"{text}{key}: ~\n")
        assert_one_error_line(run_cli(capsys, "run", "--scenario", str(path)),
                              "error: scenario, line 10: " + REFUSED.format("~"))
        path.write_text(f"{text}{key}:\n")
        assert_one_error_line(run_cli(capsys, "run", "--scenario", str(path)),
                              "error: scenario, line 10: outside the YAML subset sc2combat "
                              f"reads: the key '{key}' has no value")

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
        (("list-units", "--trials", "5"), "--trials"),
        (("list-units", "--seed", "3"), "--seed"),
        (("list-units", "--jobs", "2"), "--jobs"),
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
    @pytest.mark.parametrize("jobs, forked", [("1", 0), ("2", 1)])
    def test_one_pool_per_command(self, capsys, monkeypatch, forks, jobs, forked):
        # one fork per worker besides the command's own process
        argv = ("reproduce", "--round", "1", "--trials", "6")
        serial = run_cli(capsys, *argv, "--jobs", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert run_cli(capsys, *argv, "--jobs", jobs) == serial
        assert len(forks) == forked

    def test_workers_capped_at_cpus_this_process_may_use(self, capsys, monkeypatch):
        argv = ("reproduce", "--round", "1", "--trials", "6")
        serial = run_cli(capsys, *argv, "--jobs", "1")
        # pinned to one CPU, as by taskset, whatever the machine has: a fork
        # would now raise, at --jobs 2 and at the default alike
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", None)
        assert run_cli(capsys, *argv, "--jobs", "2") == serial
        assert run_cli(capsys, *argv) == serial

    def test_cli_import_loads_no_pool_machinery(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        scenario = tmp_path / "battle.yaml"
        scenario.write_text("army1: {zealot: 2}\narmy2: {marine: 3}\n")
        catalog = tmp_path / "tiny.yaml"
        catalog.write_text(ZEALOT_YAML)
        code = ("import contextlib, io, sys, sc2combat.cli\n"
                "print(sorted(m for m in ('fractions', 'decimal', 'csv', 'json', 'dataclasses') "
                "if m in sys.modules))\n"
                "from sc2combat import builtin_matchups, default_catalog, reference_table\n"
                "default_catalog(), builtin_matchups(), reference_table()\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert sc2combat.cli.run_command(['mae']) == 0\n"
                "    assert sc2combat.cli.run_command(['list-units']) == 0\n"
                f"    assert sc2combat.cli.run_command(['list-units', '--catalog', {str(catalog)!r}]) == 0\n"
                f"    assert sc2combat.cli.run_command(['run', '--scenario', {str(scenario)!r},"
                " '--trials', '5']) == 0\n"
                "print('yaml' in sys.modules)\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert sc2combat.cli.run_command(['reproduce', '--trials', '20',"
                " '--jobs', '2']) == 0\n"
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n")
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        deferred, yaml_loaded, pools = proc.stdout.splitlines()
        # workers are forked: no command, a parallel one neither, loads a pool
        assert pools == "[]"
        # the exact oracle and the CSV/JSON renderers import the first four
        # when called, so a command that skips them never loads them; the
        # records are NamedTuples, so no module imports dataclasses
        assert deferred == "[]"
        # the package reads every data file itself, a user's too
        assert yaml_loaded == "False"

    def test_commands_never_load_openssl(self):
        # a fresh interpreter, since pytest itself imports hashlib: the chunk
        # seeds hash with _blake2, so no run, serial or forked, needs _hashlib
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
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert run_cli(capsys, "mae", "--simulate")[0] == 0
        (specs, n_jobs), = seen
        # by default, every CPU this process may use
        assert len(specs) == 48 and n_jobs == 3
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
