"""The README's code runs against the library as it is."""

import re
import shlex
from pathlib import Path

from sc2combat import ModelId, cli, default_catalog, load_scenario

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str) -> str:
    """The first fenced code block under ``heading``, such as ``## CLI``."""
    body = README.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"^```[a-z]*\n(.*?)^```$", body, re.M | re.S).group(1)


def test_library_example_runs():
    namespace = {}
    exec(compile(fenced_block("## Library"), "README.md", "exec"), namespace)
    assert 0.0 <= namespace["result"].reported_win1 <= 1.0
    assert [r.spec.model for r in namespace["results"]] == list(ModelId)


def test_cli_examples_parse():
    lines = [line.split("#", 1)[0] for line in fenced_block("## CLI").splitlines()]
    argvs = [shlex.split(line)[1:] for line in lines if line.startswith("sc2combat ")]
    assert len(argvs) == 8
    parser = cli.build_parser()
    for argv in argvs:
        assert parser.parse_args(argv).command == argv[0]


def test_scenario_example_loads(tmp_path):
    path = tmp_path / "battle.yaml"
    path.write_text(fenced_block("### Scenario files"), encoding="utf-8")
    scenario = load_scenario(path, default_catalog())
    assert scenario.matchup.army1 == (("zealot", 8), ("stalker", 2))
    assert scenario.matchup.army2 == (("marine", 12), ("marauder", 4))
    assert scenario.matchup.label == "skirmish"
    assert (scenario.model, scenario.trials, scenario.seed) == (ModelId.APX4, 1000, 42)
