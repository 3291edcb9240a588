"""The README's code runs against the library as it is."""

import re
import shlex
from pathlib import Path

from sc2combat import ModelId, cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(section: str) -> str:
    """The first fenced code block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"^```[a-z]*\n(.*?)^```$", body, re.M | re.S).group(1)


def test_library_example_runs():
    namespace = {}
    exec(compile(fenced_block("Library"), "README.md", "exec"), namespace)
    assert 0.0 <= namespace["result"].reported_win1 <= 1.0
    assert [r.spec.model for r in namespace["results"]] == list(ModelId)


def test_cli_examples_parse():
    lines = [line.split("#", 1)[0] for line in fenced_block("CLI").splitlines()]
    argvs = [shlex.split(line)[1:] for line in lines if line.startswith("sc2combat ")]
    assert len(argvs) == 8
    parser = cli.build_parser()
    for argv in argvs:
        assert parser.parse_args(argv).command == argv[0]
