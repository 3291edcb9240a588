"""Stdout of every report-producing command, pinned by SHA-256.

Each command runs at small trial counts with a fixed seed and must print
byte for byte what it printed when these digests were taken, at every
output format. A refactor of the CLI, the report layer or the catalog
writer must keep them; a change to a command's output on purpose must say
so and pin new digests.
"""

import pytest

from sc2combat import default_catalog
from sc2combat.cli import run_command
from sc2combat.units import dumps_catalog

from conftest import sha256

SCENARIO = """
army1:
  zealot: 4
  stalker: 2
army2:
  marine: 6
  marauder: 2
model: apx3
trials: 40
seed: 11
"""

COMMANDS = {
    "reproduce": ("reproduce", "--trials", "20", "--seed", "3"),
    "compare": ("compare", "--trials", "20", "--seed", "3"),
    "mae": ("mae",),
    "mae-simulate": ("mae", "--simulate", "--trials", "20", "--seed", "5"),
    "run": ("run", "--scenario", "{scenario}"),
    "run-flags": ("run", "--scenario", "{scenario}", "--model", "apx1",
                  "--trials", "30", "--seed", "7", "--jobs", "2"),
    "list-units": ("list-units",),
    "list-matchups": ("list-matchups",),
}

# (command, format) -> SHA-256 of stdout
GOLDEN = {
    ("reproduce", "table"):
        "919ab2967e57378a11bc66055f710097be4d027ea1cedf84c45d8eeef9634400",
    ("reproduce", "csv"):
        "763761644cfd3b6a9f24faca81666896bd341dfdee2438e3d3a955fbbeb3b4f0",
    ("reproduce", "json"):
        "b31c2a3b0ce446e7c86d6a696617e9f045982bc50cc981f85685703b11988642",
    ("compare", "table"):
        "9da1741052117b2033a0508250678726fe68a93b80fad1a69388ca0d341f0aa3",
    ("compare", "csv"):
        "85db7c69da95bd50ec31091b088d2362c75397e637e47f6ce9021e4a7b0606c5",
    ("compare", "json"):
        "a64e28ae95bd5cb10992c6e046b5d2993a15592256770fb3568912723868c38d",
    ("mae", "table"):
        "656b5bd0171c687716e3e2f8b2490839d063202a6662746eab8f319d9d9e7934",
    ("mae", "csv"):
        "2a4be051780c314ce633964509027ff46c503278bf3778ca0f1ac24785b3aaef",
    ("mae", "json"):
        "6511b00ed030d20f08dbeb19067566eb9f8e8f2bc380a29ea9406da73c4722f2",
    ("mae-simulate", "table"):
        "5f28523e6f9676ea3019c9fdf4f285320d9585446880703ebd9367d4bdaa7c9f",
    ("mae-simulate", "csv"):
        "e11c75f75a7111dc5013c25f0c418df5f19052b3767d035dce918faff6cc5bdb",
    ("mae-simulate", "json"):
        "7e4327e6a6a61cc1f69a010c81946d17a7077c822efb5f25ae52425a245bdba7",
    ("run", "table"):
        "d6ce611557f2e796a9796cedb7601fd6cdff67b8554d81354667b8ed36bb006f",
    ("run", "csv"):
        "23cf9d3f4793af4f834d4642d67fc6c647609cc5195eb8e0ef949e9d21c85a06",
    ("run", "json"):
        "da9db351e24bed4a19b5ea73675b38ae7e44745c7b34c85f3134dbe34495967a",
    ("run-flags", "table"):
        "f92bdecae99e49ce5a24d257057e12f92bf68cceb6a8602d6d17faada59767dd",
    ("run-flags", "csv"):
        "3ba47e2640d34040b54fa58ce1a32c6ed02ae699765a0edfc0fe81ebe15c1927",
    ("run-flags", "json"):
        "54647ea4512118def1dd700bbad5d435e02c3e41be71234efda26edd69c4f80f",
    ("list-units", "table"):
        "cf4ec33c74c340405c93155dd6af6aa40f9c6cb80fd31b5e5edf2d4480b87fa2",
    ("list-units", "csv"):
        "8bd1d2f437799ffc7185abc88ec2fd5f93933b0acc97ecb0aa90f7e7a405bf02",
    ("list-units", "json"):
        "0e33ca815626d0774e4af403ed4d71a2fa639dcf9b75ffc79188bf3afb8f1c9b",
    ("list-matchups", "table"):
        "264c2acbcfcaf2fe359cde13d1336948d88b2b3ea66d31eb6ecae1650a695c9d",
    ("list-matchups", "csv"):
        "39bed6c30b0fd1f4a9abec15b97b011ff21fa102f1bc214f531d743fe089d392",
    ("list-matchups", "json"):
        "41d02fcd407d59c1653ee9dd97f150389d75f0e2259939e8ca8bc0b61bd9589a",
}

# table view only
EXTRA = {
    "mae-chart": (("mae", "--chart"),
                  "a16a71e50a9bc623a0ddb5d4a5a246bb61adbabf8de2cba7b75b230285b71905"),
    "reproduce-jobs": (("reproduce", "--trials", "20", "--seed", "3", "--jobs", "2"),
                       "919ab2967e57378a11bc66055f710097be4d027ea1cedf84c45d8eeef9634400"),
}

CATALOG_DIGEST = "a0e1a911aba11600d3d18a632cc9fbe532e80fd7be037821a08757bc9fc18807"


def stdout_digest(capsys, tmp_path, argv):
    path = tmp_path / "battle.yaml"
    path.write_text(SCENARIO)
    code = run_command([arg.format(scenario=path) for arg in argv])
    assert code == 0
    return sha256(capsys.readouterr().out)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_stdout_unchanged(capsys, tmp_path, name, fmt):
    argv = COMMANDS[name] + ("--format", fmt)
    assert stdout_digest(capsys, tmp_path, argv) == GOLDEN[name, fmt]


@pytest.mark.parametrize("name", list(EXTRA))
def test_table_extras_unchanged(capsys, tmp_path, name):
    argv, digest = EXTRA[name]
    assert stdout_digest(capsys, tmp_path, argv) == digest


def test_dumps_catalog_unchanged():
    assert sha256(dumps_catalog(default_catalog())) == CATALOG_DIGEST
