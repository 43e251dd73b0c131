"""The argument parser: help and usage text pinned byte for byte, and one
parser serving many ``main`` calls in a process as a fresh one would.

Each golden file under ``tests/golden/usage`` holds one run of
``ologism ARGV`` with ``COLUMNS=80``, as ``render`` writes it: the exit code,
then stdout, then stderr.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ologism import cli

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = SRC / "ologism" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden" / "usage"

SUBCOMMANDS = ("check", "prove", "enumerate", "model-check", "oracle", "export-dot", "repl")
USAGE_CASES = {
    "help": ["--help"],
    **{f"help-{name}": [name, "--help"] for name in SUBCOMMANDS},
    "no-arguments": [],
    "unknown-subcommand": ["frobnicate"],
    "oracle-universe-0": ["oracle", "DOC.olgm", "--universe", "0"],
    "prove-malformed-premiss": ["prove", "--premiss", "E:M", "--conclusion", "E:S,P"],
    "prove-empty-import": ["prove", "--premiss", "A:S,P", "--import", "", "--conclusion", "I:S,P"],
    "prove-empty-term": ["prove", "--premiss", "A:,P", "--premiss", "A:P,Q", "--conclusion", "A:,Q"],
    "prove-spaced-import": ["prove", "--premiss", "A:S,P", "--import", "X Y", "--conclusion", "I:S,P"],
    "prove-spaced-term": ["prove", "--premiss", "A:S P,M", "--premiss", "A:M,P",
                          "--conclusion", "A:S P,P"],
}


def outcome(capsys, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``ologism ARGV`` run in process."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exit_:
        code = exit_.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def render(code: int, out: str, err: str) -> str:
    return f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"


@pytest.fixture
def columns_80(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("case", sorted(USAGE_CASES))
def test_usage_output_is_pinned(capsys, columns_80, case):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert render(*outcome(capsys, USAGE_CASES[case])) == expected


def test_every_subcommand_has_a_pinned_help():
    parser = cli.build_parser()
    choices = next(a.choices for a in parser._actions if a.dest == "command")
    assert tuple(choices) == SUBCOMMANDS


SEQUENCE = [
    ["prove", "--premiss", "E:M,P", "--premiss", "A:S,M", "--conclusion", "E:S,P"],
    ["prove", "--premiss", "A:S,P", "--import", "S", "--conclusion", "I:S,P"],
    ["oracle", str(DATA / "has_mother.olgm"), "--seed", "5", "--samples", "20"],
    ["prove", "--premiss", "A:S,P"],
    ["check", str(DATA / "animals.olgm")],
]


def test_one_parser_serves_a_sequence_of_calls(capsys, columns_80, monkeypatch):
    shared = [outcome(capsys, argv) for argv in SEQUENCE]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [outcome(capsys, argv) for argv in SEQUENCE]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0]
    assert "I(S,S)" in shared[1][1] and "I(S,S)" not in shared[0][1]


def test_main_builds_no_parser_once_it_has_one(capsys, monkeypatch):
    cli._parser()

    def build_again():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(cli, "build_parser", build_again)
    assert outcome(capsys, SEQUENCE[0])[0] == 0


def test_python_dash_m_runs_the_front_end():
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    ran = subprocess.run([sys.executable, "-m", "ologism", "--help"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert render(ran.returncode, ran.stdout, ran.stderr) == (GOLDEN / "help.txt").read_text(encoding="utf-8")
