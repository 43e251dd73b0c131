"""The argument parser: help and usage text pinned byte for byte, and one
parser serving many ``main`` calls in a process as a fresh one would; and
the package modules a fresh interpreter imports for each subcommand.

Each golden file under ``tests/golden/usage`` holds one run of
``ologism ARGV`` with ``COLUMNS=80``, as ``render`` writes it: the exit code,
then stdout, then stderr.
"""

from __future__ import annotations

import ast
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


# What a fresh interpreter has loaded of the package after ``import
# ologism.cli``, then after one ``main(ARGV)`` when given an ARGV, with the
# case's stdin; and whether ``json`` was loaded.  The probe imports no json.
IMPORT_PROBE = """
import contextlib, io, sys
loaded = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "ologism")
import ologism.cli
at_import = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    if sys.argv[1:]:
        ologism.cli.main(sys.argv[1:])
print(repr([at_import, loaded(), "json" in sys.modules]))
"""
EVERY_COMMAND = {"ologism", "ologism.cli", "ologism.core", "ologism.dsl", "ologism.model"}
ANIMALS, ANIMALS_MODEL = str(DATA / "animals.olgm"), str(DATA / "animals.olgmodel")
PROVE = ["prove", "--premiss", "E:M,P", "--premiss", "A:S,M", "--conclusion", "E:S,P"]
# id -> (ARGV, stdin, the modules it adds to EVERY_COMMAND, whether json is loaded)
IMPORT_CASES = {
    "import": ([], "", set(), False),
    "check": (["check", ANIMALS], "", {"deduce"}, False),
    "check-json": (["--format", "json", "check", ANIMALS], "", {"deduce"}, True),
    "prove": (PROVE, "", {"syll"}, False),
    "prove-dot": (PROVE + ["--dot"], "", {"syll", "dot"}, False),
    "enumerate": (["enumerate"], "", {"syll"}, False),
    "model-check": (["model-check", ANIMALS, ANIMALS_MODEL], "", set(), False),
    "model-check-closure": (["model-check", ANIMALS, ANIMALS_MODEL, "--against", "closure"], "",
                            {"deduce"}, False),
    "oracle": (["oracle", ANIMALS, "--mode", "models"], "", {"oracle", "deduce"}, False),
    "export-dot": (["export-dot", ANIMALS], "", {"dot", "syll"}, False),
    "export-dot-derived": (["export-dot", ANIMALS, "--derived"], "", {"dot", "syll", "deduce"}, False),
    "repl": (["repl"], "quit\n", {"repl", "deduce"}, False),
    "repl-models": (["repl"], f"load {ANIMALS}\nmodels 2\nquit\n", {"repl", "deduce", "oracle"}, False),
}


@pytest.mark.parametrize("case", sorted(IMPORT_CASES))
def test_each_subcommand_imports_only_what_it_runs(case):
    argv, stdin, adds, wants_json = IMPORT_CASES[case]
    ran = subprocess.run([sys.executable, "-s", "-c", IMPORT_PROBE, *argv], input=stdin,
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
                         timeout=60)
    assert ran.returncode == 0, ran.stderr
    at_import, after, json_loaded = ast.literal_eval(ran.stdout)
    assert set(at_import) == EVERY_COMMAND
    assert set(after) == EVERY_COMMAND | {f"ologism.{name}" for name in adds}
    assert json_loaded == wants_json
