"""Time whole command-line runs, ``python -s -m ologism ARGV``, from a fresh
interpreter each.

Times ``check``, ``--format json check``, ``prove``, ``oracle --mode
models``, ``model-check`` and ``repl`` (``quit`` on stdin) on the bundled
documents, and a bare ``python -s -c pass`` for scale, in one or more
checkouts given as LABEL=ROOT (default: this one).  Each checkout's ``src``
is first copied to a temporary directory without its ``__pycache__``:

- ``cold``: with ``PYTHONDONTWRITEBYTECODE=1``, so that every run compiles
  the package from source, as a fresh checkout does;
- ``warm``: with bytecode written on an untimed first run and read after.

Each round runs every command once per mode and checkout, which of them
goes first turning from round to round, so that the host's swings fall on
all of them alike; every run's exit code and stdout must equal the first
checkout's.  Prints, as JSON, per
mode, command and checkout, the median and interquartile range in ms.  Run
from the repository root:

    python3 tools/time_startup.py
    python3 tools/time_startup.py parent=../parent change=.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUNS = 21
DATA = "src/ologism/data/"
COMMANDS = {
    "bare": ["-c", "pass"],
    "check": ["-m", "ologism", "check", DATA + "custodian.olgm"],
    "check-json": ["-m", "ologism", "--format", "json", "check", DATA + "custodian.olgm"],
    "prove": ["-m", "ologism", "prove", "--premiss", "E:M,P", "--premiss", "A:S,M",
              "--conclusion", "E:S,P"],
    "oracle-models": ["-m", "ologism", "oracle", DATA + "animals.olgm", "--mode", "models"],
    "model-check": ["-m", "ologism", "model-check", DATA + "animals.olgm", DATA + "animals.olgmodel"],
    "repl": ["-m", "ologism", "repl"],
}
STDIN = {"repl": "quit\n"}


def run(root: Path, env: dict, command: str) -> tuple[float, tuple[int, str]]:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-s", *COMMANDS[command]], cwd=root, env=env,
                          input=STDIN.get(command, ""), capture_output=True, text=True, timeout=60)
    return time.perf_counter() - start, (done.returncode, done.stdout)


def summary(times: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(times, n=4)
    return {"median_ms": round(statistics.median(times) * 1e3, 1), "iqr_ms": round((q3 - q1) * 1e3, 1)}


def main(argv: list[str]) -> None:
    here = Path(__file__).resolve().parent.parent
    trees = dict(arg.split("=", 1) for arg in argv) or {"this": str(here)}
    base = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    report: dict = {"python": sys.version.split()[0], "runs": RUNS, "checkouts": list(trees)}
    with tempfile.TemporaryDirectory() as tmp:
        copies = {}
        for mode in ("cold", "warm"):
            for label, root in trees.items():
                copy = Path(tmp, mode, label)
                shutil.copytree(Path(root, "src"), copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
                env = dict(base, PYTHONPATH=str(copy / "src"))
                if mode == "cold":
                    env["PYTHONDONTWRITEBYTECODE"] = "1"
                copies[mode, label] = (copy, env)
        expected = {}
        for command in COMMANDS:  # untimed: writes the warm mode's bytecode
            for (mode, label), (copy, env) in copies.items():
                outcome = run(copy, env, command)[1]
                if expected.setdefault(command, outcome) != outcome:
                    raise SystemExit(f"{label}: {command} differs from {next(iter(trees))}")
        times: dict = {key: {command: [] for command in COMMANDS} for key in copies}
        keys = list(copies)
        for round_ in range(RUNS):
            for command in COMMANDS:
                for key in keys[round_ % len(keys):] + keys[:round_ % len(keys)]:
                    elapsed, outcome = run(*copies[key], command)
                    if outcome != expected[command]:
                        raise SystemExit(f"{key[1]}: {command} differs from its first run")
                    times[key][command].append(elapsed)
    for mode in ("cold", "warm"):
        report[mode] = {command: {label: summary(times[mode, label][command]) for label in trees}
                        for command in COMMANDS}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
