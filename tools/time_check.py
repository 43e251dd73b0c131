"""Time each stage of ``ologism --format json check`` in process.

Builds the 120 closure-large documents of one seed (``perfbench``'s
``ClosureLarge``, seed 1) and runs ``check``'s stages on each by hand: read
the file, parse it (``dsl.parse_ologism`` and ``validate``), ``star_rows``,
``triples``, ``beyond_premisses``, the readings of the derived facts and
the contradictions, ``steps_below`` with the rendered trees, and
``json_text``.  It first asserts that the stages put together write what
``cli.main`` writes for each document.  Then it times the stages over all
120 documents, five times, and prints, as JSON, each stage's time in ms in
each run.  Run from the repository root:

    PYTHONPATH=src python3 tools/time_check.py
"""

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from ologism import deduce, dsl  # noqa: E402
from ologism.cli import json_text, main as cli_main  # noqa: E402
from ologism.core import proposition, reading, reading_of, validate  # noqa: E402
from perfbench.workloads import ClosureLarge  # noqa: E402

SEED, RUNS = 1, 5
STAGES = ("read", "parse", "star_rows", "triples", "beyond_premisses", "readings", "steps_below", "json_text")


def check(path: Path, spent: dict[str, float]) -> str:
    """What ``check --format json`` writes for ``path``, a document that
    parses cleanly, built stage by stage; each stage's time is added to
    ``spent``."""
    clock = time.perf_counter
    marks = [clock()]
    text = path.read_text(encoding="utf-8-sig")
    marks.append(clock())
    result = dsl.parse_ologism(text)
    doc = result.value
    assert doc is not None and not result.diagnostics and not validate(doc), path
    marks.append(clock())
    stars = deduce.star_rows(doc)
    marks.append(clock())
    triples = stars.triples()
    marks.append(clock())
    beyond = deduce.beyond_premisses(triples, doc.premisses, stars.types)
    marks.append(clock())
    derived = [{"proposition": f"{form}({s},{p})", "reading": reading_of(form, s, p, doc)}
               for form, s, p in beyond]
    goals = [t for t in triples if t[0] == "O" and t[1] == t[2]]
    said = [reading(proposition(*g), doc) for g in goals]
    marks.append(clock())
    steps = stars.steps_below(goals) if goals else {}
    trees = [deduce.render(steps, g) for g in goals]
    marks.append(clock())
    clashes = [{"type": g[1], "reading": r, "derivation": tree} for g, r, tree in zip(goals, said, trees)]
    out = json_text({"command": "check", "status": "contradiction" if goals else "ok",
                     "sections": {"ologism": doc.name, "derived": derived, "contradictions": clashes}}) + "\n"
    marks.append(clock())
    for stage, start, end in zip(STAGES, marks, marks[1:]):
        spent[stage] += end - start
    return out


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workload = ClosureLarge(Path(tmp), Path(tmp), SEED)
        paths = [Path(tmp) / name for name in workload.files]
        for path in paths:
            written = io.StringIO()
            with contextlib.redirect_stdout(written):
                cli_main(["--format", "json", "check", str(path)])
            assert check(path, dict.fromkeys(STAGES, 0.0)) == written.getvalue(), path
        times: dict[str, list[float]] = {stage: [] for stage in STAGES}
        for _ in range(RUNS):
            spent = dict.fromkeys(STAGES, 0.0)
            for path in paths:
                check(path, spent)
            for stage in STAGES:
                times[stage].append(round(spent[stage] * 1e3, 2))
    print(json.dumps({"documents": len(paths), "stage_ms": times}))


if __name__ == "__main__":
    main()
