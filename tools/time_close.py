"""Time ``deduce.close`` in process: the REPL's fresh, add and retract
closes, what each of those writes costs through ``Repl.dispatch``, and the
complete calculus at 120 types.

Replays the writes of the edit-session sessions of one seed (``perfbench``'s
``EditSession``, seed 1: a ``load``, then adds and retracts in turn, each
through ``Repl.dispatch``) and keeps each write's document with the theory
it was closed from.  It first asserts that each reused table equals a fresh
close's as a mapping.  Then, in each of five runs, it times every ``load``'s
fresh close and every add and retract closed from the theory before it, on
documents whose ``validate`` verdict is already kept; every write again
through ``Repl.dispatch`` in a new session, which pays for parsing, building
and judging the document too; and the complete-calculus close of each of
the ten 120-type ``perfbench.docs.premiss_only`` documents of seeds 1-10.
It prints, as JSON, the median close and the median dispatch of each kind
in ms in each run, and each complete document's best time in ms and its
number of facts.  Run from the repository root:

    PYTHONPATH=src python3 tools/time_close.py
"""

import io
import json
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from ologism import deduce, dsl  # noqa: E402
from ologism.repl import Repl  # noqa: E402
from perfbench import docs  # noqa: E402
from perfbench.workloads import EditSession  # noqa: E402

SEED, RUNS, COMPLETE_TYPES, COMPLETE_SEEDS = 1, 5, 120, range(1, 11)
KINDS = ("load", "add", "retract")


def writes(scripts: list[list[str]]) -> list[tuple]:
    """Each write of ``scripts`` as (kind, document, the theory before it:
    None for a load)."""
    found = []
    for commands in scripts:
        repl = Repl(io.StringIO())
        for command in commands:
            kind, previous = command.split()[0], repl.theory
            repl.dispatch(command)
            found.append((kind, repl.doc, None if kind == "load" else previous))
    return found


def dispatched(scripts: list[list[str]]) -> dict[str, float]:
    """The median ``Repl.dispatch`` of each kind of write in ms, each
    script run in a new session."""
    clock, times = time.perf_counter, {kind: [] for kind in KINDS}
    for commands in scripts:
        repl = Repl(io.StringIO())
        for command in commands:
            start = clock()
            repl.dispatch(command)
            times[command.split()[0]].append(clock() - start)
    return {kind: round(statistics.median(spent) * 1e3, 3) for kind, spent in times.items()}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        session = EditSession(Path(tmp), Path(tmp), SEED)
        # The writes of each session; ``after`` is None for a read.
        scripts = [[command for command, after in lines if after is not None] for _, lines in session.scripts]
        replay = writes(scripts)
        for kind, doc, previous in replay:
            if previous is not None:
                reused = deduce.close(doc, previous=previous)
                assert dict(reused.steps) == dict(deduce.close(doc).steps), (kind, doc.name)
        complete = []
        for seed in COMPLETE_SEEDS:
            text = docs.render_premiss_only(f"complete-{seed}", *docs.premiss_only(random.Random(seed), COMPLETE_TYPES))
            complete.append(dsl.parse_ologism(text).value)

        clock = time.perf_counter
        medians = {kind: [] for kind in KINDS}
        dispatch = {kind: [] for kind in KINDS}
        best = [float("inf")] * len(complete)
        for _ in range(RUNS):
            times: dict[str, list[float]] = {kind: [] for kind in KINDS}
            for kind, doc, previous in replay:
                start = clock()
                deduce.close(doc, previous=previous)
                times[kind].append(clock() - start)
            for kind, spent in times.items():
                medians[kind].append(round(statistics.median(spent) * 1e3, 3))
            for kind, median in dispatched(scripts).items():
                dispatch[kind].append(median)
            for k, doc in enumerate(complete):
                start = clock()
                deduce.close(doc, "complete")
                best[k] = min(best[k], clock() - start)
    facts = [len(deduce.close(doc, "complete").steps) for doc in complete]
    print(json.dumps({
        "fresh_median_ms": medians["load"],
        "add_median_ms": medians["add"],
        "retract_median_ms": medians["retract"],
        "load_dispatch_median_ms": dispatch["load"],
        "add_dispatch_median_ms": dispatch["add"],
        "retract_dispatch_median_ms": dispatch["retract"],
        "complete_best_ms": [round(t * 1e3, 2) for t in best],
        "complete_facts": facts,
    }))


if __name__ == "__main__":
    main()
