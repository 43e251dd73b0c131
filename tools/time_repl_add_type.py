"""Time a REPL ``add type`` in process.

Loads 30 ``perfbench.docs.premiss_only`` documents of 50 types (seed 3)
into fresh ``Repl`` sessions and times one ``add type`` on each, through
``Repl.dispatch``.  Prints, as JSON, the median time in ms of each of three
runs.  Run from the repository root:

    PYTHONPATH=src python3 tools/time_repl_add_type.py
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

from ologism.repl import Repl  # noqa: E402
from perfbench import docs  # noqa: E402

DOCUMENTS, TYPES, SEED, RUNS = 30, 50, 3, 3


def main() -> None:
    rng = random.Random(SEED)
    medians = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k in range(DOCUMENTS):
            path = Path(tmp) / f"doc{k}.olgm"
            path.write_text(docs.render_premiss_only(f"doc{k}", *docs.premiss_only(rng, TYPES)))
            paths.append(path)
        for _ in range(RUNS):
            times = []
            for path in paths:
                repl = Repl(io.StringIO())
                repl.dispatch(f"load {path}")
                start = time.perf_counter()
                repl.dispatch('add type NEW "a new type"')
                times.append(time.perf_counter() - start)
            medians.append(round(statistics.median(times) * 1e3, 3))
    print(json.dumps({"add_type_median_ms": medians}))


if __name__ == "__main__":
    main()
