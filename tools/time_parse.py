"""Time ``dsl.parse_ologism`` against the token parser alone, in process.

Builds the 120 closure-large documents of one seed (``perfbench``'s
``ClosureLarge``, seed 1), checks that both parses agree on each, then
parses all of them with each in turn, five times.  Prints, as JSON, the time
in ms of each run of the 120 parses.  Run from the repository root:

    PYTHONPATH=src python3 tools/time_parse.py
"""

import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from ologism import dsl  # noqa: E402
from perfbench.workloads import ClosureLarge  # noqa: E402

SEED, RUNS = 1, 5


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        texts = list(ClosureLarge(Path(tmp), Path(tmp), SEED).files.values())
    for text in texts:
        assert dsl.parse_ologism(text) == dsl._parse_tokens(text)
    times: dict[str, list[float]] = {"parse_ologism_ms": [], "token_parser_ms": []}
    for _ in range(RUNS):
        for name, parse in (("parse_ologism_ms", dsl.parse_ologism), ("token_parser_ms", dsl._parse_tokens)):
            start = time.perf_counter()
            for text in texts:
                parse(text)
            times[name].append(round((time.perf_counter() - start) * 1e3, 1))
    print(json.dumps({"documents": len(texts), **times}))


if __name__ == "__main__":
    main()
