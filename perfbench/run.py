"""Run one workload of the ologism benchmark from the root of a checkout:

    python3 perfbench/run.py --workload closure-large --seed 1 --seconds 12 --trace 0

``--workload all`` runs every workload in turn.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end with ``--trace 0``, per layer with ``--trace 1``).  A wrong
output exits with code 1.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

for package in ("ologism", "tests"):
    try:
        module = importlib.import_module(package)
    except ImportError as exc:
        sys.exit(f"cannot import {package} from the checkout at {ROOT}: {exc}")
    if not Path(module.__file__).resolve().is_relative_to(ROOT):
        sys.exit(f"{package} was imported from {module.__file__}, not from this checkout")

from perfbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(ROOT))
