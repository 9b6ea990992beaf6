"""Regenerate ``expected/<workload>.json`` for the default seed.

Runs every input of the default seed through the reference engine::

    python3 perfbench/make_expected.py [workload ...]
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0


def main(names) -> int:
    os.makedirs(oracle.EXPECTED_DIR, exist_ok=True)
    for name in names or sorted(WORKLOADS):
        inputs = WORKLOADS[name].inputs(DEFAULT_SEED)
        expected = {
            inp.key: oracle.reference_doc(inp.doc, inp.options)
            for inp in inputs
        }
        path = os.path.join(oracle.EXPECTED_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"seed": DEFAULT_SEED, "engine": "reference",
                       "expected": expected}, handle, indent=1,
                      sort_keys=True)
            handle.write("\n")
        print(f"{path}: {len(expected)} inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
