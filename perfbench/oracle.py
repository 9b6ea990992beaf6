"""Expected results: committed for the default seed, else computed.

An expectation is the result of ``explore(..., engine="reference")``
on the same document and options, reduced to what must match exactly:
the front (units, cost, flexibility, clusters), the deterministic
statistics and ``max_flexibility_bound``.  ``expected/<workload>.json``
holds them for the default seed's inputs, keyed by :func:`input_key`;
any other input is computed with the reference engine, off the clock.
The case studies are also checked against ``tests/golden``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
GOLDEN = {"settop": "settop_front.json", "tv_decoder": "tv_decoder_front.json"}


def input_key(doc: Dict[str, Any], options: Dict[str, Any]) -> str:
    """Content address of one op input (spec document + options)."""
    blob = json.dumps({"spec": doc, "options": options}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def result_doc(result) -> Dict[str, Any]:
    """The comparable part of an :class:`ExplorationResult`."""
    return {
        "points": [
            {
                "units": sorted(p.units),
                "cost": p.cost,
                "flexibility": p.flexibility,
                "clusters": sorted(p.clusters),
            }
            for p in result.points
        ],
        "stats": {
            k: v
            for k, v in result.stats.as_dict().items()
            if k != "elapsed_seconds"
        },
        "max_flexibility_bound": result.max_flexibility_bound,
    }


def reference_doc(doc, options) -> Dict[str, Any]:
    from repro.core import explore
    from repro.io import spec_from_dict

    spec = spec_from_dict(doc)
    return result_doc(explore(spec, engine="reference", **options))


class Oracle:
    """Expectations for one workload's inputs."""

    def __init__(self, workload: str, root: str) -> None:
        self.root = root
        self.path = os.path.join(EXPECTED_DIR, f"{workload}.json")
        self.committed: Dict[str, Any] = {}
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as handle:
                self.committed = json.load(handle)["expected"]
        self.goldens: Dict[str, Any] = {}
        self.computed = 0

    def expected(self, inp) -> Dict[str, Any]:
        doc = self.committed.get(inp.key)
        if doc is None:
            doc = reference_doc(inp.doc, inp.options)
            self.committed[inp.key] = doc
            self.computed += 1
        return doc

    def golden(self, label: str, default: Dict[str, Any]) -> Dict[str, Any]:
        """The golden result of a case study, else ``default``."""
        name = GOLDEN.get(label)
        if name is None:
            return default
        if name not in self.goldens:
            path = os.path.join(self.root, "tests", "golden", name)
            with open(path, encoding="utf-8") as handle:
                golden = json.load(handle)
            golden.pop("spec", None)
            self.goldens[name] = golden
        return self.goldens[name]

    def check(self, inp, observed: Dict[str, Any]) -> Optional[str]:
        """``None`` when ``observed`` matches, else why not."""
        if observed != self.expected(inp):
            return f"{inp.options} result differs from the reference engine"
        if observed != self.golden(inp.label, observed):
            return "result differs from tests/golden"
        return None
