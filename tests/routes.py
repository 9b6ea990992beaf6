"""The ``explore()`` routes that run budgets and checkpoints.

Differential suites run each exploration plainly and once per route: a
deadline and an evaluation budget too large to bind, and a checkpoint
journal at the suite's cadence.  Every route must reproduce the plain
run; only ``checkpoints_written`` (and wall-clock) may differ.
"""

import os


def routes(tmp_path, every):
    """``(name, explore() keywords)`` of each route, journaling every
    ``every`` consumed candidates."""
    journal = os.path.join(str(tmp_path), f"route-{every}.ckpt")
    return [
        ("deadline", dict(deadline_seconds=1e9)),
        ("max_evaluations", dict(max_evaluations=10**9)),
        ("checkpoint", dict(checkpoint=journal, checkpoint_every=every)),
    ]


def comparable_stats(result):
    """The statistics every route shares with the plain run."""
    return {
        k: v
        for k, v in result.stats.as_dict().items()
        if k not in ("elapsed_seconds", "checkpoints_written")
    }
