"""Cross-batch memoisation of candidate-evaluation outcomes.

Outcomes are keyed on the canonical allocation signature
(:func:`repro.parallel.signature.canonical_signature`); allocations
differing only in unusable units hit the same entry, so the NP-complete
binding solve for a recurring effective sub-allocation runs once per
exploration instead of once per cost band.

Reusing a cached outcome cannot change the replayed statistics: the
serial loop's solver-invocation count for a candidate is deterministic,
and the replay charges the *recorded* ``solver_calls`` of the outcome —
the work the serial loop would have performed — rather than the work
actually done.

Integrity: every entry stores the CRC-32 of its outcome next to the
outcome itself.  ``get`` recomputes the checksum and treats a mismatch
as a miss (the entry is evicted, the corruption counted and logged),
so silent in-memory corruption degrades to a re-evaluation instead of
a wrong Pareto front — this is the detection seam the fault-injection
harness (:func:`repro.resilience.faults.corrupt_cache_entry`)
exercises.
"""

from __future__ import annotations

import zlib
from typing import Dict, FrozenSet, List, Optional, Tuple

from .worker import CandidateOutcome


def outcome_token(outcome: CandidateOutcome) -> str:
    """A canonical string over every field of an outcome.

    Deterministic (dictionaries are serialised as sorted item tuples),
    so equal outcomes produce equal tokens across runs and processes.
    """
    coverage = tuple(
        (
            tuple(sorted(record.selection.items())),
            tuple(sorted(record.binding.items())),
        )
        for record in outcome.coverage
    )
    return repr(
        (
            outcome.possible,
            outcome.comm_pruned,
            outcome.estimate,
            outcome.evaluated,
            outcome.solver_calls,
            outcome.feasible,
            outcome.flexibility,
            tuple(sorted(outcome.clusters)),
            coverage,
        )
    )


def outcome_checksum(outcome: CandidateOutcome) -> int:
    """CRC-32 integrity checksum of an outcome's canonical token."""
    return zlib.crc32(outcome_token(outcome).encode("utf-8"))


class EvaluationCache:
    """Signature-keyed, checksum-verified memo of outcomes."""

    __slots__ = (
        "_entries",
        "max_entries",
        "hits",
        "misses",
        "corruptions",
        "corrupted_signatures",
    )

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self._entries: Dict[
            FrozenSet[str], Tuple[CandidateOutcome, int]
        ] = {}
        #: Optional bound; when exceeded the cache stops accepting new
        #: entries (exploration batches are cost-ordered, so the oldest
        #: entries are also the most likely to recur — keep them).
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        #: Entries rejected (and evicted) by a checksum mismatch.
        self.corruptions = 0
        #: The signatures of the rejected entries, oldest first.
        self.corrupted_signatures: List[FrozenSet[str]] = []

    def get(self, signature: FrozenSet[str]) -> Optional[CandidateOutcome]:
        """Checksum-verified lookup; the dispatcher maintains
        :attr:`hits`/:attr:`misses` (a same-batch duplicate is a hit
        even though its outcome is still in flight, which a counting
        ``get`` could not see).  A corrupt entry is evicted and reported
        as a miss — the dispatcher then re-evaluates the candidate."""
        entry = self._entries.get(signature)
        if entry is None:
            return None
        outcome, crc = entry
        if outcome_checksum(outcome) != crc:
            del self._entries[signature]
            self.corruptions += 1
            self.corrupted_signatures.append(signature)
            return None
        return outcome

    def put(
        self, signature: FrozenSet[str], outcome: CandidateOutcome
    ) -> None:
        if (
            self.max_entries is not None
            and len(self._entries) >= self.max_entries
            and signature not in self._entries
        ):
            return
        self._entries[signature] = (outcome, outcome_checksum(outcome))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, signature: FrozenSet[str]) -> bool:
        return signature in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EvaluationCache(size={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"corruptions={self.corruptions})"
        )
