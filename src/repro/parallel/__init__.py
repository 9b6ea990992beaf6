"""Batched EXPLORE (deterministically equal to the serial loop).

Candidate evaluation in the EXPLORE branch-and-bound — the
possible-allocation filter, the flexibility estimate, the NP-complete
binding solve and the timing test — does not depend on the incumbent
flexibility bound except for the *decision* whether a candidate is
worth implementing.  This package splits each candidate into

* an incumbent-independent stage (filter, comm pruning, estimation,
  speculative full evaluation) evaluated in cost-ordered batches, and
* an incumbent-dependent *replay* stage that reduces the batch results
  in the deterministic serial candidate order against the shared
  incumbent bound.

Because speculative evaluation is triggered exactly for the superset of
candidates the serial loop could possibly implement (the incumbent is
monotone non-decreasing), the replay reproduces the serial loop's
pruning decisions, statistics, Pareto set and tie-breaking *bit for
bit* — see :mod:`repro.parallel.batched` for the invariant and
``tests/test_parallel_explore.py`` for the differential proof.  The
batch boundaries are where anytime budgets, checkpoints and service
slices hook in.

Evaluation outcomes are memoised across batches in an
:class:`EvaluationCache` keyed on the canonical allocation signature
(:func:`canonical_signature`): allocations that differ only in unusable
units — nested units whose enclosing clusters are not allocated —
evaluate identically, so repeated effective sub-allocations across cost
bands are solved once.
"""

from .batched import BATCH_SIZE_DEFAULT, explore_batched
from .cache import EvaluationCache, outcome_checksum, outcome_token
from .signature import canonical_signature
from .worker import CandidateOutcome, EvalParams, evaluate_candidate

__all__ = [
    "BATCH_SIZE_DEFAULT",
    "CandidateOutcome",
    "EvalParams",
    "EvaluationCache",
    "canonical_signature",
    "evaluate_candidate",
    "explore_batched",
    "outcome_checksum",
    "outcome_token",
]
