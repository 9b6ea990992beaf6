"""Persistent warm-start exploration: the content-addressed verdict
store (``explore(warm_store=...)``).

The compiled kernel (:mod:`repro.compiled`) memoises binding verdicts
across candidates; this package makes that memo durable across
*processes* and across *spec edits*:

* :mod:`repro.store.digest` — content addressing.  A namespace digest
  pins the specification structure (latencies and unit costs
  stripped); a key digest pins every input of one verdict, assembled
  from material each evaluator computes once per ECS.  Stale
  reuse is structurally impossible: an edit changes the digests, so
  old entries are never looked up.
* :mod:`repro.store.store` — the append-only, CRC-checksummed segment
  store with an in-process read cache, loud corruption/version-skew
  detection (corrupt ⇒ cold re-evaluation, never wrong) and atomic
  compaction/GC.
* :mod:`repro.store.diff` — structural spec diffing that maps an edit
  to the entries it can have touched and drops exactly those (precise
  GC; the conservative whole-spec fallback is the addressing itself).

Wired through ``explore(warm_store=...)``, checkpoint/resume and the
exploration service (named jobs on
one host share one store).  Warm results are byte-identical to cold —
differentially tested over the randspec corpus and randomized edit
chains.  See ``docs/performance.md`` (soundness) and
``docs/formats.md`` (segment layout).
"""

from .diff import SpecEdit, diff_specs, invalidate, touched_keys
from .digest import (
    KEY_VERSION,
    full_spec_digest,
    key_deps,
    key_digest,
    namespace_digest,
)
from .store import (
    SEGMENT_FORMAT,
    SEGMENT_VERSION,
    WarmBinding,
    WarmStore,
    describe_store,
    open_store,
)

__all__ = [
    "KEY_VERSION",
    "SEGMENT_FORMAT",
    "SEGMENT_VERSION",
    "SpecEdit",
    "WarmBinding",
    "WarmStore",
    "describe_store",
    "diff_specs",
    "full_spec_digest",
    "invalidate",
    "key_deps",
    "key_digest",
    "namespace_digest",
    "open_store",
    "touched_keys",
]
