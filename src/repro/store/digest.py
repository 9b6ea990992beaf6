"""Content addressing of specifications and binding-verdict keys.

The warm-start store never trusts a cached verdict because of where it
was found — it trusts it because of *what it is keyed by*.  Two layers
of addresses make stale reuse structurally impossible:

* the **namespace digest** addresses the specification with every
  locally-patchable number removed: mapping latencies and architecture
  unit costs (exactly the fields :mod:`repro.analysis.patch` can
  rewrite).  Edits to those fields keep the namespace, so verdicts
  survive a latency sweep; any *structural* edit (a new unit, a moved
  cluster, a changed period) lands in a fresh namespace and starts
  cold — the conservative whole-spec fallback is automatic, not a
  code path;

* the **key** addresses one binding sub-problem: a per-ECS content
  digest followed by the integer part of the in-process memo key
  (:func:`repro.compiled.evaluator.verdict_key`: the usable option
  owners plus which option tops the usable comm tops connect), as
  ``"<ecs digest>:<usable & owners | links in hex>"``.  The ECS digest
  covers the run parameters, the ECS selection, its leaves and every
  option record of the ECS *including its utilisation increment*
  (which carries the latency).  Within one namespace the unit bits,
  top nodes and interface ids are functions of the structure, and the
  memo key holds everything the binding search reads (it is a
  congruence; ``tests/test_monotonicity.py``), so equal keys mean equal
  verdicts.  A latency edit changes the digest of every ECS that binds
  the edited process, hence its old entries are never looked up again.
  For the two modes whose verdicts read the specification beyond the
  ECS (``timing_mode="schedule"`` scheduling checks, ``backend="sat"``
  whole-allocation encodings) the ECS digest folds in the full spec
  digest and the key ends in the whole usable mask — maximally
  conservative, still never wrong.

Consequence: :mod:`repro.store.diff` invalidation is pure garbage
collection.  Correctness never depends on it.

Each evaluator takes one SHA-256 per ECS, on the first key of that ECS,
and keeps it in its :class:`_KeyMaterial`, with the option text of each
leaf (serialised once: a leaf has the same options in every ECS); every
warm memo miss then costs one string format.  The memo and the store
thus share one key: a memo entry stands for exactly one store entry.  The price is on a latency edit: every entry of an ECS
binding the edited process moves, including those whose usable units
own none of the edited options (``KEY_VERSION`` 1 digested the usable
projection and its option records, which kept those).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

from ..boolexpr.sat import BRANCHING_RULE

#: Version of the key scheme.  Bump on any change to what a key or
#: verdict payload encodes; old entries then become unreachable
#: (version skew is a cache miss, never a wrong answer).
KEY_VERSION = 2


def _canonical(document: Any) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _sha(document: Any, length: int) -> str:
    return hashlib.sha256(
        _canonical(document).encode("utf-8")
    ).hexdigest()[:length]


def spec_digest(spec_doc: Dict[str, Any]) -> str:
    """SHA-256 of a canonical specification document (16 hex chars)."""
    return _sha(spec_doc, 16)


def full_spec_digest(spec) -> str:
    """The digest of the complete canonical specification document."""
    from ..io import spec_to_dict

    return spec_digest(spec_to_dict(spec))


def _strip_scope_costs(scope_doc: Dict[str, Any]) -> None:
    for vertex in scope_doc.get("vertices", ()):
        attrs = vertex.get("attrs")
        if attrs:
            attrs.pop("cost", None)
    for interface in scope_doc.get("interfaces", ()):
        for cluster in interface.get("clusters", ()):
            attrs = cluster.get("attrs")
            if attrs:
                attrs.pop("cost", None)
            _strip_scope_costs(cluster)


def namespace_digest(spec) -> str:
    """16-hex-char address of the specification's *structure*.

    The digest of the canonical document without mapping ``latency``
    fields and architecture unit ``cost`` attributes: stable under
    latency and unit-cost edits, changed by anything else.  One store
    namespace holds exactly one structure's verdicts.
    """
    from ..io import spec_to_dict

    # A fresh document (its attrs are copies), so strip it in place.
    document = spec_to_dict(spec)
    for mapping in document["mappings"]:
        mapping.pop("latency", None)
    _strip_scope_costs(document["architecture"])
    return _sha(document, 16)


class _KeyMaterial:
    """One evaluator's key material, built on its first key: the text
    around every ECS payload, whether keys pin the whole spec, the
    digest of each ECS and the canonical option text of each leaf seen
    (a leaf has the same options in every ECS)."""

    __slots__ = ("head", "tail", "pinned", "ecs", "leaves")

    def __init__(self, evaluator) -> None:
        params = [
            evaluator.util_bound, evaluator.backend, evaluator.timing_mode
        ]
        if evaluator.backend == "sat":
            params.append(BRANCHING_RULE)
        self.head = "[%d,%s," % (KEY_VERSION, _canonical(params))
        #: Whether the verdicts read the specification beyond the ECS
        #: (exact scheduling; whole-allocation SAT encodings).
        self.pinned = (
            evaluator.timing_mode == "schedule" or evaluator.backend == "sat"
        )
        self.tail = "]"
        if self.pinned:
            # A pure function of the frozen spec: memoised on it.
            cs = evaluator.cs
            full = getattr(cs, "_warm_full_digest", None)
            if full is None:
                full = cs._warm_full_digest = full_spec_digest(evaluator.spec)
            self.tail = ",%s]" % _canonical(full)
        self.ecs: Dict[int, str] = {}
        self.leaves: Dict[str, str] = {}

    def ecs_digest(self, info) -> str:
        """32-hex-char content digest of one ECS: the SHA-256 of the
        canonical JSON text (sorted keys, no whitespace) of::

            [KEY_VERSION, [util_bound, backend, timing_mode],
             sorted(selection.items()), leaves,
             per leaf, every option record as
             [resource, owner_bit, owner_top, iface_id, loaded,
              util_increment]]

        with the full spec digest appended for
        ``timing_mode="schedule"`` and ``backend="sat"``.  For
        ``backend="sat"`` the parameter list also ends in the SAT
        solver's :data:`~repro.boolexpr.sat.BRANCHING_RULE`, which
        decides its models.  JSON arrays serialise element by element
        with ``,`` between elements, so the text is assembled from the
        leaves' option texts."""
        texts = []
        for leaf, recs in zip(info.leaves, info.options):
            text = self.leaves.get(leaf)
            if text is None:
                text = self.leaves[leaf] = _canonical(
                    [
                        [
                            rec.resource,
                            rec.owner_bit,
                            rec.owner_top,
                            rec.iface_id,
                            1 if rec.loaded else 0,
                            rec.util_increment,
                        ]
                        for rec in recs
                    ]
                )
            texts.append(text)
        text = "%s%s,%s,[%s]%s" % (
            self.head,
            _canonical(sorted(info.selection.items())),
            _canonical(list(info.leaves)),
            ",".join(texts),
            self.tail,
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def key_digest(evaluator, info, usable: int, packed: int) -> str:
    """The store key of one verdict: ``"<ecs digest>:<packed>"``.

    ``evaluator`` is a :class:`repro.compiled.CompiledEvaluator`,
    ``info`` the :class:`~repro.compiled.spec.EcsInfo` being solved,
    ``usable`` the candidate's usable-unit mask and ``packed`` the
    integer part of its memo key (:func:`verdict_key`), both in hex.
    For ``timing_mode="schedule"`` and ``backend="sat"`` the key ends
    in ``":<usable>"`` as well.  The ECS digest
    (:meth:`_KeyMaterial.ecs_digest`) is taken on the first key of
    each ECS and kept in the evaluator's key material.
    """
    material = evaluator._key_material
    if material is None:
        material = evaluator._key_material = _KeyMaterial(evaluator)
    prefix = material.ecs.get(info.mask)
    if prefix is None:
        prefix = material.ecs[info.mask] = material.ecs_digest(info)
    if material.pinned:
        return "%s:%x:%x" % (prefix, packed, usable)
    return "%s:%x" % (prefix, packed)


def key_deps(info) -> Dict[str, List[str]]:
    """Dependency metadata of one verdict key.

    ``{"l": leaves}`` — the processes whose latencies its ECS digest
    covers, the handle precise invalidation grabs (see
    :mod:`repro.store.diff`).  Built only when a verdict is written.
    """
    return {"l": list(info.leaves)}
