"""Content addressing of specifications and binding-verdict keys.

The warm-start store never trusts a cached verdict because of where it
was found — it trusts it because of *what it is keyed by*.  Two layers
of digests make stale reuse structurally impossible:

* the **namespace digest** addresses the specification with every
  locally-patchable number removed: mapping latencies and architecture
  unit costs (exactly the fields :mod:`repro.analysis.patch` can
  rewrite).  Edits to those fields keep the namespace, so verdicts
  survive a latency sweep; any *structural* edit (a new unit, a moved
  cluster, a changed period) lands in a fresh namespace and starts
  cold — the conservative whole-spec fallback is automatic, not a
  code path;

* the **key digest** addresses one binding sub-problem by value: every
  input :meth:`repro.compiled.CompiledEvaluator._compute_verdict`
  reads — the run parameters, the ECS selection, the relevance
  projection (``usable & ecs.support``) and the projected per-leaf
  option records *including their utilisation increments* (which carry
  the latencies).  A latency edit changes the increments, hence the
  digest, hence the old entry is simply never looked up again.  For
  the two modes whose verdicts read the specification beyond the
  projection (``timing_mode="schedule"`` scheduling checks,
  ``backend="sat"`` whole-allocation encodings) the digest folds in
  the full spec digest and the full usable-unit set — maximally
  conservative, still never wrong.

Consequence: :mod:`repro.store.diff` invalidation is pure garbage
collection.  Correctness never depends on it.

Every warm memo miss digests one key, so the key text is not
serialised afresh each time.  The in-process memo key
(:func:`repro.compiled.evaluator.verdict_key`: usable option owners
plus option-top links) is coarser than this digest, so one memo entry
may stand for several digests; the digest is taken only on a memo
miss, for the allocation at hand, and a lookup stays exact.  The key
text depends only on the ECS and on ``usable & ecs.support`` (every
option owner's bit lies inside the support), and most of it only on
the ECS.  Each evaluator therefore keeps a :class:`_KeyMaterial`: the
parameter head, per ECS the prefix (selection, leaves) and the owner
mask of its options, and per leaf the canonical JSON fragment of each
option record (a leaf has the same options in every ECS).  A key is
assembled from those pieces, the projected names (memoised per projection) and the domain text
(memoised per ``usable & owner mask``, per ECS and per leaf).  JSON arrays
serialise element by element with ``,`` between elements and there are
no objects in a key, so the assembled text is exactly the text
``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` produces
for the payload documented in :func:`key_digest`.  The digest bytes,
and so ``KEY_VERSION`` 1, are unchanged: stores written before keep
hitting.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Tuple

from ..boolexpr.sat import BRANCHING_RULE

#: Version of the key-digest scheme.  Bump on any change to what a key
#: or verdict payload encodes; old entries then become unreachable
#: (version skew is a cache miss, never a wrong answer).
KEY_VERSION = 1


def _canonical(document: Any) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _sha(document: Any, length: int) -> str:
    return hashlib.sha256(
        _canonical(document).encode("utf-8")
    ).hexdigest()[:length]


def full_spec_digest(spec) -> str:
    """The distributed-layer digest of the complete canonical document."""
    from ..io import spec_to_dict
    from ..io.shard_io import spec_digest

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


def stripped_spec_doc(document: Dict[str, Any]) -> Dict[str, Any]:
    """A deep copy of a spec document with the locally-patchable
    numbers removed: mapping ``latency`` fields and architecture unit
    ``cost`` attributes (the two things :mod:`repro.analysis.patch`
    can rewrite)."""
    doc = json.loads(json.dumps(document))
    for mapping in doc.get("mappings", ()):
        mapping.pop("latency", None)
    architecture = doc.get("architecture")
    if isinstance(architecture, dict):
        _strip_scope_costs(architecture)
    return doc


def namespace_digest(spec) -> str:
    """16-hex-char address of the specification's *structure*.

    Stable under latency and unit-cost edits; changed by anything
    else.  One store namespace holds exactly one structure's verdicts.
    """
    from ..io import spec_to_dict

    return _sha(stripped_spec_doc(spec_to_dict(spec)), 16)


class _LeafMaterial:
    """One leaf's mapping options as key text: the owner mask of its
    options, one canonical fragment per option record and a memo of
    the leaf's domain text per owner projection."""

    __slots__ = ("owner_mask", "fragments", "texts")

    def __init__(self, recs) -> None:
        owner_mask = 0
        fragments = []
        for rec in recs:
            owner_mask |= 1 << rec.owner_bit
            fragments.append(
                (
                    rec.owner_bit,
                    _canonical(
                        [
                            rec.resource,
                            rec.owner_bit,
                            rec.owner_top,
                            rec.iface_id,
                            1 if rec.loaded else 0,
                            rec.util_increment,
                        ]
                    ),
                )
            )
        self.owner_mask = owner_mask
        self.fragments = fragments
        self.texts: Dict[int, str] = {}

    def text(self, usable: int) -> str:
        owners = usable & self.owner_mask
        text = self.texts.get(owners)
        if text is None:
            text = self.texts[owners] = "[%s]" % ",".join(
                fragment
                for bit, fragment in self.fragments
                if owners >> bit & 1
            )
        return text


class _EcsMaterial:
    """The key text of one ECS that no allocation changes: its prefix
    (parameters, selection, leaves) and its leaves' option material,
    plus a memo of the domain text per owner projection."""

    __slots__ = ("prefix", "owner_mask", "leaves", "domains")

    def __init__(self, material: "_KeyMaterial", info) -> None:
        self.prefix = (
            material.head
            + _canonical(sorted(info.selection.items()))
            + ","
            + _canonical(list(info.leaves))
            + ","
        )
        self.leaves = [
            material.leaf(leaf, recs)
            for leaf, recs in zip(info.leaves, info.options)
        ]
        owner_mask = 0
        for leaf in self.leaves:
            owner_mask |= leaf.owner_mask
        #: Union of the option owners' unit bits (within ``support``).
        self.owner_mask = owner_mask
        self.domains: Dict[int, str] = {}

    def domains_text(self, usable: int) -> str:
        owners = usable & self.owner_mask
        text = self.domains.get(owners)
        if text is None:
            text = self.domains[owners] = "[%s]" % ",".join(
                leaf.text(owners) for leaf in self.leaves
            )
        return text


class _KeyMaterial:
    """One evaluator's digest material, built on its first key.

    Holds the parameter head shared by every key, the
    :class:`_EcsMaterial` of each ECS and the :class:`_LeafMaterial` of
    each leaf seen (a leaf's options are the same in every ECS), and
    two unit-name memos: the projected names (list and text) per
    projection and, for the modes that pin the whole spec, the key
    suffix per usable mask.
    """

    __slots__ = (
        "cs", "head", "ecs", "leaves", "projections", "full", "suffixes"
    )

    def __init__(self, evaluator) -> None:
        cs = self.cs = evaluator.cs
        params = [
            evaluator.util_bound, evaluator.backend, evaluator.timing_mode
        ]
        if evaluator.backend == "sat":
            params.append(BRANCHING_RULE)
        self.head = "[%d,%s," % (KEY_VERSION, _canonical(params))
        self.ecs: Dict[int, _EcsMaterial] = {}
        self.leaves: Dict[str, _LeafMaterial] = {}
        self.projections: Dict[int, Tuple[List[str], str]] = {}
        #: Canonical text of the full spec digest when the verdicts read
        #: the specification beyond the projection (exact scheduling;
        #: whole-allocation SAT encodings), else ``None``.  The digest
        #: is a pure function of the frozen spec, so it is memoised on
        #: the compiled spec (the same lifetime as ``_warm_namespace``).
        self.full: Optional[str] = None
        if evaluator.timing_mode == "schedule" or evaluator.backend == "sat":
            full = getattr(cs, "_warm_full_digest", None)
            if full is None:
                full = full_spec_digest(evaluator.spec)
                cs._warm_full_digest = full
            self.full = _canonical(full)
        self.suffixes: Dict[int, str] = {}

    def leaf(self, name: str, recs) -> _LeafMaterial:
        material = self.leaves.get(name)
        if material is None:
            material = self.leaves[name] = _LeafMaterial(recs)
        return material

    def projection(self, proj: int) -> Tuple[List[str], str]:
        entry = self.projections.get(proj)
        if entry is None:
            names = sorted(self.cs.names_of(proj))
            entry = self.projections[proj] = (names, _canonical(names))
        return entry

    def suffix(self, usable: int) -> str:
        text = self.suffixes.get(usable)
        if text is None:
            text = self.suffixes[usable] = ",%s,%s" % (
                self.full,
                _canonical(sorted(self.cs.names_of(usable))),
            )
        return text


def _material(evaluator) -> _KeyMaterial:
    material = evaluator._key_material
    if material is None:
        material = evaluator._key_material = _KeyMaterial(evaluator)
    return material


def key_digest(evaluator, info, usable: int) -> str:
    """32-hex-char content digest of one verdict key.

    ``evaluator`` is a :class:`repro.compiled.CompiledEvaluator`,
    ``info`` the :class:`~repro.compiled.spec.EcsInfo` being solved and
    ``usable`` the candidate's usable-unit mask.  The digest is the
    SHA-256 of the canonical JSON text (sorted keys, no whitespace) of::

        [KEY_VERSION, [util_bound, backend, timing_mode],
         sorted(selection.items()), leaves, projected unit names,
         per-leaf option records owned by a usable unit]

    with the full spec digest and every usable unit name appended for
    ``timing_mode="schedule"`` and ``backend="sat"``.  For
    ``backend="sat"`` the parameter list also ends in the SAT solver's
    :data:`~repro.boolexpr.sat.BRANCHING_RULE`, which decides its
    models; CSP keys are unchanged.  The text is
    assembled from the evaluator's :class:`_KeyMaterial` rather than
    serialised afresh; see the module docstring.

    Within one namespace the unit bit order, top-node indices and
    interface ids are deterministic functions of the structure, so the
    raw indices in :class:`~repro.compiled.spec.OptionRec` are stable
    digest material.
    """
    material = _material(evaluator)
    ecs = material.ecs.get(info.mask)
    if ecs is None:
        ecs = material.ecs[info.mask] = _EcsMaterial(material, info)
    text = (
        ecs.prefix
        + material.projection(usable & info.support)[1]
        + ","
        + ecs.domains_text(usable)
    )
    if material.full is not None:
        text += material.suffix(usable)
    return hashlib.sha256((text + "]").encode("utf-8")).hexdigest()[:32]


def key_deps(evaluator, info, usable: int) -> Dict[str, List[str]]:
    """Dependency metadata of one verdict key.

    ``{"l": leaves, "u": projected unit names}`` — the leaves and units
    the verdict depends on, the handle precise invalidation grabs (see
    :mod:`repro.store.diff`).  Built only when a verdict is written.
    """
    names = _material(evaluator).projection(usable & info.support)[0]
    return {"l": list(info.leaves), "u": list(names)}
