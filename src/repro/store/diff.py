"""Structural spec diffing and precise store invalidation.

Content addressing (:mod:`repro.store.digest`) already guarantees that
an edited specification never *reads* a stale verdict — the edit
changes the key digests, so old entries are simply unreachable.  What
diffing adds is garbage collection with a proof obligation inverted:
instead of "which entries are still valid?" (dangerous to get wrong)
it answers "which entries can this edit possibly have touched?" and
drops exactly those, keeping the store from accumulating one dead
generation per latency sweep.

The classification mirrors what :mod:`repro.analysis.patch` can
express:

``identical``
    Same canonical document — nothing to do.
``local``
    Same structure (equal namespace digests), only mapping latencies
    and/or unit costs differ.  Costs never enter a verdict, so
    cost-only edits invalidate nothing.  A latency edit of mapping
    ``(process, resource)`` can only have touched entries whose ECS
    binds the process (their dependency metadata lists it) — everything
    else is kept.
``structural``
    Different namespace digests.  The old namespace's entries are
    unreachable from the new spec by construction — the conservative
    whole-spec fallback is the addressing scheme itself, and nothing
    is dropped here (``gc`` evicts dead namespaces by size budget).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..io.json_io import spec_to_dict
from .digest import namespace_digest
from .store import WarmStore


class SpecEdit:
    """The classified difference between two frozen specifications."""

    __slots__ = (
        "kind",
        "old_namespace",
        "new_namespace",
        "latency_edits",
        "cost_edits",
    )

    def __init__(
        self,
        kind: str,
        old_namespace: str,
        new_namespace: str,
        latency_edits: List[Tuple[str, str]],
        cost_edits: List[str],
    ) -> None:
        #: ``"identical"``, ``"local"`` or ``"structural"``.
        self.kind = kind
        self.old_namespace = old_namespace
        self.new_namespace = new_namespace
        #: ``(process, resource)`` pairs whose mapping latency changed.
        self.latency_edits = latency_edits
        #: Unit names whose allocation cost changed.
        self.cost_edits = cost_edits

    def __repr__(self) -> str:
        return (
            f"SpecEdit(kind={self.kind!r}, "
            f"latency_edits={self.latency_edits!r}, "
            f"cost_edits={self.cost_edits!r})"
        )


def _scope_costs(scope_doc: Dict, out: Dict[str, float]) -> None:
    for vertex in scope_doc.get("vertices", ()):
        attrs = vertex.get("attrs") or {}
        if "cost" in attrs:
            out[vertex["name"]] = attrs["cost"]
    for interface in scope_doc.get("interfaces", ()):
        for cluster in interface.get("clusters", ()):
            attrs = cluster.get("attrs") or {}
            if "cost" in attrs:
                out[cluster["name"]] = attrs["cost"]
            _scope_costs(cluster, out)


def diff_specs(old_spec, new_spec) -> SpecEdit:
    """Classify the edit from ``old_spec`` to ``new_spec``."""
    old_doc = spec_to_dict(old_spec)
    new_doc = spec_to_dict(new_spec)
    old_ns = namespace_digest(old_spec)
    new_ns = namespace_digest(new_spec)
    if old_ns != new_ns:
        return SpecEdit("structural", old_ns, new_ns, [], [])
    latency_edits: List[Tuple[str, str]] = []
    old_lat = {
        (m["process"], m["resource"]): m.get("latency")
        for m in old_doc.get("mappings", ())
    }
    for mapping in new_doc.get("mappings", ()):
        key = (mapping["process"], mapping["resource"])
        if old_lat.get(key) != mapping.get("latency"):
            latency_edits.append(key)
    old_costs: Dict[str, float] = {}
    new_costs: Dict[str, float] = {}
    _scope_costs(old_doc.get("architecture", {}), old_costs)
    _scope_costs(new_doc.get("architecture", {}), new_costs)
    cost_edits = sorted(
        name
        for name in set(old_costs) | set(new_costs)
        if old_costs.get(name) != new_costs.get(name)
    )
    kind = "local" if latency_edits or cost_edits else "identical"
    return SpecEdit(kind, old_ns, new_ns, sorted(latency_edits), cost_edits)


def touched_keys(store: WarmStore, edit: SpecEdit) -> List[str]:
    """Keys in the old namespace the edit can have touched.

    A latency edit of ``(process, resource)`` reaches a verdict only
    through the utilisation increment of that mapping option, which
    the ECS digest of the verdict's key covers exactly when its ECS
    binds ``process`` — every ECS that binds a process carries all of
    its options, the one owned by ``resource``'s unit included.  So
    the edit touches exactly the entries whose ``deps`` leaves name
    the process.  Cost edits reach nothing (costs order the
    enumeration; they never enter a verdict).
    """
    if edit.kind != "local" or not edit.latency_edits:
        return []
    processes = {process for process, _resource in edit.latency_edits}
    ns = store.namespace(edit.old_namespace)
    return [
        key
        for key, entry in ns.entries.items()
        if not processes.isdisjoint(entry.deps.get("l") or ())
    ]


def invalidate(
    store: WarmStore, old_spec, new_spec, edit: Optional[SpecEdit] = None
) -> Dict[str, object]:
    """Drop every store entry the edit from old to new can have touched.

    Precise garbage collection, never a correctness mechanism (see the
    module docstring).  Returns a small report:
    ``{"kind", "invalidated", "namespace"}``.
    """
    if edit is None:
        edit = diff_specs(old_spec, new_spec)
    dropped = 0
    if edit.kind == "local":
        keys = touched_keys(store, edit)
        if keys:
            dropped = store.drop(edit.old_namespace, keys)
    return {
        "kind": edit.kind,
        "invalidated": dropped,
        "namespace": edit.old_namespace,
    }
