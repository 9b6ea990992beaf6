"""Well-known attribute keys of specification graphs.

The paper annotates "additional parameters, like priorities, power
consumption, latencies, etc." onto the components of the specification
graph.  This module centralises the keys the library itself consumes,
with typed accessors that validate values at the point of use.

Keys
----
``cost``
    Allocation cost of an architecture leaf or architecture cluster
    (used by the allocation-cost objective ``c_impl``).
``kind``
    On architecture vertices: ``"resource"`` (default) or ``"comm"``.
    Communication resources (buses) route inter-resource traffic and
    are never binding targets.
``period``
    On problem clusters (or vertices): minimal activation period of the
    load-carrying processes, in the paper's case study nanoseconds.
``negligible``
    On problem vertices: exclude the process from utilisation estimates
    (the paper neglects authentication and controller processes).
``weight``
    On problem clusters: weight for the weighted flexibility variant.
``reconfig_delay``
    On clusters: time needed to switch to this cluster at run time.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from ..errors import ModelError
from ..hgraph import Attributed, Cluster, Vertex

#: Attribute keys understood by the library.
COST = "cost"
KIND = "kind"
PERIOD = "period"
NEGLIGIBLE = "negligible"
WEIGHT = "weight"
RECONFIG_DELAY = "reconfig_delay"

#: ``kind`` values for architecture vertices.
KIND_RESOURCE = "resource"
KIND_COMM = "comm"


def cost_of(element: Attributed, default: float = 0.0) -> float:
    """Allocation cost of an element (non-negative number)."""
    value = element.attrs.get(COST, default)
    try:
        cost = float(value)
    except (TypeError, ValueError):
        raise ModelError(f"cost must be numeric, got {value!r}") from None
    if not 0 <= cost < math.inf:
        raise ModelError(
            f"cost must be finite and non-negative, got {cost!r}"
        )
    return cost


def is_comm(vertex: Vertex) -> bool:
    """True when ``vertex`` is a communication resource (bus, link)."""
    kind = vertex.attrs.get(KIND, KIND_RESOURCE)
    if kind not in (KIND_RESOURCE, KIND_COMM):
        raise ModelError(
            f"vertex {vertex.name!r}: kind must be "
            f"{KIND_RESOURCE!r} or {KIND_COMM!r}, got {kind!r}"
        )
    return kind == KIND_COMM


def is_negligible(vertex: Vertex) -> bool:
    """True when the process is excluded from utilisation estimates."""
    return bool(vertex.attrs.get(NEGLIGIBLE, False))


def period_of(element: Attributed) -> Optional[float]:
    """Activation period of an element, or ``None`` when unconstrained."""
    value = element.attrs.get(PERIOD)
    return None if value is None else check_period(value)


def check_period(value: object) -> float:
    """Validate an activation-period annotation."""
    try:
        period = float(value)
    except (TypeError, ValueError):
        raise ModelError(f"period must be numeric, got {value!r}") from None
    if not period > 0:
        raise ModelError(f"period must be positive, got {period!r}")
    return period


def reconfig_delay_of(cluster: Cluster) -> float:
    """Reconfiguration delay of a cluster (default 0)."""
    value = cluster.attrs.get(RECONFIG_DELAY, 0.0)
    try:
        delay = float(value)
    except (TypeError, ValueError):
        raise ModelError(
            f"cluster {cluster.name!r}: reconfig_delay must be numeric"
        ) from None
    if not delay >= 0:
        raise ModelError(
            f"cluster {cluster.name!r}: reconfig_delay must be non-negative"
        )
    return delay


Number = Union[int, float]


def check_latency(value: Number) -> float:
    """Validate a mapping-edge latency annotation."""
    try:
        latency = float(value)
    except (TypeError, ValueError):
        raise ModelError(f"latency must be numeric, got {value!r}") from None
    if not latency >= 0:
        raise ModelError(f"latency must be non-negative, got {latency!r}")
    return latency
