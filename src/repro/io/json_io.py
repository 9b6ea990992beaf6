"""JSON serialisation of specification graphs.

Round-trips the complete model — both hierarchies with attributes,
ports and port mappings, plus the mapping table — so specifications can
be versioned, shared and loaded without Python code.  The format is a
single JSON document with a ``format`` tag for forward compatibility.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, Optional, Tuple

from ..errors import SerializationError
from ..hgraph import GraphScope, Interface, new_cluster
from ..spec import ArchitectureGraph, ProblemGraph, SpecificationGraph

#: Document format identifier.
FORMAT = "repro/specification-graph"
#: Current document version.
VERSION = 1


def _scope_to_dict(scope: GraphScope) -> Dict[str, Any]:
    return {
        "name": scope.name,
        "attrs": dict(scope.attrs),
        "vertices": [
            {"name": v.name, "attrs": dict(v.attrs)}
            for v in scope.vertices.values()
        ],
        "interfaces": [
            _interface_to_dict(i) for i in scope.interfaces.values()
        ],
        "edges": [
            {
                "src": e.src,
                "dst": e.dst,
                "src_port": e.src_port,
                "dst_port": e.dst_port,
                "attrs": dict(e.attrs),
            }
            for e in scope.edges
        ],
    }


def _interface_to_dict(interface: Interface) -> Dict[str, Any]:
    return {
        "name": interface.name,
        "attrs": dict(interface.attrs),
        "ports": [
            {"name": p.name, "direction": p.direction}
            for p in interface.ports.values()
        ],
        "clusters": [
            dict(_scope_to_dict(c), port_map=dict(c.port_map))
            for c in interface.clusters
        ],
    }


def _json_type(value: Any) -> str:
    """The JSON name of ``value``'s type, for error messages."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (list, tuple)):
        return "array"
    if isinstance(value, dict):
        return "object"
    return type(value).__name__


def _object(value: Any, where: str) -> Dict[str, Any]:
    """``value`` when it is a JSON object, else a typed error."""
    if not isinstance(value, dict):
        raise SerializationError(
            f"malformed {where}: expected a JSON object, got "
            f"{_json_type(value)}"
        )
    return value


def _attrs(document: Dict[str, Any], where: str, key: str = "attrs"):
    """The object ``document[key]`` (empty when absent)."""
    value = document.get(key, {})
    if not isinstance(value, dict):
        raise SerializationError(
            f"malformed {where}: {key!r} must be a JSON object, got "
            f"{_json_type(value)}"
        )
    return value


def _name(
    document: Dict[str, Any], key: str, where: str, optional: bool = False
) -> Optional[str]:
    """The name ``document[key]``: a string (or, when ``optional``,
    absent or null), else a typed error naming the field."""
    value = document.get(key) if optional else document[key]
    if not isinstance(value, str) and not (optional and value is None):
        raise SerializationError(
            f"malformed {where}: {key!r} must be a string, got "
            f"{_json_type(value)}"
        )
    return value


def _entries(
    document: Dict[str, Any], key: str, where: str
) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """``(location, entry)`` for each object of the array
    ``document[key]`` (none when absent)."""
    value = document.get(key, ())
    if not isinstance(value, (list, tuple)):
        raise SerializationError(
            f"malformed {where}: {key!r} must be a JSON array, got "
            f"{_json_type(value)}"
        )
    for index, entry in enumerate(value):
        location = f"{where} {key}[{index}]"
        yield location, _object(entry, location)


def _fill_scope(scope: GraphScope, document: Dict[str, Any]) -> None:
    where = f"scope {document.get('name')!r}"
    try:
        for at, vertex in _entries(document, "vertices", where):
            scope.add_vertex(_name(vertex, "name", at), **_attrs(vertex, at))
        for at, interface_doc in _entries(document, "interfaces", where):
            interface = scope.add_interface(
                _name(interface_doc, "name", at), **_attrs(interface_doc, at)
            )
            for pat, port in _entries(interface_doc, "ports", at):
                interface.add_port(
                    _name(port, "name", pat), port.get("direction", "inout")
                )
            for cat, cluster_doc in _entries(interface_doc, "clusters", at):
                cluster = new_cluster(
                    interface,
                    _name(cluster_doc, "name", cat),
                    **_attrs(cluster_doc, cat),
                )
                _fill_scope(cluster, cluster_doc)
                port_map = _attrs(cluster_doc, cat, key="port_map")
                for port in port_map:
                    cluster.map_port(
                        port, _name(port_map, port, f"{cat} port_map")
                    )
        for at, edge in _entries(document, "edges", where):
            scope.add_edge(
                _name(edge, "src", at),
                _name(edge, "dst", at),
                _name(edge, "src_port", at, optional=True),
                _name(edge, "dst_port", at, optional=True),
                **_attrs(edge, at),
            )
    except KeyError as missing:
        raise SerializationError(
            f"malformed scope document {document.get('name')!r}: missing "
            f"key {missing}"
        ) from None


def spec_to_dict(spec: SpecificationGraph) -> Dict[str, Any]:
    """The JSON-ready dictionary form of a specification graph."""
    return {
        "format": FORMAT,
        "version": VERSION,
        "name": spec.name,
        "attrs": dict(spec.attrs),
        "problem": _scope_to_dict(spec.problem),
        "architecture": _scope_to_dict(spec.architecture),
        "mappings": [
            {
                "process": e.process,
                "resource": e.resource,
                "latency": e.latency,
                "attrs": dict(e.attrs),
            }
            for e in spec.mappings
        ],
    }


def spec_from_dict(document: Dict[str, Any]) -> SpecificationGraph:
    """Rebuild (and freeze) a specification from its dictionary form.

    A document of the wrong shape — a section of the wrong JSON type,
    a missing key — raises :class:`SerializationError` naming the
    field.
    """
    _object(document, "specification document")
    if document.get("format") != FORMAT:
        raise SerializationError(
            f"not a specification-graph document: format="
            f"{document.get('format')!r}"
        )
    if document.get("version") != VERSION:
        raise SerializationError(
            f"unsupported document version {document.get('version')!r}"
        )
    where = "specification document"
    try:
        scopes = []
        for graph, key in (
            (ProblemGraph, "problem"),
            (ArchitectureGraph, "architecture"),
        ):
            scope_doc = _object(document[key], f"{where} {key!r}")
            scope = graph(_name(scope_doc, "name", f"{where} {key!r}"))
            scope.attrs.update(_attrs(scope_doc, f"{where} {key!r}"))
            _fill_scope(scope, scope_doc)
            scopes.append(scope)
        spec = SpecificationGraph(
            *scopes,
            name=_name(document, "name", where) if "name" in document
            else "G_S",
            attrs=_attrs(document, where),
        )
        for at, mapping in _entries(document, "mappings", where):
            spec.map(
                _name(mapping, "process", at),
                _name(mapping, "resource", at),
                mapping["latency"],
                **_attrs(mapping, at),
            )
    except KeyError as missing:
        raise SerializationError(
            f"malformed specification document: missing key {missing}"
        ) from None
    return spec.freeze()


def dump_spec(spec: SpecificationGraph, path: str, indent: int = 2) -> None:
    """Write a specification graph to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spec_to_dict(spec), handle, indent=indent, sort_keys=True)


def load_spec(path: str) -> SpecificationGraph:
    """Load (and freeze) a specification graph from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as error:
            raise SerializationError(f"invalid JSON in {path!r}: {error}") from None
    return spec_from_dict(document)


def dumps_spec(spec: SpecificationGraph) -> str:
    """The JSON text of a specification graph."""
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True)


def loads_spec(text: str) -> SpecificationGraph:
    """Parse a specification graph from JSON text."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise SerializationError(f"invalid JSON: {error}") from None
    return spec_from_dict(document)
