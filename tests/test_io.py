"""Tests of JSON round-trip and DOT export."""

import io
import json
import re

import pytest

from repro.casestudies import (
    build_settop_spec,
    build_tv_decoder_spec,
    synthetic_spec,
)
from repro.cli import EXIT_ERROR, main
from repro.core import explore
from repro.errors import SerializationError
from repro.io import (
    dump_spec,
    dumps_spec,
    hierarchy_to_dot,
    load_spec,
    loads_spec,
    spec_from_dict,
    spec_to_dict,
    spec_to_dot,
)
from repro.spec import bindable_leaves


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "builder",
        [build_tv_decoder_spec, build_settop_spec, synthetic_spec],
        ids=["tv", "settop", "synthetic"],
    )
    def test_roundtrip_preserves_structure(self, builder):
        original = builder()
        restored = loads_spec(dumps_spec(original))
        assert restored.name == original.name
        assert set(restored.units.names()) == set(original.units.names())
        assert len(restored.mappings) == len(original.mappings)
        assert sorted(restored.p_index.clusters) == sorted(
            original.p_index.clusters
        )
        for unit in original.units:
            assert restored.units.unit(unit.name).cost == unit.cost

    def test_roundtrip_preserves_semantics(self):
        """The restored spec explores to the identical Pareto front."""
        original = build_settop_spec()
        restored = loads_spec(dumps_spec(original))
        assert explore(restored).front() == explore(original).front()

    def test_roundtrip_preserves_reduction(self):
        original = build_tv_decoder_spec()
        restored = loads_spec(dumps_spec(original))
        assert bindable_leaves(restored, {"muP"}) == bindable_leaves(
            original, {"muP"}
        )

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "spec.json"
        dump_spec(build_tv_decoder_spec(), str(path))
        restored = load_spec(str(path))
        assert restored.frozen
        assert set(restored.units.names()) == {
            "muP", "A", "C1", "C2", "D3", "U1", "U2",
        }

    def test_document_is_stable_json(self):
        doc1 = dumps_spec(build_tv_decoder_spec())
        doc2 = dumps_spec(build_tv_decoder_spec())
        assert doc1 == doc2
        json.loads(doc1)  # valid JSON

    def test_bad_format_rejected(self):
        with pytest.raises(SerializationError):
            spec_from_dict({"format": "something-else", "version": 1})

    def test_bad_version_rejected(self):
        doc = spec_to_dict(build_tv_decoder_spec())
        doc["version"] = 99
        with pytest.raises(SerializationError):
            spec_from_dict(doc)

    def test_missing_key_reported(self):
        doc = spec_to_dict(build_tv_decoder_spec())
        del doc["problem"]["name"]
        with pytest.raises(SerializationError):
            spec_from_dict(doc)

    def test_invalid_json_text(self):
        with pytest.raises(SerializationError):
            loads_spec("{not json")

    def test_port_maps_roundtrip(self):
        original = build_settop_spec()
        restored = loads_spec(dumps_spec(original))
        cluster = restored.p_index.cluster("gamma_D1")
        assert cluster.port_map == {"din": "P_D1", "dout": "P_D1"}


def _scopes(scope_doc):
    """A scope document and all its nested cluster documents."""
    yield scope_doc
    for interface in scope_doc["interfaces"]:
        for cluster in interface["clusters"]:
            yield from _scopes(cluster)


def _set_first_edge_attrs(doc, value):
    scope = next(s for s in _scopes(doc["problem"]) if s["edges"])
    scope["edges"][0]["attrs"] = value


#: ``(mutation of a valid document, field the error must name)``: each
#: used to crash ``spec_from_dict`` with an untyped exception.
MALFORMED = {
    "problem-null": (lambda d: d.update(problem=None), "'problem'"),
    "top-level-list": (lambda d: [d], "expected a JSON object"),
    "attrs-number": (lambda d: d.update(attrs=5), "'attrs'"),
    "attrs-string": (lambda d: d.update(attrs="x"), "'attrs'"),
    "mappings-number": (lambda d: d.update(mappings=5), "'mappings'"),
    "vertices-number": (
        lambda d: d["problem"].update(vertices=5), "'vertices'"
    ),
    "edge-attrs-array": (
        lambda d: _set_first_edge_attrs(d, [1]), "edges[0]: 'attrs'"
    ),
    "mapping-null": (lambda d: d["mappings"].append(None), "mappings["),
}

#: A list where a name is expected: each used to crash with
#: ``TypeError: unhashable type: 'list'``.
LIST_NAMES = {
    "arch-vertex-name": (
        lambda d: d["architecture"]["vertices"][0].update(name=["x"]),
        "vertices[0]: 'name' must be a string",
    ),
    "port-name": (
        lambda d: d["problem"]["interfaces"][0]["ports"][0].update(
            name=["x"]
        ),
        "ports[0]: 'name' must be a string",
    ),
    "port-map-value": (
        lambda d: d["problem"]["interfaces"][0]["clusters"][0][
            "port_map"
        ].update(din=["x"]),
        "port_map: 'din' must be a string",
    ),
    "mapping-resource": (
        lambda d: d["mappings"][0].update(resource=["x"]),
        "mappings[0]: 'resource' must be a string",
    ),
}
MALFORMED.update(LIST_NAMES)


class TestMalformedShapes:
    """A document of the wrong shape is a typed error naming the
    field, never a TypeError/AttributeError traceback."""

    @staticmethod
    def malformed(case):
        mutate, _field = MALFORMED[case]
        doc = spec_to_dict(build_tv_decoder_spec())
        replaced = mutate(doc)
        return doc if replaced is None else replaced

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_spec_from_dict(self, case):
        with pytest.raises(SerializationError, match=re.escape(
            MALFORMED[case][1]
        )):
            spec_from_dict(self.malformed(case))

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_loads_spec(self, case):
        with pytest.raises(SerializationError, match=re.escape(
            MALFORMED[case][1]
        )):
            loads_spec(json.dumps(self.malformed(case)))

    def test_cli_prints_a_typed_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(self.malformed("mapping-null")))
        code = main(["explore", str(path)], out=io.StringIO())
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: ")
        assert "Traceback" not in err


    @pytest.mark.parametrize("case", sorted(LIST_NAMES))
    def test_cli_rejects_a_list_name(self, case, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(self.malformed(case)))
        code = main(["explore", str(path)], out=io.StringIO())
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: ")
        assert LIST_NAMES[case][1] in err
        assert "Traceback" not in err


class TestDot:
    def test_hierarchy_dot_contains_clusters(self):
        spec = build_tv_decoder_spec()
        dot = hierarchy_to_dot(spec.problem)
        assert dot.startswith("digraph")
        assert '"cluster_I_D"' in dot
        assert '"gamma_D1"' not in dot or "cluster_gamma_D1" in dot
        assert '"P_D1"' in dot

    def test_spec_dot_contains_both_sides_and_mappings(self):
        spec = build_tv_decoder_spec()
        dot = spec_to_dot(spec)
        assert '"cluster_problem"' in dot
        assert '"cluster_architecture"' in dot
        assert '"p::P_U1" -> "a::muP"' in dot
        assert "style=dashed" in dot
        assert dot.count("->") >= len(spec.mappings)

    def test_dot_quotes_special_names(self):
        from repro.hgraph import HierarchicalGraph

        g = HierarchicalGraph('Weird"Name')
        g.add_vertex("a b")
        dot = hierarchy_to_dot(g, name='Weird"Name')
        assert '\\"' in dot
