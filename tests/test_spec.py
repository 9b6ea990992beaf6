"""Unit tests for the specification-graph package."""

import pytest

from repro.errors import ModelError, ReproError, ValidationError
from repro.hgraph import new_cluster
from repro.spec import (
    ArchitectureGraph,
    MappingTable,
    ProblemGraph,
    SpecificationGraph,
    UnitCatalog,
    activatable_clusters,
    bindable_leaves,
    check_latency,
    cost_of,
    is_comm,
    is_negligible,
    make_specification,
    period_of,
    reconfig_delay_of,
    supports_problem,
    surviving_mappings,
    usable_units,
)
from repro.casestudies import build_settop_spec, build_tv_decoder_spec
from repro.core import explore
from repro.io import spec_from_dict, spec_to_dict

NAN = float("nan")
INF = float("inf")


class TestAttributes:
    def test_cost_of(self):
        arch = ArchitectureGraph()
        v = arch.add_resource("r", cost=10)
        assert cost_of(v) == 10.0

    def test_cost_negative_rejected(self):
        arch = ArchitectureGraph()
        v = arch.add_vertex("r", cost=-1)
        with pytest.raises(ModelError):
            cost_of(v)

    def test_cost_non_numeric_rejected(self):
        arch = ArchitectureGraph()
        v = arch.add_vertex("r", cost="expensive")
        with pytest.raises(ModelError):
            cost_of(v)

    def test_is_comm(self):
        arch = ArchitectureGraph()
        r = arch.add_resource("r")
        b = arch.add_bus("b", 1.0)
        assert not is_comm(r)
        assert is_comm(b)

    def test_bad_kind_rejected(self):
        arch = ArchitectureGraph()
        v = arch.add_vertex("r", kind="quantum")
        with pytest.raises(ModelError):
            is_comm(v)

    def test_negligible(self):
        p = ProblemGraph()
        assert is_negligible(p.add_vertex("ctl", negligible=True))
        assert not is_negligible(p.add_vertex("work"))

    def test_period(self):
        p = ProblemGraph()
        i = p.add_interface("I")
        c = new_cluster(i, "g", period=240)
        assert period_of(c) == 240.0
        assert period_of(p.add_vertex("v")) is None

    def test_period_invalid(self):
        p = ProblemGraph()
        i = p.add_interface("I")
        c = new_cluster(i, "g", period=0)
        with pytest.raises(ModelError):
            period_of(c)

    @pytest.mark.parametrize("value", [NAN, INF, -INF])
    def test_cost_non_finite_rejected(self, value):
        v = ArchitectureGraph().add_vertex("r", cost=value)
        with pytest.raises(ModelError):
            cost_of(v)

    def test_nan_latency_period_and_delay_rejected(self):
        with pytest.raises(ModelError):
            check_latency(NAN)
        i = ProblemGraph().add_interface("I")
        with pytest.raises(ModelError):
            period_of(new_cluster(i, "g", period=NAN))
        with pytest.raises(ModelError):
            reconfig_delay_of(new_cluster(i, "h", reconfig_delay=NAN))


def _named(node, name):
    """The vertex or cluster dict called ``name`` in a scope document."""
    for child in node.get("vertices", []):
        if child["name"] == name:
            return child
    for interface in node.get("interfaces", []):
        for cluster in interface["clusters"]:
            if cluster["name"] == name:
                return cluster
            found = _named(cluster, name)
            if found is not None:
                return found
    return None


def _settop_unit_cost(value):
    def edit(document):
        _named(document["architecture"], "A1")["attrs"]["cost"] = value

    return edit


def _settop_latency(document):
    document["mappings"][0]["latency"] = NAN


def _settop_period(document):
    _named(document["problem"], "gamma_G")["attrs"]["period"] = NAN


class TestNonFiniteValuesThroughExplore:
    """A NaN or infinite value never reaches EXPLORE, whose cost order
    and front comparisons assume ordered numbers: loading or exploring
    the document raises a typed error on both engines."""

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    @pytest.mark.parametrize(
        "edit",
        [
            _settop_unit_cost(NAN),
            _settop_unit_cost(INF),
            _settop_unit_cost(-INF),
            _settop_latency,
            _settop_period,
        ],
        ids=["cost-nan", "cost-inf", "cost-minus-inf", "latency-nan",
             "period-nan"],
    )
    def test_rejected(self, engine, edit):
        document = spec_to_dict(build_settop_spec())
        edit(document)
        with pytest.raises(ReproError):
            explore(spec_from_dict(document), engine=engine)


class TestMappingTable:
    def test_add_and_lookup(self):
        t = MappingTable()
        t.add("p", "r", 10)
        assert t.latency("p", "r") == 10.0
        assert t.resources_of("p") == ("r",)
        assert [e.process for e in t.of_resource("r")] == ["p"]

    def test_duplicate_rejected(self):
        t = MappingTable()
        t.add("p", "r", 10)
        with pytest.raises(ModelError):
            t.add("p", "r", 12)

    def test_missing_latency_raises(self):
        t = MappingTable()
        with pytest.raises(ModelError):
            t.latency("p", "r")

    def test_negative_latency_rejected(self):
        t = MappingTable()
        with pytest.raises(ModelError):
            t.add("p", "r", -3)

    def test_len_iter(self):
        t = MappingTable()
        t.add("p", "r1", 1)
        t.add("p", "r2", 2)
        assert len(t) == 2
        assert {e.resource for e in t} == {"r1", "r2"}


class TestArchitectureGraph:
    def test_add_bus_connects_both_directions(self):
        arch = ArchitectureGraph()
        arch.add_resource("a")
        arch.add_resource("b")
        arch.add_bus("c", 5.0, "a", "b")
        pairs = {e.pair for e in arch.edges}
        assert ("c", "a") in pairs and ("a", "c") in pairs
        assert ("c", "b") in pairs and ("b", "c") in pairs

    def test_comm_vertices(self):
        spec = build_tv_decoder_spec()
        names = {v.name for v in spec.architecture.comm_vertices()}
        assert names == {"C1", "C2"}


class TestUnitCatalog:
    def test_tv_decoder_units(self):
        spec = build_tv_decoder_spec()
        catalog = spec.units
        assert set(catalog.names()) == {
            "muP", "A", "C1", "C2", "D3", "U1", "U2",
        }
        assert catalog.unit("muP").kind == "leaf"
        assert catalog.unit("D3").kind == "cluster"
        assert catalog.unit("D3").interface == "FPGA"
        assert catalog.unit("D3").top_node == "FPGA"
        assert catalog.unit("muP").top_node == "muP"
        assert catalog.unit("C1").comm
        assert not catalog.unit("D3").comm

    def test_unit_of_leaf(self):
        spec = build_tv_decoder_spec()
        assert spec.units.unit_of("D3_res").name == "D3"
        assert spec.units.unit_of("muP").name == "muP"
        with pytest.raises(ModelError):
            spec.units.unit_of("nope")

    def test_costs(self):
        spec = build_tv_decoder_spec()
        assert spec.units.unit("muP").cost == 100.0
        assert spec.units.unit("D3").cost == 30.0
        assert spec.units.total_cost(["muP", "C1", "D3"]) == 140.0

    def test_cluster_cost_defaults_to_leaf_sum(self):
        arch = ArchitectureGraph()
        i = arch.add_interface("I")
        c = new_cluster(i, "design")
        c.add_vertex("r1", cost=7)
        c.add_vertex("r2", cost=5)
        catalog = UnitCatalog(arch)
        assert catalog.unit("design").cost == 12.0

    def test_unknown_unit(self):
        spec = build_tv_decoder_spec()
        with pytest.raises(ModelError):
            spec.units.unit("nope")

    def test_functional_and_comm_split(self):
        spec = build_tv_decoder_spec()
        functional = {u.name for u in spec.units.functional_units()}
        comm = {u.name for u in spec.units.comm_units()}
        assert comm == {"C1", "C2"}
        assert functional == {"muP", "A", "D3", "U1", "U2"}


class TestSpecificationGraph:
    def test_freeze_validates_mapping_endpoints(self):
        p = ProblemGraph()
        p.add_vertex("proc")
        a = ArchitectureGraph()
        a.add_resource("res")
        spec = SpecificationGraph(p, a)
        spec.map("proc", "res", 1.0)
        spec.map("ghost", "res", 1.0)
        with pytest.raises(ValidationError):
            spec.freeze()

    def test_mapping_onto_bus_rejected(self):
        p = ProblemGraph()
        p.add_vertex("proc")
        a = ArchitectureGraph()
        a.add_resource("res")
        a.add_bus("bus", 1.0, "res")
        spec = SpecificationGraph(p, a)
        spec.map("proc", "bus", 1.0)
        with pytest.raises(ValidationError):
            spec.freeze()

    def test_map_after_freeze_rejected(self):
        spec = build_tv_decoder_spec()
        with pytest.raises(ModelError):
            spec.map("P_A", "A", 1.0)

    def test_use_before_freeze_rejected(self):
        p = ProblemGraph()
        p.add_vertex("proc")
        a = ArchitectureGraph()
        a.add_resource("res")
        spec = SpecificationGraph(p, a)
        with pytest.raises(ModelError):
            _ = spec.units

    def test_make_specification(self):
        p = ProblemGraph()
        p.add_vertex("proc")
        a = ArchitectureGraph()
        a.add_resource("res", cost=3)
        spec = make_specification(p, a, [("proc", "res", 2.0)])
        assert spec.frozen
        assert spec.mappings.latency("proc", "res") == 2.0

    def test_sizes(self):
        spec = build_tv_decoder_spec()
        # problem: 7 leaves + 2 interfaces + 5 clusters = 14
        # architecture: 4 top leaves + 3 design leaves + 1 interface + 3 clusters = 11
        assert spec.vs_size() == 25
        assert spec.design_space_size() == 2 ** 7
        assert spec.es_size() > 0


class TestReduce:
    def test_bindable_leaves_processor_only(self):
        spec = build_tv_decoder_spec()
        assert bindable_leaves(spec, {"muP"}) == {
            "P_A", "P_C", "P_D1", "P_U1",
        }

    def test_bindable_leaves_with_designs(self):
        spec = build_tv_decoder_spec()
        leaves = bindable_leaves(spec, {"muP", "D3", "U2"})
        assert leaves == {"P_A", "P_C", "P_D1", "P_D3", "P_U1", "P_U2"}

    def test_surviving_mappings(self):
        spec = build_tv_decoder_spec()
        survivors = surviving_mappings(spec, {"A"})
        assert {(e.process, e.resource) for e in survivors} == {
            ("P_D1", "A"), ("P_D2", "A"), ("P_U1", "A"), ("P_U2", "A"),
        }

    def test_supports_problem(self):
        spec = build_tv_decoder_spec()
        assert supports_problem(spec, {"muP"})
        assert supports_problem(spec, {"muP", "C1"})
        assert supports_problem(spec, set(spec.units.names()))
        # The ASIC alone cannot host the controller/authentication.
        assert not supports_problem(spec, {"A"})
        assert not supports_problem(spec, {"A", "C1", "C2"})
        assert not supports_problem(spec, set())

    def test_activatable_clusters(self):
        spec = build_tv_decoder_spec()
        assert activatable_clusters(spec, {"muP"}) == {
            "gamma_D1", "gamma_U1",
        }
        assert activatable_clusters(spec, {"muP", "A", "D3"}) == {
            "gamma_D1", "gamma_D2", "gamma_D3", "gamma_U1", "gamma_U2",
        }

    def test_usable_units_requires_ancestors(self):
        arch = ArchitectureGraph()
        top = arch.add_interface("Outer")
        outer = new_cluster(top, "outer_c", cost=1)
        outer.add_vertex("outer_leaf")
        inner_if = outer.add_interface("Inner")
        inner = new_cluster(inner_if, "inner_c", cost=1)
        inner.add_vertex("inner_leaf")
        p = ProblemGraph()
        p.add_vertex("proc")
        spec = make_specification(p, arch, [("proc", "inner_leaf", 1.0)])
        assert usable_units(spec, {"inner_c"}) == set()
        assert usable_units(spec, {"inner_c", "outer_c"}) == {
            "inner_c", "outer_c",
        }
        assert not supports_problem(spec, {"inner_c"})
        assert supports_problem(spec, {"inner_c", "outer_c"})
