"""Tests of front diffing and specification merging."""

import pytest

from repro.analysis import (
    diff_fronts,
    diff_table,
    merge_specifications,
    shared_platform_saving,
    summarize_diff,
    with_unit_costs,
)
from repro.casestudies import build_settop_spec
from repro.core import explore, max_flexibility
from repro.errors import ModelError
from repro.hgraph import new_cluster
from repro.spec import ArchitectureGraph, ProblemGraph, SpecificationGraph


def small_product(tag, proc_cost=100.0, extra_alt=False):
    """A tiny single-product spec with unique, tagged names."""
    problem = ProblemGraph(f"P_{tag}")
    interface = problem.add_interface(f"I_{tag}")
    alternatives = [f"g_{tag}_0", f"g_{tag}_1"]
    if extra_alt:
        alternatives.append(f"g_{tag}_2")
    for i, name in enumerate(alternatives):
        alt = new_cluster(interface, name)
        alt.add_vertex(f"p_{tag}_{i}")
    arch = ArchitectureGraph(f"A_{tag}")
    arch.add_resource(f"cpu_{tag}", cost=proc_cost)
    spec = SpecificationGraph(problem, arch, name=f"S_{tag}")
    for i in range(len(alternatives)):
        spec.map(f"p_{tag}_{i}", f"cpu_{tag}", 10.0 + i)
    return spec.freeze()


class TestDiffFronts:
    def test_cheaper_and_dearer(self):
        baseline = [(100.0, 2.0), (200.0, 5.0)]
        variant = [(80.0, 2.0), (250.0, 5.0)]
        changes = {c.flexibility: c for c in diff_fronts(baseline, variant)}
        assert changes[2.0].verdict == "cheaper"
        assert changes[2.0].delta == -20.0
        assert changes[5.0].verdict == "dearer"

    def test_appeared_disappeared(self):
        baseline = [(100.0, 2.0)]
        variant = [(100.0, 2.0), (300.0, 7.0)]
        changes = {c.flexibility: c for c in diff_fronts(baseline, variant)}
        assert changes[7.0].verdict == "appeared"
        back = {c.flexibility: c for c in diff_fronts(variant, baseline)}
        assert back[7.0].verdict == "disappeared"

    def test_same(self):
        front = [(100.0, 2.0)]
        assert all(
            c.verdict == "same" for c in diff_fronts(front, front)
        )

    def test_diff_on_real_scenario(self):
        """FPGA price hike: the D3-dependent levels get dearer."""
        spec = build_settop_spec()
        variant = with_unit_costs(spec, {"D3": 120.0})
        changes = diff_fronts(
            explore(spec).front(), explore(variant).front()
        )
        by_level = {c.flexibility: c for c in changes}
        assert by_level[8.0].verdict == "dearer"
        assert by_level[8.0].delta == 60.0
        assert by_level[2.0].verdict == "same"
        histogram = summarize_diff(changes)
        assert histogram["dearer"] >= 2

    def test_diff_table_renders(self):
        text = diff_table(
            diff_fronts([(100.0, 2.0)], [(90.0, 2.0), (200.0, 4.0)])
        )
        assert "cheaper" in text and "appeared" in text


class TestMerge:
    def test_merged_structure(self):
        merged = merge_specifications(
            small_product("a"), small_product("b"), name="family"
        )
        assert merged.name == "family"
        assert {"I_a", "I_b"} <= set(merged.p_index.interfaces)
        assert {"cpu_a", "cpu_b"} <= set(merged.units.names())
        assert len(merged.mappings) == 4

    def test_flexibility_additive_minus_one(self):
        a = small_product("a")
        b = small_product("b", extra_alt=True)
        merged = merge_specifications(a, b)
        assert max_flexibility(merged.problem) == (
            max_flexibility(a.problem) + max_flexibility(b.problem) - 1
        )

    def test_rule4_requires_both_products(self):
        from repro.spec import supports_problem

        merged = merge_specifications(small_product("a"), small_product("b"))
        assert not supports_problem(merged, {"cpu_a"})
        assert supports_problem(merged, {"cpu_a", "cpu_b"})

    def test_name_collision_rejected(self):
        with pytest.raises(ModelError):
            merge_specifications(small_product("a"), small_product("a"))

    def test_merged_front(self):
        merged = merge_specifications(
            small_product("a", proc_cost=100.0),
            small_product("b", proc_cost=60.0),
        )
        result = explore(merged)
        # both processors are mandatory -> single point at 160
        assert result.front() == [(160.0, 3.0)]

    def test_shared_platform_saving_zero_without_sharing(self):
        """Disjoint resources: the merge saves nothing."""
        separate, merged_cost, saving = shared_platform_saving(
            small_product("a"), small_product("b")
        )
        assert separate == merged_cost
        assert saving == 0.0

    def test_shared_platform_saving_positive_with_sharing(self):
        """Both products can share one processor when the second
        product's processes also map onto it."""
        a = small_product("a")
        # product b's processes can ALSO run on cpu_a
        problem = ProblemGraph("P_b")
        interface = problem.add_interface("I_b")
        for i in range(2):
            alt = new_cluster(interface, f"g_b_{i}")
            alt.add_vertex(f"p_b_{i}")
        arch = ArchitectureGraph("A_b")
        arch.add_resource("cpu_b", cost=60.0)
        b = SpecificationGraph(problem, arch, name="S_b")
        for i in range(2):
            b.map(f"p_b_{i}", "cpu_b", 10.0)
        b.freeze()
        merged = merge_specifications(a, b)
        # add cross-mappings by rebuilding at document level
        from repro.io import spec_from_dict, spec_to_dict

        doc = spec_to_dict(merged)
        doc["mappings"].extend(
            {"process": f"p_b_{i}", "resource": "cpu_a",
             "latency": 12.0, "attrs": {}}
            for i in range(2)
        )
        shared = spec_from_dict(doc)
        result = explore(shared)
        # cpu_a alone now hosts everything: cheaper than 160
        assert result.front()[0] == (100.0, 3.0)

