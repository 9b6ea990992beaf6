"""Golden regression tests against the paper's published artefacts.

``tests/golden/`` snapshots the reproduction's paper-facing outputs —
the Fig. 3 flexibility values, the Fig. 4 / Table-of-results Pareto
fronts of both case studies (with exact allocations, clusters and
exploration statistics), and the Table 1 mapping counts.  These tests
compare plain runs and budgeted, checkpointed runs against the
snapshots, so any drift in the core loop, the budget and checkpoint
handling, or the model constants is caught against a fixed reference
rather than only against each other.
"""

import json
from pathlib import Path

import pytest

from repro.casestudies import (
    build_settop_problem,
    build_settop_spec,
    build_tv_decoder_spec,
)
from repro.core import explore, flexibility, max_flexibility
from repro.hgraph import HierarchyIndex

from .routes import routes

GOLDEN = Path(__file__).parent / "golden"

#: ``None`` runs plainly; a cadence runs every budget and checkpoint
#: route (:func:`tests.routes.routes`) at it.
CADENCES = [None, 1, 5, 32]


def _cadence_id(every):
    return "serial" if every is None else str(every)


def load(name):
    with open(GOLDEN / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


def result_doc(result, spec):
    """The same shape the fixtures were generated with."""
    return {
        "spec": spec.name,
        "max_flexibility_bound": result.max_flexibility_bound,
        "points": [
            {
                "units": sorted(p.units),
                "cost": p.cost,
                "flexibility": p.flexibility,
                "clusters": sorted(p.clusters),
            }
            for p in result.points
        ],
        "stats": {
            k: v
            for k, v in result.stats.as_dict().items()
            if k != "elapsed_seconds"
        },
    }


def assert_golden(spec, every, tmp_path, name):
    """The plain run equals the fixture; every route equals it except
    for ``checkpoints_written``."""
    golden = load(name)
    if every is None:
        assert result_doc(explore(spec), spec) == golden
        return
    golden["stats"].pop("checkpoints_written")
    for route_name, route in routes(tmp_path, every):
        observed = result_doc(explore(spec, **route), spec)
        observed["stats"].pop("checkpoints_written")
        assert observed == golden, route_name


@pytest.mark.parametrize("every", CADENCES, ids=_cadence_id)
def test_golden_settop_front(every, tmp_path):
    """The Fig. 4 six-point front, allocation for allocation."""
    assert_golden(build_settop_spec(), every, tmp_path, "settop_front.json")


@pytest.mark.parametrize("every", CADENCES, ids=_cadence_id)
def test_golden_tv_decoder_front(every, tmp_path):
    assert_golden(
        build_tv_decoder_spec(), every, tmp_path, "tv_decoder_front.json"
    )


def test_golden_settop_front_matches_paper_numbers():
    """The snapshot itself carries the published (cost, flexibility)
    pairs — guards the fixture against silent regeneration drift."""
    golden = load("settop_front.json")
    published = [
        (100.0, 2.0),
        (120.0, 3.0),
        (230.0, 4.0),
        (290.0, 5.0),
        (360.0, 7.0),
        (430.0, 8.0),
    ]
    observed = [(p["cost"], p["flexibility"]) for p in golden["points"]]
    assert observed == published
    assert golden["max_flexibility_bound"] == 8.0


def test_golden_fig3_flexibility_values():
    """Fig. 3: f(G_P)=8, f without the game cluster = 5, and the
    published per-application expansion f = 1 + 3 + 4."""
    golden = load("fig3_flexibility.json")
    problem = build_settop_problem()
    assert max_flexibility(problem) == golden["max_flexibility"] == 8.0
    without_game = flexibility(
        problem,
        active={
            "gamma_I",
            "gamma_D",
            "gamma_D1",
            "gamma_D2",
            "gamma_D3",
            "gamma_U1",
            "gamma_U2",
        },
        weighted=False,
        strict=False,
    )
    assert without_game == golden["without_game"] == 5.0
    index = HierarchyIndex(problem)
    for cluster, expected in golden["per_application_terms"].items():
        assert flexibility(index.cluster(cluster)) == expected


def test_golden_table1_mapping_counts():
    """Table 1: per-process and per-resource mapping-edge counts."""
    golden = load("table1_counts.json")
    spec = build_settop_spec()
    rows, cols = {}, {}
    for edge in spec.mappings:
        rows[edge.process] = rows.get(edge.process, 0) + 1
        unit = spec.units.unit_of_leaf[edge.resource]
        cols[unit] = cols.get(unit, 0) + 1
    assert len(spec.mappings) == golden["total_mappings"]
    assert rows == golden["per_process"]
    assert cols == golden["per_resource_unit"]


def test_golden_table1_matches_paper_shape():
    """15 process rows; muP1/muP2 map 10 processes each (Table 1)."""
    golden = load("table1_counts.json")
    assert len(golden["per_process"]) == 15
    assert golden["per_resource_unit"]["muP1"] == 10
    assert golden["per_resource_unit"]["muP2"] == 10
