"""Seeded random model builders for property-based tests.

Generates small but structurally diverse specification graphs:
hierarchies with nested interfaces, architectures with partial bus
connectivity, mapping tables with gaps, and timing annotations tight
enough that the utilisation test sometimes bites.  Sizes are bounded so
exhaustive search stays cheap (<= 8 allocatable units), which lets the
property tests compare EXPLORE against ground truth.
"""

from __future__ import annotations

import random
from typing import List

from repro.hgraph import new_cluster
from repro.spec import ArchitectureGraph, ProblemGraph, SpecificationGraph


def random_problem(rng: random.Random) -> ProblemGraph:
    """A random hierarchical problem graph (depth <= 2)."""
    problem = ProblemGraph(f"RP{rng.randrange(10**6)}")
    n_top_vertices = rng.randint(1, 2)
    for v in range(n_top_vertices):
        problem.add_vertex(
            f"top{v}", negligible=bool(v == 0 and rng.random() < 0.5)
        )
    previous = "top0"
    for i in range(rng.randint(1, 2)):
        interface = problem.add_interface(f"I{i}")
        interface.add_port("in", "in")
        interface.add_port("out", "out")
        for c in range(rng.randint(1, 3)):
            cluster = new_cluster(interface, f"c{i}_{c}")
            inner: List[str] = []
            for v in range(rng.randint(1, 2)):
                name = f"p{i}_{c}_{v}"
                cluster.add_vertex(name)
                inner.append(name)
            if len(inner) == 2:
                cluster.add_edge(inner[0], inner[1])
            cluster.map_port("in", inner[0])
            cluster.map_port("out", inner[-1])
            # occasionally nest another interface
            if rng.random() < 0.25:
                nested = cluster.add_interface(f"J{i}_{c}")
                for k in range(rng.randint(1, 2)):
                    alt = new_cluster(nested, f"n{i}_{c}_{k}")
                    alt.add_vertex(f"q{i}_{c}_{k}")
                cluster.add_edge(inner[-1], f"J{i}_{c}")
        problem.add_edge(
            previous,
            f"I{i}",
            src_port="out" if previous.startswith("I") else None,
            dst_port="in",
        )
        previous = f"I{i}"
    if rng.random() < 0.6:
        problem.attrs["period"] = float(rng.choice((150, 250, 400)))
    return problem


def random_architecture(rng: random.Random) -> ArchitectureGraph:
    """A random platform: 1-2 processors, 0-2 accelerators, random buses."""
    arch = ArchitectureGraph(f"RA{rng.randrange(10**6)}")
    n_procs = rng.randint(1, 2)
    n_accels = rng.randint(0, 2)
    for p in range(n_procs):
        arch.add_resource(f"proc{p}", cost=float(rng.randint(4, 12) * 10))
    for a in range(n_accels):
        arch.add_resource(f"acc{a}", cost=float(rng.randint(2, 8) * 10))
    bus_id = 0
    nodes = [f"proc{p}" for p in range(n_procs)] + [
        f"acc{a}" for a in range(n_accels)
    ]
    for i, first in enumerate(nodes):
        for second in nodes[i + 1:]:
            if rng.random() < 0.6:
                arch.add_bus(
                    f"bus{bus_id}",
                    float(rng.randint(1, 4) * 5),
                    first,
                    second,
                )
                bus_id += 1
    return arch


def random_spec(seed: int) -> SpecificationGraph:
    """A complete random specification (deterministic per seed).

    Guarantees structural validity (freeze succeeds) but deliberately
    NOT semantic niceness: processes may be unmappable, clusters dead,
    allocations infeasible — the properties under test must hold anyway.
    """
    rng = random.Random(seed)
    problem = random_problem(rng)
    arch = random_architecture(rng)
    spec = SpecificationGraph(problem, arch, name=f"RS{seed}")
    procs = [v for v in arch.vertices if v.startswith("proc")]
    accels = [v for v in arch.vertices if v.startswith("acc")]

    from repro.hgraph import leaves

    for leaf in leaves(problem):
        mapped = False
        for proc in procs:
            if rng.random() < 0.9:
                spec.map(leaf, proc, float(rng.randint(2, 22) * 10))
                mapped = True
        for accel in accels:
            if rng.random() < 0.4:
                spec.map(leaf, accel, float(rng.randint(1, 6) * 10))
                mapped = True
        if not mapped and rng.random() < 0.8:
            # usually rescue the leaf so explorations are non-trivial
            spec.map(leaf, procs[0], float(rng.randint(2, 22) * 10))
    return spec.freeze()


def random_bridged_spec(seed: int) -> SpecificationGraph:
    """A random specification whose buses bridge to other buses.

    2-4 processors plus 2-6 buses; each bus attaches to one to three
    nodes declared before it, processors or earlier buses, so
    communication components span several buses and a component's
    neighbourhood is only reached over multi-hop comm paths.
    """
    rng = random.Random(f"bridged:{seed}")
    problem = random_problem(rng)
    arch = ArchitectureGraph(f"BA{seed}")
    procs = [f"proc{p}" for p in range(rng.randint(2, 4))]
    for proc in procs:
        arch.add_resource(proc, cost=float(rng.randint(4, 12) * 10))
    nodes = list(procs)
    for b in range(rng.randint(2, 6)):
        bus = f"bus{b}"
        attached = rng.sample(nodes, rng.randint(1, min(3, len(nodes))))
        arch.add_bus(bus, float(rng.randint(1, 4) * 5), *attached)
        nodes.append(bus)
    spec = SpecificationGraph(problem, arch, name=f"BS{seed}")

    from repro.hgraph import leaves

    for leaf in leaves(problem):
        for proc in rng.sample(procs, rng.randint(1, len(procs))):
            spec.map(leaf, proc, float(rng.randint(2, 22) * 10))
    return spec.freeze()
