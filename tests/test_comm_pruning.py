"""Useless-communication pruning across bridged (bus-to-bus) platforms.

The rule drops an allocation when some connected component of its
usable communication nodes touches fewer than two usable functional
nodes.  The randspec corpus and the case studies never put two buses
next to each other, so every component there is a single bus.  Here
each bus may attach to earlier buses, so components span several
buses and the compiled kernels must grow them over multi-hop paths:

* the scalar compiled verdict equals the reference
  :func:`~repro.core.candidates.has_useless_comm` for every allocation
  mask (stdlib only: runs with numpy absent too);
* the block kernel's fixpoint (and every other block check) equals
  the scalar kernel row for row;
* compiled and reference ``explore`` result documents are equal,
  ``pruned_comm`` included.
"""

import pytest

from .randspec import random_bridged_spec
from .test_batch_kernel import _assert_kernel_matches_scalar, requires_numpy
from .test_monotonicity import comparable
from repro.compiled import compiled_spec_for
from repro.core import explore
from repro.core.candidates import has_useless_comm

SEEDS = list(range(40))


def _longest_bus_chain(spec):
    """Buses on the longest shortest path that runs over buses alone."""
    adjacency = spec.architecture_adjacency()
    buses = {v.name for v in spec.architecture.comm_vertices()}
    longest = 0
    for start in buses:
        depth = {start: 1}
        frontier = [start]
        while frontier:
            node = frontier.pop(0)
            for other in adjacency.get(node, ()):
                if other in buses and other not in depth:
                    depth[other] = depth[node] + 1
                    frontier.append(other)
        longest = max(longest, *depth.values())
    return longest


def test_corpus_needs_multi_hop_growth():
    """Most specs join buses into one component, and some chain three
    or more, so the block fixpoint takes several growth rounds."""
    chains = [_longest_bus_chain(random_bridged_spec(s)) for s in SEEDS]
    assert max(chains) >= 3
    assert sum(chain >= 2 for chain in chains) >= len(SEEDS) // 2


@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_verdict_matches_reference(seed):
    spec = random_bridged_spec(seed)
    cspec = compiled_spec_for(spec)
    for mask in range(1 << cspec.unit_count):
        units = cspec.names_of(mask)
        assert cspec.comm_pruned(mask) == has_useless_comm(spec, units), (
            seed,
            sorted(units),
        )


@requires_numpy
@pytest.mark.parametrize("seed", SEEDS)
def test_block_checks_match_scalar(seed):
    _assert_kernel_matches_scalar(random_bridged_spec(seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_explore_matches_reference(seed):
    spec = random_bridged_spec(seed)
    compiled = comparable(explore(spec, engine="compiled"))
    reference = comparable(explore(spec, engine="reference"))
    assert compiled == reference
