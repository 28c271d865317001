"""The shared transpose: one per graph, free for symmetric builds.

``CSRGraph.transpose`` must equal a freshly built ``reverse()`` array
for array on every construction path, be built at most once, be the
graph itself exactly when the graph was built symmetric, and never
keep a dropped graph alive past its last reference.
"""

import numpy as np
import pytest

from repro.cli import parse_graph_spec
from repro.graph.csr import CSRGraph
from repro.graph.delta import GraphDelta, apply_delta
from repro.graph.generators import (
    chain,
    chung_lu_power_law,
    complete,
    erdos_renyi,
    grid_2d,
    ring_lattice,
    rmat,
    star,
)
from repro.graph.io import load_edge_list, save_csr_binary, save_edge_list
from repro.graph.rearrange import rearrange_by_degree
from tests.service.test_registry_memory import cyclic_repro_garbage, gc_disabled


def _directed() -> CSRGraph:
    rng = np.random.default_rng(3)
    return CSRGraph.from_edges(rng.integers(0, 50, 300), rng.integers(0, 50, 300), 50)


def _mutated() -> CSRGraph:
    base = rmat(7, 8, seed=1)
    return apply_delta(
        base, GraphDelta(inserts=((0, 90), (4, 2)), deletes=((0, int(base.neighbors(0)[0])),))
    )


def _csr_file(tmp_path) -> CSRGraph:
    path = tmp_path / "g.csrbin"
    save_csr_binary(rmat(7, 8, seed=4), path)
    return parse_graph_spec(f"file:{path}")


def _edge_list(tmp_path, symmetrize: bool) -> CSRGraph:
    path = tmp_path / "g.txt"
    save_edge_list(_directed(), path)
    return load_edge_list(path, 50, symmetrize=symmetrize)


#: name -> (builder taking tmp_path, built with symmetrize=True)
BUILDS = {
    "rmat": (lambda p: rmat(8, 8, seed=2), True),
    "rmat_directed": (lambda p: rmat(8, 8, seed=2, symmetrize=False), False),
    "erdos_renyi": (lambda p: erdos_renyi(60, 4.0, seed=1), True),
    "chung_lu": (lambda p: chung_lu_power_law(80, 6.0, seed=1), True),
    "ring": (lambda p: ring_lattice(30, 4), True),
    "grid": (lambda p: grid_2d(5, 7), True),
    "star": (lambda p: star(20), True),
    "chain": (lambda p: chain(12), True),
    "complete": (lambda p: complete(9), False),
    "directed_from_edges": (lambda p: _directed(), False),
    "symmetrized_from_edges": (
        lambda p: CSRGraph.from_edges([0, 0, 2, 3, 3], [0, 1, 2, 1, 1], 5, symmetrize=True),
        True,
    ),
    "apply_delta": (lambda p: _mutated(), False),
    "rearranged": (lambda p: rearrange_by_degree(rmat(8, 8, seed=2)), False),
    # Swaps the two edges of each inner vertex of the chain.
    "with_adjacency_order": (
        lambda p: chain(6).with_adjacency_order(np.array([0, 2, 1, 4, 3, 6, 5, 8, 7, 9])),
        False,
    ),
    "file_csr": (_csr_file, False),
    "file_edge_list": (lambda p: _edge_list(p, False), False),
    "file_edge_list_symmetrized": (lambda p: _edge_list(p, True), True),
    "subgraph_mask": (
        lambda p: rmat(8, 8, seed=2).subgraph_mask(np.arange(256) % 3 != 0), False
    ),
    "empty": (lambda p: CSRGraph.empty(7), False),
    "one_vertex": (lambda p: CSRGraph.empty(1), False),
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_transpose_equals_reverse(name, tmp_path):
    build, _ = BUILDS[name]
    graph = build(tmp_path)
    rev = graph.reverse()
    t = graph.transpose
    assert np.array_equal(t.row_offsets, rev.row_offsets)
    assert np.array_equal(t.col_indices, rev.col_indices)
    assert t.col_indices.dtype == rev.col_indices.dtype


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_transpose_is_built_once(name, tmp_path):
    graph = BUILDS[name][0](tmp_path)
    assert graph.transpose is graph.transpose


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_transpose_is_self_only_for_symmetrized_builds(name, tmp_path):
    build, symmetrized = BUILDS[name]
    graph = build(tmp_path)
    assert graph.is_symmetric is symmetrized
    assert (graph.transpose is graph) is symmetrized
    # The flag is never a self-reference in the cache.
    assert all(v is not graph for v in graph._cache.values())


def test_symmetric_content_without_the_flag_gets_a_copy():
    """``complete`` is symmetric in content but built directed: the flag
    records how a graph was built, not what it holds."""
    graph = complete(6)
    assert not graph.is_symmetric
    assert graph.transpose is not graph
    assert graph.transpose == graph


def test_transpose_of_transpose_round_trips():
    graph = _directed()
    assert graph.transpose.transpose == graph


def test_dropped_directed_graph_leaves_no_cyclic_garbage():
    with gc_disabled():
        graph = _directed()
        t = graph.transpose
        assert t is not graph and "transpose" in graph._cache
        del graph, t
        assert cyclic_repro_garbage() == []


def test_dropped_symmetric_graph_leaves_no_cyclic_garbage():
    with gc_disabled():
        graph = rmat(7, 8, seed=3)
        assert graph.transpose is graph
        del graph
        assert cyclic_repro_garbage() == []
