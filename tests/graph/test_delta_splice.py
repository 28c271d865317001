"""Differential wall: the CSR splice (:func:`apply_delta`) against the
from-scratch rebuild (:func:`apply_delta_reference`), bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.delta import GraphDelta, apply_delta, apply_delta_reference
from repro.graph.generators import rmat


def assert_bit_identical(got: CSRGraph, want: CSRGraph) -> None:
    assert got.row_offsets.dtype == want.row_offsets.dtype
    assert got.col_indices.dtype == want.col_indices.dtype
    assert np.array_equal(got.row_offsets, want.row_offsets)
    assert np.array_equal(got.col_indices, want.col_indices)
    assert got.name == want.name


def shuffled_rows(graph: CSRGraph, seed: int) -> CSRGraph:
    """``graph`` with every adjacency list permuted (non-canonical)."""
    rng = np.random.default_rng(seed)
    order = np.arange(graph.num_edges)
    offsets = graph.row_offsets
    for u in range(graph.num_vertices):
        lo, hi = offsets[u], offsets[u + 1]
        order[lo:hi] = rng.permutation(order[lo:hi])
    return graph.with_adjacency_order(order)


def check_splice(graph: CSRGraph, deltas) -> None:
    """Chain ``deltas`` through both paths, comparing every step, and
    check the inputs come out untouched and read-only."""
    spliced = reference = graph
    for delta in deltas:
        offsets = spliced.row_offsets.copy()
        cols = spliced.col_indices.copy()
        before = spliced
        spliced = apply_delta(spliced, delta)
        reference = apply_delta_reference(reference, delta)
        assert_bit_identical(spliced, reference)
        assert np.array_equal(before.row_offsets, offsets)
        assert np.array_equal(before.col_indices, cols)
        assert not before.row_offsets.flags.writeable
        assert not before.col_indices.flags.writeable
    assert not spliced.row_offsets.flags.writeable
    assert not spliced.col_indices.flags.writeable


@st.composite
def graphs_and_deltas(draw):
    """A small graph (parallel edges, self-loops, empty rows, edges on
    vertex 0 and n-1, maybe unsorted rows) and a chain of deltas whose
    sides mix existing and absent edges."""
    n = draw(st.integers(min_value=1, max_value=12))
    vertex = st.one_of(
        st.sampled_from([0, n - 1]), st.integers(min_value=0, max_value=n - 1)
    )
    pair = st.tuples(vertex, vertex)
    edges = draw(st.lists(pair, max_size=40))
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    graph = CSRGraph.from_edges(src, dst, n, name="g")
    if draw(st.booleans()):
        graph = shuffled_rows(graph, draw(st.integers(0, 2**16)))
    deltas = []
    current = set(edges)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        known = sorted(current) or [(0, 0)]
        candidates = st.one_of(st.sampled_from(known), pair)
        inserts = set(draw(st.lists(candidates, max_size=6)))
        deletes = set(draw(st.lists(candidates, max_size=4))) - inserts
        delta = GraphDelta(inserts=tuple(inserts), deletes=tuple(deletes))
        deltas.append(delta)
        current = (current - deletes) | inserts
    return graph, deltas


@given(graphs_and_deltas())
@settings(max_examples=200, deadline=None)
def test_splice_matches_reference(case):
    graph, deltas = case
    check_splice(graph, deltas)


# Named cases the random search must not be trusted to reach.
BASE = CSRGraph.from_edges(
    [0, 0, 0, 2, 2, 4, 4, 4, 5], [0, 3, 3, 1, 5, 4, 0, 5, 5], 6, name="base"
)

CASES = {
    "parallel delete drops every copy": GraphDelta(deletes=((0, 3), (5, 5))),
    "self-loop insert and delete": GraphDelta(inserts=((1, 1),), deletes=((0, 0),)),
    "empty row fills": GraphDelta(inserts=((1, 0), (3, 2))),
    "vertex 0 and n-1 edges": GraphDelta(
        inserts=((0, 5), (5, 0)), deletes=((4, 0),)
    ),
    "delete absent edges": GraphDelta(deletes=((1, 2), (3, 3))),
    "insert existing edges": GraphDelta(inserts=((0, 3), (2, 5))),
    "several inserts into one row": GraphDelta(inserts=((2, 0), (2, 2), (2, 3), (2, 4))),
    "insert and delete in one row": GraphDelta(
        inserts=((4, 1), (4, 2), (4, 3)), deletes=((4, 4),)
    ),
    "insert at a row end before an empty-row start": GraphDelta(
        inserts=((0, 4), (1, 1), (2, 0))
    ),
    "delete every edge": GraphDelta(
        deletes=((0, 0), (0, 3), (2, 1), (2, 5), (4, 0), (4, 4), (4, 5), (5, 5))
    ),
    "empty delta": GraphDelta(),
}


@pytest.mark.parametrize("delta", CASES.values(), ids=CASES.keys())
def test_named_cases(delta):
    check_splice(BASE, [delta])
    check_splice(shuffled_rows(BASE, 7), [delta])


def test_chained_on_unsorted_rmat():
    graph = shuffled_rows(rmat(7, 4, seed=5), 3)
    rng = np.random.default_rng(9)
    deltas = []
    for _ in range(4):
        pairs = [tuple(map(int, rng.integers(graph.num_vertices, size=2)))
                 for _ in range(12)]
        src, dst = graph.to_edge_arrays()
        picks = rng.choice(graph.num_edges, 5, replace=False)
        deletes = {(int(src[i]), int(dst[i])) for i in picks} - set(pairs)
        deltas.append(GraphDelta(inserts=tuple(pairs), deletes=tuple(deletes)))
    check_splice(graph, deltas)
