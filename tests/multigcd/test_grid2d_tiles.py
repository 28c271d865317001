"""Tile accounting of the 2D grid against the per-edge reference.

``Grid2dBFS`` charges each tile from a per-vertex row-block degree
table built once per engine. The reference below keeps the original
per-edge accounting: a row block per gathered edge, a column block per
frontier owner, two boolean masks per tile and a hash-unique for the
tile frontier and the discovered set, plus boolean-mask block splits
in the codec collectives. Both must drive the simulated GCDs with the
same launch stream, so every profiler record, launch count, device
clock, result field, ``dist.level`` span and codec counter is compared
for exact equality — across degenerate graphs, grid shapes, codec
modes and overlap.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.multigcd import ExchangeCodec, Grid2dBFS
from repro.telemetry.tracer import Tracer
from repro.xbfs.common import gather_neighbors


class PerEdgeGrid2dBFS(Grid2dBFS):
    """The 2D engine with its original per-edge tile accounting."""

    def _charge_tiles(self, frontier, levels):
        neighbors, owner = gather_neighbors(self.graph, frontier)
        fresh_mask = levels[neighbors] == -1
        discovered = np.unique(neighbors[fresh_mask]).astype(np.int64)
        col_of_frontier = np.searchsorted(self.col_bounds, frontier, side="right") - 1
        row_of_neighbor = np.searchsorted(self.row_bounds, neighbors, side="right") - 1
        tiles = []
        for i in range(self.rows):
            for j in range(self.cols):
                in_tile = (row_of_neighbor == i) & (col_of_frontier[owner] == j)
                e_tile = int(np.count_nonzero(in_tile))
                if e_tile == 0:
                    continue
                local_frontier = np.unique(frontier[owner[in_tile]])
                tiles.append((i * self.cols + j, local_frontier, e_tile))
        return discovered, tiles

    def _block_exchange(self, vertices, bounds, fan):
        codec = self.codec
        pieces = []
        wire = raw = 0
        worst = 0
        for b in range(len(bounds) - 1):
            lo, hi = int(bounds[b]), int(bounds[b + 1])
            mine = vertices[(vertices >= lo) & (vertices < hi)]
            if fan == 0:
                pieces.append(mine)
                continue
            decoded = None
            per_msg = 0
            for _ in range(fan):
                msg = codec.encode(mine, lo, hi)
                per_msg = msg.wire_bytes
                wire += msg.wire_bytes
                raw += msg.raw_bytes
                if decoded is None:
                    decoded = codec.decode(msg)
            worst = max(worst, per_msg)
            pieces.append(decoded)
        joined = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)
        return joined.astype(np.int64), wire, raw, float(worst)


def _isolated() -> CSRGraph:
    """Edges among a few vertices; most of the 40 have none."""
    src = np.array([1, 1, 5, 17, 17, 30], dtype=np.int64)
    dst = np.array([5, 17, 30, 30, 38, 38], dtype=np.int64)
    return CSRGraph.from_edges(src, dst, 40, symmetrize=True)


def _loops_and_duplicates() -> CSRGraph:
    """Hand-built CSR with self-loops, parallel edges and unsorted
    adjacency lists (the table must not assume sorted rows)."""
    adjacency = [
        [0, 9, 3, 9, 0],
        [1, 1],
        [],
        [11, 2, 0, 11],
        [4],
        [7, 5, 7, 1],
        [6, 6, 10],
        [5, 3],
        [],
        [0, 0, 9],
        [6, 11],
        [3, 10, 11],
    ]
    offsets = np.cumsum([0] + [len(a) for a in adjacency])
    cols = np.array([v for a in adjacency for v in a], dtype=np.int32)
    return CSRGraph(offsets, cols)


GRAPHS = {
    "rmat": rmat(8, 8, seed=11),
    "disconnected": CSRGraph.from_edges(
        np.array([0, 1, 8, 9, 40, 41], dtype=np.int64),
        np.array([1, 2, 9, 10, 41, 42], dtype=np.int64),
        64,
        symmetrize=True,
    ),
    "isolated": _isolated(),
    "star": CSRGraph.from_edges(
        np.zeros(63, dtype=np.int64),
        np.arange(1, 64, dtype=np.int64),
        64,
        symmetrize=True,
    ),
    "single_vertex": CSRGraph.empty(1),
    "zero_edges": CSRGraph.empty(16),
    "loops_and_duplicates": _loops_and_duplicates(),
}

GRIDS = [1, 2, 3, 4, 6, 8, 9, 16]
CODECS = ["off", "auto", "sparse", "bitmap"]


def _sources(graph: CSRGraph) -> list[int]:
    n = graph.num_vertices
    return sorted({0, n - 1, int(np.argmax(graph.degrees))})


def _engine(cls, graph, num_gcds, codec, overlap):
    return cls(
        graph,
        num_gcds,
        codec=None if codec == "off" else ExchangeCodec(mode=codec),
        overlap=overlap,
        tracer=Tracer(),
    )


def _spans(tracer: Tracer) -> list[tuple]:
    """Every span with its virtual clock and attributes (host time is
    the only field allowed to differ)."""
    return [
        (s.name, s.parent_id, s.virtual_start_ms, s.virtual_end_ms,
         s.status, s.attrs)
        for s in tracer.spans
    ]


def _assert_runs_identical(graph, num_gcds, codec, overlap, sources):
    table = _engine(Grid2dBFS, graph, num_gcds, codec, overlap)
    edges = _engine(PerEdgeGrid2dBFS, graph, num_gcds, codec, overlap)
    for source in sources:
        got, want = table.run(source), edges.run(source)
        for f in dataclasses.fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), f.name
            else:
                assert a == b, f.name
        for g_table, g_edges in zip(table._gcds, edges._gcds, strict=True):
            assert g_table.profiler.records == g_edges.profiler.records
            assert g_table.launches == g_edges.launches
            assert g_table.elapsed_ms == g_edges.elapsed_ms
    assert _spans(table.tracer) == _spans(edges.tracer)
    if codec != "off":
        assert table.codec.counters() == edges.codec.counters()


@pytest.mark.parametrize("overlap", [False, True], ids=["serial", "overlap"])
@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("num_gcds", GRIDS)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_table_charges_equal_per_edge_charges(name, num_gcds, codec, overlap):
    graph = GRAPHS[name]
    _assert_runs_identical(graph, num_gcds, codec, overlap, _sources(graph))


@pytest.mark.parametrize("num_gcds", GRIDS)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_table_counts_each_edge_in_its_row_block(name, num_gcds):
    graph = GRAPHS[name]
    engine = Grid2dBFS(graph, num_gcds)
    table = engine.row_block_degrees
    assert table.shape == (graph.num_vertices, engine.rows)
    assert np.array_equal(table.sum(axis=1), graph.degrees)
    owner = np.repeat(np.arange(graph.num_vertices), graph.degrees)
    block = np.searchsorted(engine.row_bounds, graph.col_indices, side="right") - 1
    expected = np.zeros_like(table)
    np.add.at(expected, (owner, block), 1)
    assert np.array_equal(table, expected)


@st.composite
def graph_and_source(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    vertex = st.integers(min_value=0, max_value=n - 1)
    adjacency = draw(st.lists(st.lists(vertex, max_size=8), min_size=n, max_size=n))
    offsets = np.cumsum([0] + [len(a) for a in adjacency])
    cols = np.array([v for a in adjacency for v in a], dtype=np.int32)
    return CSRGraph(offsets, cols), draw(vertex)


@given(
    graph_and_source(),
    st.sampled_from(GRIDS),
    st.sampled_from(CODECS),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_property_table_charges_equal_per_edge_charges(case, num_gcds, codec, overlap):
    graph, source = case
    engine = Grid2dBFS(graph, num_gcds)
    assert np.array_equal(engine.row_block_degrees.sum(axis=1), graph.degrees)
    _assert_runs_identical(graph, num_gcds, codec, overlap, [source])
