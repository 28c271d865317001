"""Host push/pull in the concurrent engine against its push-only reference.

``ConcurrentBFS`` computes each level's fresh (vertex, source) bits on
the host by whichever direction touches fewer edges: push along the
union frontier's out-edges, or — on a symmetric graph, whose transpose
is free — pull into the vertices some source has yet to visit. It then
decodes every level at once from a bit-sliced counter. The reference
below keeps the original loop: scatter-OR along every frontier edge at
every level, and a per-source pass that writes levels as they are
found. The modelled kernel must not see the difference, so levels,
edge counts, depth, device clock, launch records, profiler counters and
``bfs.level`` spans are compared for exact equality, with and without
an injected fault plan that forces level restarts.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeviceFaultError, RecoveryExhaustedError
from repro.faults import FaultPlan, FaultRule
from repro.gcd.kernel import ComputeWork
from repro.gcd.memory import rand_read, rand_write, segmented_read, seq_read, seq_write
from repro.graph.csr import CSRGraph
from repro.graph.delta import GraphDelta, apply_delta
from repro.graph.generators import rmat
from repro.graph.stats import bfs_levels_reference
from repro.perf import HostProfiler
from repro.telemetry.tracer import Tracer
from repro.xbfs.common import gather_neighbors, segment_lines_touched
from repro.xbfs.concurrent import ConcurrentBFS, ConcurrentResult


class PushOnlyConcurrentBFS(ConcurrentBFS):
    """The concurrent engine with its original push-only level loop."""

    def _traverse(self, gcd, sources, k, *, paid_warmup):
        graph = self.graph
        tracer = self.tracer
        n = graph.num_vertices
        visited = np.zeros(n, dtype=np.uint64)
        frontier_bits = np.zeros(n, dtype=np.uint64)
        levels = np.full((k, n), -1, dtype=np.int32)
        bit_of = np.uint64(1) << np.arange(k, dtype=np.uint64)
        visited[sources] |= bit_of
        frontier_bits[sources] |= bit_of
        levels[np.arange(k), sources] = 0
        line = gcd.device.cache_line_bytes
        level = union_edges = solo_edges = level_restarts = 0
        degs = graph.degrees
        prof = self.profiler
        while True:
            active = np.flatnonzero(frontier_bits).astype(np.int64)
            if active.size == 0:
                break
            if self.injector is not None:
                snap = (visited.copy(), frontier_bits.copy(), levels.copy(),
                        union_edges, solo_edges)
            with tracer.span(
                "bfs.level",
                clock=lambda: gcd.elapsed_ms,
                level=level,
                strategy="concurrent",
                frontier=int(active.size),
            ):
                attempts = 0
                while True:
                    try:
                        with prof.timer("cb_expand"):
                            neighbors, owner = gather_neighbors(graph, active)
                            e_union = int(neighbors.size)
                            union_edges += e_union
                            popcounts = np.bitwise_count(
                                frontier_bits[active]
                            ).astype(np.int64)
                            solo_edges += int((popcounts * degs[active]).sum())
                            incoming = np.zeros(n, dtype=np.uint64)
                            np.bitwise_or.at(
                                incoming, neighbors, frontier_bits[active][owner]
                            )
                            fresh = incoming & ~visited
                            visited |= fresh
                            newly = np.flatnonzero(fresh).astype(np.int64)
                            for i in range(k):
                                mine = newly[
                                    (fresh[newly] >> np.uint64(i)) & np.uint64(1)
                                    == 1
                                ]
                                levels[i, mine] = level + 1
                        adj_lines = segment_lines_touched(
                            graph.row_offsets[active], degs[active],
                            element_bytes=4, line_bytes=line,
                        )
                        gcd.launch(
                            "cb_expand",
                            strategy="concurrent",
                            level=level,
                            streams=[
                                seq_read("frontier", int(active.size), 8),
                                rand_read("beg_pos", 2 * int(active.size), 2 * int(active.size), 8),
                                segmented_read("adj_list", e_union, adj_lines, 4),
                                rand_read("bit_status", e_union, n, 8),
                                rand_write("bit_status", int(newly.size), int(newly.size), 8),
                                seq_write("next_frontier", int(newly.size), 8),
                            ],
                            work=ComputeWork(flat_ops=float(e_union + active.size)),
                            work_items=int(active.size),
                        )
                        gcd.sync()
                    except DeviceFaultError as exc:
                        attempts += 1
                        level_restarts += 1
                        tracer.event(
                            "recovery.level_restart", level=level, attempt=attempts
                        )
                        if attempts > self.recovery.max_level_restarts:
                            raise RecoveryExhaustedError(str(exc)) from exc
                        visited[:] = snap[0]
                        frontier_bits[:] = snap[1]
                        levels[:] = snap[2]
                        union_edges, solo_edges = snap[3], snap[4]
                        gcd.quiesce()
                    else:
                        break
            frontier_bits = fresh
            prof.count("levels/concurrent")
            level += 1
        return ConcurrentResult(
            sources=sources,
            levels=levels,
            elapsed_ms=gcd.elapsed_ms,
            union_edges=union_edges,
            solo_edges=solo_edges,
            depth=level,
            paid_warmup=paid_warmup,
            level_restarts=level_restarts,
        )


class DirectionSpy(ConcurrentBFS):
    """Counts which direction each host level took."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pushes = 0
        self.pulls = 0

    def _push(self, *args):
        self.pushes += 1
        return super()._push(*args)

    def _pull(self, *args):
        self.pulls += 1
        return super()._pull(*args)


def _symmetric(src, dst, n, **kw) -> CSRGraph:
    return CSRGraph.from_edges(
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64), n,
        symmetrize=True, **kw,
    )


def _directed(n=96, m=400, seed=5) -> CSRGraph:
    rng = np.random.default_rng(seed)
    return CSRGraph.from_edges(rng.integers(0, n, m), rng.integers(0, n, m), n)


def _mutated() -> CSRGraph:
    """A symmetric rmat after a one-way delta: directed, unflagged."""
    base = rmat(7, 8, seed=2)
    delta = GraphDelta(
        inserts=((0, 77), (5, 100), (100, 3)),
        deletes=tuple((0, int(v)) for v in base.neighbors(0)[:2]),
    )
    return apply_delta(base, delta)


GRAPHS = {
    "rmat": rmat(8, 8, seed=11),
    "directed": _directed(),
    "mutated": _mutated(),
    # Edges among a few of 80 vertices; the rest are isolated.
    "isolated": _symmetric([1, 1, 5, 17, 17, 30], [5, 17, 30, 30, 38, 38], 80),
    # Self-loops and parallel edges kept (no dedup, no loop removal).
    "loops_and_duplicates": _symmetric(
        [0, 0, 0, 1, 2, 2, 3, 3, 4, 4, 5, 6, 6, 7],
        [0, 3, 3, 1, 2, 6, 4, 4, 4, 9, 5, 6, 9, 8],
        70,
    ),
    "zero_edges": _symmetric([], [], 70),
    "one_vertex": _symmetric([], [], 1),
}
KS = [1, 2, 7, 63, 64]
CASES = [
    (name, k)
    for name, graph in GRAPHS.items()
    for k in KS
    if k <= graph.num_vertices
]


def _sources(graph: CSRGraph, k: int) -> np.ndarray:
    """``k`` distinct sources, the highest-degree vertex first."""
    order = np.argsort(-graph.degrees, kind="stable")
    return np.sort(order[:k]).astype(np.int64)


def _fault_plan(seed=11) -> FaultPlan:
    return FaultPlan(seed=seed, rules=(
        FaultRule(site="gcd.launch", kind="kernel_launch",
                  probability=0.5, max_triggers=3),
    ))


def _engine(cls, graph, faults):
    return cls(
        graph,
        profiler=HostProfiler(),
        tracer=Tracer(),
        injector=_fault_plan().injector() if faults else None,
    )


def _spans(tracer: Tracer) -> list[tuple]:
    return [
        (s.name, s.parent_id, s.virtual_start_ms, s.virtual_end_ms,
         s.status, s.attrs)
        for s in tracer.spans
    ]


def _assert_runs_identical(graph, batches, faults):
    got_engine = _engine(ConcurrentBFS, graph, faults)
    want_engine = _engine(PushOnlyConcurrentBFS, graph, faults)
    for sources in batches:
        got, want = got_engine.run(sources), want_engine.run(sources)
        for f in dataclasses.fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), f.name
            else:
                assert a == b, f.name
        assert got.levels.flags.c_contiguous
    assert got_engine._gcd.profiler.records == want_engine._gcd.profiler.records
    assert got_engine._gcd.launches == want_engine._gcd.launches
    assert got_engine._gcd.elapsed_ms == want_engine._gcd.elapsed_ms
    assert got_engine.profiler.counters == want_engine.profiler.counters
    assert (
        {key: t.calls for key, t in got_engine.profiler.timers.items()}
        == {key: t.calls for key, t in want_engine.profiler.timers.items()}
    )
    assert _spans(got_engine.tracer) == _spans(want_engine.tracer)
    return got


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize(("name", "k"), CASES, ids=[f"{n}-k{k}" for n, k in CASES])
def test_pull_equals_push_only(name, k, faults):
    graph = GRAPHS[name]
    got = _assert_runs_identical(graph, [_sources(graph, k)], faults)
    for i, s in enumerate(got.sources.tolist()):
        assert np.array_equal(got.levels[i], bfs_levels_reference(graph, s))


def test_fault_plan_forces_restarts():
    graph = GRAPHS["rmat"]
    got = _assert_runs_identical(graph, [_sources(graph, 64)], faults=True)
    assert got.level_restarts > 0


def test_symmetric_rmat_takes_both_directions():
    graph = GRAPHS["rmat"]
    spy = DirectionSpy(graph)
    spy.run(_sources(graph, 64))
    assert spy.pushes > 0 and spy.pulls > 0


@pytest.mark.parametrize("name", ["directed", "mutated"])
def test_directed_graphs_push_and_never_build_a_transpose(name):
    graph = GRAPHS[name]
    assert not graph.is_symmetric
    spy = DirectionSpy(graph)
    spy.run(_sources(graph, 64))
    assert spy.pulls == 0 and spy.pushes > 0
    assert "transpose" not in graph._cache


@st.composite
def graph_and_sources(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=120))
    src = [u for u, _ in edges]
    dst = [v for _, v in edges]
    graph = CSRGraph.from_edges(
        np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), n,
        symmetrize=draw(st.booleans()),
    )
    k = draw(st.integers(min_value=1, max_value=min(n, 64)))
    sources = draw(st.lists(vertex, min_size=k, max_size=k, unique=True))
    return graph, np.array(sources, dtype=np.int64)


@given(graph_and_sources(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_property_pull_equals_push_only(case, faults):
    graph, sources = case
    _assert_runs_identical(graph, [sources], faults)
