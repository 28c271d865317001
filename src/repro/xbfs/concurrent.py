"""Concurrent multi-source BFS (iBFS-style, Liu et al. SIGMOD'16).

The paper's Graph500 framing runs *many* BFS traversals back to back;
its citation [22] (iBFS) batches them: up to 64 sources traverse
together, with a 64-bit status word per vertex — bit *i* set means
"visited by source *i*". A level expands the **union** frontier once,
so adjacency lists shared by several concurrent traversals are fetched
a single time; the win over 64 sequential runs is exactly the sharing
factor of the batch. The 64-bit word is also a natural fit for the
MI250X's 64-lane wavefronts (and exercises ``__popcll`` again).

The modelled kernel always pushes: it expands the union frontier's
out-edges. The host is free to compute the same fresh bits either way,
so on a symmetric graph (its own transpose, see
:attr:`~repro.graph.csr.CSRGraph.transpose`) a dense level is pulled
instead — every vertex not yet visited by all sources OR-reduces its
in-neighbours' frontier words — whenever that touches fewer edges.
Directed graphs always push and never build a transpose.

This is the library's optional extension of the paper's n-to-n
measurement loop; :class:`ConcurrentBFS` produces per-source level
arrays identical to running :class:`~repro.xbfs.driver.XBFS` once per
source, plus the modelled cost of the shared traversal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import (
    BatchSourceError,
    DeviceFaultError,
    RecoveryExhaustedError,
    TraversalError,
)
from repro.faults.recovery import DEFAULT_RECOVERY, RecoveryPolicy
from repro.gcd.device import DeviceProfile, MI250X_GCD
from repro.gcd.kernel import ComputeWork, ExecConfig
from repro.gcd.memory import rand_read, rand_write, segmented_read, seq_read, seq_write
from repro.gcd.simulator import GCD
from repro.graph.csr import CSRGraph
from repro.perf import NULL_PROFILER, HostProfiler
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.xbfs import bitmap as bm
from repro.xbfs.common import gather_neighbor_ids, segment_lines_touched

__all__ = [
    "ConcurrentBFS",
    "ConcurrentResult",
    "MAX_CONCURRENT",
    "coalescing_key",
    "validate_batch_sources",
]

#: One status bit per source in a 64-bit word.
MAX_CONCURRENT = 64


def validate_batch_sources(
    sources: np.ndarray,
    num_vertices: int,
    *,
    max_batch: int | None = MAX_CONCURRENT,
    engine: str = "concurrent",
) -> None:
    """Reject malformed multi-source batches with a typed error.

    A duplicate source would alias one status bit (two queries sharing
    a level array is fine — two *slots* sharing a bit is a silent
    wrong-cost answer), and an out-of-range source would index the
    status planes out of bounds. Both raise
    :class:`~repro.errors.BatchSourceError` before any modelled cost is
    charged. ``max_batch=None`` skips the capacity check (engines that
    serve sources back to back have no slot limit).
    """
    k = int(sources.size)
    if k < 1 or (max_batch is not None and k > max_batch):
        cap = "1.." + (str(max_batch) if max_batch is not None else "n")
        raise BatchSourceError(
            f"{engine} batch must hold {cap} sources, got {k}"
        )
    if sources.min() < 0 or sources.max() >= num_vertices:
        raise BatchSourceError(
            f"{engine} batch source out of range [0, {num_vertices})"
        )
    if np.unique(sources).size != k:
        raise BatchSourceError(
            f"{engine} batch sources must be distinct (got {k} slots, "
            f"{int(np.unique(sources).size)} distinct)"
        )


def coalescing_key(
    *,
    force_strategy: str | None = None,
    record_parents: bool = False,
    max_levels: int | None = None,
) -> tuple | None:
    """Batch-compatibility hook for the serving layer.

    Two queries against the same graph may share one
    :class:`ConcurrentBFS` traversal only when neither asks for
    anything the bit-parallel engine cannot honour: a pinned per-level
    strategy, a Graph500 parent array, or a truncated run. Returns a
    hashable key — queries with equal keys coalesce — or ``None`` when
    the request must fall back to a solo
    :class:`~repro.xbfs.driver.XBFS` run.
    """
    if force_strategy is not None or record_parents or max_levels is not None:
        return None
    return ("concurrent",)


@dataclass
class ConcurrentResult:
    """Outcome of one batched run."""

    sources: np.ndarray
    #: ``levels[i]`` is source *i*'s level array (-1 unreachable).
    levels: np.ndarray
    elapsed_ms: float
    #: Union-frontier out-edges the modelled push kernel expands. The
    #: host may pull a level instead and touch other edges; this counts
    #: the modelled kernel's edges, never the host's.
    union_edges: int
    #: Σ over sources of the edges a solo run would expand.
    solo_edges: int
    depth: int
    paid_warmup: bool = False
    #: Levels replayed from their checkpoint after injected device
    #: faults (0 on a fault-free run).
    level_restarts: int = 0

    @property
    def sharing_factor(self) -> float:
        """How many solo edge-expansions each shared expansion stood in
        for (>= 1; higher = more sharing)."""
        return self.solo_edges / self.union_edges if self.union_edges else 1.0

    @property
    def traversed_edges(self) -> int:
        return self.solo_edges

    def levels_of(self, source: int) -> np.ndarray:
        """The level array of one batched ``source`` (equal to what a
        solo :meth:`XBFS.run` from it would produce)."""
        hits = np.flatnonzero(self.sources == source)
        if hits.size == 0:
            raise TraversalError(f"source {source} is not in this batch")
        return self.levels[int(hits[0])]

    @property
    def gteps(self) -> float:
        """Aggregate throughput credited the Graph500 way: every
        source's traversal counts, over the shared wall time."""
        if self.elapsed_ms <= 0:
            return 0.0
        return self.solo_edges / (self.elapsed_ms * 1e-3) / 1e9


class ConcurrentBFS:
    """Bit-parallel batched BFS over one simulated GCD."""

    def __init__(
        self,
        graph: CSRGraph,
        *,
        device: DeviceProfile = MI250X_GCD,
        config: ExecConfig | None = None,
        profiler: HostProfiler | None = None,
        tracer: Tracer | None = None,
        injector=None,
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        self.graph = graph
        self.device = device
        self.config = config or ExecConfig()
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        #: Optional :class:`~repro.telemetry.tracer.Tracer`; runs emit
        #: ``bfs.run``/``bfs.level`` spans like the solo driver, tagged
        #: ``engine="concurrent"``.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional fault injector; engages per-level checkpoint/restart
        #: exactly like :class:`~repro.xbfs.driver.XBFS`.
        self.injector = injector
        if injector is not None and self.tracer.enabled:
            injector.bind_tracer(self.tracer)
        self.recovery = recovery or DEFAULT_RECOVERY
        self._gcd: GCD | None = None

    @property
    def warm_bytes(self) -> int:
        """Modelled warm footprint the registry charges for a cached
        engine: the 64-bit visited/frontier status words per vertex."""
        return 16 * self.graph.num_vertices

    def run(self, sources: np.ndarray) -> ConcurrentResult:
        """Traverse from up to 64 sources simultaneously."""
        graph = self.graph
        sources = np.asarray(sources, dtype=np.int64).ravel()
        validate_batch_sources(
            sources, graph.num_vertices, max_batch=MAX_CONCURRENT,
            engine="concurrent",
        )
        k = int(sources.size)

        if self._gcd is None:
            self._gcd = GCD(
                self.device,
                self.config,
                injector=self.injector,
                tracer=self.tracer if self.tracer.enabled else None,
            )
        else:
            self._gcd.reset(keep_warm=True)
        gcd = self._gcd
        paid_warmup = not gcd._warm
        with self.tracer.span(
            "bfs.run",
            clock=lambda: gcd.elapsed_ms,
            engine="concurrent",
            sources=k,
        ):
            return self._traverse(
                gcd, sources, k, paid_warmup=paid_warmup
            )

    def _traverse(
        self,
        gcd: GCD,
        sources: np.ndarray,
        k: int,
        *,
        paid_warmup: bool,
    ) -> ConcurrentResult:
        graph = self.graph
        tracer = self.tracer

        n = graph.num_vertices
        visited = np.zeros(n, dtype=np.uint64)
        frontier_bits = np.zeros(n, dtype=np.uint64)
        bit_of = np.uint64(1) << np.arange(k, dtype=np.uint64)
        visited[sources] |= bit_of
        frontier_bits[sources] |= bit_of
        # One status word with every source's bit set.
        every = ~np.uint64(0) >> np.uint64(MAX_CONCURRENT - k)
        # Bit-sliced level counter: every level adds one to each pair
        # still unvisited at its top, so a pair's count is its level.
        # Decoded once, after the loop.
        planes: list[np.ndarray] = []

        line = gcd.device.cache_line_bytes
        level = 0
        union_edges = 0
        solo_edges = 0
        degs = graph.degrees

        prof = self.profiler
        level_restarts = 0
        while True:
            active = np.flatnonzero(frontier_bits).astype(np.int64)
            if active.size == 0:
                break
            # Depends only on the level-entry state, so a restarted
            # level never adds twice.
            bm.counter_add(planes, (every & ~visited)[:, np.newaxis])
            if self.injector is not None:
                # Level-entry checkpoint: an injected fault rolls the
                # visited and frontier words and the edge counters back
                # and replays only this level.
                snap = (visited.copy(), frontier_bits.copy(),
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
                            active_degs = degs[active]
                            e_union = int(active_degs.sum())
                            union_edges += e_union
                            # A solo run would expand each (source,
                            # vertex) pair separately.
                            popcounts = np.bitwise_count(
                                frontier_bits[active]
                            ).astype(np.int64)
                            solo_edges += int((popcounts * active_degs).sum())
                            fresh = self._expand(
                                active, e_union, frontier_bits, visited, every
                            )
                            visited |= fresh
                            n_fresh = int(np.count_nonzero(fresh))

                        adj_lines = segment_lines_touched(
                            graph.row_offsets[active], active_degs,
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
                                # 8-byte bit-status words, read per edge,
                                # OR-written per fresh discovery.
                                rand_read("bit_status", e_union, n, 8),
                                rand_write("bit_status", n_fresh, n_fresh, 8),
                                seq_write("next_frontier", n_fresh, 8),
                            ],
                            work=ComputeWork(flat_ops=float(e_union + active.size)),
                            work_items=int(active.size),
                        )
                        gcd.sync()
                    except DeviceFaultError as exc:
                        attempts += 1
                        level_restarts += 1
                        tracer.event(
                            "recovery.level_restart",
                            level=level,
                            attempt=attempts,
                        )
                        if attempts > self.recovery.max_level_restarts:
                            raise RecoveryExhaustedError(
                                f"concurrent level {level} still faulting after "
                                f"{self.recovery.max_level_restarts} checkpoint "
                                f"restarts: {exc}"
                            ) from exc
                        visited[:] = snap[0]
                        frontier_bits[:] = snap[1]
                        union_edges, solo_edges = snap[2], snap[3]
                        gcd.quiesce()
                    else:
                        break
            frontier_bits = fresh
            prof.count("levels/concurrent")
            level += 1

        unreached = bm.unpack_rows((every & ~visited)[:, np.newaxis], k)
        return ConcurrentResult(
            sources=sources,
            levels=bm.counter_levels(planes, n, k, unreached=unreached),
            elapsed_ms=gcd.elapsed_ms,
            union_edges=union_edges,
            solo_edges=solo_edges,
            depth=level,
            paid_warmup=paid_warmup,
            level_restarts=level_restarts,
        )

    def _expand(
        self,
        active: np.ndarray,
        e_union: int,
        frontier_bits: np.ndarray,
        visited: np.ndarray,
        every: np.uint64,
    ) -> np.ndarray:
        """The fresh (vertex, source) bits of one level, by whichever
        direction touches fewer edges on the host.

        Push walks the ``e_union`` out-edges of ``active``. On a
        symmetric graph the transpose is free, so when the vertices not
        yet visited by ``every`` source have fewer in-edges than that,
        they pull instead. Both give the same bits.
        """
        graph = self.graph
        if graph.is_symmetric:
            cand = np.flatnonzero(visited != every)
            cand_degs = graph.transpose.degrees[cand]
            if int(cand_degs.sum()) < e_union:
                return self._pull(cand, cand_degs, frontier_bits, visited)
        return self._push(active, frontier_bits, visited)

    def _push(
        self, active: np.ndarray, frontier_bits: np.ndarray, visited: np.ndarray
    ) -> np.ndarray:
        """Scatter-OR each active vertex's word along its out-edges."""
        graph = self.graph
        incoming = np.zeros(graph.num_vertices, dtype=np.uint64)
        bm.scatter_or_rows(
            incoming,
            gather_neighbor_ids(graph, active),
            np.repeat(frontier_bits[active], graph.degrees[active]),
        )
        return bm.fresh_mask(incoming, visited)

    def _pull(
        self,
        cand: np.ndarray,
        cand_degs: np.ndarray,
        frontier_bits: np.ndarray,
        visited: np.ndarray,
    ) -> np.ndarray:
        """OR-reduce each candidate's in-neighbour words in one
        ``reduceat``; vertices outside ``cand`` are visited by every
        source and stay zero."""
        rev = self.graph.transpose
        incoming = bm.segment_or_rows(
            frontier_bits[gather_neighbor_ids(rev, cand), np.newaxis], cand_degs
        )[:, 0]
        fresh = np.zeros(rev.num_vertices, dtype=np.uint64)
        fresh[cand] = bm.fresh_mask(incoming, visited[cand])
        return fresh
