"""Batched linear-algebra BFS: one masked CSR×matrix product per level.

The coalescing scheduler's hottest traffic — large same-graph
multi-source batches — outgrows :class:`~repro.xbfs.concurrent.ConcurrentBFS`
at 64 sources because the iBFS design spends one status *bit* per
source in a single 64-bit word. Following the BLEST / GraphBLAST line
(PAPERS.md), this engine drops the per-source frontier model entirely
and runs the whole batch as Boolean semiring linear algebra over the
bit-packed bitmaps of :mod:`repro.xbfs.bitmap`:

    F        — frontier matrix, (vertices × sources), packed 64/word
    next = (Aᵀ · F) ⊙ ¬visited      per level

One level is therefore a handful of word-wide vector kernels whatever
the batch width — the perfectly regular, balance-friendly shape the GCD
cost model rewards — and capacity grows 64 sources per extra word up to
:data:`MAX_LINALG_BATCH`.

Unlike the fixed-direction baseline
(:class:`~repro.baselines.linalg.LinAlgBFS`), every level picks its
product form with the adaptive classifier's frontier-density signal:

* **push** — sparse F: scatter-OR the frontier rows along the gathered
  adjacency of the occupied rows (an SpMM whose cost tracks the union
  frontier's edges);
* **pull** — dense F: every still-unvisited row OR-gathers its
  in-neighbours' frontier words (a masked gather whose cost tracks the
  *unvisited* remainder, the bottom-up saving XBFS gets from its α
  switch).

Answers are bit-identical to a solo :class:`~repro.xbfs.driver.XBFS`
run per source — property-tested, including under fault plans: the
engine carries the same per-level checkpoint/restart contract as the
other drivers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import (
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
from repro.xbfs.classifier import BOTTOM_UP, SINGLE_SCAN, AdaptiveClassifier, Decision
from repro.xbfs.common import (
    gather_neighbor_ids,
    gather_neighbors,
    segment_lines_touched,
)
from repro.xbfs.concurrent import validate_batch_sources

__all__ = [
    "LinAlgBatchBFS",
    "LinAlgBatchResult",
    "MAX_LINALG_BATCH",
    "PUSH",
    "PULL",
]

#: Slot capacity of the bitmap engine: 16 words of sources per vertex
#: row. The cap is a memory/latency guardrail, not a representation
#: limit like :data:`~repro.xbfs.concurrent.MAX_CONCURRENT`'s single
#: status word.
MAX_LINALG_BATCH = 1024

#: Per-level product forms.
PUSH = "la_push"
PULL = "la_pull"
_DIRECTIONS = ("auto", "push", "pull")


@dataclass
class LinAlgBatchResult:
    """Outcome of one batched linear-algebra run."""

    sources: np.ndarray
    #: ``levels[i]`` is source *i*'s level array (-1 unreachable) —
    #: bit-identical to a solo :meth:`XBFS.run` from ``sources[i]``.
    levels: np.ndarray
    elapsed_ms: float
    #: Edges the chosen kernels actually examined (push: the union
    #: frontier's adjacency; pull: the unvisited candidates' reverse
    #: adjacency).
    union_edges: int
    #: Σ over sources of the edges a solo run would expand.
    solo_edges: int
    depth: int
    #: Product form per level (:data:`PUSH` / :data:`PULL`).
    directions: tuple = ()
    #: Per-level :class:`Decision` records (direction + the classifier
    #: reason/signals behind it) — the audit plane's raw material.
    decisions: tuple = ()
    paid_warmup: bool = False
    #: Levels replayed from their checkpoint after injected faults.
    level_restarts: int = 0

    @property
    def sharing_factor(self) -> float:
        """Solo edge-expansions each examined edge stood in for."""
        return self.solo_edges / self.union_edges if self.union_edges else 1.0

    @property
    def traversed_edges(self) -> int:
        return self.solo_edges

    def levels_of(self, source: int) -> np.ndarray:
        """The level array of one batched ``source``."""
        hits = np.flatnonzero(self.sources == source)
        if hits.size == 0:
            raise TraversalError(f"source {source} is not in this batch")
        return self.levels[int(hits[0])]

    @property
    def gteps(self) -> float:
        """Aggregate throughput, Graph500-credited (every source's
        traversal over the shared wall time)."""
        if self.elapsed_ms <= 0:
            return 0.0
        return self.solo_edges / (self.elapsed_ms * 1e-3) / 1e9


class LinAlgBatchBFS:
    """Whole-batch BFS as masked Boolean CSR×matrix products."""

    ENGINE = "linalg_batch"

    def __init__(
        self,
        graph: CSRGraph,
        *,
        device: DeviceProfile = MI250X_GCD,
        config: ExecConfig | None = None,
        classifier: AdaptiveClassifier | None = None,
        direction: str = "auto",
        profiler: HostProfiler | None = None,
        tracer: Tracer | None = None,
        injector=None,
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        if direction not in _DIRECTIONS:
            raise TraversalError(
                f"direction must be one of {_DIRECTIONS}, got {direction!r}"
            )
        self.graph = graph
        self.device = device
        self.config = config or ExecConfig()
        #: Per-level direction chooser; the α-threshold frontier-density
        #: signal is exactly the solo driver's (dense levels pull,
        #: sparse levels push).
        self.classifier = classifier or AdaptiveClassifier()
        #: ``"auto"`` switches per level; ``"push"``/``"pull"`` pin the
        #: product form (the baseline's fixed-direction story, for
        #: ablations and the direction-boundary tests).
        self.direction = direction
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional fault injector; per-level checkpoint/restart like
        #: the other drivers.
        self.injector = injector
        if injector is not None and self.tracer.enabled:
            injector.bind_tracer(self.tracer)
        self.recovery = recovery or DEFAULT_RECOVERY
        self._gcd: GCD | None = None

    @property
    def warm_bytes(self) -> int:
        """Modelled warm footprint the registry charges for a cached
        engine: the (eventual) reverse CSR for the pull product plus a
        64-bit bitmap word per vertex of scratch. The pull product reads
        the graph's shared transpose on the host (the graph itself when
        symmetric, built on first pull otherwise), but the charge keeps
        the modelled device copy on purpose."""
        return self.graph.memory_bytes + 8 * self.graph.num_vertices

    # ------------------------------------------------------------------

    def _choose_direction(
        self,
        *,
        ratio: float,
        active: int,
        prev_active: int,
        prev_direction: str | None,
        level: int,
        frontier_edges: int,
    ) -> Decision:
        if self.direction != "auto":
            pinned = PUSH if self.direction == "push" else PULL
            return Decision(
                pinned,
                f"direction pinned to {self.direction!r}",
                (("ratio", ratio), ("level", level)),
            )
        decision = self.classifier.choose(
            ratio=ratio,
            frontier_size=active,
            prev_frontier_size=prev_active,
            prev_strategy=(
                None
                if prev_direction is None
                else (BOTTOM_UP if prev_direction == PULL else SINGLE_SCAN)
            ),
            level=level,
            frontier_edges=frontier_edges,
        )
        return Decision(
            PULL if decision.strategy == BOTTOM_UP else PUSH,
            decision.reason,
            decision.signals,
        )

    # ------------------------------------------------------------------
    def run(self, sources: np.ndarray) -> LinAlgBatchResult:
        """Traverse from up to :data:`MAX_LINALG_BATCH` sources at once."""
        graph = self.graph
        sources = np.asarray(sources, dtype=np.int64).ravel()
        validate_batch_sources(
            sources,
            graph.num_vertices,
            max_batch=MAX_LINALG_BATCH,
            engine=self.ENGINE,
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
            engine=self.ENGINE,
            sources=k,
        ):
            return self._traverse(gcd, sources, k, paid_warmup=paid_warmup)

    # ------------------------------------------------------------------
    def _traverse(
        self, gcd: GCD, sources: np.ndarray, k: int, *, paid_warmup: bool
    ) -> LinAlgBatchResult:
        graph = self.graph
        tracer = self.tracer
        prof = self.profiler
        n = graph.num_vertices
        degs = graph.degrees
        total_edges = max(1, graph.num_edges)
        line = gcd.device.cache_line_bytes
        words = bm.words_for(k)
        full = bm.full_row_mask(k)

        frontier = bm.make_bitmap(n, k)
        visited = bm.make_bitmap(n, k)
        bm.set_source_bits(frontier, sources)
        visited |= frontier
        #: Bit-sliced per-(vertex, source) level counter: fed ¬visited
        #: at the top of every level, so a pair's decoded count is the
        #: number of pre-states it was missing from — its BFS level.
        #: Levels therefore never materialize inside the loop; the
        #: (sources × vertices) matrix is decoded once at the end.
        planes: list[np.ndarray] = []

        level = 0
        union_edges = 0
        solo_edges = 0
        level_restarts = 0
        directions: list[str] = []
        decisions: list[Decision] = []
        prev_active = 1
        prev_direction: str | None = None

        while True:
            active = bm.occupied_rows(frontier)
            if active.size == 0:
                break
            bm.counter_add(planes, bm.fresh_mask(full[np.newaxis, :], visited))
            frontier_edges = int(degs[active].sum())
            decision = self._choose_direction(
                ratio=frontier_edges / total_edges,
                active=int(active.size),
                prev_active=prev_active,
                prev_direction=prev_direction,
                level=level,
                frontier_edges=frontier_edges,
            )
            direction = decision.strategy
            if self.injector is not None:
                # Level-entry checkpoint: an injected fault rolls the
                # bitmap planes and counters back and replays the level.
                # The level counter needs no snapshot: its add happened
                # above, outside the faultable kernel region.
                snap = (
                    visited.copy(),
                    frontier.copy(),
                    union_edges,
                    solo_edges,
                )
            with tracer.span(
                "bfs.level",
                clock=lambda: gcd.elapsed_ms,
                level=level,
                strategy=direction,
                frontier=int(active.size),
            ):
                attempts = 0
                while True:
                    try:
                        with prof.timer("lab_level"):
                            # Solo-equivalent accounting is direction-
                            # independent: each (source, vertex) pair a
                            # solo run would expand.
                            solo_edges += int(
                                (bm.popcount_rows(frontier[active]) * degs[active]).sum()
                            )
                            if direction == PUSH:
                                fresh, examined = self._push_level(
                                    gcd, frontier, visited, active, level, line
                                )
                            else:
                                fresh, examined = self._pull_level(
                                    gcd, frontier, visited, full, level, line
                                )
                            union_edges += examined
                            newly = bm.occupied_rows(fresh)
                            visited |= fresh
                        self._launch_mask_assign(
                            gcd, n, words, int(bm.popcount_rows(fresh[newly]).sum()), level
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
                                f"{self.ENGINE} level {level} still faulting "
                                f"after {self.recovery.max_level_restarts} "
                                f"checkpoint restarts: {exc}"
                            ) from exc
                        visited[:] = snap[0]
                        frontier[:] = snap[1]
                        union_edges, solo_edges = snap[2], snap[3]
                        gcd.quiesce()
                    else:
                        break
            directions.append(direction)
            decisions.append(decision)
            prof.count(f"levels/{direction}")
            prev_active = int(active.size)
            prev_direction = direction
            frontier = fresh
            level += 1

        levels = bm.counter_levels(
            planes,
            n,
            k,
            unreached=bm.unpack_rows(
                bm.fresh_mask(full[np.newaxis, :], visited), k
            ),
        )

        return LinAlgBatchResult(
            sources=sources,
            levels=levels,
            elapsed_ms=gcd.elapsed_ms,
            union_edges=union_edges,
            solo_edges=solo_edges,
            depth=level,
            directions=tuple(directions),
            decisions=tuple(decisions),
            paid_warmup=paid_warmup,
            level_restarts=level_restarts,
        )

    # ------------------------------------------------------------------
    def _push_level(
        self,
        gcd: GCD,
        frontier: np.ndarray,
        visited: np.ndarray,
        active: np.ndarray,
        level: int,
        line: int,
    ) -> tuple[np.ndarray, int]:
        """Sparse-frontier SpMM: scatter-OR frontier rows along the
        occupied rows' adjacency. Returns ``(fresh, edges_examined)``."""
        graph = self.graph
        n = graph.num_vertices
        words = frontier.shape[1]
        neighbors, owner = gather_neighbors(graph, active)
        e_union = int(neighbors.size)
        incoming = np.zeros_like(visited)
        bm.scatter_or_rows(incoming, neighbors, frontier[active][owner])
        fresh = bm.fresh_mask(incoming, visited)

        adj_lines = segment_lines_touched(
            graph.row_offsets[active],
            graph.degrees[active],
            element_bytes=4,
            line_bytes=line,
        )
        fresh_words = int(bm.occupied_rows(fresh).size) * words
        gcd.launch(
            "lab_spmm_push",
            strategy=self.ENGINE,
            level=level,
            streams=[
                # The frontier operand: the occupied rows' words.
                seq_read("frontier_bitmap", int(active.size) * words, 8),
                rand_read("beg_pos", 2 * int(active.size), 2 * int(active.size), 8),
                segmented_read("col_idx", e_union, adj_lines, 4),
                # Semiring accumulate: read-modify-OR of the destination
                # rows' words, one row per gathered edge.
                rand_read("bit_status", e_union * words, n * words, 8),
                rand_write("bit_status", fresh_words, fresh_words, 8),
            ],
            work=ComputeWork(flat_ops=float((e_union + active.size) * words)),
            work_items=int(active.size),
        )
        return fresh, e_union

    def _pull_level(
        self,
        gcd: GCD,
        frontier: np.ndarray,
        visited: np.ndarray,
        full: np.ndarray,
        level: int,
        line: int,
    ) -> tuple[np.ndarray, int]:
        """Dense-frontier masked gather: every not-fully-visited row
        OR-reduces its in-neighbours' frontier words.

        The mask is the saving: rows already visited by every source
        drop out of the candidate set entirely, so peak levels touch
        the *unvisited remainder*'s adjacency instead of the union
        frontier's — the same asymmetry XBFS's bottom-up switch buys.
        """
        graph = self.graph
        rev = graph.transpose
        n = graph.num_vertices
        words = frontier.shape[1]
        missing = bm.fresh_mask(full[np.newaxis, :], visited)
        cand = bm.occupied_rows(missing)
        neighbors = gather_neighbor_ids(rev, cand)
        e_cand = int(neighbors.size)
        gathered = bm.segment_or_rows(
            frontier[neighbors], rev.degrees[cand]
        )
        fresh = np.zeros_like(visited)
        fresh[cand] = gathered & missing[cand]

        adj_lines = segment_lines_touched(
            rev.row_offsets[cand],
            rev.degrees[cand],
            element_bytes=4,
            line_bytes=line,
        )
        fresh_words = int(bm.occupied_rows(fresh).size) * words
        gcd.launch(
            "lab_pull_gather",
            strategy=self.ENGINE,
            level=level,
            streams=[
                # Candidate scan: the visited plane read once, sequentially.
                seq_read("visited_bitmap", n * words, 8),
                rand_read("beg_pos", 2 * int(cand.size), 2 * int(cand.size), 8),
                segmented_read("col_idx_rev", e_cand, adj_lines, 4),
                # The frontier operand, gathered per reverse edge.
                rand_read("frontier_bitmap", e_cand * words, n * words, 8),
                rand_write("bit_status", fresh_words, fresh_words, 8),
            ],
            work=ComputeWork(flat_ops=float((e_cand + cand.size) * words)),
            work_items=int(cand.size),
        )
        return fresh, e_cand

    def _launch_mask_assign(
        self, gcd: GCD, n: int, words: int, assignments: int, level: int
    ) -> None:
        """The ⊙ ¬visited mask plus the level write-back, charged like
        the baseline's ``la_mask_assign`` but word-wide."""
        gcd.launch(
            "lab_mask_assign",
            strategy=self.ENGINE,
            level=level,
            streams=[
                seq_read("y_bitmap", n * words, 8),
                seq_read("visited_bitmap", n * words, 8),
                seq_write("frontier_bitmap", n * words, 8),
                rand_write("levels", assignments, assignments, 4),
            ],
            work=ComputeWork(flat_ops=float(2 * n * words)),
            work_items=n,
        )
