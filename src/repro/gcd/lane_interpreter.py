"""Lane-accurate kernel interpreter.

The vectorised engines compute traversal results and work counts in
bulk; this module re-executes the two most porting-sensitive kernels —
the scan-free expand and the bottom-up expand — at *lane granularity*,
wavefront by wavefront, using the emulated hardware primitives
(:func:`~repro.gcd.wavefront.ballot`, ``popc``/``popcll``, lock-step
probe loops). It exists for three reasons:

* **validation** — tests cross-check the vectorised engines' results
  and divergence counts against this independent, structurally faithful
  execution;
* **the porting bug, demonstrated** — the scan-free enqueue reserves
  queue slots with a warp-aggregated ballot + population count. Pass
  ``popcount=popc`` (the CUDA 32-bit intrinsic) at ``width=64`` and the
  reservation silently drops winners in lanes 32–63, exactly the
  ``__popc``→``__popcll`` hazard Section IV-A describes — and the BFS
  result goes *wrong*, which is how such a bug actually surfaces;
* **teaching** — the interpreter is the executable description of what
  "wavefront-serialised probe steps" means in the cost model.

It is intentionally slow (Python loop per wavefront step); use it on
small graphs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import TraversalError
from repro.graph.csr import CSRGraph
from repro.gcd.wavefront import ballot, iter_wavefronts, popcll
from repro.xbfs.common import UNVISITED

__all__ = ["LaneStats", "LaneInterpreter"]


@dataclass
class LaneStats:
    """Execution statistics of one interpreted kernel."""

    wavefronts: int = 0
    #: Lock-step probe iterations summed over wavefronts — must equal
    #: the vectorised model's ``wavefront_serialized_steps``.
    serialized_steps: int = 0
    #: Lane-steps lanes spent idle waiting for wavefront peers.
    idle_lane_steps: int = 0
    #: Winners silently dropped by a too-narrow population count
    #: (non-zero only when the popc porting bug is being demonstrated).
    dropped_winners: int = 0


class LaneInterpreter:
    """Executes kernels with explicit wavefront/lane semantics."""

    def __init__(
        self,
        graph: CSRGraph,
        *,
        width: int = 64,
        popcount: Callable[[int], int] = popcll,
    ) -> None:
        if width not in (32, 64):
            raise TraversalError(f"wavefront width must be 32 or 64, got {width}")
        self.graph = graph
        self.width = width
        self.popcount = popcount

    # ------------------------------------------------------------------
    def scan_free_level(
        self,
        status: np.ndarray,
        frontier: np.ndarray,
        level: int,
    ) -> tuple[np.ndarray, LaneStats]:
        """One scan-free level, lane by lane.

        Each lane owns one frontier vertex and walks its adjacency; a
        winning claim is enqueued via the warp-aggregated protocol: the
        wavefront ballots its winners, *one* lane reserves
        ``popcount(mask)`` queue slots, and each winner stores at its
        ballot rank. With a 32-bit popcount on a 64-wide wavefront the
        reservation is too small and high-lane winners are dropped.

        Returns the next frontier queue (in enqueue order) and stats.
        """
        graph = self.graph
        frontier = np.asarray(frontier, dtype=np.int64)
        queue: list[int] = []
        stats = LaneStats()
        for wf in iter_wavefronts(frontier.size, self.width):
            stats.wavefronts += 1
            lane_vertices = frontier[wf.lanes]
            starts = graph.row_offsets[lane_vertices]
            degs = graph.degrees[lane_vertices]
            max_deg = int(degs.max()) if degs.size else 0
            for step in range(max_deg):
                active = degs > step
                stats.serialized_steps += 1
                stats.idle_lane_steps += int(self.width - active.sum())
                won = np.zeros(lane_vertices.size, dtype=bool)
                claimed: list[int] = []
                for lane in np.flatnonzero(active):
                    nbr = int(graph.col_indices[starts[lane] + step])
                    if status[nbr] == UNVISITED:
                        # atomicCAS: exactly one lane wins per address.
                        status[nbr] = level + 1
                        won[lane] = True
                        claimed.append(nbr)
                if not claimed:
                    continue
                mask = ballot(won, self.width)
                reserved = self.popcount(mask)
                # Winners store at their ballot rank; ranks beyond the
                # reservation are lost (the porting bug's signature).
                kept = claimed[:reserved]
                stats.dropped_winners += len(claimed) - len(kept)
                queue.extend(kept)
        return np.asarray(queue, dtype=np.int64), stats

    # ------------------------------------------------------------------
    def bottom_up_level(
        self,
        status: np.ndarray,
        level: int,
        *,
        reverse_graph: CSRGraph | None = None,
    ) -> tuple[np.ndarray, LaneStats]:
        """One bottom-up expand, lane by lane.

        Each lane owns one unvisited vertex and probes its (incoming)
        adjacency in lock-step with its wavefront; a lane that finds a
        neighbour at the current level claims ``level+1`` and idles
        until the whole wavefront finishes — the idle time the paper
        blames for workload balancing backfiring at width 64.
        """
        incoming = reverse_graph if reverse_graph is not None else self.graph
        unvisited = np.flatnonzero(status == UNVISITED).astype(np.int64)
        promoted: list[int] = []
        stats = LaneStats()
        for wf in iter_wavefronts(unvisited.size, self.width):
            stats.wavefronts += 1
            lane_vertices = unvisited[wf.lanes]
            starts = incoming.row_offsets[lane_vertices]
            degs = incoming.degrees[lane_vertices]
            done = np.zeros(lane_vertices.size, dtype=bool)
            pos = 0
            while True:
                scanning = ~done & (degs > pos)
                if not scanning.any():
                    break
                stats.serialized_steps += 1
                stats.idle_lane_steps += int(self.width - scanning.sum())
                for lane in np.flatnonzero(scanning):
                    nbr = int(incoming.col_indices[starts[lane] + pos])
                    if status[nbr] == level:
                        promoted.append(int(lane_vertices[lane]))
                        done[lane] = True  # early termination
                pos += 1
        status[np.asarray(promoted, dtype=np.int64)] = level + 1
        return np.asarray(promoted, dtype=np.int64), stats

    # ------------------------------------------------------------------
    def bfs(self, source: int, *, strategy: str = "scan_free") -> np.ndarray:
        """Full lane-accurate BFS (small graphs only).

        ``strategy`` is ``"scan_free"`` or ``"bottom_up"``; the result
        is the level array, comparable to any other engine's.
        """
        graph = self.graph
        if not 0 <= source < graph.num_vertices:
            raise TraversalError(f"source {source} out of range")
        status = np.full(graph.num_vertices, UNVISITED, dtype=np.int32)
        status[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        while frontier.size:
            if strategy == "scan_free":
                frontier, _ = self.scan_free_level(status, frontier, level)
            elif strategy == "bottom_up":
                frontier, _ = self.bottom_up_level(
                    status, level, reverse_graph=graph.transpose
                )
            else:
                raise TraversalError(f"unknown strategy {strategy!r}")
            level += 1
        return status
