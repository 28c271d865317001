"""Strongly connected components by forward-backward BFS.

The introduction's first motivating application: "the SCC detection
algorithm utilizes both forward and backward BFS to identify SCCs
within directed graphs" (iSpan / Slota et al.). This is the classic
FW-BW algorithm: pick a pivot, BFS forward on the graph and backward on
its transpose; the intersection of the two reachable sets is the
pivot's SCC; recurse on the three remainder partitions.

Both directions run on the same simulated GCD through the public
:class:`~repro.xbfs.driver.XBFS` engine, so the result carries the
modelled cost of every traversal launched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraversalError
from repro.gcd.device import DeviceProfile, MI250X_GCD
from repro.gcd.kernel import ExecConfig
from repro.graph.csr import CSRGraph
from repro.xbfs.common import gather_neighbors
from repro.xbfs.driver import XBFS

__all__ = ["SccResult", "strongly_connected_components"]


@dataclass
class SccResult:
    """SCC labelling of a directed graph."""

    labels: np.ndarray
    num_sccs: int
    elapsed_ms: float
    bfs_runs: int

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_sccs)


def strongly_connected_components(
    graph: CSRGraph,
    *,
    device: DeviceProfile = MI250X_GCD,
    config: ExecConfig | None = None,
    max_pivots: int | None = None,
) -> SccResult:
    """FW-BW SCC decomposition using XBFS for both sweeps.

    ``max_pivots`` bounds the number of pivot rounds (useful to cap
    cost on graphs with very many tiny SCCs); remaining unlabelled
    vertices are then each their own singleton SCC.
    """
    n = graph.num_vertices
    if n == 0:
        raise TraversalError("empty graph")
    forward = XBFS(graph, device=device, config=config)
    backward = XBFS(graph.transpose, device=device, config=config)

    labels = np.full(n, -1, dtype=np.int64)
    # Work-list of candidate masks to decompose (FW-BW partitions).
    pending: list[np.ndarray] = [np.ones(n, dtype=bool)]
    elapsed = 0.0
    runs = 0
    label = 0
    pivots = 0

    def trim(mask: np.ndarray) -> int:
        """Peel trivial SCCs: a vertex with no in- or out-neighbour
        inside the candidate set is its own SCC (the iSpan/Slota
        trimming step — most SCCs of real graphs fall here, and each
        one trimmed saves two BFS launches). Iterates to fixpoint."""
        nonlocal label
        trimmed = 0
        while True:
            members = np.flatnonzero(mask & (labels < 0))
            if members.size == 0:
                break
            nbrs_out, owner_out = gather_neighbors(graph, members)
            live_out = mask[nbrs_out] & (labels[nbrs_out] < 0)
            out_deg = np.bincount(
                owner_out[live_out], minlength=members.size
            )
            nbrs_in, owner_in = gather_neighbors(backward.graph, members)
            live_in = mask[nbrs_in] & (labels[nbrs_in] < 0)
            in_deg = np.bincount(owner_in[live_in], minlength=members.size)
            trivial = members[(out_deg == 0) | (in_deg == 0)]
            if trivial.size == 0:
                break
            for v in trivial.tolist():
                labels[v] = label
                label += 1
            trimmed += int(trivial.size)
        return trimmed

    while pending:
        mask = pending.pop()
        trim(mask)
        members = np.flatnonzero(mask & (labels < 0))
        if members.size == 0:
            continue
        if members.size == 1:
            labels[members[0]] = label
            label += 1
            continue
        if max_pivots is not None and pivots >= max_pivots:
            # Degrade gracefully: remaining vertices become singletons.
            for v in members.tolist():
                labels[v] = label
                label += 1
            continue
        pivots += 1
        pivot = int(members[0])

        fw = forward.run(pivot)
        bw = backward.run(pivot)
        elapsed += fw.elapsed_ms + bw.elapsed_ms
        runs += 2
        fw_reach = (fw.levels >= 0) & mask
        bw_reach = (bw.levels >= 0) & mask

        scc = fw_reach & bw_reach
        labels[scc & (labels < 0)] = label
        label += 1

        # The three remainders cannot straddle the pivot's SCC.
        for part in (
            fw_reach & ~scc,
            bw_reach & ~scc,
            mask & ~fw_reach & ~bw_reach,
        ):
            if np.any(part & (labels < 0)):
                pending.append(part)

    return SccResult(
        labels=labels, num_sccs=label, elapsed_ms=elapsed, bfs_runs=runs
    )
