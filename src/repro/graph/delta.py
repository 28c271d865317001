"""Edge-delta mutations for :class:`~repro.graph.csr.CSRGraph`.

A :class:`GraphDelta` is one batch of edge inserts and deletes with
*set semantics*: inserting an edge that already exists is a no-op,
deleting an edge removes every parallel copy, and an edge may not
appear on both sides of one delta.

:func:`apply_delta` splices a delta into a canonical CSR (adjacency
sorted by neighbour id, the layout :meth:`CSRGraph.from_edges` builds):
one ``searchsorted`` per delta edge finds its ``[left, right)`` range in
its row, deletes cut those ranges out, fresh inserts go in at their
sorted positions, and the row offsets shift by a prefix sum of the
per-row count changes. The cost is one O(M) copy of the adjacency (two
when the delta both inserts and deletes) — no sort and no hashing of
the edge set — and the output is bit-identical
to :func:`apply_delta_reference`, which rebuilds the mutated edge list
from scratch through :meth:`CSRGraph.from_edges`. The reference stays
the oracle: validators reconstruct past versions with it, and the
differential tests hold the splice to it bit for bit.

Deltas are immutable, hashable, JSON-round-trippable (the ``repro
mutate`` trace op) and deterministic to generate
(:func:`random_delta`), which is what the mutation differential tests
and the repair-vs-recompute bench replay against. A malformed record
raises :class:`~repro.errors.MutationError`, never a bare
``ValueError`` or ``TypeError``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from repro.errors import GraphFormatError, MutationError
from repro.graph.csr import CSRGraph

__all__ = ["GraphDelta", "apply_delta", "apply_delta_reference", "random_delta"]


def _vertex(x, pair) -> int:
    """``x`` as a vertex id: an integer, never a bool, float or string."""
    if isinstance(x, (bool, np.bool_)):
        raise MutationError(f"delta edge {pair!r} has a boolean endpoint")
    try:
        v = operator.index(x)
    except TypeError as exc:
        raise MutationError(
            f"delta edge {pair!r} has a non-integer endpoint {x!r}"
        ) from exc
    if v < 0:
        raise MutationError(f"delta edge {pair!r} has a negative endpoint")
    return v


def _normalise(edges) -> tuple[tuple[int, int], ...]:
    """Sorted, deduplicated ``((u, v), ...)`` tuple of int pairs."""
    try:
        pairs = list(edges)
    except TypeError as exc:
        raise MutationError(
            f"delta edges must be a list of (u, v) pairs, got {edges!r}"
        ) from exc
    out = set()
    for pair in pairs:
        try:
            u, v = pair
        except (TypeError, ValueError) as exc:
            raise MutationError(f"delta edge {pair!r} is not a (u, v) pair") from exc
        out.add((_vertex(u, pair), _vertex(v, pair)))
    return tuple(sorted(out))


@dataclass(frozen=True)
class GraphDelta:
    """One batch of edge mutations (set semantics, canonical order).

    ``inserts`` and ``deletes`` are normalised to sorted, deduplicated
    tuples on construction, so two deltas describing the same mutation
    compare (and hash) equal whatever order they were written in.
    """

    inserts: tuple[tuple[int, int], ...] = ()
    deletes: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "inserts", _normalise(self.inserts))
        object.__setattr__(self, "deletes", _normalise(self.deletes))
        overlap = set(self.inserts) & set(self.deletes)
        if overlap:
            raise MutationError(
                f"delta inserts and deletes overlap on {sorted(overlap)[:4]}; "
                f"split the mutation into two ordered deltas instead"
            )

    # ------------------------------------------------------------------
    @property
    def num_inserts(self) -> int:
        return len(self.inserts)

    @property
    def num_deletes(self) -> int:
        return len(self.deletes)

    @property
    def num_edges(self) -> int:
        """Total edge endpoints touched by this delta."""
        return len(self.inserts) + len(self.deletes)

    @property
    def is_empty(self) -> bool:
        return not self.inserts and not self.deletes

    @property
    def insert_only(self) -> bool:
        """True when the delta never removes an edge — the shape the
        incremental BFS repair path can consume (levels only ever
        decrease under inserts)."""
        return not self.deletes

    # ------------------------------------------------------------------
    def validate(self, num_vertices: int) -> None:
        """Raise :class:`MutationError` when any endpoint is out of range."""
        for u, v in (*self.inserts, *self.deletes):
            if u >= num_vertices or v >= num_vertices:
                raise MutationError(
                    f"delta edge ({u}, {v}) out of range for "
                    f"{num_vertices} vertices"
                )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able record (the trace-op payload)."""
        rec: dict = {}
        if self.inserts:
            rec["insert"] = [[u, v] for u, v in self.inserts]
        if self.deletes:
            rec["delete"] = [[u, v] for u, v in self.deletes]
        return rec

    @classmethod
    def from_dict(cls, rec: dict) -> "GraphDelta":
        """Parse a trace-op payload; malformed records raise
        :class:`MutationError`."""
        if not isinstance(rec, dict):
            raise MutationError(f"delta record must be an object, got {rec!r}")
        return cls(inserts=rec.get("insert", ()), deletes=rec.get("delete", ()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphDelta(+{self.num_inserts} edges, -{self.num_deletes} edges)"


def _edge_keys(src: np.ndarray, dst: np.ndarray, num_vertices: int) -> np.ndarray:
    return src.astype(np.int64) * int(num_vertices) + dst.astype(np.int64)


def _pairs_to_keys(pairs, num_vertices: int) -> np.ndarray:
    if not pairs:
        return np.zeros(0, dtype=np.int64)
    arr = np.asarray(pairs, dtype=np.int64)
    return arr[:, 0] * int(num_vertices) + arr[:, 1]


def _is_canonical(graph: CSRGraph) -> bool:
    """True when every adjacency list is sorted by neighbour id."""
    cols = graph.col_indices
    descents = np.flatnonzero(cols[1:] < cols[:-1]) + 1
    offsets = graph.row_offsets
    return bool(np.all(offsets[np.searchsorted(offsets, descents)] == descents))


def _ranges(graph: CSRGraph, pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(pairs, left, right)``: the ``[left, right)`` range of every
    ``(u, v)`` among row ``u``'s sorted neighbours (empty when absent)."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    offsets, cols = graph.row_offsets, graph.col_indices
    left = np.empty(len(arr), dtype=np.int64)
    right = np.empty(len(arr), dtype=np.int64)
    for i, (u, v) in enumerate(arr):
        lo = offsets[u]
        row = cols[lo : offsets[u + 1]]
        left[i] = lo + np.searchsorted(row, v, side="left")
        right[i] = lo + np.searchsorted(row, v, side="right")
    return arr, left, right


def apply_delta(graph: CSRGraph, delta: GraphDelta) -> CSRGraph:
    """Return the mutated graph as a fresh canonical CSR.

    Splices ``delta`` into the CSR in order: deletes cut out the range
    of every parallel copy of each listed edge, inserts of edges already
    present are skipped, the rest go in with one ``np.insert`` at their
    sorted positions, and the row offsets shift by a prefix sum of the
    per-row count changes. One O(M) copy of the adjacency per side of
    the delta, no sort and no hashing of the edge set. A
    graph whose adjacency is not sorted (a ``file:`` CSR, a re-arranged
    graph) is canonicalised through :meth:`CSRGraph.from_edges` first.
    The output is bit-identical to :func:`apply_delta_reference`; the
    input graph is never touched (CSR containers are immutable).
    """
    delta.validate(graph.num_vertices)
    n = graph.num_vertices
    if not _is_canonical(graph):
        graph = CSRGraph.from_edges(*graph.to_edge_arrays(), n, name=graph.name)
    cols = graph.col_indices
    #: ``change[u + 1]`` is row ``u``'s edge-count change.
    change = np.zeros(n + 1, dtype=np.int64)
    drop = np.zeros(0, dtype=np.int64)
    if delta.deletes:
        pairs, left, right = _ranges(graph, delta.deletes)
        drop = np.concatenate([drop, *map(np.arange, left, right)])
        np.subtract.at(change, pairs[:, 0] + 1, right - left)
        cols = np.delete(cols, drop)
    if delta.inserts:
        pairs, left, right = _ranges(graph, delta.inserts)
        # Set semantics: an insert of an existing edge is a no-op, so
        # the base graph's parallel edges survive untouched.
        fresh = left == right
        pairs, at = pairs[fresh], left[fresh]
        # ``drop`` is ascending and no insert lands inside a dropped
        # range, so shift each position back by the drops before it.
        at -= np.searchsorted(drop, at)
        cols = np.insert(cols, at, pairs[:, 1])
        np.add.at(change, pairs[:, 0] + 1, 1)
    offsets = graph.row_offsets + np.cumsum(change)
    return CSRGraph(offsets, cols, name=graph.name)


def apply_delta_reference(graph: CSRGraph, delta: GraphDelta) -> CSRGraph:
    """Return the mutated graph rebuilt from scratch by ``from_edges``.

    The edge list minus the deletes plus the fresh inserts goes through
    :meth:`CSRGraph.from_edges`: O(M log M). This is the oracle
    :func:`apply_delta` is tested against and the path validators
    reconstruct past versions with, so a splice bug cannot corrupt the
    served graph and its check alike.
    """
    delta.validate(graph.num_vertices)
    n = graph.num_vertices
    src, dst = graph.to_edge_arrays()
    keys = _edge_keys(src, dst, n)
    if delta.deletes:
        del_keys = _pairs_to_keys(delta.deletes, n)
        keep = ~np.isin(keys, del_keys)
        src, dst, keys = src[keep], dst[keep], keys[keep]
    if delta.inserts:
        ins = np.asarray(delta.inserts, dtype=np.int64)
        ins_keys = _pairs_to_keys(delta.inserts, n)
        fresh = ~np.isin(ins_keys, keys)
        src = np.concatenate([src.astype(np.int64), ins[fresh, 0]])
        dst = np.concatenate([dst.astype(np.int64), ins[fresh, 1]])
    return CSRGraph.from_edges(src, dst, n, name=graph.name)


def random_delta(
    graph: CSRGraph,
    *,
    num_inserts: int = 0,
    num_deletes: int = 0,
    seed: int = 0,
) -> GraphDelta:
    """Deterministic random delta against ``graph``.

    Inserts are drawn uniformly from vertex pairs *not* currently in
    the graph (no self-loops); deletes uniformly from distinct existing
    edges. Fully determined by ``seed`` — the mutation differential
    tests and ``bench_mutation`` replay these.
    """
    n = graph.num_vertices
    if n < 2 and num_inserts:
        raise GraphFormatError("cannot insert edges into a <2-vertex graph")
    rng = np.random.default_rng(seed)
    src, dst = graph.to_edge_arrays()
    existing = set(map(int, _edge_keys(src, dst, n)))

    inserts: list[tuple[int, int]] = []
    picked: set[int] = set()
    while len(inserts) < num_inserts:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        key = u * n + v
        if u == v or key in existing or key in picked:
            continue
        picked.add(key)
        inserts.append((u, v))

    deletes: list[tuple[int, int]] = []
    if num_deletes:
        uniq = np.unique(_edge_keys(src, dst, n))
        if num_deletes > uniq.size:
            raise GraphFormatError(
                f"cannot delete {num_deletes} distinct edges from a graph "
                f"with {uniq.size}"
            )
        chosen = rng.choice(uniq, size=num_deletes, replace=False)
        deletes = [(int(k) // n, int(k) % n) for k in chosen]
    return GraphDelta(inserts=tuple(inserts), deletes=tuple(deletes))
