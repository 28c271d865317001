"""Bit-packed frontier bitmaps shared by the linear-algebra engines.

The linear-algebra view of BFS replaces per-vertex frontier queues with
a Boolean matrix: entry ``(v, s)`` means "vertex *v* is on source *s*'s
frontier". Both the fixed-direction baseline
(:class:`repro.baselines.linalg.LinAlgBFS`, one source) and the batched
serving engine (:class:`repro.xbfs.linalg_batch.LinAlgBatchBFS`, up to
:data:`~repro.xbfs.linalg_batch.MAX_LINALG_BATCH` sources) operate on
the same representation: the source axis packed 64-to-a-word into a
``(num_vertices, words)`` ``uint64`` array, so one AND/OR retires 64
sources and the masked semiring product

    next = (Aᵀ · F) ⊙ ¬visited

is a handful of word-wide vector ops. This module is the single
implementation of those packbits frontier ops — the scatter-OR push
product, the segment-OR pull gather, the ``¬visited`` mask, the
pack/unpack conversions, and the bit-sliced level counter that tracks
every pair's BFS level in packed planes. Engines differ only in
*which* ops they launch per level and what cost they charge, never in
the arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraversalError

__all__ = [
    "WORD_BITS",
    "words_for",
    "make_bitmap",
    "set_source_bits",
    "full_row_mask",
    "scatter_or_rows",
    "segment_or_rows",
    "fresh_mask",
    "occupied_rows",
    "popcount_rows",
    "pack_rows",
    "unpack_rows",
    "counter_add",
    "counter_levels",
]

#: Sources per bitmap word.
WORD_BITS = 64

_WORD = np.uint64
_ONE = np.uint64(1)
#: Vertices per block of the level decode's final transpose.
_TRANSPOSE_BLOCK = 1024


def words_for(num_sources: int) -> int:
    """Words needed to hold one bit per source."""
    if num_sources < 1:
        raise TraversalError(
            f"a bitmap needs at least one source, got {num_sources}"
        )
    return (num_sources + WORD_BITS - 1) // WORD_BITS


def make_bitmap(num_vertices: int, num_sources: int) -> np.ndarray:
    """All-zero ``(num_vertices, words)`` uint64 bitmap."""
    return np.zeros((num_vertices, words_for(num_sources)), dtype=_WORD)


def set_source_bits(bitmap: np.ndarray, sources: np.ndarray) -> None:
    """Set bit *i* on row ``sources[i]`` (slot *i* owns bit *i*).

    Callers must have rejected duplicate sources already — two slots on
    one row would alias a single bit (the same hazard
    :func:`repro.xbfs.concurrent.validate_batch_sources` guards).
    """
    sources = np.asarray(sources, dtype=np.int64)
    slots = np.arange(sources.size, dtype=np.int64)
    np.bitwise_or.at(
        bitmap,
        (sources, slots // WORD_BITS),
        _ONE << (slots % WORD_BITS).astype(_WORD),
    )


def full_row_mask(num_sources: int) -> np.ndarray:
    """One row's worth of "every source" bits: all words saturated,
    the last word masked down to the valid source count."""
    words = words_for(num_sources)
    mask = np.full(words, ~np.uint64(0), dtype=_WORD)
    tail = num_sources % WORD_BITS
    if tail:
        mask[-1] = (_ONE << np.uint64(tail)) - _ONE
    return mask


def scatter_or_rows(
    dest: np.ndarray, rows: np.ndarray, values: np.ndarray
) -> None:
    """``dest[rows[i]] |= values[i]`` with duplicate rows accumulated.

    The push-direction semiring product: ``rows`` are the gathered
    neighbour endpoints of the frontier's adjacency, ``values`` the
    frontier words of the edge's owner. One call is the whole
    ``Aᵀ · F`` column scatter for a level.
    """
    np.bitwise_or.at(dest, rows, values)


def segment_or_rows(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-segment OR-reduction of consecutive bitmap rows.

    The pull-direction gather: segment *i* holds the frontier words of
    candidate *i*'s in-neighbours; the reduction is that candidate's
    incoming bit set. Zero-length segments reduce to zero words.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    out = np.zeros((lengths.size, values.shape[1]), dtype=_WORD)
    if values.shape[0] == 0 or lengths.size == 0:
        return out
    nonempty = lengths > 0
    starts = (np.cumsum(lengths) - lengths)[nonempty]
    out[nonempty] = np.bitwise_or.reduceat(values, starts, axis=0)
    return out


def fresh_mask(incoming: np.ndarray, visited: np.ndarray) -> np.ndarray:
    """The masked assign of the Boolean semiring: ``incoming ⊙ ¬visited``."""
    return incoming & ~visited


def occupied_rows(bitmap: np.ndarray) -> np.ndarray:
    """Indices of rows with at least one bit set (int64)."""
    return np.flatnonzero(bitmap.any(axis=1)).astype(np.int64)


def popcount_rows(bitmap: np.ndarray) -> np.ndarray:
    """Set bits per row (int64) — how many sources each row carries."""
    return np.bitwise_count(bitmap).sum(axis=1, dtype=np.int64)


def pack_rows(bools: np.ndarray) -> np.ndarray:
    """Pack a ``(rows, num_sources)`` bool matrix into bitmap words."""
    bools = np.asarray(bools, dtype=bool)
    rows, k = bools.shape
    words = words_for(max(k, 1))
    bytes_ = np.packbits(bools, axis=1, bitorder="little")
    padded = np.zeros((rows, words * 8), dtype=np.uint8)
    padded[:, : bytes_.shape[1]] = bytes_
    return padded.view("<u8").astype(_WORD, copy=False)


def _unpack_padded(packed: np.ndarray, num_sources: int) -> np.ndarray:
    """Unpack bitmap rows to contiguous uint8 zeros/ones, every bit of
    each byte that holds a valid source: ``(rows, 8 * ceil(k / 8))``."""
    nbytes = -(-num_sources // 8)
    as_bytes = np.ascontiguousarray(packed.astype("<u8", copy=False)).view(
        np.uint8
    )
    if nbytes != as_bytes.shape[1]:
        as_bytes = np.ascontiguousarray(as_bytes[:, :nbytes])
    # One flat run: unpacking row by row along an axis is several
    # times slower.
    bits = np.unpackbits(as_bytes.reshape(-1), bitorder="little")
    return bits.reshape(packed.shape[0], 8 * nbytes)


def _unpack_bits_u8(packed: np.ndarray, num_sources: int) -> np.ndarray:
    """Unpack bitmap rows to ``(rows, num_sources)`` uint8 zeros/ones."""
    return _unpack_padded(packed, num_sources)[:, :num_sources]


def unpack_rows(packed: np.ndarray, num_sources: int) -> np.ndarray:
    """Unpack bitmap rows back to a ``(rows, num_sources)`` bool matrix."""
    return _unpack_bits_u8(packed, num_sources).astype(bool)


def counter_add(planes: list[np.ndarray], inc: np.ndarray) -> None:
    """Bit-sliced increment: add 1 to every counter whose bit is set in
    ``inc``.

    ``planes[j]`` holds bit *j* of a per-(vertex, source) binary
    counter, so a batch of 2^j-bounded counts costs *j* bitmap planes
    instead of a dense integer matrix. One call is a carry-save adder
    sweep — word-wide AND/XOR per plane, appending a new plane when the
    carry overflows the current width. Amortized over a traversal the
    sweep touches O(1) planes per level, which is what lets the engine
    track every source's BFS level without ever unpacking a
    ``(sources × vertices)`` matrix inside the level loop.
    """
    carry = inc
    for plane in planes:
        if not carry.any():
            return
        next_carry = plane & carry
        plane ^= carry
        carry = next_carry
    if carry.any():
        planes.append(carry.copy())


def counter_levels(
    planes: list[np.ndarray],
    num_vertices: int,
    num_sources: int,
    *,
    unreached: np.ndarray | None = None,
) -> np.ndarray:
    """Decode bit-sliced counters into a ``(num_sources, num_vertices)``
    int32 matrix — one unpack per plane, done once per run.

    With :func:`counter_add` fed ``¬visited`` at the top of every
    level, the decoded count *is* each pair's BFS level: a vertex
    first visited at level *t* was missing from exactly the *t*
    pre-states before it. ``unreached`` (a ``(vertices, sources)`` bool
    matrix) marks pairs that never connected; their counts saturate at
    the traversal depth and decode to -1 instead.

    The accumulation runs vertex-major — the planes' own layout, so
    every pass is over contiguous memory. Up to 7 planes (depth < 128,
    every real traversal) each plane's unpacked 0/1 bytes are shifted
    into place and OR-ed into an int8 byte, and unreached pairs are
    OR-ed to 0xFF, which is -1; byte-wide ops with no casting. Deeper
    traversals (degenerate path-like graphs) add into an int16, or
    int32 past 15 planes. One widening transpose at the very end makes
    the result C-contiguous.
    """
    if len(planes) < 8:
        # Padded to whole bytes so every pass is contiguous; the
        # padding columns are dropped before the transpose.
        acc = np.zeros(
            (num_vertices, 8 * -(-num_sources // 8)), dtype=np.int8
        )
        raw = acc.view(np.uint8)
        for j, plane in enumerate(planes):
            bits = _unpack_padded(plane, num_sources)
            bits <<= np.uint8(j)
            raw |= bits
        if unreached is not None:
            raw[:, :num_sources] |= np.negative(
                np.asarray(unreached, dtype=bool).view(np.uint8)
            )
        acc = acc[:, :num_sources]
    else:
        acc_dtype = np.int32 if len(planes) > 15 else np.int16
        acc = np.zeros((num_vertices, num_sources), dtype=acc_dtype)
        for j, plane in enumerate(planes):
            acc += _unpack_bits_u8(plane, num_sources).astype(acc_dtype) << acc_dtype(j)
        if unreached is not None:
            acc[unreached] = -1
    # Source-major and C-contiguous, so each source's row is one
    # contiguous read. A plain ``acc.T`` copy walks one cache line per
    # element; copying L2-sized vertex blocks keeps the transpose in
    # cache.
    levels = np.empty((num_sources, num_vertices), dtype=np.int32)
    for lo in range(0, num_vertices, _TRANSPOSE_BLOCK):
        levels[:, lo : lo + _TRANSPOSE_BLOCK] = acc[lo : lo + _TRANSPOSE_BLOCK].T
    return levels
