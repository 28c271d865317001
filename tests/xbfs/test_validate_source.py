"""Source validation shared by every single-source engine.

A BFS source must be an integer vertex id. A scalar bool indexes a
numpy array as a mask, so ``run(True)`` used to seed every vertex at
level 0 and return a wrong answer; floats and strings escaped as raw
``IndexError``/``TypeError``. Each engine now refuses all of them with
the typed :class:`~repro.errors.TraversalError`.
"""

import numpy as np
import pytest

from repro.errors import TraversalError
from repro.graph.csr import CSRGraph
from repro.multigcd import Grid2dBFS, MultiGcdBFS
from repro.xbfs.common import validate_source
from repro.xbfs.driver import XBFS

PATH = CSRGraph.from_edges(
    np.arange(7, dtype=np.int64),
    np.arange(1, 8, dtype=np.int64),
    8,
    symmetrize=True,
)

ENGINES = {
    "xbfs": lambda g: XBFS(g),
    "multigcd": lambda g: MultiGcdBFS(g, 2),
    "grid2d": lambda g: Grid2dBFS(g, 4),
}

BAD_SOURCES = [
    True,
    False,
    np.bool_(True),
    2.0,
    2.5,
    np.float64(3.0),
    "3",
    None,
    [3],
    -1,
    8,
    np.int64(8),
]

GOOD_SOURCES = [3, np.int64(3), np.int32(3), np.uint8(3), np.array(3)]


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("source", BAD_SOURCES, ids=repr)
def test_engine_refuses_bad_source(engine, source):
    with pytest.raises(TraversalError):
        ENGINES[engine](PATH).run(source)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("source", GOOD_SOURCES, ids=repr)
def test_engine_accepts_integer_source(engine, source):
    levels = ENGINES[engine](PATH).run(source).levels
    assert levels.tolist() == [3, 2, 1, 0, 1, 2, 3, 4]


@pytest.mark.parametrize("source", GOOD_SOURCES, ids=repr)
def test_validate_source_returns_plain_int(source):
    vertex = validate_source(source, 8)
    assert type(vertex) is int and vertex == 3


@pytest.mark.parametrize("source", BAD_SOURCES, ids=repr)
def test_validate_source_is_typed(source):
    with pytest.raises(TraversalError):
        validate_source(source, 8)


def test_out_of_range_message_names_the_bounds():
    with pytest.raises(TraversalError, match=r"source 8 out of range \[0, 8\)"):
        validate_source(8, 8)
