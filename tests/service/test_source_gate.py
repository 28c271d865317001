"""A query whose source is not a vertex of its graph is refused alone.

The dispatch gate checks every member of a coalesced group beside its
deadline. A bad source gets the typed ``"source"`` rejection; the rest
of its group is served exactly as if the bad query had never arrived.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.cluster import ClusterRouter
from repro.errors import AdmissionError, InvalidSourceError
from repro.obs.audit import AuditLog
from repro.service import BFSService, Query, QueryOptions
from repro.service.admission import AdmissionController
from repro.service.config import Observers, ServiceConfig
from repro.service.registry import GraphRegistry

N = 512  # vertices of rmat:9


def _trace(sources, *, t_ms=0.0, **options):
    return [
        Query(qid=i, graph="rmat:9", source=s, arrival_ms=t_ms,
              options=QueryOptions(**options))
        for i, s in enumerate(sources)
    ]


def _served(report) -> dict:
    """source -> (levels, start, finish, batch, engine) of each answer."""
    return {
        o.query.source: (o.levels.tobytes(), o.start_ms, o.finish_ms,
                         o.batch_sources, o.engine)
        for o in report.served
    }


def _replay(queries):
    return BFSService(workers=1, seed=0).replay(queries)


@pytest.mark.parametrize("bad", [999999, N, -1, -N - 1, 1.5, True, "7"])
def test_bad_source_rejected_alone_in_a_batch(bad):
    with_bad = _replay(_trace([3, bad, 5]))
    clean = _replay(_trace([3, 5]))
    assert [o.rejected for o in with_bad.rejections] == ["source"]
    assert with_bad.rejections[0].query.source is bad
    assert _served(with_bad) == _served(clean)
    assert with_bad.metrics.rejected_source == 1
    assert with_bad.summary()["rejected_source"] == 1


def test_bad_source_rejected_alone_on_the_solo_path():
    """Uncoalescable options route each query to its own solo run."""
    with_bad = _replay(_trace([3, 999999, 5], record_parents=True))
    clean = _replay(_trace([3, 5], record_parents=True))
    assert [o.rejected for o in with_bad.rejections] == ["source"]
    assert _served(with_bad) == _served(clean)


def test_group_of_only_bad_sources_dispatches_nothing():
    report = _replay(_trace([N, N + 1]))
    assert report.served == []
    assert [o.rejected for o in report.rejections] == ["source", "source"]
    assert report.metrics.dispatches == 0


def test_clean_summary_has_no_source_key():
    """The fingerprinted key set of a clean trace must not drift."""
    summary = _replay(_trace([3, 5])).summary()
    assert "rejected_source" not in summary


def test_cold_dispatch_builds_its_graph_once():
    """The gate needs the vertex count before the registry lookup; the
    graph it builds for that is the one the lookup then caches."""
    from repro.cli import parse_graph_spec

    calls = []

    def builder(spec):
        calls.append(spec)
        return parse_graph_spec(spec)

    registry = GraphRegistry(builder=builder)
    report = BFSService(registry=registry, workers=1).replay(_trace([3, N, 5]))
    assert calls == ["rmat:9"]
    assert len(report.served) == 2
    assert registry.num_vertices("rmat:9") == N


def test_check_source_is_typed_and_audited():
    audit = AuditLog()
    ctl = AdmissionController(ServiceConfig(), Observers.of(audit=audit))
    ctl.check_source(Query(qid=1, graph="g", source=np.int64(4)), 5)
    with pytest.raises(InvalidSourceError) as exc:
        ctl.check_source(Query(qid=2, graph="g", source=5), 5)
    assert isinstance(exc.value, AdmissionError)
    assert exc.value.kind == "source"
    assert ctl.stats()["rejected_source"] == 1
    assert [r.decision for r in audit.for_query(2)] == ["rejected:source"]


def test_cluster_rejects_bad_source_alone():
    def run(sources):
        router = ClusterRouter(replicas=2, workers=1, seed=0)
        return router.replay(_trace(sources))

    with_bad, clean = run([3, 999999, 5]), run([3, 5])
    assert [o.rejected for o in with_bad.rejections] == ["source"]
    assert [o.levels.tobytes() for o in with_bad.served] == [
        o.levels.tobytes() for o in clean.served
    ]
    assert with_bad.summary()["rejected_source"] == 1


def test_serve_cli_serves_the_rest(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"t_ms": 0.0, "graph": "rmat:9", "source": 3}\n'
        '{"t_ms": 0.0, "graph": "rmat:9", "source": 999999}\n'
        '{"t_ms": 0.0, "graph": "rmat:9", "source": 5}\n'
    )
    rc = main(["serve", "--trace", str(path), "--validate"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "served:     2 queries" in out
    assert "source=1" in out
    assert "all levels match" in out
