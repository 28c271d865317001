"""Seeded generators: same seed, same inputs; the promised structure."""

import numpy as np
import pytest

import workloads as W
import worker


@pytest.fixture(scope="module")
def graphs():
    return W.build_graphs(sorted({g for gs in W.WORKLOAD_GRAPHS.values() for g in gs}))


def same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_generators_are_deterministic_per_seed(graphs, workload):
    sub = {g: graphs[g] for g in W.WORKLOAD_GRAPHS[workload]}
    one = W.make_inputs(workload, 5, sub)
    assert same(one, W.make_inputs(workload, 5, sub))
    assert not same(one, W.make_inputs(workload, 6, sub))


def test_tenant_trace_mix(graphs):
    pools = {g: W.source_pool(graphs[g]) for g in W.TENANT_GRAPHS}
    trace = W.tenant_trace(3, pools)
    assert len(trace) == W.TENANT_QUERIES
    qos = [q.qos for q in trace]
    assert qos.count("interactive") == round(W.TENANT_INTERACTIVE_FRAC * len(trace))
    assert {q.tenant for q in trace} == {f"t{i}" for i in range(W.TENANT_TENANTS)}
    assert all(graphs[q.graph].degrees[q.source] > 0 for q in trace)
    fast = W.tenant_trace(3, pools, rate_scale=2.0)
    assert [q.source for q in fast] == [q.source for q in trace]
    assert fast[-1].arrival_ms == pytest.approx(trace[-1].arrival_ms / 2)


def test_write_trace_shape(graphs):
    pools = {g: W.source_pool(graphs[g]) for g in W.WRITE_GRAPHS}
    trace = W.write_trace(4, graphs, pools)
    muts = [q for q in trace if q.is_mutation]
    assert len(muts) == W.WRITE_ROUNDS
    assert all(m.delta.num_inserts == W.WRITE_INSERTS for m in muts)
    assert [m.delta.num_deletes for m in muts] == [
        int(i % W.WRITE_DELETE_EVERY == W.WRITE_DELETE_PHASE)
        for i in range(W.WRITE_ROUNDS)]
    for m in muts:
        g = graphs[m.graph]
        for u, v in m.delta.deletes:
            row = g.col_indices[g.row_offsets[u]:g.row_offsets[u + 1]]
            assert v in row
    analytics = [q for q in trace if q.tenant == "analytics"]
    assert len(analytics) == W.WRITE_ANALYTICS * (W.WRITE_ROUNDS // W.WRITE_ANALYTICS_EVERY)
    times = [q.arrival_ms for q in trace]
    assert times == sorted(times)


def test_pod_trace_starts_with_the_probe(graphs):
    pools = {W.POD_GRAPH: W.source_pool(graphs[W.POD_GRAPH])}
    trace = W.pod_trace(1, graphs[W.POD_GRAPH], pools)
    assert trace[0].source == int(np.argmax(graphs[W.POD_GRAPH].degrees))
    assert len(trace) == 1 + W.POD_BURSTS * W.POD_BURST


def test_tail_is_the_highest_percentile_with_ten_beyond():
    vals = list(range(100))
    value, pct, n = worker.tail(vals)
    assert (value, n) == (89, 100) and pct == pytest.approx(90.0)
    assert sum(v > value for v in vals) == 10
    assert worker.tail([3.0, 1.0])[0] == 1.0


def outcome(qid, arrival, finish):
    from repro.service.request import Query, QueryOutcome

    return QueryOutcome(query=Query(qid=qid, graph="g", source=0,
                                    arrival_ms=arrival),
                        levels=None, start_ms=arrival, finish_ms=finish)


def test_backlog_growth_tells_a_steady_queue_from_a_growing_one():
    steady = [outcome(i, float(i), i + 3.0) for i in range(40)]
    assert worker.backlog_growth(steady) == pytest.approx(1.0)
    # Service slower than arrivals: each answer waits for the last.
    growing = [outcome(i, float(i), 2.0 * i + 3.0) for i in range(40)]
    assert worker.backlog_growth(growing) > worker.BACKLOG_GROWTH_LIMIT
