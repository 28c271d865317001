"""Retired graph versions, dropped services and dropped clusters are
freed by reference counting alone: no entry, engine slot or builder
closure strongly references its owner, so nothing waits for a
cyclic-GC pass."""

import gc
import weakref
from contextlib import contextmanager

import numpy as np

from repro.cluster import ClusterRouter, multi_tenant_trace
from repro.graph.delta import GraphDelta, random_delta
from repro.graph.generators import rmat
from repro.service import BFSService, Query
from repro.service.registry import GraphRegistry


def _builder(spec: str):
    return rmat(int(spec), 8, seed=0)


class _Engine:
    warm_bytes = 4096


@contextmanager
def gc_disabled():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def cyclic_repro_garbage() -> list[str]:
    """Type names of ``repro`` objects only the cyclic collector frees."""
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sorted(
            f"{type(o).__module__}.{type(o).__qualname__}"
            for o in gc.garbage
            if type(o).__module__.startswith("repro")
        )
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)


def test_retired_version_freed_without_gc():
    with gc_disabled():
        reg = GraphRegistry(memory_budget_bytes=1 << 30, builder=_builder)
        entry, _ = reg.get("8")
        entry.engines["xbfs"] = _Engine()
        entry.store_levels(0, np.zeros(entry.graph.num_vertices))
        graph_ref = weakref.ref(entry.graph)
        entry_ref = weakref.ref(entry)
        delta = random_delta(entry.graph, num_inserts=3, seed=1)
        del entry
        fresh = reg.mutate("8", delta)
        assert fresh is not None and fresh.level_bytes > 0
        assert entry_ref() is None
        assert graph_ref() is None


def test_dropped_registry_freed_without_gc():
    with gc_disabled():
        reg = GraphRegistry(memory_budget_bytes=1 << 30)  # default builder
        entry, _ = reg.get("rmat:8")
        entry.engines["xbfs"] = _Engine()
        reg_ref, graph_ref = weakref.ref(reg), weakref.ref(entry.graph)
        del reg, entry
        assert reg_ref() is None
        assert graph_ref() is None


def test_dropped_service_leaves_no_cyclic_garbage():
    with gc_disabled():
        svc = BFSService()
        queries = [Query(qid=i, graph="rmat:8", source=i, arrival_ms=0.0)
                   for i in range(8)]
        queries.append(Query(qid=8, graph="rmat:8", source=0, arrival_ms=1.0,
                             op="mutate", delta=GraphDelta(inserts=((1, 2),))))
        # Fresh sources: no repair basis, so the new version warms engines.
        queries += [Query(qid=9 + i, graph="rmat:8", source=8 + i,
                          arrival_ms=2.0) for i in range(8)]
        report = svc.replay(queries)
        assert len(report.served) == sum(q.op == "bfs" for q in queries)
        entry, _ = svc.registry.get("rmat:8")
        assert entry.version == 1 and entry.engines
        del svc, report, queries, entry
        assert cyclic_repro_garbage() == []


def test_dropped_router_leaves_no_cyclic_garbage():
    """The router's shared graph cache and placement sizing close over
    a local cache, never the router, so dropping a cluster with warm
    replicas frees it by reference counting alone."""
    with gc_disabled():
        router = ClusterRouter(replicas=3, workers=1)
        sizes = {"rmat:8": 256, "rmat:9": 512}
        trace = multi_tenant_trace(list(sizes), sizes, num_queries=48, seed=1)
        report = router.replay(trace)
        assert report.served
        assert all(len(r.registry) for r in router.replicas)
        del router, report, trace
        assert cyclic_repro_garbage() == []


class TestLedger:
    def test_bytes_track_ground_truth_through_attach_retire_evict(self):
        reg = GraphRegistry(memory_budget_bytes=1 << 30, builder=_builder)
        a, _ = reg.get("8")
        reg.get("9")
        a.engines["xbfs"] = _Engine()
        a.store_levels(3, np.zeros(a.graph.num_vertices))
        assert reg.bytes_cached == reg.recompute_bytes_cached()
        fresh = reg.mutate("8", random_delta(a.graph, num_inserts=2, seed=4))
        assert reg.bytes_cached == reg.recompute_bytes_cached()
        # A retired entry's engine slots no longer charge the registry.
        a.engines["late"] = _Engine()
        assert reg.bytes_cached == reg.recompute_bytes_cached()
        fresh.engines["xbfs"] = _Engine()
        assert reg.bytes_cached == reg.recompute_bytes_cached()
        reg.evict(1)
        assert reg.bytes_cached == reg.recompute_bytes_cached()
        fresh.engines.clear()
        assert reg.bytes_cached == reg.recompute_bytes_cached()
