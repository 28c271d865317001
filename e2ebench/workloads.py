"""Seeded inputs and replays of the four benchmark workloads.

Every generator takes the seed as an argument and returns plain
program inputs (``Query`` lists or source arrays); nothing here reads
the clock. The graphs themselves are fixed datasets (graph seed 0,
scale factor 64); the seed draws the load: sources, tenants, QoS
classes and edge deltas.

The arrival schedules are fixed — constant gaps, graphs in a fixed
cycle — and the seed draws sources, tenants and the order of an exact
QoS mix. Free draws of burst graphs and exponential gaps made the
modelled latencies of two seeds differ by 20-40% (interquartile range
over median of ten seeds), more than any regression bound could
tolerate; with fixed schedules the spread is a few percent. Sources are
drawn from vertices with at least one edge, the Graph500 rule, so no
query is a zero-work traversal.
"""

from __future__ import annotations

import numpy as np

GRAPH_SEED = 0
SCALE_FACTOR = 64

SOLO_GRAPHS = ("rmat:16", "LJ", "UP")
SOLO_SOURCES_PER_GRAPH = 24

TENANT_GRAPHS = ("rmat:12", "rmat:13", "LJ", "rmat:16")
TENANT_QUERIES = 640
TENANT_BURST = 8
TENANT_GAP_MS = 1.0
TENANT_TENANTS = 4
TENANT_INTERACTIVE_FRAC = 0.7
TENANT_REPLICAS = 4
#: Interactive-class latency limit: the cluster's default deadline for
#: the interactive QoS class.
INTERACTIVE_LIMIT_MS = 50.0
#: Offered-rate multipliers of the ``modelled_max_rate_qps`` ladder.
RATE_LADDER = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 4.0)

WRITE_GRAPHS = ("rmat:13", "LJ", "rmat:15")
WRITE_ROUNDS = 6
WRITE_ROUND_MS = 20.0
WRITE_LANDMARKS = 16
WRITE_ANALYTICS = 128
WRITE_ANALYTICS_EVERY = 3
WRITE_INSERTS = 4
WRITE_DELETE_EVERY = 12
#: The first delete lands on the third delta, so a later round re-queries
#: the graph it hit and takes the recompute path.
WRITE_DELETE_PHASE = 2
WRITE_LINALG_THRESHOLD = 64

POD_GRAPH = "LJ"
POD_BURSTS = 3
POD_BURST = 12
POD_GAP_MS = 8.0
POD_GCDS = 8
#: Below LJ's 4.4 MB CSR, so every LJ dispatch routes to the pod.
POD_THRESHOLD_MB = 4.0

#: Correctness sample: at most this many (graph, version) groups per
#: run, and this many answers from each, go to the reference oracle.
CHECK_VERSIONS = 4
CHECK_PER_VERSION = 8

WORKLOAD_GRAPHS = {
    "solo_paper": SOLO_GRAPHS,
    "tenant_mix": TENANT_GRAPHS,
    "write_mix": WRITE_GRAPHS,
    "pod_2d": (POD_GRAPH,),
}
WORKLOADS = tuple(WORKLOAD_GRAPHS)


def build_graphs(specs):
    """Build each fixed dataset once (the ``setup.graph_build_s`` cost)."""
    from repro.cli import parse_graph_spec

    return {
        spec: parse_graph_spec(spec, scale_factor=SCALE_FACTOR, seed=GRAPH_SEED)
        for spec in specs
    }


def source_pool(graph) -> np.ndarray:
    """Vertices with at least one out-edge, ascending."""
    return np.flatnonzero(np.asarray(graph.degrees) > 0)


# ----------------------------------------------------------------------
# solo_paper: closed loop, one caller, XBFS.run per source
def solo_sources(seed: int, pools) -> list[tuple[str, int]]:
    """``(graph, source)`` pairs, graphs interleaved round-robin."""
    rng = np.random.default_rng(seed)
    per_graph = {
        spec: rng.choice(pools[spec], SOLO_SOURCES_PER_GRAPH, replace=False)
        for spec in SOLO_GRAPHS
    }
    return [
        (spec, int(per_graph[spec][i]))
        for i in range(SOLO_SOURCES_PER_GRAPH)
        for spec in SOLO_GRAPHS
    ]


# ----------------------------------------------------------------------
# tenant_mix: open loop through a 4-replica cluster
def tenant_trace(seed: int, pools, *, rate_scale: float = 1.0):
    """Multi-tenant bursts: 4 tenants, 70% interactive, bursts of 8
    same-graph queries every ``TENANT_GAP_MS``, the graphs in turn.

    ``rate_scale`` divides every inter-arrival gap, so the same queries
    arrive ``rate_scale`` times as fast (the max-rate ladder).
    """
    from repro.service.request import Query

    rng = np.random.default_rng(seed)
    bursts = -(-TENANT_QUERIES // TENANT_BURST)
    gap = TENANT_GAP_MS / rate_scale
    interactive = round(TENANT_INTERACTIVE_FRAC * TENANT_QUERIES)
    qos = rng.permutation(
        ["interactive"] * interactive + ["batch"] * (TENANT_QUERIES - interactive)
    )
    tenants = rng.integers(TENANT_TENANTS, size=TENANT_QUERIES)
    queries = []
    for b in range(bursts):
        spec = TENANT_GRAPHS[b % len(TENANT_GRAPHS)]
        sources = rng.choice(pools[spec], TENANT_BURST)
        for s in sources[: TENANT_QUERIES - len(queries)]:
            i = len(queries)
            queries.append(
                Query(
                    qid=i,
                    graph=spec,
                    source=int(s),
                    arrival_ms=b * gap,
                    tenant=f"t{int(tenants[i])}",
                    qos=str(qos[i]),
                )
            )
    return queries


# ----------------------------------------------------------------------
# write_mix: reads beside writes on one service
def _delta(rng, graph, pool, index: int, deleted: set):
    from repro.graph.delta import GraphDelta

    n = graph.num_vertices
    inserts = set()
    while len(inserts) < WRITE_INSERTS:
        u, v = (int(x) for x in rng.integers(n, size=2))
        if u != v:
            inserts.add((u, v))
    deletes = ()
    if index % WRITE_DELETE_EVERY == WRITE_DELETE_PHASE:
        # An edge of the base graph not deleted before: it exists at
        # every version, since inserts never remove edges.
        while True:
            u = int(rng.choice(pool))
            lo, hi = graph.row_offsets[u], graph.row_offsets[u + 1]
            v = int(graph.col_indices[int(rng.integers(lo, hi))])
            if (u, v) not in deleted and (u, v) not in inserts:
                deleted.add((u, v))
                deletes = ((u, v),)
                break
    return GraphDelta(inserts=tuple(sorted(inserts)), deletes=deletes)


def write_trace(seed: int, graphs, pools):
    """Rounds over ``rmat:13``, ``LJ``, ``rmat:15`` in turn.

    Each round a dashboard tenant re-queries its 16 landmarks of the
    round's graph (interactive), every third round an analytics tenant
    bursts 128 distinct random sources on the graphs in turn (batch),
    and then a writer applies a 4-edge insert delta to the round's
    graph; every 12th delta also deletes one edge.
    """
    from repro.service.request import Query

    rng = np.random.default_rng(seed)
    landmarks = {
        spec: rng.choice(pools[spec], WRITE_LANDMARKS, replace=False)
        for spec in WRITE_GRAPHS
    }
    deleted = {spec: set() for spec in WRITE_GRAPHS}
    queries = []

    def add(**kw):
        queries.append(Query(qid=len(queries), **kw))

    for r in range(WRITE_ROUNDS):
        spec = WRITE_GRAPHS[r % len(WRITE_GRAPHS)]
        t = r * WRITE_ROUND_MS
        for s in landmarks[spec]:
            add(graph=spec, source=int(s), arrival_ms=t,
                tenant="dashboard", qos="interactive")
        if r % WRITE_ANALYTICS_EVERY == WRITE_ANALYTICS_EVERY - 1:
            a = WRITE_GRAPHS[(r // WRITE_ANALYTICS_EVERY) % len(WRITE_GRAPHS)]
            for s in rng.choice(pools[a], WRITE_ANALYTICS, replace=False):
                add(graph=a, source=int(s), arrival_ms=t,
                    tenant="analytics", qos="batch")
        delta = _delta(rng, graphs[spec], pools[spec], r, deleted[spec])
        add(graph=spec, source=0, arrival_ms=t + 1.0, tenant="writer",
            op="mutate", delta=delta)
    return queries


# ----------------------------------------------------------------------
# pod_2d: bursts on LJ through the 8-GCD 2D pod
def pod_trace(seed: int, graph, pools):
    """A probe from the highest-degree vertex at 0 ms, then bursts of
    distinct sources every ``POD_GAP_MS``. The probe's traversal is the
    first on every pod GCD, so the first-launch warm-up charge is the
    same for every seed."""
    from repro.service.request import Query

    rng = np.random.default_rng(seed)
    probe = int(np.argmax(graph.degrees))
    queries = [Query(qid=0, graph=POD_GRAPH, source=probe, arrival_ms=0.0)]
    for b in range(1, POD_BURSTS + 1):
        for s in rng.choice(pools[POD_GRAPH], POD_BURST, replace=False):
            queries.append(Query(qid=len(queries), graph=POD_GRAPH,
                                 source=int(s), arrival_ms=b * POD_GAP_MS))
    return queries


# ----------------------------------------------------------------------
def make_inputs(workload: str, seed: int, graphs) -> dict:
    """Every input of one run, built before the timed phase."""
    pools = {spec: source_pool(g) for spec, g in graphs.items()}
    if workload == "solo_paper":
        return {"sources": solo_sources(seed, pools)}
    if workload == "tenant_mix":
        return {
            "trace": tenant_trace(seed, pools),
            "ladder": {
                m: tenant_trace(seed, pools, rate_scale=m) for m in RATE_LADDER
            },
        }
    if workload == "write_mix":
        return {"trace": write_trace(seed, graphs, pools)}
    if workload == "pod_2d":
        return {"trace": pod_trace(seed, graphs[POD_GRAPH], pools)}
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def make_server(workload: str, graphs):
    """A fresh service (or cluster) over the prebuilt graphs, with
    every graph of the workload already resident in every registry, as
    in a long-running service; mutations still rebuild on the virtual
    and the host clock."""
    from repro.service.registry import GraphRegistry
    from repro.service.runtime import BFSService

    def builder(spec):
        return graphs[spec]

    if workload == "tenant_mix":
        from repro.cluster.router import ClusterRouter

        router = ClusterRouter(replicas=TENANT_REPLICAS, builder=builder)
        for spec in graphs:
            for replica in router.replicas:
                replica.registry.get(spec)
        return router
    registry = GraphRegistry(builder=builder)
    for spec in graphs:
        registry.get(spec)
    if workload == "write_mix":
        return BFSService(
            registry=registry, linalg_batch_threshold=WRITE_LINALG_THRESHOLD
        )
    if workload == "pod_2d":
        return BFSService(
            registry=registry,
            partition="2d",
            num_gcds=POD_GCDS,
            distributed_threshold_mb=POD_THRESHOLD_MB,
        )
    raise ValueError(f"workload {workload!r} has no server")
