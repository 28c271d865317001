"""Cluster benchmarking: multi-tenant traces and the scale-out sweep.

Three pieces, all deterministic:

* :func:`multi_tenant_trace` — an open-loop arrival process like
  :func:`~repro.service.trace.synthetic_trace`, but every query also
  draws a tenant (``t0..tN``) and a QoS class (interactive with
  probability ``interactive_frac``, else batch) from the same seeded
  RNG.
* :func:`death_plan` — a seeded :class:`~repro.faults.plan.FaultPlan`
  firing ``replica_death`` events at the ``cluster.replica`` site
  (magnitude = virtual ms until the cold restart).
* :func:`run_scaleout_sweep` — replay one trace through clusters of
  increasing replica count, check every served answer bit-identical
  to a fault-free single :class:`~repro.service.runtime.BFSService`
  replay of the same trace, and return the per-point summaries that
  land in ``BENCH_cluster_scaleout.json``.
"""

from __future__ import annotations

import zlib
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ServiceError
from repro.faults import FaultPlan, FaultRule, levels_fingerprint
from repro.service.config import ServiceConfig
from repro.service.request import Query
from repro.service.runtime import BFSService

__all__ = ["multi_tenant_trace", "death_plan", "run_scaleout_sweep"]


def multi_tenant_trace(
    graphs: Sequence[str],
    num_vertices: Mapping[str, int],
    *,
    num_queries: int = 200,
    seed: int = 0,
    tenants: int = 4,
    interactive_frac: float = 0.7,
    mean_gap_ms: float = 1.0,
    burst: int = 8,
    deadline_ms: float | None = None,
) -> list[Query]:
    """Deterministic open-loop multi-tenant load.

    Bursts of ``burst`` same-graph queries share one arrival stamp
    (the coalescing opportunity); each query independently draws a
    tenant and a QoS class. ``deadline_ms`` pins an explicit deadline
    on every query; ``None`` leaves deadlines to the router's QoS
    classes.
    """
    if not graphs:
        raise ServiceError("multi_tenant_trace needs at least one graph spec")
    missing = [g for g in graphs if g not in num_vertices]
    if missing:
        raise ServiceError(f"num_vertices missing for specs {missing}")
    if tenants < 1:
        raise ServiceError(f"tenants must be >= 1, got {tenants}")
    if not 0.0 <= interactive_frac <= 1.0:
        raise ServiceError(
            f"interactive_frac must be in [0, 1], got {interactive_frac}"
        )
    if burst < 1:
        raise ServiceError("burst must be >= 1")
    rng = np.random.default_rng(seed)
    queries: list[Query] = []
    t = 0.0
    while len(queries) < num_queries:
        spec = graphs[int(rng.integers(len(graphs)))]
        n = int(num_vertices[spec])
        size = min(burst, num_queries - len(queries))
        for _ in range(size):
            queries.append(
                Query(
                    qid=len(queries),
                    graph=spec,
                    source=int(rng.integers(n)),
                    arrival_ms=t,
                    deadline_ms=deadline_ms,
                    tenant=f"t{int(rng.integers(tenants))}",
                    qos=(
                        "interactive"
                        if rng.random() < interactive_frac
                        else "batch"
                    ),
                )
            )
        t += float(rng.exponential(mean_gap_ms))
    return queries


def death_plan(
    seed: int = 0,
    *,
    probability: float = 0.01,
    restart_ms: float = 200.0,
    max_triggers: int | None = 2,
    after: int = 0,
) -> FaultPlan:
    """A seeded replica-death storm for the ``cluster.replica`` site."""
    return FaultPlan(
        seed=seed,
        name="replica-death",
        rules=(
            FaultRule(
                site="cluster.replica",
                kind="replica_death",
                probability=probability,
                magnitude=restart_ms,
                max_triggers=max_triggers,
                after=after,
            ),
        ),
    )


def _baseline_fingerprints(
    trace: Sequence[Query], config: ServiceConfig, builder=None
) -> dict[int, int]:
    """qid → levels fingerprint from one fault-free single service
    serving with the cluster's own ``config``."""
    service = BFSService(config=config, registry=config.build_registry(builder))
    report = service.replay(trace)
    return {o.query.qid: levels_fingerprint(o.levels) for o in report.served}


def run_scaleout_sweep(
    replica_counts: Sequence[int],
    *,
    graphs: Sequence[str],
    num_vertices: Mapping[str, int],
    num_queries: int = 200,
    seed: int = 0,
    tenants: int = 4,
    interactive_frac: float = 0.7,
    mean_gap_ms: float = 1.0,
    burst: int = 8,
    deadline_ms: float | None = None,
    fault_plan: FaultPlan | None = None,
    router_kwargs: dict | None = None,
    tracer_factory=None,
) -> list[dict]:
    """Sweep replica count over one multi-tenant trace.

    Every sweep point replays the *same* trace; a fault-free
    single-service replay of that trace provides the answer oracle.
    Each summary gains:

    * ``bit_identical`` — 1 iff every query served by both the cluster
      and the baseline returned bit-identical levels;
    * ``common_served`` / ``levels_crc32`` — the compared set and the
      CRC of its level arrays (drifts exactly when any answer does).
    """
    from repro.cluster.router import ClusterRouter

    router_kwargs = dict(router_kwargs or {})
    trace = multi_tenant_trace(
        graphs,
        num_vertices,
        num_queries=num_queries,
        seed=seed,
        tenants=tenants,
        interactive_frac=interactive_frac,
        mean_gap_ms=mean_gap_ms,
        burst=burst,
        deadline_ms=deadline_ms,
    )
    baseline = None
    summaries = []
    for count in replica_counts:
        tracer = tracer_factory(count) if tracer_factory is not None else None
        router = ClusterRouter(
            replicas=count,
            fault_plan=fault_plan,
            tracer=tracer,
            **router_kwargs,
        )
        if baseline is None:
            # The oracle serves with the router's own config, so no
            # setting can drift between the two sides.
            baseline = _baseline_fingerprints(
                trace, router.config, builder=router_kwargs.get("builder")
            )
        report = router.replay(trace)
        summary = report.summary(f"cluster_r{count}")
        crc = 0
        identical = True
        compared = 0
        for o in report.served:
            expect = baseline.get(o.query.qid)
            if expect is None:
                continue
            compared += 1
            fp = levels_fingerprint(o.levels)
            crc = zlib.crc32(fp.to_bytes(8, "little"), crc)
            if fp != expect:
                identical = False
        summary["common_served"] = compared
        summary["levels_crc32"] = crc
        summary["bit_identical"] = int(identical)
        summaries.append(summary)
    return summaries
