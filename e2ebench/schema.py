"""Every metric and workload the benchmark reports, in one place.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 e2ebench/schema.py > BENCHMARK.json``) and a test keeps the
two equal. Host metrics (``setup_s``, ``host_*``, ``peak_rss_mb``, every
``*_s``) are wall-clock; ``modelled_*`` and every ``*_ms`` come from the
virtual GCD/service clock and repeat bit-exactly at a fixed seed.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "e2ebench/run.py"]
PATHS = ["e2ebench"]
RUN_SECONDS = 12

WORKLOADS = (
    ("solo_paper", "XBFS.run alone on rmat:16, LJ and UP as in the paper's "
     "Fig 8; no serving layer runs, so a serving change must not move it"),
    ("tenant_mix", "open-loop multi-tenant bursts on a 4-replica cluster: "
     "the only workload that runs placement, work stealing and QoS classes"),
    ("write_mix", "reads beside writes on one service: mutation barriers, "
     "version retire, repair against recompute and 128-source linalg batches"),
    ("pod_2d", "bursts on LJ through the 8-GCD 2D pod: the only workload "
     "that runs the multi-GCD partition, exchange codec and overlap"),
)

#: ``(name, unit, better, bound)``: bound is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("host_qps", "queries/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("modelled_gteps", "GTEPS", "higher", 0.2),
    ("modelled_p50_ms", "ms", "lower", 0.2),
    ("modelled_tail_ms", "ms", "lower", 0.2),
    ("modelled_interactive_tail_ms", "ms", "lower", 0.2),
    ("modelled_max_rate_qps", "queries/s", "higher", 0.2),
)

_ENGINES = ("solo", "concurrent", "linalg", "repair")

#: ``(name, unit, better)`` of every per-layer metric of a traced run.
PER_LAYER = (
    ("setup.import_s", "s", "lower"),
    ("setup.graph_build_s", "s", "lower"),
    ("setup.inputs_s", "s", "lower"),
    ("setup.warm_s", "s", "lower"),
    ("cluster.calls", "count", "lower"),
    ("cluster.self_s", "s", "lower"),
    ("cluster.steals", "count", "lower"),
    ("cluster.balance_ratio", "ratio", "lower"),
    ("cluster.placement_overrides", "count", "lower"),
    ("cluster.rejected_quota", "count", "lower"),
    ("service.admission.admitted", "count", "higher"),
    ("service.admission.rejected_queue_full", "count", "lower"),
    ("service.admission.rejected_deadline", "count", "lower"),
    ("service.admission.self_s", "s", "lower"),
    ("service.scheduler.dispatches", "count", "lower"),
    ("service.scheduler.queries_per_dispatch", "ratio", "higher"),
    ("service.scheduler.sharing_factor", "ratio", "higher"),
    ("service.scheduler.queue_wait_p50_ms", "ms", "lower"),
    ("service.scheduler.queue_wait_tail_ms", "ms", "lower"),
    ("service.scheduler.barrier_dispatches", "count", "lower"),
    ("service.scheduler.self_s", "s", "lower"),
    ("service.registry.gets", "count", "lower"),
    ("service.registry.hit_ratio", "ratio", "higher"),
    ("service.registry.cold_builds", "count", "lower"),
    ("service.registry.evictions", "count", "lower"),
    ("service.registry.mutates", "count", "lower"),
    ("service.registry.get_s", "s", "lower"),
    ("service.registry.mutate_s", "s", "lower"),
    ("service.registry.peak_bytes", "B", "lower"),
    *(
        (f"service.execution.dispatches.{engine}", "count", "lower")
        for engine in ("solo", "concurrent", "linalg_batch", "multigcd",
                       "grid2d", "repair", "serial")
    ),
    ("service.execution.repair_ratio", "ratio", "higher"),
    ("service.execution.retries", "count", "lower"),
    ("service.execution.self_s", "s", "lower"),
    *(
        row
        for engine in _ENGINES
        for row in (
            (f"xbfs.{engine}.calls", "count", "lower"),
            (f"xbfs.{engine}.host_s", "s", "lower"),
            (f"xbfs.{engine}.traversals", "count", "higher"),
            (f"xbfs.{engine}.edges", "count", "lower"),
            (f"xbfs.{engine}.modelled_ms", "ms", "lower"),
        )
    ),
    ("xbfs.solo.levels.scan_free", "count", "higher"),
    ("xbfs.solo.levels.single_scan", "count", "higher"),
    ("xbfs.solo.levels.bottom_up", "count", "higher"),
    ("xbfs.solo.sync_ms", "ms", "lower"),
    ("xbfs.concurrent.union_over_solo_edges", "ratio", "lower"),
    ("xbfs.linalg.union_over_solo_edges", "ratio", "lower"),
    ("gcd.launches", "count", "lower"),
    ("gcd.syncs", "count", "lower"),
    ("gcd.kernel_ms", "ms", "lower"),
    ("gcd.overhead_ms", "ms", "lower"),
    ("gcd.fetch_mb", "MiB", "lower"),
    ("gcd.l2_hit_pct", "%", "higher"),
    ("gcd.host_s", "s", "lower"),
    ("multigcd.host_s", "s", "lower"),
    ("multigcd.codec_s", "s", "lower"),
    ("multigcd.comm_ms", "ms", "lower"),
    ("multigcd.compute_ms", "ms", "lower"),
    ("multigcd.overlap_saved_ms", "ms", "higher"),
    ("multigcd.bytes_wire", "B", "lower"),
    ("multigcd.bytes_raw", "B", "lower"),
    ("multigcd.messages_bitmap", "count", "lower"),
    ("multigcd.messages_sparse", "count", "lower"),
    ("trace.replay_wall_s", "s", "lower"),
    ("trace.attributed_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.untraced_host_qps", "queries/s", "higher"),
    ("trace.traced_host_qps", "queries/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("e2e.failed_frac", "ratio", "lower"),
    ("e2e.answers_checked", "count", "higher"),
)

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
