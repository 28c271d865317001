"""One benchmark process: set up, replay, check, report.

Started by ``run.py`` as a fresh single-threaded interpreter; prints
one JSON object on its last stdout line. Modes:

* ``setup``   — imports, graph builds, input generation and warm-up,
  then exit (one ``setup_s`` sample);
* ``measure`` — setup, then the timed phase: the workload's fixed
  replay repeated until ``--seconds`` have passed; answers are checked
  and the end-to-end metrics reported;
* ``trace``   — setup, untraced replays, then the same replays with
  host spans around every layer's entry points; per-layer metrics.

``--spawned-at`` is the parent's monotonic clock just before it started
this process, so ``setup_s`` covers interpreter start too.
"""

from __future__ import annotations

import time

_T_IMPORT0 = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import zlib  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# ----------------------------------------------------------------------
def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest order statistic
    with at least ten samples beyond it (the largest when there are
    ten samples or fewer)."""
    vals = sorted(values)
    n = len(vals)
    i = max(0, n - 11)
    return vals[i], 100.0 * (i + 1) / n, n


#: Fewest timed replays per run, whatever ``--seconds`` says.
MIN_TIMED = 2


def median(values) -> float:
    return float(statistics.median(values))


def fingerprint(levels) -> int:
    return zlib.crc32(levels.tobytes())


# ----------------------------------------------------------------------
class Run:
    """State of one workload process."""

    def __init__(self, workload: str, seed: int, spawned_at: float) -> None:
        self.workload = workload
        self.seed = seed
        self.setup = {}
        # Modules the program imports lazily land in warm_s.
        import repro.cli  # noqa: F401
        import workloads as W

        self.W = W
        t1 = time.monotonic()
        self.setup["import_s"] = t1 - _T_IMPORT0
        self.graphs = W.build_graphs(W.WORKLOAD_GRAPHS[workload])
        t2 = time.monotonic()
        self.setup["graph_build_s"] = t2 - t1
        self.inputs = W.make_inputs(workload, seed, self.graphs)
        t3 = time.monotonic()
        self.setup["inputs_s"] = t3 - t2
        self._warm()
        t4 = time.monotonic()
        self.setup["warm_s"] = t4 - t3
        self.setup["setup_s"] = t4 - spawned_at

    # ------------------------------------------------------------------
    def _warm(self) -> None:
        """First calls of every engine path, untimed and thrown away
        (solo engines are kept: the closed loop reuses them warm)."""
        W = self.W
        if self.workload == "solo_paper":
            from repro.experiments.common import scaled_device
            from repro.xbfs.driver import XBFS

            self.engines = {}
            for spec, g in self.graphs.items():
                engine = XBFS(g, device=scaled_device(g))
                engine.run(int(W.source_pool(g)[0]))
                self.engines[spec] = engine
            return
        seen: dict[str, int] = {}
        warm = []
        mutated = False
        for q in self.inputs["trace"]:
            if q.is_mutation:
                if not mutated:
                    warm.append(q)
                    mutated = True
                continue
            if seen.get(q.graph, 0) < 2:
                seen[q.graph] = seen.get(q.graph, 0) + 1
                warm.append(q)
        self.serve(warm)

    # ------------------------------------------------------------------
    def serve(self, trace, on_start=None):
        """Replay ``trace`` on a fresh server.

        Returns ``(seconds, server, outcomes)``; ``seconds`` times the
        submissions and the drain, not the server's construction.
        ``on_start()`` runs just before the clock starts.
        """
        from repro.errors import AdmissionError

        server = self.W.make_server(self.workload, self.graphs)
        if on_start is not None:
            on_start()
        t0 = time.perf_counter()
        for q in trace:
            try:
                server.submit(q)
            except AdmissionError:
                pass  # recorded as a rejected outcome
        server.drain()
        dt = time.perf_counter() - t0
        if self.workload == "tenant_mix":
            return dt, server, server.outcomes()
        return dt, server, list(server.scheduler.outcomes)

    def replay(self, on_start=None):
        """One full replay of the workload: ``(seconds, server, answers)``.

        Answers are ``QueryOutcome`` records. ``solo_paper`` has no
        server: its closed loop's caller sends each query when the
        previous answer arrives on the virtual clock.
        """
        if self.workload != "solo_paper":
            return self.serve(self.inputs["trace"], on_start)
        from repro.service.request import Query, QueryOutcome

        if on_start is not None:
            on_start()
        t0 = time.perf_counter()
        runs = []
        for spec, src in self.inputs["sources"]:
            r = self.engines[spec].run(src)
            runs.append((spec, src, r.levels, r.elapsed_ms, r.traversed_edges))
        dt = time.perf_counter() - t0
        answers = []
        clock = 0.0
        for qid, (spec, src, levels, elapsed_ms, edges) in enumerate(runs):
            answers.append(QueryOutcome(
                query=Query(qid=qid, graph=spec, source=src, arrival_ms=clock),
                levels=levels, start_ms=clock, finish_ms=clock + elapsed_ms,
                traversed_edges=edges,
            ))
            clock += elapsed_ms
        return dt, None, answers

    def signature(self, answers):
        """What every replay of one seed must reproduce exactly: the
        modelled figures and a CRC of each answer's levels."""
        prints = [fingerprint(a.levels) for a in answers if a.levels is not None]
        return self.e2e_modelled(answers), prints

    def timed(self, seconds: float, signature) -> list[float] | None:
        """Replay until the replays add up to ``seconds`` (at least
        ``MIN_TIMED`` of them); each must match ``signature``. Returns
        the replay seconds, or ``None`` on a mismatch. One replay's
        answers are alive at a time."""
        times: list[float] = []
        while len(times) < MIN_TIMED or sum(times) < seconds:
            dt, server, answers = self.replay()
            times.append(dt)
            if self.signature(answers) != signature:
                return None
            del server, answers
        return times

    # ------------------------------------------------------------------
    def e2e_modelled(self, answers) -> dict:
        """The end-to-end figures of the virtual clock, plus counts."""
        served = [o for o in answers if o.served]
        latencies = [o.latency_ms for o in served]
        span_ms = max(o.finish_ms for o in served) - min(
            o.query.arrival_ms for o in answers)
        t_val, t_pct, t_n = tail(latencies)
        i_val, i_pct, i_n = tail(
            [o.latency_ms for o in served if o.query.qos == "interactive"])
        failed = len(answers) - len(served)
        return {
            "attempted": len(answers),
            "failed": failed,
            "failed_frac": failed / len(answers),
            "modelled_gteps": sum(o.traversed_edges for o in served)
            / (span_ms * 1e-3) / 1e9,
            "modelled_p50_ms": median(latencies),
            "modelled_tail_ms": t_val,
            "tail_pct": t_pct,
            "tail_samples": t_n,
            "modelled_interactive_tail_ms": i_val,
            "interactive_tail_pct": i_pct,
            "interactive_tail_samples": i_n,
        }

    # ------------------------------------------------------------------
    def check(self, server, answers) -> dict:
        """Correctness gate: a seeded sample of the answers — up to
        ``CHECK_PER_VERSION`` from each of up to ``CHECK_VERSIONS``
        (graph, version) groups — against ``bfs_levels_reference`` on
        the graph as it stood at the version the answer was served on
        (``GraphRegistry.graph_at_version``)."""
        import numpy as np
        from repro.graph.stats import bfs_levels_reference

        groups: dict[tuple[str, int], dict[int, object]] = {}
        for a in answers:
            if a.served:
                key = (a.query.graph, a.graph_version)
                groups.setdefault(key, {})[a.query.source] = a.levels
        rng = np.random.default_rng(self.seed)
        keys = sorted(groups)
        if len(keys) > self.W.CHECK_VERSIONS:
            picks = rng.choice(len(keys), self.W.CHECK_VERSIONS, replace=False)
            keys = [keys[i] for i in sorted(picks)]
        checked = 0
        for spec, version in keys:
            if server is not None and version:
                graph = server.registry.graph_at_version(spec, version)
            else:
                graph = self.graphs[spec]
            by_source = groups[(spec, version)]
            sources = sorted(by_source)
            count = min(len(sources), self.W.CHECK_PER_VERSION)
            for i in sorted(rng.choice(len(sources), count, replace=False)):
                src = sources[i]
                ref = bfs_levels_reference(graph, src)
                if not np.array_equal(ref, by_source[src]):
                    return {
                        "correct": False,
                        "why": f"levels differ on {spec}@v{version} source {src}",
                        "checked": checked,
                    }
                checked += 1
        return {"correct": True, "checked": checked, "versions": len(groups)}


# ----------------------------------------------------------------------
def burn_in(run: Run):
    """The first replay: untimed (first-touch allocation makes it
    slower than the rest), the source of the modelled figures and of
    the answers the oracle checks. Returns ``(signature, verdict,
    rate)``: ``rate`` is ``modelled_max_rate_qps``, except on
    ``tenant_mix``, where it is the :func:`pressure` of the trace's own
    rate (the ladder's first rung, see :func:`ladder_rate`)."""
    _, server, answers = run.replay()
    signature = run.signature(answers)
    verdict = run.check(server, answers)
    if run.workload == "tenant_mix":
        return signature, verdict, pressure(run, answers)
    return signature, verdict, saturation_rate(server, answers)


def measure(run: Run, seconds: float) -> dict:
    signature, verdict, rate = burn_in(run)
    e2e = signature[0]
    times = run.timed(seconds, signature)
    if times is None:
        return {**e2e, "correct": False, "why": "replays of one seed disagree"}
    answered = e2e["attempted"] - e2e["failed"]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        **verdict,
        **e2e,
        "setup": run.setup,
        "rep_seconds": times,
        "host_qps": median([answered / dt for dt in times]),
        # Read before the ladder's replays, which are no part of the
        # workload's footprint.
        "peak_rss_mb": rss_kb / 1024.0,
        "modelled_max_rate_qps": (
            ladder_rate(run, rate) if run.workload == "tenant_mix" else rate),
    }


def trace(run: Run, seconds: float, out_dir: str | None) -> dict:
    """Per-layer attribution.

    After the burn-in, untraced and traced replays alternate (so slow
    drift of the machine hits both alike) until ``seconds`` have
    passed. The per-layer metrics come from the first traced replay;
    the tracing overhead compares the two kinds' median replay times.
    """
    import tracing

    signature, verdict, _ = burn_in(run)
    e2e = signature[0]
    answered = e2e["attempted"] - e2e["failed"]
    untraced: list[float] = []
    traced: list[float] = []
    metrics = None
    while not traced or sum(untraced) + sum(traced) < seconds:
        dt, server, answers = run.replay()
        untraced.append(dt)
        if run.signature(answers) != signature:
            return {**e2e, "correct": False, "why": "replays of one seed disagree"}
        del server, answers
        rec = tracing.SpanRecorder()
        counters = defaultdict(float)
        try:
            wall, server, answers = run.replay(
                on_start=lambda: tracing.instrument(rec, counters))
        finally:
            rec.restore()
        traced.append(wall)
        if run.signature(answers) != signature:
            verdict = {"correct": False, "why": "tracing changed the answers"}
        if metrics is None:
            if out_dir:
                os.makedirs(out_dir, exist_ok=True)
                rec.write(os.path.join(
                    out_dir, f"spans-{run.workload}-{run.seed}.jsonl"))
            layers = tracing.layer_self_seconds(rec.spans)
            attributed = sum(layers.values())
            metrics = layer_metrics(run, server, answers, counters, rec.spans,
                                    layers)
            metrics.update({
                "trace.replay_wall_s": wall,
                "trace.attributed_s": attributed,
                "trace.unattributed_s": wall - attributed,
                "trace.spans": len(rec.spans),
            })
        del server, answers, rec

    metrics.update({
        "setup.import_s": run.setup["import_s"],
        "setup.graph_build_s": run.setup["graph_build_s"],
        "setup.warm_s": run.setup["warm_s"],
        "setup.inputs_s": run.setup["inputs_s"],
        "trace.untraced_host_qps": answered / median(untraced),
        "trace.traced_host_qps": answered / median(traced),
        "trace.overhead_pct": 100.0 * (median(traced) / median(untraced) - 1.0),
        "e2e.failed_frac": e2e["failed_frac"],
        "e2e.answers_checked": verdict.get("checked", 0),
    })
    return {**verdict, "attempted": e2e["attempted"], "failed": e2e["failed"],
            "layers": metrics}


def layer_metrics(run, server, answers, n, spans, layers) -> dict:
    """Every per-layer metric (0 where the layer does not run), from
    the traced replay's server, answers, counters ``n``, spans and
    per-layer self seconds."""
    m: dict[str, float] = {}

    def s(layer):
        return layers.get(layer, 0.0)

    calls = {}
    for name, *_ in spans:
        calls[name] = calls.get(name, 0) + 1

    # cluster ----------------------------------------------------------
    cluster = server if run.workload == "tenant_mix" else None
    counts = cluster.counters() if cluster is not None else {}
    m["cluster.calls"] = calls.get("ClusterRouter.submit", 0) + calls.get(
        "ClusterRouter.drain", 0)
    m["cluster.self_s"] = s("cluster")
    m["cluster.steals"] = counts.get("steals", 0)
    m["cluster.balance_ratio"] = (
        cluster.placement.balance()["balance_ratio"] if cluster is not None else 0.0
    )
    m["cluster.placement_overrides"] = counts.get("placement_overrides", 0)
    m["cluster.rejected_quota"] = sum(
        1 for a in answers if a.rejected == "quota")

    # service ----------------------------------------------------------
    if cluster is not None:
        services = [r.service for r in cluster.replicas]
    elif server is not None:
        services = [server]
    else:
        services = []
    adm = [svc.admission.stats() for svc in services]
    m["service.admission.admitted"] = sum(a["admitted"] for a in adm)
    m["service.admission.rejected_queue_full"] = sum(
        a["rejected_queue_full"] for a in adm)
    m["service.admission.rejected_deadline"] = sum(
        a["rejected_deadline"] for a in adm)
    m["service.admission.self_s"] = s("service.admission")

    mets = [svc.metrics for svc in services]
    dispatches = sum(x.dispatches for x in mets)
    m["service.scheduler.dispatches"] = dispatches
    m["service.scheduler.queries_per_dispatch"] = (
        sum(x.batch_size_sum for x in mets) / dispatches if dispatches else 0.0)
    m["service.scheduler.sharing_factor"] = (
        sum(x.sharing_sum for x in mets) / dispatches if dispatches else 0.0)
    waits = [a.start_ms - a.query.arrival_ms for a in answers if a.served]
    if waits:
        m["service.scheduler.queue_wait_p50_ms"] = median(waits)
        m["service.scheduler.queue_wait_tail_ms"] = tail(waits)[0]
    else:
        m["service.scheduler.queue_wait_p50_ms"] = 0.0
        m["service.scheduler.queue_wait_tail_ms"] = 0.0
    m["service.scheduler.barrier_dispatches"] = n[
        "service.scheduler.barrier_dispatches"]
    m["service.scheduler.self_s"] = s("service.scheduler")

    gets = calls.get("GraphRegistry.get", 0)
    m["service.registry.gets"] = gets
    m["service.registry.hit_ratio"] = n["service.registry.hits"] / gets if gets else 0.0
    m["service.registry.cold_builds"] = n["service.registry.cold_builds"]
    m["service.registry.evictions"] = sum(
        svc.registry.stats()["evictions"] for svc in services)
    m["service.registry.mutates"] = calls.get("GraphRegistry.mutate", 0)
    m["service.registry.get_s"] = s("service.registry.get")
    m["service.registry.mutate_s"] = s("service.registry.mutate")
    m["service.registry.peak_bytes"] = n["service.registry.peak_bytes"]

    stats = [x.stats() for x in mets]
    for engine in ("solo", "concurrent", "linalg_batch", "multigcd", "grid2d",
                   "repair", "serial"):
        m[f"service.execution.dispatches.{engine}"] = sum(
            st.get(f"dispatches_{engine}", 0) for st in stats)
    mutated = n["service.execution.mutated_dispatches"]
    m["service.execution.repair_ratio"] = (
        n["service.execution.repairs"] / mutated if mutated else 0.0)
    m["service.execution.retries"] = sum(x.retries for x in mets)
    m["service.execution.self_s"] = s("service.execution")

    # engines ----------------------------------------------------------
    for engine in ("solo", "concurrent", "linalg", "repair"):
        p = f"xbfs.{engine}"
        m[f"{p}.calls"] = n[f"{p}.calls"]
        m[f"{p}.host_s"] = s(p)
        m[f"{p}.traversals"] = n[f"{p}.traversals"]
        m[f"{p}.edges"] = n[f"{p}.edges"]
        m[f"{p}.modelled_ms"] = n[f"{p}.modelled_ms"]
    for strategy in ("scan_free", "single_scan", "bottom_up"):
        m[f"xbfs.solo.levels.{strategy}"] = n[f"xbfs.solo.levels.{strategy}"]
    m["xbfs.solo.sync_ms"] = n["xbfs.solo.sync_ms"]
    for engine in ("concurrent", "linalg"):
        solo_edges = n[f"xbfs.{engine}.solo_edges"]
        m[f"xbfs.{engine}.union_over_solo_edges"] = (
            n[f"xbfs.{engine}.edges"] / solo_edges if solo_edges else 0.0)

    # gcd --------------------------------------------------------------
    for key in ("launches", "syncs", "kernel_ms", "overhead_ms", "fetch_mb"):
        m[f"gcd.{key}"] = n[f"gcd.{key}"]
    m["gcd.l2_hit_pct"] = (
        n["gcd.l2_hit_pct_sum"] / n["gcd.launches"] if n["gcd.launches"] else 0.0)
    m["gcd.host_s"] = s("gcd")

    # multigcd ---------------------------------------------------------
    m["multigcd.host_s"] = s("multigcd")
    m["multigcd.codec_s"] = s("multigcd.codec")
    for key in ("comm_ms", "compute_ms", "overlap_saved_ms", "bytes_wire",
                "bytes_raw", "messages_bitmap", "messages_sparse"):
        m[f"multigcd.{key}"] = n[f"multigcd.{key}"]
    return m


def saturation_rate(server, answers) -> float:
    """``modelled_max_rate_qps`` of every workload but ``tenant_mix``:
    served queries per second of modelled worker busy time — the rate
    at which the modelled workers saturate. Without a server
    (``solo_paper``) the one caller is busy for every traversal."""
    served = [o for o in answers if o.served]
    if server is None:
        busy_s = sum(o.finish_ms - o.start_ms for o in served) * 1e-3
    else:
        workers = server.scheduler.worker_stats()
        busy_s = sum(w["busy_ms"] for w in workers) / len(workers) * 1e-3
    return len(served) / busy_s


#: Growth of the queries in the system, last quarter of the arrivals
#: over the second quarter, above which the backlog counts as growing.
BACKLOG_GROWTH_LIMIT = 1.25


def pressure(run: Run, answers) -> float:
    """At most 1 exactly when a replay meets the limit: the largest of
    the interactive tail over its limit, the backlog growth over
    :data:`BACKLOG_GROWTH_LIMIT`, and 1 plus the failed share when any
    query failed."""
    e2e = run.e2e_modelled(answers)
    return max(
        e2e["modelled_interactive_tail_ms"] / run.W.INTERACTIVE_LIMIT_MS,
        backlog_growth(answers) / BACKLOG_GROWTH_LIMIT,
        1.0 + e2e["failed_frac"] if e2e["failed"] else 0.0,
    )


def ladder_rate(run: Run, base_pressure: float) -> float:
    """``modelled_max_rate_qps`` of ``tenant_mix``.

    The offered-rate ladder is scanned from the trace's own rate
    (``base_pressure``, from the burn-in replay) up, or down, to the
    first change of verdict. The result is the rate where
    :func:`pressure` reaches 1, interpolated geometrically between the
    highest rung that meets the limit and the next rung up, so it
    resolves changes finer than the rungs; when the top rung meets the
    limit, it is the top rung's rate.
    """
    rungs = sorted(run.W.RATE_LADDER)
    seen = {1.0: base_pressure}

    def p(i):
        if rungs[i] not in seen:
            answers = run.serve(run.inputs["ladder"][rungs[i]])[2]
            seen[rungs[i]] = pressure(run, answers)
        return seen[rungs[i]]

    i = rungs.index(1.0)
    if p(i) <= 1.0:
        while i + 1 < len(rungs) and p(i + 1) <= 1.0:
            i += 1
    else:
        while i > 0 and p(i - 1) > 1.0:
            i -= 1
        i -= 1
        if i < 0:
            return 0.0
    scale = rungs[i]
    if i + 1 < len(rungs):
        lo, hi = p(i), p(i + 1)
        frac = (1.0 - lo) / (hi - lo)
        scale = rungs[i] * (rungs[i + 1] / rungs[i]) ** frac
    trace_ = run.inputs["trace"]
    span_s = (trace_[-1].arrival_ms - trace_[0].arrival_ms) * 1e-3
    return len(trace_) / span_s * scale


def backlog_growth(answers) -> float:
    """How the queries in the system (arrived, not yet answered) grow
    over the replay: their mean over the last quarter of arrival
    instants over their mean over the second quarter. The first quarter
    is the ramp-up."""
    arrivals = sorted({o.query.arrival_ms for o in answers})
    counts = [
        sum(1 for o in answers
            if o.query.arrival_ms <= t and (not o.served or o.finish_ms > t))
        for t in arrivals
    ]
    n = len(counts)
    return statistics.mean(counts[3 * n // 4:]) / statistics.mean(
        counts[n // 4:n // 2])


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    run = Run(args.workload, args.seed, args.spawned_at)
    if args.mode == "setup":
        result = {"correct": True, "setup": run.setup}
    elif args.mode == "measure":
        result = measure(run, args.seconds)
    else:
        result = trace(run, args.seconds, args.out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
