"""Host spans around the program's public entry points.

A :class:`SpanRecorder` replaces chosen methods with wrappers that
record one span per call — name, host start and end, parent span and
the query or dispatch id — and keep them in memory until the run
writes them out. :func:`instrument` installs the wrappers for every
layer the benchmark attributes; :meth:`SpanRecorder.restore` puts the
original methods back. Nothing outside this process is touched.

:func:`self_times` turns the span list into per-name self time: a
span's duration minus the part of its interval covered by its
children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

#: Span name -> the layer its self time is charged to.
LAYER_OF = {
    "ClusterRouter.submit": "cluster",
    "ClusterRouter.drain": "cluster",
    "AdmissionController.admit": "service.admission",
    "CoalescingScheduler.submit": "service.scheduler",
    "CoalescingScheduler.apply_mutation": "service.scheduler",
    "CoalescingScheduler.run_until_idle": "service.scheduler",
    "GraphRegistry.get": "service.registry.get",
    "GraphRegistry.mutate": "service.registry.mutate",
    "ExecutionEngine.run": "service.execution",
    "XBFS.run": "xbfs.solo",
    "ConcurrentBFS.run": "xbfs.concurrent",
    "LinAlgBatchBFS.run": "xbfs.linalg",
    "repair_levels": "xbfs.repair",
    "GCD.launch": "gcd",
    "GCD.launch_concurrent": "gcd",
    "GCD.sync": "gcd",
    "KernelCostModel.evaluate": "gcd",
    "Grid2dBFS.run_batch": "multigcd",
    "ExchangeCodec.encode": "multigcd.codec",
    "ExchangeCodec.decode": "multigcd.codec",
}


class SpanRecorder:
    """In-memory span log plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: ``[name, start, end, parent, tag]`` per span, in start order.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the stack."""
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, owner, attr: str, name: str, *, tag=None, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``tag(args)`` gives the span's query or dispatch id;
        ``after(result, args)`` sees each call's return value (for the
        counters read off result dataclasses).
        """
        fn = owner.__dict__[attr]
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, clock(), None, parent, tag(args) if tag else None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def restore(self) -> None:
        """Put every wrapped method back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, tag) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_s": start, "end_s": end,
                    "parent": parent, "tag": tag,
                }) + "\n")


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its
    children's intervals clipped to it."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_self_seconds(spans) -> dict[str, float]:
    """Self seconds summed per layer (see :data:`LAYER_OF`)."""
    out: dict[str, float] = defaultdict(float)
    for (name, *_), t in zip(spans, self_times(spans)):
        out[LAYER_OF.get(name, name)] += t
    return dict(out)


def instrument(rec: SpanRecorder, c: defaultdict) -> None:
    """Wrap every layer boundary the benchmark attributes; counts and
    virtual quantities read off the wrapped calls accumulate in ``c``
    (a ``defaultdict(float)``)."""
    import itertools

    from repro.cluster.router import ClusterRouter
    from repro.gcd.kernel import KernelCostModel
    from repro.gcd.simulator import GCD
    from repro.multigcd.exchange import ExchangeCodec
    from repro.multigcd.grid2d import Grid2dBFS
    from repro.service import execution
    from repro.service.admission import AdmissionController
    from repro.service.execution import ExecutionEngine
    from repro.service.registry import GraphRegistry
    from repro.service.scheduler import CoalescingScheduler
    from repro.xbfs.concurrent import ConcurrentBFS
    from repro.xbfs.driver import XBFS
    from repro.xbfs.linalg_batch import LinAlgBatchBFS

    def qid(args):
        return getattr(args[1], "qid", None) if len(args) > 1 else None

    rec.wrap(ClusterRouter, "submit", "ClusterRouter.submit", tag=qid)
    rec.wrap(ClusterRouter, "drain", "ClusterRouter.drain")
    rec.wrap(AdmissionController, "admit", "AdmissionController.admit", tag=qid)
    rec.wrap(CoalescingScheduler, "submit", "CoalescingScheduler.submit", tag=qid)
    rec.wrap(CoalescingScheduler, "apply_mutation",
             "CoalescingScheduler.apply_mutation", tag=qid)
    rec.wrap(CoalescingScheduler, "run_until_idle",
             "CoalescingScheduler.run_until_idle")

    def registry_after(result, args):
        c["service.registry.peak_bytes"] = max(
            c["service.registry.peak_bytes"], args[0].bytes_cached)
        if isinstance(result, tuple):  # get() -> (entry, hit)
            c["service.registry.hits" if result[1] else
              "service.registry.cold_builds"] += 1

    rec.wrap(GraphRegistry, "get", "GraphRegistry.get", after=registry_after)
    rec.wrap(GraphRegistry, "mutate", "GraphRegistry.mutate", after=registry_after)

    dispatch_ids = itertools.count()

    def execution_after(result, args):
        entry = args[1]
        engine = result[3]
        if rec.inside("CoalescingScheduler.apply_mutation"):
            c["service.scheduler.barrier_dispatches"] += 1
        if entry.version > 0:
            c["service.execution.mutated_dispatches"] += 1
            c["service.execution.repairs"] += engine == "repair"

    rec.wrap(ExecutionEngine, "run", "ExecutionEngine.run",
             tag=lambda _a: next(dispatch_ids), after=execution_after)

    def engine_after(name):
        p = f"xbfs.{name}"

        def after(result, _args):
            c[f"{p}.calls"] += 1
            c[f"{p}.modelled_ms"] += result.elapsed_ms
            if name == "solo":
                c[f"{p}.traversals"] += 1
                c[f"{p}.edges"] += result.traversed_edges
                c[f"{p}.sync_ms"] += result.sync_ms
                for strategy in result.strategies:
                    c[f"{p}.levels.{strategy}"] += 1
            elif name == "repair":
                c[f"{p}.traversals"] += 1
                c[f"{p}.edges"] += result.relaxed_edges
            else:
                c[f"{p}.traversals"] += len(result.sources)
                c[f"{p}.edges"] += result.union_edges
                c[f"{p}.solo_edges"] += result.solo_edges
        return after

    rec.wrap(XBFS, "run", "XBFS.run", tag=lambda a: int(a[1]),
             after=engine_after("solo"))
    rec.wrap(ConcurrentBFS, "run", "ConcurrentBFS.run",
             after=engine_after("concurrent"))
    rec.wrap(LinAlgBatchBFS, "run", "LinAlgBatchBFS.run",
             after=engine_after("linalg"))
    # The executor calls repair_levels through its own module global.
    rec.wrap(execution, "repair_levels", "repair_levels",
             after=engine_after("repair"))

    def launch_after(records, _args):
        if not isinstance(records, list):
            records = [records]
        for r in records:
            c["gcd.launches"] += 1
            c["gcd.kernel_ms"] += r.runtime_ms - r.overhead_ms
            c["gcd.overhead_ms"] += r.overhead_ms
            c["gcd.fetch_mb"] += r.fetch_mb
            c["gcd.l2_hit_pct_sum"] += r.l2_hit_pct

    rec.wrap(GCD, "launch", "GCD.launch", after=launch_after)
    rec.wrap(GCD, "launch_concurrent", "GCD.launch_concurrent", after=launch_after)
    def sync_after(_result, _args):
        c["gcd.syncs"] += 1

    rec.wrap(GCD, "sync", "GCD.sync", after=sync_after)
    rec.wrap(KernelCostModel, "evaluate", "KernelCostModel.evaluate")

    def grid_after(result, _args):
        c["multigcd.comm_ms"] += result.comm_ms
        c["multigcd.compute_ms"] += result.compute_ms
        c["multigcd.overlap_saved_ms"] += result.overlap_saved_ms

    rec.wrap(Grid2dBFS, "run_batch", "Grid2dBFS.run_batch", after=grid_after)

    def encode_after(msg, _args):
        c["multigcd.bytes_wire"] += msg.wire_bytes
        c["multigcd.bytes_raw"] += msg.raw_bytes
        c[f"multigcd.messages_{msg.fmt}"] += 1

    rec.wrap(ExchangeCodec, "encode", "ExchangeCodec.encode", after=encode_after)
    rec.wrap(ExchangeCodec, "decode", "ExchangeCodec.decode")
