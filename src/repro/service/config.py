"""One frozen serving configuration, built once and shared by every layer.

:class:`ServiceConfig` is to the serving stack what
:class:`~repro.gcd.kernel.ExecConfig` is to the engines: every setting
is declared (and validated) exactly once, here, and the router,
replicas, service, scheduler, executor and admission controller all
read the *same* object. A bad value raises one typed
:class:`~repro.errors.ServiceConfigError` at construction, before any
layer is built.

:class:`Observers` is the matching bundle for the observer planes —
tracer, decision audit, SLO engine — and the (possibly cluster-shared)
fault injector, so their ``None`` → null-object defaulting also
happens in one place.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

from repro.errors import BatchLimitError, ServiceConfigError, ServiceError
from repro.faults.recovery import DEFAULT_RECOVERY, RecoveryPolicy
from repro.obs.audit import NULL_AUDIT
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.xbfs.concurrent import MAX_CONCURRENT
from repro.xbfs.linalg_batch import MAX_LINALG_BATCH

__all__ = ["ServiceConfig", "Observers", "DEFAULT_CONFIG", "NO_OBSERVERS"]

_MIB = 1024 * 1024


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _int_in(lo: int, hi: float = math.inf):
    return lambda v: _is_int(v) and lo <= v <= hi


def _optional(check):
    return lambda v: v is None or check(v)


#: field -> (predicate, what a valid value is). ``max_batch`` is
#: checked apart: its range depends on the linalg tier.
_CHECKS = {
    "memory_budget_mb": (lambda v: _is_number(v) and 1 <= v * _MIB < math.inf,
                         "a finite number > 0"),
    "workers": (_int_in(1), "an int >= 1"),
    "window_ms": (lambda v: _is_number(v) and v >= 0, "a finite number >= 0"),
    "max_queue_depth": (_int_in(1), "an int >= 1"),
    "default_deadline_ms": (_optional(lambda v: _is_number(v) and v > 0),
                            "None or a finite number > 0"),
    "scale_factor": (_int_in(1), "an int >= 1"),
    "seed": (_int_in(0), "an int >= 0"),
    "num_gcds": (_int_in(1), "an int >= 1"),
    "distributed_threshold_mb": (
        _optional(lambda v: _is_number(v) and 0 <= v * _MIB < math.inf),
        "None or a finite number >= 0"),
    "linalg_batch_threshold": (_optional(_int_in(2, MAX_LINALG_BATCH)),
                               f"None or an int in 2..{MAX_LINALG_BATCH}"),
    "partition": (lambda v: v in ("1d", "2d"), "'1d' or '2d'"),
    "recovery": (lambda v: isinstance(v, RecoveryPolicy), "a RecoveryPolicy"),
    "bounded_metrics": (lambda v: isinstance(v, bool), "a bool"),
}


@dataclass(frozen=True)
class ServiceConfig:
    """Every serving setting, validated once.

    memory_budget_mb:
        Graph-registry LRU budget (MiB, finite, > 0).
    workers:
        Simulated GCD workers in each scheduler's dispatch pool (>= 1).
    max_batch:
        Distinct sources per coalesced dispatch. ``None`` adopts the
        engine-aware :attr:`batch_cap`; an explicit value must lie in
        ``1..batch_cap`` (:class:`~repro.errors.BatchLimitError`).
    window_ms:
        Coalescing window in virtual ms (finite, >= 0).
    max_queue_depth:
        Pending (admitted, not yet dispatched) queries held before a
        :class:`~repro.errors.QueueFullError` (>= 1).
    default_deadline_ms:
        Deadline for queries that carry none (finite, > 0); ``None``
        means no implicit deadline.
    scale_factor / seed:
        How graph specs resolve (one spec string → one graph for the
        service's lifetime); ``scale_factor >= 1``, ``seed >= 0``.
    num_gcds:
        Pod width of the multi-GCD distributed engine (>= 1).
    distributed_threshold_mb:
        CSR footprint (MiB, finite, >= 0) above which a graph routes to
        the multi-GCD pod instead of one simulated GCD; ``None`` keeps
        every dispatch single-GCD.
    linalg_batch_threshold:
        Distinct-source count (``2..MAX_LINALG_BATCH``) at which a
        same-graph dispatch runs as one masked CSR×matrix product on
        :class:`~repro.xbfs.linalg_batch.LinAlgBatchBFS`; enabling it
        lifts :attr:`batch_cap` from 64 to the bitmap engine's cap.
        ``None`` disables the tier.
    partition:
        Decomposition of the distributed tier: ``"1d"`` (edge-balanced
        rows, naive exchange) or ``"2d"`` (checkerboard
        :class:`~repro.multigcd.grid2d.Grid2dBFS` with the compressed
        exchange codec and comm/compute overlap).
    recovery:
        The fault-recovery ladder's :class:`RecoveryPolicy`; ``None``
        means :data:`~repro.faults.recovery.DEFAULT_RECOVERY`.
    bounded_metrics:
        Swap exact per-class latency lists for mergeable log-bucket
        sketches (O(buckets) memory; percentiles within ~1%).
    """

    memory_budget_mb: float = 256.0
    workers: int = 2
    max_batch: int | None = None
    window_ms: float = 5.0
    max_queue_depth: int = 256
    default_deadline_ms: float | None = None
    scale_factor: int = 64
    seed: int = 0
    num_gcds: int = 4
    distributed_threshold_mb: float | None = None
    linalg_batch_threshold: int | None = None
    partition: str = "1d"
    recovery: RecoveryPolicy | None = None
    bounded_metrics: bool = False

    def __post_init__(self) -> None:
        if self.recovery is None:
            object.__setattr__(self, "recovery", DEFAULT_RECOVERY)
        for name, (ok, expected) in _CHECKS.items():
            value = getattr(self, name)
            if not ok(value):
                raise ServiceConfigError(
                    f"{name} must be {expected}, got {value!r}"
                )
        if not _optional(_int_in(1, self.batch_cap))(self.max_batch):
            raise BatchLimitError(
                f"max_batch must be in 1..{self.batch_cap} (the "
                f"{self.batch_cap_engine} engine's batch capacity), "
                f"got {self.max_batch!r}"
            )

    # ------------------------------------------------------------------
    @property
    def memory_budget_bytes(self) -> int:
        return int(self.memory_budget_mb * _MIB)

    @property
    def distributed_threshold_bytes(self) -> int | None:
        """:attr:`distributed_threshold_mb` in bytes (derived)."""
        if self.distributed_threshold_mb is None:
            return None
        return int(self.distributed_threshold_mb * _MIB)

    @property
    def batch_cap_engine(self) -> str:
        """Engine whose capacity sets :attr:`batch_cap`."""
        if self.linalg_batch_threshold is None:
            return "concurrent"
        return "linalg_batch"

    @property
    def batch_cap(self) -> int:
        """Distinct sources one dispatch may carry — engine-aware: the
        concurrent engine's 64-bit status word without the linalg tier,
        the bitmap engine's word-extensible cap with it."""
        if self.batch_cap_engine == "concurrent":
            return MAX_CONCURRENT
        return MAX_LINALG_BATCH

    @property
    def batch_limit(self) -> int:
        """The effective per-dispatch source cap: :attr:`max_batch`, or
        :attr:`batch_cap` when unset."""
        return self.batch_cap if self.max_batch is None else self.max_batch

    def with_overrides(self, **settings) -> "ServiceConfig":
        """A copy with ``settings`` replaced (and re-validated)."""
        return replace(self, **settings) if settings else self

    def build_registry(self, builder=None):
        """A fresh :class:`~repro.service.registry.GraphRegistry` sized
        and seeded by this config."""
        from repro.service.registry import GraphRegistry

        return GraphRegistry(
            memory_budget_bytes=self.memory_budget_bytes,
            builder=builder,
            scale_factor=self.scale_factor,
            seed=self.seed,
        )


DEFAULT_CONFIG = ServiceConfig()


@dataclass(frozen=True)
class Observers:
    """The observer planes plus the fault injector, travelling together.

    Every field is observer-only except ``fault_injector``, whose seeded
    stream decides the faults; a cluster shares one injector (one RNG
    stream → one deterministic global fault schedule) across replicas.
    """

    tracer: Tracer = NULL_TRACER
    audit: object = NULL_AUDIT
    slo: object = None
    fault_injector: object = None

    @classmethod
    def of(cls, *, tracer=None, audit=None, slo=None, fault_injector=None,
           fault_plan=None) -> "Observers":
        """Default the missing planes to their null objects and, when a
        ``fault_plan`` is given, build its injector."""
        if fault_plan is not None:
            if fault_injector is not None:
                raise ServiceError(
                    "pass either fault_plan or fault_injector, not both"
                )
            fault_injector = fault_plan.injector()
        tracer = tracer if tracer is not None else NULL_TRACER
        if fault_injector is not None and tracer.enabled:
            fault_injector.bind_tracer(tracer)
        return cls(
            tracer=tracer,
            audit=audit if audit is not None else NULL_AUDIT,
            slo=slo,
            fault_injector=fault_injector,
        )


NO_OBSERVERS = Observers()
