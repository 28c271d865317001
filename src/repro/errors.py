"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch one base type. Substrate-specific errors subclass it to keep
failure provenance obvious (graph construction vs. device simulation vs.
experiment harness).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphFormatError",
    "DeviceModelError",
    "KernelLaunchError",
    "TraversalError",
    "BatchSourceError",
    "ExperimentError",
    "PartitionError",
    "ServiceError",
    "ServiceConfigError",
    "BatchLimitError",
    "AdmissionError",
    "QueueFullError",
    "DeadlineExceededError",
    "QuotaExceededError",
    "InvalidSourceError",
    "ClusterError",
    "GraphTooLargeError",
    "MutationError",
    "StaleEntryError",
    "FaultPlanError",
    "DeviceFaultError",
    "RecoveryExhaustedError",
]


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class GraphFormatError(ReproError, ValueError):
    """A graph container or file is structurally invalid (bad offsets,
    out-of-range column indices, non-monotone row pointers, ...)."""


class DeviceModelError(ReproError, ValueError):
    """A device profile or cost-model parameter is inconsistent
    (zero bandwidth, non-power-of-two cache geometry, ...)."""


class KernelLaunchError(ReproError, RuntimeError):
    """A simulated kernel was launched with an invalid configuration
    (empty grid, mismatched stream, launch after device teardown)."""


class TraversalError(ReproError, RuntimeError):
    """A BFS engine detected an internal inconsistency (frontier overflow,
    status/queue disagreement, source out of range)."""


class BatchSourceError(TraversalError, ValueError):
    """A multi-source batch is malformed: empty, larger than the
    engine's capacity, sources out of range, or duplicate sources that
    would silently alias one status bit. Raised *before* any kernel
    cost is charged, so a rejected batch never perturbs the virtual
    clock."""


class ExperimentError(ReproError, RuntimeError):
    """An experiment driver was given parameters it cannot honour."""


class PartitionError(ReproError, ValueError):
    """A multi-GCD partitioning request is invalid (more parts than
    vertices, non-contiguous ownership map, ...)."""


class ServiceError(ReproError, RuntimeError):
    """The query-serving runtime (:mod:`repro.service`) hit an invalid
    configuration or request (unknown graph spec, out-of-order arrival,
    bad trace record, ...)."""


class ServiceConfigError(ServiceError, ValueError):
    """A serving setting is out of range (non-finite, non-positive,
    unknown partition, ...). Raised once, when the
    :class:`~repro.service.config.ServiceConfig` is built, before any
    serving layer exists."""


class BatchLimitError(ServiceConfigError):
    """A scheduler ``max_batch`` exceeds the batch capacity of the
    engine tier that would serve it. The cap is *engine-aware*: 64
    distinct sources on the bit-parallel concurrent path (one status
    bit per source in a 64-bit word), lifted to the linear-algebra
    batch engine's word-extensible cap when that tier is enabled. The
    message names the active engine and its cap."""


class AdmissionError(ServiceError):
    """Base class for typed admission-control rejections. A request
    refused with an :class:`AdmissionError` was never executed; callers
    distinguish the reason via the concrete subclass (or its ``kind``,
    the string recorded on the rejected outcome)."""

    #: Rejection kind recorded in :class:`QueryOutcome.rejected`.
    kind = "admission"


class QueueFullError(AdmissionError):
    """The bounded request queue was at capacity when the query
    arrived; backpressure instead of unbounded queueing."""

    kind = "queue_full"


class DeadlineExceededError(AdmissionError):
    """The query could not be scheduled (or would only start) after its
    per-request deadline had already elapsed."""

    kind = "deadline"


class QuotaExceededError(AdmissionError):
    """The submitting tenant's token-bucket quota had no capacity left
    at the query's arrival stamp. Distinct from :class:`QueueFullError`:
    the *cluster front door* refused the tenant, not a full replica
    queue."""

    kind = "quota"


class InvalidSourceError(AdmissionError):
    """The query's source is not a vertex of its graph (out of range,
    or not an integer id). Refused alone when its group is dispatched,
    so it never reaches the batch it would have joined."""

    kind = "source"


class ClusterError(ServiceError):
    """The multi-replica cluster layer (:mod:`repro.cluster`) hit an
    invalid configuration or request (no live replica, unknown QoS
    class, unplaced graph, ...)."""


class GraphTooLargeError(ServiceError, ValueError):
    """A requested graph exceeds the registry's total memory budget, so
    it could never be cached even after evicting everything else."""


class MutationError(ServiceError, ValueError):
    """A graph mutation delta is structurally invalid (malformed edge
    pair, endpoint out of range, an edge listed as both insert and
    delete) or targets a spec the registry cannot mutate."""


class StaleEntryError(ServiceError, RuntimeError):
    """A dispatch reached a :class:`RegistryEntry` that was evicted or
    superseded by a mutation after the caller obtained it. Engines
    cached on a dead entry may index a graph that no longer exists;
    the executor refuses to run them rather than risk serving answers
    for the wrong graph version."""


class FaultPlanError(ReproError, ValueError):
    """A fault-injection plan is structurally invalid (unknown site or
    kind, probability outside [0, 1], non-positive magnitude, ...)."""


class DeviceFaultError(ReproError, RuntimeError):
    """A seeded fault fired on the simulated device: an aborted kernel
    launch or an ECC-style detected memory corruption. Carries the
    named injection ``site``, the fault ``kind`` and the event
    ``detail`` (usually the kernel name) so recovery layers can log
    exact provenance."""

    def __init__(self, message: str, *, site: str = "", kind: str = "",
                 detail: str = "") -> None:
        super().__init__(message)
        self.site = site
        self.kind = kind
        self.detail = detail


class RecoveryExhaustedError(ReproError, RuntimeError):
    """Fault recovery gave up: per-level restarts or dispatch retries
    hit their budget and no fallback engine was permitted. The service
    raises this *instead of* ever returning a wrong answer."""
