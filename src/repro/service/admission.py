"""Admission control: bounded queueing and per-request deadlines.

The serving layer refuses work it cannot do in time instead of
queueing without bound. Three typed rejections, all subclasses of
:class:`~repro.errors.AdmissionError`:

* :class:`~repro.errors.QueueFullError` — the pending queue was at
  its depth limit when the query arrived (checked at submit time).
* :class:`~repro.errors.DeadlineExceededError` — the query's start
  slot on the virtual clock falls past its deadline (checked at
  dispatch time, before any kernel cost is charged). A deadline that
  has *already elapsed when the query arrives* (``deadline_ms <= 0``)
  is rejected at admission instead — queueing it could never help.
* :class:`~repro.errors.InvalidSourceError` — the source is not a
  vertex of the query's graph (checked at dispatch time, beside the
  deadline, so the rest of its coalesced group is served unchanged).
"""

from __future__ import annotations

from repro.errors import (
    DeadlineExceededError,
    InvalidSourceError,
    QueueFullError,
    TraversalError,
)
from repro.service.config import DEFAULT_CONFIG, NO_OBSERVERS, Observers, ServiceConfig
from repro.service.request import Query
from repro.xbfs.common import validate_source

__all__ = ["AdmissionController"]


class AdmissionController:
    """Applies the config's admission limits and counts its decisions.

    Reads ``max_queue_depth`` and ``default_deadline_ms`` from its
    :class:`~repro.service.config.ServiceConfig`. The observers' audit
    log receives one ``admission`` record per verdict with the inputs
    that drove it — observer-only, never part of the decision.
    """

    def __init__(
        self,
        config: ServiceConfig = DEFAULT_CONFIG,
        observers: Observers = NO_OBSERVERS,
    ) -> None:
        self.config = config
        self.audit = observers.audit
        self.admitted = 0
        self.rejected_queue_full = 0
        self.rejected_deadline = 0
        self.rejected_source = 0

    def deadline_of(self, query: Query) -> float | None:
        """The query's effective deadline (its own, else the default)."""
        if query.deadline_ms is not None:
            return query.deadline_ms
        return self.config.default_deadline_ms

    def admit(self, query: Query, queue_depth: int) -> None:
        """Gate one submission against the current queue depth and an
        already-expired deadline (a non-positive budget at arrival)."""
        deadline = self.deadline_of(query)
        if deadline is not None and deadline <= 0:
            self.rejected_deadline += 1
            self.audit.record(
                "admission",
                query.qid,
                "rejected:deadline",
                at_ms=query.arrival_ms,
                deadline_ms=deadline,
            )
            raise DeadlineExceededError(
                f"query {query.qid} rejected at admission: deadline "
                f"{deadline:.3f} ms already elapsed on arrival"
            )
        if queue_depth >= self.config.max_queue_depth:
            self.rejected_queue_full += 1
            self.audit.record(
                "admission",
                query.qid,
                "rejected:queue_full",
                at_ms=query.arrival_ms,
                queue_depth=queue_depth,
                limit=self.config.max_queue_depth,
            )
            raise QueueFullError(
                f"query {query.qid} rejected: queue depth "
                f"{queue_depth} >= limit {self.config.max_queue_depth}"
            )
        self.admitted += 1
        self.audit.record(
            "admission",
            query.qid,
            "admitted",
            at_ms=query.arrival_ms,
            queue_depth=queue_depth,
            limit=self.config.max_queue_depth,
            deadline_ms=deadline,
        )

    def check_deadline(self, query: Query, start_ms: float) -> None:
        """Reject a query whose dispatch slot already misses its
        deadline; charged queueing delay is ``start_ms - arrival``."""
        deadline = self.deadline_of(query)
        if deadline is None:
            return
        wait = start_ms - query.arrival_ms
        if wait > deadline:
            self.rejected_deadline += 1
            self.audit.record(
                "admission",
                query.qid,
                "rejected:deadline_at_dispatch",
                at_ms=start_ms,
                wait_ms=wait,
                deadline_ms=deadline,
            )
            raise DeadlineExceededError(
                f"query {query.qid} waited {wait:.3f} ms "
                f"> deadline {deadline:.3f} ms"
            )

    def check_source(self, query: Query, num_vertices: int) -> None:
        """Reject a query whose source is not a vertex of its graph."""
        try:
            validate_source(query.source, num_vertices)
        except TraversalError as exc:
            self.rejected_source += 1
            self.audit.record(
                "admission",
                query.qid,
                "rejected:source",
                at_ms=query.arrival_ms,
                source=repr(query.source),
                num_vertices=num_vertices,
            )
            raise InvalidSourceError(f"query {query.qid}: {exc}") from None

    def stats(self) -> dict:
        return {
            "admitted": self.admitted,
            "rejected_queue_full": self.rejected_queue_full,
            "rejected_deadline": self.rejected_deadline,
            "rejected_source": self.rejected_source,
        }
