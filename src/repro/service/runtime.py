""":class:`BFSService` — the serving facade.

Wires the registry, admission controller, coalescing scheduler and
metrics into one object with two entry points:

* :meth:`BFSService.submit` — online use: admit one query (raises a
  typed :class:`~repro.errors.AdmissionError` under backpressure).
* :meth:`BFSService.replay` — offline use: drive a whole arrival-
  ordered trace through the service, recording rejections instead of
  raising, and return a :class:`ServiceReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import AdmissionError, ServiceError
from repro.faults.plan import FaultPlan
from repro.service.config import DEFAULT_CONFIG, Observers, ServiceConfig
from repro.service.metrics import ServiceMetrics
from repro.service.registry import GraphRegistry
from repro.service.request import Query, QueryOutcome
from repro.service.scheduler import CoalescingScheduler
from repro.telemetry.tracer import Tracer

__all__ = ["BFSService", "ServiceReport"]


@dataclass
class ServiceReport:
    """Everything a replay produced."""

    outcomes: list[QueryOutcome]
    metrics: ServiceMetrics
    registry_stats: dict
    worker_stats: list[dict]
    #: Injector counters (by kind/site/rule), or ``None`` when the
    #: service ran without a fault plan.
    fault_stats: dict | None = None

    @property
    def served(self) -> list[QueryOutcome]:
        return [o for o in self.outcomes if o.served]

    @property
    def rejections(self) -> list[QueryOutcome]:
        return [o for o in self.outcomes if not o.served]

    def summary(self, name: str = "service") -> dict:
        """JSON-able summary for :mod:`repro.metrics.results_io`."""
        return self.metrics.summary(name, registry_stats=self.registry_stats)

    def render(self) -> str:
        return self.metrics.render(registry_stats=self.registry_stats)


class BFSService:
    """A deterministic, synchronous BFS query service.

    Every serving setting lives on one frozen
    :class:`~repro.service.config.ServiceConfig` — see its field docs
    for what each one does and the range it is validated against. Pass
    a prebuilt ``config``, keyword ``settings`` (the config's field
    names), or both: ``BFSService(config=base, workers=4)`` serves with
    ``replace(base, workers=4)``. A bad value raises a typed
    :class:`~repro.errors.ServiceConfigError` before any layer exists.

    The rest are collaborators, not settings: ``registry`` (default: a
    fresh one sized by the config), the observers ``tracer`` /
    ``audit`` / ``slo``, and either a ``fault_plan`` or a shared
    ``fault_injector`` (a cluster passes one injector to every replica
    as part of an :class:`~repro.service.config.Observers` bundle via
    ``observers``).
    """

    def __init__(
        self,
        *,
        config: ServiceConfig | None = None,
        registry: GraphRegistry | None = None,
        fault_plan: FaultPlan | None = None,
        fault_injector=None,
        tracer: Tracer | None = None,
        audit=None,
        slo=None,
        observers: Observers | None = None,
        track_prefix: str = "",
        **settings,
    ) -> None:
        #: The one serving config every layer below reads.
        self.config = (config or DEFAULT_CONFIG).with_overrides(**settings)
        if observers is None:
            observers = Observers.of(
                tracer=tracer, audit=audit, slo=slo,
                fault_injector=fault_injector, fault_plan=fault_plan,
            )
        elif any(x is not None
                 for x in (tracer, audit, slo, fault_injector, fault_plan)):
            raise ServiceError(
                "pass observers or the individual observer arguments, not both"
            )
        self.observers = observers
        self.tracer = observers.tracer
        self.audit = observers.audit
        self.slo = observers.slo
        self.fault_injector = observers.fault_injector
        #: The declarative plan (kept for reports); its injector on
        #: ``observers`` holds all mutable fault state.
        self.fault_plan = fault_plan
        # Explicit None-check: an empty GraphRegistry has len() == 0
        # and would read as falsy.
        if registry is None:
            registry = self.config.build_registry()
        self.registry = registry
        self.scheduler = CoalescingScheduler(
            registry, self.config, observers, track_prefix=track_prefix
        )
        self.admission = self.scheduler.admission
        self.metrics = self.scheduler.metrics
        #: The execution plane (engine routing + fault recovery) the
        #: scheduler dispatches onto — the third concern of the
        #: placement / dispatch / execution split.
        self.executor = self.scheduler.executor

    # ------------------------------------------------------------------
    def submit(self, query: Query) -> None:
        """Admit one query; raises on typed rejection."""
        self.scheduler.submit(query)

    def drain(self) -> list[QueryOutcome]:
        """Dispatch everything still pending."""
        return self.scheduler.run_until_idle()

    def replay(
        self, queries: Iterable[Query] | Sequence[Query], *, strict: bool = False
    ) -> ServiceReport:
        """Drive an arrival-ordered trace end to end.

        Queue-full rejections are recorded in the report (the open-loop
        client keeps sending); with ``strict=True`` they re-raise
        instead.
        """
        for query in queries:
            try:
                self.scheduler.submit(query)
            except AdmissionError:
                if strict:
                    raise
        self.scheduler.run_until_idle()
        return self.report()

    def report(self) -> ServiceReport:
        fault_stats = None
        if self.fault_injector is not None:
            self.metrics.sync_faults(self.fault_injector.faults_injected)
            fault_stats = self.fault_injector.stats()
        return ServiceReport(
            outcomes=list(self.scheduler.outcomes),
            metrics=self.metrics,
            registry_stats=self.registry.stats(),
            worker_stats=self.scheduler.worker_stats(),
            fault_stats=fault_stats,
        )
