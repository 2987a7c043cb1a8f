"""Server and request actors for the request-processing simulation."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .events import Environment

__all__ = ["Request", "SimServer"]


@dataclass
class Request:
    """One simulated request travelling through the system."""

    owner: int
    server: int
    size: float = 1.0
    t_submit: float = 0.0
    t_arrive: float = field(default=float("nan"))
    t_complete: float = field(default=float("nan"))
    #: Trace-span id of the submit that caused this request (0 = no
    #: tracing).  Carried so service/drop/resubmit spans can parent onto
    #: the original submission across routing and crashes.
    trace_id: int = 0

    @property
    def latency(self) -> float:
        """Observed handling latency: network delay + queueing + service
        (the quantity the paper's ``Ci`` averages)."""
        return self.t_complete - self.t_submit


class SimServer:
    """A FIFO server processing requests at a fixed speed.

    Service of a request of ``size`` takes ``size / speed`` time units —
    the paper's constant-throughput assumption.  Each service completion
    is one ``call_at`` callback on the engine.

    ``obs`` (a :class:`repro.obs.Observability`) is optional; when set,
    each completion records a ``request.service`` span parented on the
    request's submit and observes the end-to-end latency histogram.
    """

    def __init__(self, env: Environment, index: int, speed: float, obs=None):
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.env = env
        self.index = index
        self.speed = speed
        self.queue: deque[Request] = deque()
        self.completed: list[Request] = []
        self.busy = False
        self._in_service: Request | None = None
        self._obs = obs
        self._latency_hist = (
            obs.metrics.histogram("request.latency") if obs is not None else None
        )

    # ------------------------------------------------------------------
    def submit(self, req: Request) -> None:
        """Enqueue an arriving request (call at its arrival time)."""
        req.t_arrive = self.env.now
        self.queue.append(req)
        if not self.busy:
            self._start_next()

    @property
    def backlog(self) -> int:
        return len(self.queue)

    def fail(self) -> list[Request]:
        """Crash: drop every queued request — including the one in
        service — and return them so the owners can re-submit.  The
        already-scheduled completion of the in-service request becomes a
        no-op (it no longer matches ``_in_service``)."""
        dropped: list[Request] = []
        if self._in_service is not None:
            dropped.append(self._in_service)
            self._in_service = None
        dropped.extend(self.queue)
        self.queue.clear()
        self.busy = False
        return dropped

    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        req = self.queue.popleft()
        self.busy = True
        self._in_service = req
        self.env.call_in(req.size / self.speed, self._complete, req)

    def _complete(self, req: Request) -> None:
        if req is not self._in_service:
            return  # dropped by a crash while its completion was in flight
        self._in_service = None
        req.t_complete = self.env.now
        self.completed.append(req)
        if self._latency_hist is not None:
            self._latency_hist.observe(req.latency)
            tracer = self._obs.tracer
            if tracer is not None:
                tracer.span(
                    "request.service",
                    req.t_arrive,
                    req.t_complete - req.t_arrive,
                    parent=req.trace_id or None,
                    track=self.index,
                    owner=req.owner,
                )
        if self.queue:
            self._start_next()
        else:
            self.busy = False
