"""A small discrete-event simulation engine: one heap of bare callbacks.

The paper's model makes an analytic claim — with ``l_j`` requests on
server ``j`` and no control over processing order, the expected handling
time of a request is ``l_j / (2 s_j)`` — that the request-processing layer
in :mod:`repro.sim.runner` validates empirically.  This module is the
engine underneath, written from scratch because no DES library is
available offline; the live control plane (:mod:`repro.livesim`) runs
every gossip cycle, message delivery and MinE handshake on it too.

Every pending event is a ``(time, seq, fn, value)`` tuple in a plain
list kept in heap order by :mod:`heapq`; running the event calls
``fn(value)``.  ``seq`` is a per-environment counter, unique per entry,
so tuple comparison never reaches ``fn`` and the pop order is the total
order ``(time, seq)``: events at equal times fire in scheduling order,
and a simulation replays the same event trace on every run.
"""

from __future__ import annotations

import heapq
import itertools
from time import perf_counter
from typing import Any, Callable

__all__ = ["Environment"]


class Environment:
    """The event loop: a time-ordered heap of pending callbacks."""

    def __init__(self):
        self.now = 0.0
        #: Number of events executed so far — the throughput denominator
        #: reported by long-running simulations (events per second).
        self.processed = 0
        self._heap: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._counter = itertools.count()
        #: Opt-in wall-clock profiler (``repro.obs.CallbackProfiler``).
        #: ``None`` keeps :meth:`run` on the untimed fast path.
        self._profiler = None

    def set_profiler(self, profiler) -> None:
        """Arm (or with ``None`` disarm) per-callback wall-clock timing:
        ``profiler.add(fn, dt)`` runs after each callback.

        Profiling only observes wall time — it never touches the clock,
        the queue, or event order, so a profiled run replays the exact
        event trace of an unprofiled one (at lower events/s).
        """
        self._profiler = profiler

    @property
    def queue_size(self) -> int:
        """Number of scheduled (not yet executed) events."""
        return len(self._heap)

    def call_at(self, time: float, fn: Callable[[Any], None], value: Any = None) -> None:
        """Schedule the callback ``fn(value)`` at absolute ``time``."""
        if time < self.now:
            raise ValueError(f"call_at into the past ({time} < now {self.now})")
        heapq.heappush(self._heap, (time, next(self._counter), fn, value))

    def call_in(self, delay: float, fn: Callable[[Any], None], value: Any = None) -> None:
        """Schedule ``fn(value)`` after ``delay`` time units (``call_at``
        relative to the current clock)."""
        if delay < 0:
            raise ValueError("negative delay")
        heapq.heappush(self._heap, (self.now + delay, next(self._counter), fn, value))

    def run(self, until: float | None = None) -> None:
        """Execute events in time order until the queue is empty or the
        next event lies past ``until``; in the latter case the clock
        stops at ``until``."""
        heap = self._heap
        pop = heapq.heappop
        prof = self._profiler  # hoisted: one local truth test per event
        processed = self.processed
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    self.now = until  # horizon hit, events remain
                    return
                self.now, _seq, fn, value = pop(heap)
                processed += 1
                if prof is None:
                    fn(value)
                else:
                    t0 = perf_counter()
                    fn(value)
                    prof.add(fn, perf_counter() - t0)
        finally:
            self.processed = processed
