"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent)``: wall-clock ``perf_counter``
times of one call across a layer boundary, and the index of the span
that was open around it (``-1`` at the top).  Spans come from three
places, all installed from the benchmark's side of the API:

* :meth:`SpanRecorder.wrap` — a call into a public function (or the
  handler a layer passes to ``ControlNetwork.send``);
* :meth:`SpanRecorder.profiler` — an object for
  ``Environment.set_profiler``: one span per executed event callback,
  named by callback kind, which adopts the spans recorded inside it;
* :meth:`SpanRecorder.patch` — swaps a module or class attribute for a
  wrapper until :meth:`SpanRecorder.restore`.

Spans live in flat ``array`` columns (about 22 bytes each) and are
written once, when the run ends (:meth:`SpanRecorder.save`).
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

#: Event-callback kinds (``__qualname__``) → span names.  Unknown kinds
#: keep their qualified name under ``callback.`` so no time goes missing.
CALLBACK_SPANS = {
    "ControlNetwork._deliver": "livesim.net.deliver",
    "AsyncGossip._tick": "livesim.gossip.tick",
    "ExchangeAgents._act": "livesim.agents.act",
    "ExchangeAgents._expire": "livesim.agents.expire",
    "LiveSimulation._traffic_fire": "livesim.driver.traffic",
    "LiveSimulation._request_arrives": "livesim.driver.request_arrives",
    "SimServer.submit": "sim.server.submit",
    "SimServer._complete": "sim.server.complete",
    "AdversaryPlane._tick": "byz.adversaries.tick",
    "simulate_stream.<locals>._arrive": "sim.runner.arrive",
}

#: Handlers passed to ``ControlNetwork.send`` → span names.
HANDLER_SPANS = {
    "AsyncGossip._on_push": "livesim.gossip.on_push",
    "AsyncGossip._on_push_delta": "livesim.gossip.on_push",
    "AsyncGossip._on_pull_reply": "livesim.gossip.on_pull_reply",
    "AsyncGossip._on_pull_reply_delta": "livesim.gossip.on_pull_reply",
    "ExchangeAgents._on_propose": "livesim.agents.on_propose",
    "ExchangeAgents._on_accept": "livesim.agents.on_accept",
    "ExchangeAgents._on_reject": "livesim.agents.on_reject",
    "ExchangeAgents._on_done": "livesim.agents.on_done",
}

#: Per-call medians are always reported; the p99 only from this many calls.
P99_MIN_CALLS = 40


def _qualname(fn) -> str:
    fn = getattr(fn, "__func__", fn)
    return getattr(fn, "__qualname__", None) or type(fn).__name__


class Patches:
    """Attribute swaps on modules or classes, undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        #: Per-span-name integer counters filled by call hooks.
        self.counts: dict[str, int] = {}
        self.patches = Patches()

    # -- recording ------------------------------------------------------
    def nid(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, name: str, fn, *, before=None, after=None):
        """``fn`` recording one span per call.  ``before(args)`` runs
        ahead of the call and its value reaches ``after(token, args,
        result)`` once the span is closed — hooks for counters."""
        nid = self.nid(name)
        names, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self.stack,
        )

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(token, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def profiler(self, env):
        """An ``Environment.set_profiler`` object recording one span per
        executed callback; tracks the peak pending-event count of ``env``."""
        return _CallbackSpans(self, env)

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper until
        :meth:`restore`."""
        self.patches.replace(owner, attr, self.wrap(name, getattr(owner, attr), **hooks))

    def restore(self) -> None:
        self.patches.restore()

    def instrument_send(self, net) -> None:
        """Wrap every handler passed through ``net.send`` in a span."""
        send = net.send
        cache: dict = {}

        def traced_send(src, dst, handler, payload):
            func = getattr(handler, "__func__", handler)
            wrapped = cache.get(func)
            if wrapped is None:
                qual = _qualname(handler)
                wrapped = cache[func] = self.wrap(
                    HANDLER_SPANS.get(qual, "handler." + qual), handler
                )
            return send(src, dst, wrapped, payload)

        net.send = traced_send

    # -- reading --------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, per-call median
        (and p99 from :data:`P99_MIN_CALLS` calls) in microseconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        par = a["parent"]
        child = np.zeros_like(dur)
        has = par >= 0
        if has.any():
            child = np.bincount(par[has], weights=dur[has], minlength=dur.size)
        self_t = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            calls = int(sel.sum())
            if not calls:
                continue
            d = dur[sel]
            row = {
                "calls": calls,
                "total_s": float(d.sum()),
                "self_s": float(self_t[sel].sum()),
                "p50_us": float(np.median(d)) * 1e6,
            }
            if calls >= P99_MIN_CALLS:
                row["p99_us"] = float(np.percentile(d, 99)) * 1e6
            out[name] = row
        return out

    def save(self, path: str) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())


class _CallbackSpans:
    """``Environment.set_profiler`` adapter: the engine reports each
    callback after it ran (``add(fn, dt)``); the span is back-dated by
    ``dt`` and adopts the top-level spans recorded since the last one."""

    __slots__ = ("rec", "env", "ids", "mark", "pending_max", "own_s")

    def __init__(self, rec: SpanRecorder, env) -> None:
        self.rec = rec
        self.env = env
        self.ids: dict = {}
        self.mark = len(rec.start)
        self.pending_max = 0
        #: Time spent in :meth:`add` itself — tracing cost that would
        #: otherwise count as event-loop time.
        self.own_s = 0.0

    def add(self, fn, dt: float) -> None:
        t1 = perf_counter()
        rec = self.rec
        func = getattr(fn, "__func__", fn)
        nid = self.ids.get(func)
        if nid is None:
            qual = _qualname(fn)
            nid = self.ids[func] = rec.nid(CALLBACK_SPANS.get(qual, "callback." + qual))
        parent = rec.parent
        top = rec.stack[-1] if rec.stack else -1
        idx = len(rec.start)
        for k in range(self.mark, idx):
            if parent[k] == top:
                parent[k] = idx
        rec.name_id.append(nid)
        rec.start.append(t1 - dt)
        rec.end.append(t1)
        parent.append(top)
        self.mark = idx + 1
        q = self.env.queue_size
        if q > self.pending_max:
            self.pending_max = q
        self.own_s += perf_counter() - t1
