"""Asynchronous MinE agents: pairwise exchanges as a delayed handshake.

Each server runs an agent loop that periodically (jittered interval)
selects its best exchange partner from its *current gossip view*
(:func:`repro.core.distributed.propose_partner`) and, if the expected
improvement clears the threshold, starts a two-message handshake:

``PROPOSE i→j``
    ``j`` ACCEPTs when idle.  When ``j`` has an outstanding proposal of
    its own, the conflict is resolved by server id: a proposer with a
    *lower* id preempts ``j``'s own proposal (``j`` abandons it and
    accepts); otherwise ``j`` REJECTs.  A busy acceptor always rejects.
``ACCEPT j→i``
    The pair is now synchronized: ``i`` computes Algorithm 1 on the
    *true* current state (:func:`~repro.core.distributed.
    apply_pair_exchange`) and applies it if it still improves — the
    stale view chose the partner, never the transfer.  ``i`` then sends
    ``DONE`` so ``j`` can unlock.

Each server holds at most one in-flight exchange (a ``busy`` slot
guards both roles) and every wait is bounded by a timeout, so dropped
messages and dead peers stall nothing: the proposer frees itself after
``propose_timeout``, the acceptor after ``accept_timeout``.  Stale
replies are discarded by token.

Three mechanisms keep the loop cheap at fleet scale:

* **Adaptive intervals.**  An agent whose proposals keep failing (no
  improving partner in view, REJECT, timeout, or a no-op exchange)
  backs off exponentially — its interval is multiplied by
  :data:`BACKOFF_FACTOR` per failure up to :data:`BACKOFF_MAX` — and snaps back
  to the base interval the moment a proposal is accepted or fresh
  information arrives.  A converged fleet therefore idles at a fraction
  of its peak proposal rate instead of re-deriving "nothing to do"
  every round.
* **Proposal memoization.**  ``propose_partner`` is a pure function of
  the gossip view and the allocation; if neither changed since the last
  futile attempt (tracked via ``AsyncGossip.update_counts`` and a
  global allocation version bumped on every exchange and churn event),
  the agent skips the numpy evaluation outright.
* **Partner-selection strategy.**  ``strategy="auto"`` uses the exact
  batched evaluation (with static per-server caches) on small
  fleets and the O(m) screened pass beyond
  :data:`repro.core.distributed.EXACT_BUDGET` — at m = 2000 an exact
  proposal costs seconds, a screened one a millisecond.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.distributed import (
    EXACT_BUDGET,
    PairExchange,
    apply_pair_exchange,
    propose_partner,
    static_caches_enabled,
)
from ..core.state import AllocationState
from ..sim.events import Environment
from ._util import BufferedUniform
from .gossip import AsyncGossip
from .net import ControlNetwork

__all__ = ["ExchangeAgents", "AgentStats"]

#: busy-slot roles
_PROPOSING = "proposing"
_ACCEPTED = "accepted"

#: Back-off of a failing agent: its interval is multiplied by
#: ``BACKOFF_FACTOR`` per futile attempt, up to ``BACKOFF_MAX`` times
#: the base interval.
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 8.0


@dataclass
class AgentStats:
    """Counters of the exchange handshake layer."""

    proposals: int = 0
    accepts: int = 0
    rejects: int = 0
    preemptions: int = 0        #: own proposal abandoned for a lower id
    exchanges: int = 0          #: handshakes that moved load
    noop_exchanges: int = 0     #: synced pairs with nothing left to move
    aborted: int = 0            #: partner died before the exchange applied
    propose_timeouts: int = 0
    accept_timeouts: int = 0
    stale_messages: int = 0     #: replies whose token no longer matches
    skipped_proposals: int = 0  #: memoized: view and state unchanged
    kernel_calls: int = 0       #: Algorithm 1 kernel dispatches
    kernel_candidates: int = 0  #: candidates covered by those dispatches


class ExchangeAgents:
    """One asynchronous Algorithm 2 agent per server: it acts once per
    ``interval`` (jittered, stretched by its back-off) and proposes only
    exchanges expected to improve ΣCi by more than ``min_improvement``,
    choosing partners by ``strategy`` (see the module doc)."""

    def __init__(
        self,
        env: Environment,
        net: ControlNetwork,
        state: AllocationState,
        gossip: AsyncGossip,
        alive: np.ndarray,
        seeds: list[np.random.SeedSequence],
        *,
        interval: float,
        propose_timeout: float,
        accept_timeout: float,
        min_improvement: float = 1e-9,
        strategy: str = "auto",
        screen_width: int = 16,
        on_exchange: Callable[[PairExchange], None] | None = None,
        trace: list | None = None,
        obs=None,
    ):
        m = state.inst.m
        if len(seeds) != m:
            raise ValueError("need one RNG seed per server")
        if strategy not in ("exact", "screened", "auto"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.env = env
        self.net = net
        self.state = state
        self.gossip = gossip
        self.alive = alive
        self.interval = float(interval)
        self.propose_timeout = float(propose_timeout)
        self.accept_timeout = float(accept_timeout)
        self.min_improvement = float(min_improvement)
        self.strategy = strategy
        self.screen_width = int(screen_width)
        self.on_exchange = on_exchange
        self.trace = trace
        self.rngs = [np.random.default_rng(s) for s in seeds]
        self._jitter = [BufferedUniform(r) for r in self.rngs]
        self.stats = AgentStats()
        # Under the Byzantine-robust merge, a completed handshake doubles
        # as a first-hand load observation of the partner (the pair-sync
        # already exchanged the true state): feed it back into the gossip
        # table.  None under the legacy merge — bit-identical traces.
        self._observe = (
            gossip.observe_peer
            if getattr(gossip, "merge_mode", "legacy") == "robust"
            else None
        )
        #: Optional refusal predicate ``(acceptor, proposer) -> bool``
        #: installed by the adversary plane: a compromised acceptor that
        #: returns True rejects the proposal (a blackhole protecting
        #: its claimed idleness).  None on honest runs.
        self.refuse: Callable[[int, int], bool] | None = None
        # Per-partner shun table (robust merge only): a partner whose
        # handshakes keep failing (REJECT or timeout — the channels
        # carrying no load information) is excluded from selection for
        # an exponentially growing cooldown, so a server that lures
        # proposals but never completes them cannot livelock the fleet.
        # Honest busy-rejects only ever produce short cooldowns (the
        # streak breaks as soon as one handshake completes); persistent
        # refusers escalate to the cap and effectively drop out of the
        # partner pool.  ``None`` (legacy) keeps traces bit-identical.
        self._shun: list[dict[int, tuple[float, float]]] | None = (
            [dict() for _ in range(m)] if self._observe is not None else None
        )
        # Tracing hook (repro.obs): None keeps every handler untraced.
        self._tracer = obs.tracer if obs is not None else None
        self.owners = np.flatnonzero(state.inst.loads > 0)
        #: per-server busy slot: ``None`` or ``(role, peer, token)``
        self.busy: list[tuple[str, int, int] | None] = [None] * m
        self._next_token = 0
        #: per-server interval multiplier (adaptive back-off)
        self.backoff = [1.0] * m
        # Memoization: (gossip.update_counts[i], allocation version) at
        # the last *futile* proposal evaluation, or None.
        self._state_version = 0
        self._futile: list[tuple[int, int] | None] = [None] * m
        self._pick_strategy()
        # The transposed R is maintained across exchanges in both modes:
        # the exact batch and the screened pass's batch_best_transfers
        # both gather candidate rows from it (cache-friendly rows instead
        # of strided column reads — the dominant cost of a screened
        # proposal at fleet scale).
        self._Rt = np.ascontiguousarray(state.R.T)
        # Both strategies read candidate latency rows from the transpose;
        # symmetric topologies (the common case) ARE their transpose, so
        # reuse the instance matrix instead of materializing an m×m copy
        # (200 MB at m = 5000).
        lat = state.inst.latency
        self._Ct = lat if np.array_equal(lat, lat.T) else np.ascontiguousarray(lat.T)
        # Nearest-peer lists for the screening pass (latency-static, so
        # never invalidated within a run).
        self._screen_cache: dict[int, np.ndarray] = {}
        for i in range(m):
            self._arm(i)

    def _pick_strategy(self) -> None:
        """Exact or screened proposals for the current owner set, plus
        empty static caches for the exact batched evaluation (mirroring
        MinEOptimizer) when they fit the memory budget."""
        m = self.state.inst.m
        h = max(1, self.owners.size)
        self._use_exact = self.strategy == "exact" or (
            self.strategy == "auto" and h * m <= EXACT_BUDGET
        )
        self._static_cache = {} if self._use_exact and static_caches_enabled(m, h) else None

    # ------------------------------------------------------------------
    def cancel(self, i: int) -> None:
        """Drop server ``i``'s in-flight handshake (called on failure);
        late replies are discarded by token mismatch."""
        self.busy[i] = None

    def notify_allocation_changed(self) -> None:
        """Invalidate proposal memos after an out-of-band allocation
        change (churn failure/rejoin); refreshes the transposed-R cache."""
        self._state_version += 1
        self._Rt = np.ascontiguousarray(self.state.R.T)

    def notify_demand_changed(self) -> None:
        """React to a demand shift (the tracking plane swapped the
        instance and retargeted the allocation): refresh everything that
        depends on the loads — the owner set, the strategy choice, the
        owner-sliced static caches — and reset every back-off so the
        fleet re-tracks the new optimum at full proposal rate."""
        state = self.state
        new_owners = np.flatnonzero(state.inst.loads > 0)
        owners_changed = not np.array_equal(new_owners, self.owners)
        self.owners = new_owners
        self._state_version += 1
        self._Rt = np.ascontiguousarray(state.R.T)
        if owners_changed:
            # The strategy choice and the cached argsorts and latency
            # slices are taken over the owner set.
            self._pick_strategy()
        self.backoff = [1.0] * state.inst.m

    def _record(self, *entry) -> None:
        if self.trace is not None:
            self.trace.append(entry)

    def _bump_backoff(self, i: int) -> None:
        b = self.backoff[i] * BACKOFF_FACTOR
        self.backoff[i] = b if b < BACKOFF_MAX else BACKOFF_MAX

    def _shun_partner(self, i: int, j: int) -> None:
        """Escalate ``i``'s cooldown on partner ``j`` after a failed
        handshake (robust merge only; no-op otherwise)."""
        if self._shun is None:
            return
        _until, cd = self._shun[i].get(j, (0.0, 0.0))
        cd = self.interval if cd == 0.0 else min(cd * 2.0, 64.0 * self.interval)
        self._shun[i][j] = (self.env.now + cd, cd)
        if cd >= 8.0 * self.interval:
            # Four consecutive failures with the same partner is no
            # longer busy-slot noise: feed it to the suspicion plane.
            self.gossip.note_unresponsive(j)

    # ------------------------------------------------------------------
    def _arm(self, i: int) -> None:
        delay = self.interval * (0.5 + self._jitter[i].next()) * self.backoff[i]
        self.env.call_in(delay, self._act, i)

    def _act(self, i: int) -> None:
        if not self.alive[i] or self.busy[i] is not None:
            self._arm(i)
            return
        stamp = (int(self.gossip.update_counts[i]), self._state_version)
        if self._futile[i] == stamp:
            # Nothing the proposal depends on has changed since the last
            # futile evaluation: same view, same allocation, same answer.
            self.stats.skipped_proposals += 1
            self._bump_backoff(i)
            self._arm(i)
            return
        if self._futile[i] is not None:
            # Fresh information after a futile spell: react at full rate.
            self.backoff[i] = 1.0
        excl = None
        if self._shun is not None and self._shun[i]:
            now = self.env.now
            excl = [
                p for p, (until, _cd) in self._shun[i].items() if until > now
            ] or None
        view = self.gossip.view(i)
        j, impr = propose_partner(
            self.state.inst, self.state.R, i, view,
            owners=self.owners,
            strategy="exact" if self._use_exact else "screened",
            screen_width=self.screen_width,
            rt_full=self._Rt,
            ct_full=self._Ct,
            static_cache=self._static_cache,
            screen_cache=self._screen_cache,
            exclude=excl,
            stats=self.stats,
        )
        if j < 0 or impr <= self.min_improvement:
            if excl is None:
                # Cooldown expiry isn't captured by the memo stamp, so a
                # shun-constrained futile answer is never memoized.
                self._futile[i] = stamp
            self._bump_backoff(i)
            self._arm(i)
            return
        self._futile[i] = None
        self._next_token += 1
        token = self._next_token
        self.busy[i] = (_PROPOSING, j, token)
        self.stats.proposals += 1
        self._record("propose", self.env.now, i, j, token)
        tracer = self._tracer
        if tracer is not None:
            # Causal link into gossip: the parent is the merge that last
            # changed this server's view — the information the partner
            # choice was computed from.
            psid = tracer.instant(
                "agent.propose",
                self.env.now,
                parent=tracer.lookup(("view", i)),
                track=i,
                peer=j,
                token=token,
            )
            tracer.bind(("xchg", token), psid)
        self.net.send(i, j, self._on_propose, (i, j, token))
        self.env.call_in(
            self.propose_timeout, self._expire, (i, token, _PROPOSING)
        )
        self._arm(i)

    def _expire(self, key: tuple) -> None:
        i, token, role = key
        slot = self.busy[i]
        if slot is not None and slot[0] == role and slot[2] == token:
            self.busy[i] = None
            if role == _PROPOSING:
                self.stats.propose_timeouts += 1
                self._shun_partner(i, slot[1])
            else:
                self.stats.accept_timeouts += 1
            self._bump_backoff(i)
            self._record("timeout", self.env.now, i, role, token)
            tracer = self._tracer
            if tracer is not None:
                tracer.instant(
                    "agent.timeout",
                    self.env.now,
                    parent=tracer.lookup(("xchg", token)),
                    track=i,
                    role=role,
                )
                if role == _PROPOSING:
                    tracer.take(("xchg", token))  # handshake is over

    # ------------------------------------------------------------------
    # Message handlers (run at the destination at delivery time)
    # ------------------------------------------------------------------
    def _on_propose(self, msg) -> None:
        i, j, token = msg
        refused = self.refuse is not None and self.refuse(j, i)
        slot = self.busy[j]
        preempt = slot is not None and slot[0] == _PROPOSING and i < j
        if not refused and (slot is None or preempt):
            if preempt:
                self.stats.preemptions += 1
            self.busy[j] = (_ACCEPTED, i, token)
            self.stats.accepts += 1
            self.backoff[j] = 1.0  # accepted: this server is productive
            self._record("accept", self.env.now, j, i, token)
            tracer = self._tracer
            if tracer is not None:
                tracer.instant(
                    "agent.accept",
                    self.env.now,
                    parent=tracer.lookup(("xchg", token)),
                    track=j,
                    peer=i,
                )
            self.net.send(j, i, self._on_accept, (i, j, token))
            self.env.call_in(
                self.accept_timeout, self._expire, (j, token, _ACCEPTED)
            )
        else:
            self.stats.rejects += 1
            tracer = self._tracer
            if tracer is not None:
                tracer.instant(
                    "agent.reject",
                    self.env.now,
                    parent=tracer.lookup(("xchg", token)),
                    track=j,
                    peer=i,
                )
            self.net.send(j, i, self._on_reject, (i, j, token))

    def _on_accept(self, msg) -> None:
        i, j, token = msg
        if self.busy[i] != (_PROPOSING, j, token):
            # Timed out (or preempted) in the meantime: no exchange, but
            # still release the acceptor instead of letting it time out.
            self.stats.stale_messages += 1
            self.net.send(i, j, self._on_done, (i, j, token))
            return
        self.busy[i] = None
        tracer = self._tracer
        psid = tracer.take(("xchg", token)) if tracer is not None else None
        if self.alive[j]:
            ex = apply_pair_exchange(
                self.state, i, j, min_improvement=self.min_improvement
            )
            if ex is not None:
                self.stats.exchanges += 1
                self.backoff[i] = 1.0
                self._state_version += 1
                self._Rt[i] = ex.col_i
                self._Rt[j] = ex.col_j
                self._record(
                    "exchange", self.env.now, i, j, ex.improvement, ex.moved
                )
                if tracer is not None:
                    tracer.instant(
                        "agent.exchange",
                        self.env.now,
                        parent=psid,
                        track=i,
                        peer=j,
                        improvement=float(ex.improvement),
                        moved=float(ex.moved),
                    )
                if self.on_exchange is not None:
                    self.on_exchange(ex)
            else:
                self.stats.noop_exchanges += 1
                self._bump_backoff(i)
            if self._observe is not None:
                self._observe(i, j)
            if self._shun is not None:
                # A completed handshake (even a noop) carried real load
                # information: the partner is responsive after all.
                self._shun[i].pop(j, None)
        else:
            # The pair-sync connection broke: j failed while ACCEPT was in
            # flight, so the exchange never happens.
            self.stats.aborted += 1
        self.net.send(i, j, self._on_done, (i, j, token))

    def _on_reject(self, msg) -> None:
        i, j, token = msg
        if self.busy[i] == (_PROPOSING, j, token):
            self.busy[i] = None
            self._bump_backoff(i)
            self._shun_partner(i, j)
            if self._tracer is not None:
                self._tracer.take(("xchg", token))  # handshake is over
        else:
            self.stats.stale_messages += 1

    def _on_done(self, msg) -> None:
        i, j, token = msg
        if self.busy[j] == (_ACCEPTED, i, token):
            self.busy[j] = None
            if self._observe is not None and self.alive[i]:
                # The DONE leg closes the pair sync: the acceptor learned
                # the proposer's exact post-exchange load too.
                self._observe(j, i)
            if self._shun is not None:
                self._shun[j].pop(i, None)
        else:
            self.stats.stale_messages += 1
