"""Asynchronous push–pull gossip running on the event engine's fast path.

The round-based :class:`repro.gossip.GossipNetwork` advances all nodes in
lock step; here every server runs its *own* jittered publish/exchange
loop on the shared event queue.  One cycle of server ``i``:

1. publish its authoritative entry (its current true load, a fresh
   per-origin version, and the publish sim-time);
2. pick a random finite-latency peer ``j`` and send it a PUSH carrying
   gossip state;
3. on delivery, ``j`` merges the payload entry-wise by per-origin version
   and replies with a PULL-REPLY carrying its own state, which ``i``
   merges in turn when (and if) it arrives.

Because both legs travel through :class:`repro.livesim.net.ControlNetwork`
views are stale by real in-flight time: entry ages (``now − publish
time``) are the staleness metric the driver reports.  Down servers
neither publish nor reply; their authoritative entries age until they
rejoin.

Two wire formats carry the exchange (``mode=`` on :class:`AsyncGossip`,
``gossip_mode`` on :class:`repro.livesim.LiveConfig`):

``"full"`` (default)
    Every payload is the sender's whole per-server state (values,
    versions, publish stamps) — one batched copy per (src, dst) round,
    merged with one version-masked pass.  O(m) payload per message.

``"delta"``
    Version-vector diffs: a payload carries only the entries the sender
    cannot prove the receiver already has.  Each server tracks the local
    sim-time at which every table entry last *changed* (merged a newer
    version, or its own entry re-published a new value — tracked on a
    per-server integer modification clock, so ordering is exact even
    when events share a float timestamp) plus, per destination, an
    acknowledged *floor*: payloads ship exactly the entries modified
    after the floor.  The PULL-REPLY echoes the push's assembly clock;
    receiving it proves the push was merged, advancing the floor.  Lost
    messages simply leave the floor behind, so the next payload is a
    superset — never a gap.  Entry versions bump only when a value
    actually changes, so a converged fleet ships near-empty payloads:
    O(changes) instead of O(m).

    Delta mode is a *wire-format* optimization with provably identical
    merge results: a payload always includes every entry strictly newer
    than the receiver's copy (anything omitted is provably not newer, so
    a full-table merge would discard it too).  Message sequence, RNG
    streams, merged load views, ``update_counts`` and therefore agent
    behavior are bit-identical to full mode — the determinism suite
    replays both modes on every preset.  Only the staleness *metric*
    differs: stamps refresh on value changes, so a view's "age" is the
    age of its last change rather than of its last heartbeat.

Throughput choices that matter on the hot path:

* **Batched payloads.**  A (src, dst) exchange round ships the whole
  per-server state (or its delta) as *one* payload and merges it with
  one version-masked pass — never one message-event per table entry.
* **One packed table.**  Every fleet size keeps its tables in one
  ``(m, 3, m)`` ndarray: a payload is a single contiguous ``(3, m)``
  copy (or a fancy-indexed ``(3, k)`` delta) and a merge a few
  vectorized calls.  Plain Python lists merge about twice as fast at
  m ≈ 16, but end to end (the m = 24 benchmark workload) the saving is
  within noise, so one representation serves every fleet size.
* **Callback cycles.**  Each server's publish/push loop is a self-
  re-arming ``call_at`` callback, with its jitter and peer draws taken
  from block-buffered (bit-identical) streams.

``update_counts[i]`` counts the times server ``i``'s *view content*
actually changed (fresh values merged in, or its own entry re-published
with a different load) — the agents use it to skip re-evaluating a
partner proposal when nothing the proposal depends on has changed.

Byzantine-robust merge (``merge_mode="robust"``, off by default)
----------------------------------------------------------------

The legacy merge trusts every entry: whoever ships the highest version
for an origin owns the receiver's view of that origin.  One misbehaving
server can therefore poison every view it gossips into (see
:mod:`repro.byz.adversaries`).  Robust mode replaces the per-entry
accept rule with ideas from fault-tolerant approximate consensus
(Dolev et al. JACM86; Ben-Or-style rounds):

* **First-hand claims** (sender == origin) are accepted by version rule,
  but clamped against what the receiver *provably* knows: its own
  placement ``R[dst, origin]`` is a hard lower bound on the origin's
  true load, so a self-claim below it is a detected lie (suspicion++,
  value clamped to the bound).
* **Second-hand claims** (relays) go through a per-(receiver, origin)
  claim buffer keyed by reporter.  A value is accepted only once
  :data:`ROBUST_QUORUM` distinct reporters carry versions newer than the
  accepted one; the claims are sorted by value, the :data:`ROBUST_TRIM`
  most extreme are discarded from each end, and the survivors must
  agree within :data:`ROBUST_TOLERANCE` (relative).  The accepted value is
  the survivors' mean and the accepted version their *minimum* — a
  fabricated sky-high version can therefore never ratchet the accepted
  version and lock honest claims out.
* **Pair-sync observations**: a completed exchange handshake
  synchronizes the pair on the true state, so the agents feed the
  partner's exact load back via :meth:`observe_peer`, recorded
  :data:`ROBUST_OBSERVE_MARGIN` versions ahead — the defense that
  no quorum can provide against an origin lying about *itself* (every
  relay of a self-claim descends from the same lie).
* **Suspicion**: every detected lie (clamped self-claim, trimmed-out
  outlier claim, observation contradicting a view) accrues a per-server
  ``suspicion`` score — weighted by how many agreement bands off the
  value was and decaying exponentially in sim time, so the transient
  staleness of early convergence fades while persistent liars keep
  accumulating.  Exported as ``byz.suspicion`` gauges (read through
  :meth:`AsyncGossip.suspicion_view`).

Robust mode walks each payload entry by entry in Python (over a
``.tolist()`` copy of it), so it is aimed at the small fleets of the
``byzantine-*`` scenario family; with ``merge_mode="legacy"`` (the
default) none of its state exists and traces are bit-identical to
earlier releases — asserted on every preset in both wire formats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.instance import Instance
from ..core.state import AllocationState
from ..sim.events import Environment
from ._util import BufferedIntegers, BufferedUniform
from .net import ControlNetwork

__all__ = ["AsyncGossip", "GossipStats", "GOSSIP_MODES", "MERGE_MODES"]

GOSSIP_MODES = ("full", "delta")

MERGE_MODES = ("legacy", "robust")

#: Modelled payload sizes for the byte accounting: a full-table entry is
#: three float64 (value, version, stamp); a delta entry additionally
#: carries its origin index; every message pays a small fixed header.
_ENTRY_BYTES_FULL = 24
_ENTRY_BYTES_DELTA = 32
_HEADER_BYTES = 24

#: The robust merge's fixed parameters (see the module doc).  Quorum and
#: trim are one fault bound, f = 1, acting on 2f + 1 reports; an
#: observation also outranks relayed quorums for ROBUST_OBSERVE_MARGIN
#: gossip intervals.
ROBUST_QUORUM = 3
ROBUST_TRIM = 1
ROBUST_TOLERANCE = 0.2
ROBUST_OBSERVE_MARGIN = 8


@dataclass
class GossipStats:
    """Counters of the gossip layer."""

    publishes: int = 0
    pushes: int = 0
    pull_replies: int = 0
    merges: int = 0
    payload_entries: int = 0  #: table entries shipped across all payloads
    payload_bytes: int = 0    #: modelled bytes shipped (see module doc)
    # Robust-merge counters (always 0 under merge_mode="legacy"):
    claims: int = 0           #: second-hand claims buffered
    robust_accepts: int = 0   #: entries accepted via quorum + trimmed mean
    quorum_holds: int = 0     #: quorums reached but spread out of tolerance
    outliers: int = 0         #: claims trimmed as outliers (suspicion++)
    clamps: int = 0           #: self-claims clamped to the placement bound
    observations: int = 0     #: pair-sync true-load observations recorded


class AsyncGossip:
    """Per-server gossip tables plus the callbacks that exchange them.

    ``values[i, k]`` is server ``i``'s view of server ``k``'s load,
    ``versions[i, k]`` the per-origin version of that view and
    ``stamps[i, k]`` the sim-time at which origin ``k`` published it —
    so ``env.now − stamps[i]`` is the *information age* of ``i``'s view.
    The three are (m, m) views of the packed ``(m, 3, m)`` table, so they
    follow every later merge (copy one to keep a snapshot); mutate state
    only through :meth:`publish` and the message handlers.  ``mode``
    selects the wire format (``"full"`` tables or ``"delta"``
    version-vector diffs) and ``merge_mode`` the accept rule
    (``"legacy"`` or ``"robust"``).  Every server gossips once per
    ``interval``, jittered uniformly over [0.5, 1.5) of it.
    """

    def __init__(
        self,
        env: Environment,
        net: ControlNetwork,
        inst: Instance,
        state: AllocationState,
        alive: np.ndarray,
        seeds: list[np.random.SeedSequence],
        *,
        interval: float,
        mode: str = "full",
        merge_mode: str = "legacy",
        obs=None,
    ):
        m = inst.m
        if len(seeds) != m:
            raise ValueError("need one RNG seed per server")
        if mode not in GOSSIP_MODES:
            raise ValueError(f"gossip mode must be one of {GOSSIP_MODES}, got {mode!r}")
        if merge_mode not in MERGE_MODES:
            raise ValueError(
                f"merge mode must be one of {MERGE_MODES}, got {merge_mode!r}"
            )
        if merge_mode == "robust" and m < ROBUST_QUORUM + 2:
            raise ValueError(
                f'merge_mode="robust" needs at least {ROBUST_QUORUM + 2} '
                f"servers (got m={m}): a quorum counts {ROBUST_QUORUM} distinct "
                "reporters other than the origin and the receiver"
            )
        self.env = env
        self.net = net
        self.inst = inst
        self.state = state
        self.alive = alive
        self.interval = float(interval)
        self.mode = mode
        self.merge_mode = merge_mode
        self.rngs = [np.random.default_rng(s) for s in seeds]
        self.stats = GossipStats()
        # Tracing hook (repro.obs): None keeps every handler on the
        # untraced fast path — one attribute truth-test per message.
        self._tracer = obs.tracer if obs is not None else None

        self._m = m
        self._own_version = [0] * m
        #: Times each server's view *content* changed (see module doc).
        self.update_counts = [0] * m
        delta = mode == "delta"
        if delta:
            # Per-server integer modification clock (`_mclock[i]` ticks
            # once per local table modification — publish-with-change or
            # merge), the clock value at which every entry last changed
            # (`_mtime[i, k]`), and per (sender, receiver) pair the
            # acknowledged floor: the sender's clock snapshot of the
            # last payload the receiver provably merged.  Bootstrap
            # state is common knowledge, so everything starts at 0:
            # nothing is shipped until something changes.
            self._mclock = [0] * m
            self._mtime = np.zeros((m, m), dtype=np.int64)
            self._ack_floor = np.zeros((m, m), dtype=np.int64)

        # Bootstrap: the starting allocation (everyone runs locally) is
        # common knowledge, so every table starts from the true initial
        # loads at version 0 / age 0 rather than from blank entries.
        # Packed row layout: [0] values, [1] versions (float64 —
        # integer-exact far beyond any reachable count), [2] stamps.
        self._table = np.zeros((m, 3, m), dtype=np.float64)
        self._table[:, 0, :] = state.loads
        # Cached row views: creating an ndarray view per merge or
        # publish costs more than the arithmetic on it.
        self._rows = [self._table[i] for i in range(m)]
        self._vals = [self._table[i, 0] for i in range(m)]
        self._vers = [self._table[i, 1] for i in range(m)]
        self._stmp = [self._table[i, 2] for i in range(m)]
        # Scratch buffers for the merge (transient, shared).
        self._newer_buf = np.empty(m, dtype=bool)
        self._diff_buf = np.empty(m, dtype=bool)
        if delta:
            self.publish = self._publish_delta
            self._packet_body = self._packet_body_delta
            self._merge = self._merge_delta
        else:
            self.publish = self._publish_full
            self._packet_body = self._packet_body_full
            self._merge = self._merge_full
        self._push_handler = self._on_push_delta if delta else self._on_push
        self._delta = delta
        if merge_mode == "robust":
            # Robust mode keeps the legacy publish/packet paths (the wire
            # format is unchanged) and swaps only the accept rule.
            self._merge = (
                self._merge_robust_delta if delta else self._merge_robust_full
            )
            #: per-server lie score (clamps + outlier claims + contradicted
            #: observations) — the ``byz.suspicion`` gauges.  Blame is
            #: weighted by how many agreement bands off the value was
            #: (honest staleness sits near one band, lies far beyond) and
            #: decays exponentially in sim time, so the transient noise
            #: of early convergence fades while persistent liars keep
            #: accruing; read through :meth:`suspicion_view`.
            self.suspicion: np.ndarray | None = np.zeros(m, dtype=np.float64)
            self._susp_time = np.zeros(m, dtype=np.float64)
            self._susp_tau = 40.0 * self.interval
            # claim buffers: _claims[dst][origin][reporter] = (ver, val, stamp)
            self._claims: list[dict[int, dict[int, tuple]]] = [
                {} for _ in range(m)
            ]
            # Direct observations are authoritative for a horizon:
            # _observed[d][k] = (time, value) from the last pair-sync.
            # A quorum mean contradicting a recent observation is held
            # rather than accepted — every relay of a self-lie descends
            # from the same first-hand misreport, so relayed copies
            # agree with each other and would otherwise out-quorum the
            # ground truth (and get honest truth-relayers blamed as
            # outliers against the lie).
            self._observed: list[dict[int, tuple[float, float]]] = [
                {} for _ in range(m)
            ]
            self._obs_horizon = float(ROBUST_OBSERVE_MARGIN) * self.interval
            # Absolute floor of the relative agreement band, so claims
            # about a near-zero load still have a workable tolerance.
            self._tol_floor = 0.05 * float(np.mean(state.loads)) + 1e-12
        else:
            self.suspicion = None

        # Peers reachable over a finite-latency link (gossip cannot cross
        # forbidden links any more than requests can).
        self.peers = [
            np.flatnonzero(np.isfinite(inst.latency[i]) & (np.arange(m) != i))
            for i in range(m)
        ]
        # Block-buffered per-server draws (bit-identical streams, a
        # fraction of the per-call Generator dispatch cost).
        self._jitter = [BufferedUniform(r) for r in self.rngs]
        self._peer_draw = [
            BufferedIntegers(r, p.size) if p.size else None
            for r, p in zip(self.rngs, self.peers)
        ]
        # Every server knows its own load exactly at t = 0.
        for i in range(m):
            self.publish(i)
        for i in range(m):
            self._arm(i)

    # ------------------------------------------------------------------
    # Table views
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """(m, m) view of viewed loads (row = viewing server)."""
        return self._table[:, 0, :]

    @property
    def versions(self) -> np.ndarray:
        """(m, m) view of per-origin entry versions."""
        return self._table[:, 1, :]

    @property
    def stamps(self) -> np.ndarray:
        """(m, m) view of per-origin publish sim-times."""
        return self._table[:, 2, :]

    def view(self, i: int) -> np.ndarray:
        """Server ``i``'s current (stale) view of all loads; its own
        entry is always live."""
        out = self._vals[i].copy()
        out[i] = self.state.loads[i]
        return out

    def ages(self, i: int) -> np.ndarray:
        """Information age of server ``i``'s view entries, in sim-time
        units since the entry was published at its origin."""
        return self.env.now - self._stmp[i]

    def mean_view_age(self) -> float:
        """Mean finite off-diagonal view age across all live servers."""
        ages = self.env.now - self.stamps
        m = self.inst.m
        mask = np.isfinite(ages) & ~np.eye(m, dtype=bool)
        mask &= self.alive[:, None]
        if not mask.any():
            return float("inf")
        return float(ages[mask].mean())

    # ------------------------------------------------------------------
    def refresh_demand(self, inst: Instance) -> None:
        """Demand shifted: adopt the new instance and republish every
        live server's authoritative entry so the new true loads spread.

        The caller must have retargeted the shared allocation state
        first (:func:`repro.core.dynamic.retarget_rows`); the latency
        matrix must be unchanged — peers and topology are static.
        """
        if inst.m != self.inst.m:
            raise ValueError(
                f"demand refresh cannot change the fleet size "
                f"({self.inst.m} -> {inst.m})"
            )
        self.inst = inst
        for i in range(inst.m):
            if self.alive[i]:
                self.publish(i)

    # ------------------------------------------------------------------
    # Publish / packet / merge — full wire format
    # ------------------------------------------------------------------
    def _publish_full(self, i: int) -> None:
        """Server ``i`` (re)publishes its authoritative entry: its true
        current load, freshly versioned and stamped with the sim-time."""
        self._own_version[i] += 1
        load = self.state.loads[i]
        vals = self._vals[i]
        if vals[i] != load:
            vals[i] = load
            self.update_counts[i] += 1
        self._vers[i][i] = self._own_version[i]
        self._stmp[i][i] = self.env.now
        self.stats.publishes += 1

    def _packet_body_full(self, src: int, dst: int) -> np.ndarray:
        # The whole (values, versions, stamps) state batched into one
        # contiguous (3, m) copy for the (src, dst) round.
        self.stats.payload_entries += self._m
        self.stats.payload_bytes += _HEADER_BYTES + _ENTRY_BYTES_FULL * self._m
        return self._rows[src].copy()

    def _merge_full(self, src: int, dst: int, table: np.ndarray) -> None:
        # count_nonzero tests a mask faster than ndarray.any() does.
        newer = self._newer_buf
        np.greater(table[1], self._vers[dst], out=newer)
        if np.count_nonzero(newer):
            # Did any refreshed entry change its *value*?  (Version-only
            # refreshes must not invalidate the agents' proposal memos.)
            diff = self._diff_buf
            np.not_equal(table[0], self._vals[dst], out=diff)
            diff &= newer
            if np.count_nonzero(diff):
                self.update_counts[dst] += 1
            np.copyto(self._rows[dst], table, where=newer)
            self.stats.merges += 1

    # ------------------------------------------------------------------
    # Publish / packet / merge — delta wire format
    # ------------------------------------------------------------------
    def _publish_delta(self, i: int) -> None:
        # Versions advance only when the value does: an unchanged load
        # re-published is a no-op, which is what keeps converged payloads
        # empty.  (Value changes are what downstream consumers react to;
        # see the module doc for why this preserves bit-identity.)
        load = self.state.loads[i]
        vals = self._vals[i]
        if vals[i] == load:
            return
        vals[i] = load
        self.update_counts[i] += 1
        self._own_version[i] += 1
        self._vers[i][i] = self._own_version[i]
        self._stmp[i][i] = self.env.now
        self._mclock[i] += 1
        self._mtime[i, i] = self._mclock[i]
        self.stats.publishes += 1

    def _packet_body_delta(self, src: int, dst: int) -> tuple:
        idx = np.flatnonzero(self._mtime[src] > self._ack_floor[src, dst])
        sub = self._rows[src][:, idx]  # advanced indexing: already a copy
        self.stats.payload_entries += idx.size
        self.stats.payload_bytes += _HEADER_BYTES + _ENTRY_BYTES_DELTA * idx.size
        return (self._mclock[src], idx, sub)

    def _merge_delta(self, src: int, dst: int, body: tuple) -> None:
        _snap, idx, sub = body
        if idx.size == 0:
            return
        vers = self._vers[dst]
        newer = sub[1] > vers[idx]
        if np.count_nonzero(newer):
            sel = idx[newer]
            picked = sub[:, newer]
            vals = self._vals[dst]
            if np.count_nonzero(picked[0] != vals[sel]):
                self.update_counts[dst] += 1
            vals[sel] = picked[0]
            vers[sel] = picked[1]
            self._stmp[dst][sel] = picked[2]
            self._mclock[dst] += 1
            self._mtime[dst, sel] = self._mclock[dst]
            self.stats.merges += 1

    # ------------------------------------------------------------------
    # Robust merge (merge_mode="robust") — see module doc
    # ------------------------------------------------------------------
    def _entry_store(self, i: int, k: int, val, ver, stamp) -> bool:
        """Write one table entry; returns True if the value changed."""
        row = self._vals[i]
        changed = bool(row[k] != val)
        row[k] = val
        self._vers[i][k] = ver
        self._stmp[i][k] = stamp
        return changed

    def _touch_delta(self, i: int, ks) -> None:
        """Delta bookkeeping for out-of-band entry writes: tick the
        modification clock once and mark every written entry, so the
        entries ship in the next delta payloads."""
        if self._delta and ks:
            self._mclock[i] += 1
            t = self._mclock[i]
            for k in ks:
                self._mtime[i, k] = t

    def _band(self, ref: float) -> float:
        return ROBUST_TOLERANCE * max(abs(ref), self._tol_floor)

    def _blame(self, k: int, weight: float) -> None:
        """Accrue decayed, magnitude-weighted suspicion on server ``k``.

        ``weight`` is the discrepancy in agreement bands (capped so one
        freak value cannot dominate a whole run); the accumulated score
        e-folds every ``_susp_tau`` of sim time, applied lazily here and
        on read in :meth:`suspicion_view`.
        """
        now = self.env.now
        dt = now - self._susp_time[k]
        if dt > 0.0:
            self.suspicion[k] *= np.exp(-dt / self._susp_tau)
            self._susp_time[k] = now
        self.suspicion[k] += min(10.0, weight)

    def note_unresponsive(self, j: int) -> None:
        """Agent-layer suspicion feed: server ``j`` keeps refusing or
        timing out handshakes (reported once the per-partner cooldown
        escalates past the busy-slot noise floor)."""
        if self.suspicion is not None:
            self._blame(j, 2.0)

    def suspicion_view(self) -> np.ndarray | None:
        """The suspicion scores decayed to the current sim time (the
        ``byz.suspicion`` gauges; ``None`` under the legacy merge)."""
        if self.suspicion is None:
            return None
        return self.suspicion * np.exp(
            -(self.env.now - self._susp_time) / self._susp_tau
        )

    def _merge_robust_full(self, src: int, dst: int, body) -> None:
        qv, qr, qs = body.tolist()
        self._robust_entries(src, dst, range(self._m), qv, qr, qs, self._vers[dst].tolist())

    def _merge_robust_delta(self, src: int, dst: int, body) -> None:
        _snap, idx, sub = body
        if idx.size == 0:
            return
        qv, qr, qs = sub.tolist()
        self._robust_entries(src, dst, idx.tolist(), qv, qr, qs, self._vers[dst][idx].tolist())

    def _robust_entries(self, src: int, dst: int, ks, qv, qr, qs, cur_vers) -> None:
        """The robust accept rule over one payload's entries: ``qv``,
        ``qr`` and ``qs`` are Python lists aligned with the origin
        indices ``ks``, and ``cur_vers`` is dst's versions at ``ks``.
        One snapshot is safe: each origin appears at most once per
        payload, so no entry is read again after this merge wrote it."""
        st = self.stats
        claims_dst = self._claims[dst]
        quorum = ROBUST_QUORUM
        trim = ROBUST_TRIM
        accepted: list[int] = []
        changed = False
        for pos, k in enumerate(ks):
            if k == dst:
                continue
            ver = qr[pos]
            cur_ver = cur_vers[pos]
            if ver <= cur_ver:
                continue
            val = qv[pos]
            stamp = qs[pos]
            if src == k:
                # First-hand self-claim: version rule with the placement
                # floor — dst's own load placed on k bounds k's load below.
                placed = float(self.state.R[dst, k])
                pband = self._band(placed)
                if val < placed - pband:
                    st.clamps += 1
                    self._blame(k, (placed - val) / pband)
                    val = placed
                if self._entry_store(dst, k, val, ver, stamp):
                    changed = True
                accepted.append(k)
                continue
            # Second-hand claim: buffer by reporter, accept on quorum.
            st.claims += 1
            buf = claims_dst.setdefault(k, {})
            buf[src] = (ver, val, stamp)
            cand = [
                (cv, cval, cstamp)
                for cv, cval, cstamp in buf.values()
                if cv > cur_ver
            ]
            if len(cand) < quorum:
                continue
            cand.sort(key=lambda c: c[1])
            surv = cand[trim:len(cand) - trim] if len(cand) > 2 * trim else cand
            vals_s = [c[1] for c in surv]
            band = self._band(vals_s[len(vals_s) // 2])
            if vals_s[-1] - vals_s[0] > 2.0 * band:
                # Quorum reached but the trimmed claims still disagree:
                # hold the entry until the reporters converge.
                st.quorum_holds += 1
                continue
            new_val = sum(vals_s) / len(vals_s)
            ob = self._observed[dst].get(k)
            if ob is not None:
                if self.env.now - ob[0] > self._obs_horizon:
                    del self._observed[dst][k]
                elif abs(new_val - ob[1]) > self._band(ob[1]):
                    # The quorum contradicts a fresh direct observation:
                    # hold — ground truth outranks any set of relays.
                    st.quorum_holds += 1
                    continue
            # min survivor version: an inflated fabricated version that
            # sneaks into the survivors cannot ratchet the accepted
            # version and lock honest claims out.
            new_ver = min(c[0] for c in surv)
            new_stamp = min(c[2] for c in surv)
            if self._entry_store(dst, k, new_val, new_ver, new_stamp):
                changed = True
            accepted.append(k)
            st.robust_accepts += 1
            # Blame and drop outlier claims; drop claims now stale.
            for r in list(buf):
                cv, cval, _cs = buf[r]
                if abs(cval - new_val) > band:
                    self._blame(r, abs(cval - new_val) / band)
                    st.outliers += 1
                    del buf[r]
                elif cv <= new_ver:
                    del buf[r]
        if accepted:
            st.merges += 1
            if changed:
                self.update_counts[dst] += 1
            self._touch_delta(dst, accepted)

    def observe_peer(self, d: int, k: int) -> None:
        """Pair-sync observation: the exchange handshake synchronized
        ``d`` and ``k`` on the true state, so ``d`` now knows ``k``'s
        exact load — record it first-hand, well ahead in version space
        (:data:`ROBUST_OBSERVE_MARGIN`), so a lying origin needs that many fresh
        self-publishes before its next claim can displace the truth.
        Only meaningful (and only called) under ``merge_mode="robust"``.
        """
        if self.suspicion is None:
            return
        truth = float(self.state.loads[k])
        band = self._band(truth)
        seen = float(self._vals[d][k])
        if abs(seen - truth) > band:
            # The view d acted on contradicts ground truth: the origin
            # owns its self-claims.
            self._blame(k, abs(seen - truth) / band)
        ver = float(self._vers[d][k]) + ROBUST_OBSERVE_MARGIN
        self._observed[d][k] = (self.env.now, truth)
        changed = self._entry_store(d, k, truth, ver, self.env.now)
        if changed:
            self.update_counts[d] += 1
        self._touch_delta(d, [k])
        self.stats.observations += 1
        # Every buffered claim is now stale relative to the observation.
        self._claims[d].pop(k, None)

    # ------------------------------------------------------------------
    # Adversary hooks (repro.byz) — mode-correct table writes that let a
    # compromised server lie on the wire without bypassing the protocol
    # ------------------------------------------------------------------
    def misreport(self, i: int, value: float) -> None:
        """Adversarial publish: exactly :meth:`publish`'s bookkeeping,
        but claiming ``value`` for server ``i``'s own entry instead of
        its true load."""
        value = float(value)
        now = self.env.now
        cur = float(self._vals[i][i])
        if self._delta:
            # Delta publishes are no-ops when the value is unchanged.
            if cur == value:
                return
            self._own_version[i] += 1
            self._entry_store(i, i, value, self._own_version[i], now)
            self.update_counts[i] += 1
            self._touch_delta(i, [i])
        else:
            self._own_version[i] += 1
            if self._entry_store(i, i, value, self._own_version[i], now):
                self.update_counts[i] += 1
        self.stats.publishes += 1

    def inject(self, i: int, ks, vals, *, version_bump: int = 1) -> None:
        """Adversarial table write: server ``i`` overwrites its *own
        view* of origins ``ks`` with values ``vals``, versions advanced
        ``version_bump`` past its current entries — the forged rows then
        spread through the normal gossip exchange.  Versions bumped
        faster than the honest +1-per-publish cadence win every legacy
        merge, which is exactly the attack the robust merge defeats."""
        now = self.env.now
        touched: list[int] = []
        changed = False
        for k, v in zip(ks, vals):
            k = int(k)
            ver = float(self._vers[i][k]) + version_bump
            if self._entry_store(i, k, float(v), ver, now):
                changed = True
            if k == i and ver > self._own_version[i]:
                self._own_version[i] = int(ver)
            touched.append(k)
        if changed:
            self.update_counts[i] += 1
        self._touch_delta(i, touched)

    # ------------------------------------------------------------------
    # The gossip cycle
    # ------------------------------------------------------------------
    def _packet(self, src: int, dst: int) -> tuple:
        return (src, dst, self._packet_body(src, dst))

    def _arm(self, i: int) -> None:
        # Jittered interval: desynchronizes the population so gossip
        # traffic is spread over time instead of thundering in herds.
        self.env.call_in(
            self.interval * (0.5 + self._jitter[i].next()), self._tick, i
        )

    def _tick(self, i: int) -> None:
        draw = self._peer_draw[i]
        if draw is not None and self.alive[i]:
            self.publish(i)
            j = int(self.peers[i][draw.next()])
            self.stats.pushes += 1
            tracer = self._tracer
            if tracer is None:
                self.net.send(i, j, self._push_handler, self._packet(i, j))
            else:
                # Tracing appends the flight-span id to the packet; the
                # handlers index-unpack, so both shapes are accepted.
                sid = tracer.begin(
                    "gossip.push", self.env.now, track=i, src=i, dst=j
                )
                if not self.net.send(
                    i, j, self._push_handler, self._packet(i, j) + (sid,)
                ):
                    tracer.abandon(sid)  # dropped at send time
        self._arm(i)

    def _merge_traced(self, src, dst, body, parent, now) -> None:
        """Merge plus trace: a merge that changed ``dst``'s view content
        records a ``gossip.merge`` instant (parented on the carrying
        message's flight span) and becomes the current cause behind
        ``("view", dst)`` — the key the agents' proposals parent onto."""
        before = self.update_counts[dst]
        self._merge(src, dst, body)
        if self.update_counts[dst] != before:
            tracer = self._tracer
            msid = tracer.instant(
                "gossip.merge", now, parent=parent, track=dst, src=src
            )
            tracer.bind(("view", dst), msid)

    def _on_push(self, packet) -> None:
        src, dst, rows = packet[0], packet[1], packet[2]
        tracer = self._tracer
        if tracer is None:
            self._merge(src, dst, rows)
            # Pull half of the push–pull exchange: reply with the merged
            # table.
            self.stats.pull_replies += 1
            self.net.send(dst, src, self._on_pull_reply, self._packet(dst, src))
            return
        now = self.env.now
        push_sid = packet[3] if len(packet) > 3 else None
        if push_sid is not None:
            tracer.end(push_sid, now)
        self._merge_traced(src, dst, rows, push_sid, now)
        self.stats.pull_replies += 1
        sid = tracer.begin(
            "gossip.pull_reply", now, parent=push_sid, track=dst, src=dst, dst=src
        )
        if not self.net.send(
            dst, src, self._on_pull_reply, self._packet(dst, src) + (sid,)
        ):
            tracer.abandon(sid)

    def _on_pull_reply(self, packet) -> None:
        src, dst, rows = packet[0], packet[1], packet[2]
        tracer = self._tracer
        if tracer is None:
            self._merge(src, dst, rows)
            return
        now = self.env.now
        sid = packet[3] if len(packet) > 3 else None
        if sid is not None:
            tracer.end(sid, now)
        self._merge_traced(src, dst, rows, sid, now)

    def _on_push_delta(self, packet) -> None:
        src, dst, body = packet[0], packet[1], packet[2]
        # Assemble the reply *before* merging the push: entries about to
        # be merged in came from src, which therefore cannot need them
        # back (they would merge as version-equal no-ops) — omitting
        # them keeps the reply a true delta.
        reply_body = self._packet_body(dst, src)
        tracer = self._tracer
        if tracer is None:
            self._merge(src, dst, body)
            self.stats.pull_replies += 1
            # The echoed assembly clock doubles as the push's ack.
            self.net.send(
                dst, src, self._on_pull_reply_delta, (dst, src, reply_body, body[0])
            )
            return
        now = self.env.now
        push_sid = packet[3] if len(packet) > 3 else None
        if push_sid is not None:
            tracer.end(push_sid, now)
        self._merge_traced(src, dst, body, push_sid, now)
        self.stats.pull_replies += 1
        sid = tracer.begin(
            "gossip.pull_reply", now, parent=push_sid, track=dst, src=dst, dst=src
        )
        if not self.net.send(
            dst, src, self._on_pull_reply_delta, (dst, src, reply_body, body[0], sid)
        ):
            tracer.abandon(sid)

    def _on_pull_reply_delta(self, packet) -> None:
        src, dst, body, echo = packet[0], packet[1], packet[2], packet[3]
        tracer = self._tracer
        if tracer is None:
            self._merge(src, dst, body)
        else:
            now = self.env.now
            sid = packet[4] if len(packet) > 4 else None
            if sid is not None:
                tracer.end(sid, now)
            self._merge_traced(src, dst, body, sid, now)
        # The reply proves the push assembled at clock `echo` was merged
        # by src: everything dst had modified up to then is now covered.
        if echo > self._ack_floor[dst, src]:
            self._ack_floor[dst, src] = echo
