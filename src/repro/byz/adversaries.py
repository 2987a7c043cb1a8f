"""The adversary plane: named gossip-misbehaviour models on a seeded
subset of servers.

A Byzantine server here is one whose *gossip plane* lies — its exchange
agent still follows the handshake protocol (the pair-sync computes
transfers on true state, so lies can misdirect partner selection and
stall convergence, but never corrupt an allocation directly).  Four
named models:

``"stale-repeater"``
    Freezes its view of the whole fleet at compromise time (the t = 0
    loads) and keeps re-gossiping the frozen entries with version clocks
    advancing *faster* than the honest +1-per-publish cadence — so under
    the legacy merge its stale rows win everywhere and the fleet's views
    freeze at the initial imbalance.
``"load-underreporter"``
    A freeloader: claims ``underreport_factor ×`` its true load for its
    own entry *and refuses every incoming exchange proposal* (accepting
    one would pair-sync on true state and expose the lie).  Every
    honest agent then chases the phantom idle server, gets rejected,
    and backs off — the honest pairs that *would* improve are never
    proposed.
``"value-fabricator"``
    Publishes honestly about itself but injects fabricated values for
    other origins each tick, versions bumped ahead so the forgeries win
    legacy merges.  The fabricated values are drawn once (per
    adversary, from its own stream) and replayed — *persistent* bias is
    what pins honest partner selection to the wrong pairs; freshly
    random noise each tick merely randomizes pairing, which still
    converges.
``"flapper"``
    Alternates honest and faulty phases of ``flap_rounds`` agent rounds
    (starting faulty), delegating faulty-phase behaviour to
    ``flap_inner`` — the hardest case for detection because suspicion
    accrues only half the time.

Determinism: the plane draws *only* from streams spawned off its own
entropy constant keyed by the run seed — the honest subsystems' streams
(gossip/agents/churn/traffic/drop) are untouched, so a run with
``f = 0`` (or no model at all) is bit-identical to a run without the
plane, asserted by the byz determinism suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.state import AllocationState
from ..livesim.gossip import AsyncGossip
from ..sim.events import Environment

__all__ = ["ByzantineModel", "AdversaryPlane", "ByzStats", "ADVERSARY_MODELS"]

ADVERSARY_MODELS = (
    "stale-repeater",
    "load-underreporter",
    "value-fabricator",
    "flapper",
)

#: Entropy constant of the adversary plane — separated from
#: ``_LIVESIM_ENTROPY`` (and every other engine stream) so attaching
#: adversaries never perturbs an honest stream.
_BYZ_ENTROPY = 0xB12A7E51


@dataclass(frozen=True)
class ByzantineModel:
    """Adversary configuration attached to :class:`repro.livesim.LiveConfig`.

    ``f`` servers are compromised — an explicit ``servers`` tuple, or a
    deterministic draw from the plane's entropy-separated stream.  All
    knobs are plain values, so the config pickles through the sweep
    backends like every other field.
    """

    model: str
    f: int = 1
    servers: tuple[int, ...] | None = None
    #: factor a load-underreporter applies to its claimed load
    underreport_factor: float = 0.1
    #: fabricated values are uniform on [0, fabricate_scale × mean load]
    fabricate_scale: float = 2.0
    #: origins forged per fabricator tick (None = the whole fleet)
    fabricate_count: int | None = None
    #: agent rounds per flapper phase (honest ↔ faulty)
    flap_rounds: float = 8.0
    #: faulty-phase behaviour of a flapper
    flap_inner: str = "stale-repeater"
    #: version advance per adversarial injection tick (honest cadence
    #: is +1 per publish; > 1 means lies win every legacy merge race)
    version_bump: int = 3
    #: adversary tick interval as a fraction of the gossip interval
    cadence_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.model not in ADVERSARY_MODELS:
            raise ValueError(
                f"unknown adversary model {self.model!r}; "
                f"expected one of {ADVERSARY_MODELS}"
            )
        if self.f < 0:
            raise ValueError("f must be non-negative")
        if self.servers is not None and len(self.servers) != self.f:
            raise ValueError(
                f"servers tuple has {len(self.servers)} entries but f={self.f}"
            )
        if not 0.0 <= self.underreport_factor < 1.0:
            raise ValueError("underreport_factor must be in [0, 1)")
        if self.fabricate_scale <= 0:
            raise ValueError("fabricate_scale must be positive")
        if self.fabricate_count is not None and self.fabricate_count < 1:
            raise ValueError("fabricate_count must be >= 1 (or None)")
        if self.flap_rounds <= 0:
            raise ValueError("flap_rounds must be positive")
        if self.flap_inner not in ("stale-repeater", "load-underreporter",
                                   "value-fabricator"):
            raise ValueError(
                f"flap_inner must be a non-flapper model, got {self.flap_inner!r}"
            )
        if self.version_bump < 1:
            raise ValueError("version_bump must be >= 1")
        if self.cadence_scale <= 0:
            raise ValueError("cadence_scale must be positive")


@dataclass
class ByzStats:
    """Counters of the adversary plane (bound as ``byz.*`` metrics)."""

    misreports: int = 0        #: own-entry lies published
    injections: int = 0        #: adversarial table-write ticks
    forged_entries: int = 0    #: entries forged across all ticks
    refusals: int = 0          #: exchange proposals refused (freeloaders)


class AdversaryPlane:
    """Schedules the misbehaviour of ``model.f`` compromised servers.

    Two attack surfaces, both through mode-correct :class:`AsyncGossip`
    hooks so the forged rows travel the normal wire protocol:

    * the gossip ``publish`` attribute is wrapped — a compromised
      server's own-entry publishes (periodic, demand refresh, rejoin
      announcements) turn into :meth:`AsyncGossip.misreport` lies;
    * a self-re-arming per-adversary tick (cadence ≈ the gossip
      interval, jitter from the adversary's own stream) forges entries
      about *other* origins via :meth:`AsyncGossip.inject`;
    * freeloader models additionally install an
      :attr:`ExchangeAgents.refuse` predicate, rejecting incoming
      exchange proposals while faulty.

    Down adversaries stay silent (their ticks no-op while ``alive`` is
    cleared), matching how honest churned servers behave.
    """

    def __init__(
        self,
        env: Environment,
        gossip: AsyncGossip,
        state: AllocationState,
        alive: np.ndarray,
        model: ByzantineModel,
        *,
        seed: int = 0,
        agent_interval: float,
        agents=None,
    ):
        m = gossip.inst.m
        if model.f > m:
            raise ValueError(f"f={model.f} adversaries need f <= m={m} servers")
        self.env = env
        self.gossip = gossip
        self.state = state
        self.alive = alive
        self.model = model
        self.agent_interval = float(agent_interval)
        self.stats = ByzStats()

        root = np.random.SeedSequence(
            entropy=_BYZ_ENTROPY, spawn_key=(int(seed),)
        )
        pick_seq, *adv_seqs = root.spawn(model.f + 1)
        if model.servers is not None:
            servers = [int(s) for s in model.servers]
            if any(not 0 <= s < m for s in servers):
                raise ValueError(f"adversary indices must be in [0, {m})")
            if len(set(servers)) != len(servers):
                raise ValueError("adversary servers must be distinct")
        else:
            pick = np.random.default_rng(pick_seq)
            servers = sorted(
                int(s) for s in pick.choice(m, size=model.f, replace=False)
            )
        self.servers: tuple[int, ...] = tuple(servers)
        self._is_adv = frozenset(servers)
        self._rngs = {a: np.random.default_rng(s)
                      for a, s in zip(servers, adv_seqs)}
        #: the whole-fleet load snapshot a stale-repeater keeps replaying
        self._frozen = state.loads.copy()
        self._mean_load0 = float(state.loads.mean())
        self._others = {
            a: np.array([j for j in range(m) if j != a], dtype=np.intp)
            for a in servers
        }
        # Fabricated tables are drawn once per adversary and replayed:
        # persistent bias pins honest partner selection; per-tick fresh
        # noise would merely randomize pairing (which still converges).
        self._fabricated = {
            a: rng.uniform(0.0, model.fabricate_scale * self._mean_load0, size=m)
            for a, rng in self._rngs.items()
        }

        # Wrap the gossip publish path.  ``publish`` is an instance
        # attribute (the wire-format-selected bound method), so the
        # wrap covers every later caller while the t = 0 bootstrap
        # (already done) stays honest — initial loads are common
        # knowledge in this protocol.
        self._honest_publish = gossip.publish
        gossip.publish = self._publish

        # Freeloaders also refuse incoming exchange proposals: accepting
        # one would pair-sync on true state and expose the lie.
        refuses = model.model == "load-underreporter" or (
            model.model == "flapper"
            and model.flap_inner == "load-underreporter"
        )
        if refuses and agents is not None:
            agents.refuse = self._refuse

        interval = gossip.interval * model.cadence_scale
        needs_tick = model.model in ("stale-repeater", "value-fabricator") or (
            model.model == "flapper"
            and model.flap_inner in ("stale-repeater", "value-fabricator")
        )
        if needs_tick:
            for a in servers:
                env.call_in(
                    interval * (0.5 + self._rngs[a].uniform()), self._tick, a
                )

    # ------------------------------------------------------------------
    def _faulty_phase(self) -> bool:
        """Flapper phase clock: faulty first, then alternating."""
        period = self.model.flap_rounds * self.agent_interval
        return (int(self.env.now / period) % 2) == 0

    def _active_model(self, a: int) -> str | None:
        """The misbehaviour server ``a`` exhibits *right now* (None =
        honest: not compromised, or a flapper in its honest phase)."""
        if a not in self._is_adv:
            return None
        model = self.model.model
        if model == "flapper":
            return self.model.flap_inner if self._faulty_phase() else None
        return model

    # ------------------------------------------------------------------
    def _refuse(self, acceptor: int, proposer: int) -> bool:
        if self._active_model(acceptor) == "load-underreporter":
            self.stats.refusals += 1
            return True
        return False

    def _publish(self, i: int) -> None:
        active = self._active_model(i)
        if active == "stale-repeater":
            claim: float | None = float(self._frozen[i])
        elif active == "load-underreporter":
            claim = self.model.underreport_factor * float(self.state.loads[i])
        else:  # honest server, fabricator (honest about itself), or None
            claim = None
        if claim is None:
            self._honest_publish(i)
        else:
            self.gossip.misreport(i, claim)
            self.stats.misreports += 1

    def _tick(self, a: int) -> None:
        model = self.model
        active = self._active_model(a)
        if self.alive[a] and active == "stale-repeater":
            ks = self._others[a]
            self.gossip.inject(
                a, ks, self._frozen[ks], version_bump=model.version_bump
            )
            self.stats.injections += 1
            self.stats.forged_entries += len(ks)
        elif self.alive[a] and active == "value-fabricator":
            others = self._others[a]
            count = model.fabricate_count
            if count is None or count >= others.size:
                ks = others
            else:
                ks = self._rngs[a].choice(others, size=count, replace=False)
            self.gossip.inject(
                a, ks, self._fabricated[a][ks], version_bump=model.version_bump
            )
            self.stats.injections += 1
            self.stats.forged_entries += len(ks)
        # Re-arm from the adversary's own stream either way, so a downed
        # or honest-phase adversary's future schedule stays fixed.
        self.env.call_in(
            self.gossip.interval
            * model.cadence_scale
            * (0.5 + self._rngs[a].uniform()),
            self._tick,
            a,
        )
