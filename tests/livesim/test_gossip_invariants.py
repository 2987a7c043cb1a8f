"""Gossip invariants, checked between one-round chunks of live runs.

* **Versions never move backwards.**  No entry of ``gossip.versions``
  is ever lower than it was a round earlier — in both wire formats and
  both merge modes under churn, and under the robust merge with
  Byzantine servers forging versions.
* **A delta ack floor covers only what the receiver holds.**  Sender
  ``s``'s floor ``_ack_floor[s, r]`` is the modification-clock value up
  to which ``s`` knows receiver ``r`` merged its entries.  So wherever
  ``_mtime[s, k] <= _ack_floor[s, r]``, ``r``'s copy of origin ``k`` is
  at least as new as ``s``'s (``versions[r, k] >= versions[s, k]``);
  otherwise a delta payload would omit an entry ``r`` still lacks.  The
  check runs under the legacy merge, which accepts every newer entry.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.byz import ByzantineModel
from repro.livesim import LiveSimulation, get_live_preset
from repro.workloads import cached_instance, get_scenario

M = 24
ROUNDS = 200


def _sim(live: str, **over) -> LiveSimulation:
    inst = cached_instance(get_scenario("paper-planetlab"), M, 0)
    cfg = dataclasses.replace(get_live_preset(live), **over)
    return LiveSimulation(inst, config=cfg, seed=4)


@pytest.mark.parametrize(
    "over",
    [
        dict(gossip_mode=gm, merge_mode=mm)
        for gm in ("full", "delta")
        for mm in ("legacy", "robust")
    ]
    + [
        dict(merge_mode="robust", byzantine=ByzantineModel(model, f=2))
        for model in ("stale-repeater", "value-fabricator")
    ],
    ids=lambda over: "-".join(
        str(getattr(v, "model", v)) for v in over.values()
    ),
)
def test_versions_never_decrease(over):
    sim = _sim("churn", **over)
    prev = sim.gossip.versions.copy()
    for _ in range(ROUNDS):
        sim.run(rounds=1)
        cur = sim.gossip.versions
        back = np.argwhere(cur < prev)
        assert back.size == 0, (
            f"versions moved backwards at (viewer, origin) {back[:5].tolist()}"
        )
        prev = cur.copy()
    assert prev.sum() > 0, "no version ever advanced"


@pytest.mark.parametrize("live", ["lossy", "churn"])
def test_ack_floor_covers_only_merged_entries(live):
    sim = _sim(live, gossip_mode="delta")
    g = sim.gossip
    covered_modified = 0
    for _ in range(ROUNDS):
        sim.run(rounds=1)
        vers = g.versions
        # [s, r, k]: s's entry k is under s's floor for r ...
        covered = g._mtime[:, None, :] <= g._ack_floor[:, :, None]
        # ... but r holds an older version of k than s does.
        behind = vers[None, :, :] < vers[:, None, :]
        bad = np.argwhere(covered & behind)
        assert bad.size == 0, (
            f"ack floor passes receiver state at (s, r, k) {bad[:5].tolist()}"
        )
        modified = g._mtime[:, None, :] > 0
        covered_modified += int(np.count_nonzero(covered & modified))
    assert covered_modified > 0, "no modified entry was ever under an ack floor"
