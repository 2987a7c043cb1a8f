"""Observability overhead bench + trace artifacts — ``BENCH_obs.json``.

Two questions, answered every bench run:

1. **What does the instrumentation cost?**  The same deterministic
   simulation is driven with observability disabled (the default: every
   hook is a ``None`` check) and fully enabled (metrics + tracing +
   profiling); best-of-N events/s for both go to ``BENCH_obs.json``.
   The *disabled* figure is the one the perf gate protects — it must
   stay within threshold of the committed pre-instrumentation baseline
   (``check_perf.py`` compares it like every other events/s metric).
   The enabled run must also replay the identical event trace, which is
   asserted here (count equality; the determinism suite does the rest).

2. **Where do the events/s go?**  A profiled run's callback attribution
   table is merged into ``BENCH_livesim.json`` under ``"profile"`` so
   the hot-spot ranking is versioned alongside the throughput numbers.

The traced run also exports ``benchmarks/artifacts/trace_lossy.json``
(Chrome trace-event JSON, loadable at https://ui.perfetto.dev) and the
metrics snapshot next to it; CI uploads the directory, so every run
leaves an inspectable trace behind.
"""

from __future__ import annotations

import json
import pathlib

from repro import obs
from repro.livesim import LiveSimulation, get_live_preset
from repro.workloads import cached_instance, get_scenario

from .conftest import full_run, merge_bench
from .test_event_engine import calibrate_ops_per_sec

ARTIFACTS_DIR = pathlib.Path(__file__).resolve().parent / "artifacts"


def _merge_bench(section: str, payload: dict) -> None:
    merge_bench("BENCH_obs.json", section, payload)


def test_obs_overhead_disabled_vs_enabled():
    """Events/s with the hooks dormant vs fully armed.

    The disabled figure guards the ≤5 %-overhead goal through the perf
    gate; the enabled figure documents the cost of turning everything
    on.  Event counts must match exactly — instrumentation that changes
    the simulation is a bug regardless of speed.
    """
    sc = get_scenario("paper-planetlab")
    m = 500 if full_run() else 200
    rounds = 20 if full_run() else 12
    inst = cached_instance(sc, m, 0)
    cfg = get_live_preset("ideal")

    def make_disabled():
        return LiveSimulation(inst, config=cfg, seed=0)

    def make_enabled():
        o = obs.Observability(trace=True)
        return LiveSimulation(inst, config=cfg, seed=0, obs=o, profile=True)

    # Interleave the two configurations (after one untimed warm-up) and
    # alternate which goes first in each pair, so cache/allocator
    # warm-up cannot systematically favour either side.
    make_disabled().run(rounds=rounds)
    rep_off = rep_on = None
    for k in range(4):
        pair = [("off", make_disabled), ("on", make_enabled)]
        if k % 2:
            pair.reverse()
        for which, make in pair:
            rep = make().run(rounds=rounds)
            if which == "off":
                if rep_off is None or rep.wall_s < rep_off.wall_s:
                    rep_off = rep
            else:
                if rep_on is None or rep.wall_s < rep_on.wall_s:
                    rep_on = rep

    assert rep_on.events_processed == rep_off.events_processed, (
        "instrumentation changed the event count"
    )
    overhead = 1.0 - rep_on.events_per_sec / rep_off.events_per_sec
    # Fully-enabled tracing is allowed real cost, but the bench fails
    # loudly if it ever makes the simulator pathologically slow.
    assert rep_on.events_per_sec > 0.2 * rep_off.events_per_sec

    _merge_bench(
        "overhead",
        {
            "m": m,
            "rounds": rounds,
            "events_processed": rep_off.events_processed,
            "events_per_sec_disabled": rep_off.events_per_sec,
            "events_per_sec_enabled": rep_on.events_per_sec,
            "enabled_overhead_frac": overhead,
            "calibration_ops_per_sec": calibrate_ops_per_sec(),
        },
    )


def test_obs_trace_artifact_is_perfetto_loadable():
    """A traced lossy run exports valid Chrome trace JSON containing at
    least one full gossip.merge → agent.propose → agent.exchange causal
    chain (the acceptance criterion), plus the metrics snapshot."""
    inst = cached_instance(get_scenario("paper-planetlab"), 12, 0)
    o = obs.Observability(trace=True)
    sim = LiveSimulation(inst, config=get_live_preset("lossy"), seed=7, obs=o)
    sim.run(rounds=40)

    ARTIFACTS_DIR.mkdir(exist_ok=True)
    trace_path = ARTIFACTS_DIR / "trace_lossy.json"
    snap_path = ARTIFACTS_DIR / "snapshot_lossy.json"
    doc = o.tracer.to_chrome(trace_path)
    o.to_json(snap_path)

    loaded = json.loads(trace_path.read_text())
    assert loaded["traceEvents"], "empty trace export"
    assert loaded == doc
    names = {e["name"] for e in loaded["traceEvents"]}
    assert {"gossip.push", "gossip.merge", "agent.propose",
            "agent.exchange"} <= names

    by_sid = {s.sid: s for s in o.tracer.spans()}
    chains = 0
    for s in o.tracer.spans():
        if s.name != "agent.exchange" or s.parent is None:
            continue
        propose = by_sid.get(s.parent)
        if propose is None or propose.name != "agent.propose":
            continue
        merge = by_sid.get(propose.parent) if propose.parent else None
        if merge is not None and merge.name == "gossip.merge":
            chains += 1
    assert chains >= 1, "no merge -> propose -> exchange chain in artifact"

    _merge_bench(
        "trace_artifact",
        {
            "spans": len(o.tracer),
            "dropped": o.tracer.dropped,
            "causal_chains": chains,
            "span_names": sorted(names),
        },
    )


def test_obs_profile_attribution():
    """The profiler's callback table lands in ``BENCH_livesim.json``:
    per callback kind, calls / seconds / share, next to the throughput
    figures it explains."""
    sc = get_scenario("paper-planetlab")
    m = 500 if full_run() else 200
    inst = cached_instance(sc, m, 0)
    sim = LiveSimulation(
        inst, config=get_live_preset("ideal"), seed=0, profile=True
    )
    rep = sim.run(rounds=12 if not full_run() else 20)

    assert rep.profile is not None
    assert rep.profile["total_calls"] > 0
    kinds = [r["kind"] for r in rep.profile["rows"]]
    assert any("AsyncGossip._tick" in k for k in kinds)
    shares = [r["share"] for r in rep.profile["rows"]]
    assert abs(sum(shares) - 1.0) < 1e-9

    merge_bench(
        "BENCH_livesim.json",
        "profile",
        {
            "m": m,
            "events_processed": rep.events_processed,
            "rows": [
                {
                    "kind": r["kind"],
                    "calls": r["calls"],
                    "share": round(r["share"], 4),
                }
                for r in rep.profile["rows"][:8]
            ],
        },
    )
