"""Determinism: the live simulation is a pure function of (instance,
config, seed).

Two runs with the same seed must produce the *identical* event trace
(every proposal, accept, exchange, timeout, failure and rejoin, with
exact times and improvements) and bit-identical final allocations; and
enabling churn at rate zero must change nothing at all versus churn
disabled.
"""

from __future__ import annotations

import numpy as np

from repro.livesim import LiveConfig, LiveSimulation, get_live_preset
from repro.workloads import cached_instance, get_scenario


def _run(inst, config, seed, rounds=60):
    sim = LiveSimulation(inst, config=config, seed=seed)
    report = sim.run(rounds=rounds)
    return sim, report


class TestSameSeedIdentical:
    def test_event_trace_and_allocation_identical(self):
        inst = cached_instance(get_scenario("paper-planetlab"), 12, 0)
        cfg = get_live_preset("churn")  # the most stochastic preset
        sim_a, rep_a = _run(inst, cfg, seed=11)
        sim_b, rep_b = _run(inst, cfg, seed=11)
        assert rep_a.trace == rep_b.trace
        assert rep_a.trace, "trace should not be empty"
        np.testing.assert_array_equal(sim_a.state.R, sim_b.state.R)
        np.testing.assert_array_equal(rep_a.times, rep_b.times)
        np.testing.assert_array_equal(rep_a.costs, rep_b.costs)
        assert rep_a.failures == rep_b.failures
        assert rep_a.net.sent == rep_b.net.sent
        assert rep_a.agents == rep_b.agents
        assert rep_a.gossip == rep_b.gossip

    def test_different_seeds_differ(self):
        inst = cached_instance(get_scenario("paper-planetlab"), 12, 0)
        cfg = get_live_preset("ideal")
        _, rep_a = _run(inst, cfg, seed=0)
        _, rep_b = _run(inst, cfg, seed=1)
        assert rep_a.trace != rep_b.trace

    def test_extending_a_run_matches_one_long_run(self):
        """run(rounds=30) twice equals run(rounds=60): the clock and all
        RNG streams continue rather than reset."""
        inst = cached_instance(get_scenario("paper-homogeneous"), 10, 0)
        cfg = get_live_preset("lossy")
        sim_long = LiveSimulation(inst, config=cfg, seed=4)
        rep_long = sim_long.run(rounds=60)
        sim_split = LiveSimulation(inst, config=cfg, seed=4)
        sim_split.run(rounds=30)
        rep_split = sim_split.run(rounds=30)
        assert rep_long.trace == rep_split.trace
        np.testing.assert_array_equal(sim_long.state.R, sim_split.state.R)


class TestChurnRateZeroIsChurnOff:
    def test_traces_identical(self):
        inst = cached_instance(get_scenario("paper-planetlab"), 12, 0)
        base = get_live_preset("ideal")
        zero_churn = LiveConfig(p_drop=base.p_drop, churn_rate=0.0)
        sim_off, rep_off = _run(inst, base, seed=9)
        sim_zero, rep_zero = _run(inst, zero_churn, seed=9)
        assert rep_off.trace == rep_zero.trace
        np.testing.assert_array_equal(sim_off.state.R, sim_zero.state.R)
        np.testing.assert_array_equal(rep_off.costs, rep_zero.costs)
        assert rep_zero.failures == []

    def test_identical_with_traffic(self):
        """Churn at rate zero must also leave the *request plane*
        untouched: no queue drops, no re-submissions, bit-identical
        request streams versus churn disabled."""
        inst = cached_instance(get_scenario("paper-planetlab"), 12, 0)
        off = LiveConfig(arrival_rate_scale=0.05)
        zero = LiveConfig(arrival_rate_scale=0.05, churn_rate=0.0)
        sim_off, rep_off = _run(inst, off, seed=2)
        sim_zero, rep_zero = _run(inst, zero, seed=2)
        assert rep_off.trace == rep_zero.trace
        np.testing.assert_array_equal(sim_off.state.R, sim_zero.state.R)
        assert rep_off.requests_submitted == rep_zero.requests_submitted
        assert rep_off.requests_completed == rep_zero.requests_completed
        assert rep_zero.requests_resubmitted == 0
        assert rep_off.request_mean_latency == rep_zero.request_mean_latency


class TestChurnDropsQueuedRequests:
    def test_failures_resubmit_and_runs_replay(self):
        """A failed server drops its queued requests; owners re-submit
        them (the churn–traffic coupling), deterministically per seed."""
        inst = cached_instance(get_scenario("paper-planetlab"), 12, 0)
        churn = get_live_preset("churn")
        cfg = LiveConfig(
            p_drop=churn.p_drop,
            churn_rate=0.02,
            arrival_rate_scale=0.05,
        )
        sim_a, rep_a = _run(inst, cfg, seed=6, rounds=120)
        assert rep_a.failures, "churn produced no failures"
        assert rep_a.requests_resubmitted > 0, (
            "no queued request was dropped and re-submitted across "
            f"{len(rep_a.failures)} failures"
        )
        assert rep_a.requests_completed > 0
        sim_b, rep_b = _run(inst, cfg, seed=6, rounds=120)
        assert rep_a.trace == rep_b.trace
        assert rep_a.requests_resubmitted == rep_b.requests_resubmitted
        assert rep_a.requests_completed == rep_b.requests_completed
        np.testing.assert_array_equal(sim_a.state.R, sim_b.state.R)

    def test_crashed_server_queue_empties(self):
        from repro.sim.events import Environment
        from repro.sim.server import Request, SimServer

        env = Environment()
        server = SimServer(env, 0, speed=1.0)
        for k in range(3):
            server.submit(Request(owner=k, server=0, t_submit=0.0))
        assert server.busy and server.backlog == 2
        dropped = server.fail()
        assert len(dropped) == 3  # in-service + queued
        assert not server.busy and server.backlog == 0
        env.run(until=10.0)  # stale completion event fires as a no-op
        assert server.completed == []
        # The server works again after "rejoining".
        server.submit(Request(owner=9, server=0, t_submit=env.now))
        env.run(until=20.0)
        assert [r.owner for r in server.completed] == [9]


class TestBufferedDraws:
    """The block-buffered RNG helpers hand out exactly the values that
    the same number of scalar draws of that kind would produce."""

    def test_uniform_blocks_match_scalar_stream(self):
        from repro.livesim._util import BufferedUniform

        buffered = BufferedUniform(np.random.default_rng(5), block=8)
        scalar = np.random.default_rng(5)
        got = [buffered.next() for _ in range(20)]
        want = [scalar.random() for _ in range(20)]
        assert got == want  # bitwise: block draws consume state identically

    def test_integer_blocks_match_scalar_stream(self):
        from repro.livesim._util import BufferedIntegers

        buffered = BufferedIntegers(np.random.default_rng(9), 13, block=8)
        scalar = np.random.default_rng(9)
        got = [int(buffered.next()) for _ in range(20)]
        want = [int(scalar.integers(13)) for _ in range(20)]
        assert got == want
