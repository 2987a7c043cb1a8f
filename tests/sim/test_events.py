"""Tests for the discrete-event simulation engine."""

import itertools
import random

import pytest

from repro.sim.events import Environment


class TestTimeouts:
    def test_time_advances(self):
        env = Environment()
        log = []

        def step(left):
            log.append(env.now)
            if left:
                env.call_in(2.5, step, left - 1)

        env.call_in(5.0, step, 1)
        env.run()
        assert log == [5.0, 7.5]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.call_in(-1.0, lambda _v: None)

    def test_run_until(self):
        env = Environment()
        log = []

        def tick(left):
            log.append(env.now)
            if left:
                env.call_in(1.0, tick, left - 1)

        env.call_in(1.0, tick, 9)
        env.run(until=3.5)
        assert log == [1.0, 2.0, 3.0]
        assert env.now == 3.5
        assert env.queue_size == 1
        env.run(until=4.0)  # an event exactly at the horizon runs
        assert log[-1] == 4.0 and env.now == 4.0

    def test_run_until_keeps_clock_when_queue_drains(self):
        """The clock jumps to ``until`` only when events remain past it."""
        env = Environment()
        env.call_at(2.0, lambda _v: None)
        env.run(until=10.0)
        assert env.now == 2.0
        assert env.queue_size == 0

    def test_timeout_value_passthrough(self):
        env = Environment()
        got = []
        env.call_in(1.0, got.append, "payload")
        env.run()
        assert got == ["payload"]


class TestEventOrdering:
    def test_fifo_at_equal_times(self):
        """Events scheduled at the same instant fire in scheduling order."""
        env = Environment()
        order = []
        for tag in "abc":
            env.call_at(1.0, order.append, tag)
        env.run()
        assert order == ["a", "b", "c"]

    def test_interleaving(self):
        env = Environment()
        order = []

        def fast(left):
            order.append(("fast", env.now))
            if left:
                env.call_in(1.0, fast, left - 1)

        def slow(left):
            order.append(("slow", env.now))
            if left:
                env.call_in(1.5, slow, left - 1)

        env.call_in(1.0, fast, 2)
        env.call_in(1.5, slow, 1)
        env.run()
        # at t=3.0 both fire; slow scheduled its call earlier (at 1.5)
        # so it pops first (FIFO tie-break by scheduling order)
        assert order == [
            ("fast", 1.0),
            ("slow", 1.5),
            ("fast", 2.0),
            ("slow", 3.0),
            ("fast", 3.0),
        ]


class TestCallAt:
    def test_callback_receives_value_at_time(self):
        env = Environment()
        got = []
        env.call_at(2.5, lambda v: got.append((env.now, v)), "payload")
        env.run()
        assert got == [(2.5, "payload")]
        assert env.processed == 1

    def test_call_in_is_relative(self):
        env = Environment()
        got = []

        def chain(i):
            got.append((env.now, i))
            if i < 3:
                env.call_in(1.5, chain, i + 1)

        env.call_in(1.0, chain, 0)
        env.run()
        assert got == [(1.0, 0), (2.5, 1), (4.0, 2), (5.5, 3)]

    def test_past_and_negative_rejected(self):
        env = Environment()
        env.call_at(5.0, lambda _v: None)
        env.run()
        assert env.now == 5.0
        with pytest.raises(ValueError):
            env.call_at(4.0, lambda _v: None)
        with pytest.raises(ValueError):
            env.call_in(-1.0, lambda _v: None)


def _drive(until: float | None = None, n_events: int = 6000, seed: int = 42):
    """A stochastic self-rescheduling workload, including zero-delay
    rescheduling storms (ties) and, with ``until``, a bounded first
    phase.  Logs ``(time, seq, tag)`` with ``seq`` counted in scheduling
    order."""
    env = Environment()
    log = []
    rnd = random.Random(seed)
    seqs = itertools.count()

    def tick(item):
        tag, seq = item
        log.append((env.now, seq, tag))
        if len(log) < n_events:
            delay = rnd.random() * (1.0 if tag % 3 else 0.0)
            env.call_in(delay, tick, (tag, next(seqs)))

    for t in range(250):
        env.call_at(1.0, tick, (t, next(seqs)))  # massive tie at t = 1
    if until is not None:
        env.run(until=until)
        assert env.now == until and env.queue_size  # paused mid-run
    env.run()
    return log, env.processed, env.now


class TestEventStorm:
    def test_pops_in_time_then_scheduling_order(self):
        log, processed, _now = _drive()
        assert processed == len(log) == 6000 + 249
        keys = [(t, seq) for t, seq, _tag in log]
        assert keys == sorted(keys)

    def test_split_run_equals_one_run(self):
        # The zero-delay chains keep the first 6000 events at t = 1, so
        # the pause has to fall inside (1, 2) to cut the run.
        assert _drive(until=1.5) == _drive()
