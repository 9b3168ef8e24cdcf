"""Unit tests for the discrete-event engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import BatchedDraws, Interrupt, Simulator, SimulationError


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc(sim):
        yield sim.timeout(2.5)
        log.append(sim.now)
        yield sim.timeout(1.0)
        log.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert log == [2.5, 3.5]
    assert sim.now == 3.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.schedule_callback(delay, lambda d=delay: order.append(d))
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_ties_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in "abc":
        sim.schedule_callback(1.0, lambda t=tag: order.append(t))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_clock_exactly():
    sim = Simulator()

    def ticker(sim):
        while True:
            yield sim.timeout(1.0)

    sim.process(ticker(sim))
    sim.run(until=5.5)
    assert sim.now == 5.5


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=3.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_process_return_value_propagates():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(1.0)
        return 42

    def parent(sim):
        value = yield sim.process(child(sim))
        results.append(value)

    sim.process(parent(sim))
    sim.run()
    assert results == [42]


def test_waiting_on_finished_process_resumes_immediately():
    sim = Simulator()
    results = []

    def child(sim):
        return 7
        yield  # pragma: no cover

    def parent(sim, childproc):
        yield sim.timeout(5.0)
        value = yield childproc
        results.append((sim.now, value))

    childproc = sim.process(child(sim))
    sim.process(parent(sim, childproc))
    sim.run()
    assert results == [(5.0, 7)]


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter(sim):
        value = yield gate
        log.append((sim.now, value))

    def opener(sim):
        yield sim.timeout(3.0)
        gate.succeed("open")

    sim.process(waiter(sim))
    sim.process(opener(sim))
    sim.run()
    assert log == [(3.0, "open")]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(waiter(sim))
    ev.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_uncaught_process_exception_propagates_from_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("exploded")

    sim.process(bad(sim))
    with pytest.raises(ValueError, match="exploded"):
        sim.run()


def test_fail_fast_off_records_failure_on_process():
    sim = Simulator(fail_fast=False)

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("exploded")

    proc = sim.process(bad(sim))
    sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, ValueError)


def test_yield_non_event_raises():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(SimulationError, match="non-event"):
        sim.run()


def test_interrupt_delivers_cause():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def interrupter(sim, victim):
        yield sim.timeout(2.0)
        victim.interrupt("wake up")

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == [(2.0, "wake up")]


def test_interrupt_dead_process_raises():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    proc = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_can_continue():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            pass
        yield sim.timeout(1.0)
        log.append(sim.now)

    def interrupter(sim, victim):
        yield sim.timeout(2.0)
        victim.interrupt()

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == [3.0]


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert sim.peek() == 4.0


def test_schedule_callback_runs_at_delay():
    sim = Simulator()
    hits = []
    sim.schedule_callback(2.0, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [2.0]


def test_interrupt_while_waiting_on_already_triggered_event():
    """Interrupting between an event's trigger and its firing must win.

    The waiter detaches from the (already scheduled) event, receives the
    Interrupt, and the event itself still fires later to no effect.
    """
    sim = Simulator()
    ev = sim.event()
    log = []

    def waiter(sim):
        try:
            value = yield ev
            log.append(("value", value))
        except Interrupt as exc:
            log.append(("interrupted", exc.cause))

    proc = sim.process(waiter(sim))

    def controller(sim):
        yield sim.timeout(1.0)        # waiter is now parked on ev
        ev.succeed("late")            # triggered, callbacks not yet fired
        proc.interrupt("cancel")

    sim.process(controller(sim))
    sim.run()
    assert log == [("interrupted", "cancel")]
    assert ev.processed               # fired anyway, with no waiter left
    assert ev.value == "late"


def test_urgent_resumption_beats_same_time_callback():
    """Yielding an already-processed event resumes URGENTly — before a
    NORMAL-priority callback that entered the heap first."""
    sim = Simulator()
    order = []

    def noop(sim):
        yield sim.timeout(0.0)

    def parent(sim):
        child = sim.process(noop(sim))
        yield sim.timeout(1.0)        # child finished long ago
        sim.schedule_callback(0.0, lambda: order.append("callback"))
        yield child                   # already processed: urgent resume
        order.append("resumed")

    sim.process(parent(sim))
    sim.run()
    assert order == ["resumed", "callback"]


def test_run_until_exactly_on_event_timestamp_processes_it():
    """run(until=t) includes events scheduled at exactly t."""
    sim = Simulator()
    hits = []
    sim.schedule_callback(5.0, lambda: hits.append(sim.now))
    sim.schedule_callback(7.0, lambda: hits.append(sim.now))
    sim.run(until=5.0)
    assert hits == [5.0]
    assert sim.now == 5.0
    sim.run()                         # the rest still runs to completion
    assert hits == [5.0, 7.0]


# -- step()/peek()/run() edge cases -------------------------------------------
def test_step_on_empty_queue_raises_simulation_error():
    sim = Simulator()
    with pytest.raises(SimulationError, match="empty event queue"):
        sim.step()


def test_step_after_drain_raises():
    sim = Simulator()
    sim.schedule_callback(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError, match="empty event queue"):
        sim.step()


def test_peek_on_empty_queue_is_inf():
    assert Simulator().peek() == float("inf")


def test_run_until_stops_ticker_and_resumes():
    sim = Simulator()
    fired = []

    def ticker(sim):
        while True:
            yield sim.timeout(1.0)
            fired.append(sim.now)

    sim.process(ticker(sim))
    sim.run(until=5.5)
    assert sim.now == 5.5
    assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]
    # resumable: the pending tick is still queued
    sim.run(until=6.5)
    assert fired[-1] == 6.0


def test_run_until_on_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=3.0)
    assert sim.now == 3.0
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_until_boundary_event_fires():
    sim = Simulator()
    fired = []
    sim.schedule_callback(5.0, lambda: fired.append(sim.now))
    sim.schedule_callback(5.0 + 1e-9, lambda: fired.append("late"))
    sim.run(until=5.0)
    # an event exactly at the deadline fires; anything past it waits
    assert fired == [5.0]
    assert sim.now == 5.0


def test_run_stop_event_halts():
    sim = Simulator()
    fired = []

    def worker(sim):
        yield sim.timeout(2.0)
        fired.append("stopper")

    proc = sim.process(worker(sim))
    for d in (1.0, 3.0, 4.0):
        sim.schedule_callback(d, lambda d=d: fired.append(d))
    sim.run(stop=proc)
    # checked once per event: the 1.0 and 2.0 events ran, 3.0+ did not
    assert fired == [1.0, "stopper"]
    sim.run()
    assert fired == [1.0, "stopper", 3.0, 4.0]


def test_double_schedule_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(delay=1.0)
    with pytest.raises(SimulationError):
        ev.succeed(delay=2.0)


def test_instrumented_run_counts_events():
    from repro.obs import MetricsRegistry
    registry = MetricsRegistry()
    sim = Simulator(obs=registry)
    for d in (1.0, 2.0, 3.0):
        sim.schedule_callback(d, lambda: None)
    sim.run()
    assert registry.counter("sim.events_processed").value == 3


# -- firing order against a reference model ----------------------------------
# delays drawn from a small grid so ties (same timestamp, insertion
# order must break them) occur constantly
_delay = st.floats(min_value=0.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)
_tied_delay = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 7.0, 7.0, 40.0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_delay, _tied_delay), min_size=0, max_size=80),
       st.data())
def test_fires_in_time_then_schedule_order(delays, data):
    """Property: callbacks fire by time, ties in the order they were
    scheduled, also for follow-ups a callback schedules while the run
    loop drains (some at the instant being drained)."""
    nested = {}
    for i in range(len(delays)):
        if data.draw(st.booleans(), label=f"nest[{i}]"):
            extra = data.draw(st.sampled_from([0.0, 0.001, 1.0, 30.0]),
                              label=f"extra[{i}]")
            nested[i] = ((extra, ("n", i)),)

    sim = Simulator()
    log = []

    def fire(tag):
        log.append((sim.now, tag))
        for extra_delay, extra_tag in nested.get(tag, ()):
            sim.schedule_callback(extra_delay,
                                  lambda t=extra_tag: log.append((sim.now, t)))

    for i, delay in enumerate(delays):
        sim.schedule_callback(delay, lambda i=i: fire(i))
    sim.run()

    # reference: a list kept sorted by (time, schedule sequence)
    seq = iter(range(10 ** 6))
    pending = [(delay, next(seq), i) for i, delay in enumerate(delays)]
    expected = []
    while pending:
        pending.sort()
        now, _, tag = pending.pop(0)
        expected.append((now, tag))
        for extra_delay, extra_tag in nested.get(tag, ()):
            pending.append((now + extra_delay, next(seq), extra_tag))
    assert log == expected


# -- batched RNG draws --------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=1, max_value=700))
def test_batched_draws_match_scalar_stream(seed, n):
    # promised by the BatchedDraws docstring: prefetching blocks yields
    # the exact value sequence of per-call rng.random()
    scalar = np.random.default_rng(seed)
    batched = BatchedDraws(np.random.default_rng(seed))
    expected = [float(scalar.random()) for _ in range(n)]
    got = [float(batched.random()) for _ in range(n)]
    assert got == expected
