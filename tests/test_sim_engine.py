"""Unit tests for the discrete-event kernel (Environment, Event, Process)."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    EmptySchedule,
    Environment,
    Interrupt,
)


def test_clock_starts_at_initial_time():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(3.5)
    env.run()
    assert env.now == 3.5


def test_timeout_value_passed_to_process():
    env = Environment()
    got = []

    def proc():
        value = yield env.timeout(1, value="hello")
        got.append(value)

    env.process(proc())
    env.run()
    assert got == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_events_fire_in_time_order():
    env = Environment()
    order = []
    for delay in (3, 1, 2):
        def proc(d=delay):
            yield env.timeout(d)
            order.append(d)
        env.process(proc())
    env.run()
    assert order == [1, 2, 3]


def test_same_time_events_fire_in_insertion_order():
    env = Environment()
    order = []
    for tag in "abc":
        def proc(t=tag):
            yield env.timeout(1)
            order.append(t)
        env.process(proc())
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker():
        while True:
            yield env.timeout(1)

    env.process(ticker())
    env.run(until=10)
    assert env.now == 10


def test_run_until_time_in_past_rejected():
    env = Environment()
    env.timeout(5)
    env.run(until=5)
    with pytest.raises(ValueError):
        env.run(until=1)


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(2)
        return 42

    p = env.process(proc())
    assert env.run(until=p) == 42
    assert env.now == 2


def test_run_until_never_triggered_event_raises():
    env = Environment()
    ev = env.event()
    env.timeout(1)
    with pytest.raises(RuntimeError, match="never triggered"):
        env.run(until=ev)


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        got.append((yield ev))

    def firer():
        yield env.timeout(4)
        ev.succeed("done")

    env.process(waiter())
    env.process(firer())
    env.run()
    assert got == ["done"]
    assert ev.ok and ev.processed


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_failed_event_raises_in_waiting_process():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter())

    def firer():
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    env.process(firer())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces_from_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("crashed")

    env.process(bad())
    with pytest.raises(RuntimeError, match="crashed"):
        env.run()


def test_process_exception_caught_by_waiter_is_defused():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("crashed")

    def supervisor():
        try:
            yield env.process(bad())
        except RuntimeError:
            return "handled"

    sup = env.process(supervisor())
    assert env.run(until=sup) == "handled"


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad():
        yield 42

    p = env.process(bad())
    with pytest.raises(RuntimeError, match="non-event"):
        env.run(until=p)


def test_yielding_foreign_event_fails_process():
    env1, env2 = Environment(), Environment()
    foreign = env2.event()

    def bad():
        yield foreign

    p = env1.process(bad())
    with pytest.raises(RuntimeError, match="foreign"):
        env1.run(until=p)


def test_process_waits_on_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed("early")
    got = []

    def late():
        yield env.timeout(5)
        got.append((yield ev))

    env.process(late())
    env.run()
    assert got == ["early"]
    assert env.now == 5


def test_nested_process_chain():
    env = Environment()

    def inner():
        yield env.timeout(1)
        return 10

    def outer():
        v = yield env.process(inner())
        v += yield env.process(inner())
        return v

    p = env.process(outer())
    assert env.run(until=p) == 20
    assert env.now == 2


def test_process_is_alive_flag():
    env = Environment()

    def proc():
        yield env.timeout(3)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_non_generator_rejected():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_all_of_collects_all_values():
    env = Environment()
    t1 = env.timeout(1, value="a")
    t2 = env.timeout(2, value="b")
    got = []

    def proc():
        result = yield AllOf(env, [t1, t2])
        got.append(sorted(result.values()))

    env.process(proc())
    env.run()
    assert got == [["a", "b"]]
    assert env.now == 2


def test_any_of_fires_on_first():
    env = Environment()
    t1 = env.timeout(1, value="fast")
    t2 = env.timeout(10, value="slow")

    def proc():
        result = yield AnyOf(env, [t1, t2])
        return list(result.values())

    p = env.process(proc())
    assert env.run(until=p) == ["fast"]


def test_and_or_operators():
    env = Environment()
    t1 = env.timeout(1)
    t2 = env.timeout(2)

    def proc():
        yield t1 & t2

    p = env.process(proc())
    env.run(until=p)
    assert env.now == 2

    env2 = Environment()
    a = env2.timeout(1)
    b = env2.timeout(5)

    def proc2():
        yield a | b

    p2 = env2.process(proc2())
    env2.run(until=p2)
    assert env2.now == 1


def test_empty_all_of_triggers_immediately():
    env = Environment()

    def proc():
        yield AllOf(env, [])
        return "ok"

    p = env.process(proc())
    assert env.run(until=p) == "ok"
    assert env.now == 0


def test_interrupt_wakes_waiting_process():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
            log.append("overslept")
        except Interrupt as i:
            log.append(("interrupted", i.cause, env.now))

    def interrupter(victim):
        yield env.timeout(3)
        victim.interrupt(cause="wake up")

    victim = env.process(sleeper())
    env.process(interrupter(victim))
    env.run()
    assert log == [("interrupted", "wake up", 3)]


def test_interrupt_dead_process_raises():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_self_interrupt_rejected():
    env = Environment()

    def selfish():
        me = env.active_process
        with pytest.raises(RuntimeError):
            me.interrupt()
        yield env.timeout(0)

    p = env.process(selfish())
    env.run(until=p)


def test_peek_and_len():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(7)
    assert env.peek() == 7
    assert len(env) == 1


def test_determinism_same_structure_same_trace():
    def build_and_run():
        env = Environment()
        trace = []

        def worker(wid, delay):
            for i in range(3):
                yield env.timeout(delay)
                trace.append((env.now, wid, i))

        for wid, delay in [(0, 1.5), (1, 2.0), (2, 1.5)]:
            env.process(worker(wid, delay))
        env.run()
        return trace

    assert build_and_run() == build_and_run()


def test_environment_timeout_at_schedules_absolute_time():
    env = Environment()
    seen = []
    event = env.timeout_at(2.5, "x")
    event.callbacks.append(lambda e: seen.append((env.now, e._value)))
    env.run(until=5.0)
    assert seen == [(2.5, "x")]
    with pytest.raises(ValueError):
        env.timeout_at(env.now - 1.0)
