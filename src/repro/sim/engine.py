"""Deterministic discrete-event simulation environment.

The :class:`Environment` owns the event queue and the simulation clock.
Events scheduled for the same time are processed in (priority,
insertion-order) sequence, so a simulation with a fixed seed is fully
reproducible.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from .events import NORMAL, AllOf, AnyOf, Event, Process, Timeout

# Bound once at import: the scheduler touches these on every event, and
# a module-global lookup is measurably cheaper than ``heapq.heappush``
# attribute traversal in the hot loop.
_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = ["Environment", "EmptySchedule", "StopSimulation", "ProbeCallback"]

#: A probe callback: called as ``callback(now, payload)``.
ProbeCallback = Callable[[float, Any], None]


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when the queue is exhausted."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run` at an event."""


class Environment:
    """Execution environment for a discrete-event simulation.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default ``0.0``).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Probe subscribers by event kind (see :meth:`subscribe`).
        self._probes: Dict[str, List[ProbeCallback]] = {}

    # -- probes (observation hooks) ---------------------------------------
    #
    # Components of the simulation announce notable occurrences through
    # ``emit(kind, payload)``; observers (sanitizers, tracers) register
    # with ``subscribe(kind, callback)``.  An emit with no subscriber is
    # a single dict lookup, so instrumented code paths stay cheap when
    # nothing is listening.  Probes are observation-only: callbacks must
    # not mutate simulation state or schedule events.
    def subscribe(self, kind: str, callback: ProbeCallback) -> None:
        """Register ``callback`` for probe events of ``kind``."""
        self._probes.setdefault(kind, []).append(callback)

    def unsubscribe(self, kind: str, callback: ProbeCallback) -> None:
        """Remove a previously registered probe callback."""
        callbacks = self._probes.get(kind)
        if callbacks is None or callback not in callbacks:
            raise ValueError(f"callback not subscribed to {kind!r}")
        callbacks.remove(callback)
        if not callbacks:
            del self._probes[kind]

    def emit(self, kind: str, payload: Any = None) -> None:
        """Deliver a probe event to every subscriber of ``kind``."""
        probes = self._probes
        if not probes:
            # Fast path: nothing anywhere is listening (the common case
            # outside sanitized test runs) — skip even the key hash.
            return
        callbacks = probes.get(kind)
        if callbacks:
            now = self._now
            for callback in tuple(callbacks):
                callback(now, payload)

    # -- clock & introspection --------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None between resumptions)."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def __len__(self) -> int:
        return len(self._queue)

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event triggering ``delay`` time units from now.

        This is the kernel's hottest allocation site (every message
        delivery and every hold/dwell interval goes through it), so it
        builds the :class:`Timeout` directly — same state as
        ``Timeout(self, delay, value)``, minus the generic event
        plumbing of the constructor chain.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = False
        event._processed = False
        event.delay = delay
        self._eid = eid = self._eid + 1
        _heappush(self._queue, (self._now + delay, NORMAL, eid, event))
        return event

    def timeout_at(self, at: float, value: Any = None) -> Timeout:
        """Create an event triggering at the *absolute* time ``at``.

        Same as :meth:`timeout` with ``delay = at - now``, except the
        scheduled time is exactly ``at`` — ``now + (at - now)`` can
        land one ulp off, which matters to consumers that must
        reproduce a wake-up time bit-for-bit: snapshot restore
        re-schedules every captured timeout and in-flight delivery at
        its recorded instant (see :mod:`repro.snap.state`).
        """
        if at < self._now:
            raise ValueError(f"cannot schedule at {at}, now is {self._now}")
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = False
        event._processed = False
        event.delay = at - self._now
        self._eid = eid = self._eid + 1
        _heappush(self._queue, (at, NORMAL, eid, event))
        return event

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Put a triggered event on the queue ``delay`` units from now."""
        self._eid = eid = self._eid + 1
        _heappush(self._queue, (self._now + delay, priority, eid, event))

    # -- execution ------------------------------------------------------------
    def step(self) -> None:
        """Process the next scheduled event.

        Raises :class:`EmptySchedule` if no events remain, and re-raises
        any un-defused event failure (a crashed process nobody waited on).
        """
        queue = self._queue
        if not queue:
            raise EmptySchedule()
        when, _prio, _eid, event = _heappop(queue)

        self._now = when
        callbacks = event.callbacks
        event.callbacks = None  # late callback registration is a bug
        event._processed = True
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # Nobody handled the failure: surface it to the caller.
            exc = event._value
            if isinstance(exc, BaseException):
                raise exc
            raise RuntimeError(f"unhandled failed event with value {exc!r}")

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the queue empties;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed, returning
          its value (re-raising its exception on failure).
        """
        if until is None:
            stop: Optional[Event] = None
        elif isinstance(until, Event):
            stop = until
            if stop._processed:
                return stop._value if stop._ok else self._reraise(stop)
            assert stop.callbacks is not None
            stop.callbacks.append(self._stop_callback)
        else:
            at = float(until)
            if at < self._now:
                raise ValueError(f"until={at} lies before now={self._now}")
            stop = Event(self)
            stop._ok = True
            stop._value = None
            stop.callbacks = [self._stop_callback]
            # Stop-event priority rule: the stop event is scheduled at
            # time `at` with priority -1, ahead of both URGENT (0) and
            # NORMAL (1), so the clock advances to exactly `at` and the
            # run halts before any simulation event scheduled at `at`
            # is processed.
            self._eid += 1
            _heappush(self._queue, (at, -1, self._eid, stop))

        # Inlined `step()` loop: one method call per event is real
        # overhead at millions of events, so the body is duplicated here
        # with the queue and heap-pop bound to locals.  Keep in sync
        # with :meth:`step`.
        queue = self._queue
        pop = _heappop
        try:
            while True:
                if not queue:
                    raise EmptySchedule()
                when, _prio, _eid, event = pop(queue)
                self._now = when
                callbacks = event.callbacks
                event.callbacks = None  # late callback registration is a bug
                event._processed = True
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    exc = event._value
                    if isinstance(exc, BaseException):
                        raise exc
                    raise RuntimeError(
                        f"unhandled failed event with value {exc!r}"
                    )
        except StopSimulation as stop_exc:
            return stop_exc.args[0]
        except EmptySchedule:
            if stop is not None and not stop._processed:
                if isinstance(until, Event):
                    raise RuntimeError(
                        "no more events; the `until` event was never triggered"
                    ) from None
            return None

    @staticmethod
    def _reraise(event: Event) -> Any:
        exc = event._value
        event.defuse()
        if isinstance(exc, BaseException):
            raise exc
        raise RuntimeError(f"event failed with value {exc!r}")

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        exc = event._value
        event._defused = True
        if isinstance(exc, BaseException):
            raise exc
        raise RuntimeError(f"event failed with value {exc!r}")
