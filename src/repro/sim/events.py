"""Core event types for the discrete-event simulation kernel.

The kernel follows the classic process-interaction style (as popularized
by SimPy, re-implemented here from scratch): simulation activities are
Python generators that ``yield`` :class:`Event` objects and are resumed
when those events are *processed*.  Everything is deterministic: events
scheduled at the same simulation time are processed in (priority,
insertion-order) sequence.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .engine import Environment

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "ConditionEvent",
    "AllOf",
    "AnyOf",
    "PENDING",
    "URGENT",
    "NORMAL",
]


class _PendingType:
    """Sentinel for an event value that has not been set yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


#: Sentinel used as the value of untriggered events.
PENDING = _PendingType()

#: Scheduling priority for events that must run before normal events at
#: the same timestamp (used internally by :class:`Process` resumption).
URGENT = 0

#: Default scheduling priority.
NORMAL = 1


class Interrupt(Exception):
    """Exception thrown into a process when it is interrupted.

    The ``cause`` attribute carries the object passed to
    :meth:`Process.interrupt`.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """An observable occurrence inside an :class:`Environment`.

    An event goes through three states:

    1. *untriggered* — freshly created, value is :data:`PENDING`;
    2. *triggered* — a value (or failure) has been set and the event has
       been scheduled on the environment's queue;
    3. *processed* — the environment popped it and ran its callbacks.

    Processes wait on events by yielding them from their generator.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked (in registration order) when processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False
        self._processed: bool = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or failure has been assigned."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is not yet triggered."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._value

    @property
    def defused(self) -> bool:
        """True when a failure has been handled by some waiter."""
        return self._defused

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel won't re-raise."""
        self._defused = True

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined ``env._schedule(self, priority)`` — this is the hot
        # trigger path (process wakeups, resource grants).
        env = self.env
        env._eid = eid = env._eid + 1
        _heappush(env._queue, (env._now, priority, eid, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self, priority=priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of ``event`` onto this event (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event.defuse()
            self.fail(event._value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed"
            if self._processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    # -- composition -----------------------------------------------------
    def __and__(self, other: "Event") -> "ConditionEvent":
        return ConditionEvent(self.env, ConditionEvent.all_events, [self, other])

    def __or__(self, other: "Event") -> "ConditionEvent":
        return ConditionEvent(self.env, ConditionEvent.any_events, [self, other])


class Timeout(Event):
    """An event that triggers ``delay`` time units after its creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, priority=NORMAL, delay=delay)

    @property
    def triggered(self) -> bool:
        # A Timeout is scheduled (hence conceptually triggered) at birth.
        return True


class Process(Event):
    """Wraps a generator and drives it through the event loop.

    The process itself is an event that triggers when the generator
    terminates — its value is the generator's return value, or the
    uncaught exception on failure.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None if not
        #: started or already terminated).
        self._target: Optional[Event] = None
        # Kick-start: resume the generator at the current time, urgently.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks = [self._resume]
        env._schedule(init, priority=URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process must be alive and must not interrupt itself.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated; cannot interrupt")
        if self is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        # Jump the queue so the interrupt beats whatever the process waits on.
        event.callbacks = [self._resume_interrupt]
        self.env._schedule(event, priority=URGENT)

    # -- internal --------------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if not self.is_alive:  # terminated before the interrupt landed
            return
        # Detach from the event we were waiting on (it may still fire; we
        # simply no longer care about *this* wakeup).
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._resume(event)

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        while True:
            self._target = None
            try:
                if event._ok:
                    next_target = self._generator.send(event._value)
                else:
                    event.defuse()
                    next_target = self._generator.throw(event._value)
            except StopIteration as stop:
                env._active_process = None
                self.succeed(stop.value, priority=URGENT)
                return
            except BaseException as exc:
                env._active_process = None
                self.fail(exc, priority=URGENT)
                return

            if not isinstance(next_target, Event):
                env._active_process = None
                exc = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_target!r}"
                )
                self.fail(exc, priority=URGENT)
                return
            if next_target.env is not env:
                env._active_process = None
                self.fail(
                    RuntimeError("yielded an event from a foreign environment"),
                    priority=URGENT,
                )
                return

            if next_target._processed:
                # Already processed: resume immediately with its value.
                event = next_target
                continue
            self._target = next_target
            assert next_target.callbacks is not None
            next_target.callbacks.append(self._resume)
            env._active_process = None
            return


class ConditionEvent(Event):
    """An event that triggers when a predicate over child events holds.

    Used to implement ``AllOf`` / ``AnyOf`` (and the ``&`` / ``|``
    operators on events).  The value is a dict mapping each *triggered*
    child event to its value, in child order.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("events from different environments")

        if not self._events:
            self.succeed({})
            return

        for event in self._events:
            if event._processed:
                self._check(event)
            else:
                assert event.callbacks is not None
                event.callbacks.append(self._check)

    def _collect_values(self) -> dict:
        return {e: e._value for e in self._events if e._processed and e._ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event.defuse()
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        return count > 0 or not events


class AllOf(ConditionEvent):
    """Triggers once every child event has triggered successfully."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, ConditionEvent.all_events, events)


class AnyOf(ConditionEvent):
    """Triggers as soon as any child event triggers successfully."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, ConditionEvent.any_events, events)
