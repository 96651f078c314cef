"""Per-layer call ledger, recorded from outside the program.

The traced run replaces public methods of the built simulation objects
with thin wrappers before ``Simulation.run()``.  Each wrapper is a span:
it counts the call and measures its duration.  Spans nest (a protocol
handler calls ``Network.send``, which calls ``Environment.emit``), so
every span also knows how much of its duration its child spans covered.
A bucket's *self time* is its spans' durations minus their children's,
so the self times of all buckets add up to the wall time they cover
without double counting.

Spans are aggregated into a fixed set of named buckets as they close, so
memory stays constant however long the run is.  The ledger is written
out once, when the run ends (see ``child.py``).

Wrapping is observation only: a wrapper returns what the wrapped call
returns and re-raises what it raises, and generator wrappers forward
every value and exception unchanged, so the modelled outcome of a
traced run equals the untraced one (the benchmark checks this).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Generator, List


class Bucket:
    """Aggregated spans of one named call site."""

    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class Ledger:
    """Span stack plus per-bucket totals."""

    def __init__(self) -> None:
        self.buckets: Dict[str, Bucket] = {}
        # Child time of every open span; the bottom entry collects spans
        # that have no traced parent and is never popped.
        self._child: List[float] = [0.0]

    def bucket(self, name: str) -> Bucket:
        return self.buckets.setdefault(name, Bucket())

    def span(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` wrapped so each call is one span of bucket ``name``."""
        bucket = self.bucket(name)
        stack = self._child
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            bucket.calls += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                bucket.self_s += elapsed - stack.pop()
                stack[-1] += elapsed

        return traced

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Replace ``obj.attr`` by its span-recording wrapper."""
        setattr(obj, attr, self.span(getattr(obj, attr), name))

    def wrap_generator(self, obj: Any, attr: str, name: str) -> None:
        """Replace ``obj.attr``, a generator function, so that every
        resumption of the generators it returns is one span.

        The call that creates a generator runs none of its body, so it
        is counted (``calls``) but not timed.
        """
        fn = getattr(obj, attr)
        bucket = self.bucket(name)

        def start(*args: Any, **kwargs: Any) -> Generator[Any, Any, Any]:
            bucket.calls += 1
            return self._resumptions(fn(*args, **kwargs), bucket)

        setattr(obj, attr, start)

    def _resumptions(
        self, gen: Generator[Any, Any, Any], bucket: Bucket
    ) -> Generator[Any, Any, Any]:
        stack = self._child
        clock = time.perf_counter
        value: Any = None
        error: Any = None
        while True:
            stack.append(0.0)
            start = clock()
            try:
                target = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                elapsed = clock() - start
                bucket.self_s += elapsed - stack.pop()
                stack[-1] += elapsed
            try:
                value, error = (yield target), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into gen, not handled
                value, error = None, exc

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"calls": b.calls, "self_s": b.self_s}
            for name, b in sorted(self.buckets.items())
        }


def instrument(ledger: Ledger, sim: Any) -> None:
    """Wrap the layer boundaries of a built simulation ``sim``.

    Bucket names are ``<layer>.<call site>``; ``child.layer_metrics``
    sums them per layer.  Objects a workload does not build (the fault
    injector and ARQ links without a fault plan, the mode policy and
    NFC window for schemes other than adaptive) get no wrapper, and
    their buckets read zero.
    """
    env = sim.env
    ledger.wrap(env, "run", "sim.engine.run")
    ledger.wrap(env, "emit", "sim.engine.emit")
    ledger.wrap(env, "process", "sim.engine.process")

    net = sim.network
    ledger.wrap(net, "send", "sim.network.send")
    ledger.wrap(net, "multicast", "sim.network.multicast")
    ledger.wrap(net, "_deliver", "sim.network.deliver")

    for station in sim.stations.values():
        ledger.wrap(station, "on_message", "protocols.handler")
        ledger.wrap_generator(station, "request_channel", "protocols.request")
        ledger.wrap(station, "release_channel", "protocols.release")
        if hasattr(station, "_check_mode"):
            ledger.wrap(station, "_check_mode", "core.check_mode")
        policy = getattr(station, "policy", None)
        if policy is not None:
            ledger.wrap(policy, "decide", "policies.decide")
            ledger.wrap(policy, "solicit_need", "policies.solicit_need")
            nfc = getattr(policy, "nfc", None)
            if nfc is not None:
                ledger.wrap(nfc, "add", "core.nfc")
                ledger.wrap(nfc, "predict", "core.nfc")
        link = getattr(station, "_link", None)
        if link is not None:
            for attr in ("send", "on_ack", "_on_timer"):
                ledger.wrap(link, attr, "faults.arq")
            ledger.wrap(station._dedup, "accept", "faults.dedup")

    ledger.wrap(sim.monitor, "acquired", "protocols.monitor.acquired")
    ledger.wrap(sim.monitor, "released", "protocols.monitor.released")

    for attr in dir(sim.metrics):
        if attr.startswith("record_"):
            ledger.wrap(sim.metrics, attr, "metrics.record")

    ledger.wrap_generator(sim.source, "_arrivals", "traffic.arrivals")
    ledger.wrap_generator(sim.source, "_call_with_logs", "traffic.call")

    if sim.injector is not None:
        ledger.wrap(sim.injector, "filter_send", "faults.filter_send")
        ledger.wrap(sim.injector, "deliverable", "faults.deliverable")
