"""Protocol framework: the mobile service station (MSS) base class.

Every allocation scheme is an :class:`MSS` subclass attached to one
cell.  The base class provides:

* the public call-level API used by the traffic layer —
  :meth:`request_channel` (a generator to ``yield from``) and
  :meth:`release_channel`;
* per-MSS serialization of channel acquisitions (the paper's pseudocode
  processes one ``Request_Channel`` at a time per node; concurrent call
  arrivals queue);
* message dispatch from the network to ``_on_<MessageType>`` handlers;
* timestamp generation (``(time, node_id)`` pairs — the paper's
  "timestamp of the node at the time of generating the request");
* bookkeeping hooks into the metrics collector and the global
  interference monitor.

Subclasses implement ``_request(ts) -> channel | None`` (plain function
or generator) and ``_release(channel)``.
"""

from __future__ import annotations

import inspect
from collections import deque
from typing import Any, Dict, FrozenSet, Optional, Set

from ..cellular import CellularTopology
from ..faults.arq import Ack, DedupFilter, Hardening, ReliableLink
from ..sim import Environment, Envelope, Network, Resource
from .messages import Timestamp
from .monitor import InterferenceMonitor

__all__ = ["MSS"]


class MSS:
    """Base mobile service station (one per cell).

    Parameters
    ----------
    env, network, topo:
        Simulation environment, message fabric, cellular topology.
    cell:
        This station's cell id; doubles as the network node id.
    metrics:
        Optional :class:`repro.metrics.MetricsCollector`.
    monitor:
        Optional :class:`InterferenceMonitor` for safety checking.
    """

    #: Human-readable scheme name (subclasses override).
    scheme = "abstract"

    def __init__(
        self,
        env: Environment,
        network: Network,
        topo: CellularTopology,
        cell: int,
        metrics: Any = None,
        monitor: Optional[InterferenceMonitor] = None,
        hardening: Optional[Hardening] = None,
    ) -> None:
        self.env = env
        self.network = network
        self.topo = topo
        self.cell = cell
        self.node_id = cell  # network address
        self.metrics = metrics
        self.monitor = monitor
        #: Unreliable-network hardening (see :mod:`repro.faults`): when
        #: set, every outgoing protocol message goes through a per-MSS
        #: ARQ (ack + bounded retransmission) and incoming messages are
        #: acknowledged and de-duplicated by ``Envelope.msg_id``.  None
        #: (the default, and always the case without an active fault
        #: plan) leaves the original reliable-network fast paths fully
        #: intact.
        self.hardening = hardening
        if hardening is not None:
            self._link: Optional[ReliableLink] = ReliableLink(
                env, network, cell, hardening, metrics
            )
            self._dedup: Optional[DedupFilter] = DedupFilter()
        else:
            self._link = None
            self._dedup = None
        #: True while this station is crashed (fault injection).
        self.down = False
        #: Credits for channels force-released by a crash: the calls
        #: that held them are gone, but their handles will still call
        #: :meth:`release_channel` later; each credit silently absorbs
        #: one such stale release so accounting stays balanced.
        self._crash_released = 0

        #: Channels currently in use by this cell (paper's ``Use_i``).
        self.use: Set[int] = set()
        #: Interference region ids (paper's ``IN_i``), sorted for
        #: deterministic iteration.
        self.IN = tuple(sorted(topo.IN(cell)))
        #: Primary set (paper's ``PR_i``).
        self.PR: FrozenSet[int] = topo.PR(cell)
        self.spectrum: FrozenSet[int] = topo.spectrum.all_channels

        self._lock = Resource(env, capacity=1)
        self._round_counter = 0
        self._req_seq = 0  # per-MSS request id (probe-bus span pairing)
        self._req_kind = "new"
        #: Channel-reassignment aliases: when an MSS internally moves a
        #: call from channel b to channel r (repacking), the holder of b
        #: still releases "b" — the alias redirects that to r.  A
        #: retired id can be re-borrowed by a *new* call while the old
        #: alias is outstanding, so each id maps to a FIFO of targets
        #: (the calls are physically interchangeable, any pairing works).
        self._alias: Dict[int, "deque[int]"] = {}
        #: Dispatch cache: payload type -> bound ``_on_<Type>`` handler
        #: (filled lazily; saves a name format + getattr per message).
        self._handlers: Dict[type, Any] = {}
        network.attach(self)

    # ------------------------------------------------------------------
    # Public call-level API (used by the traffic layer)
    # ------------------------------------------------------------------
    def request_channel(
        self, kind: str = "new", setup_deadline: Optional[float] = None
    ):
        """Acquire a channel; generator returning the channel id or None.

        ``kind`` labels the request for metrics ("new" or "handoff").
        Acquisitions are serialized per MSS; the queueing delay behind
        earlier requests of the same cell is recorded separately from
        the protocol's own acquisition time.  If the protocol cannot
        even *start* within ``setup_deadline`` (the MSS is busy with
        earlier requests), the call abandons — blocked-calls-cleared
        semantics, which keeps offered load well defined at overload.
        """
        self._req_seq = req_id = self._req_seq + 1
        self.env.emit("request.begin", (self.cell, req_id, kind))
        channel = None
        try:
            channel = yield from self._request_channel(
                kind, setup_deadline, req_id
            )
        finally:
            # Fires on normal return AND on generator abandonment (the
            # traffic layer closing a half-driven request, a crashed
            # process): every opened acquisition span closes exactly once.
            self.env.emit("request.end", (self.cell, req_id, channel))
        return channel

    def _request_channel(
        self, kind: str, setup_deadline: Optional[float], req_id: int
    ):
        t_arrival = self.env.now
        if self.down:
            # Crashed station: no service (blocked-calls-cleared).
            if self.metrics is not None:
                self.metrics.record_acquisition(
                    cell=self.cell,
                    kind=kind,
                    granted=False,
                    queue_wait=0.0,
                    acquisition_time=0.0,
                    attempts=0,
                    mode="down",
                    time=t_arrival,
                )
            return None
        #: Kind of the request being served ("new"/"handoff"), readable
        #: by protocols implementing admission policies (guard channels).
        self._req_kind = kind
        lock_req = self._lock.request()
        if setup_deadline is not None and not lock_req.triggered:
            yield self.env.any_of([lock_req, self.env.timeout(setup_deadline)])
            if not lock_req.triggered:
                self._lock.cancel(lock_req)
                if self.metrics is not None:
                    self.metrics.record_acquisition(
                        cell=self.cell,
                        kind=kind,
                        granted=False,
                        queue_wait=setup_deadline,
                        acquisition_time=0.0,
                        attempts=0,
                        mode="queue_timeout",
                        time=self.env.now,
                    )
                return None
        else:
            yield lock_req
        t_start = self.env.now
        # Serving starts now: the queue wait behind earlier requests of
        # this cell is over (down-station and queue-timeout requests
        # never reach this point and never serve).
        self.env.emit("request.serve", (self.cell, req_id))
        ts: Timestamp = (t_start, self.cell)
        self._attempts = 0  # protocols update this as they retry
        try:
            outcome = self._request(ts)
            if inspect.isgenerator(outcome):
                channel = yield from outcome
            else:
                channel = outcome
        finally:
            self._lock.release()
        t_done = self.env.now

        if channel is not None and self.down:
            # The station crashed while this acquisition was in flight:
            # the grant is void.  If the grab happened before the crash,
            # the crash already force-released it; if after (a round
            # deadline resumed the generator while down), undo it here.
            if channel in self.use:
                self._drop_from_use(channel)
            else:
                self._crash_released -= 1  # crash released it; no stale handle
            channel = None
        if channel is not None:
            if channel not in self.use:
                raise AssertionError(
                    f"protocol bug: granted channel {channel} not in Use_{self.cell}"
                )
        if self.metrics is not None:
            self.metrics.record_acquisition(
                cell=self.cell,
                kind=kind,
                granted=channel is not None,
                queue_wait=t_start - t_arrival,
                acquisition_time=t_done - t_start,
                attempts=self._attempts,
                mode=getattr(self, "_grant_mode", None),
                time=t_done,
            )
        return channel

    def release_channel(self, channel: int) -> None:
        """Relinquish a channel this cell holds.

        The id is resolved through the reassignment alias map first
        (repacking may have moved the call to a different physical
        channel), and the protocol may substitute another channel to
        retire instead (e.g. free a borrowed channel and keep the
        primary for the remaining call).
        """
        aliases = self._alias.get(channel)
        if aliases:
            resolved = aliases.popleft()
            if not aliases:
                del self._alias[channel]
            channel = resolved
        if channel not in self.use:
            if self._crash_released > 0:
                # Stale handle of a call whose channel a crash already
                # force-released; consume one credit and do nothing.
                self._crash_released -= 1
                return
            raise ValueError(
                f"cell {self.cell} does not hold channel {channel}"
            )
        channel = self._repack_substitute(channel)
        self._release(channel)
        if channel in self.use:
            raise AssertionError(
                f"protocol bug: _release left channel {channel} in Use_{self.cell}"
            )
        if self.metrics is not None:
            self.metrics.record_release(self.cell, channel, self.env.now)

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Called once after all stations are attached (optional)."""

    def _request(self, ts: Timestamp):
        raise NotImplementedError

    def _release(self, channel: int) -> None:
        raise NotImplementedError

    def _repack_substitute(self, channel: int) -> int:
        """Optionally retire a different channel than the one released
        (channel reassignment).  Default: no reassignment."""
        return channel

    # -- shared helpers -----------------------------------------------------
    def _grab(self, channel: int) -> None:
        """Add a channel to Use and notify the interference monitor."""
        self.use.add(channel)
        self.env.emit("channel.acquired", (self.cell, channel))
        if self.monitor is not None:
            self.monitor.acquired(self.cell, channel, self.env.now)

    def _drop_from_use(self, channel: int) -> None:
        """Remove a channel from Use and notify the monitor."""
        self.use.discard(channel)
        self.env.emit("channel.released", (self.cell, channel))
        if self.monitor is not None:
            self.monitor.released(self.cell, channel, self.env.now)

    def _next_round(self) -> int:
        self._round_counter += 1
        return self._round_counter

    def _send(self, dst: int, payload: Any) -> None:
        if self._link is not None:
            self._link.send(dst, payload)
        else:
            self.network.send(self.cell, dst, payload)

    def _broadcast(self, payload: Any, dsts=None) -> int:
        """Send ``payload`` to every cell in ``dsts`` (default: IN_i)."""
        targets = self.IN if dsts is None else dsts
        if self._link is not None:
            count = 0
            for dst in targets:
                self._link.send(dst, payload)
                count += 1
            return count
        return self.network.multicast(self.cell, targets, payload)

    def _await_round(self, collector):
        """Wait for a response round; returns ``(responses, complete)``.

        Without hardening this is exactly ``yield collector.done`` (the
        reliable network guarantees completion — event-for-event
        identical to the historical inline wait).  With hardening the
        wait is bounded by the round deadline; on expiry the collector
        is cancelled and the partial responses are returned with
        ``complete=False`` so the protocol can resolve the round
        conservatively.
        """
        self.env.emit("round.begin", (self.cell, len(collector.outstanding)))
        if self.hardening is None:
            yield collector.done
            self.env.emit("round.end", (self.cell, True))
            return collector.responses, True
        deadline = self.env.timeout(self.hardening.round_deadline)
        yield self.env.any_of([collector.done, deadline])
        if collector.done.triggered:
            self.env.emit("round.end", (self.cell, True))
            return collector.responses, True
        collector.cancel()
        self.env.emit("fault.round_timeout", (self.cell, sorted(collector.outstanding)))
        self.env.emit("round.end", (self.cell, False))
        return collector.responses, False

    # ------------------------------------------------------------------
    # Crash / restart (driven by the fault injector)
    # ------------------------------------------------------------------
    def _crash(self, lose_state: bool) -> None:
        """Fail this station: calls drop, messages stop, state may wipe.

        Every held channel is force-released (the calls carried on it
        are gone) with a matching ``_crash_released`` credit so the
        calls' stale :meth:`release_channel` invocations are absorbed.
        Protocol-specific volatile state is handled by the
        :meth:`_crash_hook` hook.
        """
        self.down = True
        if self._link is not None:
            self._link.down = True
            self._link.flush()
        for channel in tuple(self.use):
            self._drop_from_use(channel)
            self._crash_released += 1
        self._alias.clear()
        if lose_state and self._dedup is not None:
            self._dedup.reset()
        self._crash_hook(lose_state)

    def _restart(self) -> None:
        """Bring a crashed station back; triggers :meth:`_restart_hook`
        (protocols rebuild their neighborhood view there)."""
        self.down = False
        if self._link is not None:
            self._link.down = False
        self._restart_hook()

    def _crash_hook(self, lose_state: bool) -> None:
        """Hook: clear protocol-specific volatile state (optional)."""

    def _restart_hook(self) -> None:
        """Hook: re-synchronize with the neighborhood (optional)."""

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, envelope: Envelope) -> None:
        """Route an incoming envelope to ``_on_<PayloadClass>``.

        Under hardening, link-layer traffic is peeled off first: ACKs
        feed the ARQ, every other message is acknowledged (even when it
        turns out to be a duplicate — the previous ACK may have been
        the lost copy) and then de-duplicated by ``msg_id`` so each
        logical message reaches its handler exactly once.
        """
        payload = envelope.payload
        if self._link is not None:
            if type(payload) is Ack:
                self._link.on_ack(payload)
                return
            if self.down:
                return  # crashed: the radio is off
            self.network.send(self.cell, envelope.src, Ack(envelope.msg_id))
            if not self._dedup.accept(envelope.src, envelope.msg_id):
                self.env.emit(
                    "fault.duplicate_suppressed",
                    (self.cell, envelope.src, envelope.msg_id),
                )
                return
        cls = type(payload)
        try:
            handler = self._handlers[cls]
        except KeyError:
            handler = getattr(self, f"_on_{cls.__name__}", None)
            if handler is None:
                raise NotImplementedError(
                    f"{type(self).__name__} has no handler for {cls.__name__}"
                ) from None
            self._handlers[cls] = handler
        handler(payload)

    # -- debugging ----------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} cell={self.cell} use={sorted(self.use)}>"
