"""Arrival processes: per-cell (non-homogeneous) Poisson call streams.

Each cell runs one generator process producing call arrivals by Poisson
thinning: candidate arrivals are drawn at the pattern's maximum rate
and accepted with probability ``rate(t) / max_rate``, which realizes an
exact non-homogeneous Poisson process for time-varying patterns (ramps,
temporal hot spots) at no extra machinery for constant ones.

Every cell draws from its own named random substream, so traffic in
cell 17 is identical across runs regardless of what the protocol or
other cells do — variance reduction for scheme comparisons.
"""

from __future__ import annotations

from typing import Dict, Optional

from typing import Union

from ..sim import Environment, StreamRegistry
from .calls import CallConfig, CallLog, call_process
from .mix import TrafficMix
from .patterns import LoadPattern

__all__ = ["TrafficSource"]


class TrafficSource:
    """Drives call arrivals for every cell of a simulation."""

    def __init__(
        self,
        env: Environment,
        stations: Dict[int, "MSS"],
        pattern: LoadPattern,
        config: Union[CallConfig, TrafficMix],
        streams: StreamRegistry,
        horizon: Optional[float] = None,
    ) -> None:
        self.env = env
        self.stations = stations
        self.pattern = pattern
        #: Either a single CallConfig or a multi-class TrafficMix.
        self.config = config
        self.mix = config if isinstance(config, TrafficMix) else None
        self.streams = streams
        #: Arrivals stop at this time (active calls drain naturally).
        self.horizon = horizon
        #: Aggregate accounting (all classes combined).
        self.log = CallLog()
        self._started = False

    def start(self) -> None:
        """Launch one arrival process per cell."""
        if self._started:
            raise RuntimeError("traffic source already started")
        self._started = True
        for cell in sorted(self.stations):
            if self.pattern.max_rate(cell) > 0:
                self.env.process(
                    self._arrivals(cell), name=f"arrivals[{cell}]"
                )

    def _arrivals(self, cell: int):
        rng = self.streams.stream("traffic", "arrivals", cell)
        call_rng = self.streams.stream("traffic", "calls", cell)
        lam_max = self.pattern.max_rate(cell)
        while True:
            gap = float(rng.exponential(1.0 / lam_max))
            yield self.env.timeout(gap)
            now = self.env.now
            if self.horizon is not None and now >= self.horizon:
                return
            accept = self.pattern.rate(cell, now) / lam_max
            if accept >= 1.0 or rng.random() < accept:
                if self.mix is not None:
                    call_class = self.mix.sample(rng)
                    config = call_class.config
                    class_log = self.mix.log_for(call_class.name)
                else:
                    config = self.config
                    class_log = None
                self.env.process(
                    self._call_with_logs(cell, config, call_rng, class_log),
                    name=f"call[{cell}]",
                )

    def _call_with_logs(self, cell, config, call_rng, class_log):
        # Account each call into a private log, then fold it into the
        # aggregate (and per-class) logs at completion — concurrent
        # calls never share a mutable counter mid-flight.
        targets = [self.log] if class_log is None else [self.log, class_log]
        for log in targets:
            log.started += 1  # visible immediately at arrival
        local = CallLog()
        yield from call_process(
            self.env, self.stations, cell, config, call_rng, log=local
        )
        for log in targets:
            log.blocked += local.blocked
            log.completed += local.completed
            log.handoffs_attempted += local.handoffs_attempted
            log.handoffs_failed += local.handoffs_failed
