"""Scenario execution: build the simulation stack, run it, report.

``run_scenario`` wires together the full system — topology, network,
one MSS per cell (of the configured scheme), traffic source, metrics
and safety monitor — runs it to the scenario horizon, and returns a
:class:`Report` with every quantity the paper's evaluation discusses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Type

from ..cellular import CellularTopology
from ..core import AdaptiveMSS
from ..faults import FaultInjector, Hardening
from ..metrics import MetricsCollector
from ..obs import ObsData, Observer
from ..protocols import (
    AdvancedUpdateMSS,
    BasicSearchMSS,
    BasicUpdateMSS,
    FixedMSS,
    InterferenceMonitor,
    MSS,
    PrakashMSS,
)
from ..sim import (
    DeterministicLatency,
    Environment,
    Network,
    StreamRegistry,
    UniformLatency,
)
from ..traffic import CallConfig, TrafficSource
from ..verify import SanitizerSuite, get_default_policy
from .config import Scenario

__all__ = ["SCHEMES", "Simulation", "Report", "build_simulation", "run_scenario", "run_replications"]

#: Registry of allocation schemes by name.
SCHEMES: Dict[str, Type[MSS]] = {
    "fixed": FixedMSS,
    "basic_search": BasicSearchMSS,
    "basic_update": BasicUpdateMSS,
    "advanced_update": AdvancedUpdateMSS,
    "adaptive": AdaptiveMSS,
    "prakash": PrakashMSS,
}


@dataclass
class Simulation:
    """A fully wired simulation ready to run (useful for custom drivers)."""

    scenario: Scenario
    env: Environment
    topo: CellularTopology
    network: Network
    stations: Dict[int, MSS]
    metrics: MetricsCollector
    monitor: InterferenceMonitor
    source: TrafficSource
    streams: StreamRegistry
    #: Runtime sanitizers (attached when a default policy is active,
    #: e.g. under pytest; None otherwise).
    sanitizers: Optional[SanitizerSuite] = None
    #: Fault injector (present iff the scenario has an enabled plan).
    injector: Optional[FaultInjector] = None
    #: Observability collectors (present iff ``scenario.obs`` is enabled).
    observer: Optional[Observer] = None

    @property
    def fastlane(self) -> None:
        # Always None; kept because perfbench/child.py reads it unguarded.
        return None

    def run(self) -> "Report":
        """Run to the scenario horizon and build the report."""
        env = self.env
        warmup = self.scenario.warmup

        def at_warmup():
            yield env.timeout(warmup)
            self.metrics.snapshot_message_baseline(self.network)

        env.process(at_warmup())
        self.source.start()
        env.run(until=self.scenario.duration)
        return Report.from_simulation(self)


@dataclass
class Report:
    """Everything measured in one run, with paper-aligned accessors."""

    scenario: Scenario
    offered: int
    granted: int
    dropped: int
    drop_rate: float
    new_call_block_rate: float
    handoff_failure_rate: float
    mean_acquisition_time: float
    p95_acquisition_time: float
    max_acquisition_time: float
    mean_queue_wait: float
    mean_attempts: float
    max_attempts: int
    mode_fractions: Dict[str, float]
    messages_total: int
    messages_by_kind: Dict[str, int]
    messages_per_acquisition: float
    fairness_index: float
    per_cell_drop_rates: Dict[int, float]
    violations: int
    mode_changes: int
    calls_started: int
    calls_completed: int
    duration: float
    #: Adaptive-scheme extras: measured average number of borrowing
    #: neighbors at local acquisitions (the paper's N_borrow); 0 for
    #: other schemes.
    measured_n_borrow: float = 0.0
    #: Drop-rate excess over the trace-replay oracle on the same
    #: (scenario, seed) — filled by ``repro.policies.compare_policies``;
    #: None for runs outside a policy comparison.  The oracle's own
    #: regret is exactly 0.0 by construction.
    regret_vs_oracle: Optional[float] = None
    # Fault-injection accounting (all zero / empty without a plan).
    faults_injected: Dict[str, int] = field(default_factory=dict)
    faults_recovered: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    retry_exhausted: int = 0
    #: Observability data (spans, series, kernel vitals) when the run
    #: was traced; see ``repro.obs``.  Plain data: pickles through the
    #: worker pool and the result cache unchanged.
    obs: Optional[ObsData] = field(repr=False, default=None)
    # Kept for custom post-processing.
    metrics: MetricsCollector = field(repr=False, default=None)

    @classmethod
    def from_simulation(cls, sim: Simulation) -> "Report":
        m = sim.metrics
        times = m.acquisition_times()
        waits = m.queue_waits()
        mode_changes = sum(
            getattr(s, "mode_changes", 0) for s in sim.stations.values()
        )
        local_acquires = sum(
            getattr(s, "local_acquires", 0) for s in sim.stations.values()
        )
        local_notify = sum(
            getattr(s, "local_notify_sum", 0) for s in sim.stations.values()
        )
        return cls(
            scenario=sim.scenario,
            offered=m.offered,
            granted=m.granted,
            dropped=m.dropped,
            drop_rate=m.drop_rate,
            new_call_block_rate=m.drop_rate_of("new"),
            handoff_failure_rate=m.drop_rate_of("handoff"),
            mean_acquisition_time=m.mean_acquisition_time(),
            p95_acquisition_time=m.acquisition_time_percentile(95),
            max_acquisition_time=float(times.max()) if times.size else 0.0,
            mean_queue_wait=float(waits.mean()) if waits.size else 0.0,
            mean_attempts=m.mean_attempts(),
            max_attempts=m.max_attempts(),
            mode_fractions=m.mode_fractions(),
            messages_total=m.messages_since_warmup(sim.network),
            messages_by_kind=m.messages_by_kind(sim.network),
            messages_per_acquisition=m.messages_per_acquisition(sim.network),
            fairness_index=m.fairness_index(),
            per_cell_drop_rates=m.per_cell_drop_rates(),
            violations=len(sim.monitor.violations),
            mode_changes=mode_changes,
            calls_started=sim.source.log.started,
            calls_completed=sim.source.log.completed,
            duration=sim.scenario.duration - sim.scenario.warmup,
            measured_n_borrow=(
                local_notify / local_acquires if local_acquires else 0.0
            ),
            faults_injected=dict(m.faults_injected),
            faults_recovered=dict(m.faults_recovered),
            retries=m.retries,
            retry_exhausted=m.retry_exhausted,
            obs=(
                sim.observer.collect() if sim.observer is not None else None
            ),
            metrics=m,
        )

    @property
    def xi(self) -> Dict[str, float]:
        """The paper's (ξ1, ξ2, ξ3) as {'local', 'update', 'search'}."""
        return {
            "local": self.mode_fractions.get("local", 0.0),
            "update": self.mode_fractions.get("update", 0.0),
            "search": self.mode_fractions.get("search", 0.0),
        }

    def summary(self) -> str:
        xi = self.xi
        lines = [
            f"scheme={self.scenario.scheme}  load={self.scenario.offered_load} "
            f"Erlang/cell  seed={self.scenario.seed}",
            f"  requests: {self.offered}  granted: {self.granted}  "
            f"drop rate: {self.drop_rate:.4f} "
            f"(new {self.new_call_block_rate:.4f} / "
            f"handoff {self.handoff_failure_rate:.4f})",
            f"  acquisition time: mean {self.mean_acquisition_time:.3f}  "
            f"p95 {self.p95_acquisition_time:.3f}  "
            f"max {self.max_acquisition_time:.3f} (units of T)",
            f"  messages: {self.messages_total} total, "
            f"{self.messages_per_acquisition:.2f} per request",
            f"  attempts: mean {self.mean_attempts:.2f}  max {self.max_attempts}",
            f"  xi(local/update/search): {xi['local']:.3f} / "
            f"{xi['update']:.3f} / {xi['search']:.3f}",
            f"  fairness index: {self.fairness_index:.4f}  "
            f"violations: {self.violations}",
        ]
        if self.faults_injected:
            lines.append(
                f"  faults: {sum(self.faults_injected.values())} injected, "
                f"{sum(self.faults_recovered.values())} recovered, "
                f"{self.retries} retries "
                f"({self.retry_exhausted} exhausted)"
            )
        return "\n".join(lines)


def _make_latency(scenario: Scenario, streams: StreamRegistry):
    if scenario.latency_model == "deterministic":
        return DeterministicLatency(scenario.latency_T)
    if scenario.latency_model == "uniform":
        return UniformLatency(
            scenario.latency_T,
            scenario.latency_T + scenario.latency_spread,
            streams.stream("network", "latency"),
        )
    raise ValueError(f"unknown latency model {scenario.latency_model!r}")


def build_simulation(scenario: Scenario) -> Simulation:
    """Construct the full stack for a scenario (without running it)."""
    if scenario.scheme not in SCHEMES:
        raise ValueError(
            f"unknown scheme {scenario.scheme!r}; available: {sorted(SCHEMES)}"
        )
    streams = StreamRegistry(scenario.seed)
    env = Environment()
    topo = CellularTopology(
        scenario.rows,
        scenario.cols,
        num_channels=scenario.num_channels,
        cluster_size=scenario.cluster_size,
        interference_radius=scenario.interference_radius,
        wrap=scenario.wrap,
        channels_per_color=scenario.channels_per_color,
    )
    network = Network(env, _make_latency(scenario, streams), fifo=scenario.fifo)
    metrics = MetricsCollector(warmup=scenario.warmup)
    monitor = InterferenceMonitor(topo, policy=scenario.monitor_policy)
    sanitizer_policy = get_default_policy()
    sanitizers = (
        SanitizerSuite(env, network, policy=sanitizer_policy)
        if sanitizer_policy is not None
        else None
    )

    # Fault injection + protocol hardening: wired only for a plan that
    # actually injects something, so a disabled/absent plan runs the
    # original reliable-network code paths event-for-event.
    injector: Optional[FaultInjector] = None
    hardening: Optional[Hardening] = None
    plan = scenario.faults
    if plan is not None and plan.enabled:
        injector = FaultInjector(
            env,
            plan,
            streams,
            network.latency,
            metrics,
        )
        network.injector = injector
        hardening = Hardening.from_plan(
            plan, network.latency.max_delay + plan.max_extra_delay()
        )

    cls = SCHEMES[scenario.scheme]
    kwargs: Dict[str, Any] = dict(scenario.extra_params)
    if hardening is not None:
        kwargs["hardening"] = hardening
    if cls is AdaptiveMSS:
        kwargs.setdefault("alpha", scenario.alpha)
        kwargs.setdefault("theta_low", scenario.theta_low)
        kwargs.setdefault("theta_high", scenario.theta_high)
        kwargs.setdefault("window", scenario.window)
        kwargs.setdefault("policy", scenario.policy)
        kwargs.setdefault("policy_params", dict(scenario.policy_params))
    elif cls in (BasicUpdateMSS, AdvancedUpdateMSS):
        kwargs.setdefault("max_attempts", scenario.max_attempts)

    stations: Dict[int, MSS] = {}
    for cell in topo.grid:
        stations[cell] = cls(
            env, network, topo, cell, metrics=metrics, monitor=monitor, **kwargs
        )
    for station in stations.values():
        station.start()
    if injector is not None:
        injector.install(stations)

    source = TrafficSource(
        env,
        stations,
        scenario.effective_pattern(),
        CallConfig(
            mean_holding=scenario.mean_holding,
            mean_dwell=scenario.mean_dwell,
            setup_deadline=scenario.setup_deadline,
        ),
        streams,
        horizon=scenario.duration,
    )

    # Observability: attached last so its probe subscriptions see the
    # fully wired stack.  With no (enabled) obs config, nothing here
    # subscribes and the kernel's no-probe fast path stays active.
    observer: Optional[Observer] = None
    if scenario.obs is not None and scenario.obs.enabled:
        observer = Observer(
            env,
            stations,
            scenario.obs,
            duration=scenario.duration,
            network=network,
        )

    return Simulation(
        scenario=scenario,
        env=env,
        topo=topo,
        network=network,
        stations=stations,
        metrics=metrics,
        monitor=monitor,
        source=source,
        streams=streams,
        sanitizers=sanitizers,
        injector=injector,
        observer=observer,
    )


def run_scenario(scenario: Scenario) -> Report:
    """Build and run one scenario; returns its :class:`Report`."""
    return build_simulation(scenario).run()


def run_replications(
    scenario: Scenario,
    n: int,
    workers: Optional[int] = 1,
    cache: Any = None,
    warmup_checkpoint: Any = None,
) -> List[Report]:
    """Run ``n`` independent replications (seeds seed, seed+1, ...).

    ``workers`` fans replications out over a process pool (``None`` =
    one per CPU) with deterministically ordered results; ``cache``
    controls the persistent result cache (see
    :func:`repro.harness.cache.resolve_cache`).

    ``warmup_checkpoint`` switches the sweep to *warm-start forking*
    (see :mod:`repro.snap`): the scenario runs once to a checkpoint and
    every replication forks from that snapshot under its own seed, so
    the warmup transient is simulated once instead of ``n`` times.
    Accepts a checkpoint instant (a float, typically
    ``scenario.warmup``) or a ready-made
    :class:`~repro.snap.Snapshot`.  Forked replications share the
    pre-checkpoint trajectory by construction — they are exchangeable
    draws of the post-checkpoint window, not fully independent runs —
    and run serially in-process (``workers`` is ignored; the speedup
    comes from skipping the warmup, and cache rows are keyed by the
    snapshot hash so warm results never alias cold ones).
    """
    if warmup_checkpoint is not None:
        from ..snap import Snapshot, fork_replications, run_to_checkpoint

        if isinstance(warmup_checkpoint, Snapshot):
            snapshot = warmup_checkpoint
        else:
            snapshot = run_to_checkpoint(scenario, float(warmup_checkpoint))
        seeds = [scenario.seed + i for i in range(n)]
        return fork_replications(snapshot, n, cache=cache, seeds=seeds)

    # Local import: parallel builds on this module's run_scenario.
    from .parallel import run_cells

    cells = [scenario.with_(seed=scenario.seed + i) for i in range(n)]
    return run_cells(cells, workers=workers, cache=cache)
