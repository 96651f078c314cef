"""One benchmark run in a fresh process; prints one JSON line.

Usage (from the root of a checkout; ``run.py`` is the normal caller)::

    python3 perfbench/child.py --workload NAME --seed N \
        --spawned-at MONOTONIC [--trace]

The run follows the production path: import the package, then
``build_simulation`` -> ``Simulation.run`` (which drives
``Environment.run`` and builds the ``Report``), with no sanitizers, no
observer, no fast lane and no result cache.  ``--spawned-at`` is the
parent's ``time.monotonic()`` just before it started this process (the
clock is system-wide on Linux), so set-up time includes interpreter
start and imports.

With ``--trace`` the layer boundaries are wrapped before ``run()`` (see
``ledger.py``) and the per-layer ledger is added to the output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Any, Dict

import workloads
from ledger import Ledger, instrument


def fingerprint(report: Any, events: int) -> Dict[str, Any]:
    """The run's modelled outcome: identical for every run of one seed.

    ``cli`` is exactly what ``python -m repro --json`` prints for the
    scenario; ``extra`` adds counts the CLI does not print.
    """
    from repro.__main__ import report_dict

    return {
        "cli": json.loads(json.dumps(report_dict(report))),
        "extra": {
            "granted": report.granted,
            "dropped": report.dropped,
            "mode_changes": report.mode_changes,
            "messages_by_kind": report.messages_by_kind,
            "calls_started": report.calls_started,
            "calls_completed": report.calls_completed,
            "events": events,
        },
    }


def processed_entries(env: Any) -> int:
    """Heap entries the kernel has popped so far (scheduled minus queued)."""
    return env._eid - len(env._queue)


def layer_metrics(ledger: Any, sim: Any, report: Any, events: int) -> Dict[str, float]:
    """Per-layer metrics of one traced run (names as in BENCHMARK.json)."""
    buckets = ledger.buckets

    def calls(name: str) -> int:
        return buckets[name].calls if name in buckets else 0

    def self_s(prefix: str) -> float:
        return sum(
            b.self_s for name, b in buckets.items() if name.startswith(prefix)
        )

    engine_s = self_s("sim.engine.")
    network_s = self_s("sim.network.")
    sends = calls("sim.network.send")
    decides = calls("policies.decide")
    records = sim.metrics.records
    retries = report.retries
    recovered = report.faults_recovered.get("retransmit", 0)
    return {
        "sim.engine.events": events,
        "sim.engine.processes": calls("sim.engine.process"),
        "sim.engine.emits": calls("sim.engine.emit"),
        "sim.engine.self_s": engine_s,
        "sim.engine.ns_per_event": engine_s / events * 1e9 if events else 0.0,
        "sim.network.sends": sends,
        "sim.network.self_s": network_s,
        "sim.network.ns_per_send": network_s / sends * 1e9 if sends else 0.0,
        "protocols.messages": calls("protocols.handler"),
        "protocols.handler_self_s": self_s("protocols.handler"),
        "protocols.requests": calls("protocols.request"),
        "protocols.request_self_s": self_s("protocols.request"),
        "protocols.releases": calls("protocols.release"),
        "protocols.release_self_s": self_s("protocols.release"),
        "protocols.attempts_per_request": (
            sum(r.attempts for r in records) / len(records) if records else 0.0
        ),
        "protocols.monitor.calls": (
            calls("protocols.monitor.acquired")
            + calls("protocols.monitor.released")
        ),
        "protocols.monitor.self_s": self_s("protocols.monitor."),
        "core.checks": calls("core.check_mode"),
        "core.self_s": self_s("core."),
        "core.mode_changes": report.mode_changes,
        "policies.decides": decides,
        "policies.self_s": self_s("policies."),
        "policies.useful_ratio": report.mode_changes / decides if decides else 0.0,
        "traffic.calls": calls("traffic.call"),
        "traffic.self_s": self_s("traffic."),
        "metrics.records": calls("metrics.record"),
        "metrics.self_s": self_s("metrics."),
        "faults.filter_sends": calls("faults.filter_send"),
        "faults.self_s": self_s("faults."),
        "faults.retries": retries,
        "faults.retry_useful_ratio": recovered / retries if retries else 0.0,
        "cellular.topology_s": self_s("cellular."),
        "harness.report_s": self_s("harness.report"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from repro.harness import build_simulation, runner

    imported = time.monotonic()
    scenario = workloads.scenario(args.workload, args.seed)
    ledger = Ledger() if args.trace else None
    if ledger is not None:
        ledger.wrap(runner, "CellularTopology", "cellular.topology")
        ledger.wrap(runner.Report, "from_simulation", "harness.report")
    build_start = time.monotonic()
    sim = build_simulation(scenario)
    built = time.monotonic()

    for part in ("sanitizers", "observer", "fastlane"):
        if getattr(sim, part) is not None:
            raise RuntimeError(f"not the production path: sim.{part} is set")
    if ledger is not None:
        instrument(ledger, sim)

    before = processed_entries(sim.env)
    start = time.perf_counter()
    report = sim.run()
    run_s = time.perf_counter() - start
    events = processed_entries(sim.env) - before

    result: Dict[str, Any] = {
        "setup_s": built - args.spawned_at,
        "import_s": imported - args.spawned_at,
        "build_s": built - build_start,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "offered": report.offered,
        "granted": report.granted,
        "dropped": report.dropped,
        "violations": report.violations,
        "fingerprint": fingerprint(report, events),
    }
    if ledger is not None:
        result["layers"] = layer_metrics(ledger, sim, report, events)
        result["ledger"] = ledger.to_dict()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
