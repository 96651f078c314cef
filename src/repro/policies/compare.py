"""Oracle-trace recording and policy comparison with regret metrics.

The workflow (see docs/POLICIES.md for the handbook version):

1. :func:`record_trace` runs a scenario once, subscribing to the
   ``policy.decide`` probe stream, and compacts each cell's
   free-primary samples into a step-function trace.
2. The trace parameterizes the ``oracle`` policy
   (``policy_params={"trace": ...}``), which replays it as lookahead —
   a trace-replay reference for the traced workload, not a bound.
3. :func:`compare_policies` runs every requested policy (plus the
   oracle) on the same scenario/seeds through the parallel engine and
   result cache, and writes **regret-vs-oracle** — the drop rate a
   policy leaves on the table relative to the oracle — into each
   report's ``regret_vs_oracle`` field.  The oracle's own regret is 0
   by construction; another policy's regret can be negative, because
   the replayed trace stops matching the load once the oracle's own
   decisions change it.

Imports of the harness are function-local: the harness imports the
core scheme, which imports this package, so a module-level import
would be circular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .base import policy_names

__all__ = ["record_trace", "compare_policies", "PolicyComparison"]


def record_trace(scenario: Any) -> Dict[int, List[List[float]]]:
    """Per-cell free-primary step function of one run of ``scenario``.

    Returns ``{cell: [[t, s], ...]}`` with strictly increasing ``t``
    per cell and consecutive duplicate values collapsed — the exact
    shape the ``oracle`` policy's ``trace`` parameter takes (and what
    ``--record-policy-trace`` writes as JSON).  The run itself is a
    plain simulation of ``scenario`` under its configured policy
    (record from ``policy="linear"`` to get the paper-baseline trace).
    """
    from ..harness.runner import build_simulation

    sim = build_simulation(scenario)
    trace: Dict[int, List[List[float]]] = {}

    def on_decide(now: float, payload: Any) -> None:
        cell, t, s = payload[0], payload[1], payload[2]
        series = trace.setdefault(cell, [])
        if series:
            if series[-1][0] == t:
                series[-1][1] = s  # same-instant update supersedes
                return
            if series[-1][1] == s:
                return  # step function: only record changes
        series.append([t, s])

    sim.env.subscribe("policy.decide", on_decide)
    sim.run()
    return trace


@dataclass
class PolicyComparison:
    """Tidy per-(policy, seed) rows of a policy comparison."""

    policies: List[str]
    seeds: List[int]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    #: (policy, seed) -> Report, each with ``regret_vs_oracle`` set.
    reports: Dict[Tuple[str, int], Any] = field(default_factory=dict)

    def regret(self, policy: str) -> float:
        """Mean regret-vs-oracle of ``policy`` across seeds."""
        values = [
            row["regret_vs_oracle"]
            for row in self.rows
            if row["policy"] == policy
        ]
        if not values:
            raise KeyError(f"no rows for policy {policy!r}")
        return sum(values) / len(values)


def compare_policies(
    base: Any,
    policies: Optional[Sequence[str]] = None,
    seeds: Optional[Sequence[int]] = None,
    workers: Optional[int] = 1,
    cache: Any = None,
) -> PolicyComparison:
    """Run every policy on ``base``'s workload and compute regrets.

    For each seed, a ``linear`` run of ``base`` is traced first
    (:func:`record_trace`, never cached — the trace is an input, not a
    result); the oracle replays that trace, and every (policy, seed)
    cell then runs through :func:`repro.harness.parallel.run_cells`
    with the usual result-cache semantics.  The oracle is always
    included — it is the regret yardstick.
    """
    from ..harness.parallel import run_cells

    if base.scheme != "adaptive":
        raise ValueError(
            f"compare_policies needs scheme 'adaptive', not {base.scheme!r}"
        )
    names = list(policies) if policies is not None else policy_names()
    if "oracle" not in names:
        names.append("oracle")
    seed_list = list(seeds) if seeds is not None else [base.seed]

    cells: List[Any] = []
    labels: List[Tuple[str, int]] = []
    for seed in seed_list:
        trace = record_trace(
            base.with_(seed=seed, policy="linear", policy_params={})
        )
        for name in names:
            params: Dict[str, Any] = {"trace": trace} if name == "oracle" else {}
            cells.append(base.with_(seed=seed, policy=name, policy_params=params))
            labels.append((name, seed))
    reports = run_cells(cells, workers=workers, cache=cache)

    result = PolicyComparison(policies=names, seeds=seed_list)
    by_label = dict(zip(labels, reports))
    for seed in seed_list:
        oracle_drop = by_label[("oracle", seed)].drop_rate
        for name in names:
            report = by_label[(name, seed)]
            report.regret_vs_oracle = report.drop_rate - oracle_drop
            result.reports[(name, seed)] = report
            result.rows.append({
                "policy": name,
                "seed": seed,
                "drop_rate": report.drop_rate,
                "regret_vs_oracle": report.regret_vs_oracle,
                "mean_acquisition_time": report.mean_acquisition_time,
                "messages_per_acquisition": report.messages_per_acquisition,
                "mode_changes": report.mode_changes,
                "violations": report.violations,
            })
    return result
