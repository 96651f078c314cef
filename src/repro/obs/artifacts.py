"""Run-artifact writer: one self-contained directory per observed run.

:func:`write_run_artifacts` turns a finished
:class:`~repro.harness.runner.Report` whose ``obs`` field carries
:class:`~repro.obs.observer.ObsData` into a run directory::

    <dir>/
      scenario.json    # the exact Scenario that ran (reproducible)
      trace.json       # Chrome trace_event JSON — load in Perfetto
                       # (ui.perfetto.dev) or chrome://tracing
      timeseries.csv   # per-cell samples, long form (spreadsheet-ready)
      timeseries.json  # the same series, nested by cell
      kernel.json      # DES-kernel vitals (events/s, heap depth, ...)
      report.md        # human-readable run report: summary, Table 1-
                       # style cost breakdown, ASCII mode timeline
      manifest.json    # file inventory for tooling

The trace uses **1 simulated time unit = 1 ms** (`ts` is microseconds
in the trace_event spec, sim times are multiplied by 1000), one thread
per cell.  See docs/OBSERVABILITY.md for the full format spec and a
walkthrough of reading a run directory.

This module imports only plain-data structures at module level; the
analytical model (``repro.analysis``) is imported lazily inside the
report writer so the obs package stays import-light and cycle-free.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from .timeseries import mode_glyph

__all__ = ["trace_events", "write_run_artifacts", "write_manifest"]

#: Trace timestamp scale: simulated time units -> trace microseconds.
#: 1000 makes one unit of T read as one millisecond in Perfetto.
TRACE_SCALE = 1000.0


# ---------------------------------------------------------------------------
# Chrome trace_event generation
# ---------------------------------------------------------------------------
def trace_events(report: Any) -> List[Dict[str, Any]]:
    """Flatten a report's ObsData into Chrome trace_event dicts."""
    obs = report.obs
    scenario = report.scenario
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "name": "process_name",
            "args": {
                "name": f"{scenario.scheme} load={scenario.offered_load} "
                f"seed={scenario.seed}"
            },
        }
    ]
    cells = sorted(
        {span["cell"] for span in obs.spans}
        | {int(c) for c in obs.series.get("cells", {})}
    )
    for cell in cells:
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": cell,
                "name": "thread_name",
                "args": {"name": f"cell {cell}"},
            }
        )

    for span in obs.spans + obs.open_spans:
        t_begin = span["t_begin"]
        t_end = span["t_end"] if span["t_end"] is not None else t_begin
        name = f"acquire[{span['kind']}]"
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": span["cell"],
                "name": name,
                "cat": "acquisition",
                "ts": t_begin * TRACE_SCALE,
                "dur": (t_end - t_begin) * TRACE_SCALE,
                "args": {
                    "req_id": span["req_id"],
                    "channel": span["channel"],
                    "granted": span["granted"],
                    "closed": span["t_end"] is not None,
                },
            }
        )
        if span["t_serve"] is not None and t_end >= span["t_serve"]:
            events.append(
                {
                    "ph": "X",
                    "pid": 0,
                    "tid": span["cell"],
                    "name": "serve",
                    "cat": "acquisition",
                    "ts": span["t_serve"] * TRACE_SCALE,
                    "dur": (t_end - span["t_serve"]) * TRACE_SCALE,
                    "args": {"req_id": span["req_id"]},
                }
            )
        for t, kind, detail in span["events"]:
            events.append(
                {
                    "ph": "i",
                    "pid": 0,
                    "tid": span["cell"],
                    "name": kind,
                    "cat": "protocol",
                    "ts": t * TRACE_SCALE,
                    "s": "t",
                    "args": {"detail": detail},
                }
            )
    for t, kind, cell, detail in obs.instants:
        if cell is None:
            continue
        events.append(
            {
                "ph": "i",
                "pid": 0,
                "tid": cell,
                "name": kind,
                "cat": "protocol",
                "ts": t * TRACE_SCALE,
                "s": "t",
                "args": {"detail": detail},
            }
        )

    # System-wide counters: total occupancy and borrowing cells per
    # sample (deterministic), heap depth from the kernel profiler.
    series = obs.series
    if series.get("times"):
        cell_series = series["cells"]
        for i, t in enumerate(series["times"]):
            total = sum(c["occupancy"][i] for c in cell_series.values())
            borrowing = sum(
                1 for c in cell_series.values() if c["mode"][i] > 0
            )
            events.append(
                {
                    "ph": "C",
                    "pid": 0,
                    "tid": 0,
                    "name": "system",
                    "ts": t * TRACE_SCALE,
                    "args": {
                        "channels_in_use": total,
                        "cells_borrowing": borrowing,
                    },
                }
            )
    kernel = obs.kernel
    if kernel.get("sim_times"):
        for t, depth in zip(kernel["sim_times"], kernel["heap_depth"]):
            events.append(
                {
                    "ph": "C",
                    "pid": 0,
                    "tid": 0,
                    "name": "kernel",
                    "ts": t * TRACE_SCALE,
                    "args": {"heap_depth": depth},
                }
            )
    return events


# ---------------------------------------------------------------------------
# Markdown report
# ---------------------------------------------------------------------------
def _md_table(headers: List[str], rows: List[List[Any]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return lines


def _model_prediction(report: Any) -> Optional[Dict[str, float]]:
    """Table 1 model columns at the run's measured parameters.

    Mirrors benchmarks/test_table1_general.py: evaluate the §5 formulas
    with m, ξ and N_borrow measured from this run.  Returns None when
    the scheme has no model or the measured parameters fall outside the
    model's domain (e.g. a run too short to ground ξ).
    """
    from ..analysis import MODELS, ModelParams  # lazy: keeps obs light

    scheme = report.scenario.scheme
    model = MODELS.get(scheme)
    if model is None:
        return None
    xi = report.xi
    sum_xi = sum(xi.values())
    m = report.mean_attempts
    try:
        if scheme == "basic_search":
            params = ModelParams(
                N=_region_size(report.scenario), N_search=1.0, m=0.0,
                xi1=0, xi2=0, xi3=1, alpha=report.scenario.alpha,
            )
        elif scheme == "basic_update":
            params = ModelParams(
                N=_region_size(report.scenario), m=m, alpha=max(m, 25),
                xi1=0, xi2=1, xi3=0,
            )
        elif scheme == "advanced_update":
            xi1 = xi["local"] if sum_xi else 1.0
            params = ModelParams(
                N=_region_size(report.scenario), n_p=3.0, m=max(m, 1.0),
                alpha=max(m, 25), xi1=xi1, xi2=1 - xi1, xi3=0,
            )
        elif scheme == "adaptive":
            norm = sum_xi or 1.0
            params = ModelParams(
                N=_region_size(report.scenario),
                N_search=1.0,
                N_borrow=report.measured_n_borrow,
                m=m,
                alpha=max(report.scenario.alpha, m),
                xi1=xi["local"] / norm if sum_xi else 1.0,
                xi2=xi["update"] / norm if sum_xi else 0.0,
                xi3=xi["search"] / norm if sum_xi else 0.0,
            )
        else:  # fixed
            params = ModelParams(N=_region_size(report.scenario))
    except ValueError:
        return None
    return {
        "messages": model.message_complexity(params),
        "time": model.acquisition_time(params),
        "m": params.m,
        "xi1": params.xi1,
        "xi2": params.xi2,
        "xi3": params.xi3,
    }


def _region_size(scenario: Any) -> float:
    """Mean interference-region size |IN| of the scenario's topology."""
    from ..cellular import CellularTopology  # lazy

    topo = CellularTopology(
        scenario.rows,
        scenario.cols,
        num_channels=scenario.num_channels,
        cluster_size=scenario.cluster_size,
        interference_radius=scenario.interference_radius,
        wrap=scenario.wrap,
        channels_per_color=scenario.channels_per_color,
    )
    sizes = [len(topo.IN(cell)) for cell in topo.grid]
    return sum(sizes) / len(sizes) if sizes else 0.0


def _mode_timeline(obs: Any, timeline_cells: int, width: int = 72) -> List[str]:
    """ASCII mode timeline of the busiest borrowers, from the series."""
    series = obs.series
    times = series.get("times") or []
    if not times:
        return ["(no time-series samples)"]
    cells = series["cells"]

    def borrow_fraction(data: Dict[str, Any]) -> float:
        modes = data["mode"]
        return sum(1 for v in modes if v > 0) / len(modes) if modes else 0.0

    ranked = sorted(
        cells, key=lambda c: (-borrow_fraction(cells[c]), int(c))
    )
    chosen = sorted(ranked[:timeline_cells], key=int)
    n = len(times)
    stride = max(1, n // width)
    label_w = max(len(str(c)) for c in chosen)
    lines = ["```"]
    for cell in chosen:
        modes = cells[cell]["mode"]
        row = "".join(mode_glyph(modes[i]) for i in range(0, n, stride))
        lines.append(f"{str(cell).rjust(label_w)} {row}")
    lines.append(
        f"{' ' * label_w} (t = {times[0]:g} .. {times[-1]:g}; "
        ". local, b idle-borrowing, U update, S search, ? unknown)"
    )
    lines.append("```")
    return lines


def _render_report_md(report: Any) -> str:
    obs = report.obs
    s = report.scenario
    xi = report.xi
    lines = [
        f"# Run report — {s.scheme}",
        "",
        f"*Generated by `repro.obs` from a traced run "
        f"(seed {s.seed}, {s.offered_load} Erlang/cell, "
        f"duration {s.duration:g}, warmup {s.warmup:g}).  "
        "See docs/OBSERVABILITY.md for how to read this directory.*",
        "",
        "## Summary",
        "",
    ]
    lines += _md_table(
        ["metric", "value"],
        [
            ["requests offered", report.offered],
            ["granted", report.granted],
            ["drop rate", f"{report.drop_rate:.4f}"],
            ["new-call block rate", f"{report.new_call_block_rate:.4f}"],
            ["handoff failure rate", f"{report.handoff_failure_rate:.4f}"],
            ["mean acquisition time (T)", f"{report.mean_acquisition_time:.3f}"],
            ["p95 acquisition time (T)", f"{report.p95_acquisition_time:.3f}"],
            ["messages per acquisition", f"{report.messages_per_acquisition:.2f}"],
            ["mean attempts (m)", f"{report.mean_attempts:.2f}"],
            ["mode changes", report.mode_changes],
            ["fairness index", f"{report.fairness_index:.4f}"],
            ["interference violations", report.violations],
        ],
    )
    lines += [
        "",
        "## Cost breakdown (paper Table 1 columns)",
        "",
        "Model columns evaluate the paper's §5 closed forms at this "
        "run's measured parameters (m, ξ, N_borrow); sim columns are "
        "measured end to end.",
        "",
    ]
    prediction = _model_prediction(report)
    if prediction is not None:
        lines += _md_table(
            [
                "scheme",
                "msgs (model)",
                "msgs (sim)",
                "time (model)",
                "time (sim)",
                "m",
                "ξ1",
                "ξ2",
                "ξ3",
            ],
            [
                [
                    s.scheme,
                    round(prediction["messages"], 1),
                    round(report.messages_per_acquisition, 1),
                    round(prediction["time"], 2),
                    round(report.mean_acquisition_time, 2),
                    round(prediction["m"], 2),
                    round(prediction["xi1"], 3),
                    round(prediction["xi2"], 3),
                    round(prediction["xi3"], 3),
                ]
            ],
        )
    else:
        lines += _md_table(
            ["scheme", "msgs (sim)", "time (sim)", "m", "ξ1", "ξ2", "ξ3"],
            [
                [
                    s.scheme,
                    round(report.messages_per_acquisition, 1),
                    round(report.mean_acquisition_time, 2),
                    round(report.mean_attempts, 2),
                    round(xi["local"], 3),
                    round(xi["update"], 3),
                    round(xi["search"], 3),
                ]
            ],
        )
        lines += ["", "(no analytical model for this run's parameters)"]

    if obs is not None and obs.span_stats:
        stats = obs.span_stats
        lines += [
            "",
            "## Acquisition spans",
            "",
            f"{stats.get('opened', 0)} spans opened, "
            f"{stats.get('closed', 0)} closed "
            f"({len(obs.open_spans)} still open at the horizon, "
            f"{stats.get('dropped', 0)} over the retention cap, "
            f"{stats.get('orphan_children', 0)} events outside any span).  "
            "Full detail in `trace.json` — open it at "
            "<https://ui.perfetto.dev>.",
        ]

    if obs is not None and obs.series.get("times"):
        timeline_cells = (obs.config or {}).get("timeline_cells", 12)
        lines += ["", "## Mode timeline (busiest borrowers)", ""]
        lines += _mode_timeline(obs, timeline_cells)

    if obs is not None and obs.kernel.get("sim_times"):
        kernel = obs.kernel
        rates = [r for r in kernel.get("events_per_s", []) if r]
        occ = [o for o in kernel.get("occupancy", []) if o is not None]
        lines += [
            "",
            "## Kernel vitals",
            "",
            "*(events and heap depth are deterministic; the rate and "
            "occupancy columns are wall-clock measurements and vary "
            "run to run)*",
            "",
        ]
        lines += _md_table(
            ["metric", "value"],
            [
                ["events processed", kernel.get("total_events", 0)],
                ["max heap depth", kernel.get("max_heap_depth", 0)],
                [
                    "events/s (median interval)",
                    sorted(rates)[len(rates) // 2] if rates else "n/a",
                ],
                [
                    "event-loop occupancy (median)",
                    sorted(occ)[len(occ) // 2] if occ else "n/a",
                ],
            ],
        )

    if report.faults_injected:
        lines += ["", "## Faults", ""]
        lines += _md_table(
            ["kind", "injected"],
            [[k, v] for k, v in sorted(report.faults_injected.items())],
        )
        lines += [
            "",
            f"{sum(report.faults_recovered.values())} recovered, "
            f"{report.retries} ARQ retries "
            f"({report.retry_exhausted} exhausted).",
        ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV / JSON series
# ---------------------------------------------------------------------------
def _series_csv(obs: Any) -> str:
    lines = ["time,cell,occupancy,mode,nfc_predicted,neighborhood_load"]
    series = obs.series
    times = series.get("times") or []
    for cell in sorted(series.get("cells", {}), key=int):
        data = series["cells"][cell]
        for i, t in enumerate(times):
            nfc = data["nfc_predicted"][i]
            lines.append(
                f"{t:g},{cell},{data['occupancy'][i]},{data['mode'][i]},"
                f"{'' if nfc is None else round(nfc, 4)},"
                f"{data['neighborhood_load'][i]}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def write_run_artifacts(report: Any, out_dir: str) -> List[str]:
    """Write the full artifact set for one traced report.

    Returns the (sorted) relative names of the files written.  Raises
    ``ValueError`` if the report carries no ObsData — the run was not
    traced, so there is nothing to write.
    """
    if getattr(report, "obs", None) is None:
        raise ValueError(
            "report has no observability data; run with an enabled "
            "Scenario.obs (e.g. --trace) first"
        )
    os.makedirs(out_dir, exist_ok=True)
    obs = report.obs
    written: List[str] = []

    def dump(name: str, payload: Any) -> None:
        with open(os.path.join(out_dir, name), "w") as fh:
            if name.endswith(".json"):
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            else:
                fh.write(payload)
        written.append(name)

    dump("scenario.json", json.loads(report.scenario.to_json()))
    dump(
        "trace.json",
        {"traceEvents": trace_events(report), "displayTimeUnit": "ms"},
    )
    dump("timeseries.csv", _series_csv(obs))
    dump("timeseries.json", obs.series)
    dump("kernel.json", obs.kernel)
    dump("report.md", _render_report_md(report))
    manifest = {
        "files": sorted(written),
        "scheme": report.scenario.scheme,
        "seed": report.scenario.seed,
        "spans": obs.span_stats,
    }
    dump("manifest.json", manifest)
    return sorted(written)


def write_manifest(trace_dir: str, entries: List[Dict[str, Any]]) -> str:
    """Write the top-level manifest of a multi-cell trace directory."""
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump({"cells": entries}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
