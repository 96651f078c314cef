"""The benchmark's workloads: one scenario each, built from a seed.

Every workload keeps the simulator's defaults (k=7 reuse, 70 channels,
deterministic latency T=1, FIFO links, the ``linear`` mode policy) and
changes only what the table below says.  The horizons are sized so one
untraced run takes about 1.5-5 s on a quiet 2-core x86 host with
Python 3.11, which leaves room for several timed runs per
``--seconds 15``.

See perfbench/README.md for why each workload exists and which layer it
is meant to exercise or bypass.
"""

from __future__ import annotations

from typing import Any, Dict

#: name -> Scenario keyword arguments, the one-line reason for the
#: workload and, optionally, a message-loss probability that
#: :func:`scenario` turns into a FaultPlan (so importing this module
#: imports nothing from the program).
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "adaptive_contended": {
        "scenario": dict(
            scheme="adaptive", rows=7, cols=7, wrap=True,
            offered_load=10.0, duration=2000.0, warmup=400.0,
        ),
        "why": "7x7 torus at 10 E/cell: the paper's borrowing regime, "
               "mode policy and Network.send dominate",
    },
    "update_large": {
        "scenario": dict(
            scheme="basic_update", rows=28, cols=28, wrap=True,
            offered_load=5.0, duration=400.0, warmup=50.0,
        ),
        "why": "28x28 torus, basic_update at 5 E/cell: every acquisition "
               "is a full update round, large heap, no mode policy",
    },
    "local_lowload": {
        "scenario": dict(
            scheme="adaptive", rows=28, cols=28, wrap=False,
            offered_load=3.0, duration=3000.0, warmup=500.0,
        ),
        "why": "28x28 planar adaptive at 3 E/cell (Table 2): local "
               "acquisitions, traffic and process resumption carry the load",
    },
    "adaptive_lossy": {
        "scenario": dict(
            scheme="adaptive", rows=7, cols=7, wrap=True,
            offered_load=8.0, duration=2500.0, warmup=500.0,
        ),
        "loss": 0.05,
        "why": "7x7 adaptive at 8 E/cell with 5% uniform message loss: "
               "faulty send path, ARQ retries, dedup and round deadlines",
    },
}


def scenario(name: str, seed: int):
    """The :class:`repro.harness.Scenario` of workload ``name``."""
    from repro.faults import FaultPlan
    from repro.harness import Scenario

    spec = WORKLOADS[name]
    kwargs = dict(spec["scenario"], seed=seed)
    if "loss" in spec:
        kwargs["faults"] = FaultPlan.uniform_loss(spec["loss"])
    return Scenario(**kwargs)
