"""Whole-program protocol conformance analyzer (``python -m tools.analyze``).

Complements the line-level lint (``tools.check``) with passes that
need facts spanning files:

========  =============================================================
Pass 1    Message-flow conformance (ANA101–ANA104): every message kind
          a scheme sends has a ``_on_<Kind>`` handler, every handler's
          kind is actually sent, every ``msg.<attr>`` access names a
          real dataclass field, every constructor call matches the
          dataclass signature.  (``tools/analyze/flow.py``)
Pass 2    Cell-locality analysis (ANA201): no read/write of another
          cell's state outside ``Network.send`` and the probe bus.
          (``tools/analyze/locality.py``)
Pass 3    Snapshot-escape analysis (ANA301–ANA303): no unregistered
          randomness and no mutable module/class-level state anywhere
          the checkpoint state codec must cover.  Precondition gate
          for bit-exact checkpoint/restore (``repro.snap``).
          (``tools/analyze/snapshot.py``)
Pass 4    Determinism lint family (SIM006–SIM009), run over the
          ``tools.check`` engine: unordered fan-out, identity
          ordering, ``popitem``, env-var control flow.
          (``tools/analyze/determinism.py``)
========  =============================================================

Accepted findings live in the committed baseline
(``tools/analyze/baseline.json``); the CLI exits 1 only on findings
outside it.  See ``docs/CHECKS.md`` for the full catalog and the
baseline workflow.
"""

from .baseline import (
    DEFAULT_BASELINE,
    baseline_key,
    load_baseline,
    partition,
    write_baseline,
)
from .determinism import DETERMINISM_RULES
from .flow import render_dot, run_flow_pass
from .model import ProtocolModel, build_model
from .locality import run_locality_pass
from .snapshot import run_snapshot_pass

__all__ = [
    "DEFAULT_BASELINE",
    "DETERMINISM_RULES",
    "ProtocolModel",
    "baseline_key",
    "build_model",
    "load_baseline",
    "partition",
    "render_dot",
    "run_flow_pass",
    "run_locality_pass",
    "run_snapshot_pass",
    "write_baseline",
]
