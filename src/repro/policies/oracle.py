"""Oracle policy: replays a recorded load trace as a regret reference.

The oracle answers Fig. 6's "what will the free-primary count be one
round-trip from now?" by *looking it up* in a per-cell trace recorded
from a prior run of the same scenario (see
:func:`repro.policies.record_trace`), instead of predicting it.  It is
the reference **regret-vs-oracle** (``Report.regret_vs_oracle``) is
measured against — its own regret is 0 by definition — but not a
bound: the trace records the baseline run's load, and once the
oracle's own decisions change that load the replayed future is no
longer the one it meets.  Other policies can and do beat it (negative
regret).

The trace is a JSON-safe step function per cell:
``{cell: [[t, s], ...]}`` with strictly increasing ``t`` — exactly
what the ``policy.decide`` probe stream compacts to.  Times at or
before the first sample read the scenario's initial free count; times
past the end hold the last value.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, List, Optional

from .base import ModePolicy, register_policy

__all__ = ["OraclePolicy"]


@register_policy
class OraclePolicy(ModePolicy):
    """Threshold test on the *recorded* free count one horizon ahead."""

    name = "oracle"

    def __init__(
        self, trace: Optional[Dict[Any, Any]] = None, **context: Any
    ) -> None:
        super().__init__(**context)
        trace = trace or {}
        # JSON object keys arrive as strings; accept both.
        series = trace.get(self.cell, trace.get(str(self.cell), []))
        self._times: List[float] = [float(t) for t, _s in series]
        self._values: List[int] = [int(s) for _t, s in series]
        self.params = {"trace": trace}

    def _lookup(self, t: float) -> float:
        index = bisect_right(self._times, t) - 1
        if index < 0:
            return float(self.initial)
        return float(self._values[index])

    def decide(self, t: float, s: int, borrowing: bool) -> Optional[bool]:
        predicted = self._lookup(t + self.horizon)
        if not borrowing and predicted < self.theta_low:
            return True
        if borrowing and predicted >= self.theta_high:
            return False
        return None

    def predict_at(self, t: float) -> Optional[float]:
        return self._lookup(t + self.horizon)

    def reset(self, initial: int) -> None:
        # The trace is immutable configuration, not history; a crash
        # with state loss leaves the replay untouched.
        self.initial = initial

    def state_dict(self) -> Dict[str, Any]:
        return {"initial": self.initial}

    def load_state(self, data: Dict[str, Any]) -> None:
        self.initial = int(data["initial"])
