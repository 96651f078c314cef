"""EWMA predictor policy: exponentially weighted level + trend.

Instead of the paper's two-point linear fit over a sliding window,
``ewma`` tracks an exponentially weighted moving average of the
free-primary count (the *level*) and of its rate of change (the
*trend*), and extrapolates ``level + horizon * trend``.  Smoother than
the linear predictor under bursty traffic — a single deep sample no
longer slingshots the extrapolation — at the cost of reacting one time
constant late to genuine load shifts.  ``beta`` is the smoothing
weight of a new sample (1.0 = no smoothing).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .base import ModePolicy, register_policy

__all__ = ["EwmaPolicy"]


@register_policy
class EwmaPolicy(ModePolicy):
    """Threshold test on a double-EWMA (level + trend) extrapolation."""

    name = "ewma"

    def __init__(self, beta: float = 0.3, **context: Any) -> None:
        super().__init__(**context)
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        self.beta = float(beta)
        self.params = {"beta": self.beta}
        self.level = float(self.initial)
        self.trend = 0.0
        self.last_t: Optional[float] = None

    def _observe(self, t: float, s: int) -> None:
        beta = self.beta
        if self.last_t is None or t <= self.last_t:
            # First sample, or a same-instant re-sample: update the
            # level only (no elapsed time to attribute a rate to).
            self.level = beta * s + (1.0 - beta) * self.level
        else:
            dt = t - self.last_t
            new_level = beta * s + (1.0 - beta) * self.level
            inst_rate = (new_level - self.level) / dt
            self.trend = beta * inst_rate + (1.0 - beta) * self.trend
            self.level = new_level
        self.last_t = t

    def decide(self, t: float, s: int, borrowing: bool) -> Optional[bool]:
        self._observe(t, s)
        predicted = self.level + self.horizon * self.trend
        if not borrowing and predicted < self.theta_low:
            return True
        if borrowing and predicted >= self.theta_high:
            return False
        return None

    def predict_at(self, t: float) -> Optional[float]:
        return self.level + self.horizon * self.trend

    def reset(self, initial: int) -> None:
        self.level = float(initial)
        self.trend = 0.0
        self.last_t = None

    def state_dict(self) -> Dict[str, Any]:
        return {"level": self.level, "trend": self.trend, "last_t": self.last_t}

    def load_state(self, data: Dict[str, Any]) -> None:
        self.level = float(data["level"])
        self.trend = float(data["trend"])
        self.last_t = None if data["last_t"] is None else float(data["last_t"])
