"""Windowed-quantile policy: threshold test on a low load quantile.

``quantile`` keeps the raw (t, s) samples of the last ``W`` time units
and compares a configurable quantile ``q`` of the retained
free-primary counts against θ_l/θ_h — a rank statistic instead of an
extrapolation.  With the default ``q = 0.25`` the cell reacts to
*sustained* scarcity (a quarter of the recent window at or below the
threshold) and ignores one-sample dips entirely; there is no notion of
trend, so it neither anticipates load like the linear predictor nor
overshoots like it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from .base import ModePolicy, register_policy

__all__ = ["QuantilePolicy"]


@register_policy
class QuantilePolicy(ModePolicy):
    """Threshold test on the q-quantile of the sample window."""

    name = "quantile"

    def __init__(self, q: float = 0.25, **context: Any) -> None:
        super().__init__(**context)
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        self.q = float(q)
        self.params = {"q": self.q}
        self._samples: Deque[Tuple[float, int]] = deque()
        self._initial = self.initial

    def _quantile(self) -> float:
        if self._samples:
            values = sorted(s for _t, s in self._samples)
        else:
            values = [self._initial]
        # Deterministic lower-rank quantile (no interpolation).
        index = int(self.q * (len(values) - 1))
        return float(values[index])

    def decide(self, t: float, s: int, borrowing: bool) -> Optional[bool]:
        samples = self._samples
        samples.append((t, s))
        horizon = t - self.window
        while samples and samples[0][0] < horizon:
            samples.popleft()
        predicted = self._quantile()
        if not borrowing and predicted < self.theta_low:
            return True
        if borrowing and predicted >= self.theta_high:
            return False
        return None

    def predict_at(self, t: float) -> Optional[float]:
        return self._quantile()

    def reset(self, initial: int) -> None:
        self._samples.clear()
        self._initial = initial

    def state_dict(self) -> Dict[str, Any]:
        return {
            "samples": [list(sample) for sample in self._samples],
            "initial": self._initial,
        }

    def load_state(self, data: Dict[str, Any]) -> None:
        self._samples = deque(
            (float(t), int(s)) for t, s in data["samples"]
        )
        self._initial = int(data["initial"])
