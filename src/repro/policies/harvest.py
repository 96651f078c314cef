"""Harvest/trade policy: overloaded cells solicit donations.

``harvest`` keeps the paper's linear predictor for mode switching but
adds a donation market on top (cf. the priority/trade borrowing
variants in arXiv:1810.02539): a cell that stays starved while
borrowing broadcasts a ``SOLICIT(need)`` to its interference
neighbors; an unloaded neighbor answers with ``DONATE(channels)``
naming free primaries it can spare, and the solicitor then *prefers*
donors over the Fig. 10 Best() heuristic when picking a borrow target.

Donations are strictly advisory.  A donated channel is still acquired
through the full update-round permission protocol, so the paper's
safety argument is untouched — the donation book only steers *which*
neighbor the round targets, replacing blind selection with targets
that declared spare capacity moments ago.  Solicitations are
rate-limited (one per ``W``) and donations expire after ``W`` so the
book never acts on stale generosity.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Dict, Iterable, Optional, Set, Tuple

from ..core.nfc import NFCWindow
from .base import ModePolicy, register_policy

__all__ = ["HarvestPolicy"]


@register_policy
class HarvestPolicy(ModePolicy):
    """Linear predictor + SOLICIT/DONATE donation book."""

    name = "harvest"

    def __init__(self, **context: Any) -> None:
        super().__init__(**context)
        self.nfc = NFCWindow(self.window, initial=self.initial)
        #: Last solicitation instant (rate limit: one per window W).
        self.last_solicit: Optional[float] = None
        #: donor -> (t, channels) of the freshest donation received.
        self.book: Dict[int, Tuple[float, Tuple[int, ...]]] = {}

    # -- mode decision: the paper's linear rule ------------------------------
    def decide(self, t: float, s: int, borrowing: bool) -> Optional[bool]:
        nfc = self.nfc
        nfc.add(t, s)
        predicted = nfc.predict(t, self.horizon)
        if not borrowing and predicted < self.theta_low:
            return True
        if borrowing and predicted >= self.theta_high:
            return False
        return None

    def predict_at(self, t: float) -> Optional[float]:
        return self.nfc.predict(t, self.horizon)

    # -- the donation market -------------------------------------------------
    def solicit_need(self, t: float, s: int, borrowing: bool) -> Optional[int]:
        if not borrowing:
            return None
        if self.last_solicit is not None and t - self.last_solicit < self.window:
            return None
        predicted = self.nfc.predict(t, self.horizon)
        if predicted >= self.theta_low:
            return None
        need = max(1, int(math.ceil(self.theta_high - predicted)))
        self.last_solicit = t
        return need

    def consider_solicit(
        self, t: float, need: int, surplus: int, borrowing: bool
    ) -> int:
        if borrowing:
            return 0  # a starved cell donates nothing
        # Keep θ_h free primaries for ourselves; offer the rest.
        spare = surplus - int(math.ceil(self.theta_high))
        return max(0, min(need, spare))

    def record_donation(
        self, t: float, donor: int, channels: Tuple[int, ...]
    ) -> None:
        self.book[donor] = (t, tuple(channels))

    def preferred_donor(
        self, t: float, eligible: Iterable[int], free: Set[int]
    ) -> Optional[int]:
        best: Optional[int] = None
        best_t = -math.inf
        for j in eligible:
            entry = self.book.get(j)
            if entry is None:
                continue
            when, channels = entry
            if t - when > self.window:
                del self.book[j]  # expired generosity
                continue
            if not free.intersection(channels):
                continue
            if when > best_t:  # freshest donation wins; eligible order breaks ties
                best = j
                best_t = when
        return best

    # -- lifecycle / snapshot ------------------------------------------------
    def reset(self, initial: int) -> None:
        self.nfc = NFCWindow(self.window, initial=initial)
        self.last_solicit = None
        self.book.clear()

    def state_dict(self) -> Dict[str, Any]:
        return {
            "samples": [list(sample) for sample in self.nfc._samples],
            "last_solicit": self.last_solicit,
            "book": {
                donor: [when, list(channels)]
                for donor, (when, channels) in sorted(self.book.items())
            },
        }

    def load_state(self, data: Dict[str, Any]) -> None:
        self.nfc._samples = deque(
            (float(t), int(s)) for t, s in data["samples"]
        )
        self.last_solicit = (
            None if data["last_solicit"] is None else float(data["last_solicit"])
        )
        self.book = {
            int(donor): (float(when), tuple(int(c) for c in channels))
            for donor, (when, channels) in data["book"].items()
        }
