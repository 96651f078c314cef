"""The :class:`ModePolicy` interface and the policy registry.

A mode policy is the pluggable decision rule behind the adaptive
scheme's ``check_mode`` (Fig. 6): given the stream of free-primary
samples it decides when a cell should enter or leave borrowing mode.
The paper's linear predictor is the default ``linear`` entry; every
other registered policy is a drop-in alternative selected per scenario
(``Scenario.policy`` / ``--policy``) with JSON-serializable parameters
(``Scenario.policy_params``), so a policy choice is part of the cache
key and of snapshot identity like any other scenario field.

Design constraints (why the interface looks the way it does):

* **Per-cell state only.**  A policy instance belongs to exactly one
  station and holds no shared state — that keeps checkpoint/restore
  sound (this package is in the cell-locality and snapshot-escape
  analyzer scopes, see ``tools/analyze``).
* **Deterministic.**  No randomness, no wall clock; every input
  arrives through ``decide``/the hook arguments.
* **Snapshot round-trippable.**  ``state_dict``/``load_state`` move
  the complete mutable state through plain JSON-safe data; the
  snapshot codec (``repro.snap.state``) calls them per station.
* **No protocol knowledge.**  Policies see sample streams and answer
  questions; the station owns modes, messages and safety.  The
  harvest hooks (``solicit_need`` …) are advisory — acquisitions
  always run the full permission protocol regardless of what a policy
  suggests.
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, Iterable, List, Optional, Set, Tuple, Type

__all__ = ["ModePolicy", "register_policy", "policy_spec", "make_policy", "policy_names"]

#: name -> policy class; populated by :func:`register_policy` at import
#: time and never mutated afterwards (read-only from simulation code).
_REGISTRY: Dict[str, Type["ModePolicy"]] = {}


def register_policy(cls: Type["ModePolicy"]) -> Type["ModePolicy"]:
    """Class decorator: add ``cls`` to the registry under ``cls.name``."""
    name = getattr(cls, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError(f"{cls.__name__} must define a string `name`")
    if name in _REGISTRY:
        raise ValueError(f"duplicate policy name {name!r}")
    _REGISTRY[name] = cls
    return cls


def policy_names() -> List[str]:
    """Registered policy names, sorted."""
    return sorted(_REGISTRY)


def policy_spec(name: str) -> Type["ModePolicy"]:
    """The policy class registered under ``name`` (ValueError if none)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; available: {policy_names()}"
        ) from None


def make_policy(
    name: str,
    params: Optional[Dict[str, Any]] = None,
    *,
    cell: int,
    theta_low: float,
    theta_high: float,
    window: float,
    horizon: float,
    initial: int,
) -> "ModePolicy":
    """Instantiate the registered policy ``name`` for one station.

    ``params`` are the policy-specific keyword arguments from
    ``Scenario.policy_params`` (e.g. the oracle's ``trace`` or the
    EWMA's ``beta``); the remaining arguments are the station-derived
    context every policy receives.  Unknown parameters raise
    ``ValueError`` naming the policy.
    """
    cls = policy_spec(name)
    try:
        return cls(
            cell=cell,
            theta_low=theta_low,
            theta_high=theta_high,
            window=window,
            horizon=horizon,
            initial=initial,
            **(params or {}),
        )
    except TypeError as exc:
        raise ValueError(f"bad parameters for policy {name!r}: {exc}") from None


class ModePolicy:
    """Base class for mode-switching decision rules.

    Subclasses implement :meth:`decide` (and usually
    :meth:`predict_at`, :meth:`state_dict`, :meth:`load_state`); the
    harvest hooks have no-op defaults so only donation-aware policies
    pay for them.
    """

    #: Registry key; also the ``Scenario.policy`` value.
    name: ClassVar[str] = ""

    def __init__(
        self,
        *,
        cell: int,
        theta_low: float,
        theta_high: float,
        window: float,
        horizon: float,
        initial: int,
    ) -> None:
        self.cell = cell
        self.theta_low = theta_low
        self.theta_high = theta_high
        self.window = window
        self.horizon = horizon
        self.initial = initial
        #: Policy-specific parameters for :meth:`to_config` round-trips;
        #: subclasses that take extra kwargs record them here.
        self.params: Dict[str, Any] = {}

    # -- the decision rule ---------------------------------------------------
    def decide(self, t: float, s: int, borrowing: bool) -> Optional[bool]:
        """Record the sample (t, s) and answer the Fig. 6 question.

        Returns ``True`` to request borrowing mode, ``False`` to
        request local mode, ``None`` for no change.  The station only
        honors the answer in a durable mode (LOCAL / BORROW_IDLE);
        the policy is still called — and must keep recording — while a
        request round is in flight (modes 2/3).
        """
        raise NotImplementedError

    def predict_at(self, t: float) -> Optional[float]:
        """Read-only prediction at time ``t`` (the obs sampler's
        ``nfc_predicted`` column); must not mutate policy state.
        ``None`` when the policy has no meaningful prediction."""
        return None

    # -- lifecycle -----------------------------------------------------------
    def reset(self, initial: int) -> None:
        """Forget all history (crash with state loss): behave as if
        freshly constructed with ``initial`` free primaries."""
        raise NotImplementedError

    # -- snapshot round trip -------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Complete mutable state as JSON-safe plain data."""
        raise NotImplementedError

    def load_state(self, data: Dict[str, Any]) -> None:
        """Inverse of :meth:`state_dict` (accepts its JSON round trip)."""
        raise NotImplementedError

    def to_config(self) -> Dict[str, Any]:
        """The ``(name, params)`` pair that reconstructs this policy."""
        return {"name": self.name, "params": dict(self.params)}

    # -- harvest/trade hooks (no-ops outside the harvest policy) -------------
    def solicit_need(self, t: float, s: int, borrowing: bool) -> Optional[int]:
        """How many channels to solicit from neighbors right now
        (``None``/0 = don't).  Called after every decide."""
        return None

    def consider_solicit(
        self, t: float, need: int, surplus: int, borrowing: bool
    ) -> int:
        """How many of our ``surplus`` free primaries to offer a
        soliciting neighbor asking for ``need`` (0 = decline)."""
        return 0

    def record_donation(
        self, t: float, donor: int, channels: Tuple[int, ...]
    ) -> None:
        """A neighbor offered ``channels`` for borrowing."""

    def preferred_donor(
        self, t: float, eligible: Iterable[int], free: Set[int]
    ) -> Optional[int]:
        """A borrow target to prefer over the Fig. 10 heuristic, or
        ``None``.  Must return a member of ``eligible``; the suggestion
        is advisory — the full permission round still decides."""
        return None
