"""Pluggable mode policies for the adaptive scheme.

The decision rule behind ``check_mode`` (Fig. 6) — *when should a cell
enter or leave borrowing mode?* — is a :class:`ModePolicy` selected
per scenario (``Scenario.policy``, CLI ``--policy``).  The registry
ships five entries:

* ``linear`` — the paper's NFC linear extrapolation (the default;
  bit-identical to the pre-registry simulator);
* ``ewma`` — exponentially weighted level + trend extrapolation;
* ``quantile`` — rank statistic over the sample window;
* ``oracle`` — replay of a recorded load trace (the trace-replay
  reference regret is measured against, see
  :mod:`repro.policies.compare`);
* ``harvest`` — linear predictor plus a SOLICIT/DONATE donation
  market steering borrow-target selection.

A new controller is a one-file drop-in: subclass :class:`ModePolicy`,
decorate with :func:`register_policy`, and every harness entry point
(sweeps, cache, snapshots, CLI, bench) picks it up by name.

See docs/POLICIES.md for the handbook: rule semantics, tuning
workflow, oracle-trace recording and the regret metric.
"""

# Import order matters: `base` must be fully loaded before the policy
# modules, because importing any of them pulls in repro.core, whose
# adaptive scheme imports `make_policy` back out of `base`.
from .base import (
    ModePolicy,
    make_policy,
    policy_names,
    policy_spec,
    register_policy,
)
from .linear import LinearPolicy
from .ewma import EwmaPolicy
from .quantile import QuantilePolicy
from .oracle import OraclePolicy
from .harvest import HarvestPolicy
from .compare import PolicyComparison, compare_policies, record_trace

__all__ = [
    "ModePolicy",
    "register_policy",
    "make_policy",
    "policy_spec",
    "policy_names",
    "LinearPolicy",
    "EwmaPolicy",
    "QuantilePolicy",
    "OraclePolicy",
    "HarvestPolicy",
    "record_trace",
    "compare_policies",
    "PolicyComparison",
]
