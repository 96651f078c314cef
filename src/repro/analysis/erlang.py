"""Erlang-B blocking theory — analytical cross-check for FCA.

Under fixed channel allocation each cell is an independent M/M/c/c
queue (c = primaries per cell), so its call-blocking probability is the
Erlang-B formula.  The simulation's FCA drop rate must match this
closely — a strong end-to-end validation of the traffic generator, the
call lifecycle and the metrics pipeline (used by the test suite and as
the analytical reference line in the load-sweep benchmark).
"""

from __future__ import annotations


__all__ = ["erlang_b", "erlang_b_inverse_load", "offered_load_for_blocking"]


def erlang_b(offered_load: float, servers: int) -> float:
    """Blocking probability of an M/M/c/c queue.

    Parameters
    ----------
    offered_load:
        Offered traffic A in Erlangs (λ/μ).
    servers:
        Number of channels c.

    Uses the standard numerically stable recurrence
    ``B(0) = 1;  B(k) = A·B(k-1) / (k + A·B(k-1))``.
    """
    if servers < 0:
        raise ValueError("servers must be >= 0")
    if offered_load < 0:
        raise ValueError("offered_load must be >= 0")
    if offered_load == 0:
        return 0.0
    b = 1.0
    for k in range(1, servers + 1):
        b = offered_load * b / (k + offered_load * b)
    return b


def offered_load_for_blocking(
    target_blocking: float, servers: int, tol: float = 1e-9
) -> float:
    """Inverse Erlang-B: the offered load that yields a target blocking.

    Solved by bisection (Erlang-B is strictly increasing in A).
    """
    if not (0 < target_blocking < 1):
        raise ValueError("target_blocking must be in (0, 1)")
    lo, hi = 0.0, float(max(servers, 1))
    while erlang_b(hi, servers) < target_blocking:
        hi *= 2
        if hi > 1e9:  # pragma: no cover - defensive
            raise RuntimeError("bisection bracket failed")
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if erlang_b(mid, servers) < target_blocking:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Backwards-compatible alias used in some notebooks/scripts.
erlang_b_inverse_load = offered_load_for_blocking
