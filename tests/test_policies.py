"""Mode-policy registry: round trips, cache hygiene, snapshots, regret.

The contracts under test (docs/POLICIES.md):

* **Registry round trip** — every registered policy reconstructs from
  its own ``to_config()`` output after a JSON round trip, and its
  mutable state survives ``state_dict``/``load_state`` the same way.
* **Cache hygiene** — ``policy`` and ``policy_params`` participate in
  the result-cache key, so two scenarios differing only in policy can
  never alias a cached row.
* **Snapshot round trip** — a mid-run checkpoint taken under any
  policy resumes row-identically to never having snapshotted (the
  format-v2 opaque policy state actually carries the policy's memory).
* **Oracle regret** — the trace-replay oracle's regret is exactly 0
  by construction, and every other policy's *mean* regret over seeds
  is non-negative on this test's reference workload.  That is an
  observed property of the workload, not a bound: the oracle is a
  reference, and other workloads record negative regret.
"""

import dataclasses
import json

import pytest

from repro.harness import Scenario, run_scenario, tune_policy
from repro.harness.cache import cache_key
from repro.policies import (
    compare_policies,
    make_policy,
    policy_names,
    policy_spec,
    record_trace,
)
from repro.snap import run_from_snapshot, run_to_checkpoint

#: Station-derived context every policy receives (paper defaults).
CONTEXT = dict(
    cell=7,
    theta_low=1.0,
    theta_high=3.0,
    window=30.0,
    horizon=2.0,
    initial=10,
)


def small(**overrides):
    defaults = dict(
        scheme="adaptive",
        offered_load=5.0,
        duration=160.0,
        warmup=40.0,
        seed=11,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def rows(report):
    """Every Report field that must be policy/snapshot-invariant."""
    data = dataclasses.asdict(report)
    data.pop("scenario")
    data.pop("obs")
    data.pop("metrics")
    return data


# -- registry ---------------------------------------------------------------


def test_registry_ships_the_five_documented_policies():
    assert policy_names() == [
        "ewma",
        "harvest",
        "linear",
        "oracle",
        "quantile",
    ]


def test_unknown_policy_is_a_value_error():
    with pytest.raises(ValueError, match="unknown policy"):
        policy_spec("nope")
    with pytest.raises(ValueError, match="unknown policy"):
        make_policy("nope", **CONTEXT)


def test_bad_params_name_the_policy():
    with pytest.raises(ValueError, match="ewma"):
        make_policy("ewma", {"bogus": 1}, **CONTEXT)


@pytest.mark.parametrize("name", policy_names())
def test_config_round_trip(name):
    """to_config() -> JSON -> make_policy reconstructs the policy."""
    policy = make_policy(name, **CONTEXT)
    config = json.loads(json.dumps(policy.to_config()))
    rebuilt = make_policy(config["name"], config["params"], **CONTEXT)
    assert type(rebuilt) is type(policy)
    assert rebuilt.to_config() == policy.to_config()


@pytest.mark.parametrize("name", policy_names())
def test_state_dict_round_trip(name):
    """Mutable state survives state_dict -> JSON -> load_state."""
    policy = make_policy(name, **CONTEXT)
    borrowing = False
    for t, s in [(0.0, 10), (4.0, 6), (9.0, 2), (15.0, 0), (22.0, 5)]:
        answer = policy.decide(t, s, borrowing)
        if answer is not None:
            borrowing = answer
    state = json.loads(json.dumps(policy.state_dict()))
    rebuilt = make_policy(name, **CONTEXT)
    rebuilt.load_state(state)
    assert rebuilt.state_dict() == policy.state_dict()
    # The restored policy predicts and decides exactly like the
    # original from here on.
    assert rebuilt.predict_at(30.0) == policy.predict_at(30.0)
    assert rebuilt.decide(30.0, 4, borrowing) == policy.decide(
        30.0, 4, borrowing
    )


# -- cache hygiene ----------------------------------------------------------


def test_cache_key_separates_policies_and_params():
    base = small()
    keys = {
        cache_key(base),
        cache_key(base.with_(policy="ewma")),
        cache_key(base.with_(policy="ewma", policy_params={"beta": 0.5})),
        cache_key(base.with_(policy="quantile")),
    }
    assert len(keys) == 4


def test_scenario_json_round_trips_policy_fields():
    scenario = small(policy="ewma", policy_params={"beta": 0.4})
    restored = Scenario.from_json(scenario.to_json())
    assert restored.policy == "ewma"
    assert restored.policy_params == {"beta": 0.4}
    assert cache_key(restored) == cache_key(scenario)


# -- default behavior -------------------------------------------------------


def test_default_policy_is_linear_and_row_identical():
    """An explicit policy="linear" is the default, bit for bit."""
    default = run_scenario(small())
    explicit = run_scenario(small(policy="linear", policy_params={}))
    assert rows(default) == rows(explicit)
    # Outside a policy comparison the regret column stays unfilled.
    assert default.regret_vs_oracle is None


# -- snapshot round trip ----------------------------------------------------


@pytest.mark.parametrize("name", ["linear", "ewma", "quantile", "harvest"])
def test_midrun_checkpoint_resumes_row_identically(name):
    scenario = small(policy=name)
    cold = rows(run_scenario(scenario))
    snapshot = run_to_checkpoint(scenario, at=80.0)
    resumed = rows(run_from_snapshot(snapshot))
    assert resumed == cold


def test_midrun_checkpoint_resumes_the_oracle():
    """The oracle's trace (config) and lookup state ride the snapshot."""
    trace = record_trace(small())
    scenario = small(policy="oracle", policy_params={"trace": trace})
    cold = rows(run_scenario(scenario))
    snapshot = run_to_checkpoint(scenario, at=80.0)
    assert rows(run_from_snapshot(snapshot)) == cold


# -- regret vs the trace-replay oracle -------------------------------------


def test_oracle_regret_is_zero_and_mean_regret_nonnegative():
    """Oracle regret on the reference workload.

    Per-report regret is drop_rate - oracle drop_rate on the same
    (scenario, seed); the oracle's is exactly 0.0 by construction.
    On this workload the mean regret per policy over the seeds is
    non-negative (observed, not guaranteed elsewhere).
    """
    base = Scenario(
        scheme="adaptive",
        offered_load=10.0,
        duration=400.0,
        warmup=100.0,
    )
    comparison = compare_policies(base, seeds=[1, 2], workers=0)
    assert "oracle" in comparison.policies
    for seed in (1, 2):
        oracle_report = comparison.reports[("oracle", seed)]
        assert oracle_report.regret_vs_oracle == 0.0
    for name in comparison.policies:
        for seed in (1, 2):
            assert comparison.reports[(name, seed)].regret_vs_oracle is not None
        if name != "oracle":
            assert comparison.regret(name) >= 0.0


# -- tuning -----------------------------------------------------------------


def test_tune_policy_grid_and_best_scenario():
    base = small()
    result = tune_policy(
        base,
        theta_lows=(0.5, 1.0),
        seeds=(11,),
        workers=0,
    )
    assert len(result.rows) == 2
    best = result.best
    assert best["setting"]["theta_low"] in (0.5, 1.0)
    assert best["score"] == min(row["score"] for row in result.rows)
    tuned = result.best_scenario(base)
    assert tuned.theta_low == best["setting"]["theta_low"]


def test_tune_policy_param_grid_lands_in_policy_params():
    base = small(policy="ewma")
    result = tune_policy(
        base,
        param_grid={"beta": [0.2, 0.6]},
        seeds=(11,),
        workers=0,
    )
    tuned = result.best_scenario(base)
    assert tuned.policy_params["beta"] in (0.2, 0.6)


def test_tune_policy_rejects_non_adaptive_schemes():
    with pytest.raises(ValueError, match="adaptive"):
        tune_policy(small(scheme="fixed"))
