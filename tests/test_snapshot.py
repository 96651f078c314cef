"""Checkpoint/restore: determinism oracles, format, cache, analyzer.

The headline contracts under test (see DESIGN.md §8):

* **Fork-at-t0 row-identity** — a cold (t0) snapshot forked to any
  seed reports row-identically to a cold run of that seed, for every
  scheme and under a hostile fault plan.
* **Exact mid-run continuation** — for schemes that reach global
  quiescence mid-run (fixed, adaptive, advanced_update, prakash at
  these loads), checkpointing at t and resuming is row-identical to
  never having snapshotted; schemes that cannot quiesce fail with an
  honest :class:`SnapshotError` instead of a silently-wrong snapshot.
* **Byte stability** — re-checkpointing a restored simulation yields
  the original snapshot's exact bytes, so the content hash is a true
  identity (and safe to use in result-cache variant keys).
* **Cache hygiene** — warm-forked rows and cold rows for the same
  scenario can never alias (the cache-poisoning regression).

Every simulation here runs with the session-wide sanitizer policy
("raise"): a restore that corrupts protocol state trips an invariant
before any row comparison gets a chance to.
"""

import dataclasses
import json

import pytest

from repro.faults import CrashWindow, FaultPlan, LinkPartition
from repro.harness import ResultCache, Scenario, run_replications, run_scenario
from repro.snap import (
    SNAPSHOT_FORMAT_VERSION,
    Snapshot,
    SnapshotError,
    checkpoint,
    fork_replications,
    load_snapshot,
    restore,
    run_from_snapshot,
    run_to_checkpoint,
    save_snapshot,
)

SCHEMES = [
    "fixed",
    "basic_search",
    "basic_update",
    "advanced_update",
    "adaptive",
    "prakash",
]

#: Schemes whose acquisitions resolve without suspending at these
#: loads, so the drain in run_to_checkpoint finds a globally quiescent
#: instant almost immediately.  basic_search/basic_update run a full
#: message round per acquisition and (at load 5 on 7x7) essentially
#: never quiesce — they are the honest-failure cases instead.
QUIESCENT_SCHEMES = ["fixed", "adaptive", "advanced_update", "prakash"]


def small(scheme="adaptive", **overrides):
    defaults = dict(
        scheme=scheme,
        offered_load=5.0,
        duration=160.0,
        warmup=40.0,
        seed=11,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def hostile_faults():
    return FaultPlan(
        drop_prob=0.05,
        dup_prob=0.03,
        delay_prob=0.05,
        extra_delay=2.0,
        crashes=(
            CrashWindow(cell=10, at=90.0, downtime=30.0),
            CrashWindow(cell=24, at=140.0, downtime=25.0),
        ),
        partitions=(LinkPartition(a=3, b=4, start=80.0, end=130.0),),
    )


def rows(report):
    """Every Report field that must be snapshot-invariant."""
    data = dataclasses.asdict(report)
    data.pop("scenario")
    data.pop("obs")
    data.pop("metrics")
    return data


# -- fork at t0: every scheme ----------------------------------------------


@pytest.mark.parametrize("scheme", SCHEMES)
def test_t0_fork_row_identical_to_cold_run(scheme):
    scenario = small(scheme)
    snap = run_to_checkpoint(scenario, 0.0)
    assert not snap.started and snap.time == 0.0
    fork_seed = scenario.seed + 7
    forked = run_from_snapshot(snap, seed=fork_seed)
    cold = run_scenario(scenario.with_(seed=fork_seed))
    assert rows(forked) == rows(cold)


def test_t0_fork_row_identical_under_hostile_faults():
    scenario = small(
        "adaptive", faults=hostile_faults(), duration=220.0
    )
    snap = run_to_checkpoint(scenario, 0.0)
    forked = run_from_snapshot(snap, seed=scenario.seed + 1)
    cold = run_scenario(scenario.with_(seed=scenario.seed + 1))
    assert rows(forked) == rows(cold)


# -- exact mid-run continuation --------------------------------------------


@pytest.mark.parametrize("scheme", QUIESCENT_SCHEMES)
def test_midrun_resume_row_identical_to_uninterrupted(scheme):
    scenario = small(scheme)
    snap = run_to_checkpoint(scenario, 80.0)
    assert snap.started and snap.time >= 80.0
    resumed = run_from_snapshot(snap)
    straight = run_scenario(scenario)
    assert rows(resumed) == rows(straight)


def test_midrun_resume_inside_crash_window_under_faults():
    # t=100 sits inside cell 10's crash window *and* the 3-4 link
    # partition: the snapshot must carry the down state, the pending
    # recovery timers and the partition cursor.
    scenario = small("adaptive", faults=hostile_faults(), duration=220.0)
    snap = run_to_checkpoint(scenario, 100.0)
    resumed = run_from_snapshot(snap)
    straight = run_scenario(scenario)
    assert rows(resumed) == rows(straight)


def test_midrun_snapshot_refuses_never_quiescent_scheme():
    # Every basic_update acquisition runs an update round, so no
    # globally quiescent instant exists mid-run; the drain must give
    # up honestly instead of capturing a torn state.
    with pytest.raises(SnapshotError, match="no snapshot-safe point"):
        run_to_checkpoint(small("basic_update"), 80.0, drain_window=10.0)


# -- reseeded forking ------------------------------------------------------


def test_fork_same_seed_is_deterministic_and_seeds_differ():
    snap = run_to_checkpoint(small("adaptive"), 80.0)
    a = run_from_snapshot(snap, seed=101)
    b = run_from_snapshot(snap, seed=101)
    c = run_from_snapshot(snap, seed=102)
    assert rows(a) == rows(b)
    assert rows(a) != rows(c)


def test_fork_replications_seed_zero_is_exact_continuation():
    scenario = small("adaptive")
    snap = run_to_checkpoint(scenario, 80.0)
    reports = fork_replications(snap, 2)
    # Seed i=0 forks under the snapshot's own seed: exact continuation,
    # row-identical to the cold run of the base scenario.
    assert rows(reports[0]) == rows(run_scenario(scenario))
    assert rows(reports[0]) != rows(reports[1])


def test_run_replications_warm_start_matches_fork_driver():
    scenario = small("adaptive")
    snap = run_to_checkpoint(scenario, 80.0)
    via_harness = run_replications(
        scenario, 2, cache=False, warmup_checkpoint=snap
    )
    via_fork = fork_replications(snap, 2)
    assert [rows(r) for r in via_harness] == [rows(r) for r in via_fork]


# -- byte stability and format ---------------------------------------------


def test_roundtrip_is_byte_stable_cold_and_warm(tmp_path):
    for at in (0.0, 80.0):
        snap = run_to_checkpoint(small("adaptive"), at)
        path = tmp_path / f"at{at:g}.snap"
        save_snapshot(snap, path)
        loaded = load_snapshot(path)
        assert loaded.to_bytes() == snap.to_bytes()
        assert loaded.content_hash() == snap.content_hash()
        if snap.started:
            again = checkpoint(restore(loaded))
            assert again.to_bytes() == snap.to_bytes()


def test_snapshot_rejects_tampered_bytes():
    snap = run_to_checkpoint(small("fixed"), 0.0)
    blob = snap.to_bytes()
    tampered = blob.replace(b"fixed", b"mixed", 1)
    assert tampered != blob
    with pytest.raises(SnapshotError, match="hash"):
        Snapshot.from_bytes(tampered)


def test_snapshot_rejects_unknown_format_version():
    snap = run_to_checkpoint(small("fixed"), 0.0)
    for version in (SNAPSHOT_FORMAT_VERSION + 1, SNAPSHOT_FORMAT_VERSION - 1):
        bumped = dataclasses.replace(snap, version=version)
        with pytest.raises(SnapshotError, match="version"):
            restore(bumped)


def test_content_hash_distinguishes_scenarios_and_instants():
    h0 = run_to_checkpoint(small("adaptive"), 0.0).content_hash()
    h0b = run_to_checkpoint(small("adaptive"), 0.0).content_hash()
    h0_other = run_to_checkpoint(small("adaptive", seed=12), 0.0).content_hash()
    h80 = run_to_checkpoint(small("adaptive"), 80.0).content_hash()
    assert h0 == h0b
    assert h0 != h0_other
    assert h0 != h80


# -- cache hygiene (the cache-poisoning regression) ------------------------


def test_warm_forked_rows_never_alias_cold_rows(tmp_path):
    cache = ResultCache(tmp_path)
    scenario = small("adaptive")
    fork_seed = scenario.seed + 1
    forked_scenario = scenario.with_(seed=fork_seed)

    cold = run_scenario(forked_scenario)
    cache.put(forked_scenario, cold)

    snap = run_to_checkpoint(scenario, 80.0)
    (warm,) = fork_replications(snap, 1, cache=cache, seeds=[fork_seed])
    # The warm fork simulates a different trajectory (warmup paid under
    # the base seed) — it must have MISSED the cold row, not returned it.
    assert rows(warm) != rows(cold)

    # Both rows now coexist: the plain lookup still returns the cold
    # report, and a second warm fork hits the warm row (no simulation).
    assert rows(cache.get(forked_scenario)) == rows(cold)
    hits_before = cache.hits
    (warm2,) = fork_replications(snap, 1, cache=cache, seeds=[fork_seed])
    assert cache.hits == hits_before + 1
    assert rows(warm2) == rows(warm)


def test_forks_of_different_snapshots_do_not_share_rows(tmp_path):
    cache = ResultCache(tmp_path)
    scenario = small("adaptive")
    snap_a = run_to_checkpoint(scenario, 0.0)
    snap_b = run_to_checkpoint(scenario, 80.0)
    fork_replications(snap_a, 1, cache=cache)
    hits_before = cache.hits
    fork_replications(snap_b, 1, cache=cache)
    assert cache.hits == hits_before  # b never reads a's row


# -- CLI -------------------------------------------------------------------


def test_cli_checkpoint_resume_and_inspect(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "cli.snap"
    args = [
        "--scheme", "adaptive", "--load", "5", "--duration", "160",
        "--warmup", "40", "--seed", "11",
    ]
    assert main(args + ["--checkpoint-at", "80", "--checkpoint-out", str(out)]) == 0
    assert out.exists()
    capsys.readouterr()

    assert main(["--from-checkpoint", str(out), "--json"]) == 0
    resumed = json.loads(capsys.readouterr().out)[0]
    straight = run_scenario(small("adaptive"))
    assert resumed["offered"] == straight.offered
    assert resumed["drop_rate"] == straight.drop_rate
    assert resumed["messages_total"] == straight.messages_total

    assert main(["snapshot", "inspect", str(out), "--json"]) == 0
    info = json.loads(capsys.readouterr().out)[0]
    assert info["scheme"] == "adaptive"
    assert info["started"] is True
    assert info["version"] == SNAPSHOT_FORMAT_VERSION
    assert info["rng_streams"] > 0
    assert info["queue_entries"] == sum(info["queue_kinds"].values())
