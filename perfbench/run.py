"""The repository's benchmark: time the simulator on its production path.

Usage, from the root of a checkout (see perfbench/README.md)::

    python3 perfbench/run.py --workload adaptive_contended --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

For each workload it starts one fresh process per timed run
(``child.py``) until ``--seconds`` have passed (at least three runs),
then checks the command-line interface against the same scenario.
With ``--trace 1`` it first makes two traced runs that record the
per-layer ledger.  Every run of one invocation uses the same seed, so
every modelled outcome must repeat exactly.

It prints one block per workload for people, then, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Without the
program's sources (``src/repro``) it exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

#: A median needs a few samples even when ``--seconds`` is tiny.
MIN_TIMED_RUNS = 3
#: Two traced runs, so their counts can be checked to repeat exactly.
TRACED_RUNS = 2
#: A run that takes longer than this has hung; it counts as failed.
RUN_TIMEOUT_S = 120
#: Scratch files (CLI scenario files, ledgers), relative to the checkout.
OUT_DIR = ".perfbench-out"


class RunFailed(Exception):
    """One run broke a check; the message says which."""


def spawn(root: str, workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    """One run of ``child.py`` in a fresh process; its checked result."""
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed),
    ]
    if trace:
        cmd.append("--trace")
    spawned = time.monotonic()
    cmd += ["--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(
            cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"timed out after {RUN_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RunFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-800:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RunFailed(f"no result line in {proc.stdout[-800:]!r}") from None
    if result["violations"] != 0:
        raise RunFailed(f"{result['violations']} interference violations")
    if result["granted"] + result["dropped"] != result["offered"]:
        raise RunFailed(
            f"granted {result['granted']} + dropped {result['dropped']} "
            f"!= offered {result['offered']}"
        )
    return result


def cli_outcome(root: str, workload: str, seed: int) -> Dict[str, Any]:
    """What ``python -m repro --config ... --json`` reports for the
    workload's scenario.  ``--scheme`` is passed explicitly because
    ``--config`` replaces the file's scheme with the flag's default."""
    from workloads import scenario

    spec = scenario(workload, seed)
    path = os.path.join(root, OUT_DIR, f"{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        fh.write(spec.to_json())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, "-m", "repro", "--config", path,
        "--scheme", spec.scheme, "--json", "--no-cache",
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"CLI timed out after {RUN_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RunFailed(f"CLI exit {proc.returncode}: {proc.stderr.strip()[-800:]}")
    try:
        (row,) = json.loads(proc.stdout)
    except ValueError:
        raise RunFailed(f"CLI printed no single JSON row: {proc.stdout[-800:]!r}") from None
    return row


class WorkloadResult:
    """Every run of one workload in this invocation, and its checks."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.timed: List[Dict[str, Any]] = []
        self.traced: List[Dict[str, Any]] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.reference: Optional[Dict[str, Any]] = None

    def fail(self, what: str, why: str) -> None:
        self.failures.append(f"{what}: {why}")
        print(f"[perfbench] {self.name} {what} FAILED: {why}", file=sys.stderr)

    def check_repeats(self, result: Dict[str, Any]) -> None:
        """Every run of one seed must model exactly the same outcome."""
        if self.reference is None:
            self.reference = result["fingerprint"]
        elif result["fingerprint"] != self.reference:
            raise RunFailed("modelled outcome differs from an earlier run")


def bench_workload(
    root: str, name: str, seed: int, seconds: float, trace: bool
) -> WorkloadResult:
    res = WorkloadResult(name)
    start = time.monotonic()
    for i in range(TRACED_RUNS if trace else 0):
        res.attempted += 1
        try:
            run = spawn(root, name, seed, trace=True)
            res.check_repeats(run)
            if res.traced and counts(run) != counts(res.traced[0]):
                raise RunFailed("ledger counts differ between traced runs")
        except RunFailed as exc:
            res.fail(f"traced run {i + 1}", str(exc))
            continue
        res.traced.append(run)
    attempts = 0
    while attempts < MIN_TIMED_RUNS or time.monotonic() - start < seconds:
        attempts += 1
        res.attempted += 1
        try:
            run = spawn(root, name, seed, trace=False)
            res.check_repeats(run)
        except RunFailed as exc:
            res.fail(f"timed run {attempts}", str(exc))
            continue
        res.timed.append(run)
    res.attempted += 1
    try:
        row = cli_outcome(root, name, seed)
        if res.reference is not None and row != res.reference["cli"]:
            raise RunFailed(
                f"CLI reports {json.dumps(row, sort_keys=True)}, the runner "
                f"{json.dumps(res.reference['cli'], sort_keys=True)}"
            )
    except RunFailed as exc:
        res.fail("CLI equivalence", str(exc))
    return res


def counts(run: Dict[str, Any]) -> Dict[str, Any]:
    """The exact part of a traced run's ledger: every call count."""
    return {name: b["calls"] for name, b in run["ledger"].items()}


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  q1 {q1:.6g}  q3 {q3:.6g}"


def end_to_end(res: WorkloadResult) -> Dict[str, List[float]]:
    """Samples of every end-to-end metric (one per timed run)."""
    runs = res.timed
    return {
        "setup_s": [r["setup_s"] for r in runs],
        "calls_per_s": [r["offered"] / r["run_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }


def per_layer(res: WorkloadResult) -> Dict[str, float]:
    """Per-layer metrics: counts from the first traced run (the second
    repeats them exactly), times as the median of the traced runs."""
    out: Dict[str, float] = {}
    for key, first in res.traced[0]["layers"].items():
        if isinstance(first, int):
            out[key] = first
        else:
            out[key] = statistics.median(r["layers"][key] for r in res.traced)
    out["harness.import_s"] = statistics.median(r["import_s"] for r in res.timed)
    out["harness.build_s"] = statistics.median(r["build_s"] for r in res.timed)
    out["trace.overhead"] = statistics.median(
        r["run_s"] for r in res.traced
    ) / statistics.median(r["run_s"] for r in res.timed)
    return out


def report(
    res: WorkloadResult, seed: int, spec: Dict[str, Any], trace: bool
) -> Dict[str, Dict[str, Any]]:
    """Print the workload's block; return its metrics for the JSON line."""
    failed = len(res.failures)
    print(
        f"== {res.name} (seed {seed}): {len(res.timed)} timed runs, "
        f"{len(res.traced)} traced runs, 1 CLI check; "
        f"failed {failed}/{res.attempted}"
    )
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        values = per_layer(res)
        notes = {m["name"]: "" for m in wanted}
    else:
        samples = end_to_end(res)
        values = {k: statistics.median(v) for k, v in samples.items()}
        notes = {
            k: f"  (median of {len(v)}{quartiles(v)})" for k, v in samples.items()
        }
    for m in wanted:
        name = m["name"]
        print(f"  {name:<32} {m['unit']:<9} {values[name]:.6g}{notes[name]}")
    if res.reference is not None:
        cli = res.reference["cli"]
        print(
            f"  modelled: offered {cli['offered']}  drop_rate "
            f"{cli['drop_rate']:.6g}  acq_p95_T {cli['p95_acquisition_time']:.6g}"
            f"  msgs/acq {cli['messages_per_acquisition']:.6g}"
            f"  violations {cli['violations']}  retries {cli['retries']}"
        )
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print(
            "perfbench: no src/repro in the current directory; run from "
            "the root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # Byte-compile once up front so no timed run pays for it.
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: Dict[str, Dict[str, Any]] = {}
    for name in names:
        res = bench_workload(root, name, args.seed, args.seconds, bool(args.trace))
        attempted += res.attempted
        failed += len(res.failures)
        if not res.timed or (args.trace and not res.traced):
            print(f"perfbench: {name}: no successful run", file=sys.stderr)
            return 1
        values = report(res, args.seed, spec, bool(args.trace))
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in values.items()})
        if args.trace:
            path = os.path.join(out_dir, f"{name}-seed{args.seed}-ledger.json")
            with open(path, "w") as fh:
                json.dump(
                    {"layers": per_layer(res),
                     "ledgers": [r["ledger"] for r in res.traced]},
                    fh, indent=2, sort_keys=True,
                )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
