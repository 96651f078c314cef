"""CLI entry point: ``python -m tools.analyze [paths...]``.

Runs all four passes (message-flow, cell-locality, snapshot-escape,
determinism lint) over the given paths (default ``src/repro``),
compares the merged findings against the committed baseline, and exits
1 when any finding is not baselined.  ``--format json`` emits the
shared finding schema (code, path, line, col, message, rule-doc URL)
also used by ``python -m tools.check --format json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional, Sequence

from tools.check.engine import Finding, check_paths, iter_python_files

from .baseline import DEFAULT_BASELINE, load_baseline, partition, write_baseline
from .determinism import DETERMINISM_RULES
from .flow import render_dot, run_flow_pass
from .model import build_model
from .locality import run_locality_pass
from .snapshot import run_snapshot_pass

_PASSES = (
    ("flow", "message-flow conformance (ANA101-ANA104)"),
    ("locality", "cell-locality analysis (ANA201)"),
    ("snapshot", "snapshot-escape analysis (ANA301-ANA303)"),
    ("determinism", "determinism lint family (SIM006-SIM009)"),
)


def _repo_root() -> pathlib.Path:
    return pathlib.Path(__file__).resolve().parent.parent.parent


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools.analyze",
        description="Whole-program protocol conformance analyzer.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file of accepted findings (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report every finding as new",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate the baseline from the current findings and exit 0",
    )
    parser.add_argument(
        "--dot",
        metavar="FILE",
        default=None,
        help="write the message-flow graph (GraphViz DOT) to FILE",
    )
    parser.add_argument(
        "--snapshot-report",
        metavar="FILE",
        default=None,
        help="write the machine-readable snapshot-safety report to FILE",
    )
    parser.add_argument(
        "--list-passes",
        action="store_true",
        help="print the pass registry and exit",
    )
    args = parser.parse_args(argv)

    if args.list_passes:
        for name, description in _PASSES:
            print(f"{name:13s} {description}")
        for rule in DETERMINISM_RULES:
            print(f"{rule.code:13s} {rule.description}")
        return 0

    missing = [p for p in args.paths if not pathlib.Path(p).exists()]
    if missing:
        for p in missing:
            print(f"error: no such file or directory: {p}", file=sys.stderr)
        return 2

    files = list(iter_python_files(args.paths))
    model = build_model(files)
    findings: List[Finding] = []
    findings.extend(run_flow_pass(model))
    findings.extend(run_locality_pass(files))
    snapshot_findings, snapshot_report = run_snapshot_pass(files)
    findings.extend(snapshot_findings)
    findings.extend(check_paths(args.paths, rules=DETERMINISM_RULES))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))

    if args.dot:
        pathlib.Path(args.dot).write_text(render_dot(model))
    if args.snapshot_report:
        pathlib.Path(args.snapshot_report).write_text(
            json.dumps(snapshot_report, indent=2) + "\n"
        )

    baseline_path = args.baseline or str(_repo_root() / DEFAULT_BASELINE)
    if args.write_baseline:
        write_baseline(findings, baseline_path)
        print(
            f"wrote {len(findings)} accepted finding(s) to {baseline_path}",
            file=sys.stderr,
        )
        return 0

    baseline = set() if args.no_baseline else load_baseline(baseline_path)
    new, accepted, stale = partition(findings, baseline)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "new": [f.to_dict() for f in new],
                    "accepted": [f.to_dict() for f in accepted],
                    "stale_baseline": [
                        {"code": c, "path": p, "message": m} for c, p, m in stale
                    ],
                    "snapshot_verdict": snapshot_report["verdict"],
                },
                indent=2,
            )
        )
    else:
        for finding in new:
            print(finding)
    if accepted:
        print(f"{len(accepted)} baselined finding(s)", file=sys.stderr)
    for code, path, message in stale:
        print(
            f"warning: stale baseline entry (no longer fires): "
            f"{code} {path}: {message}",
            file=sys.stderr,
        )
    if new:
        print(
            f"{len(new)} new finding(s) not in the baseline "
            f"({baseline_path})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
