"""Pass 2 — cell-locality analysis (ANA201, ANA204).

Each cell's MSS may learn about another cell only through messages
(``Network.send``) and observers only through the probe bus; that is
the distributed-protocol model the paper's theorems assume.  A read or
write of another cell's object bypasses the message latency the
protocol's correctness argument relies on.  This pass flags the
cross-cell shortcuts statically:

* **ANA201** — protocol/kernel code dereferencing another node's
  object: attribute access on a ``.node(...)`` / ``.nodes[...]`` call
  result or any use of the fabric's ``._nodes`` registry outside the
  fabric itself.  The network (``sim/network.py``) is the fabric, and
  the interference monitor plus protocol tracing are allowlisted
  observers (global oracles, not protocol participants).
* **ANA204** — fluid-state access from a protocol message handler:
  ``self.fastlane`` touched inside an ``_on_*`` / ``_handle_*``
  method.  By the time a handler runs, ``MSS.on_message`` has already
  materialized the cell (the lane's one sanctioned dispatch hook);
  a handler reaching into the lane again either re-promotes a cell
  mid-settlement or reads fluid occupancy that the handler's own
  delivery just invalidated.  Protocol code interacts with the lane
  only via the ``fastlane_eligible`` / ``fastlane_reconcile`` hooks
  and the ``on_message`` / ``_enter_borrowing`` notify sites.

Mutable class attributes and module globals in these directories are
the snapshot pass's ANA303 / ANA302 (``tools/analyze/snapshot.py``).
"""

from __future__ import annotations

import ast
from pathlib import Path, PurePath
from typing import List

from tools.check.engine import Finding

__all__ = ["run_locality_pass", "LOCALITY_SCOPE", "LOCALITY_ALLOWLIST"]

#: Code that runs on behalf of one cell: protocols, core, kernel.
LOCALITY_SCOPE = (
    "src/repro/protocols",
    "src/repro/core",
    "src/repro/policies",
    "src/repro/sim",
)

#: Files allowed to touch other nodes' state: the fabric itself plus
#: sanctioned observation-only readers.
LOCALITY_ALLOWLIST = (
    "src/repro/sim/network.py",  # the fabric owns the node registry
    "src/repro/protocols/monitor.py",  # global safety oracle (observer)
    "src/repro/protocols/tracing.py",  # trace decoration (observer)
)


def _peer_access_findings(path: str, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    covered: set = set()  # inner ``._nodes`` nodes already reported
    for node in ast.walk(tree):
        # another_node = <x>.node(j)... then .attr — flag the direct
        # dereference form <x>.node(j).attr / <x>.nodes[j].attr.
        if isinstance(node, ast.Attribute):
            value = node.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "node"
            ):
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        node.col_offset,
                        "ANA201",
                        f"cross-cell state access: .node(...).{node.attr} "
                        "dereferences another cell's object, bypassing "
                        "message latency; communicate via Network.send "
                        "or the probe bus",
                    )
                )
            elif (
                isinstance(value, ast.Subscript)
                and isinstance(value.value, ast.Attribute)
                and value.value.attr in ("_nodes", "nodes")
            ):
                covered.add(id(value.value))  # one finding per dereference
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        node.col_offset,
                        "ANA201",
                        f"cross-cell state access: nodes[...].{node.attr} "
                        "reaches into the fabric's registry, bypassing "
                        "message latency",
                    )
                )
            elif node.attr == "_nodes" and id(node) not in covered:
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        node.col_offset,
                        "ANA201",
                        "use of the fabric's private node registry "
                        "(._nodes) outside sim/network.py — cells must "
                        "not reach each other directly",
                    )
                )
    return findings


def _fluid_access_findings(path: str, tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    if "src/repro/sim" in path:
        return findings  # the kernel has no protocol handlers
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for func in cls.body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not func.name.startswith(("_on_", "_handle_")):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "fastlane"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    findings.append(
                        Finding(
                            path,
                            node.lineno,
                            node.col_offset,
                            "ANA204",
                            f"fluid-state access: {cls.name}.{func.name} "
                            "touches self.fastlane inside a message "
                            "handler — on_message already materialized "
                            "this cell before dispatch; interact with "
                            "the lane only via the fastlane_eligible/"
                            "fastlane_reconcile hooks",
                        )
                    )
    return findings


def run_locality_pass(files: List[str]) -> List[Finding]:
    """Cell-locality findings for ``files``."""
    findings: List[Finding] = []
    for path in files:
        posix = PurePath(path).as_posix()
        if any(fragment in posix for fragment in LOCALITY_ALLOWLIST):
            continue
        if not any(fragment in posix for fragment in LOCALITY_SCOPE):
            continue
        try:
            tree = ast.parse(Path(path).read_text(), filename=path)
        except SyntaxError:
            continue  # the line lint reports SIM000 for this file
        findings.extend(_peer_access_findings(posix, tree))
        findings.extend(_fluid_access_findings(posix, tree))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
