"""Documentation cross-reference checker.

Three passes over the repo's markdown (root ``*.md`` plus
``docs/**/*.md``, minus the driver-metadata files):

1. **Relative links** — every ``[text](target)`` that is not external
   (``http(s)://``, ``mailto:``), not an in-page anchor (``#...``) and
   not absolute must resolve to an existing file or directory,
   relative to the file that contains it.
2. **Code-path references** — every backticked repo path
   (``src/...``, ``tools/...``, ``docs/...``, ``tests/...``,
   ``benchmarks/...``, ``examples/...``) must exist, so prose never
   points at moved or deleted code.  Paths carrying glob/placeholder
   characters are ignored; known CI-generated artifacts are allowed
   to be absent from a fresh checkout.
3. **Rule-catalog correspondence** — the rule IDs documented as
   ``### <ID>`` headings in docs/CHECKS.md must match the IDs
   implemented under ``tools/check``/``tools/analyze``, both ways
   (modulo the internal sentinel ``SIM000``, which is deliberately
   undocumented).

Run as ``python -m tools.docscheck`` (exit 1 on any problem); CI runs
it in the docs job.  ``tests/test_docscheck.py`` covers the failure
modes on a synthetic tree and pins the real repo clean.
"""

from __future__ import annotations

import pathlib
import re
from typing import List

__all__ = [
    "EXCLUDED",
    "INTERNAL_RULE_IDS",
    "check_code_paths",
    "check_links",
    "check_rule_catalog",
    "markdown_files",
    "run_all",
]

#: Root-level driver/metadata files whose links are not ours to keep.
EXCLUDED = frozenset(
    {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md", "CHANGES.md"}
)

#: Rule IDs that exist in the checker source but are deliberately not
#: part of the documented catalog (internal sentinels).
INTERNAL_RULE_IDS = frozenset({"SIM000"})

#: ``[text](target)`` and ``![alt](target)``, target up to the first
#: whitespace (drops optional markdown link titles).
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Backticked repo path: a known top-level dir, then plain path chars.
_PATH_RE = re.compile(
    r"`((?:src|tools|docs|tests|benchmarks|examples)/[A-Za-z0-9_.\-/]+)`"
)

#: ``### SIM001 — title`` headings in the CHECKS.md rule catalog.
_RULE_HEADING_RE = re.compile(r"^###\s+((?:SIM|ANA)\d{3})\b", re.M)

#: Any rule-ID-shaped token in checker/analyzer source.
_RULE_ID_RE = re.compile(r"\b((?:SIM|ANA)\d{3})\b")


def markdown_files(root: pathlib.Path) -> List[pathlib.Path]:
    """The markdown files under our contract, sorted for stable output."""
    files = [
        p for p in root.glob("*.md") if p.name not in EXCLUDED
    ]
    files.extend(root.glob("docs/**/*.md"))
    return sorted(files)


def _fenced_stripped(text: str) -> str:
    """Markdown with fenced code blocks and inline code spans blanked
    (link syntax inside code is example output, not a navigable
    reference)."""
    out: List[str] = []
    fenced = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            out.append("")
            continue
        out.append("" if fenced else re.sub(r"`[^`]*`", "``", line))
    return "\n".join(out)


def check_links(root: pathlib.Path, files: List[pathlib.Path]) -> List[str]:
    """Pass 1: every relative markdown link must resolve."""
    problems: List[str] = []
    for path in files:
        text = _fenced_stripped(path.read_text(encoding="utf-8"))
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            if target.startswith("/"):
                problems.append(
                    f"{path.relative_to(root)}: absolute link {target!r} "
                    "will not survive a checkout elsewhere"
                )
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(root)}: broken link {target!r}"
                )
    return problems


def check_code_paths(
    root: pathlib.Path, files: List[pathlib.Path]
) -> List[str]:
    """Pass 2: every backticked repo path must exist on disk."""
    problems: List[str] = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        for match in _PATH_RE.finditer(text):
            ref = match.group(1).rstrip("/").rstrip(".")
            if not (root / ref).exists():
                problems.append(
                    f"{path.relative_to(root)}: code path `{ref}` "
                    "does not exist"
                )
    return problems


def check_rule_catalog(root: pathlib.Path) -> List[str]:
    """Pass 3: CHECKS.md headings <-> implemented rule IDs, both ways."""
    problems: List[str] = []
    checks_md = root / "docs" / "CHECKS.md"
    if not checks_md.exists():
        return [f"docs/CHECKS.md missing (looked in {root})"]
    documented = set(_RULE_HEADING_RE.findall(checks_md.read_text()))
    implemented: set = set()
    for source_dir in ("tools/check", "tools/analyze"):
        for source in (root / source_dir).glob("**/*.py"):
            implemented.update(_RULE_ID_RE.findall(source.read_text()))
    for rule in sorted(documented - implemented):
        problems.append(
            f"docs/CHECKS.md documents {rule} but no checker source "
            "mentions it"
        )
    for rule in sorted(implemented - documented - INTERNAL_RULE_IDS):
        problems.append(
            f"rule {rule} is implemented but has no ### heading in "
            "docs/CHECKS.md"
        )
    return problems


def run_all(root: pathlib.Path) -> List[str]:
    """All three passes; the empty list means the docs are consistent."""
    files = markdown_files(root)
    return (
        check_links(root, files)
        + check_code_paths(root, files)
        + check_rule_catalog(root)
    )
