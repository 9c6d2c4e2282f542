"""Shared finding model and reporting for joinest's analysis tooling.

Everything that reports a problem against the tree — the lint.py checkers,
check_trace.py, check_querylog.py — funnels through Finding so the output
is uniformly `path:line: [checker] message`, greppable and clickable in
editors, and machine-readable via to_json().
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys
from typing import Iterable, List


@dataclasses.dataclass(frozen=True)
class Finding:
    """One problem at one location.

    checker: kebab-case id of the rule that fired (e.g. "raw-mutex").
    path:    file the finding is anchored to (repo-relative preferred).
    line:    1-based line number; 0 means "whole file".
    message: one-line human explanation, no trailing period needed.
    """

    checker: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        location = f"{self.path}:{self.line}" if self.line else self.path
        return f"{location}: [{self.checker}] {self.message}"

    # Baselines match on everything except the line number, so findings
    # survive unrelated edits above them.
    def baseline_key(self) -> str:
        return f"{self.checker}|{self.path}|{self.message}"


def make_finding(checker: str, path, line: int, message: str,
                 repo: pathlib.Path | None = None) -> Finding:
    """Builds a Finding with `path` rewritten relative to `repo` if possible."""
    p = pathlib.Path(path)
    if repo is not None:
        try:
            p = p.resolve().relative_to(repo.resolve())
        except ValueError:
            pass
    return Finding(checker=checker, path=p.as_posix(), line=line,
                   message=message)


def print_findings(findings: Iterable[Finding], stream=None) -> int:
    """Prints findings one per line; returns the count."""
    stream = stream or sys.stdout
    count = 0
    for finding in findings:
        print(finding.render(), file=stream)
        count += 1
    return count


def to_json(findings: List[Finding]) -> str:
    return json.dumps([dataclasses.asdict(f) for f in findings], indent=2)
