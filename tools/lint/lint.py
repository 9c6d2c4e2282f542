#!/usr/bin/env python3
"""joinest's unified lint driver.

Runs project-specific checkers that the compiler cannot express — thread
discipline, error-handling contracts, header hygiene, the metric-name
registry — and reports every problem as `path:line: [checker] message`.
Registered as the `lint` ctest (label: analysis) and as a stage of
tools/run_static_analysis.sh.

Usage:
  lint.py                      check the default roots (src/ bench/
                               examples/ include/ perfbench/)
  lint.py --changed            only files touched vs HEAD (plus untracked);
                               the fast pre-commit loop
  lint.py PATH...              check exactly these files (fixture mode:
                               checkers drop their src/-only scoping)
  lint.py --checks a,b         run only the named checkers
  lint.py --list               list checkers and exit
  lint.py --fix                let fixable checkers rewrite files in place
  lint.py --json               machine-readable findings on stdout
  lint.py --write-baseline     accept current findings into the baseline

Suppressions: a finding is waived when its line — or the line above it —
contains `lint:allow(<checker>)`. Use sparingly and leave the reason next
to the marker. Whole findings can also be grandfathered in
tools/lint/lint_baseline.txt (one baseline_key per line, regenerated with
--write-baseline); the baseline ships empty and should stay that way.

Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import re
import subprocess
import sys
from typing import List

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import checkers  # noqa: E402
from findings import Finding, print_findings, to_json  # noqa: E402

REPO = pathlib.Path(__file__).resolve().parents[2]
BASELINE_PATH = REPO / "tools" / "lint" / "lint_baseline.txt"

# Roots scanned by default; checkers narrow further (e.g. raw-mutex is
# src/-only because tests and benches simulate external clients).
DEFAULT_ROOTS = ("src", "bench", "examples", "include", "perfbench")
SOURCE_SUFFIXES = (".h", ".cc")

ALLOW_RE = re.compile(r"lint:allow\(([a-z0-9_,\- ]+)\)")


@dataclasses.dataclass
class Context:
    repo: pathlib.Path
    files: List[pathlib.Path]  # absolute, existing, .h/.cc
    explicit: bool  # True when the user listed paths (fixture mode)
    fix: bool = False


def discover_default_files() -> List[pathlib.Path]:
    out = []
    for root in DEFAULT_ROOTS:
        base = REPO / root
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                out.append(path)
    return out


def discover_changed_files() -> List[pathlib.Path]:
    """Files differing from HEAD plus untracked files, under the roots."""
    names: set[str] = set()
    for cmd in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(cmd, cwd=REPO, capture_output=True,
                                  text=True, check=True)
        except (OSError, subprocess.CalledProcessError) as e:
            print(f"lint: cannot determine changed files ({e}); "
                  "falling back to a full scan", file=sys.stderr)
            return discover_default_files()
        names.update(line.strip() for line in proc.stdout.splitlines()
                     if line.strip())
    out = []
    for name in sorted(names):
        path = REPO / name
        if (path.suffix in SOURCE_SUFFIXES and path.is_file()
                and name.split("/", 1)[0] in DEFAULT_ROOTS):
            out.append(path)
    return out


def suppressed(finding: Finding, repo: pathlib.Path) -> bool:
    """True when the finding's line (or the one above) carries
    lint:allow(<checker>)."""
    if finding.line <= 0:
        candidates = [1]
    else:
        candidates = [finding.line, finding.line - 1]
    path = repo / finding.path
    try:
        lines = path.read_text(encoding="utf-8",
                               errors="replace").splitlines()
    except OSError:
        return False
    for lineno in candidates:
        if 1 <= lineno <= len(lines):
            m = ALLOW_RE.search(lines[lineno - 1])
            if m and finding.checker in re.split(r"[,\s]+", m.group(1)):
                return True
    return False


def load_baseline() -> set[str]:
    if not BASELINE_PATH.is_file():
        return set()
    keys = set()
    for line in BASELINE_PATH.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            keys.add(line)
    return keys


def write_baseline(findings: List[Finding]) -> None:
    lines = ["# Grandfathered lint findings (one baseline_key per line).",
             "# Regenerate with tools/lint/lint.py --write-baseline.",
             "# Keep this empty: fix or lint:allow() instead of baselining."]
    lines += sorted({f.baseline_key() for f in findings})
    BASELINE_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, add_help=True,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*",
                        help="explicit files to check (fixture mode)")
    parser.add_argument("--checks", default="",
                        help="comma-separated checker names (default: all)")
    parser.add_argument("--changed", action="store_true",
                        help="only files changed vs HEAD + untracked")
    parser.add_argument("--fix", action="store_true",
                        help="let fixable checkers rewrite files")
    parser.add_argument("--list", action="store_true", dest="list_checkers",
                        help="list available checkers and exit")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    parser.add_argument("--write-baseline", action="store_true",
                        help="record current findings as the baseline")
    args = parser.parse_args(argv)

    if args.list_checkers:
        for mod in checkers.ALL_CHECKERS:
            fix = " (--fix)" if mod.FIXABLE else ""
            print(f"{mod.NAME:24s} {mod.DESCRIPTION}{fix}")
        return 0

    if args.checks:
        selected = []
        for name in args.checks.split(","):
            name = name.strip()
            if name not in checkers.BY_NAME:
                known = ", ".join(sorted(checkers.BY_NAME))
                print(f"lint: unknown checker '{name}' (known: {known})",
                      file=sys.stderr)
                return 2
            selected.append(checkers.BY_NAME[name])
    else:
        selected = checkers.ALL_CHECKERS

    if args.paths:
        files = []
        for raw in args.paths:
            path = pathlib.Path(raw)
            if path.is_dir():
                files.extend(p for p in sorted(path.rglob("*"))
                             if p.suffix in SOURCE_SUFFIXES)
            elif path.is_file():
                files.append(path)
            else:
                print(f"lint: no such file: {raw}", file=sys.stderr)
                return 2
        files = [p.resolve() for p in files]
        explicit = True
    elif args.changed:
        files = discover_changed_files()
        explicit = False
    else:
        files = discover_default_files()
        explicit = False

    ctx = Context(repo=REPO, files=files, explicit=explicit, fix=args.fix)

    all_findings: List[Finding] = []
    for mod in selected:
        try:
            all_findings.extend(mod.run(ctx))
        except Exception as e:  # a broken checker must fail loudly
            print(f"lint: checker {mod.NAME} crashed: {e!r}", file=sys.stderr)
            return 2

    all_findings.sort(key=lambda f: (f.path, f.line, f.checker))

    if args.write_baseline:
        write_baseline(all_findings)
        print(f"lint: wrote {len(all_findings)} finding(s) to "
              f"{BASELINE_PATH.relative_to(REPO)}")
        return 0

    baseline = load_baseline()
    visible = [f for f in all_findings
               if f.baseline_key() not in baseline
               and not suppressed(f, REPO)]

    if args.json:
        print(to_json(visible))
        return 1 if visible else 0

    count = print_findings(visible)
    suppressed_count = len(all_findings) - count
    names = ",".join(mod.NAME for mod in selected)
    if count:
        print(f"\nlint: {count} finding(s) "
              f"({suppressed_count} suppressed/baselined) from [{names}] "
              f"over {len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"lint: clean ({suppressed_count} suppressed/baselined) "
          f"[{names}] over {len(files)} file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
