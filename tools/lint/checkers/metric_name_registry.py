"""metric-name-registry: metric family names match src/obs/metric_names.h.

The telemetry contract between the registry and whatever reads it
(scrapes, dashboards, bench_accuracy_sweep's JSON) is carried entirely by
string names. A typo on either side does not crash — it silently creates a
second, permanently-zero series. This checker pins both directions against
the single declaration table (JOINEST_METRIC_NAMES in
src/obs/metric_names.h):

  * every name passed to MetricsRegistry::Get{Counter,Gauge,Histogram} —
    directly or through a *_gauge/*_counter helper with a literal first
    argument — must be declared in the table;
  * every declared name must occur somewhere in src/, bench/ or examples/.

Tests are exempt: they exercise the registry with ad-hoc names by design.
This checker always scans the full tree (even under --changed): the
unused-name direction is only meaningful globally, and the scan is cheap.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from findings import make_finding  # noqa: E402

from . import _util

NAME = "metric-name-registry"
DESCRIPTION = ("metric names used in src/bench/examples must match the "
               "src/obs/metric_names.h table, both directions")
FIXABLE = False

TABLE_NAME = "metric_names.h"
DECLARED_RE = re.compile(r"^\s*X\((\w+)\)")
# Direct registry calls and literal-first-arg helpers (e.g. a
# mode_gauge("some_family", ...) wrapper around GetGauge).
USE_RES = [
    re.compile(r"Get(?:Counter|Gauge|Histogram)\s*\(\s*\"(\w+)\"", re.S),
    re.compile(r"\b\w*(?:gauge|counter|histogram)\w*\s*\(\s*\"(\w+)\"",
               re.S | re.I),
]
SCAN_ROOTS = ("src", "bench", "examples")


def _table_and_sources(ctx):
    if ctx.explicit:
        table = next((p for p in ctx.files if p.name == TABLE_NAME), None)
        sources = [p for p in ctx.files if p.name != TABLE_NAME]
        return table, sources
    table = ctx.repo / "src" / "obs" / TABLE_NAME
    sources = []
    for root in SCAN_ROOTS:
        base = ctx.repo / root
        if base.is_dir():
            sources.extend(p for p in sorted(base.rglob("*"))
                           if p.suffix in (".h", ".cc")
                           and p.resolve() != table.resolve())
    return (table if table.is_file() else None), sources


def run(ctx):
    table, sources = _table_and_sources(ctx)
    if table is None:
        if ctx.explicit:
            return []  # Fixture set without a table: nothing to check.
        return [make_finding(
            NAME, ctx.repo / "src" / "obs" / TABLE_NAME, 0,
            "declaration table src/obs/metric_names.h is missing",
            repo=ctx.repo)]

    declared = {}  # name -> line in the table
    for lineno, line in enumerate(_util.read_lines(table), 1):
        m = DECLARED_RE.match(line)
        if m:
            declared[m.group(1)] = lineno

    out = []
    all_text = []
    for path in sources:
        text = path.read_text(encoding="utf-8", errors="replace")
        all_text.append(text)
        seen_spans = set()
        for use_re in USE_RES:
            for m in use_re.finditer(text):
                if m.span() in seen_spans:
                    continue
                seen_spans.add(m.span())
                name = m.group(1)
                if name in declared:
                    continue
                line = text.count("\n", 0, m.start()) + 1
                out.append(make_finding(
                    NAME, path, line,
                    f"metric name '{name}' is not declared in "
                    "src/obs/metric_names.h (add it to "
                    "JOINEST_METRIC_NAMES, or fix the typo)",
                    repo=ctx.repo))

    corpus = "\n".join(all_text)
    for name, lineno in sorted(declared.items()):
        if f'"{name}"' not in corpus:
            out.append(make_finding(
                NAME, table, lineno,
                f"metric name '{name}' is declared but never used in "
                f"{'/'.join(SCAN_ROOTS)} (remove it, or fix the typo at "
                "the use site)", repo=ctx.repo))
    return out
