"""no-raw-threads: no std::thread construction in src/ outside the pool.

Every data-parallel subsystem (predicate-transfer reduction, partitioned
ANALYZE, ...) must run its work on the shared
work-stealing pool (src/common/thread_pool.{h,cc}); constructing
std::thread anywhere else in src/ reintroduces per-call thread spawn cost
and lets concurrent sessions oversubscribe the machine — exactly what the
pool exists to prevent. Benches and tests ARE the concurrent clients, so
they may spawn std::thread freely to simulate them.

Allowed uses of the token "std::thread" anywhere:
  * std::thread::hardware_concurrency()  (sizing queries)
  * std::this_thread::...                (yield/sleep; different type)
  * std::thread::id                      (identity checks, no spawn)
  * mentions in comments or #include lines
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from findings import make_finding  # noqa: E402

from . import _util

NAME = "no-raw-threads"
DESCRIPTION = ("std::thread outside common/thread_pool.{h,cc}; "
               "use ThreadPool/TaskGroup")
FIXABLE = False

# Files allowed to construct threads: the pool itself.
ALLOWED = {"src/common/thread_pool.h", "src/common/thread_pool.cc"}

# The std::thread type NOT followed by :: (which would be
# hardware_concurrency, ::id, etc.). std::this_thread never matches.
RAW_THREAD = _util.re.compile(r"std::thread\b(?!::)")


def run(ctx):
    out = []
    for path in ctx.files:
        rel = _util.rel_to(path, ctx.repo)
        if not ctx.explicit:
            if rel is None or not rel.startswith("src/") or rel in ALLOWED:
                continue
        elif rel in ALLOWED:
            continue
        for lineno, raw, code in _util.iter_code_lines(
                _util.read_lines(path)):
            if raw.lstrip().startswith("#include"):
                continue
            if RAW_THREAD.search(code):
                out.append(make_finding(
                    NAME, path, lineno,
                    "raw std::thread; run the work on the shared pool "
                    "(ThreadPool::Submit / TaskGroup, see docs/EXECUTOR.md): "
                    f"{raw.strip()}", repo=ctx.repo))
    return out
