"""banned-functions: libc/stdlib calls with project-approved replacements.

Each ban exists because joinest already has (or requires) a better tool:

  rand()/srand()      hidden global state, weak distribution — use the
                      deterministic engines in common/random.h, which keep
                      experiments reproducible (ROADMAP: every number has a
                      seed).
  strtok()            mutates a hidden static buffer; not reentrant across
                      threads — use string_view scanning
                      (see query/lexer.cc for the idiom).
  gmtime()/localtime() return pointers to shared static storage — use the
                      *_r variants.
  unseeded std::mt19937  default-constructed engines produce the same
                      stream everywhere and hide the seed from logs — seed
                      explicitly from the workload/run seed, or use
                      common/random.h.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from findings import make_finding  # noqa: E402

from . import _util

NAME = "banned-functions"
DESCRIPTION = ("rand/strtok/gmtime/unseeded mt19937; "
               "use common/random.h and reentrant APIs")
FIXABLE = False

BANS = [
    (re.compile(r"\b(?:std::)?rand\s*\("),
     "rand() has hidden global state; use common/random.h "
     "(seeded, reproducible)"),
    (re.compile(r"\b(?:std::)?srand\s*\("),
     "srand() seeds hidden global state; use common/random.h"),
    (re.compile(r"\b(?:std::)?strtok\s*\("),
     "strtok() is not reentrant across threads; "
     "use string_view scanning"),
    (re.compile(r"\b(?:std::)?(?:gmtime|localtime)\s*\("),
     "gmtime()/localtime() return shared static storage; use gmtime_r/"
     "localtime_r"),
    # Default-constructed engine: `std::mt19937 g;`, `std::mt19937 g{};`,
    # `std::mt19937()`, `std::mt19937{}`. A seeded form or a
    # reference/pointer/parameter use does not match.
    (re.compile(r"std::mt19937(?:_64)?\s*(?:\w+\s*)?(?:\(\s*\)|\{\s*\}|;)"),
     "unseeded std::mt19937 hides the seed; seed it from the run/workload "
     "seed or use common/random.h"),
]


def run(ctx):
    out = []
    for path in ctx.files:
        rel = _util.rel_to(path, ctx.repo)
        if not ctx.explicit and rel is None:
            continue
        for lineno, raw, code in _util.iter_code_lines(
                _util.read_lines(path)):
            for pattern, why in BANS:
                if pattern.search(code):
                    out.append(make_finding(
                        NAME, path, lineno, f"{why}: {raw.strip()}",
                        repo=ctx.repo))
    return out
