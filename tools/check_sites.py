#!/usr/bin/env python3
"""Lint: forbidden call sites, one table-driven scanner for every rule.

Each rule greps the ``.py`` files under one root (comment-stripped
line by line) for its patterns and fails on any hit outside its
allow-list:

``submit``
    ``ThreadPool.submit()`` only in ``server/pipeline.py``.  The stage
    pipeline owns all submit/overload/503 plumbing: an internal hop
    whose bounded queue is full must become a 503 to the client, and a
    hop into a shut-down pool a clean close.  A direct ``.submit(``
    call anywhere else bypasses that and reintroduces copy-pasted
    error paths.
``acquire``
    Raw ``.acquire(`` calls only in the resource layers.  Database
    connections are the scarce resource of the whole study; a raw
    ``ConnectionPool.acquire``/``release`` pair risks a missed or
    doubled release and escapes the busy-fraction accounting, so
    server and application code goes through
    ``repro.server.resources.LeaseManager`` (or the pool's scoped
    ``lease()``).  The pattern is deliberately broad (it also matches
    lock-manager and simulated-thread-pool acquires): every legitimate
    acquire already lives in an allow-listed resource module.
``decide``
    ``FaultPlan.decide()`` only in ``repro/faults/``, the live sockets
    (``server/netbase.py``), and the simulated server's socket gates
    (``sim/server.py``).  Every other injection site goes through
    ``FaultPlan.inject()``, the one table of fault effects that the
    live code and the simulator share; a site that interprets a raw
    decision itself is a second copy of that table, free to drift.
``stats``
    ``ServerStats(`` only in ``server/pipeline.py`` and
    ``sim/server.py``.  One metrics sink per server, live or simulated:
    the pipeline and the resilience policies record into the server's
    own ``stats``, and the harness reads it, so a second sink kept in
    step by hand cannot creep back.  Checkouts, fault injections and
    breaker transitions are not in it: the pool's ledger, the fault
    plan and the breaker count those themselves.
``ledger``
    ``SummaryAccumulator(`` and ``CheckoutLedger(`` only in
    ``util/timeseries.py``, ``server/stats.py``, ``db/pool.py`` and
    ``sim/resources.py``.  Each fact has one ledger, kept by the
    component that owns it: request and stage timings by
    ``ServerStats``, connection checkouts by the pool's
    ``CheckoutLedger``.  A meter built anywhere else is a second count
    of one of those facts, free to disagree with the first.
``sleep``
    No ``time.sleep`` (nor ``sleep`` imported from ``time``) in
    ``tests/chaos``.  Chaos scenarios run on a ``ManualClock`` or the
    sim clock, so a chaos test that sleeps is either hiding a race
    behind wall time or waiting for something the clocks control.

Usage: python tools/check_sites.py [--root PATH] [RULE ...]
Runs every rule when none is named; ``--root`` replaces the scanned
root of each named rule.  Exit status 0 if clean, 1 with a listing of
offending lines otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Pattern, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Rule(NamedTuple):
    #: Scanned root, relative to the repository.
    root: str
    patterns: Tuple[Pattern, ...]
    #: Paths (relative to the root) allowed to match; an entry ending
    #: in a separator allows every file beneath that directory.
    allowed: FrozenSet[str]
    failure: str
    clean: str


RULES: Dict[str, Rule] = {
    "submit": Rule(
        root="src",
        patterns=(re.compile(r"\.submit\s*\("),),
        allowed=frozenset({
            os.path.join("repro", "server", "pipeline.py"),
        }),
        failure=("direct ThreadPool.submit call sites outside "
                 "server/pipeline.py (route through Pipeline.submit):"),
        clean=("submit-site check: clean "
               "(all pool submits live in server/pipeline.py)"),
    ),
    "acquire": Rule(
        root="src",
        patterns=(re.compile(r"\.acquire\s*\("),),
        allowed=frozenset({
            # The pool itself: creates connections, implements lease().
            os.path.join("repro", "db", "pool.py"),
            # Table-lock manager: lock.acquire(mode, timeout), not
            # connections.
            os.path.join("repro", "db", "locks.py"),
            # THE lease layer — the one sanctioned ConnectionPool.acquire
            # site.
            os.path.join("repro", "server", "resources.py"),
            # Simulated resources: SimThreadPool/SimConnectionPool
            # primitives.
            os.path.join("repro", "sim", "resources.py"),
            # Sim server models acquire simulated *thread-pool* tokens;
            # their connections go through SimConnectionPool.lease().
            os.path.join("repro", "sim", "server.py"),
        }),
        failure=("raw .acquire( call sites outside the resource layers "
                 "(lease through repro.server.resources or pool.lease()):"),
        clean=("acquire-site check: clean "
               "(all connection checkouts flow through the lease layer)"),
    ),
    "decide": Rule(
        root="src",
        patterns=(re.compile(r"\.decide\s*\("),),
        allowed=frozenset({
            # The plan itself: inject() decides, then applies the effect.
            os.path.join("repro", "faults", ""),
            # Socket reads and writes: 408 vs. silent close, short write.
            os.path.join("repro", "server", "netbase.py"),
            # The same two socket gates on simulated time.
            os.path.join("repro", "sim", "server.py"),
        }),
        failure=("FaultPlan.decide call sites outside the fault package "
                 "and the socket gates (apply effects via FaultPlan.inject):"),
        clean=("decide-site check: clean "
               "(fault effects come from FaultPlan.inject)"),
    ),
    "stats": Rule(
        root="src",
        patterns=(re.compile(r"\bServerStats\s*\("),),
        allowed=frozenset({
            # The live servers' one sink, shared by every layer.
            os.path.join("repro", "server", "pipeline.py"),
            # The simulated server's, on the simulated clock.
            os.path.join("repro", "sim", "server.py"),
        }),
        failure=("ServerStats constructed outside server/pipeline.py and "
                 "sim/server.py (record into the server's own stats):"),
        clean=("stats-site check: clean "
               "(one ServerStats per live or simulated server)"),
    ),
    "ledger": Rule(
        root="src",
        patterns=(re.compile(r"\b(?:SummaryAccumulator|CheckoutLedger)\s*\("),),
        allowed=frozenset({
            # The accumulator itself.
            os.path.join("repro", "util", "timeseries.py"),
            # Request, interaction and stage-timing summaries.
            os.path.join("repro", "server", "stats.py"),
            # The checkout ledger, pool-wide and per stage.
            os.path.join("repro", "db", "pool.py"),
            # The simulated pool's copy of the same ledger.
            os.path.join("repro", "sim", "resources.py"),
        }),
        failure=("SummaryAccumulator or CheckoutLedger built outside the "
                 "owning ledgers (read the owner's count instead):"),
        clean=("ledger-site check: clean "
               "(each fact is metered once, by its owner)"),
    ),
    "sleep": Rule(
        root=os.path.join("tests", "chaos"),
        patterns=(
            re.compile(r"\btime\.sleep\s*\("),
            # Importing sleep out of time just renames the same wait.
            re.compile(r"\bfrom\s+time\s+import\b[^\n]*\bsleep\b"),
        ),
        allowed=frozenset(),
        failure=("time.sleep in the chaos suite (drive the ManualClock or "
                 "sim clock instead):"),
        clean="sleep-free check: clean (chaos tests run on scripted clocks)",
    ),
}


def find_violations(rule: Rule, root: Optional[str] = None
                    ) -> List[Tuple[str, int, str]]:
    """``(relative path, line number, line)`` for every offending line
    under ``root`` (default: the rule's own root in this repository)."""
    if root is None:
        root = os.path.join(REPO_ROOT, rule.root)
    violations = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            relative = os.path.relpath(path, root)
            if any(relative == allowed or (allowed.endswith(os.sep)
                                           and relative.startswith(allowed))
                   for allowed in rule.allowed):
                continue
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, start=1):
                    code = line.split("#", 1)[0]
                    if any(pattern.search(code) for pattern in rule.patterns):
                        violations.append(
                            (relative, lineno, line.rstrip("\n"))
                        )
    return violations


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="Forbidden call-site lint.")
    parser.add_argument("rules", nargs="*", metavar="RULE",
                        help=f"one of {', '.join(RULES)} (default: all)")
    parser.add_argument("--root", help="scan this directory instead")
    args = parser.parse_args(argv[1:])
    unknown = [name for name in args.rules if name not in RULES]
    if unknown:
        parser.error(f"unknown rule(s): {', '.join(unknown)}")
    status = 0
    for name in args.rules or RULES:
        rule = RULES[name]
        violations = find_violations(rule, args.root)
        if violations:
            print(rule.failure)
            for relative, lineno, line in violations:
                print(f"  {relative}:{lineno}: {line.strip()}")
            status = 1
        else:
            print(rule.clean)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
