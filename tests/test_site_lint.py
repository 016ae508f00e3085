"""The CI call-site lints (tools/check_sites.py), one case table per rule.

- ``submit``: pool submits only in server/pipeline.py.
- ``acquire``: connection checkouts only in the resource layers.
- ``decide``: raw fault decisions only in the fault package and the
  socket gates.
- ``stats``: one ``ServerStats`` per server, built only by the live
  pipeline server and the simulated server.
- ``ledger``: meters built only by the ledgers that own their facts.
- ``sleep``: chaos tests run on scripted clocks, never ``time.sleep``.
"""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(REPO_ROOT, "tools", "check_sites.py")

sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
from check_sites import RULES, find_violations  # noqa: E402

SERVER = os.path.join("repro", "server")

#: (rule, {relative path: source}, [(relative path, line, text in line)])
CASES = {
    "submit-stray-call": (
        "submit",
        {os.path.join(SERVER, "rogue.py"):
         "def f(pool, job):\n    pool.submit(handler, job)\n"},
        [(os.path.join(SERVER, "rogue.py"), 2, ".submit(")],
    ),
    "submit-pipeline-allowed": (
        "submit",
        {os.path.join(SERVER, "pipeline.py"):
         "def f(pool, job):\n    pool.submit(handler, job)\n"},
        [],
    ),
    "submit-comments-ignored": (
        "submit",
        {os.path.join("repro", "notes.py"):
         "# never call pool.submit(handler) directly\nx = 1\n"},
        [],
    ),
    "submit-non-python-ignored": (
        "submit", {"README.md": "call pool.submit(x) freely\n"}, [],
    ),
    "acquire-stray-call": (
        "acquire",
        {os.path.join(SERVER, "rogue.py"):
         "def f(pool):\n    conn = pool.acquire()\n"},
        [(os.path.join(SERVER, "rogue.py"), 2, ".acquire(")],
    ),
    "acquire-lease-layer-allowed": (
        "acquire",
        {os.path.join(SERVER, "resources.py"):
         "def f(pool):\n    return pool.acquire(timeout=1.0)\n"},
        [],
    ),
    "acquire-db-pool-and-locks-allowed": (
        "acquire",
        {os.path.join("repro", "db", "pool.py"): "x = lock.acquire()\n",
         os.path.join("repro", "db", "locks.py"): "x = lock.acquire('read')\n"},
        [],
    ),
    "acquire-comments-ignored": (
        "acquire",
        {os.path.join("repro", "notes.py"):
         "# never call pool.acquire() directly\nx = 1\n"},
        [],
    ),
    "acquire-non-python-ignored": (
        "acquire", {"README.md": "call pool.acquire() freely\n"}, [],
    ),
    "decide-outside-socket-gates": (
        "decide",
        {os.path.join("repro", "db", "pool.py"):
         "def f(plan):\n    return plan.decide(SITE)\n",
         os.path.join("repro", "faults", "plan.py"):
         "def f(self):\n    return self.decide(SITE)\n",
         os.path.join(SERVER, "netbase.py"): "d = plan.decide(SITE)\n",
         os.path.join("repro", "sim", "server.py"): "d = plan.decide(SITE)\n"},
        [(os.path.join("repro", "db", "pool.py"), 2, ".decide(")],
    ),
    "stats-second-sink": (
        "stats",
        {os.path.join("repro", "faults", "policies.py"):
         "def f(clock):\n    return ServerStats(clock)\n",
         os.path.join(SERVER, "pipeline.py"):
         "stats = ServerStats(self.clock)\n",
         os.path.join("repro", "sim", "server.py"):
         "stats = ServerStats(SimClockAdapter(sim))\n",
         os.path.join(SERVER, "__init__.py"):
         "from repro.server.stats import ServerStats\n"},
        [(os.path.join("repro", "faults", "policies.py"), 2, "ServerStats(")],
    ),
    "ledger-second-checkout-ledger": (
        "ledger",
        {os.path.join("repro", "harness", "export.py"):
         "ledger = CheckoutLedger(4)\n"},
        [(os.path.join("repro", "harness", "export.py"), 1,
          "CheckoutLedger(")],
    ),
    "ledger-second-meter": (
        "ledger",
        {os.path.join(SERVER, "resources.py"):
         "def f(stage):\n    return SummaryAccumulator(stage)\n",
         os.path.join(SERVER, "stats.py"): "w = SummaryAccumulator(page)\n",
         os.path.join("repro", "db", "pool.py"):
         "self.ledger = CheckoutLedger(size)\n",
         os.path.join("repro", "sim", "resources.py"):
         "self.ledger = CheckoutLedger(size)\n",
         os.path.join("repro", "util", "timeseries.py"):
         "class SummaryAccumulator(WelfordAccumulator):\n",
         os.path.join("repro", "sim", "server.py"):
         "from repro.db.pool import CheckoutLedger\n"},
        [(os.path.join(SERVER, "resources.py"), 2, "SummaryAccumulator(")],
    ),
    "sleep-time-sleep-call": (
        "sleep",
        {"test_rogue.py": "import time\n\ndef test_x():\n    time.sleep(0.5)\n"},
        [("test_rogue.py", 4, "time.sleep")],
    ),
    "sleep-import-from-time": (
        "sleep",
        {"test_alias.py": "from time import sleep\n\ndef test_x():\n    sleep(1)\n"},
        [("test_alias.py", 1, "import sleep")],
    ),
    "sleep-comments-ignored": (
        "sleep",
        {"test_notes.py": "# never time.sleep() in chaos tests\nx = 1\n"},
        [],
    ),
    "sleep-monotonic-and-manual-clocks-fine": (
        "sleep",
        {"test_ok.py": "import time\n\ndef test_x(clock):\n"
                       "    t = time.monotonic()\n    clock.advance(5.0)\n"},
        [],
    ),
}

#: A one-line violation per rule, for the command-line exit status.
SEEDED = {
    "submit": "pool.submit(handler, item)\n",
    "acquire": "conn = pool.acquire()\n",
    "decide": "decision = plan.decide(SITE_WORKER)\n",
    "stats": "stats = ServerStats(clock)\n",
    "ledger": "waits = SummaryAccumulator(\"acquire-wait\")\n",
    "sleep": "import time\ntime.sleep(2)\n",
}


def write_tree(root, files):
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)


def run_checker(*args):
    return subprocess.run([sys.executable, CHECKER, *args],
                          capture_output=True, text=True, cwd=REPO_ROOT)


@pytest.mark.parametrize("name", list(RULES))
def test_repo_tree_is_clean(name):
    assert find_violations(RULES[name]) == []


@pytest.mark.parametrize("case", list(CASES))
def test_find_violations(case, tmp_path):
    name, files, expected = CASES[case]
    write_tree(tmp_path, files)
    violations = find_violations(RULES[name], str(tmp_path))
    assert [(relative, lineno) for relative, lineno, _ in violations] == \
        [(relative, lineno) for relative, lineno, _ in expected]
    for (_, _, line), (_, _, needle) in zip(violations, expected):
        assert needle in line


@pytest.mark.parametrize("name", list(RULES))
def test_exit_zero_on_clean_tree(name):
    result = run_checker(name)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


def test_no_rule_named_runs_every_rule():
    result = run_checker()
    assert result.returncode == 0, result.stdout + result.stderr
    for rule in RULES.values():
        assert rule.clean in result.stdout


@pytest.mark.parametrize("name", list(RULES))
def test_exit_one_with_listing_on_violation(name, tmp_path):
    write_tree(tmp_path, {os.path.join("repro", "test_worker.py"): SEEDED[name]})
    result = run_checker("--root", str(tmp_path), name)
    assert result.returncode == 1
    assert RULES[name].failure in result.stdout
    line = SEEDED[name].count("\n")
    assert f"test_worker.py:{line}" in result.stdout


def test_unknown_rule_is_a_usage_error():
    assert run_checker("nonexistent").returncode == 2
