"""Smoke tests: the runnable examples must stay runnable.

Each example self-verifies (asserts correctness internally) and prints an
OK/summary line; here we execute the quick ones end to end.  The two
long-running demos (string_search_demo sweeps 512 MiB three times,
tpch_ndp_demo generates a larger database) are exercised by their library
tests instead.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "examples")

QUICK_EXAMPLES = [
    "quickstart.py",
    "wordcount_demo.py",
    "pointer_chase_demo.py",
    "log_analytics_demo.py",
]


@pytest.mark.parametrize("name", QUICK_EXAMPLES)
def test_example_runs(name):
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        capture_output=True, text=True, timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()  # it said something


def test_all_examples_exist():
    present = {name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")}
    assert set(QUICK_EXAMPLES) <= present
    # The full catalog advertised in the README.
    for name in ("string_search_demo.py", "tpch_ndp_demo.py", "sql_demo.py",
                 "instrumented_run.py"):
        assert name in present
