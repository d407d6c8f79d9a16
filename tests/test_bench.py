"""The benchmark's tracer and planted answers still fit the library, and
tracing changes no report, so a deleted name they depend on, or a wrapped
function that changes a result, fails here and not in a later bench run."""

import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_bindings_and_planted_answers():
    cases = ["BenchTest.test_every_binding_is_replaced_and_restored",
             "BenchTest.test_planted_answers_hold_and_tampering_is_caught",
             "BenchTest.test_tracing_changes_no_report"]
    out = subprocess.run([sys.executable, "selftest.py", *cases], cwd=BENCH,
                         env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-4000:]
