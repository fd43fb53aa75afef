"""The benchmark's own correctness checks must agree with the program.

bench/checks.py keeps its own table of the filter each MV-PURE variant
equals at full rank, so that it judges a run from its output files
alone.  If that table and the filter bank's drift apart, the benchmark
flags correct runs (or passes wrong ones); this test makes it fail here
first.  bench/checks.py is only read, never changed.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from beambench.filters import MVP_BASE

CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"


def load_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mv_pure_bases_match_the_benchmark_check():
    checks = load_checks()
    assert {k.value: v.value for k, v in MVP_BASE.items()} == checks.MVP_BASES
