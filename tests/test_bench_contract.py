"""The benchmark tracer's hooks must keep matching the program.

bench/tracing.py wraps pipeline and module functions by name and reads
their arguments and results.  A refactor that renames one of them
breaks the traced benchmark; this test makes it fail here first.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from beambench.pipeline import run

from test_pipeline import small_config

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from tracing import Tracer  # noqa: E402

# Measured by bench/run.py itself, outside the traced run.
MEASURED_BY_RUNNER = {"config.load_config_s", "setup.import_s", "tracing.overhead_s"}


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {metric["name"] for metric in declared} - MEASURED_BY_RUNNER
    tracer = Tracer()
    start = time.perf_counter()
    with tracer.installed():
        run(small_config(), out_dir=tmp_path / "run")
    end = time.perf_counter()
    exact, timings = tracer.summarize(start, end)
    assert wanted <= set(exact) | set(timings)
    assert exact["metrics.evaluate.calls"] > 0
    assert exact["metrics.spectra.repeat_ratio"] == 0.0
    assert exact["forward.dipole_potentials.calls"] > 0
