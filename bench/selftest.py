"""Self-test of the benchmark harness on a tiny config (about 40 seconds).

Usage, from the root of a source checkout:

    python3 bench/selftest.py

Checks that run.py prints every metric BENCHMARK.json names, with its
unit, in both trace modes and with two jobs; that a correct program
passes every output check; that a deliberately broken output is
counted as a failed run, and so is a traced run whose stage spans
cover too little of it; that each output check rejects the damage it
is meant to catch; and that run.py exits with an error and prints no
result where the program's sources are missing.  Exits 0 on success.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path.insert(0, str(ROOT / "src"))

from beambench import pipeline  # noqa: E402
from beambench.config import load_config  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

CONFIG = BENCH / "selftest.cfg"
SEED = 7


def check_printed_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, jobs, section in ((False, 1, "end_to_end"), (True, 1, "per_layer"),
                                 (False, 2, "end_to_end")):
        result = run.measure(CONFIG, jobs, SEED, 0.0, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] >= 2, result
        expected = {m["name"]: m["unit"] for m in spec[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == expected, (section, set(printed) ^ set(expected))
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), (name, metric)
    print("ok: every named metric is printed with its unit")


def check_broken_output_counts(work: Path) -> None:
    config = replace(load_config(CONFIG), seed=SEED)

    def broken_run(config, out_dir, jobs):
        pipeline.run(config, out_dir, jobs)
        results = Path(out_dir) / "results.csv"
        lines = results.read_text().splitlines(keepends=True)
        lines[1] = lines[1].rsplit(",", 1)[0] + ",0.5\n"
        results.write_text("".join(lines))

    def run_worker(jobs, trace, timeout):
        return worker.run_once(config, jobs, trace, work / "broken", broken_run)

    result = run.measure(CONFIG, 1, SEED, 0.0, False, run_worker)
    assert not result["correct"], result
    assert result["failed"] == result["attempted"] == run.MIN_RUNS, result
    print("ok: a broken output counts as a failed run")


def check_low_coverage_counts(work: Path) -> None:
    config = replace(load_config(CONFIG), seed=SEED)

    def half_untraced_run(config, out_dir, jobs):
        start = time.perf_counter()
        pipeline.run(config, out_dir, jobs)
        time.sleep(time.perf_counter() - start)

    def run_worker(jobs, trace, timeout):
        return worker.run_once(config, jobs, trace, work / "slow", half_untraced_run)

    result = run.measure(CONFIG, 1, SEED, 0.0, True, run_worker)
    assert not result["correct"], result
    assert result["attempted"] == run.MIN_TRACED_RUNS, result
    assert result["failed"] == run.MIN_TRACED_RUNS - 1, result
    assert "tracing.stage_coverage" not in result["metrics"], result
    print("ok: a traced run whose stage spans cover too little of it counts as failed")


def check_each_check(work: Path) -> None:
    config = replace(load_config(CONFIG), seed=SEED)
    good = work / "good"
    pipeline.run(config, good, 1)
    assert checks.check_run(good, config) == [], checks.check_run(good, config)
    rows = (good / "results.csv").read_text().splitlines(keepends=True)

    def value_row(filter_name: str, measure: str) -> int:
        return next(i for i, line in enumerate(rows)
                    if line.startswith(f"{filter_name},1,{measure},"))

    def with_value(index: int, value: str) -> list[str]:
        damaged = list(rows)
        damaged[index] = damaged[index].rsplit(",", 1)[0] + f",{value}\n"
        return damaged

    mvp = value_row("MVP_I_3", "signal_euclid")
    cases = {
        "does not recompute": with_value(value_row("LCMV_R", "signal_euclid"), "0.5"),
        "non-finite": with_value(value_row("ZF", "signal_corr"), "inf"),
        "expected the": rows[:-1],
        "at full rank": with_value(mvp, repr(2.0 * float(rows[mvp].rsplit(",", 1)[1]))),
    }
    for index, (expected, damaged) in enumerate(cases.items()):
        case = work / f"damaged{index}"
        shutil.copytree(good, case)
        (case / "results.csv").write_text("".join(damaged))
        problems = checks.check_run(case, config)
        assert any(expected in problem for problem in problems), (expected, problems)
    print("ok: the output checks reject a changed value, a non-finite value, "
          "a missing row and an MV-PURE row that leaves its base filter")


def check_fails_without_sources(work: Path) -> None:
    bare = work / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "default", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0, done
    assert '"correct"' not in done.stdout, done.stdout
    print("ok: without the program's sources run.py fails and prints no result")


def main() -> int:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        check_printed_metrics()
        check_broken_output_counts(work)
        check_low_coverage_counts(work)
        check_each_check(work)
        check_fails_without_sources(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
