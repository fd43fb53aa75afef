"""Run a workload's config once, check the outputs, report the run.

Usage: python3 bench/worker.py --config CFG --seed S --jobs N --trace 0|1
                               --out DIR --result FILE

run.py starts this script in a fresh interpreter for every run, with
PYTHONPATH set to the checkout's src/ and the BLAS thread count pinned
to one.  The run calls `beambench.pipeline.run` the way a user does and
is timed from outside.  The result file receives one JSON object: wall
and CPU seconds, peak resident memory, the output digests, the machine
facts they depend on, the problems the output checks found, and for a
traced run the per-layer counts and timings.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from beambench import pipeline
from beambench.config import load_config

import checks
from tracing import Tracer

# The per-layer split is only as good as the share of the run that the
# stage spans cover; work moved outside the wrapped stages fails a run.
MIN_STAGE_COVERAGE = 0.95


def blas_threads() -> str:
    """Thread count reported by the OpenBLAS library numpy loaded."""
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(library, symbol):
                getter = getattr(library, symbol)
                getter.restype = ctypes.c_int
                return str(getter())
    return "unknown"


def machine_facts() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas['name']}-{blas['version']} "
        f"blas_threads={blas_threads()}"
    )


def run_once(config, jobs: int, trace: bool, out: Path, run_pipeline=pipeline.run) -> dict:
    """Run `config` once into `out`, check it, and delete `out` again.

    `run_pipeline` stands in for `pipeline.run` in the self-test.
    """
    tracer = Tracer() if trace else None
    problems: list[str] = []
    wall = time.perf_counter()
    cpu = time.process_time()
    try:
        if tracer is None:
            run_pipeline(config, out, jobs)
        else:
            with tracer.installed():
                run_pipeline(config, out, jobs)
    except Exception as exc:  # a run that raises is a failed run, not a crash
        problems.append(f"raised {type(exc).__name__}: {exc}")
    wall_end = time.perf_counter()
    record = {
        "wall_s": wall_end - wall,
        "cpu_s": time.process_time() - cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "facts": machine_facts(),
        "digests": None,
        "problems": problems,
    }
    if not problems:
        record["digests"] = checks.digests(out)
        problems += checks.check_run(out, config)
        if tracer is not None:
            record["exact"], record["timings"] = tracer.summarize(wall, wall_end)
            coverage = record["timings"]["tracing.stage_coverage"]
            if coverage < MIN_STAGE_COVERAGE:
                problems.append(
                    f"stage spans cover {coverage:.3f} of the traced run, "
                    f"less than {MIN_STAGE_COVERAGE}"
                )
    shutil.rmtree(out, ignore_errors=True)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    config = replace(load_config(args.config), seed=args.seed)
    record = run_once(config, args.jobs, bool(args.trace), args.out)
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
