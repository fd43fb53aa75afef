"""beambench's benchmark: one workload, one seed, one measurement window.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The program is run from the checkout's src/ as it stands; nothing is
installed.  For about S seconds, fresh worker interpreters each run the
workload's config once through `beambench.pipeline.run` and check the
outputs; between runs, fresh interpreters time the set-up.  Every child
runs with PYTHONPATH=src and one BLAS thread.  The last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the `end_to_end` metrics of BENCHMARK.json with --trace 0, its
`per_layer` metrics with --trace 1.  The exit code is not 0 when the
benchmark could not measure at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = SPEC["run_seconds"]

# workload -> (config file under bench/workloads, worker threads)
WORKLOADS = {
    "default": ("default.cfg", 1),
    "default_jobs2": ("default.cfg", 2),
    "forward_heavy": ("forward_heavy.cfg", 1),
    "spectral_heavy": ("spectral_heavy.cfg", 1),
}
# At least two runs, so that digests are compared; with tracing, one
# untraced run and two traced ones, so that counts are compared too.
MIN_RUNS = 2
MIN_TRACED_RUNS = 3
PROBES_PER_GAP = 3
DEADLINE_S = 150.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def probe_setup(config: Path, env: dict[str, str], count: int) -> list[tuple[float, ...]]:
    """Time `count` fresh interpreters that import beambench and load
    `config`: (set-up, import, load_config) seconds for each."""
    samples = []
    for _ in range(count):
        spawned = time.time()
        out = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), str(config)],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        report = json.loads(out.splitlines()[-1])
        samples.append((report["loaded"] - spawned, report["import_s"], report["load_config_s"]))
    return samples


def spawn_worker(config: Path, seed: int, env: dict[str, str], work: Path,
                 jobs: int, trace: bool, timeout: float) -> dict:
    """One run of `config` in a fresh worker interpreter; its record."""
    result = work / "result.json"
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--config", str(config),
         "--seed", str(seed), "--jobs", str(jobs), "--trace", str(int(trace)),
         "--out", str(work / "run"), "--result", str(result)],
        env=env, timeout=timeout, check=True,
    )
    return json.loads(result.read_text())


def measure(config: Path, jobs: int, seed: int, seconds: float, trace: bool,
            run_worker=None) -> dict:
    """Measure one workload; return the result object that run.py prints.

    Runs keep starting while the next is expected to end within
    `seconds`, with at least MIN_RUNS of them (MIN_TRACED_RUNS with
    `trace`).  With `trace`, the first
    run is untraced, as the base of the tracing overhead, and the rest
    are traced.  Without `trace` and with more than one job, a
    single-job reference run comes first and sets the digests every run
    must reproduce.  Set-up probes run before the first run and after
    every run, so that a slow spell of the host does not hit all of
    them.  `run_worker(jobs, trace, timeout)` stands in for the worker
    process in the self-test.
    """
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    env = child_env()
    deadline = time.monotonic() + DEADLINE_S
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    if run_worker is None:
        def run_worker(run_jobs, traced, timeout):
            return spawn_worker(config, seed, env, work, run_jobs, traced, timeout)

    probes: list[tuple[float, ...]] = []
    attempted = failed = 0
    expected: dict | None = None
    counts: dict | None = None

    def one(label: str, run_jobs: int, traced: bool) -> dict:
        nonlocal attempted, failed, expected, counts
        record = run_worker(run_jobs, traced, max(deadline - time.monotonic(), 1.0))
        problems = record["problems"]
        if record["digests"] is not None:
            print(
                f"digest seed={seed} run={label} jobs={run_jobs} "
                f"wall_s={record['wall_s']:.3f} cpu_s={record['cpu_s']:.3f} "
                + " ".join(f"{name}={value}" for name, value in record["digests"].items())
                + f" {record['facts']}",
                flush=True,
            )
            if expected is None:
                expected = record["digests"]
            elif record["digests"] != expected:
                problems.append("output digests differ from the first run of this workload")
        if "exact" in record:
            if counts is None:
                counts = record["exact"]
            elif record["exact"] != counts:
                changed = sorted(k for k in counts if record["exact"].get(k) != counts[k])
                problems.append(f"counts differ from the first traced run: {changed}")
        for problem in problems:
            print(f"check failed: run={label}: {problem}", file=sys.stderr, flush=True)
        attempted += 1
        failed += bool(problems)
        probes.extend(probe_setup(config, env, PROBES_PER_GAP))
        return record

    plain: list[dict] = []
    traced: list[dict] = []
    try:
        # The first probe only leaves the byte-code caches as a user's
        # second run finds them.
        probes.extend(probe_setup(config, env, 1 + PROBES_PER_GAP)[1:])
        if jobs > 1 and not trace:
            one("reference_jobs1", 1, False)
        start = time.monotonic()
        while True:
            count = len(plain) + len(traced) + 1
            is_traced = trace and count > 1
            (traced if is_traced else plain).append(one(f"run{count}", jobs, is_traced))
            elapsed = time.monotonic() - start
            minimum = MIN_TRACED_RUNS if trace else MIN_RUNS
            if count >= minimum and elapsed + elapsed / count > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = {
        name: statistics.median(sample[i] for sample in probes)
        for i, name in enumerate(("setup_s", "setup.import_s", "config.load_config_s"))
    }
    # Only runs that passed every check are timed: a run that raised
    # stopped early.  Means, not medians or minima: of the three, the
    # mean spread least over ten-invocation batches replayed from a
    # trace of back-to-back runs ("Steadiness" in bench/README.md).
    plain = [r for r in plain if not r["problems"]]
    traced = [r for r in traced if not r["problems"]]
    if plain:
        values["run_s"] = statistics.fmean(r["wall_s"] for r in plain)
        values["cpu_s"] = statistics.fmean(r["cpu_s"] for r in plain)
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
    if traced:
        values.update(traced[0]["exact"])
        for name in traced[0]["timings"]:
            values[name] = statistics.median(r["timings"][name] for r in traced)
        if plain:
            values["tracing.overhead_s"] = (
                statistics.median(r["wall_s"] for r in traced) - values["run_s"]
            )
    missing = sorted(set(units) - set(values))
    if missing and not failed:
        raise SystemExit(f"bench: no measurement for {', '.join(missing)}")
    # With failed runs, the metrics of passed runs are still printed,
    # and those no passed run measured are left out.
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name in values
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one beambench benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "beambench" / "__init__.py").is_file():
        print(f"bench: no beambench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config_file, jobs = WORKLOADS[args.workload]
    try:
        result = measure(
            BENCH / "workloads" / config_file, jobs, args.seed, args.seconds, bool(args.trace)
        )
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
