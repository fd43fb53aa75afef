"""The benchmark workloads' output bytes, pinned at K00 = 2.

Each bench/workloads config runs two realizations through the command
line, in a fresh interpreter with one BLAS thread, and the sha256 of its
results.csv and summary.csv must equal the stored ones.  The bytes
depend on the numpy and BLAS build, so on another build the test is
skipped and names both builds.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from beambench.__main__ import BLAS_THREAD_VARIABLES

ROOT = Path(__file__).resolve().parents[1]
PINNED = json.loads((ROOT / "tests" / "data" / "bench_digests.json").read_text())


def blas_core() -> str:
    """Core name of the OpenBLAS library numpy loaded, as bench/worker.py
    finds that library for its thread count."""
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_corename64_",
            "openblas_get_corename64_",
            "openblas_get_corename",
        ):
            if hasattr(library, symbol):
                getter = getattr(library, symbol)
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return "unknown"


def this_build() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_core": blas_core(),
    }


@pytest.mark.parametrize("workload", sorted(PINNED["workloads"]))
def test_workload_bytes_are_pinned(workload, tmp_path):
    build = this_build()
    if build != PINNED["build"]:
        pytest.skip(f"digests pinned on {PINNED['build']}, this build is {build}")
    lines = (ROOT / "bench" / "workloads" / f"{workload}.cfg").read_text().splitlines()
    config = tmp_path / f"{workload}.cfg"
    kept = [line for line in lines if not line.startswith("K00")]
    config.write_text("\n".join([*kept, f"K00 = {PINNED['realizations']}", ""]))
    out = tmp_path / "run"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    subprocess.run(
        [sys.executable, "-m", "beambench", "run", "--config", str(config),
         "--seed", str(PINNED["seed"]), "--out", str(out)],
        env=env,
        capture_output=True,
        check=True,
    )
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("results.csv", "summary.csv")
    }
    assert digests == PINNED["workloads"][workload]
