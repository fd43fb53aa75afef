"""The benchmark workloads' output bytes, pinned at K00 = 2.

Each bench/workloads config runs two realizations through the command
line, in a fresh interpreter with one BLAS thread, and the sha256 of its
results.csv and summary.csv must equal the stored ones.  The forward
model's bytes are pinned on their own: the sha256 of the lead-field that
`export-leadfield` writes for the default and the forward-heavy config,
whose deep dipoles reach the small-eccentricity branch.  The bytes
depend on the numpy and BLAS build, so on another build the tests are
skipped and name both builds.
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


def beambench_on_pinned_build(*args: str) -> None:
    """Run `python -m beambench args` on this checkout's src/ with one
    BLAS thread; skip, naming both builds, off the pinned build."""
    build = this_build()
    if build != PINNED["build"]:
        pytest.skip(f"digests pinned on {PINNED['build']}, this build is {build}")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    subprocess.run(
        [sys.executable, "-m", "beambench", *args],
        env=env,
        capture_output=True,
        check=True,
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workload", sorted(PINNED["workloads"]))
def test_workload_bytes_are_pinned(workload, tmp_path):
    lines = (ROOT / "bench" / "workloads" / f"{workload}.cfg").read_text().splitlines()
    config = tmp_path / f"{workload}.cfg"
    kept = [line for line in lines if not line.startswith("K00")]
    config.write_text("\n".join([*kept, f"K00 = {PINNED['realizations']}", ""]))
    out = tmp_path / "run"
    beambench_on_pinned_build(
        "run", "--config", str(config), "--seed", str(PINNED["seed"]), "--out", str(out)
    )
    digests = {name: sha256(out / name) for name in ("results.csv", "summary.csv")}
    assert digests == PINNED["workloads"][workload]


# sha256 of `export-leadfield --config bench/workloads/<name>.cfg`, on
# the build of PINNED["build"].
LEADFIELD_DIGESTS = {
    "default": "ced13c12310be20ec1a258d50df70834dbbf0ccbbb918916a50363778b67d33a",
    "forward_heavy": "65d53ada4329876048097924c352ae75fea1a4aabacc24d385d3922a5c8490b3",
}


@pytest.mark.parametrize("workload", sorted(LEADFIELD_DIGESTS))
def test_exported_leadfield_bytes_are_pinned(workload, tmp_path):
    out = tmp_path / "leadfield.csv"
    config = ROOT / "bench" / "workloads" / f"{workload}.cfg"
    beambench_on_pinned_build("export-leadfield", "--config", str(config), "--out", str(out))
    assert sha256(out) == LEADFIELD_DIGESTS[workload]
