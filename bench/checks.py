"""Correctness checks on one finished run directory.

Each check reads only the files a user gets (`results.csv`,
`summary.csv`), so a check holds for any implementation of the program.
A check returns a list of problems; an empty list means the run is
correct.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import defaultdict
from pathlib import Path

DIGESTED = ("results.csv", "summary.csv")
MODEL_MEASURES = ("mvar_coeff_err", "pdc_err", "dtf_err")

# At full rank an MV-PURE filter equals its base filter up to the
# rounding of an orthogonal projector (about 1e-14 relative on the
# default config), so its rows must agree to far better than 1e-9.
MVP_BASES = {
    "MVP_F_1": "LCMV_R",
    "MVP_F_2": "LCMV_R",
    "MVP_F_3": "LCMV_N",
    "MVP_I_1": "NL",
    "MVP_I_2": "NL",
    "MVP_I_3": "NL",
}
REL_TOL = 1e-9
ABS_TOL = 1e-12


def digests(run_dir: Path) -> dict[str, str]:
    """SHA-256 of the files whose bytes must not depend on the run."""
    return {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in DIGESTED
    }


def _same(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _read(path: Path, header: list[str]) -> list[list[str]]:
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header is not {','.join(header)}")
    return rows[1:]


def check_run(run_dir: Path, config) -> list[str]:
    """Check the outputs of one run of `config` (a SetupConfig)."""
    try:
        results = _read(run_dir / "results.csv", ["filter", "realization", "measure", "value"])
        summary = _read(run_dir / "summary.csv", ["filter", "measure", "mean", "std"])
        values = {(f, int(r), m): float(v) for f, r, m, v in results}
        stats = {(f, m): (float(mean), float(std)) for f, m, mean, std in summary}
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    if len(values) != len(results) or len(stats) != len(summary):
        return ["duplicate rows in results.csv or summary.csv"]

    measures = (
        ["signal_euclid", "signal_corr"]
        + [f"corr_src_{i}" for i in range(config.n_interest)]
        + list(MODEL_MEASURES)
    )
    realizations = range(1, config.n_realizations + 1)
    expected = {(f, r, m) for f in config.filters for r in realizations for m in measures}
    if set(values) != expected:
        return [
            f"results.csv holds {len(values)} rows, expected the {len(expected)} "
            "rows of every filter, realization and measure"
        ]

    problems: list[str] = []
    for f in config.filters:
        for r in realizations:
            fit_failed = all(math.isnan(values[f, r, m]) for m in MODEL_MEASURES)
            bad = [
                m for m in measures
                if not math.isfinite(values[f, r, m])
                and not (fit_failed and m in MODEL_MEASURES)
            ]
            if bad:
                problems.append(f"{f} realization {r}: non-finite {', '.join(bad)}")

    series: dict[tuple[str, str], list[float]] = defaultdict(list)
    for f, r, m in sorted(values, key=lambda key: key[1]):
        series[f, m].append(values[f, r, m])
    if set(stats) != set(series):
        problems.append("summary.csv does not cover exactly the filters and measures of results.csv")
    for key in sorted(set(stats) & set(series)):
        column = series[key]
        mean = math.fsum(column) / len(column)
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in column) / len(column))
        if not (_same(stats[key][0], mean) and _same(stats[key][1], std)):
            problems.append(f"summary.csv {key[0]}/{key[1]} does not recompute from results.csv")

    if config.mvp_rank in (None, config.n_interest):
        for mvp, base in MVP_BASES.items():
            if mvp in config.filters and base in config.filters:
                differ = [
                    (r, m) for r in realizations for m in measures
                    if not _same(values[mvp, r, m], values[base, r, m])
                ]
                if differ:
                    r, m = differ[0]
                    problems.append(
                        f"{mvp} at full rank differs from {base} in {len(differ)} "
                        f"values, first at realization {r} {m}"
                    )
    return problems
