"""Reconstruction quality measures, aggregation and report rendering.

A run's scores form one float table with axes (filter, realization,
measure): the relative Frobenius reconstruction error, the mean and
per-source Pearson correlations, and errors of the MVAR coefficients
and PDC/DTF spectra refitted from the reconstruction against the
generating model and its refit.  One evaluate call scores all distinct
estimates of a realization together with its truth, in batched
passes; the writers read the whole table.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# fit and connectivity_spectrum are bound here because bench/tracing.py
# wraps metrics.fit and metrics.connectivity_spectrum by name.
from .connectivity import connectivity_spectra, connectivity_spectrum  # noqa: F401
from .errors import ParseError, ShapeMismatch
from .mvar import MvarModel, fit, fit_coefficients  # noqa: F401

SCALAR_MEASURES = ("signal_euclid", "signal_corr", "mvar_coeff_err", "pdc_err", "dtf_err")

# evaluate works through the series stack in groups whose largest
# per-series temporary (a complex spectrum or a signal-sized copy)
# totals at most this many bytes, so its extra memory does not grow
# with the number of estimates.
_GROUP_BYTES = 1 << 20


def measure_names(n_sources: int) -> list[str]:
    """The measures along a score table's last axis, in canonical
    order: the scalar measures, with the per-source correlations
    corr_src_0 .. corr_src_{n_sources-1} after signal_corr."""
    sources = [f"corr_src_{i}" for i in range(n_sources)]
    return [*SCALAR_MEASURES[:2], *sources, *SCALAR_MEASURES[2:]]


def _measures_of(table: np.ndarray) -> list[str]:
    return measure_names(table.shape[-1] - len(SCALAR_MEASURES))


@dataclass(frozen=True)
class SummaryRow:
    filter_name: str
    measure: str
    mean: float
    std: float


@dataclass(frozen=True)
class Scores:
    """The measures of k estimates of one realization: row i of the
    (k, len(measure_names(l))) table belongs to estimate i.  `failed`
    marks rows whose refit, or the truth's, was rank-deficient."""

    table: np.ndarray
    failed: np.ndarray

    @property
    def fit_failed(self) -> int:
        """Number of failed rows."""
        return int(np.count_nonzero(self.failed))


def _pearson(truth_centered: np.ndarray, truth_norms: np.ndarray, series: np.ndarray):
    """Centered per-source correlations of a (g, l, n) stack with the
    truth, shape (g, l); 0.0 where either side has no variance.

    Values within a few ulps of +/-1 are snapped onto the bound: the
    true correlation cannot leave [-1, 1], so the excess is rounding
    noise and perfect reconstructions must score exactly 1.
    """
    centered = series - series.mean(axis=-1, keepdims=True)
    norms = np.sqrt(np.sum(centered * centered, axis=-1))
    dots = np.sum(centered * truth_centered, axis=-1)
    silent = (norms == 0.0) | (truth_norms == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = dots / (truth_norms * norms)
    snapped = np.abs(values) >= 1.0 - 8.0 * np.finfo(float).eps
    values = np.where(snapped, np.sign(values), values)
    return np.where(silent, 0.0, values)


def _row_norms(values: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of values.reshape(len(values), -1).

    A sum along the contiguous last axis adds each row by itself, so a
    row's norm does not depend on the rows beside it.
    """
    rows = values.reshape(len(values), -1)
    return np.sqrt(np.sum(rows * rows, axis=1))


def _group_size(length: int, dim: int, n_freqs: int) -> int:
    """Series per group: as many as keep the largest per-series
    temporary of evaluate within _GROUP_BYTES, and at least one."""
    per_series = max(
        16 * n_freqs * dim * dim,  # complex coefficient transform
        8 * dim * length,  # centered copy, difference to the truth
    )
    return max(1, _GROUP_BYTES // per_series)


def evaluate(
    model: MvarModel, freqs: np.ndarray, series: np.ndarray, realization: int = 0
) -> Scores:
    """Score k reconstructions against the generating ground truth.

    model generated the true signal and sets the order of every refit;
    freqs is the grid of the spectra; realization only labels the call.
    series has shape (k + 1, l, n): row 0 is the true signal and rows
    1 .. k the estimates; the caller writes both into one buffer.  The
    coefficient error compares the generating model's coefficients
    with those refitted on each estimate.  The PDC/DTF errors compare
    the spectra of two refits, the truth's and the estimate's, so both
    pass through the same estimator and a perfect reconstruction
    scores exactly zero.  The truth and the estimates are refitted and
    transformed together, a group of rows at a time (_group_size).  A
    rank-deficient refit is flagged rather than fatal: that row's
    model and spectrum errors become NaN and it counts as failed; a
    rank-deficient truth fails every row.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 3 or series.shape[0] < 1:
        raise ShapeMismatch(
            f"series must stack the truth and its estimates as (k + 1, l, n), "
            f"got shape {series.shape}"
        )
    signal = series[0]
    denom = float(_row_norms(signal[None])[0])
    if denom == 0.0:
        raise ValueError("ground truth signal is identically zero")
    truth_centered = signal - signal.mean(axis=-1, keepdims=True)
    truth_norms = np.sqrt(np.sum(truth_centered * truth_centered, axis=-1))

    rows, dim, length = series.shape
    euclid = np.empty(rows)
    correlations = np.empty((rows, dim))
    coeff_err = np.empty(rows)
    pdc_err = np.full(rows, np.nan)
    dtf_err = np.full(rows, np.nan)
    regular = np.empty(rows, dtype=bool)
    group = _group_size(length, dim, len(freqs))
    for start in range(0, rows, group):
        chunk = series[start : start + group]
        span = slice(start, start + len(chunk))
        euclid[span] = _row_norms(chunk - signal) / denom
        correlations[span] = _pearson(truth_centered, truth_norms, chunk)
        coeffs, regular[span] = fit_coefficients(chunk, model.order)
        coeff_err[span] = _row_norms(coeffs - model.coeffs)
        usable = regular[span] & regular[0]
        if usable.any():
            pdc, dtf = connectivity_spectra(coeffs[usable], freqs)
            if start == 0:
                true_pdc, true_dtf = pdc[0].copy(), dtf[0].copy()
            pdc -= true_pdc
            dtf -= true_dtf
            pdc_err[span][usable] = _row_norms(pdc)
            dtf_err[span][usable] = _row_norms(dtf)
    failed = ~(regular & regular[0])
    coeff_err[failed] = np.nan
    table = np.column_stack(
        [euclid, correlations.mean(axis=1), correlations, coeff_err, pdc_err, dtf_err]
    )
    return Scores(table=table[1:], failed=failed[1:])


def aggregate(names: list[str], table: np.ndarray) -> list[SummaryRow]:
    """Mean and population std of every (filter, measure) series of a
    (filter, realization, measure) table; names label its first axis.

    Each series is reduced along a contiguous last axis, which adds it
    exactly as a 1-d np.mean / np.std of that series would.
    """
    series = np.ascontiguousarray(table.transpose(0, 2, 1))
    means, stds = series.mean(axis=-1).tolist(), series.std(axis=-1).tolist()
    measures = _measures_of(table)
    return [
        SummaryRow(name, measure, mean, std)
        for name, filter_means, filter_stds in zip(names, means, stds)
        for measure, mean, std in zip(measures, filter_means, filter_stds)
    ]


def write_results_csv(names: list[str], table: np.ndarray, path: str | Path) -> None:
    """Long format filter,realization,measure,value from a (filter,
    realization, measure) table: filters in the order of names,
    realizations from 1, measures in canonical order."""
    measures = _measures_of(table)
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["filter", "realization", "measure", "value"])
        for name, rows in zip(names, table.tolist()):
            for realization, values in enumerate(rows, start=1):
                writer.writerows(
                    [name, realization, measure, repr(value)]
                    for measure, value in zip(measures, values)
                )


def write_summary_csv(summary: list[SummaryRow], path: str | Path) -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["filter", "measure", "mean", "std"])
        for row in summary:
            writer.writerow(
                [row.filter_name, row.measure, repr(row.mean), repr(row.std)]
            )


def load_summary_csv(path: str | Path) -> list[SummaryRow]:
    path = Path(path)
    rows: list[SummaryRow] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["filter", "measure", "mean", "std"]:
            raise ParseError(f"{path}:1: unexpected summary header {header}")
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 fields")
            try:
                rows.append(
                    SummaryRow(record[0], record[1], float(record[2]), float(record[3]))
                )
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: malformed float") from exc
    return rows


def render_report(summary: list[SummaryRow]) -> str:
    """Fixed-width table: filters as rows, scalar measures as columns.

    Cells show mean over realizations with the population std in
    parentheses, both at 4 significant digits.
    """
    cells: dict[tuple[str, str], str] = {}
    names: list[str] = []
    for row in summary:
        if row.filter_name not in names:
            names.append(row.filter_name)
        if row.measure in SCALAR_MEASURES:
            cells[(row.filter_name, row.measure)] = f"{row.mean:.4g} ({row.std:.4g})"

    header = ["filter"] + list(SCALAR_MEASURES)
    table = [header]
    for name in names:
        table.append(
            [name] + [cells.get((name, measure), "-") for measure in SCALAR_MEASURES]
        )
    widths = [max(len(line[col]) for line in table) for col in range(len(header))]
    lines = []
    for i, line in enumerate(table):
        padded = [line[0].ljust(widths[0])] + [
            cell.rjust(width) for cell, width in zip(line[1:], widths[1:])
        ]
        lines.append("  ".join(padded).rstrip())
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
