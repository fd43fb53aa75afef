"""Reconstruction quality measures, aggregation and report rendering.

Every (filter, realization) pair yields one EvalRow holding the
relative Frobenius reconstruction error, per-source and mean Pearson
correlations, and errors of the MVAR coefficients and PDC/DTF spectra
refitted from the reconstruction against the generating model and its
refit.  One evaluate call scores all distinct estimates of a
realization together with its truth, in batched passes.
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
from .filters import FilterKind
from .mvar import MvarModel, fit, fit_coefficients  # noqa: F401

SCALAR_MEASURES = ("signal_euclid", "signal_corr", "mvar_coeff_err", "pdc_err", "dtf_err")

# evaluate works through the series stack in groups whose largest
# per-series temporary (a complex spectrum or a signal-sized copy)
# totals at most this many bytes, so its extra memory does not grow
# with the number of estimates.
_GROUP_BYTES = 1 << 20


@dataclass(frozen=True)
class EvalRow:
    """All measures for one filter on one realization."""

    filter_name: str
    realization: int
    signal_euclid: float
    source_correlations: tuple[float, ...]
    signal_corr: float
    mvar_coeff_err: float
    pdc_err: float
    dtf_err: float
    fit_failed: bool = False


@dataclass(frozen=True)
class SummaryRow:
    filter_name: str
    measure: str
    mean: float
    std: float


@dataclass(frozen=True)
class Truth:
    """The generating side of one realization: its source model, the
    order of every refit, and the frequency grid of the spectra.  The
    true signal itself is row 0 of the stack that evaluate scores."""

    model: MvarModel
    fit_order: int
    freqs: np.ndarray


@dataclass(frozen=True)
class Scores:
    """The measures of k estimates of one realization; entry i of each
    array belongs to estimate i.  `failed` marks rows whose refit, or
    the truth's, was rank-deficient."""

    realization: int
    signal_euclid: np.ndarray
    source_correlations: np.ndarray
    signal_corr: np.ndarray
    mvar_coeff_err: np.ndarray
    pdc_err: np.ndarray
    dtf_err: np.ndarray
    failed: np.ndarray

    @property
    def fit_failed(self) -> int:
        """Number of failed rows."""
        return int(np.count_nonzero(self.failed))

    def row(self, index: int, filter_name: str) -> EvalRow:
        return EvalRow(
            filter_name=filter_name,
            realization=self.realization,
            signal_euclid=float(self.signal_euclid[index]),
            source_correlations=tuple(self.source_correlations[index].tolist()),
            signal_corr=float(self.signal_corr[index]),
            mvar_coeff_err=float(self.mvar_coeff_err[index]),
            pdc_err=float(self.pdc_err[index]),
            dtf_err=float(self.dtf_err[index]),
            fit_failed=bool(self.failed[index]),
        )


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


def _coeff_distance(coeffs: np.ndarray, true_coeffs: np.ndarray) -> np.ndarray:
    """Frobenius distances of (g, p, d, d) coefficient tensors from one
    (q, d, d) tensor, the shorter one padded with zero lags."""
    order = max(coeffs.shape[1], true_coeffs.shape[0])
    diff = np.zeros((len(coeffs), order) + true_coeffs.shape[1:])
    diff[:, : coeffs.shape[1]] = coeffs
    diff[:, : true_coeffs.shape[0]] -= true_coeffs
    return _row_norms(diff)


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


def evaluate(truth: Truth, series: np.ndarray, realization: int = 0) -> Scores:
    """Score k reconstructions against the generating ground truth.

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
    group = _group_size(length, dim, len(truth.freqs))
    for start in range(0, rows, group):
        chunk = series[start : start + group]
        span = slice(start, start + len(chunk))
        euclid[span] = _row_norms(chunk - signal) / denom
        correlations[span] = _pearson(truth_centered, truth_norms, chunk)
        coeffs, regular[span] = fit_coefficients(chunk, truth.fit_order)
        coeff_err[span] = _coeff_distance(coeffs, truth.model.coeffs)
        usable = regular[span] & regular[0]
        if usable.any():
            pdc, dtf = connectivity_spectra(coeffs[usable], truth.freqs)
            if start == 0:
                true_pdc, true_dtf = pdc[0].copy(), dtf[0].copy()
            pdc -= true_pdc
            dtf -= true_dtf
            pdc_err[span][usable] = _row_norms(pdc)
            dtf_err[span][usable] = _row_norms(dtf)
    failed = ~(regular & regular[0])
    coeff_err[failed] = np.nan

    return Scores(
        realization=realization,
        signal_euclid=euclid[1:],
        source_correlations=correlations[1:],
        signal_corr=correlations[1:].mean(axis=1),
        mvar_coeff_err=coeff_err[1:],
        pdc_err=pdc_err[1:],
        dtf_err=dtf_err[1:],
        failed=failed[1:],
    )


def row_measures(row: EvalRow) -> list[tuple[str, float]]:
    """Flatten a row into (measure, value) pairs in canonical order."""
    pairs = [
        ("signal_euclid", row.signal_euclid),
        ("signal_corr", row.signal_corr),
    ]
    pairs.extend(
        (f"corr_src_{i}", value) for i, value in enumerate(row.source_correlations)
    )
    pairs.extend(
        [
            ("mvar_coeff_err", row.mvar_coeff_err),
            ("pdc_err", row.pdc_err),
            ("dtf_err", row.dtf_err),
        ]
    )
    return pairs


_KNOWN_ORDER = {kind.value: i for i, kind in enumerate(FilterKind)}


def _filter_order(names: set[str]) -> list[str]:
    known = sorted(
        (name for name in names if name in _KNOWN_ORDER), key=_KNOWN_ORDER.__getitem__
    )
    unknown = sorted(name for name in names if name not in _KNOWN_ORDER)
    return known + unknown


def aggregate(rows: list[EvalRow]) -> list[SummaryRow]:
    """Per-filter mean and population std of every measure.

    Rows are re-sorted internally (filter bank order, then realization)
    so the result is invariant to the order rows arrive in.
    """
    order = _filter_order({row.filter_name for row in rows})
    out: list[SummaryRow] = []
    for name in order:
        mine = sorted(
            (row for row in rows if row.filter_name == name),
            key=lambda row: row.realization,
        )
        by_measure: dict[str, list[float]] = {}
        for row in mine:
            for measure, value in row_measures(row):
                by_measure.setdefault(measure, []).append(value)
        for measure, values in by_measure.items():
            arr = np.asarray(values, dtype=float)
            out.append(
                SummaryRow(
                    filter_name=name,
                    measure=measure,
                    mean=float(arr.mean()),
                    std=float(arr.std()),
                )
            )
    return out


def write_results_csv(rows: list[EvalRow], path: str | Path) -> None:
    """Long format: filter,realization,measure,value."""
    order = _filter_order({row.filter_name for row in rows})
    ranked = sorted(rows, key=lambda row: (order.index(row.filter_name), row.realization))
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["filter", "realization", "measure", "value"])
        for row in ranked:
            for measure, value in row_measures(row):
                writer.writerow(
                    [row.filter_name, row.realization, measure, repr(float(value))]
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
