"""Reconstruction quality measures, aggregation and report rendering.

Every (filter, realization) pair yields one EvalRow holding the
relative Frobenius reconstruction error, per-source and mean Pearson
correlations, and errors of the MVAR coefficients and PDC/DTF spectra
refitted from the reconstruction against the generating model and its
refit.  The truth side is one Truth per realization, refitted once and
read by every filter's score.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .connectivity import ConnectivitySpectrum, connectivity_spectrum
from .errors import ParseError, RankDeficientRegressor, ShapeMismatch
from .filters import FilterKind
from .mvar import MvarModel, fit

SCALAR_MEASURES = ("signal_euclid", "signal_corr", "mvar_coeff_err", "pdc_err", "dtf_err")


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


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Centered correlation; 0.0 when either input has no variance.

    Values within a few ulps of +/-1 are snapped onto the bound: the
    true correlation cannot leave [-1, 1], so the excess is rounding
    noise and perfect reconstructions must score exactly 1.
    """
    a = a - a.mean()
    b = b - b.mean()
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    value = float(a @ b / (norm_a * norm_b))
    if abs(value) >= 1.0 - 8.0 * np.finfo(float).eps:
        return 1.0 if value > 0.0 else -1.0
    return value


def _padded_stack(model: MvarModel, order: int) -> np.ndarray:
    stack = np.zeros((model.dim, order * model.dim))
    stack[:, : model.order * model.dim] = model.coeff_stack()
    return stack


@dataclass(frozen=True)
class Truth:
    """The ground truth of one realization, shared by every filter's score.

    `refit` (None when the fit is rank-deficient) and its `spectrum`
    are computed on first read, so one realization refits its truth at
    most once however many filters are scored against it.
    """

    signal: np.ndarray
    model: MvarModel
    fit_order: int
    freqs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "signal", np.asarray(self.signal, dtype=float))

    @cached_property
    def refit(self) -> MvarModel | None:
        try:
            return fit(self.signal, self.fit_order)
        except RankDeficientRegressor:
            return None

    @cached_property
    def spectrum(self) -> ConnectivitySpectrum:
        return connectivity_spectrum(self.refit, self.freqs)


def evaluate(
    truth: Truth,
    estimate: np.ndarray,
    filter_name: str = "",
    realization: int = 0,
) -> EvalRow:
    """Score one reconstruction against the generating ground truth.

    The coefficient error compares the generating model's stack with a
    model refitted on the estimate.  The PDC/DTF errors compare the
    spectra of two refits, the truth's and the estimate's, so both
    pass through the same estimator and a perfect reconstruction
    scores exactly zero.  The truth is refitted only once the
    estimate's fit has succeeded.  A rank-deficient refit is flagged
    rather than fatal: the model and spectrum errors become NaN and
    fit_failed is set.
    """
    signal = truth.signal
    estimate = np.asarray(estimate, dtype=float)
    if signal.shape != estimate.shape:
        raise ShapeMismatch(
            f"truth shape {signal.shape} differs from estimate shape {estimate.shape}"
        )
    denom = float(np.linalg.norm(signal))
    if denom == 0.0:
        raise ValueError("ground truth signal is identically zero")
    euclid = float(np.linalg.norm(estimate - signal)) / denom
    correlations = tuple(_pearson(signal[i], estimate[i]) for i in range(signal.shape[0]))

    try:
        fitted = fit(estimate, truth.fit_order)
    except RankDeficientRegressor:
        fitted = None
    fit_failed = fitted is None or truth.refit is None

    if fit_failed:
        coeff_err = pdc_err = dtf_err = float("nan")
    else:
        order = max(truth.model.order, fitted.order)
        coeff_err = float(
            np.linalg.norm(_padded_stack(truth.model, order) - _padded_stack(fitted, order))
        )
        spec_true = truth.spectrum
        spec_fit = connectivity_spectrum(fitted, truth.freqs)
        pdc_err = float(np.linalg.norm(spec_true.pdc - spec_fit.pdc))
        dtf_err = float(np.linalg.norm(spec_true.dtf - spec_fit.dtf))

    return EvalRow(
        filter_name=filter_name,
        realization=realization,
        signal_euclid=euclid,
        source_correlations=correlations,
        signal_corr=float(np.mean(correlations)),
        mvar_coeff_err=coeff_err,
        pdc_err=pdc_err,
        dtf_err=dtf_err,
        fit_failed=fit_failed,
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
