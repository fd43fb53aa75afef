"""Tests for reconstruction scoring and result serialization."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest

from beambench import metrics
from beambench.connectivity import connectivity_spectrum, default_freqs
from beambench.errors import ParseError, RankDeficientRegressor, ShapeMismatch
from beambench.metrics import (
    EvalRow,
    SCALAR_MEASURES,
    SummaryRow,
    Truth,
    _padded_stack,
    _pearson,
    aggregate,
    evaluate,
    load_summary_csv,
    render_report,
    row_measures,
    write_results_csv,
    write_summary_csv,
)
from beambench.mvar import fit, make_mask, sample_stable_mvar, simulate


@pytest.fixture(scope="module")
def truth_setup():
    rng = np.random.default_rng(90)
    mask = make_mask(3, 1.0, rng)
    model = sample_stable_mvar(3, 2, mask, 0.9, (-0.6, 0.6), 100, rng)
    truth = simulate(model, 600, rng)
    return model, truth


def score(truth, estimate, model, name="F", realization=1):
    return evaluate(
        Truth(truth, model, model.order, default_freqs(33)), estimate, name, realization
    )


class TestEvaluate:
    def test_perfect_reconstruction_scores_exactly(self, truth_setup):
        model, truth = truth_setup
        row = score(truth, truth.copy(), model)
        assert row.signal_euclid == 0.0
        assert row.source_correlations == (1.0, 1.0, 1.0)
        assert row.signal_corr == 1.0
        assert row.pdc_err == 0.0
        assert row.dtf_err == 0.0
        assert not row.fit_failed

    def test_scaling_preserves_correlation_but_not_distance(self, truth_setup):
        model, truth = truth_setup
        row = score(truth, 2.0 * truth, model)
        assert row.source_correlations == (1.0, 1.0, 1.0)
        assert row.signal_euclid == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip_gives_minus_one_correlation(self, truth_setup):
        model, truth = truth_setup
        row = score(truth, -truth, model)
        assert row.source_correlations == (-1.0, -1.0, -1.0)

    def test_white_noise_estimate_decorrelates(self, truth_setup):
        model, truth = truth_setup
        noise = np.random.default_rng(91).standard_normal(truth.shape)
        row = score(truth, noise, model)
        assert abs(row.signal_corr) <= 0.1
        assert row.signal_euclid > 0.5
        assert row.pdc_err > 0.0 and row.dtf_err > 0.0

    def test_constant_estimate_flags_fit_failure(self, truth_setup):
        model, truth = truth_setup
        row = score(truth, np.zeros_like(truth), model)
        assert row.fit_failed
        assert math.isnan(row.mvar_coeff_err)
        assert math.isnan(row.pdc_err)
        assert math.isnan(row.dtf_err)
        assert row.source_correlations == (0.0, 0.0, 0.0)

    def test_coefficient_error_pads_to_common_order(self, truth_setup):
        model, truth = truth_setup
        higher = Truth(truth, model, model.order + 2, default_freqs(33))
        row = evaluate(higher, truth.copy())
        # refit at a higher order: extra taps are near zero, so the
        # coefficient error stays close to the fit noise floor
        assert row.mvar_coeff_err < 0.5

    def test_shape_mismatch_rejected(self, truth_setup):
        model, truth = truth_setup
        with pytest.raises(ShapeMismatch):
            score(truth, truth[:, :-1], model)

    def test_zero_truth_rejected(self, truth_setup):
        model, truth = truth_setup
        with pytest.raises(ValueError, match="zero"):
            score(np.zeros_like(truth), truth, model)


def per_call_reference(
    truth, estimate, true_model, fit_order, freqs, name, realization
):
    """The scoring body as it was when every call refitted the truth."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    euclid = float(np.linalg.norm(estimate - truth)) / float(np.linalg.norm(truth))
    correlations = tuple(_pearson(truth[i], estimate[i]) for i in range(truth.shape[0]))
    try:
        fitted = fit(estimate, fit_order)
        refit_truth = fit(truth, fit_order)
        fit_failed = False
    except RankDeficientRegressor:
        fitted = refit_truth = None
        fit_failed = True
    if fit_failed:
        coeff_err = pdc_err = dtf_err = float("nan")
    else:
        order = max(true_model.order, fitted.order)
        coeff_err = float(
            np.linalg.norm(_padded_stack(true_model, order) - _padded_stack(fitted, order))
        )
        spec_true = connectivity_spectrum(refit_truth, freqs)
        spec_fit = connectivity_spectrum(fitted, freqs)
        pdc_err = float(np.linalg.norm(spec_true.pdc - spec_fit.pdc))
        dtf_err = float(np.linalg.norm(spec_true.dtf - spec_fit.dtf))
    return EvalRow(
        filter_name=name,
        realization=realization,
        signal_euclid=euclid,
        source_correlations=correlations,
        signal_corr=float(np.mean(correlations)),
        mvar_coeff_err=coeff_err,
        pdc_err=pdc_err,
        dtf_err=dtf_err,
        fit_failed=fit_failed,
    )


def assert_same_row(row, expected):
    """Field by field with ==; a NaN matches only a NaN."""
    for field in fields(EvalRow):
        got, want = getattr(row, field.name), getattr(expected, field.name)
        if isinstance(want, float) and math.isnan(want):
            assert math.isnan(got), field.name
        else:
            assert got == want, field.name


class TestSharedTruth:
    @staticmethod
    def estimates(truth):
        noise = np.random.default_rng(92).standard_normal(truth.shape)
        return {
            "copy": truth.copy(),
            "double": 2.0 * truth,
            "noise": noise,
            "zeros": np.zeros_like(truth),
        }

    @staticmethod
    def counting_fit(monkeypatch) -> list[np.ndarray]:
        seen: list[np.ndarray] = []
        original = metrics.fit

        def spy(series, order):
            seen.append(series)
            return original(series, order)

        monkeypatch.setattr(metrics, "fit", spy)
        return seen

    def test_rows_equal_a_refit_per_call(self, truth_setup, monkeypatch):
        model, truth = truth_setup
        freqs = default_freqs(33)
        shared = Truth(truth, model, model.order, freqs)
        fitted = self.counting_fit(monkeypatch)
        rows = {
            name: evaluate(shared, estimate, name, 3)
            for name, estimate in self.estimates(truth).items()
        }
        assert sum(series is shared.signal for series in fitted) == 1
        assert rows["zeros"].fit_failed
        assert not any(rows[name].fit_failed for name in ("copy", "double", "noise"))
        for name, estimate in self.estimates(truth).items():
            expected = per_call_reference(
                truth, estimate, model, model.order, freqs, name, 3
            )
            assert_same_row(rows[name], expected)

    def test_rank_deficient_truth_fails_every_row_and_is_fitted_once(
        self, truth_setup, monkeypatch
    ):
        model, truth = truth_setup
        constant = truth.copy()
        constant[1] = 1.0
        shared = Truth(constant, model, model.order, default_freqs(33))
        fitted = self.counting_fit(monkeypatch)
        rows = [evaluate(shared, estimate) for estimate in self.estimates(truth).values()]
        assert all(row.fit_failed for row in rows)
        assert all(math.isnan(row.pdc_err) and math.isnan(row.dtf_err) for row in rows)
        assert sum(series is shared.signal for series in fitted) == 1
        assert shared.refit is None


class TestRowMeasures:
    def test_canonical_order(self):
        row = EvalRow(
            filter_name="F",
            realization=1,
            signal_euclid=0.5,
            source_correlations=(0.1, 0.2),
            signal_corr=0.15,
            mvar_coeff_err=1.0,
            pdc_err=2.0,
            dtf_err=3.0,
        )
        names = [measure for measure, _ in row_measures(row)]
        assert names == [
            "signal_euclid",
            "signal_corr",
            "corr_src_0",
            "corr_src_1",
            "mvar_coeff_err",
            "pdc_err",
            "dtf_err",
        ]


def make_row(name, realization, base):
    return EvalRow(
        filter_name=name,
        realization=realization,
        signal_euclid=base,
        source_correlations=(base / 2.0, base / 4.0),
        signal_corr=3.0 * base / 8.0,
        mvar_coeff_err=base + 1.0,
        pdc_err=base + 2.0,
        dtf_err=base + 3.0,
    )


class TestAggregate:
    def test_mean_and_population_std(self):
        rows = [make_row("ZF", 1, 1.0), make_row("ZF", 2, 3.0)]
        summary = aggregate(rows)
        euclid = next(r for r in summary if r.measure == "signal_euclid")
        assert euclid.mean == pytest.approx(2.0)
        assert euclid.std == pytest.approx(1.0)  # population, not sample

    def test_single_realization_has_zero_std(self):
        summary = aggregate([make_row("ZF", 1, 1.5)])
        assert all(r.std == 0.0 for r in summary)

    def test_identical_rows_have_zero_std(self):
        summary = aggregate([make_row("ZF", 1, 1.5), make_row("ZF", 2, 1.5)])
        assert all(r.std == 0.0 for r in summary)

    def test_invariant_to_row_order(self):
        rows = [
            make_row("ZF", 1, 1.0),
            make_row("ZF", 2, 3.0),
            make_row("LCMV_R", 1, 0.5),
            make_row("LCMV_R", 2, 0.7),
        ]
        forward = aggregate(rows)
        backward = aggregate(rows[::-1])
        assert forward == backward

    def test_known_filters_come_in_bank_order(self):
        rows = [make_row("ZF", 1, 1.0), make_row("LCMV_R", 1, 1.0)]
        names = []
        for row in aggregate(rows):
            if row.filter_name not in names:
                names.append(row.filter_name)
        assert names == ["LCMV_R", "ZF"]

    def test_unknown_filters_sort_after_known_ones(self):
        rows = [make_row("zeta", 1, 1.0), make_row("alpha", 1, 1.0), make_row("ZF", 1, 1.0)]
        names = []
        for row in aggregate(rows):
            if row.filter_name not in names:
                names.append(row.filter_name)
        assert names == ["ZF", "alpha", "zeta"]


class TestResultsCsv:
    def test_long_format_layout(self, tmp_path):
        rows = [make_row("ZF", 1, 1.0), make_row("ZF", 2, 3.0)]
        path = tmp_path / "results.csv"
        write_results_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "filter,realization,measure,value"
        assert len(lines) == 1 + 2 * len(row_measures(rows[0]))
        assert lines[1] == "ZF,1,signal_euclid,1.0"

    def test_values_round_trip_through_repr(self, tmp_path):
        value = 0.1 + 0.2  # not exactly representable as short decimal
        rows = [make_row("ZF", 1, value)]
        path = tmp_path / "results.csv"
        write_results_csv(rows, path)
        for line in path.read_text().splitlines()[1:]:
            if ",signal_euclid," in line:
                assert float(line.rsplit(",", 1)[1]) == value


class TestSummaryCsv:
    def test_round_trip_is_exact(self, tmp_path):
        summary = aggregate([make_row("ZF", 1, 1.0), make_row("ZF", 2, 3.1)])
        path = tmp_path / "summary.csv"
        write_summary_csv(summary, path)
        assert load_summary_csv(path) == summary

    def test_bad_header_names_line_one(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text("a,b,c,d\n")
        with pytest.raises(ParseError, match=":1: unexpected summary header"):
            load_summary_csv(path)

    def test_short_record_names_its_line(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text("filter,measure,mean,std\nZF,signal_corr,0.5\n")
        with pytest.raises(ParseError, match=":2: expected 4 fields"):
            load_summary_csv(path)

    def test_malformed_float_names_its_line(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text("filter,measure,mean,std\nZF,signal_corr,0.5,0.1\nZF,pdc_err,oops,0.1\n")
        with pytest.raises(ParseError, match=":3: malformed float"):
            load_summary_csv(path)


class TestRenderReport:
    def test_table_structure(self):
        summary = aggregate(
            [
                make_row("LCMV_R", 1, 0.5),
                make_row("LCMV_R", 2, 0.7),
                make_row("ZF", 1, 1.0),
            ]
        )
        text = render_report(summary)
        lines = text.split("\n")
        assert lines[0].split()[0] == "filter"
        for measure in SCALAR_MEASURES:
            assert measure in lines[0]
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 2 + 2  # header, rule, one line per filter
        assert lines[2].startswith("LCMV_R")
        assert lines[3].startswith("ZF")

    def test_cells_show_mean_and_std(self):
        summary = aggregate([make_row("ZF", 1, 1.0), make_row("ZF", 2, 3.0)])
        text = render_report(summary)
        assert "2 (1)" in text

    def test_no_trailing_whitespace(self):
        summary = aggregate([make_row("ZF", 1, 1.0)])
        for line in render_report(summary).split("\n"):
            assert line == line.rstrip()
