"""Tests for reconstruction scoring and result serialization."""

from __future__ import annotations

import csv
import math
import tracemalloc

import numpy as np
import pytest

from beambench import metrics
from beambench.config import SetupConfig
from beambench.connectivity import connectivity_spectrum, default_freqs
from beambench.errors import ParseError, RankDeficientRegressor, ShapeMismatch
from beambench.filters import FilterKind
from beambench.metrics import (
    SCALAR_MEASURES,
    aggregate,
    evaluate,
    load_summary_csv,
    measure_names,
    render_report,
    write_results_csv,
    write_summary_csv,
)
from beambench.mvar import fit, make_mask, sample_stable_mvar, simulate
from beambench.pipeline import _filter_specs

RTOL, ATOL = 1e-12, 1e-14


@pytest.fixture(scope="module")
def truth_setup():
    rng = np.random.default_rng(90)
    mask = make_mask(3, 1.0, rng)
    model = sample_stable_mvar(3, 2, mask, 0.9, (-0.6, 0.6), 100, rng)
    truth = simulate(model, 600, rng)
    return model, truth


def stack(truth, estimates) -> np.ndarray:
    """The (k + 1, l, n) series that evaluate scores: truth first."""
    return np.stack([truth, *estimates])


def rows_of(scores) -> list[dict[str, float]]:
    """Each row of a Scores table, keyed by measure name."""
    names = measure_names(scores.table.shape[1] - len(SCALAR_MEASURES))
    return [dict(zip(names, row)) for row in scores.table.tolist()]


def correlations(row: dict[str, float]) -> list[float]:
    return [value for name, value in row.items() if name.startswith("corr_src_")]


def score(truth, estimate, model):
    """The named measures of one estimate, and whether its refit failed."""
    scores = evaluate(model, default_freqs(33), stack(truth, [estimate]), 1)
    return rows_of(scores)[0], bool(scores.failed[0])


class TestEvaluate:
    def test_perfect_reconstruction_scores_exactly(self, truth_setup):
        model, truth = truth_setup
        row, failed = score(truth, truth.copy(), model)
        assert row["signal_euclid"] == 0.0
        assert correlations(row) == [1.0, 1.0, 1.0]
        assert row["signal_corr"] == 1.0
        assert row["pdc_err"] == 0.0
        assert row["dtf_err"] == 0.0
        assert not failed

    def test_scaling_preserves_correlation_but_not_distance(self, truth_setup):
        model, truth = truth_setup
        row, _ = score(truth, 2.0 * truth, model)
        assert correlations(row) == [1.0, 1.0, 1.0]
        assert row["signal_euclid"] == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip_gives_minus_one_correlation(self, truth_setup):
        model, truth = truth_setup
        row, _ = score(truth, -truth, model)
        assert correlations(row) == [-1.0, -1.0, -1.0]

    def test_white_noise_estimate_decorrelates(self, truth_setup):
        model, truth = truth_setup
        noise = np.random.default_rng(91).standard_normal(truth.shape)
        row, _ = score(truth, noise, model)
        assert abs(row["signal_corr"]) <= 0.1
        assert row["signal_euclid"] > 0.5
        assert row["pdc_err"] > 0.0 and row["dtf_err"] > 0.0

    def test_constant_estimate_flags_fit_failure(self, truth_setup):
        model, truth = truth_setup
        row, failed = score(truth, np.zeros_like(truth), model)
        assert failed
        assert math.isnan(row["mvar_coeff_err"])
        assert math.isnan(row["pdc_err"])
        assert math.isnan(row["dtf_err"])
        assert correlations(row) == [0.0, 0.0, 0.0]

    def test_shape_mismatch_rejected(self, truth_setup):
        model, truth = truth_setup
        with pytest.raises(ShapeMismatch):
            evaluate(model, default_freqs(33), truth)

    def test_zero_truth_rejected(self, truth_setup):
        model, truth = truth_setup
        with pytest.raises(ValueError, match="zero"):
            score(np.zeros_like(truth), truth, model)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_refit_raises(self, truth_setup):
        model, truth = truth_setup
        broken = truth.copy()
        broken[0, 100] = np.inf
        with pytest.raises(ValueError):
            score(truth, broken, model)

    def test_fit_failed_counts_the_failed_rows(self, truth_setup):
        model, truth = truth_setup
        series = stack(truth, [truth, np.zeros_like(truth), 0.0 * truth])
        scores = evaluate(model, default_freqs(9), series, 4)
        assert scores.fit_failed == 2
        assert isinstance(scores.fit_failed, int)
        assert list(scores.failed) == [False, True, True]
        assert scores.table.shape == (3, len(measure_names(truth.shape[0])))


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
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


def per_call_reference(truth, estimate, true_model, freqs):
    """The scoring body as it was when every call scored one estimate
    and refitted the truth, both at the true model's order: its table
    row, and whether the refit failed."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    euclid = float(np.linalg.norm(estimate - truth)) / float(np.linalg.norm(truth))
    correlations = tuple(_pearson(truth[i], estimate[i]) for i in range(truth.shape[0]))
    try:
        fitted = fit(estimate, true_model.order)
        refit_truth = fit(truth, true_model.order)
        fit_failed = False
    except RankDeficientRegressor:
        fitted = refit_truth = None
        fit_failed = True
    if fit_failed:
        coeff_err = pdc_err = dtf_err = float("nan")
    else:
        coeff_err = float(np.linalg.norm(true_model.coeffs - fitted.coeffs))
        spec_true = connectivity_spectrum(refit_truth, freqs)
        spec_fit = connectivity_spectrum(fitted, freqs)
        pdc_err = float(np.linalg.norm(spec_true.pdc - spec_fit.pdc))
        dtf_err = float(np.linalg.norm(spec_true.dtf - spec_fit.dtf))
    named = {
        "signal_euclid": euclid,
        "signal_corr": float(np.mean(correlations)),
        **{f"corr_src_{i}": value for i, value in enumerate(correlations)},
        "mvar_coeff_err": coeff_err,
        "pdc_err": pdc_err,
        "dtf_err": dtf_err,
    }
    row = np.array([named[measure] for measure in measure_names(len(truth))])
    return row, fit_failed


def assert_close_row(scores, index, expected):
    """Row index of scores against an expected (row, failed) pair: the
    values to RTOL/ATOL, a NaN only matching a NaN, the flag exactly."""
    row, failed = expected
    np.testing.assert_allclose(scores.table[index], row, rtol=RTOL, atol=ATOL)
    assert bool(scores.failed[index]) == failed


def counting_rows(monkeypatch) -> list[np.ndarray]:
    """Record every series the stacked fit receives, row by row."""
    seen: list[np.ndarray] = []
    original = metrics.fit_coefficients

    def spy(series, order):
        seen.extend(np.array(row) for row in series)
        return original(series, order)

    monkeypatch.setattr(metrics, "fit_coefficients", spy)
    return seen


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

    def test_rows_equal_a_refit_per_call(self, truth_setup, monkeypatch):
        model, truth = truth_setup
        freqs = default_freqs(33)
        estimates = self.estimates(truth)
        fitted = counting_rows(monkeypatch)
        scores = evaluate(model, freqs, stack(truth, estimates.values()), 3)
        assert len(fitted) == 1 + len(estimates)
        assert np.array_equal(fitted[0], truth)
        assert list(scores.failed) == [name == "zeros" for name in estimates]
        assert scores.fit_failed == 1
        for index, estimate in enumerate(estimates.values()):
            expected = per_call_reference(truth, estimate, model, freqs)
            assert_close_row(scores, index, expected)

    def test_rank_deficient_truth_fails_every_row_and_is_fitted_once(
        self, truth_setup, monkeypatch
    ):
        model, truth = truth_setup
        constant = truth.copy()
        constant[1] = 1.0
        fitted = counting_rows(monkeypatch)
        estimates = self.estimates(truth)
        scores = evaluate(model, default_freqs(33), stack(constant, estimates.values()))
        rows = rows_of(scores)
        assert scores.failed.all()
        assert scores.fit_failed == len(estimates)
        for measure in ("mvar_coeff_err", "pdc_err", "dtf_err"):
            assert all(math.isnan(row[measure]) for row in rows)
        assert sum(np.array_equal(series, constant) for series in fitted) == 1


class TestBatchedScoringProperty:
    """One evaluate call over a stack scores each estimate as if alone."""

    @staticmethod
    def random_case(rng, dim, order, count):
        model = sample_stable_mvar(
            dim, order, make_mask(dim, 0.5, rng), 0.9, (-0.3, 0.3), 1000, rng
        )
        truth = simulate(model, 40 * order * dim + 200, rng)
        estimates = []
        for kind in rng.integers(0, 5, size=count):
            if kind == 0:  # an exact copy of the truth
                estimates.append(truth.copy())
            elif kind == 1:  # a scaled copy
                estimates.append(rng.uniform(-3.0, 3.0) * truth)
            elif kind == 2:  # a constant row makes the refit rank-deficient
                estimate = truth + 0.5 * rng.standard_normal(truth.shape)
                # a nonzero constant is a regular regressor at order 1
                estimate[rng.integers(dim)] = 0.0 if order == 1 else 1.5
                estimates.append(estimate)
            elif kind == 3:  # a random mixture plus noise
                mixing = rng.standard_normal((dim, dim))
                estimates.append(mixing @ truth + rng.standard_normal(truth.shape))
            else:  # white noise
                estimates.append(rng.standard_normal(truth.shape))
        return model, truth, estimates

    def test_rows_equal_single_and_per_call_scores(self, monkeypatch):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=25, deadline=None)
        @hyp.given(
            dim=st.integers(1, 4),
            order=st.integers(1, 4),
            count=st.integers(1, 6),
            rank_deficient_truth=st.booleans(),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(dim, order, count, rank_deficient_truth, seed):
            rng = np.random.default_rng(seed)
            model, truth, estimates = self.random_case(rng, dim, order, count)
            if rank_deficient_truth:
                hyp.assume(dim > 1)  # a zero signal is rejected outright
                truth[rng.integers(dim)] = 0.0
            freqs = default_freqs(17)
            series = stack(truth, estimates)

            monkeypatch.setattr(metrics, "_GROUP_BYTES", 1)
            one_per_group = evaluate(model, freqs, series, 5)
            monkeypatch.setattr(metrics, "_GROUP_BYTES", 1 << 40)
            whole = evaluate(model, freqs, series, 5)
            assert_same_bits(one_per_group, whole)
            if rank_deficient_truth:
                assert whole.fit_failed == count
            for index, estimate in enumerate(estimates):
                alone = evaluate(model, freqs, stack(truth, [estimate]), 5)
                assert_close_row(whole, index, (alone.table[0], bool(alone.failed[0])))
                expected = per_call_reference(truth, estimate, model, freqs)
                assert_close_row(whole, index, expected)

        check()


def assert_same_bits(a, b) -> None:
    """Two Scores equal value for value, a NaN matching only a NaN."""
    assert np.array_equal(a.table, b.table, equal_nan=True)
    assert np.array_equal(a.failed, b.failed)


class TestScoringMemory:
    def test_peak_does_not_grow_with_the_estimate_count(self):
        # spectral_heavy shapes: 6 sources, order 8, 1025 frequencies
        l, p, n_freqs, n = 6, 8, 1025, 2000
        rng = np.random.default_rng(93)
        mask = make_mask(l, 0.4, rng)
        model = sample_stable_mvar(l, p, mask, 0.95, (-0.2, 0.2), 1000, rng)
        truth = simulate(model, n, rng)
        noise = rng.standard_normal((9, l, n))
        freqs = default_freqs(n_freqs)

        def peak(k: int) -> int:
            tracemalloc.start()
            try:
                series = np.empty((k + 1, l, n))
                series[0] = truth
                np.add(truth, noise[:k], out=series[1:])
                evaluate(model, freqs, series)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)
        allowance = 10 * l * n * 8 + (1 << 20)
        assert peak(9) <= peak(1) + allowance


class TestRowMeasures:
    def test_canonical_order(self):
        assert measure_names(2) == [
            "signal_euclid",
            "signal_corr",
            "corr_src_0",
            "corr_src_1",
            "mvar_coeff_err",
            "pdc_err",
            "dtf_err",
        ]


def make_row(base: float) -> list[float]:
    """One table row of a two-source run, in canonical measure order."""
    named = {
        "signal_euclid": base,
        "corr_src_0": base / 2.0,
        "corr_src_1": base / 4.0,
        "signal_corr": 3.0 * base / 8.0,
        "mvar_coeff_err": base + 1.0,
        "pdc_err": base + 2.0,
        "dtf_err": base + 3.0,
    }
    return [named[measure] for measure in measure_names(2)]


def make_table(bases) -> np.ndarray:
    """A (filter, realization, measure) table; bases[f][r] seeds a row."""
    return np.array([[make_row(base) for base in row] for row in bases])


class TestAggregate:
    def test_mean_and_population_std(self):
        summary = aggregate(["ZF"], make_table([[1.0, 3.0]]))
        euclid = next(r for r in summary if r.measure == "signal_euclid")
        assert euclid.mean == pytest.approx(2.0)
        assert euclid.std == pytest.approx(1.0)  # population, not sample

    def test_single_realization_has_zero_std(self):
        summary = aggregate(["ZF"], make_table([[1.5]]))
        assert all(r.std == 0.0 for r in summary)

    def test_identical_rows_have_zero_std(self):
        summary = aggregate(["ZF"], make_table([[1.5, 1.5]]))
        assert all(r.std == 0.0 for r in summary)

    def test_known_filters_come_in_bank_order(self):
        specs = _filter_specs(SetupConfig(filters=("ZF", "RANDN", "LCMV_R")))
        names = [spec.name for spec in specs]
        assert names == ["LCMV_R", "ZF", "RANDN"]
        summary = aggregate(names, make_table([[1.0], [2.0], [3.0]]))
        firsts = {}
        for row in summary:
            firsts.setdefault(row.filter_name, row)
        assert list(firsts) == names
        assert [row.mean for row in firsts.values()] == [1.0, 2.0, 3.0]


class TestResultsCsv:
    def test_long_format_layout(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results_csv(["ZF"], make_table([[1.0, 3.0]]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "filter,realization,measure,value"
        assert len(lines) == 1 + 2 * len(measure_names(2))
        assert lines[1] == "ZF,1,signal_euclid,1.0"
        assert lines[1 + len(measure_names(2))] == "ZF,2,signal_euclid,3.0"

    def test_values_round_trip_through_repr(self, tmp_path):
        value = 0.1 + 0.2  # not exactly representable as short decimal
        path = tmp_path / "results.csv"
        write_results_csv(["ZF"], make_table([[value]]), path)
        for line in path.read_text().splitlines()[1:]:
            if ",signal_euclid," in line:
                assert float(line.rsplit(",", 1)[1]) == value


def same_bits(a: float, b: float) -> bool:
    """Equal bit for bit, a NaN matching any NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestTableProperty:
    """The writers read a (filter, realization, measure) table as it is."""

    def test_summary_and_results_read_the_table_exactly(self, tmp_path):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=60, deadline=None)
        @hyp.given(
            kinds=st.lists(
                st.sampled_from(list(FilterKind)), min_size=1, max_size=4, unique=True
            ),
            realizations=st.sampled_from([1, 7, 8, 20, 33]),
            n_sources=st.integers(0, 3),
            nan_share=st.sampled_from([0.0, 0.1, 0.5]),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(kinds, realizations, n_sources, nan_share, seed):
            names = [kind.value for kind in FilterKind if kind in kinds]
            measures = measure_names(n_sources)
            rng = np.random.default_rng(seed)
            shape = (len(names), realizations, len(measures))
            table = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
            table[rng.random(shape) < nan_share] = np.nan

            summary = aggregate(names, table)
            assert len(summary) == len(names) * len(measures)
            for index, row in enumerate(summary):
                f, m = divmod(index, len(measures))
                assert (row.filter_name, row.measure) == (names[f], measures[m])
                series = table[f, :, m].copy()
                assert same_bits(row.mean, float(np.mean(series)))
                assert same_bits(row.std, float(np.std(series)))

            path = tmp_path / "results.csv"
            write_results_csv(names, table, path)
            with path.open(newline="") as handle:
                records = list(csv.reader(handle))[1:]
            assert len(records) == table.size
            cells = np.ndindex(*shape)  # filter, then realization, then measure
            for (f, r, m), (name, realization, measure, value) in zip(cells, records):
                assert (name, int(realization)) == (names[f], r + 1)
                assert measure == measures[m]
                assert same_bits(float(value), table[f, r, m])

        check()


class TestSummaryCsv:
    def test_round_trip_is_exact(self, tmp_path):
        summary = aggregate(["ZF"], make_table([[1.0, 3.1]]))
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
        summary = aggregate(["LCMV_R", "ZF"], make_table([[0.5, 0.7], [1.0, 1.0]]))
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
        summary = aggregate(["ZF"], make_table([[1.0, 3.0]]))
        text = render_report(summary)
        assert "2 (1)" in text

    def test_no_trailing_whitespace(self):
        summary = aggregate(["ZF"], make_table([[1.0]]))
        for line in render_report(summary).split("\n"):
            assert line == line.rstrip()
