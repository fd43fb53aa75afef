"""End-to-end tests for the benchmark pipeline and its CLI."""

from __future__ import annotations

import _thread
import contextlib
import csv
import io
import json
import operator
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from beambench import __version__, forward, metrics, pipeline
from beambench.__main__ import BLAS_THREAD_VARIABLES
from beambench.cli import main
from beambench.config import SetupConfig
from beambench.connectivity import default_freqs
from beambench.errors import InvalidValue, MissingRun, ParseError, PipelineError
from beambench.filters import MVP_BASE, FilterKind
from beambench.metrics import load_summary_csv
from beambench.mvar import _block_size
from beambench.pipeline import export_leadfield, report, run

SMALL = dict(
    sources=(2, 1, 3),
    n_electrodes=24,
    n_samples=600,
    n_realizations=2,
    order_interest=3,
    order_background=3,
    pdc_resolution=33,
    seed=777,
)

GOLDEN = Path(__file__).parent / "data" / "golden_report.txt"


def small_config(**overrides) -> SetupConfig:
    merged = {**SMALL, **overrides}
    return SetupConfig(**merged)


def load_matrix(path: Path) -> np.ndarray:
    """Read a save_leadfield file: a "<rows> <cols>" header, then CSV rows."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("bench") / "run"
    return run(small_config(), out_dir=out)


class TestRunOutputs:
    def test_expected_files_exist(self, run_dir):
        for name in ("geometry.csv", "results.csv", "summary.csv", "manifest.json"):
            assert (run_dir / name).exists()

    def test_results_csv_is_complete(self, run_dir):
        lines = (run_dir / "results.csv").read_text().splitlines()
        assert lines[0] == "filter,realization,measure,value"
        # 15 filters x 2 realizations x (2 scalar + 2 per-source + 3 model) measures
        assert len(lines) == 1 + 15 * 2 * 7

    def test_summary_covers_every_filter(self, run_dir):
        summary = load_summary_csv(run_dir / "summary.csv")
        assert len({row.filter_name for row in summary}) == 15

    def test_geometry_csv_lists_every_source(self, run_dir):
        lines = (run_dir / "geometry.csv").read_text().splitlines()
        assert len(lines) == 1 + 6  # header plus 2 + 1 + 3 sources

    def test_manifest_contents(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["tool"] == "beambench"
        assert manifest["version"] == __version__
        assert manifest["root_seed"] == 777
        assert manifest["config"]["SRCS"] == [2, 1, 3]
        assert manifest["config"]["K00"] == 2
        assert manifest["streams"]["geometry"]["spawn_key"] == [0]
        assert manifest["streams"]["realizations"]["children"] == [
            "signals",
            "perturbation",
            "noise",
            "filters",
        ]
        assert manifest["outputs"] == [
            "geometry.csv",
            "results.csv",
            "summary.csv",
            "manifest.json",
        ]
        assert manifest["unsupported_keys"] == sorted(manifest["unsupported_keys"])

    def test_report_renders_the_bank(self, run_dir):
        text = report(run_dir)
        assert text.splitlines()[0].startswith("filter")
        assert "LCMV_R" in text
        assert "RANDN" in text

    def test_beamformers_beat_the_random_baseline(self, run_dir):
        summary = load_summary_csv(run_dir / "summary.csv")

        def mean_corr(name):
            return next(
                row.mean
                for row in summary
                if row.filter_name == name and row.measure == "signal_corr"
            )

        assert mean_corr("LCMV_R") > mean_corr("RANDN") + 0.2


def realize_args(config: SetupConfig) -> tuple:
    """The leading arguments of pipeline.realize that run passes for config."""
    geometry, montage = pipeline._geometry(config)
    plain = forward.leadfield_sphere(geometry, montage)
    kinds = [kind for kind in FilterKind if kind.value in config.filters]
    freqs = default_freqs(config.pdc_resolution)
    return config, geometry, montage, plain, kinds, config.n_interest, freqs


class TestRealize:
    def test_a_realization_is_its_rows_of_the_run(self, tmp_path):
        config = small_config(n_realizations=4)
        run_dir = run(config, out_dir=tmp_path / "run")
        args = realize_args(config)
        kinds = args[4]
        measures = metrics.measure_names(config.n_interest)
        with (run_dir / "results.csv").open() as handle:
            results = list(csv.reader(handle))
        # realizations out of order, on one side executor
        with ThreadPoolExecutor(max_workers=1) as side:
            for index in (4, 2):
                scores, bank = pipeline.realize(*args, index, side=side)
                rows = [row for row in results if row[1] == str(index)]
                assert [(f, m) for f, _, m, _ in rows] == [
                    (kind.value, m) for kind in kinds for m in measures
                ]
                assert [repr(v) for v in scores.ravel().tolist()] == [v for *_, v in rows]
                assert [entry.kind for entry in bank] == kinds

                again, bank_again = pipeline.realize(*args, index, side=side)
                np.testing.assert_array_equal(again, scores)
                for entry, repeat in zip(bank, bank_again, strict=True):
                    assert repeat.kind is entry.kind
                    np.testing.assert_array_equal(repeat.weights, entry.weights)


class FailingExecutor(Executor):
    """Every submitted call fails with `error` instead of running."""

    def __init__(self, error: Exception) -> None:
        self.error = error

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        future.set_exception(self.error)
        return future


def settled_thread_count() -> int:
    """_thread._count(), the number of threads besides the main one,
    those started by _thread.start_new_thread included, once every
    thread that threading does not list has ended, or 10 s have passed:
    a thread leaves the count just after its function returns, which
    may be after a join."""
    deadline = time.monotonic() + 10
    while _thread._count() > threading.active_count() - 1 and time.monotonic() < deadline:
        time.sleep(0.001)
    return _thread._count()


class TestSideThread:
    @staticmethod
    def spy_draws(monkeypatch) -> tuple[list, list]:
        """Record (thread, array) of every noise draw, and (thread,
        array) of every noise callable compose_measurement reads."""
        draws: list = []
        reads: list = []

        class Spied(pipeline._SideThread):
            def submit(self, fn, /, *args, **kwargs):
                if getattr(fn, "__name__", None) != "standard_normal":
                    return super().submit(fn, *args, **kwargs)

                def draw(*args, **kwargs):
                    array = fn(*args, **kwargs)
                    draws.append((threading.get_ident(), array))
                    return array

                return super().submit(draw, *args, **kwargs)

        original = pipeline.compose_measurement

        def reading(signals, lf, cfg, noise):
            def read():
                array = noise()
                reads.append((threading.get_ident(), array))
                return array

            return original(signals, lf, cfg, read)

        monkeypatch.setattr(pipeline, "_SideThread", Spied)
        monkeypatch.setattr(pipeline, "compose_measurement", reading)
        return draws, reads

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_draw_runs_once_on_one_side_thread(self, tmp_path, monkeypatch, jobs):
        config = small_config(n_realizations=3)
        draws, reads = self.spy_draws(monkeypatch)
        run(config, out_dir=tmp_path / "run", jobs=jobs)
        shape = (config.n_electrodes, 2 * config.n_samples)
        assert len(draws) == len(reads) == config.n_realizations
        assert all(array.shape == shape for _, array in draws)
        # every realization reads the very array drawn for it
        assert {id(array) for _, array in draws} == {id(array) for _, array in reads}
        drawing = {thread for thread, _ in draws}
        reading = {thread for thread, _ in reads}
        assert len(drawing) == 1
        assert drawing.isdisjoint(reading | {threading.get_ident()})
        if jobs == 1:
            assert reading == {threading.get_ident()}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_run_leaves_no_thread_behind(self, tmp_path, jobs):
        before = threading.active_count(), settled_thread_count()
        run(small_config(), out_dir=tmp_path / "run", jobs=jobs)
        assert (threading.active_count(), settled_thread_count()) == before
        hopeless = small_config(coeff_range=(0.89, 0.9), stab_limit=0.05, iter_limit=1)
        with pytest.raises(PipelineError, match="stage signals"):
            run(hopeless, out_dir=tmp_path / "never", jobs=jobs)
        assert (threading.active_count(), settled_thread_count()) == before

    def test_a_failed_draw_names_the_measurement_stage(self):
        config = small_config()
        error = ValueError("no noise")
        with pytest.raises(
            PipelineError, match="realization 2, stage measurement: no noise"
        ) as info:
            pipeline.realize(*realize_args(config), 2, side=FailingExecutor(error))
        assert info.value.__cause__ is error


class TestSideThreadExecutor:
    def test_calls_run_in_order_on_one_other_thread(self):
        seen = []

        def record(tag):
            seen.append((tag, threading.get_ident()))
            return tag

        with pipeline._SideThread() as side:
            futures = [side.submit(record, tag) for tag in range(5)]
            assert [future.result(timeout=60) for future in futures] == list(range(5))
        assert [tag for tag, _ in seen] == list(range(5))
        assert len({thread for _, thread in seen} | {threading.get_ident()}) == 2

    def test_a_failed_call_fails_its_future_only(self):
        with pipeline._SideThread() as side:
            failed = side.submit(operator.truediv, 1.0, 0.0)
            later = side.submit(operator.neg, 2.0)
            with pytest.raises(ZeroDivisionError):
                failed.result(timeout=60)
            assert later.result(timeout=60) == -2.0

    def test_shutdown_ends_the_thread_and_refuses_submits(self):
        before = settled_thread_count()
        side = pipeline._SideThread()
        assert side.submit(operator.neg, 1).result(timeout=60) == -1
        assert _thread._count() == before + 1
        side.shutdown(wait=False)
        with pytest.raises(RuntimeError, match="after its shutdown"):
            side.submit(print)
        side.shutdown()
        assert settled_thread_count() == before


class TestDeterminism:
    def test_same_seed_same_bytes(self, run_dir, tmp_path):
        again = run(small_config(), out_dir=tmp_path / "again")
        for name in ("geometry.csv", "results.csv", "summary.csv"):
            assert (again / name).read_bytes() == (run_dir / name).read_bytes()

    def test_thread_count_does_not_change_bytes(self, run_dir, tmp_path):
        threaded = run(small_config(), out_dir=tmp_path / "threaded", jobs=3)
        for name in ("results.csv", "summary.csv"):
            assert (threaded / name).read_bytes() == (run_dir / name).read_bytes()

    def test_different_seed_changes_results(self, run_dir, tmp_path):
        other = run(small_config(seed=778), out_dir=tmp_path / "other")
        assert (
            other / "results.csv"
        ).read_bytes() != (run_dir / "results.csv").read_bytes()


class TestJobsInvariance:
    def test_two_jobs_give_the_bytes_of_one(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=10, deadline=None)
        @hyp.given(
            seed=st.integers(0, 2**32 - 1),
            sources=st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(0, 3)),
            n_realizations=st.integers(2, 3),
            filters=st.lists(
                st.sampled_from([kind.value for kind in FilterKind]),
                min_size=1,
                max_size=5,
                unique=True,
            ),
        )
        def check(seed, sources, n_realizations, filters):
            config = small_config(
                seed=seed,
                n_samples=300,
                sources=sources,
                n_realizations=n_realizations,
                filters=tuple(filters),
            )
            with tempfile.TemporaryDirectory() as tmp:
                one = run(config, out_dir=Path(tmp) / "one", jobs=1)
                two = run(config, out_dir=Path(tmp) / "two", jobs=2)
                for name in ("results.csv", "summary.csv"):
                    assert (two / name).read_bytes() == (one / name).read_bytes()

        check()

    def test_two_jobs_give_the_bytes_of_one_at_unit_block(self, tmp_path):
        # 65 background sources: simulate runs one step per block (B = 1)
        assert _block_size(65) == 1
        config = small_config(
            sources=(2, 1, 65),
            order_background=1,
            n_samples=300,
            n_realizations=3,
            filters=("LCMV_R", "NL", "MVP_F_1"),
        )
        one = run(config, out_dir=tmp_path / "one", jobs=1)
        two = run(config, out_dir=tmp_path / "two", jobs=2)
        for name in ("results.csv", "summary.csv"):
            assert (two / name).read_bytes() == (one / name).read_bytes()


SWITCHES = tuple(
    name for name in SetupConfig.__dataclass_fields__ if name.endswith(("_pre", "_pst"))
)
MODEL_MEASURES = ("mvar_coeff_err", "pdc_err", "dtf_err")


def check_run_invariants(config: SetupConfig) -> None:
    """Run config at --jobs 1 and 2 and check what every run must hold:
    a failure is a PipelineError naming its realization and stage;
    otherwise both runs write the same bytes, correlations lie in
    [-1, 1], signal_euclid is >= 0, only the model measures may be NaN,
    and full-rank MV-PURE rows equal their base rows."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            one = run(config, out_dir=Path(tmp) / "one", jobs=1)
        except PipelineError as exc:
            found = re.match(r"realization (\d+), stage \w+: ", str(exc))
            assert found, str(exc)
            assert 1 <= int(found[1]) <= config.n_realizations
            return
        two = run(config, out_dir=Path(tmp) / "two", jobs=2)
        for name in ("results.csv", "summary.csv"):
            assert (two / name).read_bytes() == (one / name).read_bytes()
        with (one / "results.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))[1:]
    values = {(f, r, m): v for f, r, m, v in rows}
    for (_, _, measure), text in values.items():
        value = float(text)
        if np.isnan(value):
            assert measure in MODEL_MEASURES, measure
        elif measure == "signal_euclid":
            assert value >= 0.0
        elif measure == "signal_corr" or measure.startswith("corr_src_"):
            assert abs(value) <= 1.0
    if config.mvp_rank in (None, config.n_interest):
        for kind, base in MVP_BASE.items():
            if kind.value in config.filters and base.value in config.filters:
                for f, r, m in values:
                    if f == base.value:
                        assert values[(kind.value, r, m)] == values[(f, r, m)]


class TestConfigSpace:
    def test_invariants_over_tiny_configs(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        level = st.sampled_from([-80.0, -20.0, 0.0, 20.0, 80.0]) | st.floats(-80.0, 80.0)
        rank = st.none() | st.integers(1, 4)
        fields = st.fixed_dictionaries(
            {
                "seed": st.integers(0, 2**32 - 1),
                "sources": st.tuples(
                    st.integers(1, 3), st.integers(0, 3), st.integers(0, 3)
                ),
                "deep_sources": st.tuples(*[st.integers(0, 1)] * 3),
                "n_electrodes": st.integers(4, 32),
                "n_samples": st.integers(40, 300),
                "n_realizations": st.integers(1, 2),
                "order_interest": st.integers(1, 3),
                "order_background": st.integers(1, 3),
                "filters": st.lists(
                    st.sampled_from([kind.value for kind in FilterKind]),
                    min_size=1,
                    max_size=len(FilterKind),
                    unique=True,
                ).map(tuple),
                "mvp_rank": rank,
                "eig_dim": rank,
                "interference_rank": rank,
                "use_interest_pert": st.booleans(),
                "use_interference_pert": st.booleans(),
                "erp_enabled": st.booleans(),
                "sinr_db": level,
                "sbnr_db": level,
                "smnr_db": level,
                **{name: st.booleans() for name in SWITCHES},
            }
        )

        @hyp.settings(
            max_examples=25,
            deadline=None,
            suppress_health_check=[hyp.HealthCheck.filter_too_much],
        )
        @hyp.given(fields=fields)
        def check(fields):
            try:
                config = SetupConfig(pdc_resolution=9, **fields)
            except InvalidValue:
                hyp.reject()
            check_run_invariants(config)

        check()


class TestFilterOrder:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_order_of_filters_changes_no_byte(self, tmp_path, jobs):
        orders = [
            ("ZF", "MVP_I_2", "LCMV_R", "RANDN", "NL"),
            ("LCMV_R", "NL", "ZF", "RANDN", "MVP_I_2"),
        ]
        first, second = (
            run(
                small_config(n_realizations=3, filters=filters),
                out_dir=tmp_path / str(i),
                jobs=jobs,
            )
            for i, filters in enumerate(orders)
        )
        for name in ("results.csv", "summary.csv"):
            assert (second / name).read_bytes() == (first / name).read_bytes()
        summary = load_summary_csv(first / "summary.csv")
        names = list(dict.fromkeys(row.filter_name for row in summary))
        assert names == ["LCMV_R", "NL", "ZF", "RANDN", "MVP_I_2"]


class TestDistinctFiltersScoredOnce:
    @staticmethod
    def count_evaluations(monkeypatch) -> list[np.ndarray]:
        """Record the series stack of every evaluate call."""
        stacks: list[np.ndarray] = []
        original = pipeline.evaluate

        def counting(model, freqs, series, **kwargs):
            stacks.append(np.array(series))
            return original(model, freqs, series, **kwargs)

        monkeypatch.setattr(pipeline, "evaluate", counting)
        return stacks

    @pytest.mark.parametrize("mvp_rank, per_realization", [(None, 9), (1, 15)])
    def test_evaluate_calls_per_realization(
        self, tmp_path, monkeypatch, mvp_rank, per_realization
    ):
        stacks = self.count_evaluations(monkeypatch)
        run(small_config(mvp_rank=mvp_rank), out_dir=tmp_path / "run")
        assert len(stacks) == SMALL["n_realizations"]
        assert [len(series) - 1 for series in stacks] == [
            per_realization
        ] * SMALL["n_realizations"]

    def test_truth_is_refitted_once_per_realization(self, tmp_path, monkeypatch):
        stacks = self.count_evaluations(monkeypatch)
        fitted: list[np.ndarray] = []
        spectra = [0]
        fit_coefficients = metrics.fit_coefficients
        connectivity_spectra = metrics.connectivity_spectra

        def counted_fit(series, order):
            fitted.extend(np.array(row) for row in series)
            return fit_coefficients(series, order)

        def counted_spectra(coeffs, freqs):
            spectra[0] += len(coeffs)
            return connectivity_spectra(coeffs, freqs)

        monkeypatch.setattr(metrics, "fit_coefficients", counted_fit)
        monkeypatch.setattr(metrics, "connectivity_spectra", counted_spectra)
        run(small_config(), out_dir=tmp_path / "run")
        distinct = len(stacks[0]) - 1
        expected = SMALL["n_realizations"] * (distinct + 1)
        assert distinct == 9
        assert len(fitted) == spectra[0] == expected
        for series in stacks:
            assert sum(np.array_equal(row, series[0]) for row in fitted) == 1

    def test_full_rank_mv_pure_rows_equal_their_base_rows(self, run_dir):
        with (run_dir / "results.csv").open() as handle:
            rows = (line.rstrip("\n").split(",") for line in handle)
            values = {(f, r, m): v for f, r, m, v in rows}
        for kind, base in MVP_BASE.items():
            keys = [(r, m) for f, r, m in values if f == base.value]
            assert keys
            for r, m in keys:
                assert values[(kind.value, r, m)] == values[(base.value, r, m)]


class TestPlainLeadfieldOncePerRun:
    @staticmethod
    def evaluated_columns(config, out, monkeypatch) -> int:
        columns: list[int] = []
        original = forward.dipole_potentials

        def counting(*args, **kwargs):
            potentials = original(*args, **kwargs)
            columns.append(potentials.size)
            return potentials

        monkeypatch.setattr(forward, "dipole_potentials", counting)
        run(config, out_dir=out)
        return sum(columns)

    def test_evaluated_columns(self, tmp_path, monkeypatch):
        # no H_*_pert flag: every dipole once for the run, and no
        # jittered column, since no filter would read it
        config = small_config(n_realizations=3)
        l, k, b = config.sources
        m = config.n_electrodes
        assert self.evaluated_columns(config, tmp_path / "run", monkeypatch) == m * (l + k + b)

    def test_a_pert_flag_adds_the_jittered_columns(self, tmp_path, monkeypatch):
        # then the jittered interest and interference dipoles once per
        # realization
        config = small_config(n_realizations=3, use_interference_pert=True)
        l, k, b = config.sources
        m, r = config.n_electrodes, config.n_realizations
        columns = self.evaluated_columns(config, tmp_path / "run", monkeypatch)
        assert columns == m * (l + k + b) + r * m * (l + k)


class TestFilterSelectionAndDumps:
    def test_single_filter_run(self, tmp_path):
        out = run(
            small_config(filters=("ZF",), n_realizations=1),
            out_dir=tmp_path / "zf",
        )
        summary = load_summary_csv(out / "summary.csv")
        assert {row.filter_name for row in summary} == {"ZF"}

    def test_first_realization_weights_are_dumped(self, tmp_path):
        out = run(
            small_config(
                filters=("LCMV_R", "EIG_LCMV_R", "MVP_F_2"),
                mvp_rank=1,
                eig_dim=2,
                dump_filters=True,
                n_realizations=1,
            ),
            out_dir=tmp_path / "dump",
        )
        assert sorted(p.name for p in (out / "filters").iterdir()) == [
            "EIG_LCMV_R.csv", "LCMV_R.csv", "MVP_F_2_r1.csv"
        ]
        weights = load_matrix(out / "filters" / "LCMV_R.csv")
        assert weights.shape == (2, 24)
        projected = load_matrix(out / "filters" / "EIG_LCMV_R.csv")
        assert np.linalg.matrix_rank(projected, tol=1e-10) == 2
        reduced = load_matrix(out / "filters" / "MVP_F_2_r1.csv")
        assert np.linalg.matrix_rank(reduced, tol=1e-10) == 1

    def test_auto_rank_dump_is_the_full_rank_base(self, tmp_path):
        config = small_config(
            filters=("LCMV_R", "MVP_F_1", "EIG_LCMV_R"),
            dump_filters=True,
            n_realizations=1,
        )
        assert config.mvp_rank is None and config.eig_dim is None
        out = run(config, out_dir=tmp_path / "auto")
        dumped = out / "filters"
        assert sorted(p.name for p in dumped.iterdir()) == [
            "EIG_LCMV_R.csv", "LCMV_R.csv", "MVP_F_1_r2.csv"
        ]
        base = (dumped / "LCMV_R.csv").read_bytes()
        assert (dumped / "MVP_F_1_r2.csv").read_bytes() == base

    def test_no_dump_directory_by_default(self, run_dir):
        assert not (run_dir / "filters").exists()


class TestGoldenReport:
    def test_report_matches_frozen_output(self, run_dir):
        assert report(run_dir) + "\n" == GOLDEN.read_text()


class TestExportLeadfield:
    def test_shape_and_determinism(self, tmp_path):
        config = small_config()
        first = export_leadfield(config, tmp_path / "lf.csv")
        matrix = load_matrix(first)
        assert matrix.shape == (24, 6)
        second = export_leadfield(config, tmp_path / "lf2.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_average_reference_holds(self, tmp_path):
        matrix = load_matrix(export_leadfield(small_config(), tmp_path / "lf.csv"))
        assert np.max(np.abs(matrix.mean(axis=0))) <= 1e-12 * np.max(np.abs(matrix))


class TestFailureModes:
    def test_missing_run_directory(self, tmp_path):
        with pytest.raises(MissingRun, match="summary.csv"):
            report(tmp_path)

    def test_corrupted_summary(self, tmp_path):
        (tmp_path / "summary.csv").write_text("not,a,summary\n")
        with pytest.raises(ParseError):
            report(tmp_path)

    def test_stage_is_named_on_failure(self, tmp_path):
        hopeless = small_config(
            coeff_range=(0.89, 0.9), stab_limit=0.05, iter_limit=1
        )
        with pytest.raises(PipelineError, match="realization 1, stage signals"):
            run(hopeless, out_dir=tmp_path / "never")

    @pytest.mark.parametrize(
        "error", [ValueError("bad covariance"), np.linalg.LinAlgError("Singular matrix")]
    )
    def test_value_error_is_wrapped_with_its_stage(self, tmp_path, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(pipeline, "estimate_covariances", broken)
        with pytest.raises(PipelineError, match="realization 1, stage covariances") as info:
            run(small_config(), out_dir=tmp_path / "never")
        assert info.value.__cause__ is error

    def test_unread_singular_noise_covariance_is_never_factored(self, tmp_path):
        silent_pre = dict(
            interference_pre=False,
            background_pre=False,
            noise_pre=False,
            n_realizations=1,
        )
        noise_free = ("LCMV_R", "NL", "MMSE_F", "MMSE_I", "ZF", "RANDN", "EIG_LCMV_R")
        run(small_config(filters=noise_free, **silent_pre), out_dir=tmp_path / "ok")
        with pytest.raises(PipelineError, match="realization 1, stage filters"):
            run(
                small_config(filters=("LCMV_R", "LCMV_N"), **silent_pre),
                out_dir=tmp_path / "never",
            )

    def test_sub_rank_mv_pure_builds_only_the_bases_it_reads(self, tmp_path):
        silent_pre = dict(
            interference_pre=False,
            background_pre=False,
            noise_pre=False,
            n_realizations=1,
            mvp_rank=1,
        )
        # Variants 1 and 2 select with LCMV_R and never read the noise
        # covariance; variant 3 selects with LCMV_N and must fail.
        noise_free = ("MVP_F_1", "MVP_F_2", "MVP_I_1", "MVP_I_2")
        run(small_config(filters=noise_free, **silent_pre), out_dir=tmp_path / "ok")
        for kind in ("MVP_F_3", "MVP_I_3"):
            with pytest.raises(PipelineError, match="realization 1, stage filters"):
                run(small_config(filters=(kind,), **silent_pre), out_dir=tmp_path / kind)

    def test_sub_count_interference_rank_runs_without_nulling(self, tmp_path):
        # Rank 1 of 3 interference columns: NL and MVP_I_* are rejected
        # up front, and a bank that does not build NL runs through, also
        # with MVP_F_1 below full rank (it reads LCMV_R only).  The filters
        # are listed out of order; the summary lists them in bank order.
        for mvp_rank in (None, 1):
            out = run(
                small_config(
                    sources=(2, 3, 3),
                    interference_rank=1,
                    mvp_rank=mvp_rank,
                    n_realizations=1,
                    filters=("ZF", "MVP_F_1", "LCMV_R", "MMSE_I"),
                ),
                out_dir=tmp_path / f"rank_{mvp_rank}",
            )
            summary = load_summary_csv(out / "summary.csv")
            names = list(dict.fromkeys(row.filter_name for row in summary))
            assert names == ["LCMV_R", "MMSE_I", "ZF", "MVP_F_1"]
            corr = [row.mean for row in summary if row.measure == "signal_corr"]
            assert len(corr) == 4 and np.all(np.isfinite(corr))

    def test_bad_jobs_count(self, tmp_path):
        with pytest.raises(ValueError, match="jobs"):
            run(small_config(), out_dir=tmp_path / "never", jobs=0)


CLI_CONFIG = """\
SRCS = 2 1 2
M00 = 16
n00 = 400
K00 = 1
P00 = 3
R00 = 3
PDC_RES = 17
SEED = 11
FILTERS = ZF, RANDN
"""


@pytest.fixture()
def cli_config(tmp_path) -> Path:
    path = tmp_path / "setup.cfg"
    path.write_text(CLI_CONFIG)
    return path


class TestCli:
    def test_run_prints_location_and_table(self, cli_config, tmp_path, capsys):
        out = tmp_path / "cli_run"
        assert main(["run", "--config", str(cli_config), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert f"run written to {out}" in captured.out
        assert "filter" in captured.out
        assert (out / "summary.csv").exists()

    def test_seed_override_lands_in_manifest(self, cli_config, tmp_path):
        out = tmp_path / "cli_seeded"
        assert (
            main(
                ["run", "--config", str(cli_config), "--out", str(out), "--seed", "42"]
            )
            == 0
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["root_seed"] == 42

    def test_filter_override(self, cli_config, tmp_path):
        out = tmp_path / "cli_filtered"
        assert (
            main(
                [
                    "run",
                    "--config",
                    str(cli_config),
                    "--out",
                    str(out),
                    "--filters",
                    "RANDN",
                ]
            )
            == 0
        )
        summary = load_summary_csv(out / "summary.csv")
        assert {row.filter_name for row in summary} == {"RANDN"}

    def test_report_subcommand(self, cli_config, tmp_path, capsys):
        out = tmp_path / "cli_report"
        main(["run", "--config", str(cli_config), "--out", str(out)])
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "ZF" in capsys.readouterr().out

    def test_export_leadfield_subcommand(self, cli_config, tmp_path, capsys):
        target = tmp_path / "lf.csv"
        assert (
            main(
                ["export-leadfield", "--config", str(cli_config), "--out", str(target)]
            )
            == 0
        )
        assert "lead-field written to" in capsys.readouterr().out
        assert load_matrix(target).shape == (16, 5)

    def test_unknown_filter_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path / "x"), "--filters", "BOGUS"]) == 1
        assert "unknown filter" in capsys.readouterr().err

    def test_filter_list_error_is_reported_like_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["run", "--out", str(out), "--filters", " , "]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: filter list is empty"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "export-leadfield"])
    def test_undecodable_config_names_the_line(self, tmp_path, capsys, command):
        path = tmp_path / "setup.cfg"
        path.write_bytes(b"K00 = 2\nOUT_DIR = caf\xe9\n")
        out = tmp_path / "x"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: {path}:2: not valid UTF-8 (invalid continuation byte)"
        assert not out.exists()

    def test_undecodable_summary_names_the_line(self, tmp_path, capsys):
        (tmp_path / "summary.csv").write_bytes(b"filter,measure,mean,std\n\xff\n")
        assert main(["report", str(tmp_path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {tmp_path / 'summary.csv'}:2: not valid UTF-8")

    def test_arbitrary_bytes_end_in_one_error_line(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        # Bytes that never occur in UTF-8, so no draw is a valid file.
        never_utf8 = st.sampled_from([b"\xc0", b"\xc1", b"\xf8", b"\xfe", b"\xff"])
        undecodable = st.builds(
            lambda head, bad, tail: head + bad + tail,
            st.binary(),
            never_utf8,
            st.binary(),
        )

        @hyp.settings(max_examples=60, deadline=None)
        @hyp.given(data=undecodable, as_summary=st.booleans())
        def check(data, as_summary):
            with tempfile.TemporaryDirectory() as tmp:
                base = Path(tmp)
                out = base / "run"
                if as_summary:
                    (base / "summary.csv").write_bytes(data)
                    argv = ["report", str(base)]
                else:
                    config = base / "setup.cfg"
                    config.write_bytes(data)
                    argv = ["run", "--config", str(config), "--out", str(out)]
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    assert main(argv) == 1
                (line,) = stderr.getvalue().splitlines()
                assert line.startswith("error: ") and "not valid UTF-8" in line
                assert not out.exists()

        check()

    def test_export_seed_matches_a_config_seed(self, cli_config, tmp_path):
        seeded = tmp_path / "seeded.cfg"
        seeded.write_text(CLI_CONFIG.replace("SEED = 11", "SEED = 7"))
        by_config, by_flag, unseeded = (tmp_path / f"lf{i}.csv" for i in range(3))
        export = ["export-leadfield", "--config"]
        assert main([*export, str(seeded), "--out", str(by_config)]) == 0
        assert main([*export, str(cli_config), "--out", str(by_flag), "--seed", "7"]) == 0
        assert main([*export, str(cli_config), "--out", str(unseeded)]) == 0
        assert by_flag.read_bytes() == by_config.read_bytes()
        assert by_flag.read_bytes() != unseeded.read_bytes()

    def test_bad_jobs_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path / "x"), "--jobs", "0"]) == 1
        assert "--jobs" in capsys.readouterr().err

    def test_negative_seed_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path / "x"), "--seed", "-3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "SEED must be >= 0" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("line", ["CUBE = nan", "RNG = -1e308, 1e308"])
    def test_non_finite_config_value_fails_cleanly(self, tmp_path, capsys, line):
        path = tmp_path / "setup.cfg"
        path.write_text(line + "\n")
        out = tmp_path / "x"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be finite" in err
        assert not out.exists()

    def test_duplicate_filter_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["run", "--out", str(out), "--filters", "LCMV_R,NL,LCMV_R"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "listed twice" in err
        assert not out.exists()

    def test_too_few_electrodes_fail_cleanly(self, tmp_path, capsys):
        path = tmp_path / "setup.cfg"
        path.write_text("M00 = 5\n")
        out = tmp_path / "x"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at most 4 independent" in err
        assert "NL, MVP_I_1, MVP_I_2, MVP_I_3 cannot be built" in err
        assert not out.exists()

    def test_failed_run_writes_no_directory(self, tmp_path, capsys):
        path = tmp_path / "setup.cfg"
        path.write_text("RNG = 0.89, 0.9\nSTAB = 0.05\nITER = 1\nK00 = 1\n")
        out = tmp_path / "x"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: realization 1, stage signals: ")
        assert not out.exists()

    def test_failed_run_leaves_an_earlier_run_as_it_was(
        self, cli_config, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "x"
        assert main(["run", "--config", str(cli_config), "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        original = pipeline.evaluate

        def failing_second(model, freqs, series, realization=0):
            if realization == 2:
                raise ValueError("scoring broke")
            return original(model, freqs, series, realization=realization)

        monkeypatch.setattr(pipeline, "evaluate", failing_second)
        # realization 1 builds its filters and scores; realization 2 fails
        failing = tmp_path / "failing.cfg"
        failing.write_text(
            CLI_CONFIG.replace("K00 = 1", "K00 = 2") + "DUMP_FILTERS = on\n"
        )
        capsys.readouterr()
        assert main(["run", "--config", str(failing), "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: realization 2, stage evaluation: scoring broke"
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.fixture()
    def signal_calls(self, monkeypatch) -> list:
        """The calls that reach generate_source_signals, which records them."""
        calls = []
        monkeypatch.setattr(
            pipeline, "generate_source_signals", lambda *args: calls.append(args)
        )
        return calls

    @pytest.mark.parametrize("below", [False, True])
    def test_out_through_a_file_fails_before_any_work(
        self, tmp_path, capsys, signal_calls, below
    ):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "x" if below else blocker
        config = tmp_path / "two.cfg"
        config.write_text(CLI_CONFIG.replace("K00 = 1", "K00 = 2"))
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            f"error: cannot write the run to {out}: {blocker} is not a directory"
        )
        assert signal_calls == []
        assert blocker.read_text() == ""

    def test_unwritable_out_fails_before_any_work(
        self, cli_config, tmp_path, capsys, monkeypatch, signal_calls
    ):
        monkeypatch.setattr(pipeline.os, "access", lambda path, mode: False)
        out = tmp_path / "new" / "run"
        assert main(["run", "--config", str(cli_config), "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            f"error: cannot write the run to {out}: {tmp_path} is not writable"
        )
        assert signal_calls == []
        assert not (tmp_path / "new").exists()

    def test_missing_run_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nowhere")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        out = tmp_path / "x"
        assert main(["run", "--config", str(missing), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err
        assert not out.exists()

    def test_export_into_missing_directory_fails_cleanly(
        self, cli_config, tmp_path, capsys
    ):
        target = tmp_path / "nowhere" / "lf.csv"
        argv = ["export-leadfield", "--config", str(cli_config), "--out", str(target)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(target) in err


def python_output(code: str, *args: str, **variables: str) -> str:
    """What `python -c code args` prints, run on this checkout's src/ with
    the BLAS thread variables unset, then `variables` set."""
    src = Path(pipeline.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**env, **variables, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.strip()


# Starts the command line one way, then prints the BLAS thread count
# that bench/worker.py reads from the OpenBLAS library numpy loaded.
BLAS_PROBE = """\
import runpy, sys
launch, bench = sys.argv[1:]
sys.argv = ["beambench", "report", "nowhere"]
try:
    if launch == "console script":
        from beambench.__main__ import main
        main()
    else:
        runpy.run_module(launch, run_name="__main__", alter_sys=True)
except SystemExit:
    pass
sys.path.insert(0, bench)
from worker import blas_threads
print(blas_threads())
"""
BENCH = Path(__file__).resolve().parents[1] / "bench"


class TestBlasThreads:
    @pytest.mark.parametrize("launch", ["beambench.cli", "beambench", "console script"])
    def test_command_line_runs_one_blas_thread(self, launch):
        assert python_output(BLAS_PROBE, launch, str(BENCH)) == "1"

    def test_a_users_thread_count_is_kept(self):
        threads = python_output(
            BLAS_PROBE, "beambench.cli", str(BENCH), OPENBLAS_NUM_THREADS="2"
        )
        assert threads == "2"

    def test_importing_the_package_leaves_the_environment_alone(self):
        probe = (
            "import os; before = dict(os.environ); "
            "import beambench, beambench.cli, beambench.__main__; "
            "print(dict(os.environ) == before)"
        )
        assert python_output(probe) == "True"
