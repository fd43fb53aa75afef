"""End-to-end tests for the benchmark pipeline and its CLI."""

from __future__ import annotations

import csv
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from beambench import __version__, forward, metrics, pipeline
from beambench.cli import main
from beambench.config import SetupConfig
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
    def test_evaluated_columns(self, tmp_path, monkeypatch):
        columns: list[int] = []
        original = forward.dipole_potentials

        def counting(*args, **kwargs):
            potentials = original(*args, **kwargs)
            columns.append(potentials.size)
            return potentials

        monkeypatch.setattr(forward, "dipole_potentials", counting)
        config = small_config(n_realizations=3)
        run(config, out_dir=tmp_path / "run")
        l, k, b = config.sources
        m, r = config.n_electrodes, config.n_realizations
        # every dipole once for the run, then the jittered interest and
        # interference dipoles once per realization
        assert sum(columns) == m * (l + k + b) + r * m * (l + k)


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
                filters=("LCMV_R", "MVP_F_2"),
                mvp_rank=1,
                dump_filters=True,
                n_realizations=1,
            ),
            out_dir=tmp_path / "dump",
        )
        weights = load_matrix(out / "filters" / "LCMV_R.csv")
        assert weights.shape == (2, 24)
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
        with pytest.raises(PipelineError, match="realization 1, stage measurement") as info:
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
        # with MVP_F_1 below full rank (it reads LCMV_R only).
        for mvp_rank in (None, 1):
            out = run(
                small_config(
                    sources=(2, 3, 3),
                    interference_rank=1,
                    mvp_rank=mvp_rank,
                    n_realizations=1,
                    filters=("LCMV_R", "MMSE_I", "ZF", "MVP_F_1"),
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
