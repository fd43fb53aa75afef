"""Tests for config parsing and validation."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from beambench import config
from beambench.config import SetupConfig, UNSUPPORTED_KEYS, load_config, to_manifest
from beambench.errors import InvalidValue, ParseError, UnknownKey
from beambench.filters import FilterKind


def write_config(tmp_path, text):
    path = tmp_path / "setup.cfg"
    path.write_text(text)
    return path


def as_text(value) -> str:
    """A manifest value written back as config-file text."""
    if value is None:
        return "none"
    if isinstance(value, list):
        return ", ".join(str(item) for item in value)
    return str(value)


class TestDefaults:
    def test_empty_file_yields_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, ""))
        assert cfg == SetupConfig()

    def test_comment_only_file_yields_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "# nothing here\n\n   # still nothing\n"))
        assert cfg == SetupConfig()

    def test_default_filters_cover_the_whole_bank(self):
        assert SetupConfig().filters == tuple(kind.value for kind in FilterKind)

    def test_source_count_properties(self):
        cfg = SetupConfig(sources=(3, 2, 10), deep_sources=(1, 0, 2))
        assert cfg.n_interest == 4
        assert cfg.n_interference == 2


class TestParsing:
    def test_integer_override(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "P00 = 6\n"))
        assert cfg.order_interest == 6

    def test_triple_with_commas_or_spaces(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "SRCS = 4, 1, 7\nDEEP = 1 1 0\n"))
        assert cfg.sources == (4, 1, 7)
        assert cfg.deep_sources == (1, 1, 0)

    def test_pair_override(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "RNG = -0.4, 0.4\n"))
        assert cfg.coeff_range == (-0.4, 0.4)

    def test_boolean_spellings(self, tmp_path):
        cfg = load_config(
            write_config(tmp_path, "ERPs = yes\nSigPre = 1\nMesPst = off\nDUMP_FILTERS = TRUE\n")
        )
        assert cfg.erp_enabled is True
        assert cfg.interest_pre is True
        assert cfg.noise_pst is False
        assert cfg.dump_filters is True

    def test_optional_int_spellings(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "RANK_EIG = none\nMVP_RANK = 2\n"))
        assert cfg.eig_dim is None
        assert cfg.mvp_rank == 2
        cfg = load_config(write_config(tmp_path, "MVP_RANK = auto\n"))
        assert cfg.mvp_rank is None

    def test_inline_comments_are_stripped(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "K00 = 7  # realizations\n"))
        assert cfg.n_realizations == 7

    def test_filters_list(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "FILTERS = ZF, LCMV_R\n"))
        assert cfg.filters == ("ZF", "LCMV_R")

    def test_out_dir_is_kept_verbatim(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "OUT_DIR = runs/exp one\n"))
        assert cfg.out_dir == "runs/exp one"


class TestParseErrors:
    def test_repeated_key_names_both_lines(self, tmp_path):
        path = write_config(tmp_path, "K00 = 3\nSEED = 1\n# again\nK00 = 5\n")
        with pytest.raises(ParseError, match=":4: key 'K00' repeats line 1"):
            load_config(path)

    def test_missing_equals_names_the_line(self, tmp_path):
        path = write_config(tmp_path, "SEED = 5\njunk line\n")
        with pytest.raises(ParseError, match=":2: expected KEY = value"):
            load_config(path)

    def test_unknown_key_names_the_line(self, tmp_path):
        path = write_config(tmp_path, "NOPE = 3\n")
        with pytest.raises(UnknownKey, match=":1: unknown key 'NOPE'"):
            load_config(path)

    def test_unsupported_key_gets_a_distinct_message(self, tmp_path):
        path = write_config(tmp_path, "PLOT = 1\n")
        with pytest.raises(UnknownKey, match="recognized but not supported"):
            load_config(path)

    def test_every_unsupported_key_is_rejected(self, tmp_path):
        for key in UNSUPPORTED_KEYS:
            path = write_config(tmp_path, f"{key} = 1\n")
            with pytest.raises(UnknownKey):
                load_config(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_undecodable_line_is_named(self, tmp_path, newline):
        path = tmp_path / "setup.cfg"
        text = newline.join(["K00 = 2", "# note", "OUT_DIR = caf\xe9", ""])
        path.write_bytes(text.encode("latin-1"))
        message = r":3: not valid UTF-8 \(invalid continuation byte\)$"
        with pytest.raises(ParseError, match=message):
            load_config(path)

    def test_utf8_text_is_read(self, tmp_path):
        path = tmp_path / "setup.cfg"
        path.write_bytes("# café\r\nOUT_DIR = runs/café\r\n".encode("utf-8"))
        assert load_config(path).out_dir == "runs/café"

    def test_malformed_value_wraps_key_and_line(self, tmp_path):
        path = write_config(tmp_path, "n00 = many\n")
        with pytest.raises(InvalidValue, match=":1: key 'n00'"):
            load_config(path)

    def test_bad_triple_arity(self, tmp_path):
        path = write_config(tmp_path, "SRCS = 1, 2\n")
        with pytest.raises(InvalidValue, match="three integers"):
            load_config(path)

    def test_bad_pair_arity(self, tmp_path):
        path = write_config(tmp_path, "RNG = 0.3\n")
        with pytest.raises(InvalidValue, match=":1: key 'RNG': expected two floats"):
            load_config(path)

    def test_bad_boolean(self, tmp_path):
        path = write_config(tmp_path, "ERPs = maybe\n")
        with pytest.raises(InvalidValue, match="not a boolean"):
            load_config(path)

    def test_unknown_filter_in_list(self, tmp_path):
        path = write_config(tmp_path, "FILTERS = ZF, BOGUS\n")
        with pytest.raises(InvalidValue, match="unknown filter"):
            load_config(path)


class TestValidation:
    def test_stability_limit_bounds(self):
        with pytest.raises(InvalidValue, match="STAB"):
            SetupConfig(stab_limit=1.5)
        with pytest.raises(InvalidValue, match="STAB"):
            SetupConfig(stab_limit=0.0)
        SetupConfig(stab_limit=1.0)  # the boundary itself is legal

    def test_fraction_bounds(self):
        with pytest.raises(InvalidValue, match="FRAC"):
            SetupConfig(frac_ones=-0.1)
        with pytest.raises(InvalidValue, match="FRAC"):
            SetupConfig(frac_ones=1.1)

    def test_sample_count_floor_against_order(self):
        with pytest.raises(InvalidValue, match="8 times"):
            SetupConfig(n_samples=40)  # default P00 = 6 needs >= 48

    def test_sample_count_floor_against_refit(self):
        # 3 interest sources at order 6 need more than 21 samples even
        # though 8 * P00 would allow 48
        with pytest.raises(InvalidValue, match="refit is determined"):
            SetupConfig(sources=(40, 2, 10), n_samples=240, order_interest=6)

    def test_interest_sources_required(self):
        with pytest.raises(InvalidValue, match="interest"):
            SetupConfig(sources=(0, 2, 10))

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(InvalidValue, match="SEED"):
            SetupConfig(seed=-1)
        with pytest.raises(InvalidValue, match="SEED must be >= 0"):
            load_config(write_config(tmp_path, "SEED = -1\n"))
        SetupConfig(seed=0)  # the boundary itself is legal

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidValue, match="non-negative"):
            SetupConfig(sources=(3, -1, 10))

    def test_coeff_range_must_be_ordered(self):
        with pytest.raises(InvalidValue, match="ordered"):
            SetupConfig(coeff_range=(0.4, -0.4))

    def test_snr_levels_must_be_finite(self):
        with pytest.raises(InvalidValue, match="finite"):
            SetupConfig(smnr_db=math.inf)

    def test_cone_angle_bounds(self):
        with pytest.raises(InvalidValue, match="CONE"):
            SetupConfig(cone_half_angle=math.pi / 2.0)
        with pytest.raises(InvalidValue, match="CONE"):
            SetupConfig(cone_half_angle=-0.1)

    def test_electrode_floor(self):
        with pytest.raises(InvalidValue, match="M00"):
            SetupConfig(n_electrodes=3)

    def test_eig_dim_bounds(self):
        with pytest.raises(InvalidValue, match="RANK_EIG"):
            SetupConfig(eig_dim=0)
        with pytest.raises(InvalidValue, match="RANK_EIG"):
            SetupConfig(eig_dim=129)
        SetupConfig(eig_dim=128)

    def test_mvp_rank_bounds(self):
        with pytest.raises(InvalidValue, match="MVP_RANK"):
            SetupConfig(mvp_rank=4)  # default has 3 interest sources
        SetupConfig(mvp_rank=3)

    def test_interference_rank_bounds(self):
        with pytest.raises(InvalidValue, match="IntLfgRANK"):
            SetupConfig(interference_rank=3)  # default has 2 interference sources
        SetupConfig(interference_rank=2)
        with pytest.raises(InvalidValue, match="IntLfgRANK"):
            SetupConfig(sources=(3, 0, 10), interference_rank=1)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_sub_count_interference_rank_rejects_the_nulling_filters(self, rank):
        # NL and every MVP_I_* variant need [H H_i] at full column rank.
        with pytest.raises(
            InvalidValue, match="IntLfgRANK .*NL, MVP_I_1, MVP_I_2, MVP_I_3 cannot"
        ):
            SetupConfig(sources=(3, 3, 10), interference_rank=rank)
        with pytest.raises(InvalidValue, match="so MVP_I_3 cannot be built"):
            SetupConfig(
                sources=(3, 3, 10), interference_rank=rank, filters=("ZF", "MVP_I_3")
            )
        SetupConfig(
            sources=(3, 3, 10),
            interference_rank=rank,
            filters=("LCMV_R", "MMSE_I", "ZF", "MVP_F_1"),
        )
        SetupConfig(sources=(3, 3, 10), interference_rank=3)

    @pytest.mark.parametrize("electrodes", [4, 5])
    def test_too_few_electrodes_reject_the_nulling_filters(self, electrodes):
        # The average reference leaves at most M00 - 1 independent
        # columns, fewer than the 5 of [H H_i] at the default 3/2 sources.
        with pytest.raises(
            InvalidValue, match=f"M00 = {electrodes} .*NL, MVP_I_1, MVP_I_2, MVP_I_3 cannot"
        ):
            SetupConfig(n_electrodes=electrodes)
        with pytest.raises(InvalidValue, match="so MVP_I_2 cannot be built"):
            SetupConfig(n_electrodes=electrodes, filters=("LCMV_R", "MVP_I_2"))
        SetupConfig(n_electrodes=electrodes, filters=("LCMV_R", "ZF", "MVP_F_3"))
        SetupConfig(n_electrodes=6)

    def test_too_few_electrodes_reject_the_interest_filters(self):
        with pytest.raises(
            InvalidValue, match="fewer than the 4 interest sources, so LCMV_R, ZF cannot"
        ):
            SetupConfig(
                sources=(4, 0, 2),
                n_electrodes=4,
                filters=("LCMV_R", "MMSE_F", "ZF", "RANDN"),
            )
        SetupConfig(sources=(4, 0, 2), n_electrodes=4, filters=("MMSE_F", "RANDN"))
        SetupConfig(sources=(4, 0, 2), n_electrodes=5)

    @pytest.mark.parametrize("edge", [math.nan, math.inf, -math.inf])
    def test_cube_edge_must_be_finite(self, edge):
        with pytest.raises(InvalidValue, match="CUBE must be finite"):
            SetupConfig(cube_edge=edge)

    @pytest.mark.parametrize(
        "bounds", [(-math.inf, 0.3), (-0.3, math.inf), (math.nan, 0.3), (-1e308, 1e308)]
    )
    def test_coeff_range_must_be_finite(self, bounds):
        with pytest.raises(InvalidValue, match="RNG bounds must be finite"):
            SetupConfig(coeff_range=bounds)

    @pytest.mark.parametrize(
        "line", ["CUBE = nan", "CUBE = inf", "RNG = -inf, 0.3", "RNG = -1e308, 1e308"]
    )
    def test_non_finite_file_values_are_rejected(self, tmp_path, line):
        with pytest.raises(InvalidValue, match="must be finite"):
            load_config(write_config(tmp_path, line + "\n"))

    def test_filters_must_be_distinct(self, tmp_path):
        with pytest.raises(InvalidValue, match="'LCMV_R' is listed twice"):
            SetupConfig(filters=("LCMV_R", "NL", "LCMV_R"))
        path = write_config(tmp_path, "FILTERS = LCMV_R, NL, LCMV_R\n")
        with pytest.raises(InvalidValue, match="listed twice"):
            load_config(path)

    def test_filters_must_be_known_and_non_empty(self):
        with pytest.raises(InvalidValue, match="at least one"):
            SetupConfig(filters=())
        with pytest.raises(InvalidValue, match="unknown filter"):
            SetupConfig(filters=("ZF", "BOGUS"))

    def test_realization_floor(self):
        with pytest.raises(InvalidValue, match="K00"):
            SetupConfig(n_realizations=0)

    # The stage functions take these values unchecked, so validate is
    # the only place that rejects them.
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"order_interest": 0}, "P00 and R00 must be >= 1"),
            ({"order_background": 0}, "P00 and R00 must be >= 1"),
            ({"iter_limit": 0}, "ITER must be >= 1"),
            ({"pdc_resolution": 1}, "PDC_RES must be >= 2"),
            ({"sources": (3, 2)}, "SRCS and DEEP must each hold three counts"),
            ({"deep_sources": (0, 0, 0, 0)}, "SRCS and DEEP must each hold three counts"),
            ({"deep_sources": (0, -1, 0)}, "non-negative"),
            ({"sources": (0, 2, 10), "deep_sources": (0, 2, 0)}, "source of interest"),
            ({"n_samples": 1}, "8 times P00"),
            ({"cube_edge": -0.01}, "CUBE must be finite and >= 0"),
            ({"interference_rank": 0}, r"IntLfgRANK must lie in \[1, 2\]"),
            ({"mvp_rank": 0}, r"MVP_RANK must lie in \[1, "),
        ],
    )
    def test_out_of_range_value_rejected(self, overrides, message):
        with pytest.raises(InvalidValue, match=message):
            SetupConfig(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"order_interest": 1, "order_background": 1},
            {"iter_limit": 1},
            {"pdc_resolution": 2},
            {"cube_edge": 0.0},
            {"mvp_rank": 1},
            {"sources": (0, 2, 10), "deep_sources": (1, 0, 0)},
        ],
    )
    def test_boundary_value_accepted(self, overrides):
        SetupConfig(**overrides)


class TestManifest:
    def test_every_key_is_echoed(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "SEED = 99\nSRCS = 2, 1, 3\n"))
        manifest = to_manifest(cfg)
        assert manifest["config"]["SEED"] == 99
        assert manifest["config"]["SRCS"] == [2, 1, 3]  # tuples become lists
        assert manifest["config"]["STAB"] == 0.95
        assert manifest["config"]["FILTERS"] == list(SetupConfig().filters)
        # One distinct key per field.  load_config takes each key, and no
        # field name in its place, and the manifest echoes exactly those
        # keys in field order.
        specs = fields(SetupConfig)
        keys = [spec.metadata["key"] for spec in specs]
        assert len(set(keys)) == len(specs)
        assert list(manifest["config"]) == keys
        defaults = to_manifest(SetupConfig())["config"].items()
        echo = "".join(f"{key} = {as_text(value)}\n" for key, value in defaults)
        assert load_config(write_config(tmp_path, echo)) == SetupConfig()
        for spec in specs:
            with pytest.raises(UnknownKey, match="unknown key"):
                load_config(write_config(tmp_path, f"{spec.name} = 1\n"))

    def test_unsupported_keys_are_listed_sorted(self):
        manifest = to_manifest(SetupConfig())
        assert manifest["unsupported_keys"] == sorted(UNSUPPORTED_KEYS)

    def test_manifest_is_json_serializable(self):
        import json

        json.dumps(to_manifest(SetupConfig()))


class TestPackageSurface:
    def test_config_import_stays_light(self):
        src = Path(config.__file__).resolve().parents[1]
        heavy = (
            "beambench.pipeline",
            "beambench.metrics",
            "beambench.connectivity",
            "concurrent.futures",
        )
        probe = (
            "import sys, beambench.config; "
            f"print([name for name in {heavy!r} if name in sys.modules])"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "[]"

    def test_cli_and_pipeline_import_numpy_alone(self):
        src = Path(config.__file__).resolve().parents[1]
        # Modules the interpreter loads at start-up (site hooks) do not
        # count: only those the import itself brings in.
        probe = (
            "import sys; before = set(sys.modules); "
            "import beambench.cli, beambench.pipeline; "
            "loaded = {name.split('.')[0] for name in set(sys.modules) - before}; "
            "allowed = set(sys.stdlib_module_names) | {'numpy', 'beambench'}; "
            "print(sorted(loaded - allowed))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "[]"

    def test_readme_config_table_lists_every_key(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        table = readme.read_text().split("| key | default | meaning |", 1)[1]
        rows = table.split("\n\n", 1)[0].splitlines()[2:]
        keys = {
            key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])
        }
        assert keys == set(config._KEY_FIELDS)
