"""Experiment configuration: defaults, file parsing, validation.

Config files are flat `KEY = value` lines with `#` comments.  Keys
mirror the historical SETUP naming of the simulation this benchmark
reproduces; a fixed list of legacy keys is recognized but rejected as
unsupported so stale configs fail loudly instead of silently changing
meaning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable

from .errors import InvalidValue, ParseError, UnknownKey
from .filters import FULL_RANK_H, FULL_RANK_HC, FilterKind, parse_filter_list

# Recognized-but-rejected legacy keys (sweep ranges, plotting, I/O
# paths and similar host-environment concerns with no meaning here).
UNSUPPORTED_KEYS = (
    "rROI",
    "rPNT",
    "TELL",
    "PLOT",
    "SCRN",
    "DISP",
    "SEEDS",
    "fltREMOVE",
    "SHOWori",
    "supSwitch",
    "thalamus",
    "DEBUG",
    "PATH",
    "SRATE",
    "WhtNoiseAddFlg",
    "WhtNoiseAddSNR",
    "DATE",
    "NAME",
    "SINR_RNG",
    "SBNR_RNG",
    "SMNR_RNG",
)

_ALL_FILTERS = tuple(kind.value for kind in FilterKind)


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_triple(text: str) -> tuple[int, int, int]:
    tokens = text.replace(",", " ").split()
    if len(tokens) != 3:
        raise ValueError(f"expected three integers, got {text!r}")
    a, b, c = (int(token) for token in tokens)
    return (a, b, c)


def _parse_pair(text: str) -> tuple[float, float]:
    tokens = text.replace(",", " ").split()
    if len(tokens) != 2:
        raise ValueError(f"expected two floats, got {text!r}")
    return (float(tokens[0]), float(tokens[1]))


def _parse_opt_int(text: str) -> int | None:
    return None if text.lower() in ("none", "auto", "") else int(text)


def _key(key: str, parser: Callable[[str], Any], default: Any) -> Any:
    """A field set by config-file `key`; `parser` reads the stripped value text."""
    return field(default=default, metadata={"key": key, "parser": parser})


@dataclass(frozen=True)
class SetupConfig:
    """Every knob of a benchmark run, with working defaults.  Each field
    is declared by `_key` with its config-file key and value parser."""

    sources: tuple[int, int, int] = _key("SRCS", _parse_triple, (3, 2, 10))
    deep_sources: tuple[int, int, int] = _key("DEEP", _parse_triple, (0, 0, 0))
    n_samples: int = _key("n00", int, 2000)
    n_realizations: int = _key("K00", int, 20)
    order_interest: int = _key("P00", int, 6)
    order_background: int = _key("R00", int, 6)
    frac_ones: float = _key("FRAC", float, 0.2)
    stab_limit: float = _key("STAB", float, 0.95)
    # +/-0.3 keeps the stability rejection sampler near 30% acceptance
    # even for the widest default model (background, dim 10, order 6).
    coeff_range: tuple[float, float] = _key("RNG", _parse_pair, (-0.3, 0.3))
    iter_limit: int = _key("ITER", int, 1000)
    pdc_resolution: int = _key("PDC_RES", int, 129)
    seed: int = _key("SEED", int, 12345)
    sinr_db: float = _key("SINR", float, 5.0)
    sbnr_db: float = _key("SBNR", float, 5.0)
    smnr_db: float = _key("SMNR", float, 20.0)
    cube_edge: float = _key("CUBE", float, 0.010)
    cone_half_angle: float = _key("CONE", float, math.pi / 32.0)
    use_interest_pert: bool = _key("H_Src_pert", _parse_bool, False)
    use_interference_pert: bool = _key("H_Int_pert", _parse_bool, False)
    interference_rank: int | None = _key("IntLfgRANK", _parse_opt_int, None)
    erp_enabled: bool = _key("ERPs", _parse_bool, False)
    eig_dim: int | None = _key("RANK_EIG", _parse_opt_int, None)
    mvp_rank: int | None = _key("MVP_RANK", _parse_opt_int, None)
    interest_pre: bool = _key("SigPre", _parse_bool, False)
    interference_pre: bool = _key("IntPre", _parse_bool, True)
    background_pre: bool = _key("BcgPre", _parse_bool, True)
    noise_pre: bool = _key("MesPre", _parse_bool, True)
    interest_pst: bool = _key("SigPst", _parse_bool, True)
    interference_pst: bool = _key("IntPst", _parse_bool, True)
    background_pst: bool = _key("BcgPst", _parse_bool, True)
    noise_pst: bool = _key("MesPst", _parse_bool, True)
    filters: tuple[str, ...] = _key("FILTERS", parse_filter_list, _ALL_FILTERS)
    n_electrodes: int = _key("M00", int, 128)
    out_dir: str = _key("OUT_DIR", str, "bench_run")
    dump_filters: bool = _key("DUMP_FILTERS", _parse_bool, False)

    def __post_init__(self) -> None:
        self.validate()

    @property
    def n_interest(self) -> int:
        return self.sources[0] + self.deep_sources[0]

    @property
    def n_interference(self) -> int:
        return self.sources[1] + self.deep_sources[1]

    def validate(self) -> None:
        if len(self.sources) != 3 or len(self.deep_sources) != 3:
            raise InvalidValue("SRCS and DEEP must each hold three counts")
        if any(c < 0 for c in self.sources + self.deep_sources):
            raise InvalidValue("source counts must be non-negative")
        if self.n_interest < 1:
            raise InvalidValue("at least one source of interest is required")
        if self.order_interest < 1 or self.order_background < 1:
            raise InvalidValue("P00 and R00 must be >= 1")
        if self.n_samples < 8 * self.order_interest:
            raise InvalidValue("n00 must be at least 8 times P00")
        fit_floor = self.order_interest * self.n_interest + self.n_interest
        if self.n_samples <= fit_floor:
            raise InvalidValue(
                f"n00 must exceed {fit_floor} so the model refit is determined"
            )
        if self.n_realizations < 1:
            raise InvalidValue("K00 must be >= 1")
        if not 0.0 <= self.frac_ones <= 1.0:
            raise InvalidValue("FRAC must lie in [0, 1]")
        if not 0.0 < self.stab_limit <= 1.0:
            raise InvalidValue("STAB must lie in (0, 1]")
        if not math.isfinite(self.coeff_range[1] - self.coeff_range[0]):
            raise InvalidValue("RNG bounds must be finite, and so must their distance")
        if not self.coeff_range[0] <= self.coeff_range[1]:
            raise InvalidValue("RNG bounds must be ordered")
        if self.iter_limit < 1:
            raise InvalidValue("ITER must be >= 1")
        if self.pdc_resolution < 2:
            raise InvalidValue("PDC_RES must be >= 2")
        if self.seed < 0:
            raise InvalidValue("SEED must be >= 0")
        for name in ("sinr_db", "sbnr_db", "smnr_db"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidValue(f"{name} must be finite")
        if not math.isfinite(self.cube_edge) or self.cube_edge < 0.0:
            raise InvalidValue("CUBE must be finite and >= 0")
        if not 0.0 <= self.cone_half_angle < math.pi / 2.0:
            raise InvalidValue("CONE must lie in [0, pi/2)")
        if self.n_electrodes < 4:
            raise InvalidValue("M00 must be >= 4")
        if self.eig_dim is not None and not 1 <= self.eig_dim <= self.n_electrodes:
            raise InvalidValue("RANK_EIG must lie in [1, M00]")
        if self.mvp_rank is not None and not 1 <= self.mvp_rank <= self.n_interest:
            raise InvalidValue("MVP_RANK must lie in [1, number of interest sources]")
        if self.interference_rank is not None:
            limit = min(self.n_electrodes, self.n_interference)
            if limit < 1:
                raise InvalidValue("IntLfgRANK needs interference sources to act on")
            if not 1 <= self.interference_rank <= limit:
                raise InvalidValue(f"IntLfgRANK must lie in [1, {limit}]")
        if not self.filters:
            raise InvalidValue("FILTERS must select at least one filter")
        for i, name in enumerate(self.filters):
            if name not in _ALL_FILTERS:
                raise InvalidValue(f"unknown filter {name!r} in FILTERS")
            if name in self.filters[:i]:
                raise InvalidValue(f"filter {name!r} is listed twice in FILTERS")

        def unbuildable(needs: tuple[FilterKind, ...], why: str, remedy: str) -> None:
            names = [name for name in self.filters if name in needs]
            if names:
                raise InvalidValue(
                    f"{why}, so {', '.join(names)} cannot be built; "
                    f"drop them from FILTERS or {remedy}"
                )

        l, k, m = self.n_interest, self.n_interference, self.n_electrodes
        rank = self.interference_rank
        if rank is not None and rank < k:
            unbuildable(
                FULL_RANK_HC,
                f"IntLfgRANK {rank} below the {k} interference sources leaves "
                "[H H_i] rank-deficient",
                "raise IntLfgRANK",
            )
        columns = (
            f"M00 = {m} average-referenced electrodes give at most {m - 1} "
            "independent lead-field columns"
        )
        if l >= m:
            unbuildable(
                FULL_RANK_H, f"{columns}, fewer than the {l} interest sources", "raise M00"
            )
        if l + k >= m:
            unbuildable(
                FULL_RANK_HC,
                f"{columns}, fewer than the {l + k} interest and interference sources",
                "raise M00",
            )


# Config-file key -> SetupConfig field, in field order.
_KEY_FIELDS = {spec.metadata["key"]: spec for spec in fields(SetupConfig)}


def load_config(path: str | Path) -> SetupConfig:
    """Parse a `KEY = value` file on top of the defaults.  A key given
    twice is a ParseError."""
    path = Path(path)
    overrides: dict[str, object] = {}
    seen: dict[str, int] = {}
    with path.open() as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected KEY = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in UNSUPPORTED_KEYS:
                raise UnknownKey(
                    f"{path}:{lineno}: key {key!r} is recognized but not "
                    "supported by this tool; remove it from the config"
                )
            if key not in _KEY_FIELDS:
                raise UnknownKey(f"{path}:{lineno}: unknown key {key!r}")
            first = seen.setdefault(key, lineno)
            if first != lineno:
                raise ParseError(f"{path}:{lineno}: key {key!r} repeats line {first}")
            target = _KEY_FIELDS[key]
            try:
                overrides[target.name] = target.metadata["parser"](value)
            except ValueError as exc:
                raise InvalidValue(f"{path}:{lineno}: key {key!r}: {exc}") from exc
    return replace(SetupConfig(), **overrides)


def to_manifest(config: SetupConfig) -> dict:
    """Echo every config key at its final value, plus the reject list."""
    values: dict[str, object] = {}
    for key, target in _KEY_FIELDS.items():
        value = getattr(config, target.name)
        if isinstance(value, tuple):
            value = list(value)
        values[key] = value
    return {"config": values, "unsupported_keys": sorted(UNSUPPORTED_KEYS)}
