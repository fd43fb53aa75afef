"""Exception types shared across the benchmark modules, and the UTF-8
reader that reports an undecodable input file as one of them."""

from __future__ import annotations

from pathlib import Path


class BenchError(Exception):
    """Base class for every error raised by this package."""


class StabilitySearchExhausted(BenchError):
    """No stable coefficient draw was found within the attempt budget."""


class UnstableModel(BenchError):
    """An operation that requires a stable model received an unstable one."""


class RankDeficientRegressor(BenchError):
    """The lagged-data Gram matrix of a least-squares fit is singular."""


class SourceOutsideHead(BenchError):
    """A dipole position lies on or outside the scalp sphere."""


class ShapeMismatch(BenchError):
    """Array shapes are inconsistent with each other."""


class SingularCovariance(BenchError):
    """A covariance matrix stayed non-invertible after diagonal loading."""


class RankDeficientLeadfield(BenchError):
    """The whitened lead-field Gram matrix is numerically singular."""


class ZeroColumn(BenchError):
    """A spectrum column is identically zero and cannot be normalized."""


class ZeroRow(BenchError):
    """A spectrum row is identically zero and cannot be normalized."""


class ParseError(BenchError):
    """A config or CSV file is syntactically malformed."""


class UnknownKey(BenchError):
    """A config key is not recognized or not supported."""


class InvalidValue(BenchError, ValueError):
    """A config value or run parameter is outside its admissible domain."""


class MissingRun(BenchError):
    """A run directory does not contain the expected outputs."""


class PipelineError(BenchError):
    """A realization failed; the message names the realization and stage."""


def read_utf8(path: Path) -> str:
    """The text of `path`; bytes that are not valid UTF-8 raise a
    ParseError naming the file and the line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start] + b".").splitlines())
        raise ParseError(f"{path}:{lineno}: not valid UTF-8 ({exc.reason})") from exc
