"""Exception types shared across the benchmark modules."""

from __future__ import annotations


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


class EigenDecompositionFailure(BenchError):
    """An eigendecomposition required by a filter did not converge."""


class ZeroColumn(BenchError):
    """A spectrum column is identically zero and cannot be normalized."""


class ZeroRow(BenchError):
    """A spectrum row is identically zero and cannot be normalized."""


class ParseError(BenchError):
    """A config or CSV file is syntactically malformed."""


class UnknownKey(BenchError):
    """A config key is not recognized or not supported."""


class InvalidValue(BenchError):
    """A config value is outside its admissible domain."""


class MissingRun(BenchError):
    """A run directory does not contain the expected outputs."""


class PipelineError(BenchError):
    """A realization failed; the message names the realization and stage."""
