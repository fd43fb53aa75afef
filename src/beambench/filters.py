"""Spatial filter bank for source reconstruction.

All filters produce a weight matrix W of shape (l, m) mapping m sensor
channels to l sources of interest.  The bank covers linearly
constrained minimum variance beamformers against the data and noise
covariances, their eigenspace-projected versions, an interference
nulling beamformer, two Wiener (minimum MSE) variants, zero forcing,
six reduced-rank minimum-variance pseudo-unbiased (MV-PURE) variants,
and a random baseline used as the floor in comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    EigenDecompositionFailure,
    RankDeficientLeadfield,
    ShapeMismatch,
    SingularCovariance,
)
from .forward import LeadfieldSet, Recording
from .sources import SourceSignals

_COND_LIMIT = 1e12
_LOAD_EPS = 1e-10
_RANK_RTOL = 1e-10
_GRAM_RTOL = 1e-12


class FilterKind(str, Enum):
    """Canonical filter names, in report order."""

    LCMV_R = "LCMV_R"
    LCMV_N = "LCMV_N"
    EIG_LCMV_R = "EIG_LCMV_R"
    EIG_LCMV_N = "EIG_LCMV_N"
    NL = "NL"
    MMSE_F = "MMSE_F"
    MMSE_I = "MMSE_I"
    ZF = "ZF"
    RANDN = "RANDN"
    MVP_F_1 = "MVP_F_1"
    MVP_F_2 = "MVP_F_2"
    MVP_F_3 = "MVP_F_3"
    MVP_I_1 = "MVP_I_1"
    MVP_I_2 = "MVP_I_2"
    MVP_I_3 = "MVP_I_3"


EIG_KINDS = (FilterKind.EIG_LCMV_R, FilterKind.EIG_LCMV_N)
# The filter each MV-PURE variant projects: the F variants 1 and 2 pair
# with LCMV_R, variant 3 with LCMV_N, and the I variants with NL.
MVP_BASE = {
    FilterKind.MVP_F_1: FilterKind.LCMV_R,
    FilterKind.MVP_F_2: FilterKind.LCMV_R,
    FilterKind.MVP_F_3: FilterKind.LCMV_N,
    FilterKind.MVP_I_1: FilterKind.NL,
    FilterKind.MVP_I_2: FilterKind.NL,
    FilterKind.MVP_I_3: FilterKind.NL,
}
MVP_KINDS = tuple(MVP_BASE)


@dataclass(frozen=True)
class FilterSpec:
    """A filter kind plus its rank knobs where applicable."""

    kind: FilterKind
    rank: int | None = None
    sig_dim: int | None = None

    @property
    def name(self) -> str:
        return self.kind.value

    @property
    def export_name(self) -> str:
        """File stem for weight dumps; rank-parametrised kinds carry it."""
        if self.rank is not None and self.kind in MVP_KINDS:
            return f"{self.kind.value}_r{self.rank}"
        return self.kind.value


@dataclass(frozen=True)
class FilterDiagnostics:
    """Residual of the distortionless constraint (when one applies)
    and the numerical rank of the weight matrix."""

    constraint_residual: float | None
    numerical_rank: int


@dataclass(frozen=True)
class SpatialFilter:
    weights: np.ndarray
    spec: FilterSpec
    diagnostics: FilterDiagnostics

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 2:
            raise ValueError("weights must be a matrix")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", weights)


class CovarianceFactor(NamedTuple):
    """Eigenvectors of a symmetrized sensor covariance (ascending
    eigenvalues) and its regularized inverse."""

    eigvec: np.ndarray
    inverse: np.ndarray


@dataclass(frozen=True)
class CovarianceSet:
    """Second-order statistics needed by the bank.

    data_cov and noise_cov come from the sensor segments; `data` and
    `noise` are their factorizations, computed on first read, so a
    sensor covariance that no requested filter reads is never
    decomposed (and may be singular).  source_cov and cross_cov are
    oracle covariances of the post segment: E[q q'] and E[q q_c'], with
    q the interest sources and q_c the interest sources followed by the
    interference sources, each as the post segment mixes them in.
    """

    data_cov: np.ndarray
    noise_cov: np.ndarray
    source_cov: np.ndarray
    cross_cov: np.ndarray

    def __post_init__(self) -> None:
        for name in ("data_cov", "noise_cov", "source_cov"):
            matrix = getattr(self, name)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise ValueError(f"{name} must be square")
            if np.max(np.abs(matrix - matrix.T), initial=0.0) > 1e-10:
                raise ValueError(f"{name} must be symmetric")
        l = self.source_cov.shape[0]
        if self.cross_cov.ndim != 2 or self.cross_cov.shape[0] != l:
            raise ShapeMismatch("cross_cov must have one row per source of interest")

    @cached_property
    def data(self) -> CovarianceFactor:
        return regularized_inverse(self.data_cov)

    @cached_property
    def noise(self) -> CovarianceFactor:
        return regularized_inverse(self.noise_cov)


def estimate_covariances(recording: Recording, signals: SourceSignals) -> CovarianceSet:
    """Non-centered sample covariances over the two segments.

    The sensor data covariance comes from the post segment and the
    sensor noise covariance from the pre segment; source-side matrices
    use the ground-truth post-segment activity, with the interest and
    the interference each scaled by the gain the post segment applied
    to it (0.0 when it is switched off), so that they describe what the
    sensors carry.
    """
    n = recording.sensors_pst.shape[1]
    if n < 2:
        raise ValueError("at least two samples per segment are required")
    interest = recording.gains_pst.interest * signals.interest[:, n:]
    interference = recording.gains_pst.interference * signals.interference[:, n:]
    composite = np.vstack([interest, interference])
    return CovarianceSet(
        data_cov=recording.sensors_pst @ recording.sensors_pst.T / n,
        noise_cov=recording.sensors_pre @ recording.sensors_pre.T / n,
        source_cov=interest @ interest.T / n,
        cross_cov=interest @ composite.T / n,
    )


def regularized_inverse(matrix: np.ndarray) -> CovarianceFactor:
    """Eigenvectors and inverse of a symmetric covariance, loaded if needed.

    When the condition number exceeds 1e12 the matrix gets
    1e-10 * trace/m added to its diagonal; if it stays that badly
    conditioned the input is considered singular.  Loading shifts the
    eigenvalues only, so the eigenvectors are those of the input.
    """
    matrix = np.asarray(matrix, dtype=float)
    sym = 0.5 * (matrix + matrix.T)
    m = sym.shape[0]
    try:
        eigval, eigvec = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"eigendecomposition failed: {exc}") from exc
    largest = eigval[-1]
    if largest <= 0.0:
        raise SingularCovariance("covariance has no positive eigenvalue")
    if eigval[0] <= 0.0 or largest / eigval[0] > _COND_LIMIT:
        eigval = eigval + _LOAD_EPS * np.sum(eigval) / m
        if eigval[0] <= 0.0 or eigval[-1] / eigval[0] > _COND_LIMIT:
            raise SingularCovariance(
                "covariance stays ill-conditioned after diagonal loading"
            )
    return CovarianceFactor(eigvec, (eigvec / eigval) @ eigvec.T)


def _numerical_rank(weights: np.ndarray) -> int:
    sv = np.linalg.svd(weights, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > _RANK_RTOL * sv[0]))


def _constrained_weights(leadfield: np.ndarray, cov: CovarianceFactor) -> np.ndarray:
    """W = (H' M^-1 H)^-1 H' M^-1 for a full-column-rank H."""
    lf_cov_inv = leadfield.T @ cov.inverse
    gram = lf_cov_inv @ leadfield
    gram = 0.5 * (gram + gram.T)
    eigval = np.linalg.eigvalsh(gram)
    if eigval[-1] <= 0.0 or eigval[0] <= _GRAM_RTOL * eigval[-1]:
        raise RankDeficientLeadfield(
            "whitened lead-field Gram matrix is numerically singular"
        )
    return np.linalg.solve(gram, lf_cov_inv)


def lcmv(
    leadfield: np.ndarray,
    cov: CovarianceFactor,
    kind: FilterKind = FilterKind.LCMV_R,
) -> SpatialFilter:
    """Distortionless minimum-variance beamformer against the factored cov."""
    weights = _constrained_weights(leadfield, cov)
    residual = float(np.linalg.norm(weights @ leadfield - np.eye(weights.shape[0])))
    return SpatialFilter(
        weights=weights,
        spec=FilterSpec(kind=kind),
        diagnostics=FilterDiagnostics(residual, _numerical_rank(weights)),
    )


def nulling(
    composite: np.ndarray, cov: CovarianceFactor, n_interest: int
) -> SpatialFilter:
    """LCMV over [H H_i] keeping the interest rows: passes the interest
    columns distortionless while placing exact nulls on interference."""
    if not 1 <= n_interest <= composite.shape[1]:
        raise ValueError("n_interest must address a prefix of the composite columns")
    weights = _constrained_weights(composite, cov)[:n_interest]
    target = np.eye(n_interest, composite.shape[1])
    residual = float(np.linalg.norm(weights @ composite - target))
    return SpatialFilter(
        weights=weights,
        spec=FilterSpec(kind=FilterKind.NL),
        diagnostics=FilterDiagnostics(residual, _numerical_rank(weights)),
    )


def wiener(cov_set: CovarianceSet, lf: LeadfieldSet, kind: FilterKind) -> SpatialFilter:
    """Minimum mean-square error reconstruction.

    MMSE_F ignores interference structure: W = Q H' R^-1.  MMSE_I uses
    the joint source block: W = E[q q_c'] H_c' R^-1.  With no
    interference sources both coincide.
    """
    if kind is FilterKind.MMSE_F:
        weights = cov_set.source_cov @ lf.filter_interest.T @ cov_set.data.inverse
    elif kind is FilterKind.MMSE_I:
        weights = cov_set.cross_cov @ lf.composite.T @ cov_set.data.inverse
    else:
        raise ValueError(f"not a Wiener filter kind: {kind}")
    return SpatialFilter(
        weights=weights,
        spec=FilterSpec(kind=kind),
        diagnostics=FilterDiagnostics(None, _numerical_rank(weights)),
    )


def zero_forcing(leadfield: np.ndarray) -> SpatialFilter:
    """Moore-Penrose pseudoinverse of the interest lead-field."""
    sv = np.linalg.svd(leadfield, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0 or sv[-1] <= _GRAM_RTOL * sv[0]:
        raise RankDeficientLeadfield("lead-field does not have full column rank")
    weights = np.linalg.pinv(leadfield, rcond=_GRAM_RTOL)
    residual = float(np.linalg.norm(weights @ leadfield - np.eye(weights.shape[0])))
    return SpatialFilter(
        weights=weights,
        spec=FilterSpec(kind=FilterKind.ZF),
        diagnostics=FilterDiagnostics(residual, _numerical_rank(weights)),
    )


def eig_lcmv(
    base: SpatialFilter, data: CovarianceFactor, sig_dim: int
) -> SpatialFilter:
    """Project an LCMV filter onto the top-sig_dim eigenspace of the
    factored data covariance (the presumed signal subspace).

    Eigenvalue ties are resolved by the ascending output order of the
    symmetric eigendecomposition, which is deterministic for a given
    input matrix.
    """
    m = data.eigvec.shape[0]
    if not 1 <= sig_dim <= m:
        raise ValueError(f"sig_dim must lie in [1, {m}], got {sig_dim}")
    kind_map = {
        FilterKind.LCMV_R: FilterKind.EIG_LCMV_R,
        FilterKind.LCMV_N: FilterKind.EIG_LCMV_N,
    }
    if base.spec.kind not in kind_map:
        raise ValueError("base filter must be LCMV_R or LCMV_N")
    top = data.eigvec[:, m - sig_dim :]
    weights = (base.weights @ top) @ top.T
    return SpatialFilter(
        weights=weights,
        spec=FilterSpec(kind=kind_map[base.spec.kind], sig_dim=sig_dim),
        diagnostics=FilterDiagnostics(None, _numerical_rank(weights)),
    )


def mv_pure(
    kind: FilterKind,
    rank: int,
    cov_set: CovarianceSet,
    lcmv_r: SpatialFilter | None,
    lcmv_n: SpatialFilter | None,
    nl: SpatialFilter | None,
) -> SpatialFilter:
    """Reduced-rank MV-PURE variants.

    The projection collects the eigenvectors of the rank-selection
    matrix belonging to its `rank` smallest eigenvalues:

        variant 1:  W_R R W_R' - 2 Q
        variant 2:  W_R R W_R'
        variant 3:  W_N N W_N'

    Each variant projects the filter that MVP_BASE pairs it with: F
    variants the matching LCMV filter, I variants the
    interference-nulling filter.  Only the filters a variant reads
    are needed; the others may be None.  Eigenvalue ties are resolved
    by the ascending output order of the symmetric eigendecomposition,
    which is deterministic for a given input matrix.
    """
    if kind not in MVP_KINDS:
        raise ValueError(f"not an MV-PURE kind: {kind}")
    variant = int(kind.value.split("_")[2])
    w = (lcmv_n if variant == 3 else lcmv_r).weights
    l = w.shape[0]
    if not 1 <= rank <= l:
        raise ValueError(f"rank must lie in [1, {l}], got {rank}")
    selection = w @ (cov_set.noise_cov if variant == 3 else cov_set.data_cov) @ w.T
    if variant == 1:
        selection -= 2.0 * cov_set.source_cov
    selection = 0.5 * (selection + selection.T)
    try:
        _, eigvec = np.linalg.eigh(selection)
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionFailure(str(exc)) from exc
    low = eigvec[:, :rank]
    projector = low @ low.T
    bases = {FilterKind.LCMV_R: lcmv_r, FilterKind.LCMV_N: lcmv_n, FilterKind.NL: nl}
    weights = projector @ bases[MVP_BASE[kind]].weights
    return SpatialFilter(
        weights=weights,
        spec=FilterSpec(kind=kind, rank=rank),
        diagnostics=FilterDiagnostics(None, _numerical_rank(weights)),
    )


def randn_baseline(n_interest: int, m: int, rng: np.random.Generator) -> SpatialFilter:
    """Gaussian weights scaled by 1/sqrt(m); the comparison floor."""
    if n_interest < 1 or m < 1:
        raise ValueError("n_interest and m must be positive")
    weights = rng.standard_normal((n_interest, m)) / np.sqrt(m)
    return SpatialFilter(
        weights=weights,
        spec=FilterSpec(kind=FilterKind.RANDN),
        diagnostics=FilterDiagnostics(None, _numerical_rank(weights)),
    )


def reconstruct(filt: SpatialFilter, sensors: np.ndarray) -> np.ndarray:
    """Apply the filter: estimated sources = W @ sensors."""
    sensors = np.asarray(sensors, dtype=float)
    if sensors.ndim != 2 or sensors.shape[0] != filt.weights.shape[1]:
        raise ShapeMismatch(
            f"filter expects {filt.weights.shape[1]} sensor rows, "
            f"got {sensors.shape}"
        )
    return filt.weights @ sensors


def parse_filter_list(text: str) -> tuple[str, ...]:
    """Parse a comma-separated filter list; 'all' selects the full bank."""
    cleaned = text.strip()
    if cleaned.lower() == "all":
        return tuple(kind.value for kind in FilterKind)
    names = [token.strip() for token in cleaned.split(",") if token.strip()]
    if not names:
        raise ValueError("filter list is empty")
    valid = {kind.value for kind in FilterKind}
    for name in names:
        if name not in valid:
            raise ValueError(
                f"unknown filter {name!r}; valid names: "
                + ", ".join(kind.value for kind in FilterKind)
            )
    return tuple(names)


def build_filter_bank(
    specs: list[FilterSpec],
    cov_set: CovarianceSet,
    lf: LeadfieldSet,
    rng: np.random.Generator,
) -> list[SpatialFilter]:
    """Construct the requested filters, sharing the LCMV/NL bases.

    Specs are built in the order given; the random baseline draws from
    rng only when requested.  Every filter reads the factorizations
    cached on cov_set, so each sensor covariance is decomposed at most
    once, and only if a requested filter reads it.  At full rank
    (rank == l, the default) an MV-PURE variant equals its MVP_BASE
    filter by construction (acceptance criterion 4), so its entry
    shares that filter's weights array and diagnostics instead of
    recomputing them up to rounding; its spec still carries rank l.
    """
    l = lf.filter_interest.shape[1]
    m = lf.filter_interest.shape[0]
    cache: dict[FilterKind, SpatialFilter] = {}

    def base(kind: FilterKind) -> SpatialFilter:
        if kind not in cache:
            if kind is FilterKind.LCMV_R:
                cache[kind] = lcmv(lf.filter_interest, cov_set.data, kind)
            elif kind is FilterKind.LCMV_N:
                cache[kind] = lcmv(lf.filter_interest, cov_set.noise, kind)
            else:
                cache[kind] = nulling(lf.composite, cov_set.data, l)
        return cache[kind]

    bank: list[SpatialFilter] = []
    for spec in specs:
        kind = spec.kind
        if kind in (FilterKind.LCMV_R, FilterKind.LCMV_N):
            built = base(kind)
        elif kind in EIG_KINDS:
            parent = base(
                FilterKind.LCMV_R if kind is FilterKind.EIG_LCMV_R else FilterKind.LCMV_N
            )
            built = eig_lcmv(parent, cov_set.data, spec.sig_dim or l)
        elif kind is FilterKind.NL:
            built = base(FilterKind.NL)
        elif kind in (FilterKind.MMSE_F, FilterKind.MMSE_I):
            built = wiener(cov_set, lf, kind)
        elif kind is FilterKind.ZF:
            built = zero_forcing(lf.filter_interest)
        elif kind is FilterKind.RANDN:
            built = randn_baseline(l, m, rng)
        elif (spec.rank or l) == l:
            built = replace(base(MVP_BASE[kind]), spec=FilterSpec(kind=kind, rank=l))
        else:
            # Variant 3 selects with LCMV_N, the others with LCMV_R.
            selector = FilterKind.LCMV_N if kind.value.endswith("_3") else FilterKind.LCMV_R
            read = {selector, MVP_BASE[kind]}
            inputs = (FilterKind.LCMV_R, FilterKind.LCMV_N, FilterKind.NL)
            built = mv_pure(
                kind,
                spec.rank,
                cov_set,
                *(base(k) if k in read else None for k in inputs),
            )
        bank.append(built)
    return bank
