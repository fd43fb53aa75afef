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

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import RankDeficientLeadfield, ShapeMismatch, SingularCovariance
from .forward import Recording
from .sources import SourceSignals

_COND_LIMIT = 1e12
_LOAD_EPS = 1e-10
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


# The LCMV filter each eigenspace kind projects onto the signal subspace.
EIG_BASE = {
    FilterKind.EIG_LCMV_R: FilterKind.LCMV_R,
    FilterKind.EIG_LCMV_N: FilterKind.LCMV_N,
}
# Each MV-PURE variant as (selector, subtract 2Q, base): its directions
# are ranked by the output covariance of the selector (LCMV_R against
# data_cov, LCMV_N against noise_cov), less 2Q where marked, and it
# projects the base filter.
MVP_RECIPE = {
    FilterKind.MVP_F_1: (FilterKind.LCMV_R, True, FilterKind.LCMV_R),
    FilterKind.MVP_F_2: (FilterKind.LCMV_R, False, FilterKind.LCMV_R),
    FilterKind.MVP_F_3: (FilterKind.LCMV_N, False, FilterKind.LCMV_N),
    FilterKind.MVP_I_1: (FilterKind.LCMV_R, True, FilterKind.NL),
    FilterKind.MVP_I_2: (FilterKind.LCMV_R, False, FilterKind.NL),
    FilterKind.MVP_I_3: (FilterKind.LCMV_N, False, FilterKind.NL),
}
MVP_BASE = {kind: base for kind, (_, _, base) in MVP_RECIPE.items()}
MVP_KINDS = tuple(MVP_RECIPE)
# The kinds whose weights need H, respectively H_c = [H H_i], at full
# column rank.
FULL_RANK_H = tuple(k for k in FilterKind if k not in ("MMSE_F", "MMSE_I", "RANDN"))
FULL_RANK_HC = tuple(k for k in FilterKind if FilterKind.NL in (k, MVP_BASE.get(k)))


class BankEntry(NamedTuple):
    """One filter of the bank: its kind and its (l, m) weight matrix."""

    kind: FilterKind
    weights: np.ndarray


class CovarianceFactor(NamedTuple):
    """Eigenvectors of a symmetrized sensor covariance (ascending
    eigenvalues) and its regularized inverse."""

    eigvec: np.ndarray
    inverse: np.ndarray


@dataclass(frozen=True)
class CovarianceSet:
    """Second-order statistics needed by the bank.

    data_cov and noise_cov come from the sensor segments;
    build_filter_bank factors each only when a requested filter reads
    it, so an unread one may be singular.  source_cov and cross_cov are
    oracle covariances of the post segment: E[q q'] and E[q q_c'], with
    q the interest sources and q_c the interest sources followed by the
    interference sources, each as the post segment mixes them in.
    """

    data_cov: np.ndarray
    noise_cov: np.ndarray
    source_cov: np.ndarray
    cross_cov: np.ndarray

    def __post_init__(self) -> None:
        for name in ("data_cov", "noise_cov", "source_cov", "cross_cov"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        for name in ("data_cov", "noise_cov", "source_cov"):
            matrix = getattr(self, name)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise ValueError(f"{name} must be square")
            if np.max(np.abs(matrix - matrix.T), initial=0.0) > 1e-10:
                raise ValueError(f"{name} must be symmetric")
        l = self.source_cov.shape[0]
        if self.cross_cov.ndim != 2 or self.cross_cov.shape[0] != l:
            raise ShapeMismatch("cross_cov must have one row per source of interest")


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


def lcmv(leadfield: np.ndarray, cov: CovarianceFactor) -> np.ndarray:
    """Distortionless minimum-variance beamformer against the factored
    cov M: W = (H' M^-1 H)^-1 H' M^-1 for a full-column-rank H.

    Over a composite [H H_i], the leading rows of W pass H
    distortionless while placing exact nulls on H_i (the NL filter).
    """
    lf_cov_inv = leadfield.T @ cov.inverse
    gram = lf_cov_inv @ leadfield
    gram = 0.5 * (gram + gram.T)
    eigval = np.linalg.eigvalsh(gram)
    if eigval[-1] <= 0.0 or eigval[0] <= _GRAM_RTOL * eigval[-1]:
        raise RankDeficientLeadfield(
            "whitened lead-field Gram matrix is numerically singular"
        )
    return np.linalg.solve(gram, lf_cov_inv)


def wiener(
    cov_set: CovarianceSet,
    data: CovarianceFactor,
    composite: np.ndarray,
    kind: FilterKind,
) -> np.ndarray:
    """Minimum mean-square error reconstruction against `data`, the
    factored data covariance R.

    MMSE_F ignores interference structure: W = Q H' R^-1, with H the
    leading l columns of the composite H_c = [H H_i].  MMSE_I uses the
    joint source block: W = E[q q_c'] H_c' R^-1.  With no interference
    sources both coincide.
    """
    if kind is FilterKind.MMSE_F:
        l = cov_set.source_cov.shape[0]
        return cov_set.source_cov @ composite[:, :l].T @ data.inverse
    if kind is FilterKind.MMSE_I:
        return cov_set.cross_cov @ composite.T @ data.inverse
    raise ValueError(f"not a Wiener filter kind: {kind}")


def zero_forcing(leadfield: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of the interest lead-field."""
    sv = np.linalg.svd(leadfield, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0 or sv[-1] <= _GRAM_RTOL * sv[0]:
        raise RankDeficientLeadfield("lead-field does not have full column rank")
    return np.linalg.pinv(leadfield, rcond=_GRAM_RTOL)


def eig_lcmv(base: np.ndarray, data: CovarianceFactor, sig_dim: int) -> np.ndarray:
    """Project LCMV weights onto the top-sig_dim eigenspace of the
    factored data covariance (the presumed signal subspace).

    Eigenvalue ties are resolved by the ascending output order of the
    symmetric eigendecomposition, which is deterministic for a given
    input matrix.
    """
    m = data.eigvec.shape[0]
    top = data.eigvec[:, m - sig_dim :]
    return (base @ top) @ top.T


def mv_pure(
    kind: FilterKind,
    rank: int,
    cov_set: CovarianceSet,
    weights_of: Callable[[FilterKind], np.ndarray],
) -> np.ndarray:
    """Reduced-rank MV-PURE variants.

    The projection collects the eigenvectors of the rank-selection
    matrix belonging to its `rank` smallest eigenvalues:

        variant 1:  W_R R W_R' - 2 Q
        variant 2:  W_R R W_R'
        variant 3:  W_N N W_N'

    MVP_RECIPE gives each variant's selection matrix and the filter it
    projects: F variants the matching LCMV filter, I variants the
    interference-nulling filter.  weights_of(kind) is asked only for
    the variant's selector and base.  Eigenvalue ties are resolved by
    the ascending output order of the symmetric eigendecomposition,
    which is deterministic for a given input matrix.
    """
    if kind not in MVP_RECIPE:
        raise ValueError(f"not an MV-PURE kind: {kind}")
    selector, subtract_q, base = MVP_RECIPE[kind]
    w = weights_of(selector)
    cov = cov_set.noise_cov if selector is FilterKind.LCMV_N else cov_set.data_cov
    selection = w @ cov @ w.T
    if subtract_q:
        selection -= 2.0 * cov_set.source_cov
    selection = 0.5 * (selection + selection.T)
    _, eigvec = np.linalg.eigh(selection)
    low = eigvec[:, :rank]
    return low @ low.T @ weights_of(base)


def randn_baseline(n_interest: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian weights scaled by 1/sqrt(m); the comparison floor."""
    return rng.standard_normal((n_interest, m)) / np.sqrt(m)


def reconstruct(
    weights: np.ndarray, sensors: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply k stacked filters at once: out[i] = weights[i] @ sensors.

    weights has shape (k, l, m) and sensors (m, n); the result, shape
    (k, l, n), is one (k*l, m) @ (m, n) product written into `out`
    when given (which must then be C-contiguous).
    """
    weights = np.asarray(weights, dtype=float)
    sensors = np.asarray(sensors, dtype=float)
    if weights.ndim != 3 or sensors.ndim != 2 or sensors.shape[0] != weights.shape[2]:
        raise ShapeMismatch(
            f"filters of shape {weights.shape} expect (m, n) sensors with "
            f"m = {weights.shape[-1]}, got {sensors.shape}"
        )
    k, l, m = weights.shape
    shape = (k, l, sensors.shape[1])
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ShapeMismatch(f"out must be a C-contiguous {shape} array")
    np.matmul(weights.reshape(k * l, m), sensors, out=out.reshape(k * l, -1))
    return out


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
    kinds: list[FilterKind],
    cov_set: CovarianceSet,
    composite: np.ndarray,
    rng: np.random.Generator,
    rank: int | None = None,
    sig_dim: int | None = None,
) -> list[BankEntry]:
    """Construct the requested filters, sharing the LCMV/NL bases.

    composite is [H H_i]: the l = cov_set.source_cov.shape[0] interest
    columns H, then the interference columns H_i.  rank, the MV-PURE
    projection rank, and sig_dim, the eigenspace signal dimension,
    default to l.  Entries come in the order of kinds; the random
    baseline draws from rng only when requested.  The bank factors each
    sensor covariance at most once, and only if a requested filter
    reads it; the factors end with the call.
    At full rank (rank == l) an MV-PURE variant equals its MVP_BASE
    filter by construction (acceptance criterion 4), so its entry
    shares that filter's weights array instead of recomputing it up to
    rounding.  Weights that are not finite raise a ValueError naming
    their kind.
    """
    l = cov_set.source_cov.shape[0]
    h = composite[:, :l]
    rank = l if rank is None else rank
    sig_dim = l if sig_dim is None else sig_dim

    # No closure here refers to itself: a reference cycle would keep
    # cov_set alive after the call, until the cyclic collector ran.
    @cache
    def factor(name: str) -> CovarianceFactor:
        """regularized_inverse of `cov_set.<name>_cov`, on first read."""
        return regularized_inverse(getattr(cov_set, f"{name}_cov"))

    @cache
    def base(kind: FilterKind) -> np.ndarray:
        """LCMV_R, LCMV_N or NL, computed on first read."""
        if kind is FilterKind.NL:
            return lcmv(composite, factor("data"))[:l]
        return lcmv(h, factor("data" if kind is FilterKind.LCMV_R else "noise"))

    def weights_of(kind: FilterKind) -> np.ndarray:
        if kind in MVP_BASE and rank == l:
            kind = MVP_BASE[kind]
        if kind in (FilterKind.LCMV_R, FilterKind.LCMV_N, FilterKind.NL):
            return base(kind)
        if kind in EIG_BASE:
            return eig_lcmv(base(EIG_BASE[kind]), factor("data"), sig_dim)
        if kind in MVP_RECIPE:
            return mv_pure(kind, rank, cov_set, base)
        if kind is FilterKind.ZF:
            return zero_forcing(h)
        if kind is FilterKind.RANDN:
            return randn_baseline(l, composite.shape[0], rng)
        return wiener(cov_set, factor("data"), composite, kind)

    bank = []
    for kind in kinds:
        weights = weights_of(kind)
        if not np.all(np.isfinite(weights)):
            raise ValueError(f"{kind.value} weights are not finite")
        bank.append(BankEntry(kind, weights))
    return bank
