"""Frequency-domain connectivity measures for MVAR models.

Given fitted or generated models, evaluates the coefficient transform

    A(f) = I - sum_{s=1..p} A_s exp(-2*pi*1j*s*f)

on a grid of normalized frequencies f in [0, 0.5], plus the transfer
matrix H(f), and from these the partial directed coherence (PDC,
column-normalized magnitudes of A) and the directed transfer function
(DTF, row-normalized magnitudes of H).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ZeroColumn, ZeroRow
from .mvar import MvarModel

_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class ConnectivitySpectrum:
    """PDC/DTF magnitudes on a frequency grid.

    Tensor axes are (to_channel, from_channel, frequency).
    """

    freqs: np.ndarray
    pdc: np.ndarray
    dtf: np.ndarray

    def __post_init__(self) -> None:
        nf = self.freqs.shape[0]
        for name in ("pdc", "dtf"):
            arr = getattr(self, name)
            if arr.ndim != 3 or arr.shape[2] != nf:
                raise ValueError(f"{name} must have shape (dim, dim, {nf})")


def default_freqs(resolution: int) -> np.ndarray:
    """Uniform grid of normalized frequencies over [0, 0.5]."""
    return np.linspace(0.0, 0.5, resolution)


def _check_freqs(freqs: np.ndarray) -> np.ndarray:
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise ValueError("freqs must be a non-empty 1-d array")
    if np.any(freqs < 0.0) or np.any(freqs > 0.5):
        raise ValueError("normalized frequencies must lie in [0, 0.5]")
    return freqs


def spectral_transform(
    coeffs: np.ndarray, freqs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate A(f) and H(f) = A(f)^-1 for k models at once.

    coeffs stacks k coefficient tensors, shape (k, order, dim, dim);
    both results have shape (k, nfreq, dim, dim), one matrix per model
    and frequency.  All k * nfreq matrices go through one batched
    inverse.  A matrix counts as singular when its smallest singular
    value is at most 1e-12 times max(largest, 1); those fall back to
    the Moore-Penrose pseudoinverse with one warning per call instead
    of failing the whole stack.  Most matrices are certified regular
    without an SVD: sigma_max(A) <= |A|_F and sigma_min(A) >= 1 /
    |A^-1|_F, so any slice with |A^-1|_F * 1e3 * 1e-12 * max(|A|_F, 1)
    < 1 passes the test, the factor 1e3 absorbing rounding in the
    computed inverse.  Only the other slices (NaN or inf inverses
    included), or every slice when the batched inverse meets an
    exactly singular one, get the exact SVD test.  Each slice of H
    equals what a per-matrix inverse gives, bit for bit.
    """
    freqs = _check_freqs(freqs)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 4 or coeffs.shape[2] != coeffs.shape[3]:
        raise ValueError(
            f"coeffs must have shape (k, order, dim, dim), got {coeffs.shape}"
        )
    k, p, d, _ = coeffs.shape
    phases = np.exp(-2j * np.pi * np.outer(freqs, np.arange(1, p + 1)))
    coeff_transform = np.matmul(phases, coeffs.reshape(k, p, d * d))
    np.negative(coeff_transform, out=coeff_transform)
    coeff_transform[:, :, :: d + 1] += 1.0
    coeff_transform = coeff_transform.reshape(k, freqs.size, d, d)
    inverse, singular = _invert(coeff_transform.reshape(k * freqs.size, d, d))
    if singular:
        warnings.warn(
            "singular coefficient transform; "
            "using pseudoinverse at the affected frequencies",
            RuntimeWarning,
            stacklevel=2,
        )
    return coeff_transform, inverse.reshape(coeff_transform.shape)


def _invert(base: np.ndarray) -> tuple[np.ndarray, bool]:
    """Invert a (n, d, d) batch under the singular test of
    spectral_transform; returns the inverse and whether any slice was
    singular."""
    try:
        inverse = np.linalg.inv(base)
    except np.linalg.LinAlgError:
        inverse = None
        unproven = np.ones(base.shape[0], dtype=bool)
    else:
        bound = (
            _frobenius(inverse)
            * (1e3 * _SINGULAR_RTOL)
            * np.maximum(_frobenius(base), 1.0)
        )
        unproven = ~(bound < 1.0)
    singular = np.zeros(base.shape[0], dtype=bool)
    if unproven.any():
        sv = np.linalg.svd(base[unproven], compute_uv=False)
        singular[unproven] = sv[:, -1] <= _SINGULAR_RTOL * np.maximum(sv[:, 0], 1.0)
    if inverse is None:
        inverse = np.empty_like(base)
        inverse[~singular] = np.linalg.inv(base[~singular])
    if singular.any():
        inverse[singular] = np.linalg.pinv(base[singular])
    return inverse, bool(singular.any())


def _frobenius(batch: np.ndarray) -> np.ndarray:
    """Frobenius norms of the slices of a complex (n, d, d) batch, from
    the real and imaginary parts without a temporary."""
    parts = np.ascontiguousarray(batch).reshape(len(batch), -1).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", parts, parts))


def _normalize(
    mags: np.ndarray, freqs: np.ndarray, axis: int, error: type[Exception], what: str
) -> np.ndarray:
    """Scale each column (axis -2) or row (axis -1) of every (to, from)
    matrix of a (..., nfreq, dim, dim) stack to unit Euclidean norm, in
    place.  A vanishing one raises error, naming it by what.format(j)."""
    scale = np.sqrt(np.sum(mags**2, axis=axis))
    if np.any(scale == 0.0):
        *_, f, j = np.argwhere(scale == 0.0)[0]
        raise error(f"{what.format(j)} vanishes at frequency {freqs[f]:g}")
    mags /= np.expand_dims(scale, axis)
    return mags


_column_normalize = partial(
    _normalize, axis=-2, error=ZeroColumn, what="column {} of the coefficient transform"
)
_row_normalize = partial(
    _normalize, axis=-1, error=ZeroRow, what="row {} of the transfer matrix"
)


def connectivity_spectra(
    coeffs: np.ndarray, freqs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """PDC and DTF of k models (coeffs shape (k, order, dim, dim)) from
    one spectral_transform; each has shape (k, nfreq, to, from)."""
    coeff_transform, transfer_mat = spectral_transform(coeffs, freqs)
    pdc = _column_normalize(np.abs(coeff_transform), freqs)
    del coeff_transform
    return pdc, _row_normalize(np.abs(transfer_mat), freqs)


def connectivity_spectrum(model: MvarModel, freqs: np.ndarray) -> ConnectivitySpectrum:
    """PDC and DTF of one model: connectivity_spectra on a stack of one,
    with the axes in (to, from, frequency) order."""
    freqs = _check_freqs(freqs)
    pdc, dtf = connectivity_spectra(model.coeffs[None], freqs)
    return ConnectivitySpectrum(
        freqs=freqs, pdc=pdc[0].transpose(1, 2, 0), dtf=dtf[0].transpose(1, 2, 0)
    )
