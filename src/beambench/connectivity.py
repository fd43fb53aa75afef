"""Frequency-domain connectivity measures for MVAR models.

Given a fitted or generated model, evaluates the coefficient transform

    A(f) = I - sum_{s=1..p} A_s exp(-2*pi*1j*s*f)

on a grid of normalized frequencies f in [0, 0.5], plus the transfer
matrix H(f), and from these the partial directed coherence (PDC,
column-normalized magnitudes of A) and the directed transfer function
(DTF, row-normalized magnitudes of H).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    return np.linspace(0.0, 0.5, resolution)


def _check_freqs(freqs: np.ndarray) -> np.ndarray:
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise ValueError("freqs must be a non-empty 1-d array")
    if np.any(freqs < 0.0) or np.any(freqs > 0.5):
        raise ValueError("normalized frequencies must lie in [0, 0.5]")
    return freqs


def spectral_transform(
    model: MvarModel, freqs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate A(f) and H(f) = A(f)^-1 on the grid; both (dim, dim, nfreq).

    All frequencies go through one batched inverse.  A matrix counts as
    singular when its smallest singular value is at most 1e-12 times
    max(largest, 1); those fall back to the Moore-Penrose pseudoinverse
    with one warning instead of failing the whole spectrum.  Most
    matrices are certified regular without an SVD: sigma_max(A) <=
    |A|_F and sigma_min(A) >= 1 / |A^-1|_F, so any slice with
    |A^-1|_F * 1e3 * 1e-12 * max(|A|_F, 1) < 1 passes the test, the
    factor 1e3 absorbing rounding in the computed inverse.  Only the
    other slices (NaN or inf inverses included), or every slice when
    the batched inverse meets an exactly singular one, get the exact
    SVD test.  Each slice of H equals what a per-frequency inverse
    gives, bit for bit.
    """
    freqs = _check_freqs(freqs)
    d, p = model.dim, model.order
    phases = np.exp(-2j * np.pi * np.outer(np.arange(1, p + 1), freqs))
    coeff_transform = np.repeat(
        np.eye(d, dtype=complex)[:, :, None], freqs.size, axis=2
    )
    coeff_transform -= np.einsum("sij,sf->ijf", model.coeffs, phases)
    inverse, singular = _invert(coeff_transform.transpose(2, 0, 1))
    if singular:
        warnings.warn(
            "singular coefficient transform; "
            "using pseudoinverse at the affected frequencies",
            RuntimeWarning,
            stacklevel=2,
        )
    return coeff_transform, np.ascontiguousarray(inverse.transpose(1, 2, 0))


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
            np.linalg.norm(inverse, axis=(1, 2))
            * (1e3 * _SINGULAR_RTOL)
            * np.maximum(np.linalg.norm(base, axis=(1, 2)), 1.0)
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


def _column_normalize(mags: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    scale = np.sqrt(np.sum(mags**2, axis=0))
    if np.any(scale == 0.0):
        j, k = np.argwhere(scale == 0.0)[0]
        raise ZeroColumn(
            f"column {j} of the coefficient transform vanishes at "
            f"frequency {freqs[k]:g}"
        )
    return mags / scale[None, :, :]


def _row_normalize(mags: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    scale = np.sqrt(np.sum(mags**2, axis=1))
    if np.any(scale == 0.0):
        j, k = np.argwhere(scale == 0.0)[0]
        raise ZeroRow(
            f"row {j} of the transfer matrix vanishes at frequency {freqs[k]:g}"
        )
    return mags / scale[:, None, :]


def connectivity_spectrum(model: MvarModel, freqs: np.ndarray) -> ConnectivitySpectrum:
    """PDC and DTF on a grid from one evaluation of A(f) and H(f)."""
    freqs = _check_freqs(freqs)
    coeff_transform, transfer_mat = spectral_transform(model, freqs)
    return ConnectivitySpectrum(
        freqs=freqs,
        pdc=_column_normalize(np.abs(coeff_transform), freqs),
        dtf=_row_normalize(np.abs(transfer_mat), freqs),
    )
