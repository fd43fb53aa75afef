"""Frequency-domain connectivity measures for MVAR models.

Given a fitted or generated model, evaluates the coefficient transform

    A(f) = I - sum_{s=1..p} A_s exp(-2*pi*1j*s*f)

on a grid of normalized frequencies f in [0, 0.5], plus the transfer
matrix H(f), and from these the partial directed coherence (PDC,
column-normalized magnitudes of A) and the directed transfer function
(DTF, row-normalized magnitudes of H).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ZeroColumn, ZeroRow
from .mvar import MvarModel

# Conventions for turning A(f) into a transfer matrix.  "a_inverse" is
# the conventional H(f) = A(f)^-1; "residual_inverse" keeps the
# published-listing form H(f) = (I - A(f))^-1, which is singular for an
# all-zero model and kept only for comparison runs.
TRANSFER_A_INVERSE = "a_inverse"
TRANSFER_RESIDUAL_INVERSE = "residual_inverse"
_TRANSFERS = (TRANSFER_A_INVERSE, TRANSFER_RESIDUAL_INVERSE)

_SINGULAR_RTOL = 1e-12
DEFAULT_RESOLUTION = 129


@dataclass(frozen=True)
class ConnectivitySpectrum:
    """PDC/DTF magnitudes and the underlying complex transforms.

    Tensor axes are (to_channel, from_channel, frequency).
    """

    freqs: np.ndarray
    coeff_transform: np.ndarray
    transfer: np.ndarray
    pdc: np.ndarray
    dtf: np.ndarray

    def __post_init__(self) -> None:
        nf = self.freqs.shape[0]
        for name in ("coeff_transform", "transfer", "pdc", "dtf"):
            arr = getattr(self, name)
            if arr.ndim != 3 or arr.shape[2] != nf:
                raise ValueError(f"{name} must have shape (dim, dim, {nf})")


def default_freqs(resolution: int = DEFAULT_RESOLUTION) -> np.ndarray:
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
    model: MvarModel,
    freqs: np.ndarray,
    transfer: str = TRANSFER_A_INVERSE,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate A(f) and H(f) on the grid; both (dim, dim, nfreq).

    All frequencies are inverted in one batch: a batched SVD flags the
    near-singular matrices (relative singular value below 1e-12), those
    fall back to the Moore-Penrose pseudoinverse with one warning
    instead of failing the whole spectrum, and the rest go through one
    batched inverse.  Each slice equals what a per-frequency inverse
    gives, bit for bit.
    """
    if transfer not in _TRANSFERS:
        raise ValueError(f"unknown transfer convention {transfer!r}")
    freqs = _check_freqs(freqs)
    d, p = model.dim, model.order
    phases = np.exp(-2j * np.pi * np.outer(np.arange(1, p + 1), freqs))
    coeff_transform = np.repeat(
        np.eye(d, dtype=complex)[:, :, None], freqs.size, axis=2
    )
    coeff_transform -= np.einsum("sij,sf->ijf", model.coeffs, phases)

    base = coeff_transform.transpose(2, 0, 1)
    if transfer == TRANSFER_RESIDUAL_INVERSE:
        base = np.eye(d, dtype=complex) - base
    sv = np.linalg.svd(base, compute_uv=False)
    singular = sv[:, -1] <= _SINGULAR_RTOL * np.maximum(sv[:, 0], 1.0)
    if singular.any():
        inverse = np.empty_like(base)
        inverse[singular] = np.linalg.pinv(base[singular])
        inverse[~singular] = np.linalg.inv(base[~singular])
        warnings.warn(
            f"singular transform under the {transfer!r} convention; "
            "using pseudoinverse at the affected frequencies",
            RuntimeWarning,
            stacklevel=2,
        )
    else:
        inverse = np.linalg.inv(base)
    return coeff_transform, np.ascontiguousarray(inverse.transpose(1, 2, 0))


def pdc(model: MvarModel, freqs: np.ndarray) -> np.ndarray:
    """Partial directed coherence: |A_ij(f)| scaled so every column of
    the (to, from) slice has unit Euclidean norm at each frequency."""
    freqs = _check_freqs(freqs)
    coeff_transform, _ = spectral_transform(model, freqs)
    return _column_normalize(np.abs(coeff_transform), freqs)


def dtf(
    model: MvarModel,
    freqs: np.ndarray,
    transfer: str = TRANSFER_A_INVERSE,
) -> np.ndarray:
    """Directed transfer function: |H_ji(f)| scaled so every row of the
    (to, from) slice has unit Euclidean norm at each frequency."""
    freqs = _check_freqs(freqs)
    _, transfer_mat = spectral_transform(model, freqs, transfer=transfer)
    return _row_normalize(np.abs(transfer_mat), freqs)


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


def connectivity_spectrum(
    model: MvarModel,
    freqs: np.ndarray | None = None,
    transfer: str = TRANSFER_A_INVERSE,
) -> ConnectivitySpectrum:
    """One-stop evaluation of A(f), H(f), PDC and DTF on a grid."""
    freqs = default_freqs() if freqs is None else _check_freqs(freqs)
    coeff_transform, transfer_mat = spectral_transform(model, freqs, transfer=transfer)
    return ConnectivitySpectrum(
        freqs=freqs,
        coeff_transform=coeff_transform,
        transfer=transfer_mat,
        pdc=_column_normalize(np.abs(coeff_transform), freqs),
        dtf=_row_normalize(np.abs(transfer_mat), freqs),
    )


def write_spectrum_csv(spectrum: ConnectivitySpectrum, path: str | Path) -> None:
    """Long-format export with columns measure,i,j,lambda,value."""
    path = Path(path)
    dim = spectrum.pdc.shape[0]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["measure", "i", "j", "lambda", "value"])
        for measure, tensor in (("pdc", spectrum.pdc), ("dtf", spectrum.dtf)):
            for i in range(dim):
                for j in range(dim):
                    for k, freq in enumerate(spectrum.freqs):
                        writer.writerow(
                            [measure, i, j, repr(float(freq)),
                             repr(float(tensor[i, j, k]))]
                        )
