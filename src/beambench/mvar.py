"""Stable multivariate autoregressive (MVAR) models.

Source activity in the benchmark is driven by order-p vector
autoregressions

    x[n] = sum_{s=1..p} A_s x[n-s] + e[n],      e[n] ~ N(0, I).

A model is its coefficient tensor.  This module owns the model
container, masked random coefficient sampling with a stability gate,
Gaussian simulation, and ordinary least-squares estimation of the
coefficients from data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import RankDeficientRegressor, StabilitySearchExhausted, UnstableModel

_GRAM_RTOL = 1e-10
_BLOCK_WIDTH = 128
_MAX_BLOCK = 32


@dataclass(frozen=True)
class MvarModel:
    """An MVAR(p) model driven by unit-variance white innovations.

    coeffs has shape (order, dim, dim); coeffs[s - 1] is the lag-s
    matrix A_s.  The array is not copied and must not be changed after
    construction: the spectral radius is computed once and kept.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2] or 0 in coeffs.shape:
            raise ValueError(f"coeffs of shape {coeffs.shape} are not (order, dim, dim)")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return self.coeffs.shape[0]

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def companion(self) -> np.ndarray:
        """Companion form, shape (order*dim, order*dim)."""
        p, d = self.order, self.dim
        top = self.coeffs.transpose(1, 0, 2).reshape(d, p * d)
        comp = np.zeros((p * d, p * d))
        comp[:d] = top
        if p > 1:
            comp[d:, : (p - 1) * d] = np.eye((p - 1) * d)
        return comp

    @property
    def spectral_radius(self) -> float:
        """Largest eigenvalue magnitude of the companion form, computed
        on first read and kept on the instance.  Two threads reading it
        at once may both compute it; they store the same value."""
        radius = self.__dict__.get("_spectral_radius")
        if radius is None:
            radius = float(np.max(np.abs(np.linalg.eigvals(self.companion()))))
            object.__setattr__(self, "_spectral_radius", radius)
        return radius


def make_mask(dim: int, frac_ones: float, rng: np.random.Generator) -> np.ndarray:
    """Draw a (dim, dim) 0/1 mask with unit diagonal and random
    off-diagonal support.

    The number of off-diagonal ones is round(frac_ones * dim * (dim-1)),
    placed uniformly without replacement.
    """
    n_off = dim * (dim - 1)
    n_ones = int(round(frac_ones * n_off))
    entries = np.eye(dim)
    if n_off > 0 and n_ones > 0:
        rows, cols = np.nonzero(~np.eye(dim, dtype=bool))
        picked = rng.choice(n_off, size=n_ones, replace=False)
        entries[rows[picked], cols[picked]] = 1.0
    return entries


def is_stable(model: MvarModel, stab_limit: float = 1.0) -> tuple[bool, float]:
    """Return (stable, spectral_radius) of the companion matrix.

    The model counts as stable when the largest eigenvalue magnitude of
    the companion form is strictly below stab_limit.
    """
    radius = model.spectral_radius
    return radius < stab_limit, radius


def sample_stable_mvar(
    dim: int,
    order: int,
    mask: np.ndarray,
    stab_limit: float,
    coeff_range: tuple[float, float],
    iter_limit: int,
    rng: np.random.Generator,
) -> MvarModel:
    """Rejection-sample masked uniform coefficients until stable.

    Every attempt draws a full (order, dim, dim) tensor of iid uniforms
    over coeff_range, zeroes the masked-out entries, and keeps the draw
    iff the companion spectral radius is below stab_limit.  Raises
    StabilitySearchExhausted after iter_limit failed attempts.
    """
    if mask.shape != (dim, dim):
        raise ValueError(f"mask shape {mask.shape} does not match dim {dim}")
    lo, hi = float(coeff_range[0]), float(coeff_range[1])

    for _ in range(iter_limit):
        draw = rng.uniform(lo, hi, size=(order, dim, dim)) * mask
        candidate = MvarModel(draw)
        stable, _ = is_stable(candidate, stab_limit)
        if stable:
            return candidate
    raise StabilitySearchExhausted(
        f"no stable draw in {iter_limit} attempts "
        f"(dim={dim}, order={order}, range=({lo}, {hi}), limit={stab_limit})"
    )


def _block_size(dim: int) -> int:
    """Steps per block in simulate: the largest B <= _MAX_BLOCK with
    B * dim <= _BLOCK_WIDTH, and at least 1.  The innovation product
    costs about B * dim**2 flops per step and the sequential loop one
    Python iteration per block, so B falls as 1/dim; at dim > 64 it
    is 1."""
    return max(1, min(_MAX_BLOCK, _BLOCK_WIDTH // dim))


def _block_maps(model: MvarModel, block: int) -> tuple[np.ndarray, np.ndarray]:
    """(T, G) of a `block`-step block of the recursion.

    Over steps t0 .. t0+B-1, stacked time-major into one B*dim vector,

        x_block = T e_block + G [x[t0-p] ... x[t0-1]],

    where T, shape (B*dim, B*dim), is lower block-Toeplitz with block
    (j, k) the impulse response Psi_{j-k} (Psi_0 = I), and G, shape
    (B*dim, p*dim), carries the last p samples forward.  Both come from
    one B-step run of the recursion on the selector [x[t0-p] ... x[t0-1]
    | e[t0]]: resp[i] maps the selector to x[t0-p+i].
    """
    d, p = model.dim, model.order
    width = p * d
    stack = model.coeffs[::-1].transpose(1, 0, 2).reshape(d, width)
    resp = np.zeros((p + block, d, width + d))
    resp[:p].reshape(width, width + d)[:, :width] = np.eye(width)
    resp[p, :, width:] = np.eye(d)
    for j in range(block):
        resp[p + j] += stack @ resp[j : p + j].reshape(width, width + d)
    # G is read once per block: a contiguous copy keeps each product fast
    gain = np.ascontiguousarray(resp[p:, :, :width].reshape(block * d, width))
    psi = resp[p:, :, width:]
    lag = np.subtract.outer(np.arange(block), np.arange(block))
    toeplitz = np.where((lag >= 0)[:, :, None, None], psi[np.maximum(lag, 0)], 0.0)
    return toeplitz.transpose(0, 2, 1, 3).reshape(block * d, block * d), gain


def simulate(
    model: MvarModel,
    n_samples: int,
    rng: np.random.Generator,
    burn_in: int = 1000,
) -> np.ndarray:
    """Simulate n_samples steps after a zero-state burn-in.

    Innovations are N(0, I), drawn as one (dim, burn_in + n_samples)
    block.  The recursion runs B steps at a time through its
    moving-average form (Lütkepohl 2005, sec. 2.1.2):

        x_block = T e_block + G [x[t0-p] ... x[t0-1]],

    with T the lower block-Toeplitz matrix of the impulse responses
    Psi_0 .. Psi_{B-1} and G the map of the last p samples into the
    block (see _block_maps).  The innovation term of every block is one
    matrix product over the whole zero-padded series; only the state
    term G x stays sequential, one product per block.  B is the largest
    block length <= 32 with B * dim <= 128 (_block_size), so B = 1, the
    plain per-step recursion with T the identity, for dim > 64.
    Returns shape (dim, n_samples).  Raises UnstableModel when the
    companion spectral radius is >= 1, since the burn-in would then not
    converge to stationarity.
    """
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    radius = model.spectral_radius
    if radius >= 1.0:
        raise UnstableModel(f"spectral radius {radius:.6f} is not below 1")

    d, p = model.dim, model.order
    total = burn_in + n_samples
    block = _block_size(d)
    n_blocks = -(-total // block)
    toeplitz, gain = _block_maps(model, block)
    # Time-major series whose first p rows are the zero initial state;
    # each block of B rows is one B*d vector.
    out = np.zeros((p + n_blocks * block, d))
    blocks = out[p:].reshape(n_blocks, block * d)
    innov = np.zeros((n_blocks * block, d))
    innov[:total] = rng.standard_normal((d, total)).T
    np.matmul(innov.reshape(n_blocks, block * d), toeplitz.T, out=blocks)
    del innov  # not held next to the result copy
    # states[b] is x[t0-p .. t0-1] of block b, a view of out, so every
    # block sees the blocks written before it.
    states = sliding_window_view(out.reshape(-1), p * d)[:: block * d]
    dot = gain.dot
    for values, state in zip(blocks, states):
        values += dot(state)
    # Row-major copy, as before: downstream BLAS products round
    # differently on a transposed layout.
    return out[p + burn_in : p + total].T.copy()


def _lagged_moments(x: np.ndarray, order: int) -> np.ndarray:
    """Moment matrices of the regression rows of a (k, d, n) stack.

    Row block s (0 .. p, p = order) of series i is x[i, :, p-s : n-s]:
    block 0 is the regression target and blocks 1 .. p its lagged
    copies.  Returns their products with themselves, shape (k, (p+1)*d,
    (p+1)*d), without copying the rows: the first block row M[0, t] is
    one product per lag, and every other block follows from the block
    above-left of it, whose window starts one sample later,

        M[s, t] = M[s-1, t-1] + x[p-s] x[p-t]^T - x[n-s] x[n-t]^T.
    """
    k, d, n = x.shape
    p = order
    # head[..., i] = x[p-1-i] and tail[..., i] = x[n-1-i], i = 0 .. p-1;
    # edges[:, i, j] = head_i head_j^T - tail_i tail_j^T
    head, tail = x[:, :, p - 1 :: -1], x[:, :, n - 1 : n - 1 - p : -1]
    edges = np.einsum("gai,gbj->gijab", head, head)
    edges -= np.einsum("gai,gbj->gijab", tail, tail)
    out = np.empty((k, p + 1, d, p + 1, d))
    for lag in range(p + 1):
        first = x[:, :, p:] @ x[:, :, p - lag : n - lag].transpose(0, 2, 1)
        steps = np.diagonal(edges, offset=lag, axis1=1, axis2=2)
        # blocks[..., s] = M[s, s + lag], s = 0 .. p - lag
        blocks = np.cumsum(np.concatenate([first[..., None], steps], axis=-1), axis=-1)
        s = np.arange(p + 1 - lag)
        out[:, s, :, s + lag] = blocks.transpose(3, 0, 1, 2)
        out[:, s + lag, :, s] = blocks.transpose(3, 0, 2, 1)
    return out.reshape(k, (p + 1) * d, (p + 1) * d)


def fit_coefficients(series: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares MVAR coefficients of k series at once, no intercept.

    series has shape (k, dim, n).  Each series is regressed on its
    order lagged copies through the normal equations; the lagged Gram
    matrix and the cross moments with the target come from
    _lagged_moments.  Returns the coefficient tensors, shape (k, order,
    dim, dim), and a (k,) mask of the regular fits.  A fit is
    rank-deficient when the smallest singular value of its Gram matrix
    is at most 1e-10 times the largest (or the largest is not
    positive); its coefficients are NaN and only the regular Grams
    reach the solver.  Raises ValueError when a regular fit has
    non-finite coefficients.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 3:
        raise ValueError(f"series stack must be 3-d, got shape {x.shape}")
    k, d, _ = x.shape

    moments = _lagged_moments(x, order)
    gram, cross = moments[:, d:, d:], moments[:, d:, :d]
    sv = np.linalg.svd(gram, compute_uv=False)
    regular = ~((sv[:, 0] <= 0.0) | (sv[:, -1] <= _GRAM_RTOL * sv[:, 0]))
    stacks = np.full((k, order * d, d), np.nan)
    if regular.any():
        stacks[regular] = np.linalg.solve(gram[regular], cross[regular])
        if not np.all(np.isfinite(stacks[regular])):
            raise ValueError("refitted MVAR coefficients are not finite")
    # stacks[i] is [A_1 ... A_order]^T of series i
    return stacks.reshape(k, order, d, d).transpose(0, 1, 3, 2), regular


def fit(series: np.ndarray, order: int) -> MvarModel:
    """Least-squares MVAR fit of one (dim, n) series: fit_coefficients
    on a stack of one.  Raises RankDeficientRegressor when its lagged
    Gram matrix is numerically singular."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"series must be 2-d, got shape {x.shape}")
    coeffs, regular = fit_coefficients(x[None], order)
    if not regular[0]:
        raise RankDeficientRegressor("lagged Gram matrix is numerically singular")
    return MvarModel(coeffs[0])
