"""Stable multivariate autoregressive (MVAR) models.

Source activity in the benchmark is driven by order-p vector
autoregressions

    x[n] = sum_{s=1..p} A_s x[n-s] + e[n],      e[n] ~ N(0, noise_cov).

This module owns the model container, masked random coefficient
sampling with a stability gate, Gaussian simulation, and ordinary
least-squares estimation of the coefficients from data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficientRegressor, StabilitySearchExhausted, UnstableModel

# Source role tags, in the order geometries list the roles.
ROLE_INTEREST = "interest"
ROLE_INTERFERENCE = "interference"
ROLE_BACKGROUND = "background"
ROLES = (ROLE_INTEREST, ROLE_INTERFERENCE, ROLE_BACKGROUND)

_SYM_TOL = 1e-12
_EIG_FLOOR = -1e-10
_GRAM_RTOL = 1e-10


@dataclass(frozen=True)
class MvarModel:
    """An MVAR(p) model: coefficient tensor plus innovation covariance.

    coeffs has shape (order, dim, dim); coeffs[s - 1] is the lag-s
    matrix A_s.  noise_cov must be symmetric positive semidefinite.
    """

    dim: int
    order: int
    coeffs: np.ndarray
    noise_cov: np.ndarray

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        coeffs = np.asarray(self.coeffs, dtype=float)
        noise_cov = np.asarray(self.noise_cov, dtype=float)
        if coeffs.shape != (self.order, self.dim, self.dim):
            raise ValueError(
                f"coeffs shape {coeffs.shape} does not match "
                f"(order, dim, dim) = {(self.order, self.dim, self.dim)}"
            )
        if noise_cov.shape != (self.dim, self.dim):
            raise ValueError(
                f"noise_cov shape {noise_cov.shape} does not match dim {self.dim}"
            )
        if not np.all(np.isfinite(coeffs)) or not np.all(np.isfinite(noise_cov)):
            raise ValueError("model arrays must be finite")
        if np.max(np.abs(noise_cov - noise_cov.T), initial=0.0) > _SYM_TOL:
            raise ValueError("noise_cov must be symmetric")
        if np.linalg.eigvalsh(noise_cov).min() < _EIG_FLOOR:
            raise ValueError("noise_cov must be positive semidefinite")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "noise_cov", noise_cov)

    def companion(self) -> np.ndarray:
        """Companion form, shape (order*dim, order*dim)."""
        p, d = self.order, self.dim
        top = self.coeffs.transpose(1, 0, 2).reshape(d, p * d)
        comp = np.zeros((p * d, p * d))
        comp[:d] = top
        if p > 1:
            comp[d:, : (p - 1) * d] = np.eye((p - 1) * d)
        return comp

    def coeff_stack(self) -> np.ndarray:
        """Horizontal stack [A_1 ... A_p], shape (dim, dim*order)."""
        return self.coeffs.transpose(1, 0, 2).reshape(self.dim, self.order * self.dim)


def make_mask(dim: int, frac_ones: float, rng: np.random.Generator) -> np.ndarray:
    """Draw a (dim, dim) 0/1 mask with unit diagonal and random
    off-diagonal support.

    The number of off-diagonal ones is round(frac_ones * dim * (dim-1)),
    placed uniformly without replacement.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not 0.0 <= frac_ones <= 1.0:
        raise ValueError(f"frac_ones must lie in [0, 1], got {frac_ones}")
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
    if stab_limit <= 0.0:
        raise ValueError(f"stab_limit must be positive, got {stab_limit}")
    radius = float(np.max(np.abs(np.linalg.eigvals(model.companion()))))
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
    if not 0.0 < stab_limit <= 1.0:
        raise ValueError(f"stab_limit must lie in (0, 1], got {stab_limit}")
    lo, hi = float(coeff_range[0]), float(coeff_range[1])
    if not lo <= hi:
        raise ValueError(f"coeff_range must satisfy lo <= hi, got {coeff_range}")
    if iter_limit < 1:
        raise ValueError(f"iter_limit must be >= 1, got {iter_limit}")

    eye = np.eye(dim)
    for _ in range(iter_limit):
        draw = rng.uniform(lo, hi, size=(order, dim, dim)) * mask
        candidate = MvarModel(dim=dim, order=order, coeffs=draw, noise_cov=eye)
        stable, _ = is_stable(candidate, stab_limit)
        if stable:
            return candidate
    raise StabilitySearchExhausted(
        f"no stable draw in {iter_limit} attempts "
        f"(dim={dim}, order={order}, range=({lo}, {hi}), limit={stab_limit})"
    )


def simulate(
    model: MvarModel,
    n_samples: int,
    rng: np.random.Generator,
    burn_in: int = 1000,
) -> np.ndarray:
    """Simulate n_samples steps after a zero-state burn-in.

    Innovations are N(0, noise_cov), drawn as one (dim, burn_in +
    n_samples) block.  The series lives in a time-major buffer whose
    first `order` rows are the zero initial state, so the p lagged
    samples of every step are one contiguous slice and each step costs
    a single product with the lag stack [A_p ... A_1].  Returns shape
    (dim, n_samples).  Raises UnstableModel when the companion spectral
    radius is >= 1, since the burn-in would then not converge to
    stationarity.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    stable, radius = is_stable(model, 1.0)
    if not stable:
        raise UnstableModel(f"spectral radius {radius:.6f} is not below 1")

    d, p = model.dim, model.order
    total = burn_in + n_samples
    # Eigenfactor instead of Cholesky so that singular (even all-zero)
    # innovation covariances are simulated exactly.
    eigval, eigvec = np.linalg.eigh(model.noise_cov)
    factor = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
    out = np.zeros((p + total, d))
    out[p:] = (factor @ rng.standard_normal((d, total))).T
    # lags[t] = flat[t*d:(t+p)*d] is x[t-p], ..., x[t-1].  Both are
    # views of out (out.T.reshape(-1) would silently be a copy), so
    # every step sees the rows written before it.
    flat = out.reshape(-1)
    lags = np.lib.stride_tricks.sliding_window_view(flat, p * d)[::d]
    stack = model.coeffs[::-1].transpose(1, 0, 2).reshape(d, p * d)
    dot = stack.dot
    for row, lag in zip(out[p:], lags):
        row += dot(lag)
    # Row-major copy, as before: downstream BLAS products round
    # differently on a transposed layout.
    return out[p + burn_in :].T.copy()


def fit(series: np.ndarray, order: int) -> MvarModel:
    """Least-squares MVAR fit without an intercept.

    Stacks the order lagged copies of the series as the regressor block
    and solves the normal equations; the innovation covariance is the
    residual outer-product average over the n - order regression rows.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"series must be 2-d, got shape {x.shape}")
    d, n = x.shape
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if n <= order * d + d:
        raise ValueError(
            f"series length {n} is too short for dim {d} at order {order}"
        )

    target = x[:, order:]
    lagged = np.vstack([x[:, order - s : n - s] for s in range(1, order + 1)])
    gram = lagged @ lagged.T
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[0] <= 0.0 or sv[-1] <= _GRAM_RTOL * sv[0]:
        raise RankDeficientRegressor(
            f"lagged Gram matrix is numerically singular "
            f"(smallest/largest singular value = {sv[-1]:.3e}/{sv[0]:.3e})"
        )
    stack = np.linalg.solve(gram, lagged @ target.T).T
    resid = target - stack @ lagged
    noise_cov = resid @ resid.T / (n - order)
    noise_cov = 0.5 * (noise_cov + noise_cov.T)
    coeffs = stack.reshape(d, order, d).transpose(1, 0, 2)
    return MvarModel(dim=d, order=order, coeffs=coeffs, noise_cov=noise_cov)
