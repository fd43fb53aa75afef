"""Source geometry and ground-truth signal generation.

Dipoles live strictly inside a spherical head.  Sources of interest,
interference sources and background sources are placed on a cortical
shell (radial orientation) or, when requested, deeper inside the head
(random orientation).  Signals of interest and background activity come
from independent stable MVAR models driven by unit-variance white
innovations; interference is the negative of the interest signal plus
power-matched white noise, which pins its correlation with the
interest signal near -1/sqrt(2).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeMismatch
from .mvar import MvarModel, make_mask, sample_stable_mvar, simulate

if TYPE_CHECKING:
    from .config import SetupConfig

_UNIT_TOL = 1e-12

# Spherical head (meters): cortical sources sit on the cortex shell,
# deep sources are drawn from the deep ball.
HEAD_RADIUS = 0.09
CORTEX_RADIUS = 0.8 * HEAD_RADIUS
DEEP_RADIUS = 0.3 * HEAD_RADIUS

# Source roles, in the order of a geometry's dipole blocks.
ROLES = ("interest", "interference", "background")


@dataclass(frozen=True)
class SourceGeometry:
    """Positions and unit orientations of all dipoles, in role blocks.

    `counts` = (l, k, b): the first l rows are the sources of interest,
    the next k the interference sources and the last b the background
    sources.
    """

    positions: np.ndarray
    orientations: np.ndarray
    counts: tuple[int, int, int]
    deep: np.ndarray
    head_radius: float

    def __post_init__(self) -> None:
        positions = np.asarray(self.positions, dtype=float)
        orientations = np.asarray(self.orientations, dtype=float)
        deep = np.asarray(self.deep, dtype=bool)
        counts = tuple(int(c) for c in self.counts)
        n = len(positions)
        if len(counts) != 3 or min(counts) < 0 or sum(counts) != n:
            raise ValueError(f"counts must be 3 non-negative sizes summing to {n}")
        if positions.shape != (n, 3) or orientations.shape != (n, 3):
            raise ValueError("positions and orientations must have shape (n, 3)")
        if deep.shape != (n,):
            raise ValueError("deep must have one flag per source")
        norms = np.linalg.norm(orientations, axis=1)
        if np.max(np.abs(norms - 1.0), initial=0.0) > _UNIT_TOL:
            raise ValueError("orientations must be unit vectors")
        if np.any(np.linalg.norm(positions, axis=1) >= self.head_radius):
            raise ValueError("all positions must lie strictly inside the head")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "orientations", orientations)
        object.__setattr__(self, "deep", deep)
        object.__setattr__(self, "counts", counts)

    @property
    def n_sources(self) -> int:
        return sum(self.counts)

    @property
    def roles(self) -> tuple[str, ...]:
        """The role name of every dipole, in row order."""
        return tuple(role for role, c in zip(ROLES, self.counts) for _ in range(c))


@dataclass(frozen=True)
class PerturbedGeometry(SourceGeometry):
    """A geometry with jittered dipoles.  Data generation always uses the
    original geometry, `base`; only filters may see the jitter."""

    base: SourceGeometry


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.standard_normal(3)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def sample_geometry(
    counts: tuple[int, int, int],
    rng: np.random.Generator,
    deep: tuple[int, int, int] = (0, 0, 0),
) -> SourceGeometry:
    """Draw dipoles role by role: interest, interference, background.

    counts gives the cortical dipoles per role, deep the additional
    deep dipoles.  Cortical dipoles sit on the cortex shell and point
    radially outward; deep dipoles are uniform in the deep ball with
    isotropic random orientation.  Positions are pairwise distinct.
    """
    counts = tuple(int(c) for c in counts)
    deep = tuple(int(c) for c in deep)
    if len(counts) != 3 or len(deep) != 3:
        raise ValueError("counts and deep must have one entry per role")
    if any(c < 0 for c in counts) or any(c < 0 for c in deep):
        raise ValueError("source counts must be non-negative")
    if counts[0] + deep[0] < 1:
        raise ValueError("at least one source of interest is required")

    positions: list[np.ndarray] = []
    orientations: list[np.ndarray] = []
    deep_flags: list[bool] = []
    seen: set[bytes] = set()

    for n_cortical, n_deep in zip(counts, deep):
        for is_deep in (False,) * n_cortical + (True,) * n_deep:
            while True:
                direction = _random_unit(rng)
                if is_deep:
                    radius = DEEP_RADIUS * rng.random() ** (1.0 / 3.0)
                    pos = radius * direction
                    orient = _random_unit(rng)
                else:
                    pos = CORTEX_RADIUS * direction
                    orient = direction
                key = pos.tobytes()
                if key not in seen:
                    seen.add(key)
                    break
            positions.append(pos)
            orientations.append(orient)
            deep_flags.append(is_deep)

    return SourceGeometry(
        positions=np.array(positions),
        orientations=np.array(orientations),
        counts=tuple(c + d for c, d in zip(counts, deep)),
        deep=np.array(deep_flags),
        head_radius=HEAD_RADIUS,
    )


def perturb_geometry(
    geom: SourceGeometry,
    cube_edge: float,
    cone_half_angle: float,
    rng: np.random.Generator,
) -> PerturbedGeometry:
    """Jitter positions within a cube and orientations within a cone.

    Each position moves by an independent uniform offset in
    [-cube_edge/2, cube_edge/2] per axis; each orientation gets uniform
    azimuth and elevation offsets bounded by cone_half_angle.  Zero
    bounds reproduce the input exactly.  Jittered positions that leave
    the head are pulled back just inside the scalp radius.
    """
    if cube_edge < 0.0:
        raise ValueError(f"cube_edge must be >= 0, got {cube_edge}")
    if not 0.0 <= cone_half_angle < np.pi / 2.0:
        raise ValueError(
            f"cone_half_angle must lie in [0, pi/2), got {cone_half_angle}"
        )
    n = geom.n_sources
    shifts = rng.uniform(-cube_edge / 2.0, cube_edge / 2.0, size=(n, 3))
    angle_offsets = rng.uniform(-cone_half_angle, cone_half_angle, size=(n, 2))

    positions = geom.positions + shifts
    radii = np.linalg.norm(positions, axis=1)
    outside = radii >= geom.head_radius
    if np.any(outside):
        # 1% inside the scalp keeps the pulled-back dipole at relative
        # eccentricity f < 1, where the sphere potential is finite.
        pullback = 0.99 * geom.head_radius / radii[outside]
        positions[outside] *= pullback[:, None]

    if cone_half_angle == 0.0:
        orientations = geom.orientations.copy()
    else:
        x, y, z = geom.orientations.T
        azimuth = np.arctan2(y, x) + angle_offsets[:, 0]
        elevation = np.arcsin(np.clip(z, -1.0, 1.0)) + angle_offsets[:, 1]
        orientations = np.column_stack(
            [
                np.cos(elevation) * np.cos(azimuth),
                np.cos(elevation) * np.sin(azimuth),
                np.sin(elevation),
            ]
        )
        orientations /= np.linalg.norm(orientations, axis=1)[:, None]

    return PerturbedGeometry(
        positions, orientations, geom.counts, geom.deep, geom.head_radius, geom
    )


def erp_waveform(
    n_samples: int, amplitude: float, center: float, width: float
) -> np.ndarray:
    """First derivative of a Gaussian bump, sampled at 0..n_samples-1.

    w[t] = -amplitude * z * exp(-z^2 / 2) with z = (t - center) / width,
    so the extrema sit one width away from the center with magnitude
    amplitude * exp(-1/2).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if width <= 0.0:
        raise ValueError(f"width must be positive, got {width}")
    z = (np.arange(n_samples) - center) / width
    return -amplitude * z * np.exp(-0.5 * z * z)


@dataclass(frozen=True)
class SourceSignals:
    """Per-role source time courses over both recording segments.

    `interest`, `interference` and `background` each hold one row per
    source of that role and 2n columns: the pre segment is [:, :n] and
    the post segment [:, n:].  When enabled, the ERP is already added
    to the post half of `interest`.  `interest_model` generated the
    interest rows; evaluation refits at its order.
    """

    interest: np.ndarray
    interference: np.ndarray
    background: np.ndarray
    interest_model: MvarModel

    def __post_init__(self) -> None:
        total = self.interest.shape[1]
        if total % 2 or any(
            block.shape[1] != total for block in (self.interference, self.background)
        ):
            raise ShapeMismatch("every role block must span the same 2n samples")


def generate_source_signals(
    geom: SourceGeometry,
    config: SetupConfig,
    rng: np.random.Generator,
) -> SourceSignals:
    """Simulate all ground-truth source activity for one realization.

    Interest and background series come from freshly sampled stable
    masked MVAR models (independent of each other).  Interference rows
    mirror the first min(k, l) interest rows negated plus white noise
    matched to each row's empirical power; extra rows (k > l) are fresh
    white noise at the mean power of the constructed rows.  The ERP is
    added to the interest post segment after interference is built,
    centered on the segment's middle sample with width n/16.
    """
    l, k, n_background = geom.counts
    if l < 1:
        raise ValueError("geometry must contain at least one source of interest")
    n = config.n_samples
    total = 2 * n

    def stable_series(dim: int, order: int) -> tuple[MvarModel, np.ndarray]:
        mask = make_mask(dim, config.frac_ones, rng)
        model = sample_stable_mvar(
            dim, order, mask, config.stab_limit, config.coeff_range,
            config.iter_limit, rng,
        )
        return model, simulate(model, total, rng)

    interest_model, interest = stable_series(l, config.order_interest)
    background = np.zeros((0, total))
    if n_background > 0:
        _, background = stable_series(n_background, config.order_background)

    # Row means along the contiguous axis sum pairwise, exactly as a
    # mean over each row on its own would.
    noise = rng.standard_normal((k, total))
    noise_power = np.mean(noise**2, axis=1, keepdims=True)
    m = min(k, l)
    target_power = np.mean(interest[:m] ** 2, axis=1, keepdims=True)
    interference = -interest[:m] + np.sqrt(target_power / noise_power[:m]) * noise[:m]
    if k > m:
        pad_power = np.mean(np.mean(interference**2, axis=1))
        padded = np.sqrt(pad_power / noise_power[m:]) * noise[m:]
        interference = np.vstack([interference, padded])

    erp = np.zeros((l, n))
    if config.erp_enabled:
        for row in range(l):
            amplitude = float(np.std(interest[row, n:]))
            erp[row] = erp_waveform(n, amplitude, n // 2, max(n / 16.0, 1.0))
        interest[:, n:] += erp

    return SourceSignals(
        interest=interest,
        interference=interference,
        background=background,
        interest_model=interest_model,
    )


def write_geometry_csv(geom: SourceGeometry, path: str | Path) -> None:
    """Export one row per dipole: role,deep,x,y,z,ox,oy,oz."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["role", "deep", "x", "y", "z", "ox", "oy", "oz"])
        for i, role in enumerate(geom.roles):
            writer.writerow(
                [role, int(geom.deep[i])]
                + [repr(float(v)) for v in geom.positions[i]]
                + [repr(float(v)) for v in geom.orientations[i]]
            )
