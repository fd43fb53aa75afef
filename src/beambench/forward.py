"""Forward model: electrode montage, lead-fields, sensor composition.

The volume conductor is a homogeneous sphere of radius R and
conductivity sigma.  For a unit dipole at distance b < R from the
center the scalp potential is the classical zonal-harmonics series

    V = 1/(4 pi sigma R^2) * sum_{n>=1} (2n+1)/n * f^(n-1)
        * (n * m_r * P_n(c) + T * P_n'(c)),       f = b/R,

where c is the cosine of the angle between electrode and dipole
position, m_r the radial moment component, and T = m.e - m_r * c the
tangential projection onto the electrode direction (this form absorbs
the associated Legendre factor and has no sin-singularity).  With
rho = sqrt(1 - 2fc + f^2) the generating-function identities

    sum_{n>=0} f^n P_n(c)     = 1/rho,
    sum_{n>=1} f^n P_n(c) / n = ln(2 / (1 - fc + rho))

sum the series in closed form (Zhang 1995, Phys. Med. Biol. 40:335;
Mosher, Leahy & Lewis 1999, IEEE TBME 46:245):

    V = [ m_r ((1 - f^2)/rho^3 - 1)/f
          + T (2/rho^3 + (1 + rho)/(rho (1 - fc + rho))) ] / (4 pi sigma R^2).

At f = 0 the radial term tends to 3 c m_r and the whole potential to
the central-dipole limit 3 m.e / (4 pi sigma R^2).

Each recording segment is one amplitude-scaled mixing product,

    y = g_q H q + g_i H_i q_i + g_b H_b q_b + g_n n,

over the pre and post halves of the source signals.  The interference,
background and noise amplitudes are set once over both segments, so
that their power relative to the interest term meets the configured
SINR, SBNR and SMNR; each power comes from Gram matrices,
||H X||_F^2 = sum((H'H) * (X X')).  A gain is 0.0 in a segment whose
switch is off, and for a component with zero power.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    ParseError,
    ShapeMismatch,
    SourceOutsideHead,
    ZeroTargetSignal,
)
from .sources import PerturbedGeometry, SourceGeometry, SourceSignals

if TYPE_CHECKING:
    from .config import SetupConfig

DEFAULT_SIGMA = 0.33


@dataclass(frozen=True)
class ElectrodeMontage:
    """Electrode positions on the scalp sphere with unique labels."""

    positions: np.ndarray
    labels: tuple[str, ...]
    head_radius: float

    def __post_init__(self) -> None:
        positions = np.asarray(self.positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError("positions must have shape (m, 3)")
        if positions.shape[0] != len(self.labels):
            raise ValueError("one label per electrode is required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("electrode labels must be unique")
        radii = np.linalg.norm(positions, axis=1)
        if np.max(np.abs(radii - self.head_radius), initial=0.0) > 1e-9:
            raise ValueError("all electrodes must sit on the scalp sphere")
        object.__setattr__(self, "positions", positions)

    @property
    def n_electrodes(self) -> int:
        return self.positions.shape[0]


def fibonacci_montage(m: int, head_radius: float) -> ElectrodeMontage:
    """Spread m electrodes over the upper 3/4 of the scalp sphere.

    A Fibonacci spiral over z in (-1/2, 1) gives near-uniform coverage
    while leaving the bottom cap (neck/face) free of electrodes.
    """
    if m < 4:
        raise ValueError(f"montage needs at least 4 electrodes, got {m}")
    if head_radius <= 0.0:
        raise ValueError("head_radius must be positive")
    idx = np.arange(m)
    z = 1.0 - (idx + 0.5) * 1.5 / m
    azimuth = np.pi * (3.0 - np.sqrt(5.0)) * idx
    rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    positions = head_radius * np.column_stack(
        [rho * np.cos(azimuth), rho * np.sin(azimuth), z]
    )
    labels = tuple(f"E{i:03d}" for i in idx)
    return ElectrodeMontage(positions=positions, labels=labels, head_radius=head_radius)


def dipole_potentials(
    positions: np.ndarray,
    orientations: np.ndarray,
    electrode_positions: np.ndarray,
    head_radius: float,
    sigma: float = DEFAULT_SIGMA,
) -> np.ndarray:
    """Raw (unreferenced) scalp potentials, shape (m, n_sources).

    Electrode positions are projected onto the sphere direction-wise,
    and the closed form of the module docstring is evaluated for all
    electrodes and dipoles in one broadcast.  Its radial term is
    rewritten as m_r ((2c - f)(rho^2 + rho + 1)/(1 + rho) - f) / rho^3,
    which is free of cancellation as f -> 0 and gives 3 c m_r at f = 0.
    A dipole at the center (f <= 1e-12) takes the z axis as its
    radial direction.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    orientations = np.atleast_2d(np.asarray(orientations, dtype=float))
    electrodes = np.atleast_2d(np.asarray(electrode_positions, dtype=float))
    if positions.shape != orientations.shape:
        raise ShapeMismatch("positions and orientations must have equal shapes")
    if sigma <= 0.0 or head_radius <= 0.0:
        raise ValueError("sigma and head_radius must be positive")

    ecc = np.linalg.norm(positions, axis=1)
    outside = np.flatnonzero(ecc >= head_radius)
    if outside.size:
        j = outside[0]
        raise SourceOutsideHead(
            f"dipole {j} at radius {ecc[j]:.6g} is not inside {head_radius:.6g}"
        )
    central = ecc <= 1e-12 * head_radius
    r_hat = positions / np.where(central, 1.0, ecc)[:, None]
    r_hat[central] = (0.0, 0.0, 1.0)
    e_hat = electrodes / np.linalg.norm(electrodes, axis=1)[:, None]

    # Electrodes along axis 0, dipoles along axis 1.
    f = ecc / head_radius
    cosg = np.clip(e_hat @ r_hat.T, -1.0, 1.0)
    m_r = np.einsum("ij,ij->i", orientations, r_hat)
    tang = e_hat @ orientations.T - m_r * cosg
    rho = np.sqrt(1.0 - 2.0 * f * cosg + f * f)
    rho3 = rho**3
    radial = m_r * ((2.0 * cosg - f) * (rho * rho + rho + 1.0) / (1.0 + rho) - f) / rho3
    tangential = tang * (2.0 / rho3 + (1.0 + rho) / (rho * (1.0 - f * cosg + rho)))
    return (radial + tangential) / (4.0 * np.pi * sigma * head_radius**2)


@dataclass(frozen=True)
class LeadfieldSet:
    """Role-split lead-fields, the perturbed twins, and the filter view.

    Data generation always reads the unperturbed `interest`,
    `interference` and `background` matrices.  `interest_pert` and
    `interference_pert` come from the jittered geometry; for a plain
    geometry they are the unperturbed arrays themselves.  The filters
    see `filter_interest` and `composite`, the stack of
    `filter_interest` and the filter-side interference matrix (possibly
    perturbed, possibly rank-reduced).
    """

    interest: np.ndarray
    interference: np.ndarray
    background: np.ndarray
    interest_pert: np.ndarray
    interference_pert: np.ndarray
    filter_interest: np.ndarray
    composite: np.ndarray

    def __post_init__(self) -> None:
        m = self.interest.shape[0]
        for name, matrix in vars(self).items():
            if matrix.shape[0] != m:
                raise ShapeMismatch(f"{name} must have {m} sensor rows")


def _referenced(matrix: np.ndarray) -> np.ndarray:
    """Average reference: remove the electrode mean from every column."""
    if matrix.shape[1] == 0:
        return matrix
    return matrix - matrix.mean(axis=0, keepdims=True)


def leadfield_sphere(
    geom: SourceGeometry | PerturbedGeometry,
    montage: ElectrodeMontage,
) -> LeadfieldSet:
    """Build average-referenced lead-fields split by source role.

    Passing a PerturbedGeometry fills the perturbed matrices from the
    jittered coordinates while the plain matrices use the original
    ones; passing a SourceGeometry puts the original arrays in the
    perturbed slots too.  The filter view starts unperturbed; see
    select_filter_leadfields.  The conductivity is DEFAULT_SIGMA.
    """
    base = geom.base if isinstance(geom, PerturbedGeometry) else geom
    radius = base.head_radius
    if abs(montage.head_radius - radius) > 1e-9:
        raise ShapeMismatch("montage radius does not match the head radius")

    def split(positions: np.ndarray, orientations: np.ndarray) -> dict[str, np.ndarray]:
        full = _referenced(
            dipole_potentials(positions, orientations, montage.positions, radius)
        )
        return {
            role: full[:, base.role_indices(role)]
            if base.role_indices(role).size
            else np.zeros((montage.n_electrodes, 0))
            for role in ("interest", "interference", "background")
        }

    plain = split(base.positions, base.orientations)
    if isinstance(geom, PerturbedGeometry):
        pert = split(geom.positions, geom.orientations)
    else:
        pert = plain

    return LeadfieldSet(
        interest=plain["interest"],
        interference=plain["interference"],
        background=plain["background"],
        interest_pert=pert["interest"],
        interference_pert=pert["interference"],
        filter_interest=plain["interest"],
        composite=np.hstack([plain["interest"], plain["interference"]]),
    )


def reduce_rank(matrix: np.ndarray, rank: int) -> np.ndarray:
    """Best rank-r approximation in the Frobenius sense (truncated SVD)."""
    matrix = np.asarray(matrix, dtype=float)
    full = min(matrix.shape)
    if not 1 <= rank <= full:
        raise ValueError(f"rank must lie in [1, {full}], got {rank}")
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    return (u[:, :rank] * s[:rank]) @ vt[:rank]


def select_filter_leadfields(
    lf: LeadfieldSet,
    use_interest_pert: bool,
    use_interference_pert: bool,
    interference_rank: int | None = None,
) -> LeadfieldSet:
    """Choose what the filters see: perturbed twins and rank reduction."""
    filter_interest = lf.interest_pert if use_interest_pert else lf.interest
    filter_interference = (
        lf.interference_pert if use_interference_pert else lf.interference
    )
    if interference_rank is not None:
        if filter_interference.shape[1] == 0:
            raise ValueError("cannot rank-reduce an empty interference lead-field")
        filter_interference = reduce_rank(filter_interference, interference_rank)
    return replace(
        lf,
        filter_interest=filter_interest,
        composite=np.hstack([filter_interest, filter_interference]),
    )


def _snr_gain(reference_norm: float, target_norm: float, snr_db: float) -> float:
    """Amplitude that brings a target of Frobenius norm target_norm to
    snr_db decibels below a reference of norm reference_norm."""
    if not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    if target_norm == 0.0:
        raise ZeroTargetSignal("cannot rescale a signal with zero Frobenius norm")
    return reference_norm / target_norm / 10.0 ** (snr_db / 20.0)


def adjust_snr(reference: np.ndarray, target: np.ndarray, snr_db: float) -> np.ndarray:
    """Rescale target so that the reference-to-target Frobenius power
    ratio equals snr_db decibels.

    Returns target * (||reference||_F / ||target||_F) / 10^(snr_db/20).
    """
    gain = _snr_gain(
        float(np.linalg.norm(reference)), float(np.linalg.norm(target)), snr_db
    )
    return target * gain


class SegmentGains(NamedTuple):
    """Amplitudes one segment applies to each term of the model."""

    interest: float
    interference: float
    background: float
    noise: float


@dataclass(frozen=True)
class Recording:
    """Sensor-space segments plus the gains each of them applied.

    sensors_pre = [g_q H | g_i H_i | g_b H_b] @ X[:, :n] + g_n noise[:, :n]
    with g = gains_pre, and likewise for the post segment with
    gains_pst over X[:, n:].  X stacks the interest, interference and
    background signals, and noise is one (m, 2n) standard-normal draw.
    """

    sensors_pre: np.ndarray
    sensors_pst: np.ndarray
    gains_pre: SegmentGains
    gains_pst: SegmentGains

    def __post_init__(self) -> None:
        if self.sensors_pre.shape != self.sensors_pst.shape:
            raise ShapeMismatch("pre and post segments must have equal shapes")


def compose_measurement(
    signals: SourceSignals,
    lf: LeadfieldSet,
    cfg: SetupConfig,
    rng: np.random.Generator,
) -> tuple[Recording, LeadfieldSet]:
    """Project sources to the sensors at the configured levels.

    The interference, background and noise gains are set over the
    concatenated pre+post segments, so that each term's power relative
    to the interest term meets the configured SINR, SBNR and SMNR.  A
    term switched off in a segment, or with zero power, gets gain 0.0
    there.  The noise is one (m, 2n) standard-normal draw from rng.
    The returned LeadfieldSet is the filter view selected by the
    perturbation flags and the optional interference rank.
    """
    roles = SegmentGains._fields[:3]
    leadfields = [getattr(lf, role) for role in roles]
    blocks = [getattr(signals, role) for role in roles]
    for role, leadfield, block in zip(roles, leadfields, blocks):
        if leadfield.shape[1] != block.shape[0]:
            raise ShapeMismatch(f"{role} lead-field and signal dimensions disagree")
    m, n = lf.interest.shape[0], signals.interest.shape[1] // 2

    noise = rng.standard_normal((m, 2 * n))
    # ||H X||_F^2 = sum((H'H) * (X X')), without forming H X.
    powers = [np.sum((h.T @ h) * (x @ x.T)) for h, x in zip(leadfields, blocks)]
    powers.append(np.vdot(noise, noise))
    reference = np.sqrt(powers[0])
    levels = (cfg.sinr_db, cfg.sbnr_db, cfg.smnr_db)
    scales = [1.0] + [
        _snr_gain(reference, np.sqrt(power), level) if power > 0.0 else 0.0
        for power, level in zip(powers[1:], levels)
    ]
    sources = np.vstack(blocks)

    def segment(name: str, columns: slice) -> tuple[np.ndarray, SegmentGains]:
        gains = SegmentGains(
            *(
                scale if getattr(cfg, f"{role}_{name}") else 0.0
                for scale, role in zip(scales, SegmentGains._fields)
            )
        )
        mixing = np.hstack([gain * h for gain, h in zip(gains, leadfields)])
        sensors = mixing @ sources[:, columns]
        sensors += gains.noise * noise[:, columns]
        return sensors, gains

    sensors_pre, gains_pre = segment("pre", slice(None, n))
    sensors_pst, gains_pst = segment("pst", slice(n, None))
    recording = Recording(sensors_pre, sensors_pst, gains_pre, gains_pst)
    selected = select_filter_leadfields(
        lf, cfg.use_interest_pert, cfg.use_interference_pert, cfg.interference_rank
    )
    return recording, selected


def save_leadfield(matrix: np.ndarray, path: str | Path) -> None:
    """Write a lead-field as a dimension header plus CSV rows.

    First line is "<rows> <cols>"; every following line holds one
    sensor row with 17 significant digits so values round-trip.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    path = Path(path)
    with path.open("w") as handle:
        handle.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
        for row in matrix:
            handle.write(",".join(f"{v:.17g}" for v in row) + "\n")


def load_leadfield(path: str | Path) -> np.ndarray:
    """Read a matrix written by save_leadfield, validating dimensions."""
    path = Path(path)
    with path.open() as handle:
        lines = [line.rstrip("\n") for line in handle]
    if not lines or not lines[0].strip():
        raise ParseError(f"{path}: missing dimension header")
    tokens = lines[0].split()
    if len(tokens) != 2:
        raise ParseError(f"{path}:1: header must hold exactly two integers")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ParseError(f"{path}:1: non-integer dimension header") from exc
    if rows < 0 or cols < 0:
        raise DimensionMismatch(f"{path}:1: dimensions must be non-negative")
    body = [line for line in lines[1:] if line.strip()]
    if len(body) != rows:
        raise DimensionMismatch(
            f"{path}: header promises {rows} rows, found {len(body)}"
        )
    out = np.empty((rows, cols))
    for i, line in enumerate(body):
        cells = line.split(",")
        if len(cells) != cols:
            raise DimensionMismatch(
                f"{path}:{i + 2}: expected {cols} columns, found {len(cells)}"
            )
        try:
            out[i] = [float(cell) for cell in cells]
        except ValueError as exc:
            raise ParseError(f"{path}:{i + 2}: malformed float") from exc
    return out
