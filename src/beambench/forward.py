"""Forward model: electrode montage, lead-fields, sensor composition.

The volume conductor is one homogeneous sphere, of radius
R = sources.HEAD_RADIUS and conductivity sigma = SIGMA; the electrodes
sit on its surface.  For a unit dipole at distance b < R from the
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
switch is off, and for a component with zero power.  The two segments
are column views of one (m, 2n) standard-normal noise draw, which the
caller supplies: each is scaled by its noise gain and gets its mixing
product added in place, so a recording holds no sensor-sized array
besides that draw.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import ShapeMismatch, SourceOutsideHead
from .sources import HEAD_RADIUS, ROLES, PerturbedGeometry, SourceGeometry, SourceSignals

if TYPE_CHECKING:
    from .config import SetupConfig

SIGMA = 0.33  # head conductivity, S/m


def fibonacci_montage(m: int) -> np.ndarray:
    """Positions of m electrodes on the scalp sphere, shape (m, 3),
    spread over its upper 3/4.

    A Fibonacci spiral over z in (-1/2, 1) gives near-uniform coverage
    while leaving the bottom cap (neck/face) free of electrodes.
    """
    idx = np.arange(m)
    z = 1.0 - (idx + 0.5) * 1.5 / m
    azimuth = np.pi * (3.0 - np.sqrt(5.0)) * idx
    rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return HEAD_RADIUS * np.column_stack([rho * np.cos(azimuth), rho * np.sin(azimuth), z])


def dipole_potentials(
    positions: np.ndarray,
    orientations: np.ndarray,
    electrode_positions: np.ndarray,
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

    ecc = np.linalg.norm(positions, axis=1)
    outside = np.flatnonzero(ecc >= HEAD_RADIUS)
    if outside.size:
        j = outside[0]
        raise SourceOutsideHead(
            f"dipole {j} at radius {ecc[j]:.6g} is not inside {HEAD_RADIUS:.6g}"
        )
    central = ecc <= 1e-12 * HEAD_RADIUS
    r_hat = positions / np.where(central, 1.0, ecc)[:, None]
    r_hat[central] = (0.0, 0.0, 1.0)
    e_hat = electrodes / np.linalg.norm(electrodes, axis=1)[:, None]

    # Electrodes along axis 0, dipoles along axis 1.
    f = ecc / HEAD_RADIUS
    cosg = np.clip(e_hat @ r_hat.T, -1.0, 1.0)
    m_r = np.einsum("ij,ij->i", orientations, r_hat)
    tang = e_hat @ orientations.T - m_r * cosg
    rho = np.sqrt(1.0 - 2.0 * f * cosg + f * f)
    rho3 = rho**3
    radial = m_r * ((2.0 * cosg - f) * (rho * rho + rho + 1.0) / (1.0 + rho) - f) / rho3
    tangential = tang * (2.0 / rho3 + (1.0 + rho) / (rho * (1.0 - f * cosg + rho)))
    return (radial + tangential) / (4.0 * np.pi * SIGMA * HEAD_RADIUS**2)


@dataclass(frozen=True)
class LeadfieldSet:
    """Role-split lead-fields, their Grams and the perturbed twins.

    Data generation always reads the unperturbed `interest`,
    `interference` and `background` matrices and their Grams H'H
    (`grams`, in that order); a run builds these once, from its fixed
    geometry.  `interest_pert` and `interference_pert` come from the
    jittered geometry; for a plain geometry they are the unperturbed
    arrays themselves.  What the filters see is chosen from these by
    select_filter_leadfields.
    """

    interest: np.ndarray
    interference: np.ndarray
    background: np.ndarray
    grams: tuple[np.ndarray, np.ndarray, np.ndarray]
    interest_pert: np.ndarray
    interference_pert: np.ndarray

    def __post_init__(self) -> None:
        m = self.interest.shape[0]
        for name, matrix in vars(self).items():
            if name != "grams" and matrix.shape[0] != m:
                raise ShapeMismatch(f"{name} must have {m} sensor rows")


def _referenced(matrix: np.ndarray) -> np.ndarray:
    """Average reference: remove the electrode mean from every column."""
    return matrix - matrix.mean(axis=0, keepdims=True)


def leadfield_sphere(
    geom: SourceGeometry,
    montage: np.ndarray,
    plain: LeadfieldSet | None = None,
) -> LeadfieldSet:
    """Build average-referenced lead-fields split by source role, for
    the electrode positions `montage` (from fibonacci_montage).

    A SourceGeometry gives the plain set: every role's matrix and Gram,
    with the same arrays in the perturbed slots.  A run builds it once,
    since its geometry stays fixed.  A PerturbedGeometry takes the plain
    set of its base geometry as `plain` and evaluates only the jittered
    interest and interference columns (no slot holds perturbed
    background columns).
    """
    perturbed = isinstance(geom, PerturbedGeometry)
    if perturbed and plain is None:
        raise ValueError("a perturbed geometry needs the plain set of its base")

    l, k, _ = geom.counts
    n_read = l + k if perturbed else geom.n_sources
    positions, orientations = geom.positions[:n_read], geom.orientations[:n_read]
    full = _referenced(dipole_potentials(positions, orientations, montage))
    # Fortran-ordered copies: the BLAS products downstream round
    # differently on a C-ordered layout, so the layout is part of what
    # fixes the output bytes.
    blocks = [
        np.asfortranarray(full[:, start:stop])
        for start, stop in ((0, l), (l, l + k), (l + k, None))
    ]
    if perturbed:
        return replace(plain, interest_pert=blocks[0], interference_pert=blocks[1])
    return LeadfieldSet(
        *blocks,
        grams=tuple(h.T @ h for h in blocks),
        interest_pert=blocks[0],
        interference_pert=blocks[1],
    )


def reduce_rank(matrix: np.ndarray, rank: int) -> np.ndarray:
    """Best rank-r approximation in the Frobenius sense (truncated SVD)."""
    matrix = np.asarray(matrix, dtype=float)
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    return (u[:, :rank] * s[:rank]) @ vt[:rank]


def select_filter_leadfields(
    lf: LeadfieldSet,
    use_interest_pert: bool,
    use_interference_pert: bool,
    interference_rank: int | None = None,
) -> np.ndarray:
    """The composite [H H_i] the filters see: the interest columns, then
    the interference columns, each perturbed when its flag is set, the
    interference rank-reduced when interference_rank is given."""
    interest = lf.interest_pert if use_interest_pert else lf.interest
    interference = lf.interference_pert if use_interference_pert else lf.interference
    if interference_rank is not None:
        interference = reduce_rank(interference, interference_rank)
    return np.hstack([interest, interference])


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
    The segments are the two column halves of that draw, scaled and
    mixed in place: views of one array, with a row stride of 2n.
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
    noise: Callable[[], np.ndarray],
) -> tuple[Recording, np.ndarray]:
    """Project sources to the sensors at the configured levels.

    The interference, background and noise gains are set over the
    concatenated pre+post segments, so that each term's power relative
    to the interest term meets the configured SINR, SBNR and SMNR.  A
    term switched off in a segment, or with zero power, gets gain 0.0
    there.  The noise is the (m, 2n) standard-normal draw that `noise()`
    returns, called once, after the shapes are checked; a run passes
    the result of a draw started on a side thread, so any wait for it
    falls in this call.  Its power is taken before the segments
    overwrite the draw in place.
    Also returns the composite [H H_i] the filters see, selected by the
    perturbation flags and the optional interference rank.
    """
    leadfields = [getattr(lf, role) for role in ROLES]
    blocks = [getattr(signals, role) for role in ROLES]
    for role, leadfield, block in zip(ROLES, leadfields, blocks):
        if leadfield.shape[1] != block.shape[0]:
            raise ShapeMismatch(f"{role} lead-field and signal dimensions disagree")
    n = signals.interest.shape[1] // 2

    draw = noise()
    # ||H X||_F^2 = sum((H'H) * (X X')), without forming H X.
    powers = [np.sum(gram * (x @ x.T)) for gram, x in zip(lf.grams, blocks)]
    powers.append(np.vdot(draw, draw))
    reference = np.sqrt(powers[0])
    levels = (cfg.sinr_db, cfg.sbnr_db, cfg.smnr_db)
    scales = [1.0] + [
        reference / np.sqrt(power) / 10.0 ** (level / 20.0) if power > 0.0 else 0.0
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
        sensors = draw[:, columns]
        sensors *= gains.noise
        sensors += mixing @ sources[:, columns]
        return sensors, gains

    sensors_pre, gains_pre = segment("pre", slice(None, n))
    sensors_pst, gains_pst = segment("pst", slice(n, None))
    recording = Recording(sensors_pre, sensors_pst, gains_pre, gains_pst)
    composite = select_filter_leadfields(
        lf, cfg.use_interest_pert, cfg.use_interference_pert, cfg.interference_rank
    )
    return recording, composite


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
