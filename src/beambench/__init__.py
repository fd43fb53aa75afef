"""beambench: seeded EEG source-reconstruction benchmark.

Ground-truth brain activity from stable MVAR models is projected
through a spherical-head forward model, mixed with interference,
background activity and sensor noise at configured SNR levels, and
reconstructed by a bank of fifteen spatial filters whose output is
scored in signal space and in PDC/DTF connectivity space.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .config import SetupConfig, load_config
from .connectivity import (
    ConnectivitySpectrum,
    connectivity_spectrum,
    default_freqs,
    dtf,
    pdc,
    spectral_transform,
)
from .filters import (
    CovarianceFactor,
    CovarianceSet,
    FilterKind,
    FilterSpec,
    SpatialFilter,
    build_filter_bank,
    estimate_covariances,
    lcmv,
    mv_pure,
    nulling,
    randn_baseline,
    reconstruct,
    regularized_inverse,
    wiener,
    zero_forcing,
)
from .forward import (
    ElectrodeMontage,
    LeadfieldSet,
    Recording,
    SegmentGains,
    adjust_snr,
    compose_measurement,
    dipole_potentials,
    fibonacci_montage,
    leadfield_sphere,
    load_leadfield,
    reduce_rank,
    save_leadfield,
    select_filter_leadfields,
)
from .metrics import EvalRow, SummaryRow, aggregate, evaluate, render_report
from .mvar import (
    MaskMatrix,
    MvarModel,
    fit,
    is_stable,
    make_mask,
    sample_stable_mvar,
    simulate,
)
from .pipeline import export_leadfield, report, run
from .sources import (
    PerturbedGeometry,
    SourceGeometry,
    SourceSignals,
    erp_waveform,
    generate_source_signals,
    perturb_geometry,
    sample_geometry,
)
