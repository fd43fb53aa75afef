"""End-to-end benchmark runs: seeding, realizations, outputs, report.

Stream layout: the source geometry is drawn once from the spawn-key-0
child of the root seed; realization i (1-based) owns the spawn-key-i
child, split in fixed order into signal, perturbation, sensor-noise
and filter streams.  Results are therefore byte-identical for any
worker count, since no stream depends on execution order.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import SetupConfig, to_manifest
from .connectivity import default_freqs
from .errors import BenchError, MissingRun, PipelineError
from .filters import (
    MVP_KINDS,
    BankEntry,
    FilterKind,
    build_filter_bank,
    estimate_covariances,
    reconstruct,
)
from .forward import (
    LeadfieldSet,
    compose_measurement,
    fibonacci_montage,
    leadfield_sphere,
    save_leadfield,
)
from .metrics import (
    aggregate,
    evaluate,
    load_summary_csv,
    measure_names,
    render_report,
    write_results_csv,
    write_summary_csv,
)
from .sources import (
    SourceGeometry,
    generate_source_signals,
    perturb_geometry,
    sample_geometry,
    write_geometry_csv,
)


def _geometry(config: SetupConfig) -> tuple[SourceGeometry, np.ndarray]:
    """The run's source geometry (spawn-key-0 stream) and electrode
    positions."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    geometry = sample_geometry(config.sources, rng, config.deep_sources)
    return geometry, fibonacci_montage(config.n_electrodes)


def _check_out_dir(out: Path) -> None:
    """Fail before any work when `out` cannot become a run directory.

    `out` must be a writable directory, or not exist yet under a
    writable directory: its nearest existing ancestor.  Creates nothing.
    """
    probe = out
    while not probe.exists() and probe != probe.parent:
        probe = probe.parent
    cannot = f"cannot write the run to {out}: {probe} is not"
    if not probe.is_dir():
        raise NotADirectoryError(f"{cannot} a directory")
    if not os.access(probe, os.W_OK | os.X_OK):
        raise PermissionError(f"{cannot} writable")


def realize(
    config: SetupConfig,
    geometry: SourceGeometry,
    montage: np.ndarray,
    plain: LeadfieldSet,
    kinds: list[FilterKind],
    rank: int,
    freqs: np.ndarray,
    index: int,
) -> tuple[np.ndarray, list[BankEntry]]:
    """Realization `index` (1-based) of a run, from its own spawn-key
    streams: its (len(kinds), n_measures) scores and its bank, both in
    the order of `kinds`.  `plain` is the lead-field set of `geometry`
    on the electrode positions `montage`; the geometry is jittered, and
    its interest and interference columns evaluated, only when a
    H_*_pert flag lets the filters read them.
    Each distinct weights array is scored once, by one reconstruct and
    one evaluate call; entries that share it (full-rank MV-PURE and its
    base) copy its row.  A BenchError or ValueError (LinAlgError
    included) becomes a PipelineError naming the realization and stage."""
    stage = "seeding"
    try:
        parent = np.random.SeedSequence(config.seed, spawn_key=(index,))
        rng_signals, rng_perturb, rng_noise, rng_filters = (
            np.random.default_rng(child) for child in parent.spawn(4)
        )
        stage = "signals"
        signals = generate_source_signals(geometry, config, rng_signals)
        lf = plain
        if config.use_interest_pert or config.use_interference_pert:
            stage = "perturbation"
            perturbed = perturb_geometry(
                geometry, config.cube_edge, config.cone_half_angle, rng_perturb
            )
            stage = "leadfields"
            lf = leadfield_sphere(perturbed, montage, plain)
        stage = "measurement"
        recording, composite = compose_measurement(signals, lf, config, rng_noise)
        stage = "covariances"
        cov_set = estimate_covariances(recording, signals)
        stage = "filters"
        bank = build_filter_bank(kinds, cov_set, composite, rng_filters, rank, config.eig_dim)
        stage = "evaluation"
        distinct = {id(built.weights): built.weights for built in bank}
        slots = {key: slot for slot, key in enumerate(distinct)}
        truth_signal = signals.interest[:, config.n_samples :]
        series = np.empty((len(distinct) + 1, *truth_signal.shape))
        series[0] = truth_signal
        weights = np.stack(list(distinct.values()))
        reconstruct(weights, recording.sensors_pst, out=series[1:])
        scores = evaluate(signals.interest_model, freqs, series, realization=index)
        return scores.table[[slots[id(built.weights)] for built in bank]], bank
    except (BenchError, ValueError) as exc:
        raise PipelineError(f"realization {index}, stage {stage}: {exc}") from exc


def run(config: SetupConfig, out_dir: str | Path | None = None, jobs: int = 1) -> Path:
    """Execute all realizations and write the run directory.

    Outputs: geometry.csv, results.csv, summary.csv, manifest.json and
    (optionally) the filter matrices of the first realization, as
    filters/<kind>.csv or, for MV-PURE, filters/<kind>_r<rank>.csv, all
    written once every realization has succeeded: a failed run writes
    nothing.  An output path that cannot become a directory fails
    before the first realization.
    The plain lead-field set of the run's fixed geometry is built once.
    Each realization is one `realize` call, in the calling thread for
    jobs = 1 and on `jobs` threads otherwise; its scores fill its slice
    of one (filter, realization, measure) table, filters in report
    order.  Returns the run directory path.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    out = Path(out_dir) if out_dir is not None else Path(config.out_dir)
    _check_out_dir(out)

    geometry, montage = _geometry(config)
    plain = leadfield_sphere(geometry, montage)
    kinds = [kind for kind in FilterKind if kind.value in config.filters]
    rank = config.mvp_rank or config.n_interest  # MV-PURE rank of every entry
    freqs = default_freqs(config.pdc_resolution)
    table = np.empty(
        (len(kinds), config.n_realizations, len(measure_names(config.n_interest)))
    )
    realization = partial(realize, config, geometry, montage, plain, kinds, rank, freqs)
    indices = range(1, config.n_realizations + 1)
    dumped = []  # the bank of realization 1, when its filters are dumped
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        # jobs = 1 runs in the calling thread: the built-in map submits nothing
        results = map(realization, indices) if jobs == 1 else pool.map(realization, indices)
        for index, (scores, bank) in zip(indices, results):
            table[:, index - 1] = scores
            if config.dump_filters and index == 1:
                dumped = bank

    out.mkdir(parents=True, exist_ok=True)
    if dumped:
        filter_dir = out / "filters"
        filter_dir.mkdir(exist_ok=True)
        for kind, weights in dumped:
            stem = f"{kind.value}_r{rank}" if kind in MVP_KINDS else kind.value
            save_leadfield(weights, filter_dir / f"{stem}.csv")
    names = [kind.value for kind in kinds]
    write_geometry_csv(geometry, out / "geometry.csv")
    write_results_csv(names, table, out / "results.csv")
    write_summary_csv(aggregate(names, table), out / "summary.csv")
    manifest = {
        "tool": "beambench",
        "version": __version__,
        "root_seed": config.seed,
        "streams": {
            "geometry": {"spawn_key": [0]},
            "realizations": {
                "spawn_key": "[i] for realization i (1-based)",
                "children": ["signals", "perturbation", "noise", "filters"],
            },
        },
        "outputs": ["geometry.csv", "results.csv", "summary.csv", "manifest.json"],
    }
    manifest.update(to_manifest(config))
    with (out / "manifest.json").open("w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return out


def report(run_dir: str | Path) -> str:
    """Render the summary table of a finished run."""
    summary_path = Path(run_dir) / "summary.csv"
    if not summary_path.exists():
        raise MissingRun(f"no summary.csv under {run_dir}")
    return render_report(load_summary_csv(summary_path))


def export_leadfield(config: SetupConfig, out_path: str | Path) -> Path:
    """Write the full average-referenced lead-field for the config's
    geometry, columns ordered like the geometry.csv rows."""
    lf = leadfield_sphere(*_geometry(config))
    matrix = np.hstack([lf.interest, lf.interference, lf.background])
    out_path = Path(out_path)
    save_leadfield(matrix, out_path)
    return out_path
