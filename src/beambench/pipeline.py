"""End-to-end benchmark runs: seeding, realizations, outputs, report.

Stream layout: the source geometry is drawn once from the spawn-key-0
child of the root seed; realization i (1-based) owns the spawn-key-i
child, split in fixed order into signal, perturbation, sensor-noise
and filter streams.  Results are therefore byte-identical for any
worker count, since no stream depends on execution order.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import SetupConfig, to_manifest
from .connectivity import default_freqs
from .errors import BenchError, MissingRun, PipelineError
from .filters import (
    EIG_KINDS,
    MVP_KINDS,
    FilterKind,
    FilterSpec,
    build_filter_bank,
    estimate_covariances,
    reconstruct,
)
from .forward import (
    ElectrodeMontage,
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
    HEAD_RADIUS,
    SourceGeometry,
    generate_source_signals,
    perturb_geometry,
    sample_geometry,
    write_geometry_csv,
)


def _filter_specs(config: SetupConfig) -> list[FilterSpec]:
    """The configured filters in report order, that of FilterKind."""
    specs = []
    for kind in FilterKind:
        if kind.value not in config.filters:
            continue
        rank = config.mvp_rank if kind in MVP_KINDS else None
        sig_dim = config.eig_dim if kind in EIG_KINDS else None
        specs.append(FilterSpec(kind=kind, rank=rank, sig_dim=sig_dim))
    return specs


def _geometry(config: SetupConfig) -> tuple[SourceGeometry, ElectrodeMontage]:
    """The run's source geometry (spawn-key-0 stream) and montage."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    geometry = sample_geometry(config.sources, rng, config.deep_sources)
    return geometry, fibonacci_montage(config.n_electrodes, HEAD_RADIUS)


def _realization_streams(seed: int, index: int) -> list[np.random.Generator]:
    parent = np.random.SeedSequence(seed, spawn_key=(index,))
    return [np.random.default_rng(child) for child in parent.spawn(4)]


def run(config: SetupConfig, out_dir: str | Path | None = None, jobs: int = 1) -> Path:
    """Execute all realizations and write the run directory.

    Outputs: geometry.csv, results.csv, summary.csv, manifest.json and
    (optionally) the filter matrices of the first realization, all
    written once every realization has succeeded: a failed run writes
    nothing.
    The scores fill one (filter, realization, measure) table, filters
    in report order; each realization writes its own slice, and the
    results and summary writers read the whole table.
    The geometry is fixed for the run, so its plain lead-field set and
    Grams are built once; each realization evaluates only the jittered
    interest and interference columns.
    Each distinct weights array of the bank is scored once: one
    reconstruct call writes every estimate, next to the truth, into one
    stack that one evaluate call scores; entries that share a weights
    array (full-rank MV-PURE and its base filter) copy that row.
    A BenchError or ValueError (numpy's LinAlgError included) inside a
    realization is re-raised as a PipelineError that names the
    realization and stage.  Returns the run directory path.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    out = Path(out_dir) if out_dir is not None else Path(config.out_dir)

    geometry, montage = _geometry(config)
    plain = leadfield_sphere(geometry, montage)
    specs = _filter_specs(config)
    freqs = default_freqs(config.pdc_resolution)
    table = np.empty(
        (len(specs), config.n_realizations, len(measure_names(config.n_interest)))
    )
    dumped = []  # the bank of realization 1, when its filters are dumped

    def run_one(index: int) -> None:
        stage = "seeding"
        try:
            rng_signals, rng_perturb, rng_noise, rng_filters = _realization_streams(
                config.seed, index
            )
            stage = "signals"
            signals = generate_source_signals(geometry, config, rng_signals)
            stage = "perturbation"
            perturbed = perturb_geometry(
                geometry, config.cube_edge, config.cone_half_angle, rng_perturb
            )
            stage = "leadfields"
            lf = leadfield_sphere(perturbed, montage, plain)
            stage = "measurement"
            recording, composite = compose_measurement(signals, lf, config, rng_noise)
            cov_set = estimate_covariances(recording, signals)
            stage = "filters"
            bank = build_filter_bank(specs, cov_set, composite, rng_filters)
            if config.dump_filters and index == 1:
                dumped.extend(bank)
            stage = "evaluation"
            distinct = {id(built.weights): built.weights for built in bank}
            slots = {key: slot for slot, key in enumerate(distinct)}
            truth_signal = signals.interest[:, config.n_samples :]
            series = np.empty((len(distinct) + 1, *truth_signal.shape))
            series[0] = truth_signal
            weights = np.stack(list(distinct.values()))
            reconstruct(weights, recording.sensors_pst, out=series[1:])
            scores = evaluate(signals.interest_model, freqs, series, realization=index)
            rows = [slots[id(built.weights)] for built in bank]
            table[:, index - 1] = scores.table[rows]
        except (BenchError, ValueError) as exc:
            raise PipelineError(f"realization {index}, stage {stage}: {exc}") from exc

    indices = range(1, config.n_realizations + 1)
    if jobs == 1:
        for index in indices:
            run_one(index)
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(run_one, indices))

    out.mkdir(parents=True, exist_ok=True)
    if dumped:
        filter_dir = out / "filters"
        filter_dir.mkdir(exist_ok=True)
        for built in dumped:
            save_leadfield(built.weights, filter_dir / f"{built.spec.export_name}.csv")
    names = [spec.name for spec in specs]
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
