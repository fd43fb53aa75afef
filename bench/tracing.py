"""Spans and work counters recorded around beambench's public calls.

`Tracer.installed()` replaces module attributes of the program with
wrappers while a traced run executes: the stage calls that
`beambench.pipeline.run` makes, and the calls that other modules make
across module boundaries.  Every call records one span (name, stage,
parent, thread, start, end, thread CPU time) in memory; the wrappers
keep a few argument facts that the counters need.  `summarize` derives
the per-layer metrics once the run is over.
"""

from __future__ import annotations

import inspect
import statistics
import threading
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from beambench import connectivity, filters, forward, metrics, mvar, pipeline, sources

STAGES = (
    "signals",
    "perturbation",
    "leadfields",
    "measurement",
    "covariances",
    "filters",
    "evaluation",
    "outputs",
)

# Two arrays count as the same work when they agree to this relative
# Frobenius tolerance: the full-rank MV-PURE weights equal their base
# weights only up to rounding.
DUPLICATE_RTOL = 1e-8


class Span:
    __slots__ = ("name", "stage", "parent", "thread", "start", "end", "cpu", "attrs")

    def __init__(self, name: str, stage: str | None, parent: "Span | None") -> None:
        self.name = name
        self.stage = stage
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = self.end = self.cpu = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _perturbed_columns(span, args, result):
    geom = args["geom"]
    span.attrs["perturbed"] = (
        geom.base.n_sources if isinstance(geom, sources.PerturbedGeometry) else 0
    )


def _read_perturbed_columns(span, args, result):
    cfg, lf = args["cfg"], args["lf"]
    span.attrs["read"] = (
        lf.interest_pert.shape[1] * cfg.use_interest_pert
        + lf.interference_pert.shape[1] * cfg.use_interference_pert
    )


def _bank(span, args, result):
    span.attrs["weights"] = [built.weights for built in result]


def _evaluation(span, args, result):
    span.attrs["realization"] = args["realization"]
    span.attrs["fit_failed"] = result.fit_failed


def _steps(span, args, result):
    span.attrs["steps"] = args["n_samples"] + args["burn_in"]


def _stability(span, args, result):
    span.attrs["accepted"] = bool(result[0])


def _coefficients(span, args, result):
    span.attrs["coeffs"] = args["model"].coeffs


def _grid(span, args, result):
    span.attrs["points"] = len(args["freqs"])


def _dipoles(span, args, result):
    positions = np.atleast_2d(args["positions"])
    orientations = np.atleast_2d(args["orientations"])
    span.attrs["dipoles"] = np.hstack([positions, orientations])
    span.attrs["electrodes"] = np.atleast_2d(args["electrode_positions"]).shape[0]


# (module, attribute, span name, pipeline stage, argument hook)
PATCHES = (
    (pipeline, "generate_source_signals", "sources.generate_source_signals", "signals", None),
    (pipeline, "perturb_geometry", "sources.perturb_geometry", "perturbation", None),
    (pipeline, "leadfield_sphere", "forward.leadfield_sphere", "leadfields", _perturbed_columns),
    (pipeline, "compose_measurement", "forward.compose_measurement", "measurement",
     _read_perturbed_columns),
    (pipeline, "estimate_covariances", "filters.estimate_covariances", "covariances", None),
    (pipeline, "build_filter_bank", "filters.build_filter_bank", "filters", _bank),
    (pipeline, "reconstruct", "filters.reconstruct", "evaluation", None),
    (pipeline, "evaluate", "metrics.evaluate", "evaluation", _evaluation),
    (pipeline, "write_geometry_csv", "sources.write_geometry_csv", "outputs", None),
    (pipeline, "write_results_csv", "metrics.write_results_csv", "outputs", None),
    (pipeline, "aggregate", "metrics.aggregate", "outputs", None),
    (pipeline, "write_summary_csv", "metrics.write_summary_csv", "outputs", None),
    (pipeline, "to_manifest", "config.to_manifest", "outputs", None),
    (sources, "sample_stable_mvar", "mvar.sample_stable_mvar", None, None),
    (sources, "simulate", "mvar.simulate", None, _steps),
    (mvar, "is_stable", "mvar.is_stable", None, _stability),
    (metrics, "fit", "mvar.fit", None, None),
    (metrics, "connectivity_spectrum", "connectivity.connectivity_spectrum", None,
     _coefficients),
    (connectivity, "spectral_transform", "connectivity.spectral_transform", None, _grid),
    (forward, "dipole_potentials", "forward.dipole_potentials", None, _dipoles),
    (filters, "regularized_inverse", "filters.regularized_inverse", None, None),
)


def _distinct(arrays) -> int:
    kept: list[np.ndarray] = []
    for array in arrays:
        if not any(
            k.shape == array.shape
            and np.linalg.norm(k - array) <= DUPLICATE_RTOL * np.linalg.norm(k)
            for k in kept
        ):
            kept.append(array)
    return len(kept)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _union_length(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


class Tracer:
    """Spans of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, stage: str | None = None, hook=None):
        signature = inspect.signature(fn) if hook is not None else None

        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stage, stack[-1] if stack else None)
            stack.append(span)
            cpu = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - cpu
                stack.pop()
                self.spans.append(span)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(span, bound.arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap the program's functions; restore them on exit.

        RuntimeWarnings raised inside `spectral_transform` (its
        pseudoinverse fallback) are counted on its span instead of
        being printed; every other warning is shown as usual.
        """
        saved = []
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            show = warnings.showwarning

            def count_fallback(message, category, *rest, **kwargs):
                stack = self._stack()
                if (
                    issubclass(category, RuntimeWarning)
                    and stack
                    and stack[-1].name == "connectivity.spectral_transform"
                ):
                    stack[-1].attrs["fallbacks"] = stack[-1].attrs.get("fallbacks", 0) + 1
                else:
                    show(message, category, *rest, **kwargs)

            warnings.showwarning = count_fallback
            try:
                for module, attribute, name, stage, hook in PATCHES:
                    original = getattr(module, attribute)
                    saved.append((module, attribute, original))
                    setattr(module, attribute, self.wrap(original, name, stage, hook))
                yield self
            finally:
                for module, attribute, original in reversed(saved):
                    setattr(module, attribute, original)

    def _realization_seconds(self) -> list[float]:
        """Wall time of each realization: in each worker thread, from a
        signals stage to the end of the last stage before the next one."""
        by_thread: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.stage is not None and span.stage != "outputs":
                by_thread[span.thread].append(span)
        seconds = []
        for spans in by_thread.values():
            start = end = None
            for span in sorted(spans, key=lambda s: s.start):
                if span.stage == "signals":
                    if start is not None:
                        seconds.append(end - start)
                    start, end = span.start, span.end
                elif start is not None:
                    end = max(end, span.end)
            if start is not None:
                seconds.append(end - start)
        return seconds

    def summarize(self, run_start: float, run_end: float) -> tuple[dict, dict]:
        """Per-layer metrics of the run: (exact counts, timings).

        Counts and ratios of counts are functions of the config and the
        seed, so they must repeat exactly between runs; timings vary.
        """
        named: dict[str, list[Span]] = defaultdict(list)
        child_seconds: dict[int, float] = defaultdict(float)
        for span in self.spans:
            named[span.name].append(span)
            if span.parent is not None:
                child_seconds[id(span.parent)] += span.duration

        def self_s(name: str) -> float:
            return sum(s.duration - child_seconds[id(s)] for s in named[name])

        def attr_sum(name: str, key: str) -> int:
            return sum(s.attrs[key] for s in named[name])

        staged = [s for s in self.spans if s.stage is not None]
        realizations = self._realization_seconds()
        timings = {f"pipeline.{stage}_s": 0.0 for stage in STAGES}
        for span in staged:
            timings[f"pipeline.{span.stage}_s"] += span.duration
        timings["pipeline.wait_s"] = sum(s.duration - s.cpu for s in staged)
        timings["pipeline.realization_p50_s"] = statistics.median(realizations)
        timings["pipeline.realization_max_s"] = max(realizations)
        for name in (
            "sources.generate_source_signals",
            "mvar.simulate",
            "mvar.sample_stable_mvar",
            "mvar.fit",
            "forward.dipole_potentials",
            "forward.compose_measurement",
            "filters.estimate_covariances",
            "filters.build_filter_bank",
            "filters.reconstruct",
            "connectivity.spectral_transform",
            "metrics.evaluate",
        ):
            timings[f"{name}.self_s"] = self_s(name)
        covered = _union_length(
            [(max(s.start, run_start), min(s.end, run_end)) for s in staged]
        )
        timings["tracing.stage_coverage"] = covered / (run_end - run_start)

        attempts = [s for s in named["mvar.is_stable"]
                    if s.parent is not None and s.parent.name == "mvar.sample_stable_mvar"]
        dipoles = [row.tobytes() for s in named["forward.dipole_potentials"]
                   for row in s.attrs["dipoles"]]
        columns = sum(len(s.attrs["dipoles"]) * s.attrs["electrodes"]
                      for s in named["forward.dipole_potentials"])
        banks = [s.attrs["weights"] for s in named["filters.build_filter_bank"]]
        spectra: dict[int, list[np.ndarray]] = defaultdict(list)
        for s in named["connectivity.connectivity_spectrum"]:
            spectra[s.parent.attrs["realization"]].append(s.attrs["coeffs"])
        spectrum_calls = len(named["connectivity.connectivity_spectrum"])
        perturbed = attr_sum("forward.leadfield_sphere", "perturbed")

        exact = {
            "mvar.simulate.calls": len(named["mvar.simulate"]),
            "mvar.simulate.steps": attr_sum("mvar.simulate", "steps"),
            "mvar.stability.attempts": len(attempts),
            "mvar.stability.accept_ratio": _ratio(
                sum(s.attrs["accepted"] for s in attempts), len(attempts)
            ),
            "mvar.fit.calls": len(named["mvar.fit"]),
            "forward.dipole_potentials.calls": len(named["forward.dipole_potentials"]),
            "forward.dipole_potentials.columns": columns,
            "forward.dipole_potentials.repeat_ratio": _ratio(
                len(dipoles) - len(set(dipoles)), len(dipoles)
            ),
            "forward.leadfield_sphere.unread_ratio": _ratio(
                perturbed - attr_sum("forward.compose_measurement", "read"), perturbed
            ),
            "filters.regularized_inverse.calls": len(named["filters.regularized_inverse"]),
            "filters.bank.distinct_ratio": _ratio(
                sum(_distinct(bank) for bank in banks), sum(len(bank) for bank in banks)
            ),
            "connectivity.spectral_transform.calls": len(
                named["connectivity.spectral_transform"]
            ),
            "connectivity.spectral_transform.freq_points": attr_sum(
                "connectivity.spectral_transform", "points"
            ),
            "connectivity.pinv_fallbacks": sum(
                s.attrs.get("fallbacks", 0) for s in named["connectivity.spectral_transform"]
            ),
            "metrics.evaluate.calls": len(named["metrics.evaluate"]),
            "metrics.spectra.repeat_ratio": _ratio(
                spectrum_calls - sum(_distinct(group) for group in spectra.values()),
                spectrum_calls,
            ),
            "metrics.fit_failed": sum(s.attrs["fit_failed"] for s in named["metrics.evaluate"]),
        }
        return exact, timings
