"""Acceptance suite: eight end-to-end criteria, one printed verdict each.

Every test prints a single `criterion N: PASS/FAIL` line on the real
stdout (bypassing capture) before asserting, so a plain pytest run
always shows the per-criterion outcome alongside the test result.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from beambench.config import SetupConfig
from beambench.connectivity import connectivity_spectrum, default_freqs
from beambench.filters import (
    CovarianceSet,
    FilterKind,
    lcmv,
    mv_pure,
    regularized_inverse,
    zero_forcing,
)
from beambench.forward import (
    SIGMA,
    compose_measurement,
    dipole_potentials,
    fibonacci_montage,
    leadfield_sphere,
)
from beambench.metrics import load_summary_csv
from beambench.mvar import fit, make_mask, sample_stable_mvar, simulate
from beambench.pipeline import run
from beambench.sources import generate_source_signals, sample_geometry

HEAD = 0.09


def _criterion(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail}", file=sys.__stdout__)


def constraint_instance(seed: int):
    """One well-conditioned random beamforming problem (m=32, l=5, k=3)."""
    rng = np.random.default_rng(np.random.SeedSequence(1000 + seed))
    m, l, k = 32, 5, 3
    h = rng.standard_normal((m, l))
    h_i = rng.standard_normal((m, k))
    a = rng.standard_normal((m, m))
    data_cov = a @ a.T / m + np.eye(m)
    b = rng.standard_normal((m, m))
    noise_cov = b @ b.T / m + np.eye(m)
    return h, h_i, data_cov, noise_cov


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """Three full default-config runs shared by criteria 7 and 8."""
    base = tmp_path_factory.mktemp("acceptance")
    config = SetupConfig()
    start = time.perf_counter()
    first = run(config, out_dir=base / "first", jobs=1)
    elapsed = time.perf_counter() - start
    second = run(config, out_dir=base / "second", jobs=1)
    eight = run(config, out_dir=base / "eight", jobs=8)
    return first, second, eight, elapsed


def test_criterion_1_constraint_suite():
    start = time.perf_counter()
    worst_gain = 0.0
    worst_null = 0.0
    for seed in range(50):
        h, h_i, data_cov, noise_cov = constraint_instance(seed)
        composite = np.hstack([h, h_i])
        eye = np.eye(5)
        nl = lcmv(composite, regularized_inverse(data_cov))[:5]
        for weights in (
            lcmv(h, regularized_inverse(data_cov)),
            lcmv(h, regularized_inverse(noise_cov)),
            nl,
            zero_forcing(h),
        ):
            worst_gain = max(worst_gain, np.linalg.norm(weights @ h - eye))
        worst_null = max(worst_null, np.linalg.norm(nl @ h_i))
    elapsed = time.perf_counter() - start
    ok = worst_gain <= 1e-8 and worst_null <= 1e-8 and elapsed < 10.0
    _criterion(
        1,
        ok,
        f"max ||WH-I||_F {worst_gain:.2e}, max ||W H_i||_F {worst_null:.2e} "
        f"(tol 1e-8), {elapsed:.1f}s (< 10s) over 50 instances",
    )
    assert worst_gain <= 1e-8
    assert worst_null <= 1e-8
    assert elapsed < 10.0


def test_criterion_2_normalization_suite():
    start = time.perf_counter()
    freqs = default_freqs(129)
    worst = 0.0
    for i in range(20):
        dim = (2, 5, 9)[i % 3]
        order = (1, 6)[i % 2]
        rng = np.random.default_rng(np.random.SeedSequence(2000 + i))
        mask = make_mask(dim, 0.2, rng)
        model = sample_stable_mvar(dim, order, mask, 0.95, (-0.3, 0.3), 1000, rng)
        spectrum = connectivity_spectrum(model, freqs)
        col_sums = np.sum(spectrum.pdc**2, axis=0)
        row_sums = np.sum(spectrum.dtf**2, axis=1)
        worst = max(
            worst,
            float(np.max(np.abs(col_sums - 1.0))),
            float(np.max(np.abs(row_sums - 1.0))),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _criterion(
        2,
        ok,
        f"max |unit-sum deviation| {worst:.2e} (tol 1e-10), "
        f"{elapsed:.1f}s (< 10s) over 20 models x 129 frequencies",
    )
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_3_mvar_fit_recovery():
    start = time.perf_counter()
    worst_short = 0.0
    monotone = True
    for seed in range(10):
        rng = np.random.default_rng(np.random.SeedSequence(3000 + seed))
        mask = make_mask(5, 0.2, rng)
        model = sample_stable_mvar(5, 2, mask, 0.95, (-0.3, 0.3), 1000, rng)
        series = simulate(model, 80000, rng)
        truth = model.coeffs
        err_short = float(np.max(np.abs(fit(series[:, :20000], 2).coeffs - truth)))
        err_long = float(np.max(np.abs(fit(series, 2).coeffs - truth)))
        worst_short = max(worst_short, err_short)
        monotone = monotone and err_long < err_short
    elapsed = time.perf_counter() - start
    ok = worst_short <= 0.05 and monotone and elapsed < 30.0
    _criterion(
        3,
        ok,
        f"max coeff error at n=20000 {worst_short:.4f} (tol 0.05), "
        f"quadrupling n reduced it for all 10 seeds: {monotone}, "
        f"{elapsed:.1f}s (< 30s)",
    )
    assert worst_short <= 0.05
    assert monotone
    assert elapsed < 30.0


def test_criterion_4_mv_pure_degeneracy():
    worst = 0.0
    l, k = 5, 3
    for seed in range(50):
        h, h_i, data_cov, noise_cov = constraint_instance(seed)
        rng = np.random.default_rng(np.random.SeedSequence(4000 + seed))
        g = rng.standard_normal((l + k, 4 * (l + k)))
        composite_cov = g @ g.T / g.shape[1]
        cov_set = CovarianceSet(
            data_cov=data_cov,
            noise_cov=noise_cov,
            source_cov=composite_cov[:l, :l],
            cross_cov=composite_cov[:l, :],
        )
        lcmv_r = lcmv(h, regularized_inverse(data_cov))
        lcmv_n = lcmv(h, regularized_inverse(noise_cov))
        nl = lcmv(np.hstack([h, h_i]), regularized_inverse(data_cov))[:l]
        bases = {FilterKind.LCMV_R: lcmv_r, FilterKind.LCMV_N: lcmv_n, FilterKind.NL: nl}
        pairs = {
            FilterKind.MVP_F_1: lcmv_r,
            FilterKind.MVP_F_2: lcmv_r,
            FilterKind.MVP_F_3: lcmv_n,
            FilterKind.MVP_I_1: nl,
            FilterKind.MVP_I_2: nl,
            FilterKind.MVP_I_3: nl,
        }
        for kind, base in pairs.items():
            reduced = mv_pure(kind, l, cov_set, bases.__getitem__)
            worst = max(worst, float(np.linalg.norm(reduced - base)))
    ok = worst <= 1e-8
    _criterion(
        4,
        ok,
        f"max ||W_mvpure - W_base||_F at full rank {worst:.2e} (tol 1e-8) "
        "over 50 instances x 6 variants",
    )
    assert worst <= 1e-8


def test_criterion_5_sphere_oracle():
    montage = fibonacci_montage(128)
    moment = np.array([[0.0, 0.0, 1.0]])
    got = dipole_potentials(np.zeros((1, 3)), moment, montage)[:, 0]
    cos_theta = montage[:, 2] / HEAD
    expected = 3.0 * cos_theta / (4.0 * np.pi * SIGMA * HEAD**2)
    central_gap = float(np.max(np.abs(got - expected)))

    rng = np.random.default_rng(5000)
    equiv_gap = 0.0
    for _ in range(20):
        pos = 0.07 * (lambda v: v / np.linalg.norm(v))(rng.standard_normal(3))
        mom = rng.standard_normal(3)
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0.0:
            q[:, 0] *= -1.0
        base = dipole_potentials(pos[None], mom[None], montage)
        turned = dipole_potentials((q @ pos)[None], (q @ mom)[None], montage @ q.T)
        equiv_gap = max(equiv_gap, float(np.max(np.abs(base - turned))))

    ok = central_gap <= 1e-10 and equiv_gap <= 1e-9
    _criterion(
        5,
        ok,
        f"central dipole vs 3cos(theta)/(4 pi sigma R^2): {central_gap:.2e} "
        f"(tol 1e-10); rotational equivariance: {equiv_gap:.2e} (tol 1e-9)",
    )
    assert central_gap <= 1e-10
    assert equiv_gap <= 1e-9


def test_criterion_6_snr_exactness():
    """The levels compose_measurement mixes: over both segments, each
    of g_i H_i X_i, g_b H_b X_b and g_n noise sits at its configured
    SINR, SBNR and SMNR below ||H X_q||_F.  The terms are formed from
    the recording's gains, with the noise replayed from its seed."""
    levels = (-20.0, 0.0, 20.0)
    n_setups = 20
    worst = 0.0
    for seed in range(n_setups):
        rng = np.random.default_rng(np.random.SeedSequence(6000 + seed))
        counts = tuple(int(c) for c in rng.integers(1, 4, size=3))
        m = int(rng.integers(8, 33))
        setup = SetupConfig(
            sources=counts,
            n_electrodes=m,
            n_samples=int(rng.integers(60, 200)),
            order_interest=2,
            order_background=2,
            interest_pre=True,
        )
        geometry = sample_geometry(counts, rng)
        lf = leadfield_sphere(geometry, fibonacci_montage(m))
        signals = generate_source_signals(geometry, setup, rng)
        n = setup.n_samples
        noise_seed = 6100 + seed
        reference = np.linalg.norm(lf.interest @ signals.interest)
        unscaled = {
            "interference": lf.interference @ signals.interference,
            "background": lf.background @ signals.background,
            "noise": np.random.default_rng(noise_seed).standard_normal((m, 2 * n)),
        }
        for requested in itertools.product(levels, repeat=3):
            sinr, sbnr, smnr = requested
            config = replace(setup, sinr_db=sinr, sbnr_db=sbnr, smnr_db=smnr)
            recording, _ = compose_measurement(
                signals, lf, config, np.random.default_rng(noise_seed)
            )
            for (role, term), level in zip(unscaled.items(), requested):
                mixed = np.hstack(
                    [
                        getattr(recording.gains_pre, role) * term[:, :n],
                        getattr(recording.gains_pst, role) * term[:, n:],
                    ]
                )
                achieved = 20.0 * np.log10(reference / np.linalg.norm(mixed))
                worst = max(worst, abs(achieved - level))
    ok = worst <= 1e-9
    _criterion(
        6,
        ok,
        f"max |achieved - requested| {worst:.2e} dB (tol 1e-9) of compose_measurement "
        f"over {n_setups} setups x {{-20, 0, 20}} dB for each of SINR, SBNR, SMNR",
    )
    assert worst <= 1e-9


def test_criterion_7_end_to_end_ordering(default_runs):
    first, _, _, elapsed = default_runs
    summary = load_summary_csv(first / "summary.csv")

    def mean_corr(name: str) -> float:
        return next(
            row.mean
            for row in summary
            if row.filter_name == name and row.measure == "signal_corr"
        )

    lcmv_corr = mean_corr("LCMV_R")
    randn_corr = mean_corr("RANDN")
    gap = lcmv_corr - randn_corr
    ok = lcmv_corr >= 0.9 and gap >= 0.3 and elapsed < 120.0
    _criterion(
        7,
        ok,
        f"LCMV_R mean per-source correlation {lcmv_corr:.4f} (need >= 0.9), "
        f"margin over RANDN {gap:.4f} (need >= 0.3), {elapsed:.1f}s (< 120s)",
    )
    assert gap >= 0.3
    assert elapsed < 120.0
    assert lcmv_corr >= 0.9


def test_criterion_8_determinism(default_runs):
    first, second, eight, _ = default_runs
    same_serial = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in ("results.csv", "summary.csv")
    )
    same_threaded = all(
        (first / name).read_bytes() == (eight / name).read_bytes()
        for name in ("results.csv", "summary.csv")
    )
    ok = same_serial and same_threaded
    _criterion(
        8,
        ok,
        f"byte-identical results.csv and summary.csv: repeat run {same_serial}, "
        f"--jobs 8 run {same_threaded}",
    )
    assert same_serial
    assert same_threaded
