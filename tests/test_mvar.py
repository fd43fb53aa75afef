"""Tests for the MVAR model container, sampling, simulation and fit."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest

from beambench import mvar
from beambench.errors import (
    RankDeficientRegressor,
    StabilitySearchExhausted,
    UnstableModel,
)
from beambench.mvar import (
    MvarModel,
    _block_maps,
    _block_size,
    _lagged_moments,
    fit,
    fit_coefficients,
    is_stable,
    make_mask,
    sample_stable_mvar,
    simulate,
)


def scalar_model(a: float, noise: float = 1.0) -> MvarModel:
    return MvarModel(
        dim=1, order=1, coeffs=np.array([[[a]]]), noise_cov=np.array([[noise]])
    )


class TestMvarModel:
    def test_valid_model_stores_float_arrays(self):
        model = MvarModel(2, 1, np.zeros((1, 2, 2), dtype=int), np.eye(2, dtype=int))
        assert model.coeffs.dtype == float
        assert model.noise_cov.dtype == float

    def test_coeffs_shape_must_match_order_and_dim(self):
        with pytest.raises(ValueError, match="coeffs shape"):
            MvarModel(2, 2, np.zeros((1, 2, 2)), np.eye(2))

    def test_noise_cov_shape_must_match_dim(self):
        with pytest.raises(ValueError, match="noise_cov shape"):
            MvarModel(2, 1, np.zeros((1, 2, 2)), np.eye(3))

    def test_noise_cov_must_be_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            MvarModel(2, 1, np.zeros((1, 2, 2)), np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_noise_cov_must_be_positive_semidefinite(self):
        bad = np.array([[1.0, 0.0], [0.0, -0.5]])
        with pytest.raises(ValueError, match="semidefinite"):
            MvarModel(2, 1, np.zeros((1, 2, 2)), bad)

    def test_non_finite_entries_rejected(self):
        coeffs = np.zeros((1, 2, 2))
        coeffs[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            MvarModel(2, 1, coeffs, np.eye(2))

    def test_companion_layout(self):
        a1 = np.array([[0.1, 0.2], [0.3, 0.4]])
        a2 = np.array([[0.5, 0.6], [0.7, 0.8]])
        model = MvarModel(2, 2, np.stack([a1, a2]), np.eye(2))
        comp = model.companion()
        assert comp.shape == (4, 4)
        assert np.array_equal(comp[:2, :2], a1)
        assert np.array_equal(comp[:2, 2:], a2)
        assert np.array_equal(comp[2:, :2], np.eye(2))
        assert np.array_equal(comp[2:, 2:], np.zeros((2, 2)))

    def test_coeff_stack_is_horizontal(self):
        a1 = np.full((2, 2), 1.0)
        a2 = np.full((2, 2), 2.0)
        model = MvarModel(2, 2, np.stack([a1, a2]), np.eye(2))
        assert np.array_equal(model.coeff_stack(), np.hstack([a1, a2]))


class TestMakeMask:
    def test_zero_fraction_gives_identity(self):
        mask = make_mask(3, 0.0, np.random.default_rng(0))
        assert np.array_equal(mask, np.eye(3))

    def test_full_fraction_gives_all_ones(self):
        mask = make_mask(3, 1.0, np.random.default_rng(0))
        assert np.array_equal(mask, np.ones((3, 3)))

    def test_default_fraction_count_dim9(self):
        mask = make_mask(9, 0.2, np.random.default_rng(1))
        off = mask[~np.eye(9, dtype=bool)]
        assert int(off.sum()) == 14  # round(0.2 * 9 * 8)
        assert np.all(np.diag(mask) == 1.0)

    def test_exact_count_for_every_fraction(self):
        rng = np.random.default_rng(2)
        for dim, frac in ((2, 0.5), (5, 0.33), (7, 0.8)):
            mask = make_mask(dim, frac, rng)
            off = mask[~np.eye(dim, dtype=bool)]
            assert int(off.sum()) == round(frac * dim * (dim - 1))

    def test_deterministic_given_seed(self):
        a = make_mask(6, 0.4, np.random.default_rng(42))
        b = make_mask(6, 0.4, np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestIsStable:
    def test_diagonal_half(self):
        model = MvarModel(3, 1, 0.5 * np.eye(3)[None], np.eye(3))
        stable, radius = is_stable(model, 1.0)
        assert stable
        assert radius == pytest.approx(0.5, abs=1e-12)

    def test_unit_diagonal_is_boundary(self):
        model = MvarModel(3, 1, np.eye(3)[None], np.eye(3))
        stable, radius = is_stable(model, 1.0)
        assert not stable
        assert radius == pytest.approx(1.0, abs=1e-12)

    def test_nilpotent_companion_has_zero_radius(self):
        a1 = np.array([[0.0, 1.0], [0.0, 0.0]])
        model = MvarModel(2, 2, np.stack([a1, np.zeros((2, 2))]), np.eye(2))
        stable, radius = is_stable(model, 1.0)
        assert stable
        assert radius < 1e-6

    def test_limit_tightens_the_verdict(self):
        model = scalar_model(0.7)
        assert is_stable(model, 0.8)[0]
        assert not is_stable(model, 0.6)[0]


def count_eigvals(monkeypatch) -> list[int]:
    """Count np.linalg.eigvals calls from now on; returns the counter."""
    calls = [0]
    original = np.linalg.eigvals

    def counting(matrix):
        calls[0] += 1
        return original(matrix)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return calls


class TestSpectralRadiusCache:
    def test_radius_is_computed_once_per_model(self, monkeypatch):
        calls = count_eigvals(monkeypatch)
        model = MvarModel(3, 1, 0.5 * np.eye(3)[None], np.eye(3))
        assert is_stable(model, 1.0) == (True, pytest.approx(0.5, abs=1e-12))
        assert is_stable(model, 0.4) == (False, model.spectral_radius)
        assert calls[0] == 1

    def test_one_eigvals_per_accepted_model_through_simulate(self, monkeypatch):
        rng = np.random.default_rng(np.random.SeedSequence(31))
        mask = make_mask(6, 0.3, rng)
        attempts = []
        original = mvar.is_stable

        def recording(model, stab_limit=1.0):
            attempts.append(model)
            return original(model, stab_limit)

        monkeypatch.setattr(mvar, "is_stable", recording)
        calls = count_eigvals(monkeypatch)
        model = sample_stable_mvar(6, 4, mask, 0.95, (-0.4, 0.4), 1000, rng)
        assert len(attempts) > 1  # some draws were rejected
        assert calls[0] == len(attempts)
        simulate(model, 200, rng)
        simulate(model, 200, rng)
        assert calls[0] == len(attempts)

    def test_threads_reading_one_model_agree(self):
        model = random_model(8, 12, 3, "full")
        expected = float(np.max(np.abs(np.linalg.eigvals(model.companion()))))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda: model.spectral_radius) for _ in range(64)]
                radii = [future.result(timeout=30) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert radii == [expected] * 64

    def test_hand_built_unstable_model_still_raises(self, monkeypatch):
        # x[n] = 1.45 x[n-1] - 0.25 x[n-2] per channel: companion roots 1.25, 0.2
        lag1, lag2 = 1.45 * np.eye(2), -0.25 * np.eye(2)
        model = MvarModel(2, 2, np.stack([lag1, lag2]), np.eye(2))
        calls = count_eigvals(monkeypatch)
        with pytest.raises(UnstableModel, match="radius 1.250000 is not below 1"):
            simulate(model, 10, np.random.default_rng(0))
        stable, radius = is_stable(model)
        assert not stable
        assert radius == pytest.approx(1.25, abs=1e-12)
        assert calls[0] == 1


class TestSampleStableMvar:
    def test_scalar_ar1_stays_in_range(self):
        rng = np.random.default_rng(3)
        mask = make_mask(1, 0.0, rng)
        model = sample_stable_mvar(1, 1, mask, 1.0, (0.4, 0.6), 100, rng)
        a = float(model.coeffs[0, 0, 0])
        assert 0.4 <= a <= 0.6
        stable, radius = is_stable(model, 1.0)
        assert stable
        assert radius == pytest.approx(abs(a), abs=1e-12)

    def test_degenerate_range_forces_diagonal_half(self):
        rng = np.random.default_rng(4)
        model = sample_stable_mvar(2, 1, make_mask(2, 0.0, rng), 1.0, (0.5, 0.5), 10, rng)
        assert np.allclose(model.coeffs[0], 0.5 * np.eye(2))
        assert is_stable(model, 1.0)[1] == pytest.approx(0.5, abs=1e-12)

    def test_mask_zeroes_survive_sampling(self):
        rng = np.random.default_rng(6)
        mask = make_mask(5, 0.2, rng)
        model = sample_stable_mvar(5, 3, mask, 0.95, (-0.4, 0.4), 1000, rng)
        zero = mask == 0.0
        for lag in range(model.order):
            assert np.all(model.coeffs[lag][zero] == 0.0)

    def test_hundred_seeded_draws_stay_below_limit(self):
        for seed in range(100):
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            model = sample_stable_mvar(
                9, 6, make_mask(9, 0.2, rng), 0.95, (-0.3, 0.3), 1000, rng
            )
            stable, radius = is_stable(model, 0.95)
            assert stable
            assert radius < 0.95

    def test_exhausted_search_raises(self):
        rng = np.random.default_rng(7)
        mask = make_mask(1, 0.0, rng)
        with pytest.raises(StabilitySearchExhausted):
            sample_stable_mvar(1, 1, mask, 0.5, (0.9, 0.99), 5, rng)

    def test_mask_of_another_dim_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="does not match dim 2"):
            sample_stable_mvar(2, 1, make_mask(3, 0.0, rng), 0.95, (-0.1, 0.1), 5, rng)

    def test_deterministic_given_seed(self):
        draws = []
        for _ in range(2):
            rng = np.random.default_rng(np.random.SeedSequence(11))
            draws.append(
                sample_stable_mvar(4, 2, make_mask(4, 0.3, rng), 0.95, (-0.5, 0.5), 500, rng)
            )
        assert np.array_equal(draws[0].coeffs, draws[1].coeffs)


class TestSimulate:
    def test_zero_noise_gives_exact_zeros(self):
        model = MvarModel(2, 1, 0.5 * np.eye(2)[None], np.zeros((2, 2)))
        out = simulate(model, 50, np.random.default_rng(0))
        assert out.shape == (2, 50)
        assert np.all(out == 0.0)

    def test_ar1_stationary_variance(self):
        out = simulate(scalar_model(0.9), 100000, np.random.default_rng(12))
        expected = 1.0 / (1.0 - 0.81)
        assert float(out.var()) == pytest.approx(expected, rel=0.05)

    def test_independent_channels_are_uncorrelated(self):
        coeffs = np.diag([0.6, -0.4])[None]
        model = MvarModel(2, 1, coeffs, np.eye(2))
        n = 20000
        out = simulate(model, n, np.random.default_rng(13))
        corr = float(np.corrcoef(out)[0, 1])
        assert abs(corr) <= 3.0 / np.sqrt(n)

    def test_unstable_model_rejected(self):
        with pytest.raises(UnstableModel):
            simulate(scalar_model(1.0), 10, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        model = scalar_model(0.5)
        a = simulate(model, 100, np.random.default_rng(99))
        b = simulate(model, 100, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_burn_in_changes_consumed_samples(self):
        model = scalar_model(0.5)
        a = simulate(model, 100, np.random.default_rng(1), burn_in=0)
        b = simulate(model, 100, np.random.default_rng(1), burn_in=10)
        assert not np.array_equal(a, b)

    def test_singular_noise_cov_is_simulated(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        model = MvarModel(2, 1, np.zeros((1, 2, 2)), cov)
        out = simulate(model, 2000, np.random.default_rng(3))
        # both channels ride the same innovation
        assert np.allclose(out[0], out[1], atol=1e-12)


def reference_simulate(
    model: MvarModel, n_samples: int, rng: np.random.Generator, burn_in: int
) -> np.ndarray:
    """Reference: x[t] = e[t] + sum_s A_s x[t-s], one lag at a time,
    with the innovations drawn like simulate draws them."""
    d, p = model.dim, model.order
    total = burn_in + n_samples
    eigval, eigvec = np.linalg.eigh(model.noise_cov)
    factor = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
    innov = factor @ rng.standard_normal((d, total))
    out = np.zeros((d, total))
    for t in range(total):
        acc = innov[:, t].copy()
        for s in range(1, min(p, t) + 1):
            acc += model.coeffs[s - 1] @ out[:, t - s]
        out[:, t] = acc
    return out[:, burn_in:]


def random_model(seed: int, dim: int, order: int, noise: str) -> MvarModel:
    """Uniform coefficients with lag s scaled by c**s, which scales every
    companion eigenvalue by c, so the spectral radius is at most 0.95."""
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-0.6, 0.6, size=(order, dim, dim))
    _, radius = is_stable(MvarModel(dim, order, coeffs, np.eye(dim)))
    if radius > 0.95:
        coeffs *= ((0.95 / radius) ** np.arange(1, order + 1))[:, None, None]
    root = rng.standard_normal((dim, dim if noise == "full" else 1))
    noise_cov = np.zeros((dim, dim)) if noise == "zero" else root @ root.T
    return MvarModel(dim, order, coeffs, noise_cov)


def assert_matches_reference(model: MvarModel, n_samples: int, burn_in: int) -> None:
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    got = simulate(model, n_samples, rng, burn_in=burn_in)
    expected = reference_simulate(model, n_samples, ref_rng, burn_in)
    assert got.shape == expected.shape == (model.dim, n_samples)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
    # the generator stream is left where the reference leaves it
    assert rng.standard_normal() == ref_rng.standard_normal()


def block_regimes(dim: int, order: int, n_samples: int, burn_in: int) -> set[str]:
    """The block-recursion regimes that one simulate call exercises."""
    block = _block_size(dim)
    regimes = {"B = 1" if block == 1 else "1 < B < p" if block < order else "B >= p"}
    if (n_samples + burn_in) % block:
        regimes.add("total % B != 0")
    if n_samples < block:
        regimes.add("n_samples < B")
    return regimes


ALL_REGIMES = {"B = 1", "1 < B < p", "B >= p", "total % B != 0", "n_samples < B"}

# (dim, order, noise, n_samples, burn_in)
NAMED_CASES = [
    (3, 4, "full", 200, 0),  # no burn-in
    (2, 8, "full", 3, 0),  # fewer samples than lags
    (4, 5, "zero", 50, 20),  # all-zero noise covariance
    (6, 8, "rank1", 300, 100),  # order 8, singular noise
    (70, 2, "full", 30, 5),  # B = 1
    (44, 6, "rank1", 40, 3),  # 1 < B < p
    (20, 3, "full", 7, 0),  # n_samples < B, total % B != 0
]


class TestSimulateAgainstReference:
    def test_random_models(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @st.composite
        def shapes(draw):
            # order capped so that the companion stays <= 400 wide
            dim = draw(st.integers(1, 140))
            return dim, draw(st.integers(1, max(1, min(8, 400 // dim))))

        @hyp.settings(max_examples=60, deadline=None)
        @hyp.given(
            seed=st.integers(0, 2**32 - 1),
            shape=shapes(),
            noise=st.sampled_from(["full", "rank1", "zero"]),
            n_samples=st.integers(1, 60),
            burn_in=st.integers(0, 40),
        )
        # one example per regime, whatever else the strategy draws
        @hyp.example(seed=1, shape=(140, 2), noise="full", n_samples=60, burn_in=40)
        @hyp.example(seed=2, shape=(50, 7), noise="rank1", n_samples=13, burn_in=0)
        @hyp.example(seed=3, shape=(3, 6), noise="full", n_samples=60, burn_in=40)
        @hyp.example(seed=4, shape=(5, 2), noise="zero", n_samples=11, burn_in=3)
        def check(seed, shape, noise, n_samples, burn_in):
            dim, order = shape
            model = random_model(seed, dim, order, noise)
            assert_matches_reference(model, n_samples, burn_in)

        check()

    @pytest.mark.parametrize("dim, order, noise, n_samples, burn_in", NAMED_CASES)
    def test_named_cases(self, dim, order, noise, n_samples, burn_in):
        assert_matches_reference(random_model(5, dim, order, noise), n_samples, burn_in)

    def test_named_cases_cover_every_regime(self):
        drawn = set()
        for dim, order, _, n_samples, burn_in in NAMED_CASES:
            drawn |= block_regimes(dim, order, n_samples, burn_in)
        assert drawn == ALL_REGIMES

    @pytest.mark.parametrize(
        "dim, order, n_samples",
        [
            (3, 6, 4000),  # default interest
            (10, 6, 4000),  # default background
            (44, 1, 600),  # forward_heavy background
            (6, 8, 4000),  # spectral_heavy interest
            (2, 2, 4000),  # spectral_heavy background
        ],
    )
    def test_workload_shapes(self, dim, order, n_samples):
        assert_matches_reference(random_model(9, dim, order, "full"), n_samples, 1000)

    def test_output_is_row_major(self):
        out = simulate(random_model(6, 3, 2, "full"), 40, np.random.default_rng(0))
        assert out.flags.c_contiguous


def product_form_simulate(
    model: MvarModel, n_samples: int, rng: np.random.Generator, burn_in: int
) -> np.ndarray:
    """The block recursion with the innovation term always applied as
    the product T e_block, identity T (B = 1) included."""
    d, p = model.dim, model.order
    total = burn_in + n_samples
    block = _block_size(d)
    n_blocks = -(-total // block)
    toeplitz, gain = _block_maps(model, block)
    eigval, eigvec = np.linalg.eigh(model.noise_cov)
    factor = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
    out = np.zeros((p + n_blocks * block, d))
    innov = np.zeros((n_blocks * block, d))
    np.matmul(factor, rng.standard_normal((d, total)), out=innov[:total].T)
    blocks = out[p:].reshape(n_blocks, block * d)
    np.matmul(innov.reshape(n_blocks, block * d), toeplitz.T, out=blocks)
    states = sliding_window_view(out.reshape(-1), p * d)[:: block * d]
    for values, state in zip(blocks, states):
        values += gain.dot(state)
    return out[p + burn_in : p + total].T.copy()


class TestUnitBlock:
    @pytest.mark.parametrize("dim", [65, 100])
    def test_copied_innovations_equal_the_identity_product(self, dim):
        assert _block_size(dim) == 1
        model = random_model(11, dim, 2, "full")
        got = simulate(model, 300, np.random.default_rng(4), burn_in=50)
        expected = product_form_simulate(model, 300, np.random.default_rng(4), 50)
        assert np.array_equal(got, expected)


class TestBlockForm:
    def test_block_size_rule(self):
        for dim in range(1, 300):
            block = _block_size(dim)
            assert 1 <= block <= 32
            assert block * dim <= max(128, dim)
        for dim in (65, 100, 140, 1000):
            assert _block_size(dim) == 1
        assert [_block_size(d) for d in (2, 3, 6, 10, 44)] == [32, 32, 21, 12, 2]

    def test_maps_hold_impulse_responses_and_lag_stack(self):
        model = random_model(4, 3, 4, "full")
        d, p, block = model.dim, model.order, 6
        toeplitz, gain = _block_maps(model, block)
        assert toeplitz.shape == (block * d, block * d)
        assert gain.shape == (block * d, p * d)
        assert gain.flags.c_contiguous
        # Psi_j is the top-left block of the j-th companion power
        power = np.eye(p * d)
        for j in range(block):
            psi = power[:d, :d]
            for k in range(block - j):
                rows = slice((k + j) * d, (k + j + 1) * d)
                cols = slice(k * d, (k + 1) * d)
                assert np.allclose(toeplitz[rows, cols], psi, rtol=0, atol=1e-14)
                if j > 0:
                    assert np.all(toeplitz[cols, rows] == 0.0)
            power = model.companion() @ power
        # the first block row applies [A_p ... A_1] to x[t0-p .. t0-1]
        lag_stack = model.coeffs[::-1].transpose(1, 0, 2).reshape(d, p * d)
        assert np.array_equal(gain[:d], lag_stack)


class TestFit:
    def test_ar1_coefficient_recovery(self):
        series = simulate(scalar_model(0.5), 20000, np.random.default_rng(21))
        fitted = fit(series, 1)
        assert float(fitted.coeffs[0, 0, 0]) == pytest.approx(0.5, abs=0.05)

    def test_all_zero_series_is_rank_deficient(self):
        with pytest.raises(RankDeficientRegressor):
            fit(np.zeros((2, 500)), 2)

    def test_round_trip_error_small_and_shrinking(self):
        rng = np.random.default_rng(22)
        model = sample_stable_mvar(5, 2, make_mask(5, 0.2, rng), 0.95, (-0.3, 0.3), 1000, rng)
        errors = []
        for n in (20000, 80000):
            series = simulate(model, n, rng)
            fitted = fit(series, 2)
            errors.append(float(np.max(np.abs(fitted.coeffs - model.coeffs))))
        assert errors[0] <= 0.05
        assert errors[1] < errors[0]

    def test_noise_cov_estimate_is_symmetric_psd(self):
        rng = np.random.default_rng(23)
        model = sample_stable_mvar(3, 2, make_mask(3, 0.4, rng), 0.95, (-0.4, 0.4), 500, rng)
        fitted = fit(simulate(model, 5000, rng), 2)
        assert np.array_equal(fitted.noise_cov, fitted.noise_cov.T)
        assert np.linalg.eigvalsh(fitted.noise_cov).min() >= -1e-10

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            fit(np.random.default_rng(0).standard_normal((3, 12)), 3)


def copied_rows_moments(series: np.ndarray, order: int) -> np.ndarray:
    """Reference: copy the regression rows (target, then lags 1 .. p)
    and multiply them out."""
    k, d, n = series.shape
    rows = np.stack([series[:, :, order - s : n - s] for s in range(order + 1)], axis=1)
    rows = rows.reshape(k, (order + 1) * d, n - order)
    return rows @ rows.transpose(0, 2, 1)


class TestFitCoefficients:
    def test_moments_equal_the_copied_rows_product(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=40, deadline=None)
        @hyp.given(
            k=st.integers(1, 4),
            dim=st.integers(1, 5),
            order=st.integers(1, 8),
            extra=st.integers(1, 60),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(k, dim, order, extra, seed):
            rng = np.random.default_rng(seed)
            series = rng.standard_normal((k, dim, (order + 1) * dim + extra))
            got = _lagged_moments(series, order)
            expected = copied_rows_moments(series, order)
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(got - expected)) <= 1e-13 * scale
            assert np.array_equal(got, got.transpose(0, 2, 1))
            for i in range(k):
                alone = _lagged_moments(series[i : i + 1], order)[0]
                assert np.array_equal(alone, got[i])

        check()

    def test_rows_equal_single_series_fits(self):
        rng = np.random.default_rng(24)
        mask = make_mask(3, 0.4, rng)
        model = sample_stable_mvar(3, 2, mask, 0.95, (-0.4, 0.4), 500, rng)
        series = np.stack([simulate(model, 800, rng) for _ in range(3)])
        series[1, 2] = 0.0  # a zero row: rank-deficient lagged Gram
        coeffs, regular = fit_coefficients(series, 2)
        assert coeffs.shape == (3, 2, 3, 3)
        assert list(regular) == [True, False, True]
        assert np.all(np.isnan(coeffs[1]))
        for i in (0, 2):
            assert np.array_equal(coeffs[i], fit(series[i], 2).coeffs)
        with pytest.raises(RankDeficientRegressor):
            fit(series[1], 2)

    def test_series_must_be_a_stack(self):
        with pytest.raises(ValueError, match="3-d"):
            fit_coefficients(np.zeros((3, 100)), 2)
