"""Tests for the spatial-filter bank."""

from __future__ import annotations

import gc
import threading
import weakref
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest

from beambench import filters
from beambench.config import SetupConfig
from beambench.errors import (
    RankDeficientLeadfield,
    ShapeMismatch,
    SingularCovariance,
)
from beambench.filters import (
    EIG_BASE,
    MVP_BASE,
    MVP_KINDS,
    BankEntry,
    CovarianceSet,
    FilterKind,
    build_filter_bank,
    eig_lcmv,
    estimate_covariances,
    lcmv,
    mv_pure,
    parse_filter_list,
    randn_baseline,
    reconstruct,
    regularized_inverse,
    wiener,
    zero_forcing,
)
from beambench.forward import (
    compose_measurement,
    fibonacci_montage,
    leadfield_sphere,
)
from beambench.sources import generate_source_signals, sample_geometry


def random_spd(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    return a @ a.T / dim + np.eye(dim)


def data_eigvec(covs: CovarianceSet) -> np.ndarray:
    """Eigenvectors of the symmetrized data covariance, as the bank takes them."""
    return np.linalg.eigh(0.5 * (covs.data_cov + covs.data_cov.T))[1]


def identity_covs(dim: int, data: np.ndarray, noise: np.ndarray, source: np.ndarray) -> CovarianceSet:
    return CovarianceSet(
        data_cov=data,
        noise_cov=noise,
        source_cov=source,
        cross_cov=source.copy(),
    )


@pytest.fixture(scope="module")
def mini_bench():
    """A small but fully realistic covariance/lead-field pair."""
    rng = np.random.default_rng(2024)
    geom = sample_geometry((3, 2, 2), rng)
    montage = fibonacci_montage(16)
    params = SetupConfig(n_samples=400, order_interest=3, order_background=3)
    signals = generate_source_signals(geom, params, rng)
    lf = leadfield_sphere(geom, montage)
    noise = partial(rng.standard_normal, (16, 2 * params.n_samples))
    recording, view = compose_measurement(signals, lf, SetupConfig(), noise)
    covs = estimate_covariances(recording, signals)
    return covs, view, recording, signals


class TestRegularizedInverse:
    def test_well_conditioned_matrix_is_inverted_exactly(self):
        matrix = random_spd(6, np.random.default_rng(0))
        inv = regularized_inverse(matrix)
        assert np.max(np.abs(inv @ matrix - np.eye(6))) <= 1e-12

    def test_near_singular_matrix_gets_loaded(self):
        inv = regularized_inverse(np.diag([1.0, 1e-20]))
        assert np.all(np.isfinite(inv))
        # loading is trace-scaled, so the small direction ends up near
        # the reciprocal of 1e-10 * trace / 2
        assert inv[1, 1] == pytest.approx(2.0e10, rel=1e-3)

    def test_zero_matrix_rejected(self):
        with pytest.raises(SingularCovariance):
            regularized_inverse(np.zeros((3, 3)))

    def test_negative_definite_matrix_rejected(self):
        with pytest.raises(SingularCovariance, match="positive"):
            regularized_inverse(-np.eye(3))

    def test_rank_one_matrix_stays_singular_after_loading(self):
        # Loading adds 1e-10 * trace / m to a rank-one matrix's zero
        # eigenvalues, which leaves a condition number of about m * 1e10:
        # past the 1e12 limit at m = 128, within it at m = 64.
        v = np.random.default_rng(5).standard_normal(128)
        with pytest.raises(
            SingularCovariance, match="stays ill-conditioned after diagonal loading"
        ):
            regularized_inverse(np.outer(v, v))
        assert np.all(np.isfinite(regularized_inverse(np.outer(v[:64], v[:64]))))

    def test_asymmetric_input_is_symmetrized(self):
        matrix = np.array([[2.0, 0.1], [0.0, 2.0]])
        inv = regularized_inverse(matrix)
        sym = 0.5 * (matrix + matrix.T)
        assert np.max(np.abs(inv @ sym - np.eye(2))) <= 1e-12


def eigh_inverse(matrix: np.ndarray) -> tuple[bool, np.ndarray, float]:
    """Reference for regularized_inverse from one eigh: whether it loads,
    the inverse (V / lambda) V', and the condition number it inverts at."""
    sym = 0.5 * (matrix + matrix.T)
    eigval, eigvec = np.linalg.eigh(sym)
    if eigval[-1] <= 0.0:
        raise SingularCovariance("covariance has no positive eigenvalue")
    loaded = bool(eigval[0] <= 0.0 or eigval[-1] / eigval[0] > 1e12)
    if loaded:
        eigval = eigval + 1e-10 * np.sum(eigval) / sym.shape[0]
        if eigval[0] <= 0.0 or eigval[-1] / eigval[0] > 1e12:
            raise SingularCovariance(
                "covariance stays ill-conditioned after diagonal loading"
            )
    return loaded, (eigvec / eigval) @ eigvec.T, eigval[-1] / eigval[0]


def singular_message(invert, matrix: np.ndarray) -> str:
    with pytest.raises(SingularCovariance) as raised:
        invert(matrix)
    return str(raised.value)


class TestRegularizedInverseProperties:
    def test_matches_the_eigh_reference(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        far_from_limit = st.floats(0.0, 16.0).filter(
            lambda exponent: abs(exponent - 12.0) >= np.log10(1.01)
        )

        @hyp.settings(max_examples=80, deadline=None)
        @hyp.given(
            m=st.integers(2, 8),
            exponent=st.one_of(far_from_limit, st.floats(11.9, 12.1)),
            floor=st.sampled_from(["positive", "zero", "negative"]),
            scale=st.floats(-6.0, 6.0),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(m, exponent, floor, scale, seed):
            # a spectrum whose condition number is 10**exponent, at least 1%
            # away from the 1e12 limit, or one with a zero or negative floor
            hyp.assume(abs(exponent - 12.0) >= np.log10(1.01))
            rng = np.random.default_rng(seed)
            top = 10.0**scale
            eigval = top * 10.0 ** -np.sort(rng.uniform(0.0, exponent, m))
            eigval[0], eigval[-1] = top * 10.0**-exponent, top
            if floor != "positive":
                eigval[0] = 0.0 if floor == "zero" else -top * 1e-13
            q = np.linalg.qr(rng.standard_normal((m, m)))[0]
            matrix = (q * eigval) @ q.T
            sym = 0.5 * (matrix + matrix.T)
            try:
                loaded, expected, cond = eigh_inverse(matrix)
            except SingularCovariance as exc:
                assert singular_message(regularized_inverse, matrix) == str(exc)
                return
            with mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inv:
                got = regularized_inverse(matrix)
            (inverted,) = inv.call_args.args
            assert inv.call_count == 1
            assert (not np.array_equal(inverted, sym)) == loaded
            error = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
            assert error <= 100 * m * np.finfo(float).eps * cond

        check()

    def test_singular_inputs_raise_the_eigh_reference_messages(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=30, deadline=None)
        @hyp.given(
            case=st.sampled_from(["zero", "negative", "rank_one"]),
            m=st.integers(112, 144),
            scale=st.floats(-6.0, 6.0),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(case, m, scale, seed):
            rng = np.random.default_rng(seed)
            if case == "zero":
                matrix = np.zeros((m, m))
            elif case == "negative":
                matrix = -(10.0**scale) * random_spd(m, rng)
            else:
                # loading leaves a rank-one matrix at a condition number of
                # about m * 1e10, past the 1e12 limit for m > 100
                v = rng.standard_normal(m) * 10.0 ** (scale / 2.0)
                matrix = np.outer(v, v)
            expected = singular_message(eigh_inverse, matrix)
            assert singular_message(regularized_inverse, matrix) == expected
            messages = (
                "covariance has no positive eigenvalue",
                "covariance stays ill-conditioned after diagonal loading",
            )
            assert expected == messages[case == "rank_one"]

        check()


class TestLcmv:
    def test_square_leadfield_recovers_inverse(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        weights = lcmv(h, regularized_inverse(random_spd(4, rng)))
        assert np.allclose(weights, np.linalg.inv(h), atol=1e-10)

    def test_orthonormal_columns_white_data_gives_transpose(self):
        rng = np.random.default_rng(2)
        h = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        weights = lcmv(h, regularized_inverse(np.eye(8)))
        assert np.allclose(weights, h.T, atol=1e-12)

    def test_distortionless_constraint(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((12, 4))
        weights = lcmv(h, regularized_inverse(random_spd(12, rng)))
        assert np.linalg.norm(weights @ h - np.eye(4)) <= 1e-8

    def test_minimizes_output_power_among_feasible_filters(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((10, 3))
        cov = random_spd(10, rng)
        weights = lcmv(h, regularized_inverse(cov))
        best = np.trace(weights @ cov @ weights.T)
        null_proj = np.eye(10) - h @ np.linalg.pinv(h)
        for _ in range(100):
            rival = weights + rng.standard_normal((3, 10)) @ null_proj
            assert np.allclose(rival @ h, np.eye(3), atol=1e-9)
            assert np.trace(rival @ cov @ rival.T) >= best - 1e-10

    def test_rank_deficient_leadfield_rejected(self):
        h = np.ones((6, 2))
        with pytest.raises(RankDeficientLeadfield):
            lcmv(h, regularized_inverse(np.eye(6)))

    def test_kind_is_recorded(self):
        h = np.eye(3)
        filt = single_entry(FilterKind.LCMV_N, h, np.eye(3), 3)
        assert filt.kind is FilterKind.LCMV_N
        assert np.array_equal(filt.weights, lcmv(h, regularized_inverse(np.eye(3))))


def single_entry(
    kind: FilterKind, composite: np.ndarray, cov: np.ndarray, l: int, **knobs
) -> BankEntry:
    """The one entry the bank builds for kind over composite against cov;
    knobs are the bank's rank and sig_dim."""
    covs = CovarianceSet(
        data_cov=cov,
        noise_cov=cov,
        source_cov=np.eye(l),
        cross_cov=np.eye(l, composite.shape[1]),
    )
    rng = np.random.default_rng(0)
    return build_filter_bank([kind], covs, composite, rng, **knobs)[0]


def nulling(composite: np.ndarray, cov: np.ndarray, l: int) -> np.ndarray:
    """The NL weights the bank builds over composite against cov."""
    return single_entry(FilterKind.NL, composite, cov, l).weights


class TestNulling:
    def test_no_interference_matches_lcmv(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((9, 3))
        cov = random_spd(9, rng)
        assert np.allclose(
            nulling(h, cov, 3), lcmv(h, regularized_inverse(cov)), atol=1e-12
        )

    def test_square_composite_takes_inverse_rows(self):
        rng = np.random.default_rng(6)
        composite = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        weights = nulling(composite, random_spd(5, rng), 2)
        assert np.allclose(weights, np.linalg.inv(composite)[:2], atol=1e-8)

    def test_interference_is_nulled_and_interest_passed(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((12, 3))
        h_i = rng.standard_normal((12, 4))
        weights = nulling(np.hstack([h, h_i]), random_spd(12, rng), 3)
        assert np.linalg.norm(weights @ h - np.eye(3)) <= 1e-8
        assert np.linalg.norm(weights @ h_i) <= 1e-8


class TestWiener:
    def test_scalar_closed_form(self):
        covs = identity_covs(
            1,
            data=np.array([[12.5]]),
            noise=np.array([[0.5]]),
            source=np.array([[3.0]]),
        )
        data = regularized_inverse(covs.data_cov)
        weights = wiener(covs, data, np.array([[2.0]]), FilterKind.MMSE_F)
        assert weights[0, 0] == pytest.approx(0.48, abs=1e-12)

    def test_silent_sources_give_zero_weights(self):
        covs = identity_covs(
            1,
            data=np.array([[12.5]]),
            noise=np.array([[0.5]]),
            source=np.zeros((1, 1)),
        )
        data = regularized_inverse(covs.data_cov)
        weights = wiener(covs, data, np.array([[2.0]]), FilterKind.MMSE_F)
        assert np.all(weights == 0.0)

    def test_variants_coincide_without_interference(self):
        covs = identity_covs(
            1,
            data=np.array([[12.5]]),
            noise=np.array([[0.5]]),
            source=np.array([[3.0]]),
        )
        composite = np.array([[2.0]])
        data = regularized_inverse(covs.data_cov)
        f = wiener(covs, data, composite, FilterKind.MMSE_F)
        i = wiener(covs, data, composite, FilterKind.MMSE_I)
        assert np.allclose(f, i, atol=1e-12)

    @staticmethod
    def composed(cfg: SetupConfig):
        rng = np.random.default_rng(2025)
        geom = sample_geometry((3, 2, 2), rng)
        params = SetupConfig(n_samples=400, order_interest=3, order_background=3)
        signals = generate_source_signals(geom, params, rng)
        lf = leadfield_sphere(geom, fibonacci_montage(16))
        noise = partial(rng.standard_normal, (16, 2 * params.n_samples))
        recording, view = compose_measurement(signals, lf, cfg, noise)
        return recording, estimate_covariances(recording, signals), view

    def test_mmse_i_equals_mmse_f_without_post_interference(self):
        recording, covs, view = self.composed(SetupConfig(interference_pst=False))
        assert recording.gains_pst.interference == 0.0
        data = regularized_inverse(covs.data_cov)
        f = wiener(covs, data, view, FilterKind.MMSE_F)
        i = wiener(covs, data, view, FilterKind.MMSE_I)
        assert np.linalg.norm(i - f) <= 1e-12 * np.linalg.norm(f)

    def test_no_post_interest_gives_zero_weights(self):
        recording, covs, view = self.composed(SetupConfig(interest_pst=False))
        assert recording.gains_pst.interest == 0.0
        data = regularized_inverse(covs.data_cov)
        for kind in (FilterKind.MMSE_F, FilterKind.MMSE_I):
            assert np.all(wiener(covs, data, view, kind) == 0.0)

    def test_other_kinds_rejected(self):
        covs = identity_covs(
            1, data=np.eye(1), noise=np.eye(1), source=np.eye(1)
        )
        data = regularized_inverse(covs.data_cov)
        with pytest.raises(ValueError, match="Wiener"):
            wiener(covs, data, np.array([[1.0]]), FilterKind.ZF)


class TestZeroForcing:
    def test_small_diagonal_case(self):
        h = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(
            zero_forcing(h), np.array([[0.5, 0.0, 0.0], [0.0, 1.0, 0.0]]), atol=1e-12
        )

    def test_noiseless_mixture_is_inverted(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((8, 3))
        q = rng.standard_normal((3, 50))
        assert np.max(np.abs(zero_forcing(h) @ (h @ q) - q)) <= 1e-6

    def test_constraint_residual_is_tiny(self):
        h = np.random.default_rng(9).standard_normal((10, 4))
        assert np.linalg.norm(zero_forcing(h) @ h - np.eye(4)) <= 1e-10

    def test_duplicate_columns_rejected(self):
        column = np.arange(1.0, 6.0)[:, None]
        with pytest.raises(RankDeficientLeadfield):
            zero_forcing(np.hstack([column, column]))


class TestEigLcmv:
    def test_full_signal_dimension_reproduces_base(self):
        rng = np.random.default_rng(10)
        h = rng.standard_normal((9, 3))
        matrix = random_spd(9, rng)
        base = lcmv(h, regularized_inverse(matrix))
        projected = eig_lcmv(base, np.linalg.eigh(matrix)[1], 9)
        assert np.allclose(projected, base, atol=1e-12)

    def test_diagonal_case_keeps_strongest_directions(self):
        matrix = np.diag([3.0, 2.0, 1.0])
        base = lcmv(np.eye(3), regularized_inverse(matrix))
        projected = eig_lcmv(base, np.linalg.eigh(matrix)[1], 2)
        assert np.allclose(projected, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_rows_live_in_the_top_eigenspace(self):
        rng = np.random.default_rng(11)
        h = rng.standard_normal((10, 3))
        matrix = random_spd(10, rng)
        _, eigvec = np.linalg.eigh(matrix)
        projected = eig_lcmv(lcmv(h, regularized_inverse(matrix)), eigvec, 4)
        bottom = eigvec[:, :6]
        leakage = np.max(np.abs(projected @ bottom))
        assert leakage <= 1e-10 * np.max(np.abs(projected))

    def test_degenerate_spectrum_is_deterministic(self):
        base = lcmv(np.eye(3), regularized_inverse(np.eye(3)))
        white = np.linalg.eigh(np.eye(3))[1]
        assert np.array_equal(eig_lcmv(base, white, 2), eig_lcmv(base, white, 2))

    def test_kind_mapping_and_sig_dim_recorded(self):
        matrix = np.diag([3.0, 2.0, 1.0])
        base = lcmv(np.eye(3), regularized_inverse(matrix))
        expected = eig_lcmv(base, np.linalg.eigh(matrix)[1], 2)
        for kind in (FilterKind.EIG_LCMV_R, FilterKind.EIG_LCMV_N):
            projected = single_entry(kind, np.eye(3), matrix, 3, sig_dim=2)
            assert projected.kind is kind
            assert np.allclose(projected.weights, expected, atol=1e-12)


def well_conditioned(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Full-column-rank matrix with singular values in [0.5, 2]."""
    left = np.linalg.qr(rng.standard_normal((rows, cols)))[0]
    right = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
    return (left * rng.uniform(0.5, 2.0, cols)) @ right.T


def svd_rank(weights: np.ndarray) -> int:
    """Singular values above 1e-10 of the largest."""
    sv = np.linalg.svd(weights, compute_uv=False)
    return int(np.sum(sv > 1e-10 * sv[0]))


class TestMvPure:
    @staticmethod
    def diagonal_setup(data, noise, source):
        covs = identity_covs(
            3, data=np.diag(data), noise=np.diag(noise), source=np.diag(source)
        )
        bases = {
            FilterKind.LCMV_R: lcmv(np.eye(3), regularized_inverse(covs.data_cov)),
            FilterKind.LCMV_N: lcmv(np.eye(3), regularized_inverse(covs.noise_cov)),
            FilterKind.NL: lcmv(np.eye(3), regularized_inverse(covs.data_cov)),
        }
        return covs, bases.__getitem__

    def test_variant_two_keeps_low_output_power_directions(self):
        covs, weights_of = self.diagonal_setup(
            (5.0, 3.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0)
        )
        weights = mv_pure(FilterKind.MVP_F_2, 2, covs, weights_of)
        assert np.allclose(weights, np.diag([0.0, 1.0, 1.0]), atol=1e-10)

    def test_variant_one_subtracts_source_power(self):
        covs, weights_of = self.diagonal_setup(
            (5.0, 3.0, 1.0), (1.0, 1.0, 1.0), (2.4, 1.0, 0.1)
        )
        weights = mv_pure(FilterKind.MVP_F_1, 1, covs, weights_of)
        assert np.allclose(weights, np.diag([1.0, 0.0, 0.0]), atol=1e-10)

    def test_variant_three_ranks_by_noise_power(self):
        covs, weights_of = self.diagonal_setup(
            (5.0, 3.0, 1.0), (7.0, 2.0, 4.0), (1.0, 1.0, 1.0)
        )
        weights = mv_pure(FilterKind.MVP_I_3, 1, covs, weights_of)
        assert np.allclose(weights, np.diag([0.0, 1.0, 0.0]), atol=1e-10)

    @staticmethod
    def bench_bases(covs, view) -> dict[FilterKind, np.ndarray]:
        l = covs.source_cov.shape[0]
        return {
            FilterKind.LCMV_R: lcmv(view[:, :l], regularized_inverse(covs.data_cov)),
            FilterKind.LCMV_N: lcmv(view[:, :l], regularized_inverse(covs.noise_cov)),
            FilterKind.NL: lcmv(view, regularized_inverse(covs.data_cov))[:l],
        }

    def test_full_rank_reproduces_base(self, mini_bench):
        covs, view, _, _ = mini_bench
        l = covs.source_cov.shape[0]
        bases = self.bench_bases(covs, view)
        lcmv_r, lcmv_n, nl = bases.values()
        expected = {
            FilterKind.MVP_F_1: lcmv_r,
            FilterKind.MVP_F_2: lcmv_r,
            FilterKind.MVP_F_3: lcmv_n,
            FilterKind.MVP_I_1: nl,
            FilterKind.MVP_I_2: nl,
            FilterKind.MVP_I_3: nl,
        }
        for kind, base in expected.items():
            weights = mv_pure(kind, l, covs, bases.__getitem__)
            gap = np.max(np.abs(weights - base))
            assert gap <= 1e-8, f"{kind.value}: {gap}"

    def test_weight_rank_bounded_by_requested_rank(self, mini_bench):
        covs, view, _, _ = mini_bench
        bases = self.bench_bases(covs, view)
        for rank in (1, 2):
            weights = mv_pure(FilterKind.MVP_F_2, rank, covs, bases.__getitem__)
            assert svd_rank(weights) <= rank

    # The docstring's recipe, written out per variant: the selection
    # matrix's selector and whether it subtracts 2Q, then the base.
    RECIPES = {
        FilterKind.MVP_F_1: ("R", True, "LCMV_R"),
        FilterKind.MVP_F_2: ("R", False, "LCMV_R"),
        FilterKind.MVP_F_3: ("N", False, "LCMV_N"),
        FilterKind.MVP_I_1: ("R", True, "NL"),
        FilterKind.MVP_I_2: ("R", False, "NL"),
        FilterKind.MVP_I_3: ("N", False, "NL"),
    }

    @staticmethod
    def general_setup():
        """A non-diagonal instance on which LCMV_R, LCMV_N and NL differ."""
        l, k, m = 3, 2, 8
        rng = np.random.default_rng(31)
        composite = well_conditioned(m, l + k, rng)
        h = composite[:, :l]
        source = random_spd(l, rng)
        covs = CovarianceSet(
            data_cov=random_spd(m, rng),
            noise_cov=random_spd(m, rng),
            source_cov=source,
            cross_cov=np.hstack([source, rng.standard_normal((l, k))]),
        )
        weights = {
            "LCMV_R": lcmv(h, regularized_inverse(covs.data_cov)),
            "LCMV_N": lcmv(h, regularized_inverse(covs.noise_cov)),
            "NL": lcmv(composite, regularized_inverse(covs.data_cov))[:l],
        }
        return covs, composite, weights

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("kind", list(RECIPES))
    def test_reduced_rank_matches_the_docstring_recipe(self, kind, rank):
        covs, composite, weights = self.general_setup()
        for a, b in (("LCMV_R", "LCMV_N"), ("LCMV_R", "NL"), ("LCMV_N", "NL")):
            assert np.linalg.norm(weights[a] - weights[b]) > 1e-2
        selector, subtract_q, base = self.RECIPES[kind]
        w_sel, cov = (
            (weights["LCMV_R"], covs.data_cov)
            if selector == "R"
            else (weights["LCMV_N"], covs.noise_cov)
        )
        selection = w_sel @ cov @ w_sel.T
        if subtract_q:
            selection = selection - 2.0 * covs.source_cov
        eigval, eigvec = np.linalg.eigh(0.5 * (selection + selection.T))
        assert eigval[rank] - eigval[rank - 1] > 1e-6 * np.max(np.abs(eigval))
        low = eigvec[:, :rank]
        expected = low @ low.T @ weights[base]
        scale = np.linalg.norm(expected)

        direct = mv_pure(kind, rank, covs, lambda kind: weights[kind.value])
        assert np.linalg.norm(direct - expected) <= 1e-10 * scale
        built = build_filter_bank(
            [kind], covs, composite, np.random.default_rng(0), rank=rank
        )[0]
        assert np.linalg.norm(built.weights - expected) <= 1e-10 * scale
        assert built.kind is kind

    def test_bad_inputs_rejected(self):
        covs, weights_of = self.diagonal_setup(
            (5.0, 3.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0)
        )
        with pytest.raises(ValueError, match="MV-PURE"):
            mv_pure(FilterKind.ZF, 1, covs, weights_of)


class TestRandnBaseline:
    def test_shape_and_scaling(self):
        weights = randn_baseline(6, 40, np.random.default_rng(12))
        assert weights.shape == (6, 40)
        raw = weights * np.sqrt(40.0)
        assert abs(raw.mean()) <= 4.0 / np.sqrt(raw.size)
        assert 0.8 <= raw.std() <= 1.2

    def test_deterministic_given_seed(self):
        a = randn_baseline(3, 10, np.random.default_rng(13))
        b = randn_baseline(3, 10, np.random.default_rng(13))
        assert np.array_equal(a, b)


class TestReconstruct:
    def test_applies_weight_matrix(self):
        rng = np.random.default_rng(15)
        weights = np.stack([randn_baseline(2, 5, rng) for _ in range(4)])
        sensors = rng.standard_normal((5, 7))
        estimates = reconstruct(weights, sensors)
        assert estimates.shape == (4, 2, 7)
        for got, w in zip(estimates, weights):
            assert np.allclose(got, w @ sensors, rtol=1e-14, atol=0.0)

    def test_writes_into_the_given_buffer(self):
        rng = np.random.default_rng(16)
        weights = np.stack([randn_baseline(3, 4, rng) for _ in range(2)])
        sensors = rng.standard_normal((4, 6))
        buffer = np.full((3, 3, 6), np.nan)
        result = reconstruct(weights, sensors, out=buffer[1:])
        assert np.shares_memory(result, buffer)
        assert np.array_equal(buffer[1:], reconstruct(weights, sensors))
        assert np.all(np.isnan(buffer[0]))

    def test_zero_filter_gives_silence(self):
        weights = lcmv(np.eye(3), regularized_inverse(np.eye(3)))[None]
        silent = reconstruct(weights, np.zeros((3, 9)))
        assert np.all(silent == 0.0)

    def test_sensor_count_mismatch_rejected(self):
        weights = lcmv(np.eye(3), regularized_inverse(np.eye(3)))[None]
        with pytest.raises(ShapeMismatch):
            reconstruct(weights, np.zeros((4, 9)))

    @pytest.mark.parametrize(
        "out", [np.empty((1, 3, 8)), np.empty((1, 9, 3)).transpose(0, 2, 1)]
    )
    def test_wrong_or_strided_buffer_rejected(self, out):
        weights = lcmv(np.eye(3), regularized_inverse(np.eye(3)))[None]
        with pytest.raises(ShapeMismatch):
            reconstruct(weights, np.zeros((3, 9)), out=out)


class TestEstimateCovariances:
    def test_segment_statistics_match_definitions(self, mini_bench):
        covs, _, recording, signals = mini_bench
        n = recording.sensors_pst.shape[1]
        assert np.array_equal(
            covs.data_cov, recording.sensors_pst @ recording.sensors_pst.T / n
        )
        assert np.array_equal(
            covs.noise_cov, recording.sensors_pre @ recording.sensors_pre.T / n
        )
        interest = signals.interest[:, n:]
        assert np.array_equal(covs.source_cov, interest @ interest.T / n)

    def test_cross_covariance_leads_with_source_block(self, mini_bench):
        covs, view, _, _ = mini_bench
        l = covs.source_cov.shape[0]
        assert covs.cross_cov.shape == (l, view.shape[1])
        assert np.allclose(covs.cross_cov[:, :l], covs.source_cov, atol=1e-12)

    def test_cross_covariance_scales_interference_by_the_post_gain(self, mini_bench):
        covs, _, recording, signals = mini_bench
        n = recording.sensors_pst.shape[1]
        l = covs.source_cov.shape[0]
        gain = recording.gains_pst.interference
        assert gain > 0.0 and gain != 1.0
        expected = gain * signals.interest[:, n:] @ signals.interference[:, n:].T / n
        assert np.allclose(covs.cross_cov[:, l:], expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "name", ["data_cov", "noise_cov", "source_cov", "cross_cov"]
    )
    def test_non_finite_entries_are_rejected(self, name, bad):
        matrices = {
            "data_cov": np.eye(2),
            "noise_cov": np.eye(2),
            "source_cov": np.eye(1),
            "cross_cov": np.ones((1, 2)),
        }
        matrices[name][0, 0] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            CovarianceSet(**matrices)

    def test_cross_covariance_needs_one_row_per_source(self):
        with pytest.raises(ShapeMismatch, match="one row per source"):
            CovarianceSet(
                data_cov=np.eye(2),
                noise_cov=np.eye(2),
                source_cov=np.eye(1),
                cross_cov=np.ones((2, 2)),
            )


class TestParseFilterList:
    def test_all_selects_the_full_bank_in_order(self):
        names = parse_filter_list("all")
        assert names == tuple(kind.value for kind in FilterKind)
        assert len(names) == 15

    def test_case_insensitive_all(self):
        assert parse_filter_list("All") == parse_filter_list("all")

    def test_explicit_order_is_preserved(self):
        assert parse_filter_list("ZF, LCMV_R") == ("ZF", "LCMV_R")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown filter"):
            parse_filter_list("sMVP_R")

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_filter_list(" , ")


class TestBuildFilterBank:
    @staticmethod
    def factor_calls(monkeypatch) -> list[np.ndarray]:
        seen: list[np.ndarray] = []

        def spy(matrix):
            seen.append(matrix)
            return regularized_inverse(matrix)

        monkeypatch.setattr(filters, "regularized_inverse", spy)
        return seen

    def test_each_covariance_is_factored_once(self, mini_bench, monkeypatch):
        covs, view, _, _ = mini_bench
        seen = self.factor_calls(monkeypatch)
        bank = build_filter_bank(
            list(FilterKind), covs, view, np.random.default_rng(23)
        )
        assert len(seen) == 2
        assert seen[0] is covs.data_cov and seen[1] is covs.noise_cov
        built = {f.kind: f for f in bank}
        top = data_eigvec(covs)[:, -3:]
        expected = (built[FilterKind.LCMV_R].weights @ top) @ top.T
        assert np.array_equal(built[FilterKind.EIG_LCMV_R].weights, expected)

    def test_only_eig_kinds_take_an_eigendecomposition(self, mini_bench, monkeypatch):
        covs, view, _, _ = mini_bench
        m = view.shape[0]
        shapes: list[tuple[int, ...]] = []
        original = np.linalg.eigh

        def spy(matrix, *args, **kwargs):
            shapes.append(np.shape(matrix))
            return original(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        # rank 2 < l, so the MV-PURE entries take their own l x l eigh
        no_eig = [kind for kind in FilterKind if kind not in EIG_BASE]
        rng = np.random.default_rng(25)
        build_filter_bank(no_eig, covs, view, rng, rank=2)
        assert shapes and (m, m) not in shapes
        shapes.clear()
        build_filter_bank(list(FilterKind), covs, view, rng, rank=2)
        assert shapes.count((m, m)) == 1

    def test_unread_noise_covariance_is_not_factored(self, mini_bench, monkeypatch):
        covs, view, _, _ = mini_bench
        seen = self.factor_calls(monkeypatch)
        unread = {FilterKind.LCMV_N, FilterKind.EIG_LCMV_N, FilterKind.MVP_F_3}
        kinds = [kind for kind in FilterKind if kind not in unread]
        build_filter_bank(kinds, covs, view, np.random.default_rng(24))
        assert len(seen) == 1
        assert seen[0] is covs.data_cov

    def test_factoring_does_not_wait_for_another_bank(self, monkeypatch):
        # Realizations on worker threads each build their own bank; one
        # bank's factoring must not hold up another's.
        held, entered, release = np.eye(3), threading.Event(), threading.Event()
        original = filters.regularized_inverse

        def holding(matrix):
            if matrix is held:
                entered.set()
                release.wait(5.0)
            return original(matrix)

        def bank(data_cov):
            covs = identity_covs(3, data_cov, np.eye(3), np.eye(1))
            kinds = [FilterKind.LCMV_R]
            return build_filter_bank(kinds, covs, np.eye(3, 1), np.random.default_rng(0))

        monkeypatch.setattr(filters, "regularized_inverse", holding)
        built, done = [], threading.Event()
        slow = threading.Thread(target=lambda: built.append(bank(held)))
        fast = threading.Thread(target=lambda: (bank(2.0 * np.eye(3)), done.set()))
        slow.start()
        try:
            assert entered.wait(5.0)
            fast.start()
            assert done.wait(1.0), "the second bank waited for the first"
        finally:
            release.set()
            slow.join(5.0)
            fast.join(5.0)
        assert not slow.is_alive() and not fast.is_alive()
        assert np.array_equal(built[0][0].weights, np.eye(1, 3))

    def test_distortionless_constraints(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=60, deadline=None)
        @hyp.given(
            l=st.integers(1, 3),
            k=st.integers(0, 3),
            extra=st.integers(0, 6),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(l, k, extra, seed):
            m = l + k + extra
            rng = np.random.default_rng(seed)
            composite = well_conditioned(m, l + k, rng)
            h = composite[:, :l]
            covs = CovarianceSet(
                data_cov=random_spd(m, rng),
                noise_cov=random_spd(m, rng),
                source_cov=np.eye(l),
                cross_cov=np.eye(l, l + k),
            )
            kinds = [FilterKind.LCMV_R, FilterKind.LCMV_N, FilterKind.NL, *EIG_BASE]
            lcmv_r, lcmv_n, nl, eig_r, eig_n = build_filter_bank(
                kinds, covs, composite, np.random.default_rng(seed), sig_dim=m
            )
            for filt in (lcmv_r, lcmv_n):
                assert np.linalg.norm(filt.weights @ h - np.eye(l)) <= 1e-8
            target = np.eye(l, l + k)
            assert np.linalg.norm(nl.weights @ composite - target) <= 1e-8
            for eig, base in ((eig_r, lcmv_r), (eig_n, lcmv_n)):
                gap = np.linalg.norm(eig.weights - base.weights)
                assert gap <= 1e-12 * np.linalg.norm(base.weights)

        check()

    def test_full_bank_is_finite_and_ordered(self, mini_bench):
        covs, view, _, _ = mini_bench
        bank = build_filter_bank(
            list(FilterKind), covs, view, np.random.default_rng(16)
        )
        assert [f.kind for f in bank] == list(FilterKind)
        for filt in bank:
            assert np.all(np.isfinite(filt.weights))
            assert filt.weights.shape == (3, 16)

    def test_constrained_filters_meet_their_constraints(self, mini_bench):
        covs, view, _, _ = mini_bench
        kinds = (FilterKind.LCMV_R, FilterKind.LCMV_N, FilterKind.NL, FilterKind.ZF)
        lcmv_r, lcmv_n, nl, zf = build_filter_bank(
            list(kinds), covs, view, np.random.default_rng(17)
        )
        l = covs.source_cov.shape[0]
        h = view[:, :l]
        for filt in (lcmv_r, lcmv_n, zf):
            assert np.linalg.norm(filt.weights @ h - np.eye(l)) <= 1e-8
        assert np.linalg.norm(nl.weights @ view - np.eye(l, view.shape[1])) <= 1e-8

    def test_default_ranks_fall_back_to_interest_count(self, mini_bench):
        covs, view, _, _ = mini_bench
        kinds = [FilterKind.MVP_F_1, FilterKind.EIG_LCMV_R]
        defaults = build_filter_bank(kinds, covs, view, np.random.default_rng(18))
        explicit = build_filter_bank(
            kinds, covs, view, np.random.default_rng(18), rank=3, sig_dim=3
        )
        for default, full in zip(defaults, explicit):
            assert np.array_equal(default.weights, full.weights)
        lcmv_r = lcmv(view[:, :3], regularized_inverse(covs.data_cov))
        assert np.array_equal(defaults[0].weights, lcmv_r)
        projected = eig_lcmv(lcmv_r, data_eigvec(covs), 3)
        assert np.array_equal(defaults[1].weights, projected)

    def test_reduced_rank_is_reflected_in_weights(self, mini_bench):
        covs, view, _, _ = mini_bench
        bank = build_filter_bank(
            [FilterKind.MVP_F_2], covs, view, np.random.default_rng(19), rank=1
        )
        assert svd_rank(bank[0].weights) <= 1

    def test_bank_is_deterministic_given_rng(self, mini_bench):
        covs, view, _, _ = mini_bench
        kinds = list(FilterKind)
        first = build_filter_bank(kinds, covs, view, np.random.default_rng(20))
        second = build_filter_bank(kinds, covs, view, np.random.default_rng(20))
        for a, b in zip(first, second):
            assert np.array_equal(a.weights, b.weights)

    def test_full_rank_mv_pure_shares_its_base_weights(self, mini_bench):
        covs, view, _, _ = mini_bench
        built = build_filter_bank(
            list(FilterKind), covs, view, np.random.default_rng(21)
        )
        bank = dict(built)
        for kind, base_kind in MVP_BASE.items():
            assert bank[kind] is bank[base_kind]

    def test_reduced_rank_mv_pure_is_projected(self, mini_bench):
        covs, view, _, _ = mini_bench
        built = build_filter_bank(
            list(FilterKind), covs, view, np.random.default_rng(22), rank=2
        )
        bank = dict(built)
        for kind in MVP_KINDS:
            expected = mv_pure(kind, 2, covs, bank.__getitem__)
            assert np.array_equal(bank[kind], expected)
            assert bank[kind] is not bank[MVP_BASE[kind]]

    def test_entries_record_their_spec_and_diagnostics(self, mini_bench):
        covs, view, _, _ = mini_bench
        built = build_filter_bank(
            list(FilterKind), covs, view, np.random.default_rng(25)
        )
        assert [entry.kind for entry in built] == list(FilterKind)
        bank = dict(built)
        for kind, base in MVP_BASE.items():
            assert bank[kind] is bank[base]

    @pytest.mark.parametrize("rank", [None, 2])
    def test_bank_leaves_no_reference_cycle(self, mini_bench, rank):
        # a cycle would hold each realization's covariances until the
        # cyclic collector ran, and raise a run's peak memory
        covs, view, _, _ = mini_bench
        fresh = replace(covs)
        alive = weakref.ref(fresh)
        gc.disable()
        try:
            bank = build_filter_bank(
                list(FilterKind), fresh, view, np.random.default_rng(26), rank=rank
            )
            del bank, fresh
            assert alive() is None
        finally:
            gc.enable()

    def test_non_finite_weights_name_their_filter(self):
        composite = np.vstack([4.0 * np.eye(3), np.zeros((2, 3))])
        covs = CovarianceSet(
            data_cov=np.eye(5),
            noise_cov=np.eye(5),
            source_cov=1e308 * np.eye(3),
            cross_cov=np.eye(3),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="MMSE_F weights are not finite"):
                build_filter_bank(
                    [FilterKind.MMSE_F], covs, composite, np.random.default_rng(0)
                )
