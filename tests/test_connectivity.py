"""Tests for the frequency-domain transform and PDC/DTF measures."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from beambench.connectivity import (
    _column_normalize,
    _invert,
    _row_normalize,
    connectivity_spectra,
    connectivity_spectrum,
    default_freqs,
    spectral_transform,
)
from beambench.errors import ZeroColumn, ZeroRow
from beambench.mvar import MvarModel, make_mask, sample_stable_mvar


def scalar_model(a: float) -> MvarModel:
    return MvarModel(np.array([[[a]]]))


def zero_model(dim: int) -> MvarModel:
    return MvarModel(np.zeros((1, dim, dim)))


def triangular_model() -> MvarModel:
    # influence flows only from channel 0 to channel 1
    a1 = np.array([[0.5, 0.0], [0.4, 0.5]])
    return MvarModel(a1[None])


def transform_of(model: MvarModel, freqs) -> tuple[np.ndarray, np.ndarray]:
    """spectral_transform of a stack of one model: A(f) and H(f), each
    (nfreq, dim, dim)."""
    coeff, transfer = spectral_transform(model.coeffs[None], freqs)
    return coeff[0], transfer[0]


def random_stable(seed: int, dim: int, order: int) -> MvarModel:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return sample_stable_mvar(
        dim, order, make_mask(dim, 0.4, rng), 0.95, (-0.4, 0.4), 1000, rng
    )


class TestDefaultFreqs:
    def test_grid_spans_zero_to_half(self):
        freqs = default_freqs(129)
        assert freqs.shape == (129,)
        assert freqs[0] == 0.0
        assert freqs[-1] == 0.5
        assert np.all(np.diff(freqs) > 0.0)


class TestSpectralTransform:
    def test_zero_coefficients_give_identity(self):
        freqs = default_freqs(9)
        coeff, transfer = transform_of(zero_model(3), freqs)
        for k in range(9):
            assert np.allclose(coeff[k], np.eye(3), atol=1e-15)
            assert np.allclose(transfer[k], np.eye(3), atol=1e-15)

    def test_scalar_value_at_zero_frequency(self):
        coeff, _ = transform_of(scalar_model(0.5), np.array([0.0]))
        assert coeff[0, 0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_scalar_value_at_quarter_frequency(self):
        coeff, _ = transform_of(scalar_model(0.5), np.array([0.25]))
        # 1 - 0.5 * exp(-i pi / 2) = 1 + 0.5i
        assert coeff[0, 0, 0] == pytest.approx(1.0 + 0.5j, abs=1e-15)
        assert abs(coeff[0, 0, 0]) == pytest.approx(np.sqrt(1.25), abs=1e-15)

    def test_transfer_is_inverse_of_coeff_transform(self):
        model = random_stable(1, 4, 3)
        freqs = default_freqs(17)
        coeff, transfer = transform_of(model, freqs)
        for k in range(17):
            assert np.allclose(coeff[k] @ transfer[k], np.eye(4), atol=1e-10)

    def test_real_endpoints(self):
        model = random_stable(2, 3, 2)
        coeff, _ = transform_of(model, np.array([0.0, 0.5]))
        assert np.max(np.abs(coeff.imag)) <= 1e-12

    def test_frequencies_outside_band_rejected(self):
        with pytest.raises(ValueError, match="0, 0.5"):
            transform_of(zero_model(2), np.array([0.6]))

    def test_coefficients_must_be_a_stack(self):
        with pytest.raises(ValueError, match="k, order, dim, dim"):
            spectral_transform(zero_model(2).coeffs, default_freqs(5))


def loop_transfer(coeff_transform: np.ndarray) -> np.ndarray:
    """Reference: invert A(f) one matrix at a time."""
    out = np.empty_like(coeff_transform)
    for index in np.ndindex(coeff_transform.shape[:-2]):
        out[index] = np.linalg.inv(coeff_transform[index])
    return out


def spy_on_pinv(monkeypatch) -> list[tuple[int, ...]]:
    """Record the shape of every np.linalg.pinv argument."""
    return spy_on(monkeypatch, "pinv", np.shape)


def spy_on(monkeypatch, name: str, record) -> list:
    """Record record(a) for the argument a of every np.linalg.<name> call."""
    calls: list = []
    original = getattr(np.linalg, name)

    def spy(a, *args, **kwargs):
        calls.append(record(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return calls


def svd_flags(batch: np.ndarray) -> np.ndarray:
    """The singular test of spectral_transform, by full SVD."""
    sv = np.linalg.svd(batch, compute_uv=False)
    return sv[:, -1] <= 1e-12 * np.maximum(sv[:, 0], 1.0)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestBatchedInverse:
    @pytest.mark.parametrize(
        "seed, dim, order", [(11, 1, 1), (12, 3, 6), (13, 6, 4), (14, 10, 3)]
    )
    def test_equals_per_frequency_loop(self, seed, dim, order):
        model = random_stable(seed, dim, order)
        coeff, transfer = transform_of(model, default_freqs(129))
        assert np.array_equal(transfer, loop_transfer(coeff))

    def test_pinv_only_at_singular_frequencies_with_one_warning(self, monkeypatch):
        # A(f) = I - diag(1, 0.5) exp(-4 pi i f) is singular at f = 0 and 0.5
        coeffs = np.array([np.zeros((2, 2)), np.diag([1.0, 0.5])])
        model = MvarModel(coeffs)
        freqs = np.array([0.0, 0.1, 0.25, 0.4, 0.5])
        calls = spy_on_pinv(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            coeff, transfer = transform_of(model, freqs)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert calls == [(2, 2, 2)]
        for k in (0, 4):
            assert np.allclose(transfer[k], np.diag([0.0, 2.0]), atol=1e-12)
        regular = [1, 2, 3]
        expected = loop_transfer(coeff[regular])
        assert np.array_equal(transfer[regular], expected)

    def test_no_pinv_and_no_warning_when_regular(self, monkeypatch):
        calls = spy_on_pinv(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            transform_of(random_stable(15, 4, 3), default_freqs(33))
        assert calls == []


class TestRegularCertificate:
    def test_regular_slices_skip_the_svd(self, monkeypatch):
        calls = spy_on(monkeypatch, "svd", np.shape)
        coeff, transfer = transform_of(random_stable(15, 4, 3), default_freqs(33))
        assert calls == []
        assert np.array_equal(transfer, loop_transfer(coeff))

    def test_pinv_exactly_where_the_svd_rule_flags(self, monkeypatch):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        pinv_args = spy_on(monkeypatch, "pinv", np.copy)

        @hyp.settings(max_examples=80, deadline=None)
        @hyp.given(
            dim=st.integers(2, 6),
            n_regular=st.integers(0, 6),
            near=st.lists(
                st.tuples(st.floats(-15.0, -9.0), st.floats(-3.0, 3.0)), max_size=4
            ),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(dim, n_regular, near, seed):
            rng = np.random.default_rng(seed)
            slices = [
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                for _ in range(n_regular)
            ]
            for log_ratio, log_scale in near:
                # singular values from 10**log_scale down to ratio times that
                sv = np.logspace(0.0, log_ratio, dim) * 10.0**log_scale
                u, v = random_unitary(dim, rng), random_unitary(dim, rng)
                slices.append((u * sv) @ v.conj().T)
            hyp.assume(slices)
            batch = np.stack(slices)[rng.permutation(len(slices))]
            flagged = svd_flags(batch)
            pinv_args.clear()
            inverse, singular = _invert(batch)
            assert singular == flagged.any()
            if flagged.any():
                assert len(pinv_args) == 1
                assert np.array_equal(pinv_args[0], batch[flagged])
            else:
                assert pinv_args == []
            for k in np.flatnonzero(~flagged):
                assert np.array_equal(inverse[k], np.linalg.inv(batch[k]))

        check()


class TestPdc:
    def test_zero_model_gives_identity_pattern(self):
        values = connectivity_spectrum(zero_model(3), default_freqs(5)).pdc
        for k in range(5):
            assert np.allclose(values[:, :, k], np.eye(3), atol=1e-15)

    def test_scalar_model_is_one_everywhere(self):
        values = connectivity_spectrum(scalar_model(0.5), default_freqs(7)).pdc
        assert np.allclose(values, 1.0, atol=1e-15)

    def test_directionality_of_triangular_model(self):
        values = connectivity_spectrum(triangular_model(), default_freqs(17)).pdc
        assert np.all(values[1, 0, :] > 0.0)
        assert np.all(values[0, 1, :] == 0.0)

    def test_columns_square_sum_to_one(self):
        values = connectivity_spectrum(random_stable(3, 5, 4), default_freqs(33)).pdc
        sums = np.sum(values**2, axis=0)
        assert np.max(np.abs(sums - 1.0)) <= 1e-10

    def test_magnitudes_within_unit_interval(self):
        values = connectivity_spectrum(random_stable(4, 4, 2), default_freqs(33)).pdc
        assert np.all(values >= 0.0)
        assert np.all(values <= 1.0)

    def test_zero_column_raises(self):
        # a = 1 makes A(0) = 0 for the scalar model, which also trips
        # the singular-transfer fallback warning on the way
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ZeroColumn):
                connectivity_spectrum(scalar_model(1.0), np.array([0.0]))


class TestDtf:
    def test_zero_model_gives_identity_pattern(self):
        values = connectivity_spectrum(zero_model(3), default_freqs(5)).dtf
        for k in range(5):
            assert np.allclose(values[:, :, k], np.eye(3), atol=1e-15)

    def test_scalar_model_is_one_everywhere(self):
        values = connectivity_spectrum(scalar_model(0.5), default_freqs(7)).dtf
        assert np.allclose(values, 1.0, atol=1e-15)

    def test_directionality_of_triangular_model(self):
        values = connectivity_spectrum(triangular_model(), default_freqs(17)).dtf
        assert np.all(values[1, 0, :] > 0.0)
        # the inverse of a lower-triangular matrix stays lower-triangular
        assert np.all(values[0, 1, :] <= 1e-15)

    def test_rows_square_sum_to_one(self):
        values = connectivity_spectrum(random_stable(6, 5, 4), default_freqs(33)).dtf
        sums = np.sum(values**2, axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-10

    def test_zero_row_raises_under_printed_form(self):
        # a = 1 makes A(0) = 0 for the scalar model; pinv(0) = 0 leaves H(0)
        # with a vanishing row, after one singular-transform warning.  A
        # spectrum stops earlier, at the zero column of A(0), so the row
        # normalization is applied to H itself.
        freqs = np.array([0.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, transfer = transform_of(scalar_model(1.0), freqs)
            with pytest.raises(ZeroRow):
                _row_normalize(np.abs(transfer), freqs)
        assert [w.category for w in caught] == [RuntimeWarning]


class TestConnectivitySpectrum:
    def test_bundle_matches_individual_calls(self):
        model = random_stable(8, 4, 3)
        freqs = default_freqs(21)
        spectrum = connectivity_spectrum(model, freqs)
        coeff_transform, transfer = transform_of(model, freqs)
        pdc = _column_normalize(np.abs(coeff_transform), freqs)
        dtf = _row_normalize(np.abs(transfer), freqs)
        assert np.array_equal(spectrum.pdc, pdc.transpose(1, 2, 0))
        assert np.array_equal(spectrum.dtf, dtf.transpose(1, 2, 0))
        assert spectrum.pdc.shape == (4, 4, 21)

    def test_stack_rows_equal_single_model_spectra(self):
        models = [random_stable(seed, 3, 2) for seed in (21, 22, 23)]
        freqs = default_freqs(25)
        pdc, dtf = connectivity_spectra(np.stack([m.coeffs for m in models]), freqs)
        assert pdc.shape == dtf.shape == (3, 25, 3, 3)
        for i, model in enumerate(models):
            spectrum = connectivity_spectrum(model, freqs)
            assert np.array_equal(pdc[i], spectrum.pdc.transpose(2, 0, 1))
            assert np.array_equal(dtf[i], spectrum.dtf.transpose(2, 0, 1))

    def test_axes_are_to_from_frequency(self):
        spectrum = connectivity_spectrum(triangular_model(), default_freqs(9))
        assert np.all(spectrum.pdc[1, 0, :] > 0.0)
        assert np.all(spectrum.pdc[0, 1, :] == 0.0)



class TestNormalizationProperty:
    def test_pdc_columns_and_dtf_rows_square_sum_to_one(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=40, deadline=None)
        @hyp.given(
            dim=st.integers(1, 6),
            order=st.integers(1, 8),
            freqs=st.lists(st.floats(0.0, 0.5), min_size=2, max_size=65),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(dim, order, freqs, seed):
            rng = np.random.default_rng(seed)
            # +/-0.2 keeps the rejection sampler fast up to dim 6, order 8
            model = sample_stable_mvar(
                dim, order, make_mask(dim, 0.4, rng), 0.95, (-0.2, 0.2), 1000, rng
            )
            spectrum = connectivity_spectrum(model, np.sort(freqs))
            pdc_sums = np.sum(spectrum.pdc**2, axis=0)
            dtf_sums = np.sum(spectrum.dtf**2, axis=1)
            assert np.max(np.abs(pdc_sums - 1.0)) <= 1e-10
            assert np.max(np.abs(dtf_sums - 1.0)) <= 1e-10

        check()
