"""Tests for source geometry, perturbation and signal generation."""

from __future__ import annotations

import csv
from dataclasses import replace

import numpy as np
import pytest

from beambench.config import SetupConfig
from beambench.errors import ShapeMismatch
from beambench.mvar import make_mask, sample_stable_mvar, simulate
from beambench.sources import (
    CORTEX_RADIUS,
    DEEP_RADIUS,
    HEAD_RADIUS,
    SourceGeometry,
    erp_waveform,
    generate_source_signals,
    perturb_geometry,
    sample_geometry,
    write_geometry_csv,
)

CONE = np.pi / 32.0


def small_geometry(seed: int = 0, counts=(3, 2, 4), deep=(0, 0, 0)) -> SourceGeometry:
    return sample_geometry(counts, np.random.default_rng(seed), deep)


class TestSourceSpace:
    def test_default_radii(self):
        assert HEAD_RADIUS == 0.09
        assert CORTEX_RADIUS == pytest.approx(0.8 * 0.09)
        assert DEEP_RADIUS == pytest.approx(0.3 * 0.09)


class TestSampleGeometry:
    def test_roles_are_grouped_in_order(self):
        geom = small_geometry()
        assert geom.roles == ("interest",) * 3 + ("interference",) * 2 + (
            "background",
        ) * 4
        assert geom.counts == (3, 2, 4)

    def test_cortical_sources_sit_on_shell_pointing_outward(self):
        geom = small_geometry()
        radii = np.linalg.norm(geom.positions, axis=1)
        assert np.allclose(radii, CORTEX_RADIUS, atol=1e-12)
        # radial orientation: unit position equals the orientation
        unit = geom.positions / radii[:, None]
        assert np.allclose(unit, geom.orientations, atol=1e-12)

    def test_deep_sources_live_in_the_deep_ball(self):
        geom = sample_geometry((1, 0, 0), np.random.default_rng(5), deep=(4, 0, 2))
        assert geom.roles == ("interest",) * 5 + ("background",) * 2
        radii = np.linalg.norm(geom.positions[geom.deep], axis=1)
        assert np.all(radii <= DEEP_RADIUS + 1e-12)
        assert int(geom.deep.sum()) == 6

    def test_orientations_are_unit_and_positions_inside(self):
        geom = sample_geometry((2, 1, 3), np.random.default_rng(6), deep=(1, 1, 0))
        norms = np.linalg.norm(geom.orientations, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
        assert np.all(np.linalg.norm(geom.positions, axis=1) < HEAD_RADIUS)

    def test_positions_pairwise_distinct(self):
        geom = sample_geometry((5, 5, 20), np.random.default_rng(7))
        keys = {pos.tobytes() for pos in geom.positions}
        assert len(keys) == geom.n_sources

    def test_deterministic_given_seed(self):
        a = small_geometry(seed=8)
        b = small_geometry(seed=8)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.orientations, b.orientations)


class TestGeometryType:
    def test_non_unit_orientation_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            SourceGeometry(
                positions=np.array([[0.0, 0.0, 0.05]]),
                orientations=np.array([[0.0, 0.0, 1.1]]),
                counts=(1, 0, 0),
                deep=np.array([False]),
            )

    def test_position_on_scalp_rejected(self):
        with pytest.raises(ValueError, match="strictly inside"):
            SourceGeometry(
                positions=np.array([[0.0, 0.0, 0.09]]),
                orientations=np.array([[0.0, 0.0, 1.0]]),
                counts=(1, 0, 0),
                deep=np.array([False]),
            )


    @pytest.mark.parametrize("counts", [(1, 0), (1, 0, 0, 0), (2, -1, 0), (1, 1, 0)])
    def test_counts_must_be_three_sizes_summing_to_the_rows(self, counts):
        with pytest.raises(ValueError, match="counts"):
            SourceGeometry(
                positions=np.array([[0.0, 0.0, 0.05]]),
                orientations=np.array([[0.0, 0.0, 1.0]]),
                counts=counts,
                deep=np.array([False]),
            )


class TestPerturbGeometry:
    def test_zero_bounds_reproduce_input_exactly(self):
        geom = small_geometry(seed=10)
        pert = perturb_geometry(geom, 0.0, 0.0, np.random.default_rng(11))
        assert np.array_equal(pert.positions, geom.positions)
        assert np.array_equal(pert.orientations, geom.orientations)

    def test_positions_stay_within_half_cube_edge(self):
        geom = small_geometry(seed=12)
        for seed in range(100):
            pert = perturb_geometry(geom, 0.010, 0.0, np.random.default_rng(seed))
            shift = np.abs(pert.positions - geom.positions)
            assert np.max(shift) <= 0.005 + 1e-15

    def test_orientation_cone_bound_holds(self):
        # an azimuth and an elevation offset each at most CONE keep the
        # rotated axis within arccos(cos(2 * CONE)) of the original
        geom = small_geometry(seed=13)
        bound = np.cos(2.0 * CONE) - 1e-12
        for seed in range(100):
            pert = perturb_geometry(geom, 0.0, CONE, np.random.default_rng(seed))
            dots = np.sum(pert.orientations * geom.orientations, axis=1)
            assert np.all(dots >= bound)

    def test_escaped_positions_are_pulled_back_inside(self):
        geom = small_geometry(seed=14)
        rng = np.random.default_rng(15)
        pert = perturb_geometry(geom, 0.2, 0.0, rng)  # huge cube, many escapes
        radii = np.linalg.norm(pert.positions, axis=1)
        assert np.all(radii < HEAD_RADIUS)
        moved = np.linalg.norm(pert.positions - geom.positions, axis=1)
        pulled = radii[moved > 0.1 * HEAD_RADIUS]
        if pulled.size:
            assert np.all(pulled <= 0.99 * HEAD_RADIUS + 1e-12)

    def test_deterministic_given_seed(self):
        geom = small_geometry(seed=16)
        a = perturb_geometry(geom, 0.01, CONE, np.random.default_rng(17))
        b = perturb_geometry(geom, 0.01, CONE, np.random.default_rng(17))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.orientations, b.orientations)


class TestErpWaveform:
    def test_odd_symmetry_about_center(self):
        wave = erp_waveform(201, 1.0, 100.0, 20.0)
        assert wave[100] == 0.0
        for offset in range(1, 101):
            assert wave[100 + offset] == pytest.approx(-wave[100 - offset], abs=1e-12)

    def test_extrema_one_width_from_center(self):
        amp = 2.5
        wave = erp_waveform(201, amp, 100.0, 20.0)
        peak = amp * np.exp(-0.5)
        assert int(np.argmin(wave)) == 120
        assert int(np.argmax(wave)) == 80
        assert wave[120] == pytest.approx(-peak, abs=1e-12)
        assert wave[80] == pytest.approx(peak, abs=1e-12)


class TestGenerateSourceSignals:
    def test_shapes_follow_geometry(self):
        geom = small_geometry(counts=(3, 2, 4))
        params = SetupConfig(n_samples=300, order_interest=3, order_background=3)
        signals = generate_source_signals(geom, params, np.random.default_rng(20))
        assert signals.interest.shape == (3, 600)
        assert signals.interference.shape == (2, 600)
        assert signals.background.shape == (4, 600)

    def test_interference_mirrors_interest_negated(self):
        geom = small_geometry(seed=21, counts=(3, 2, 0))
        params = SetupConfig(n_samples=2000)
        signals = generate_source_signals(geom, params, np.random.default_rng(22))
        for row in range(2):
            corr = np.corrcoef(signals.interest[row], signals.interference[row])[0, 1]
            assert corr <= -0.6
            assert corr == pytest.approx(-1.0 / np.sqrt(2.0), abs=0.1)

    def test_extra_interference_rows_are_power_matched_noise(self):
        geom = small_geometry(seed=23, counts=(2, 4, 0))
        params = SetupConfig(n_samples=1500, order_interest=3)
        signals = generate_source_signals(geom, params, np.random.default_rng(24))
        full_qi = signals.interference
        mirrored_power = np.mean(full_qi[:2] ** 2)
        for row in (2, 3):
            power = float(np.mean(full_qi[row] ** 2))
            assert power == pytest.approx(mirrored_power, rel=1e-9)
            # padding rows carry no mirrored signal
            corr = np.corrcoef(full_qi[row], signals.interest[0])[0, 1]
            assert abs(corr) < 0.2

    @pytest.mark.parametrize("counts", [(3, 2, 0), (2, 4, 0), (2, 0, 0)])
    def test_interference_rows_follow_the_per_row_recipe(self, counts):
        l, k, _ = counts
        geom = small_geometry(seed=37, counts=counts)
        n = 333
        params = SetupConfig(n_samples=n, order_interest=3)
        signals = generate_source_signals(geom, params, np.random.default_rng(38))
        # replay the draws up to the interference noise
        rng = np.random.default_rng(38)
        mask = make_mask(l, params.frac_ones, rng)
        model = sample_stable_mvar(
            l, 3, mask, params.stab_limit, params.coeff_range, params.iter_limit, rng
        )
        interest = simulate(model, 2 * n, rng)
        noise = rng.standard_normal((k, 2 * n))
        expected = np.zeros((k, 2 * n))
        for row in range(min(k, l)):
            scale = np.sqrt(np.mean(interest[row] ** 2) / np.mean(noise[row] ** 2))
            expected[row] = -interest[row] + scale * noise[row]
        if k > l:
            pad_power = np.mean([np.mean(expected[row] ** 2) for row in range(l)])
            for row in range(l, k):
                scale = np.sqrt(pad_power / np.mean(noise[row] ** 2))
                expected[row] = scale * noise[row]
        assert np.array_equal(signals.interference, expected)

    def test_erp_disabled_means_zero_block(self):
        geom = small_geometry(seed=25, counts=(2, 1, 0))
        params = SetupConfig(n_samples=400, order_interest=3)
        signals = generate_source_signals(geom, params, np.random.default_rng(26))
        # replay the draws: the interest rows are the bare MVAR series
        rng = np.random.default_rng(26)
        mask = make_mask(2, params.frac_ones, rng)
        model = sample_stable_mvar(
            2, 3, mask, params.stab_limit, params.coeff_range, params.iter_limit, rng
        )
        assert np.array_equal(signals.interest_model.coeffs, model.coeffs)
        assert np.array_equal(signals.interest, simulate(model, 800, rng))

    def test_erp_enabled_adds_waveform_to_post_segment_only(self):
        geom = small_geometry(seed=27, counts=(2, 1, 0))
        n = 400
        base = SetupConfig(n_samples=n, order_interest=3)
        with_erp = SetupConfig(n_samples=n, order_interest=3, erp_enabled=True)
        plain = generate_source_signals(geom, base, np.random.default_rng(28))
        bumped = generate_source_signals(geom, with_erp, np.random.default_rng(28))
        assert np.array_equal(plain.interest[:, :n], bumped.interest[:, :n])
        # default center and width
        width = max(n / 16.0, 1.0)
        erp = np.array(
            [erp_waveform(n, np.std(row), n // 2, width) for row in plain.interest[:, n:]]
        )
        assert not np.all(erp == 0.0)
        assert np.allclose(bumped.interest[:, n:], plain.interest[:, n:] + erp)
        row = erp[0]
        assert int(np.argmax(np.abs(row))) in (n // 2 - round(width), n // 2 + round(width))

    def test_background_block_optional(self):
        geom = small_geometry(seed=29, counts=(2, 1, 0))
        params = SetupConfig(n_samples=300, order_interest=3)
        signals = generate_source_signals(geom, params, np.random.default_rng(30))
        assert signals.background.shape == (0, 600)
        assert signals.interest.shape == (2, 600)
        assert signals.interference.shape == (1, 600)

    def test_composite_provenance_includes_background(self):
        geom = small_geometry(seed=31, counts=(2, 1, 3))
        params = SetupConfig(n_samples=300, order_interest=3, order_background=2)
        signals = generate_source_signals(geom, params, np.random.default_rng(32))
        assert signals.interest.shape == (2, 600)
        assert signals.background.shape == (3, 600)
        assert np.all(np.isfinite(signals.background))
        assert not np.all(signals.background == 0.0)

    def test_role_blocks_must_share_both_segments(self):
        geom = small_geometry(seed=35, counts=(2, 1, 2))
        params = SetupConfig(n_samples=300, order_interest=3, order_background=3)
        signals = generate_source_signals(geom, params, np.random.default_rng(36))
        with pytest.raises(ShapeMismatch, match="same 2n samples"):
            replace(signals, background=signals.background[:, :300])

    def test_deterministic_given_seed(self):
        geom = small_geometry(seed=33, counts=(2, 2, 2))
        params = SetupConfig(n_samples=300, order_interest=3, order_background=3)
        a = generate_source_signals(geom, params, np.random.default_rng(34))
        b = generate_source_signals(geom, params, np.random.default_rng(34))
        assert np.array_equal(a.interest, b.interest)
        assert np.array_equal(a.interference, b.interference)
        assert np.array_equal(a.background, b.background)


class TestGeometryCsv:
    def test_one_row_per_source_with_repr_floats(self, tmp_path):
        geom = sample_geometry((2, 1, 1), np.random.default_rng(40), deep=(1, 0, 0))
        path = tmp_path / "geometry.csv"
        write_geometry_csv(geom, path)
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["role", "deep", "x", "y", "z", "ox", "oy", "oz"]
        assert len(rows) == 1 + geom.n_sources
        for i, row in enumerate(rows[1:]):
            assert row[0] == geom.roles[i]
            assert row[1] == str(int(geom.deep[i]))
            assert [float(v) for v in row[2:5]] == pytest.approx(
                list(geom.positions[i]), abs=0.0
            )
            assert [float(v) for v in row[5:8]] == pytest.approx(
                list(geom.orientations[i]), abs=0.0
            )
