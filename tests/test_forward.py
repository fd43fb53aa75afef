"""Tests for the spherical forward model and measurement composition."""

from __future__ import annotations

import tracemalloc
from functools import partial

import numpy as np
import pytest

from beambench import forward
from beambench.config import SetupConfig
from beambench.errors import ShapeMismatch, SourceOutsideHead
from beambench.forward import (
    SIGMA,
    _referenced,
    compose_measurement,
    dipole_potentials,
    fibonacci_montage,
    leadfield_sphere,
    reduce_rank,
    save_leadfield,
    select_filter_leadfields,
)
from beambench.sources import (
    generate_source_signals,
    perturb_geometry,
    sample_geometry,
)

HEAD = 0.09

try:
    from scipy.special import eval_legendre, lpmv

    HAVE_SCIPY = True
except ImportError:
    HAVE_SCIPY = False


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] *= -1.0
    return q


def series_potentials(
    positions: np.ndarray,
    orientations: np.ndarray,
    electrodes: np.ndarray,
) -> np.ndarray:
    """Reference: the zonal-harmonics series of the forward module
    docstring, summed term by term with the Legendre recurrences for
    P_n and P_n' until the terms fall below 1e-17 of the running sum.
    A dipole within 1e-12 R of the center uses the z axis as radial."""
    e_hat = electrodes / np.linalg.norm(electrodes, axis=1)[:, None]
    out = np.empty((e_hat.shape[0], positions.shape[0]))
    for j, (pos, moment) in enumerate(zip(positions, orientations)):
        ecc = np.linalg.norm(pos)
        r_hat = pos / ecc if ecc > 1e-12 * HEAD else np.array([0.0, 0.0, 1.0])
        f = ecc / HEAD
        cosg = np.clip(e_hat @ r_hat, -1.0, 1.0)
        m_r = float(moment @ r_hat)
        tang = e_hat @ moment - m_r * cosg
        p_prev, p_curr = np.ones_like(cosg), cosg.copy()
        dp_prev, dp_curr = np.zeros_like(cosg), np.ones_like(cosg)
        total = np.zeros_like(cosg)
        f_pow = 1.0
        for n in range(1, 20000):
            term = ((2.0 * n + 1.0) / n) * f_pow * (n * m_r * p_curr + tang * dp_curr)
            total += term
            if np.max(np.abs(term)) <= 1e-17 * np.max(np.abs(total)) or f_pow == 0.0:
                break
            p_next = ((2.0 * n + 1.0) * cosg * p_curr - n * p_prev) / (n + 1.0)
            dp_next = dp_prev + (2.0 * n + 1.0) * p_curr
            p_prev, p_curr = p_curr, p_next
            dp_prev, dp_curr = dp_curr, dp_next
            f_pow *= f
        else:
            raise AssertionError(f"reference series did not converge at f={f}")
        out[:, j] = total / (4.0 * np.pi * SIGMA * HEAD**2)
    return out


def small_setup(seed: int = 0, counts=(2, 1, 2), m: int = 16):
    geom = sample_geometry(counts, np.random.default_rng(seed))
    montage = fibonacci_montage(m)
    params = SetupConfig(n_samples=300, order_interest=3, order_background=3)
    signals = generate_source_signals(geom, params, np.random.default_rng(seed + 1))
    lf = leadfield_sphere(geom, montage)
    return geom, montage, signals, lf


def replayed_noise(seed: int, m: int, n: int) -> np.ndarray:
    """The (m, 2n) standard-normal sensor-noise draw of seed; bound with
    partial, it is the noise callable compose_measurement reads."""
    return np.random.default_rng(seed).standard_normal((m, 2 * n))


SWITCHES = tuple(
    f"{role}_{segment}"
    for segment in ("pre", "pst")
    for role in ("interest", "interference", "background", "noise")
)


def switched_config(mask: int, **levels) -> SetupConfig:
    """SetupConfig whose eight segment switches are the bits of mask."""
    return SetupConfig(
        **{name: bool(mask >> bit & 1) for bit, name in enumerate(SWITCHES)}, **levels
    )


def tiny_setup(counts, m: int, seed: int):
    geom = sample_geometry(counts, np.random.default_rng(seed))
    params = SetupConfig(n_samples=60, order_interest=2, order_background=2)
    signals = generate_source_signals(geom, params, np.random.default_rng(seed + 1))
    return signals, leadfield_sphere(geom, fibonacci_montage(m))


class TestMontage:
    def test_positions_on_sphere_with_unique_labels(self):
        montage = fibonacci_montage(128)
        assert montage.shape == (128, 3)
        radii = np.linalg.norm(montage, axis=1)
        assert np.max(np.abs(radii - HEAD)) <= 1e-9

    def test_covers_only_the_upper_three_quarters(self):
        montage = fibonacci_montage(64)
        z = montage[:, 2]
        assert z.min() >= -0.5 * HEAD - 1e-9
        assert z.max() <= HEAD + 1e-12
        assert z.max() > 0.9 * HEAD  # reaches the vertex region


class TestDipolePotentials:
    def test_central_dipole_closed_form(self):
        montage = fibonacci_montage(128)
        moment = np.array([0.0, 0.0, 1.0])
        got = dipole_potentials(np.zeros((1, 3)), moment[None], montage)[:, 0]
        e_hat = montage / HEAD
        expected = 3.0 * (e_hat @ moment) / (4.0 * np.pi * SIGMA * HEAD**2)
        assert np.max(np.abs(got - expected)) <= 1e-10

    def test_central_dipole_any_moment(self):
        montage = fibonacci_montage(32)
        moment = np.array([0.3, -0.5, 0.2])
        got = dipole_potentials(np.zeros((1, 3)), moment[None], montage)[:, 0]
        e_hat = montage / HEAD
        expected = 3.0 * (e_hat @ moment) / (4.0 * np.pi * SIGMA * HEAD**2)
        assert np.max(np.abs(got - expected)) <= 1e-10

    def test_rotational_equivariance(self):
        montage = fibonacci_montage(48)
        rng = np.random.default_rng(50)
        for _ in range(5):
            pos = 0.07 * (lambda v: v / np.linalg.norm(v))(rng.standard_normal(3))
            mom = (lambda v: v / np.linalg.norm(v))(rng.standard_normal(3))
            rot = random_rotation(rng)
            base = dipole_potentials(pos[None], mom[None], montage)
            turned = dipole_potentials(
                (rot @ pos)[None], (rot @ mom)[None], montage @ rot.T
            )
            assert np.max(np.abs(base - turned)) <= 1e-9

    def test_linearity_in_the_moment(self):
        montage = fibonacci_montage(24)
        pos = np.array([0.02, -0.03, 0.05])
        m1 = np.array([1.0, 0.0, 0.0])
        m2 = np.array([0.0, -1.0, 2.0])
        v1 = dipole_potentials(pos[None], m1[None], montage)
        v2 = dipole_potentials(pos[None], m2[None], montage)
        v12 = dipole_potentials(pos[None], (m1 + m2)[None], montage)
        assert np.allclose(v12, v1 + v2, atol=1e-12)

    def test_source_outside_head_rejected(self):
        montage = fibonacci_montage(16)
        pos = np.array([[0.0, 0.0, HEAD]])
        with pytest.raises(SourceOutsideHead):
            dipole_potentials(pos, np.array([[0.0, 0.0, 1.0]]), montage)

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
    def test_eccentric_dipole_against_legendre_oracle(self):
        # dipole on the z-axis; independent series in terms of P_n and
        # the order-1 associated Legendre function from scipy
        montage = fibonacci_montage(64)
        b = 0.05
        moment = np.array([0.4, -0.3, 0.7])
        got = dipole_potentials(np.array([[0.0, 0.0, b]]), moment[None], montage)[:, 0]

        e_hat = montage / HEAD
        x = np.clip(e_hat[:, 2], -1.0, 1.0)
        phi = np.arctan2(e_hat[:, 1], e_hat[:, 0])
        f = b / HEAD
        total = np.zeros(e_hat.shape[0])
        for n in range(1, 600):
            zonal = n * moment[2] * eval_legendre(n, x)
            # scipy's lpmv carries the Condon-Shortley phase, hence the sign
            tangential = -(moment[0] * np.cos(phi) + moment[1] * np.sin(phi)) * lpmv(
                1, n, x
            )
            total += (2.0 * n + 1.0) / n * f ** (n - 1) * (zonal + tangential)
        expected = total / (4.0 * np.pi * SIGMA * HEAD**2)
        assert np.max(np.abs(got - expected)) <= 1e-8


class TestClosedFormAgainstSeries:
    def test_matches_series_reference(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        unit = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
            lambda v: np.linalg.norm(v) > 0.1
        )

        @hyp.settings(max_examples=60, deadline=None)
        @hyp.given(
            f=st.floats(0.0, 0.99),
            direction=unit,
            moment=unit,
            seed=st.integers(0, 2**32 - 1),
        )
        def check(f, direction, moment, seed):
            electrodes = np.random.default_rng(seed).standard_normal((24, 3))
            electrodes *= HEAD / np.linalg.norm(electrodes, axis=1)[:, None]
            pos = f * HEAD * np.asarray(direction) / np.linalg.norm(direction)
            args = (pos[None], np.asarray(moment)[None], electrodes)
            got = dipole_potentials(*args)
            expected = series_potentials(*args)
            assert np.max(np.abs(got - expected)) <= 1e-9 * np.max(np.abs(expected))

        check()

    def test_center_takes_the_central_branch(self):
        montage = fibonacci_montage(32)
        moment = np.array([[0.3, -0.5, 0.2]])
        got = dipole_potentials(np.zeros((1, 3)), moment, montage)
        expected = series_potentials(np.zeros((1, 3)), moment, montage)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_tiny_eccentricity_is_continuous_with_the_center(self):
        montage = fibonacci_montage(32)
        moment = np.array([[0.3, -0.5, 0.2]])
        direction = np.array([0.6, 0.0, 0.8])
        near = dipole_potentials(1e-9 * HEAD * direction[None], moment, montage)
        center = dipole_potentials(np.zeros((1, 3)), moment, montage)
        expected = series_potentials(1e-9 * HEAD * direction[None], moment, montage)
        scale = np.max(np.abs(center))
        assert np.max(np.abs(near - expected)) <= 1e-12 * scale
        assert np.max(np.abs(near - center)) <= 1e-8 * scale

    def test_first_offending_dipole_is_named(self):
        montage = fibonacci_montage(16)
        positions = np.array([[0.0, 0.0, 0.05], [0.0, HEAD, 0.0], [0.2, 0.0, 0.0]])
        with pytest.raises(SourceOutsideHead, match="dipole 1 at radius"):
            dipole_potentials(positions, np.eye(3), montage)


class TestLeadfieldSphere:
    def test_shapes_and_average_reference(self):
        geom, montage, _, lf = small_setup()
        assert lf.interest.shape == (16, 2)
        assert lf.interference.shape == (16, 1)
        assert lf.background.shape == (16, 2)
        for matrix in (lf.interest, lf.interference, lf.background):
            col_means = matrix.mean(axis=0)
            assert np.max(np.abs(col_means)) <= 1e-12 * np.max(np.abs(matrix))

    def test_plain_geometry_duplicates_into_pert_slots(self):
        _, _, _, lf = small_setup()
        # the pert slots hold the unperturbed arrays themselves, not copies
        assert lf.interest_pert is lf.interest
        assert lf.interference_pert is lf.interference

    def test_perturbed_geometry_fills_pert_slots(self):
        geom, montage, _, plain = small_setup(seed=3)
        pert = perturb_geometry(geom, 0.01, np.pi / 32.0, np.random.default_rng(4))
        lf = leadfield_sphere(pert, montage, plain)
        assert not np.array_equal(lf.interest, lf.interest_pert)
        # data-facing matrices and the unflagged filter view keep the original
        composite = select_filter_leadfields(lf, False, False)
        assert np.array_equal(composite, np.hstack([lf.interest, lf.interference]))

    def test_perturbed_background_is_never_evaluated(self, monkeypatch):
        geom, montage, _, _ = small_setup(seed=3, counts=(2, 2, 3))
        indices = {"interest": [0, 1], "interference": [2, 3], "background": [4, 5, 6]}
        plain = leadfield_sphere(geom, montage)
        pert = perturb_geometry(geom, 0.01, np.pi / 32.0, np.random.default_rng(4))
        full = _referenced(
            dipole_potentials(pert.positions, pert.orientations, montage)
        )
        seen: list[np.ndarray] = []
        original = forward.dipole_potentials

        def spy(positions, *args, **kwargs):
            seen.append(np.atleast_2d(positions).copy())
            return original(positions, *args, **kwargs)

        monkeypatch.setattr(forward, "dipole_potentials", spy)
        lf = leadfield_sphere(pert, montage, plain)
        for role, block in (
            ("interest", lf.interest_pert),
            ("interference", lf.interference_pert),
        ):
            assert np.array_equal(block, full[:, indices[role]])
        background = pert.positions[indices["background"]]
        evaluated = {row.tobytes() for batch in seen for row in batch}
        # one call, for the jittered interest and interference dipoles
        assert len(seen) == 1
        assert not any(row.tobytes() in evaluated for row in background)

    def test_role_blocks_are_column_blocks_of_one_evaluation(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        sizes = st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))

        @hyp.settings(max_examples=30, deadline=None)
        @hyp.given(
            counts=sizes,
            deep=st.tuples(*[st.integers(0, 2)] * 3),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(counts, deep, seed):
            rng = np.random.default_rng(seed)
            geom = sample_geometry(counts, rng, deep)
            montage = fibonacci_montage(16)
            pert = perturb_geometry(geom, 0.01, np.pi / 32.0, rng)
            l, k, _ = geom.counts
            plain = leadfield_sphere(geom, montage)
            lf = leadfield_sphere(pert, montage, plain)
            plain_blocks = (plain.interest, plain.interference, plain.background)
            pert_blocks = (lf.interest_pert, lf.interference_pert)
            # the perturbed set evaluates its interest and interference dipoles only
            for source, n_read, blocks in (
                (geom, geom.n_sources, plain_blocks),
                (pert, l + k, pert_blocks),
            ):
                full = _referenced(
                    dipole_potentials(
                        source.positions[:n_read], source.orientations[:n_read], montage
                    )
                )
                edges = (0, l, l + k, geom.n_sources)
                for block, start, stop in zip(blocks, edges, edges[1:]):
                    assert np.array_equal(block, full[:, start:stop])
                    assert block.flags.f_contiguous

        check()

    def test_grams_belong_to_the_plain_matrices(self):
        geom, montage, _, plain = small_setup(seed=3)
        pert = perturb_geometry(geom, 0.01, np.pi / 32.0, np.random.default_rng(4))
        lf = leadfield_sphere(pert, montage, plain)
        for gram, h in zip(lf.grams, (lf.interest, lf.interference, lf.background)):
            assert np.array_equal(gram, h.T @ h)
        # the plain arrays and Grams are the run's, not recomputed
        assert lf.interest is plain.interest and lf.grams is plain.grams

    def test_perturbed_geometry_needs_the_plain_set(self):
        geom, montage, _, _ = small_setup(seed=3)
        pert = perturb_geometry(geom, 0.01, np.pi / 32.0, np.random.default_rng(4))
        with pytest.raises(ValueError, match="plain set"):
            leadfield_sphere(pert, montage)


class TestReduceRank:
    def test_eckart_young_spectrum(self):
        rng = np.random.default_rng(60)
        u = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        matrix = u @ np.diag([3.0, 2.0, 1.0]) @ v.T
        reduced = reduce_rank(matrix, 2)
        gap = matrix - reduced
        assert np.linalg.norm(gap, 2) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.matrix_rank(reduced, tol=1e-10) == 2

    def test_full_rank_request_is_identity(self):
        rng = np.random.default_rng(61)
        matrix = rng.standard_normal((6, 4))
        assert np.allclose(reduce_rank(matrix, 4), matrix, atol=1e-12)


class TestSelectFilterLeadfields:
    def test_flags_route_perturbed_matrices(self):
        geom, montage, _, plain = small_setup(seed=7)
        pert = perturb_geometry(geom, 0.01, np.pi / 32.0, np.random.default_rng(8))
        lf = leadfield_sphere(pert, montage, plain)
        chosen = select_filter_leadfields(lf, True, False)
        assert np.array_equal(chosen, np.hstack([lf.interest_pert, lf.interference]))
        chosen = select_filter_leadfields(lf, False, True)
        assert np.array_equal(chosen, np.hstack([lf.interest, lf.interference_pert]))

    def test_interference_rank_reduction(self):
        geom, montage, _, lf = small_setup(seed=9, counts=(2, 3, 0))
        chosen = select_filter_leadfields(lf, False, False, interference_rank=1)
        assert np.array_equal(chosen[:, : lf.interest.shape[1]], lf.interest)
        filter_interference = chosen[:, lf.interest.shape[1] :]
        assert filter_interference.shape == lf.interference.shape
        assert np.linalg.matrix_rank(filter_interference, tol=1e-10) == 1
        # data-facing interference stays full
        assert np.linalg.matrix_rank(lf.interference, tol=1e-10) == 3

    def test_no_flags_reproduce_input_views(self):
        _, _, _, lf = small_setup(seed=10)
        chosen = select_filter_leadfields(lf, False, False)
        assert np.array_equal(chosen, np.hstack([lf.interest, lf.interference]))


class TestComposeMeasurement:
    def test_sensors_sum_enabled_components(self):
        _, _, signals, lf = small_setup(seed=11)
        cfg = SetupConfig()
        m, n = lf.interest.shape[0], signals.interest.shape[1] // 2
        recording, _ = compose_measurement(signals, lf, cfg, partial(replayed_noise, 12, m, n))
        noise = replayed_noise(12, m, n)
        g_pre, g_pst = recording.gains_pre, recording.gains_pst
        assert g_pre.interest == 0.0
        assert all(g > 0.0 for g in g_pst)
        assert g_pre[1:] == g_pst[1:]
        pre_sum = (
            g_pre.interference * lf.interference @ signals.interference[:, :n]
            + g_pre.background * lf.background @ signals.background[:, :n]
            + g_pre.noise * noise[:, :n]
        )
        pst_sum = (
            lf.interest @ signals.interest[:, n:]
            + g_pst.interference * lf.interference @ signals.interference[:, n:]
            + g_pst.background * lf.background @ signals.background[:, n:]
            + g_pst.noise * noise[:, n:]
        )
        assert np.allclose(recording.sensors_pre, pre_sum, atol=1e-12)
        assert np.allclose(recording.sensors_pst, pst_sum, atol=1e-12)

    def test_achieved_snr_levels_over_both_segments(self):
        _, _, signals, lf = small_setup(seed=13)
        cfg = SetupConfig(sinr_db=5.0, sbnr_db=-3.0, smnr_db=20.0)
        m, n = lf.interest.shape[0], signals.interest.shape[1] // 2
        recording, _ = compose_measurement(signals, lf, cfg, partial(replayed_noise, 14, m, n))
        gains = recording.gains_pst
        noise = replayed_noise(14, m, n)
        ref_norm = np.linalg.norm(lf.interest @ signals.interest)
        for scaled, level in (
            (gains.interference * lf.interference @ signals.interference, 5.0),
            (gains.background * lf.background @ signals.background, -3.0),
            (gains.noise * noise, 20.0),
        ):
            achieved = 20.0 * np.log10(ref_norm / np.linalg.norm(scaled))
            assert abs(achieved - level) <= 1e-9

    def test_interest_only_post_segment(self):
        _, _, signals, lf = small_setup(seed=15)
        cfg = SetupConfig(
            interference_pre=False,
            background_pre=False,
            noise_pre=False,
            interference_pst=False,
            background_pst=False,
            noise_pst=False,
        )
        m, n = lf.interest.shape[0], signals.interest.shape[1] // 2
        recording, _ = compose_measurement(signals, lf, cfg, partial(replayed_noise, 16, m, n))
        assert np.all(recording.sensors_pre == 0.0)
        assert np.allclose(
            recording.sensors_pst, lf.interest @ signals.interest[:, n:], atol=1e-14
        )

    def test_missing_background_stays_zero(self):
        _, _, signals, lf = small_setup(seed=17, counts=(2, 1, 0))
        m, n = lf.interest.shape[0], signals.interest.shape[1] // 2
        recording, _ = compose_measurement(
            signals, lf, SetupConfig(), partial(replayed_noise, 18, m, n)
        )
        assert recording.gains_pre.background == 0.0
        assert recording.gains_pst.background == 0.0
        noise = replayed_noise(18, m, n)
        g = recording.gains_pst
        expected = (
            lf.interest @ signals.interest[:, n:]
            + g.interference * lf.interference @ signals.interference[:, n:]
            + g.noise * noise[:, n:]
        )
        assert np.allclose(recording.sensors_pst, expected, atol=1e-12)

    def test_filter_view_honors_flags(self):
        geom, montage, _, plain = small_setup(seed=19)
        pert = perturb_geometry(geom, 0.01, np.pi / 32.0, np.random.default_rng(20))
        lf = leadfield_sphere(pert, montage, plain)
        params = SetupConfig(n_samples=300, order_interest=3, order_background=3)
        signals = generate_source_signals(geom, params, np.random.default_rng(21))
        cfg = SetupConfig(use_interest_pert=True)
        m, n = lf.interest.shape[0], signals.interest.shape[1] // 2
        _, view = compose_measurement(signals, lf, cfg, partial(replayed_noise, 22, m, n))
        assert np.array_equal(view, np.hstack([lf.interest_pert, lf.interference]))

    def test_dimension_mismatch_rejected(self):
        _, _, signals, lf = small_setup(seed=23)
        other_signals = generate_source_signals(
            sample_geometry((3, 1, 2), np.random.default_rng(24)),
            SetupConfig(n_samples=300, order_interest=3, order_background=3),
            np.random.default_rng(25),
        )
        n = other_signals.interest.shape[1] // 2
        noise = partial(replayed_noise, 26, lf.interest.shape[0], n)
        with pytest.raises(ShapeMismatch):
            compose_measurement(other_signals, lf, SetupConfig(), noise)

    def test_noise_is_read_once(self):
        _, _, signals, lf = small_setup(seed=29)
        m, n = lf.interest.shape[0], signals.interest.shape[1] // 2
        calls = []

        def noise():
            calls.append(1)
            return replayed_noise(30, m, n)

        compose_measurement(signals, lf, SetupConfig(), noise)
        assert len(calls) == 1

    def test_deterministic_given_seed(self):
        _, _, signals, lf = small_setup(seed=27)
        noise = partial(replayed_noise, 28, lf.interest.shape[0], signals.interest.shape[1] // 2)
        a, _ = compose_measurement(signals, lf, SetupConfig(), noise)
        b, _ = compose_measurement(signals, lf, SetupConfig(), noise)
        assert np.array_equal(a.sensors_pre, b.sensors_pre)
        assert np.array_equal(a.sensors_pst, b.sensors_pst)


@pytest.fixture(scope="module")
def default_setup():
    """Signals and lead-fields at the default shapes: 3/2/10 sources,
    128 electrodes, 2000 samples per segment."""
    cfg = SetupConfig()
    geom = sample_geometry(cfg.sources, np.random.default_rng(41))
    signals = generate_source_signals(geom, cfg, np.random.default_rng(42))
    return signals, leadfield_sphere(geom, fibonacci_montage(cfg.n_electrodes))


def check_gain_scaled_product(
    signals, lf, seed: int, levels, masks=range(256)
) -> None:
    """Replay switch combinations (all 256 by default) on one setup: each
    segment's gains follow the SNR rule and its switches, and its
    sensors hold exactly the bits of the gain-scaled mixing product plus
    the scaled noise, zero gains included."""
    m, n = lf.interest.shape[0], signals.interest.shape[1] // 2
    noise = replayed_noise(seed, m, n)
    leadfields = (lf.interest, lf.interference, lf.background)
    blocks = (signals.interest, signals.interference, signals.background)
    sources = np.vstack(blocks)
    norms = [np.linalg.norm(h @ x) for h, x in zip(leadfields, blocks)]
    norms.append(np.linalg.norm(noise))
    # the SNR rule over both segments; 0.0 for a term without power
    scales = [1.0] + [
        norms[0] / norm / 10.0 ** (level / 20.0) if norm > 0.0 else 0.0
        for norm, level in zip(norms[1:], levels)
    ]
    sinr, sbnr, smnr = levels
    for mask in masks:
        cfg = switched_config(mask, sinr_db=sinr, sbnr_db=sbnr, smnr_db=smnr)
        recording, _ = compose_measurement(signals, lf, cfg, partial(replayed_noise, seed, m, n))
        for segment, columns in (("pre", slice(None, n)), ("pst", slice(n, None))):
            gains = getattr(recording, f"gains_{segment}")
            switches = [getattr(cfg, f"{role}_{segment}") for role in gains._fields]
            wanted = tuple(scale if on else 0.0 for scale, on in zip(scales, switches))
            assert gains == pytest.approx(wanted, rel=1e-12)
            mixing = np.hstack([gain * h for gain, h in zip(gains, leadfields)])
            expected = mixing @ sources[:, columns] + gains.noise * noise[:, columns]
            assert np.array_equal(getattr(recording, f"sensors_{segment}"), expected)


class TestMeasurementMemory:
    def test_peak_holds_the_draw_one_segment_and_the_sources(self, default_setup):
        signals, lf = default_setup
        cfg = SetupConfig()
        m, n, n_sources = cfg.n_electrodes, cfg.n_samples, sum(cfg.sources)
        noise = partial(replayed_noise, 44, m, n)
        tracemalloc.start()
        try:
            compose_measurement(signals, lf, cfg, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the noise draw, one segment's mixing product, the stacked sources
        allowance = 8 * (m * 2 * n + m * n + n_sources * 2 * n) + (1 << 18)
        assert peak <= allowance


class TestMixingProduct:
    def test_segments_equal_the_gain_scaled_product(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=15, deadline=None)
        @hyp.given(
            counts=st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3)),
            m=st.integers(4, 12),
            seed=st.integers(0, 2**32 - 1),
            levels=st.tuples(*[st.floats(-20.0, 30.0)] * 3),
        )
        def check(counts, m, seed, levels):
            check_gain_scaled_product(*tiny_setup(counts, m, seed), seed + 2, levels)

        check()

    def test_default_shapes_equal_the_gain_scaled_product(self, default_setup):
        cfg = SetupConfig()
        # the default switches, then the same without post-segment noise
        check_gain_scaled_product(
            *default_setup, 43, (cfg.sinr_db, cfg.sbnr_db, cfg.smnr_db), (254, 126)
        )

    def test_composed_sensors_meet_the_levels(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=25, deadline=None)
        @hyp.given(
            counts=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
            m=st.integers(4, 12),
            seed=st.integers(0, 2**32 - 1),
            levels=st.tuples(*[st.floats(-20.0, 30.0)] * 3),
        )
        def check(counts, m, seed, levels):
            signals, lf = tiny_setup(counts, m, seed)
            sinr, sbnr, smnr = levels

            def alone(role: str) -> np.ndarray:
                """Sensors over both segments with only role switched on."""
                mask = sum(
                    1 << bit for bit, name in enumerate(SWITCHES) if name.startswith(role)
                )
                cfg = switched_config(mask, sinr_db=sinr, sbnr_db=sbnr, smnr_db=smnr)
                n = signals.interest.shape[1] // 2
                recording, _ = compose_measurement(
                    signals, lf, cfg, partial(replayed_noise, seed + 2, m, n)
                )
                return np.hstack([recording.sensors_pre, recording.sensors_pst])

            ref = np.linalg.norm(alone("interest"))
            for role, level in (
                ("interference", sinr),
                ("background", sbnr),
                ("noise", smnr),
            ):
                achieved = 20.0 * np.log10(ref / np.linalg.norm(alone(role)))
                assert abs(achieved - level) <= 1e-9

        check()


class TestLeadfieldCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(80)
        matrix = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-8, 8, size=(5, 3))
        path = tmp_path / "lf.csv"
        save_leadfield(matrix, path)
        loaded = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(loaded, matrix)

    def test_header_row_declares_dimensions(self, tmp_path):
        path = tmp_path / "lf.csv"
        save_leadfield(np.ones((2, 4)), path)
        assert path.read_text().splitlines()[0] == "2 4"
