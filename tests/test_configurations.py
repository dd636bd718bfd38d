import numpy as np
import pytest

from helix_kmd.configurations import (
    HelixConfig,
    HelixVariant,
    rotation_speed,
    sample,
    sampled_trajectory,
    stationary_radius,
    theorem_alpha,
)
from helix_kmd.errors import DegenerateConfig
from helix_kmd.filaments import kmd_residual


class TestHelixConfig:
    def test_nu_is_derived_from_the_variant(self):
        assert HelixConfig(1.0, 0.8, 3, HelixVariant.STRAIGHT_POLYGON).nu == 0.0
        for variant in (HelixVariant.POLYGON_HELIX, HelixVariant.POLYGON_WITH_CENTER):
            assert HelixConfig(1.0, -0.8, 3, variant).nu == 1.0 / -0.8

    @pytest.mark.parametrize("args", [
        (1.0, 1.0, 3, 1.0, HelixVariant.POLYGON_HELIX),     # a stray nu before the variant
        (1.0, 1.0, 3, "PolygonHelix"),
    ], ids=["stray-nu", "variant-name"])
    def test_rejects_a_variant_that_is_no_helix_variant(self, args):
        with pytest.raises(DegenerateConfig, match="HelixVariant"):
            HelixConfig(*args)


class TestSample:
    def test_straight_polygon_at_t0(self):
        st = sample(HelixConfig(1.0, 1.0, 3, HelixVariant.STRAIGHT_POLYGON))
        expected = np.exp(2j * np.pi * np.arange(3) / 3)
        assert np.max(np.abs(st.positions - expected[:, None])) < 1e-15

    def test_polygon_helix_at_t0(self):
        cfg = HelixConfig(0.7, 0.5, 4, HelixVariant.POLYGON_HELIX)
        st = sample(cfg, modes=64)
        s = st.s_grid
        expected = 0.7 * np.exp(1j * s / 0.5)[None, :] * np.exp(
            2j * np.pi * np.arange(4) / 4
        )[:, None]
        assert np.max(np.abs(st.positions - expected)) < 1e-14

    def test_center_filament_stays_at_origin(self):
        cfg = HelixConfig(2.0, 1.0, 3, HelixVariant.POLYGON_WITH_CENTER)
        for t in [0.0, 0.3, 2.0]:
            assert np.all(sample(cfg, t).positions[0] == 0.0)

    def test_normalization(self):
        st = sample(HelixConfig(1.0, 1.0, 3, HelixVariant.POLYGON_HELIX))
        assert np.all(st.circulations == 2.0)
        assert np.all(st.core_constants == 1.0)

    def test_rotation_identity(self):
        # sample(t) equals the rotated t=0 sample exactly
        cfg = HelixConfig(1.3, 0.8, 5, HelixVariant.POLYGON_HELIX)
        t = 0.7
        omega = rotation_speed(cfg)
        a = sample(cfg, t, modes=32)
        b = sample(cfg, 0.0, modes=32)
        assert np.max(np.abs(a.positions - np.exp(1j * omega * t) * b.positions)) < 1e-13

    def test_dihedral_relabeling_invariance(self):
        cfg = HelixConfig(1.0, 1.0, 4, HelixVariant.POLYGON_HELIX)
        st = sample(cfg, 0.21, modes=32)
        rotated = st.positions * np.exp(2j * np.pi / 4)
        assert np.max(np.abs(np.roll(st.positions, -1, axis=0) - rotated)) < 1e-13


class TestRotationSpeed:
    def test_polygon_helix_value(self):
        cfg = HelixConfig(1.0, 1.0, 3, HelixVariant.POLYGON_HELIX)
        assert rotation_speed(cfg) == pytest.approx(2.0, abs=1e-14)

    def test_polygon_with_center_stationary(self):
        cfg = HelixConfig(2.0, 1.0, 3, HelixVariant.POLYGON_WITH_CENTER)
        assert rotation_speed(cfg) == pytest.approx(0.0, abs=1e-14)

    def test_straight_polygon_value(self):
        cfg = HelixConfig(1.0, 1.0, 3, HelixVariant.STRAIGHT_POLYGON)
        assert rotation_speed(cfg) == pytest.approx(4.0, abs=1e-14)


class TestStationaryRadius:
    def test_values(self):
        assert stationary_radius(1.0, 5) == pytest.approx(2.0, abs=1e-15)
        assert stationary_radius(1.0, 2) == pytest.approx(1.0, abs=1e-15)

    def test_inverts_rotation_speed(self):
        for n in (2, 3, 4, 7):
            r = stationary_radius(1.0, n)
            cfg = HelixConfig(r, 1.0, n, HelixVariant.POLYGON_HELIX)
            assert abs(rotation_speed(cfg)) < 1e-14

    def test_degenerate(self):
        with pytest.raises(DegenerateConfig):
            stationary_radius(1.0, 1)


class TestTheoremAlpha:
    def test_stationary_case_vanishes(self):
        r = stationary_radius(1.0, 4)
        assert theorem_alpha(r, 1.0, 4, HelixVariant.POLYGON_HELIX) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_generic_value(self):
        assert theorem_alpha(1.0, 1.0, 3, HelixVariant.POLYGON_HELIX) == -2.0

    def test_with_center_value(self):
        assert theorem_alpha(2.0, 1.0, 3, HelixVariant.POLYGON_WITH_CENTER) == 0.0

    def test_sign_convention_against_family(self):
        # alpha = -rotation_speed for the helix variants
        cfg = HelixConfig(1.0, 1.0, 3, HelixVariant.POLYGON_HELIX)
        assert theorem_alpha(1.0, 1.0, 3, cfg.variant) == pytest.approx(
            -rotation_speed(cfg)
        )


class TestFamiliesSolveModel:
    @pytest.mark.parametrize("variant,r", [
        (HelixVariant.STRAIGHT_POLYGON, 1.0),
        (HelixVariant.POLYGON_HELIX, 1.0),
        (HelixVariant.POLYGON_WITH_CENTER, 1.5),
    ])
    def test_residual_spectrally_small(self, variant, r):
        cfg = HelixConfig(r, 1.0, 3, variant)
        res = kmd_residual(sampled_trajectory(cfg, 1e-4, 5, modes=128))
        assert res < 1e-6
