import numpy as np
import pytest

from helix_kmd.configurations import HelixConfig, HelixVariant, sample, sampled_trajectory
from helix_kmd.errors import CollisionError, InvalidTransform
from helix_kmd.filaments import (
    FilamentEnsemble,
    center_of_vorticity,
    galilean_transform,
    kmd_residual,
    kmd_rhs,
    min_separation,
    simulate,
    step,
    step_count,
)


def straight(positions, kappa=2.0, modes=64):
    pos = np.array([np.full(modes, complex(p)) for p in positions])
    n = len(positions)
    return FilamentEnsemble(
        positions=pos,
        circulations=np.full(n, kappa),
        core_constants=np.ones(n),
        axial_period=2 * np.pi,
    )


def polygon(n=3, r=1.0, modes=64):
    return sample(HelixConfig(r, 1.0, n, HelixVariant.STRAIGHT_POLYGON),
                  modes=modes)


class TestRhs:
    def test_single_straight_filament_is_steady(self):
        st = straight([1.0 + 0.0j], modes=64)
        assert np.max(np.abs(kmd_rhs(st))) == 0.0

    def test_pair_interaction_hand_value(self):
        # 2i * kappa * (X1 - X2)/|X1 - X2|^2 with kappa=2, gap 1 -> +-4i
        st = straight([0.5, -0.5])
        rhs = kmd_rhs(st)
        assert np.allclose(rhs[0], 4.0j, atol=1e-14)
        assert np.allclose(rhs[1], -4.0j, atol=1e-14)

    def test_polygon_rotation_speed_structure(self):
        st = polygon()
        rhs = kmd_rhs(st)
        assert np.max(np.abs(rhs - 4.0j * st.positions)) < 1e-13

    def test_collision_guard(self):
        st = straight([1e-9, -1e-9])
        with pytest.raises(CollisionError):
            kmd_rhs(st, collision_threshold=1e-6)

    @pytest.mark.parametrize("positions", [[0.5, -0.5], [4.0, 0.0, 1.0], [0.0, 3.0, 2.0]])
    def test_collision_guard_at_the_threshold(self, positions):
        # the closest pair (gap exactly 1) is not always (0, 1)
        st = straight(positions)
        assert min_separation(st) == 1.0
        with pytest.raises(CollisionError):
            kmd_rhs(st, collision_threshold=np.nextafter(1.0, 2.0))
        rhs = kmd_rhs(st, collision_threshold=1.0)
        assert np.all(np.isfinite(rhs.view(float)))


class TestStep:
    def test_straight_single_filament_fixed_point(self):
        st = straight([0.7 + 0.2j])
        out = step(st, 0.01)
        assert np.max(np.abs(out.positions - st.positions)) < 1e-15

    def test_linear_flow_exact_phase(self):
        m = 64
        s = np.arange(m) * 2 * np.pi / m
        st = FilamentEnsemble(
            positions=(0.1 * np.exp(1j * s))[None, :],
            circulations=np.array([2.0]),
            core_constants=np.array([1.0]),
            axial_period=2 * np.pi,
        )
        out = step(st, 0.01)
        exact = 0.1 * np.exp(1j * s) * np.exp(-0.02j)
        assert np.max(np.abs(out.positions[0] - exact)) < 1e-14

    def test_polygon_single_step_phase_advance(self):
        st = polygon()
        dt = 1e-3
        out = step(st, dt)
        assert np.max(np.abs(np.abs(out.positions) - 1.0)) < 1e-12
        adv = np.angle(out.positions / st.positions)
        assert np.max(np.abs(adv - 4.0 * dt)) < 10.0 * dt**3

    def test_spectral_amplitude_conservation(self):
        # the linear half-steps are unitary per Fourier mode
        m = 64
        s = np.arange(m) * 2 * np.pi / m
        pos = (0.3 * np.exp(1j * s) + 0.05 * np.exp(-3j * s))[None, :]
        st = FilamentEnsemble(pos, np.array([2.0]), np.array([1.0]), 2 * np.pi)
        out = step(st, 0.37)
        amp0 = np.abs(np.fft.fft(st.positions[0]))
        amp1 = np.abs(np.fft.fft(out.positions[0]))
        assert np.max(np.abs(amp0 - amp1)) < 1e-12


class TestSimulate:
    def test_snapshot_count(self):
        st = polygon()
        traj = simulate(st, 10e-3, 1e-3, stride=1)
        assert len(traj.snapshots) == 11

    @pytest.mark.parametrize("t_final,dt,stride", [
        (0.1, 1e-3, 7), (0.10005, 1e-3, 10), (0.1, 0.2, 1), (0.1, 1e-3, 0),
    ])
    def test_step_count_errors_raise_before_stepping(self, t_final, dt, stride):
        with pytest.raises(ValueError):
            step_count(t_final, dt, stride)
        with pytest.raises(ValueError):
            simulate(polygon(), t_final, dt, stride=stride)

    def test_polygon_phase_short_run(self):
        st = polygon()
        traj = simulate(st, 0.1, 1e-3, stride=10)
        ph = np.unwrap([np.angle(s.positions[0, 0]) for s in traj.snapshots])
        speed = (ph[-1] - ph[0]) / (traj.times[-1] - traj.times[0])
        assert abs(speed - 4.0) < 1e-9

    def test_two_vortex_distance_conserved(self):
        st = straight([0.5, -0.5])
        traj = simulate(st, 1.0, 1e-3, stride=100)
        dist = [abs(s.positions[0, 0] - s.positions[1, 0]) for s in traj.snapshots]
        assert max(abs(d - 1.0) for d in dist) < 1e-8
        # brute-force fine-step reference agrees with the coarse run
        ref = simulate(st, 0.1, 1e-4, stride=1000)
        coarse = simulate(st, 0.1, 1e-3, stride=100)
        err = np.max(np.abs(ref.snapshots[-1].positions - coarse.snapshots[-1].positions))
        assert err < 1e-10

    def test_radius_invariant_on_polygon(self):
        st = polygon()
        traj = simulate(st, 1.0, 1e-3, stride=100)
        assert max(
            abs(np.max(np.abs(s.positions)) - 1.0) for s in traj.snapshots
        ) < 1e-8


class TestGalilean:
    def test_zero_boost_is_identity(self):
        st = polygon()
        out = galilean_transform(st, 0.0, 2.0)
        assert np.max(np.abs(out.positions - st.positions)) == 0.0

    def test_polygon_becomes_helix_family(self):
        tr = sampled_trajectory(
            HelixConfig(1.0, 1.0, 3, HelixVariant.STRAIGHT_POLYGON),
            1e-3, 4, modes=64,
        )
        boosted = galilean_transform(tr, 1.0, 2.0)
        ref = sampled_trajectory(
            HelixConfig(1.0, 1.0, 3, HelixVariant.POLYGON_HELIX),
            1e-3, 4, modes=64,
        )
        for a, b in zip(boosted.snapshots, ref.snapshots):
            assert np.max(np.abs(a.positions - b.positions)) < 1e-12

    def test_residual_of_boosted_trajectory(self):
        cfg = HelixConfig(1.0, 1.0, 3, HelixVariant.STRAIGHT_POLYGON)
        tr = sampled_trajectory(cfg, 1e-4, 5, modes=64)
        res0 = kmd_residual(tr)
        res1 = kmd_residual(galilean_transform(tr, 1.0, 2.0))
        assert res1 <= 2.0 * res0 + 1e-12

    def test_roundtrip_at_t0(self):
        st = polygon()
        rt = galilean_transform(galilean_transform(st, 1.0, 2.0), -1.0, 2.0)
        assert np.max(np.abs(rt.positions - st.positions)) < 1e-14

    def test_mismatched_core_coefficient_rejected(self):
        st = FilamentEnsemble(
            np.vstack([np.full(64, 0.5 + 0j), np.full(64, -0.5 + 0j)]),
            np.array([2.0, 3.0]), np.array([1.0, 1.0]), 2 * np.pi,
        )
        with pytest.raises(InvalidTransform):
            galilean_transform(st, 1.0, 2.0)

    def test_off_grid_wavenumber_rejected(self):
        st = polygon()
        with pytest.raises(InvalidTransform):
            galilean_transform(st, 0.5, 2.0)   # half a grid mode


class TestDiagnostics:
    def test_center_of_vorticity_symmetric_cases(self):
        assert abs(center_of_vorticity(polygon())) < 5e-15
        assert abs(center_of_vorticity(straight([0.5, -0.5]))) < 5e-15

    def test_center_of_vorticity_drift(self):
        st = polygon()
        traj = simulate(st, 1.0, 1e-3, stride=100)
        drift = max(abs(center_of_vorticity(s)) for s in traj.snapshots)
        assert drift < 1e-10

    def test_min_separation(self):
        assert min_separation(polygon(4)) == pytest.approx(np.sqrt(2.0), abs=1e-14)
        assert min_separation(straight([0.3])) == np.inf
        assert min_separation(straight([0.5, -0.5])) == pytest.approx(1.0)


class TestResidual:
    def test_helix_family_residual_small(self):
        cfg = HelixConfig(1.0, 1.0, 3, HelixVariant.POLYGON_HELIX)
        res = kmd_residual(sampled_trajectory(cfg, 1e-4, 5, modes=128))
        assert res < 2e-8

    def test_stationary_helix_spectral_tail_only(self):
        cfg = HelixConfig(np.sqrt(2.0), 1.0, 3, HelixVariant.POLYGON_HELIX)
        res = kmd_residual(sampled_trajectory(cfg, 1e-4, 5, modes=64))
        assert res < 1e-10

    def test_perturbed_polygon_is_not_a_solution(self):
        st = polygon()
        pos = st.positions.copy()
        pos[0] *= 1.05
        from helix_kmd.filaments import Trajectory

        snaps = [st.with_positions(pos, k * 1e-3) for k in range(3)]
        traj = Trajectory(snapshots=snaps, dt=1e-3)
        # static non-equilibrium state: d/dt = 0 but rhs = O(1)
        assert kmd_residual(traj) > 0.1

    def test_dt_halving_order(self):
        for variant, r in [
            (HelixVariant.POLYGON_HELIX, 1.0),
            (HelixVariant.POLYGON_WITH_CENTER, 1.0),
            (HelixVariant.STRAIGHT_POLYGON, 1.0),
        ]:
            cfg = HelixConfig(r, 1.0, 3, variant)
            r1 = kmd_residual(sampled_trajectory(cfg, 2e-4, 5, modes=64))
            r2 = kmd_residual(sampled_trajectory(cfg, 1e-4, 5, modes=64))
            if r1 > 1e-12:
                order = np.log2(r1 / r2)
                assert order > 1.9
