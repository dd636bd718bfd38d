import numpy as np
import pytest
from scipy.integrate import quad

from helix_kmd.elliptic import PolarGridSpec, solve_k_poisson
from helix_kmd.errors import SolverDivergence


def half(g):
    """The half-sector columns of full-grid samples of an even source (N = 1)."""
    return g[:, : g.shape[1] // 2 + 1]


@pytest.fixture(scope="module")
def spec():
    return PolarGridSpec(rho_min=1e-6, rho_max=20.0, n_radial=512, n_angular=256)


class TestNonFiniteSource:
    def test_raises_solver_divergence(self, spec):
        g = np.zeros((spec.n_radial, spec.n_angular // 2 + 1))
        g[100, 3] = np.nan
        with pytest.raises(SolverDivergence):
            solve_k_poisson(g, spec, 1.0, 1)


class TestRadialSource:
    def test_against_quadrature_oracle(self, spec):
        # radial problem integrates exactly: rho beta H' = -G(rho)
        h = 1.0
        g0 = lambda rr: 2.0 * np.exp(-4.0 * (rr - 0.3) ** 2)
        G = lambda rr: quad(lambda t: g0(t) * t, 0, rr, limit=200)[0]
        beta = lambda rr: h * h / (h * h + rr * rr)

        def oracle(rr):
            val, _ = quad(lambda t: G(t) / (t * beta(t)), 1e-6, rr, limit=200)
            return -val

        rho = spec.radial_nodes()
        g = np.broadcast_to(g0(rho)[:, None], (spec.n_radial, spec.n_angular)).copy()
        anchor = np.array([0.316, 0.0])
        field = solve_k_poisson(half(g), spec, h, 1, anchor=anchor)
        base = oracle(0.316)
        for rr in (0.05, 0.7, 2.0, 10.0):
            got = float(field.value(np.array([rr, 0.0])))
            assert got == pytest.approx(oracle(rr) - base, abs=5e-6)

    def test_flux_matches_source_integral(self, spec):
        h = 1.0
        rho = spec.radial_nodes()
        g0 = 2.0 * np.exp(-4.0 * (rho - 0.3) ** 2)
        g = np.broadcast_to(g0[:, None], (spec.n_radial, spec.n_angular)).copy()
        field = solve_k_poisson(half(g), spec, h, 1)
        total, _ = quad(lambda t: 2 * np.pi * 2.0 * np.exp(-4 * (t - 0.3) ** 2) * t,
                        0, 20.0, limit=200)
        assert field.flux == pytest.approx(total, rel=1e-8)

    def test_far_field_continuation_smooth(self, spec):
        h = 1.0
        rho = spec.radial_nodes()
        g0 = 2.0 * np.exp(-4.0 * (rho - 0.3) ** 2)
        g = np.broadcast_to(g0[:, None], (spec.n_radial, spec.n_angular)).copy()
        field = solve_k_poisson(half(g), spec, h, 1)
        vals = [float(field.value(np.array([rr, 0.0])))
                for rr in (19.999, 20.0, 20.001)]
        # C^1 match at the rim: the centered second difference stays tiny
        # while the field itself moves by slope ~ flux (h^2+rho^2)/(2 pi rho)
        assert abs(vals[0] - 2 * vals[1] + vals[2]) < 1e-3
        slope = (vals[2] - vals[0]) / 0.002
        expected = -field.flux * (h * h + 400.0) / (2 * np.pi * 20.0)
        assert slope == pytest.approx(expected, rel=1e-3)


class TestManufacturedMode:
    def test_mode3_solution(self, spec):
        h = 1.0
        k = 3
        f = lambda rr: rr**3 * np.exp(-2.0 * rr * rr)
        beta = lambda rr: h * h / (h * h + rr * rr)

        def Lf(rr):
            d = 1e-6
            fp = (f(rr + d) - f(rr - d)) / (2 * d)
            fpp = (f(rr + d) - 2 * f(rr) + f(rr - d)) / d**2
            bp = -2.0 * rr * h * h / (h * h + rr * rr) ** 2
            return beta(rr) * fpp + (beta(rr) / rr + bp) * fp - k * k * f(rr) / rr**2

        rho = spec.radial_nodes()
        theta = spec.theta_nodes()
        g = -np.array([Lf(rr) for rr in rho])[:, None] * np.cos(k * theta)[None, :]
        field = solve_k_poisson(half(g), spec, h, 1)
        rtest = np.array([0.3, 0.8, 2.0])
        pts = np.stack([rtest * np.cos(0.7), rtest * np.sin(0.7)], axis=-1)
        pred = f(rtest) * np.cos(k * 0.7)
        got = field.value(pts)
        assert np.max(np.abs(got - pred) / np.abs(pred)) < 1e-4

    def test_highest_mode_of_odd_grid(self):
        # k = 12 is the Nyquist mode of 24 angles but an ordinary mode of
        # 25 and 50, where it carries twice the Nyquist weight
        values = []
        for nt in (25, 50):
            spec = PolarGridSpec(n_radial=128, n_angular=nt)
            rho = spec.radial_nodes()[:, None]
            g = np.exp(-rho**2 / 0.1) * np.cos(12.0 * spec.theta_nodes())[None, :]
            field = solve_k_poisson(half(g), spec, 1.0, 1)
            assert 12 in field._k
            values.append(field.value(np.array([[0.1 * np.cos(0.3), 0.1 * np.sin(0.3)]])))
        assert values[0] == pytest.approx(values[1], rel=1e-10)

    def test_gradient_matches_fd(self, spec, rng):
        h = 1.0
        rho = spec.radial_nodes()
        theta = spec.theta_nodes()
        g = np.exp(-2 * (rho[:, None] - 0.5) ** 2) * (1 + 0.3 * np.cos(2 * theta))
        field = solve_k_poisson(half(g), spec, h, 1)
        for x0 in (np.array([0.4, 0.25]), np.array([3.0, -1.0])):
            d = 1e-5
            fd = np.array([
                (field.value(x0 + np.eye(2)[i] * d)
                 - field.value(x0 - np.eye(2)[i] * d)) / (2 * d)
                for i in range(2)
            ])
            assert np.max(np.abs(field.gradient(x0) - fd)) < 1e-7
