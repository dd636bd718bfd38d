import math

import numpy as np
import pytest
from scipy.integrate import quad

from helix_kmd.liouville import (
    LocalProfile,
    _h1_weights,
    c_coefficients,
    liouville_density,
    liouville_unit,
)


def gamma_em(z, eps, mu):
    """Gamma_em(z) = log 8 - 2 log((eps mu)^2 + |z|^2): the profile at R = 0."""
    return LocalProfile(eps, mu, 0.0, 1.0).value(z)


def h1_profile(rho, eps, mu):
    """Radial third-harmonic profile h1(r) = r^3 W(r^2), H1 = h1(|z|) cos(3 theta)."""
    rho = np.asarray(rho, dtype=float)
    return rho**3 * _h1_weights(rho * rho, (eps * mu) ** 2)[0]


class TestProfiles:
    def test_unit_profile_at_origin(self):
        assert liouville_unit(np.zeros(2)) == pytest.approx(math.log(8.0))

    def test_scaled_profile_solves_liouville(self, rng):
        # FD Laplacian of Gamma_em plus (eps mu)^2 exp(Gamma_em) vanishes
        eps, mu = 1e-2, 3.0
        z = rng.normal(size=(20, 2)) * 0.5
        d = 1e-3
        e1, e2 = np.array([d, 0.0]), np.array([0.0, d])
        lap = np.zeros(len(z))
        for e in (e1, e2):
            lap += (
                -gamma_em(z + 2 * e, eps, mu)
                + 16 * gamma_em(z + e, eps, mu)
                - 30 * gamma_em(z, eps, mu)
                + 16 * gamma_em(z - e, eps, mu)
                - gamma_em(z - 2 * e, eps, mu)
            ) / (12 * d * d)
        res = lap + (eps * mu) ** 2 * np.exp(gamma_em(z, eps, mu))
        assert np.max(np.abs(res)) < 1e-6

    def test_unit_mass(self):
        val, err = quad(lambda s: math.pi * 8.0 / (1.0 + s) ** 2, 0.0, np.inf,
                        epsabs=1e-12)
        assert abs(val - 8.0 * math.pi) < 1e-6
        # and the density helper agrees with exp(Gamma)
        y = np.array([[0.3, -1.2]])
        assert liouville_density(y) == pytest.approx(np.exp(liouville_unit(y)))


class TestCorrectionCoefficients:
    def test_degenerate_radius(self):
        assert c_coefficients(0.0, 1.0) == (0.0, 0.0)

    def test_hand_values(self):
        c1, c2 = c_coefficients(1.0, 1.0)
        assert c1 == pytest.approx(2.0 ** (-2.5), abs=1e-16)
        assert c2 == pytest.approx(1.0 / 16.0, abs=1e-16)

    def test_c1_maximizer(self):
        # calculus oracle: d/dR [R/(h^2+R^2)^{3/2}] = 0 at R = h/sqrt(2);
        # confirmed by a 1-D scan
        h = 1.3
        rr = np.linspace(0.05, 3.0, 4001)
        c1 = np.array([c_coefficients(R, h)[0] for R in rr])
        r_scan = rr[np.argmax(c1)]
        assert r_scan == pytest.approx(h / math.sqrt(2.0), abs=2e-3)


class TestThirdHarmonic:
    def test_regular_at_origin(self):
        assert h1_profile(np.array(0.0), 1e-3, 1.0) == 0.0

    def test_linear_bound(self):
        # |h1| <= C rho uniformly; the fitted constant approaches 1/8
        rho = np.linspace(1e-4, 0.4, 500)
        for em in (1e-2, 1e-8, 1e-20):
            vals = h1_profile(rho, em, 1.0)
            c_fit = np.max(np.abs(vals) / rho)
            assert c_fit <= 0.130

    def test_radial_ode_residual(self):
        # FD check of h1'' + h1'/rho - 9 h1/rho^2 = -rho^3/(a+rho^2)^2
        eps, mu = 1e-3, 2.0
        a = (eps * mu) ** 2
        rho = np.linspace(0.05, 0.5, 40)
        d = 1e-3
        h0 = h1_profile(rho, eps, mu)
        hp = (h1_profile(rho + d, eps, mu) - h1_profile(rho - d, eps, mu)) / (2 * d)
        hpp = (
            h1_profile(rho + d, eps, mu)
            - 2 * h0
            + h1_profile(rho - d, eps, mu)
        ) / d**2
        res = hpp + hp / rho - 9.0 * h0 / rho**2 + rho**3 / (a + rho**2) ** 2
        assert np.max(np.abs(res)) < 1e-5

    def test_angular_structure(self):
        # the profile's H1 block W(|z|^2) Re(z^3) is h1(|z|) cos(3 theta)
        eps, mu = 1e-4, 1.0
        theta = 0.7
        z = 0.3 * np.array([math.cos(theta), math.sin(theta)])
        expected = h1_profile(np.array(0.3), eps, mu) * math.cos(3 * theta)
        t = LocalProfile(eps, mu, 0.3, 1.0)._terms(z, derivatives=False)
        assert t.W * t.p3 == pytest.approx(float(expected), rel=1e-12)


class TestLocalProfile:
    def test_value_at_origin(self):
        prof = LocalProfile(1e-3, 2.0, 0.3, 1.0)
        em = 1e-3 * 2.0
        assert prof.value(np.zeros(2)) == pytest.approx(math.log(8.0 / em**4))

    def test_degenerate_radius_reduces_to_bubble(self, rng):
        prof = LocalProfile(1e-3, 1.0, 0.0, 1.0)
        z = rng.normal(size=(10, 2)) * 0.3
        v = np.einsum("...i,...i->...", z, z)
        closed = np.log(8.0) - 2.0 * np.log((1e-3 * 1.0) ** 2 + v)
        assert np.max(np.abs(prof.value(z) - closed)) == 0.0

    def test_gradient_and_hessian_consistency(self, rng):
        prof = LocalProfile(1e-2, 1.0, 0.35, 1.2)
        z = rng.normal(size=(10, 2)) * 0.3
        d = 1e-6
        for k in range(2):
            e = np.zeros(2)
            e[k] = d
            fd = (prof.value(z + e) - prof.value(z - e)) / (2 * d)
            assert np.max(np.abs(fd - prof.grad(z)[:, k])) < 1e-7
        tr = np.trace(prof.hess(z), axis1=-2, axis2=-1)
        assert np.max(np.abs(tr - prof.laplacian(z))) < 1e-11

    def test_stable_increment_matches_direct(self, rng):
        prof = LocalProfile(1e-3, 1.0, 0.3, 1.0)
        z0 = rng.normal(size=(10, 2)) * 0.3
        dz = rng.normal(size=(10, 2)) * 1e-5
        direct = prof.value(z0 + dz) - prof.value(z0)
        stable = prof.delta_value(z0, dz)
        assert np.max(np.abs(direct - stable)) < 1e-11
