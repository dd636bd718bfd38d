"""120-digit oracle for the deep-core residual.

`inner_residual_scaled` assembles (eps mu)^2 S near vertex 1 from exact
difference formulas, so that the mu relation cancels symbolically.  The
oracle below evaluates the same quantity directly, with no difference
formula, in mpmath at 120 digits:

    (eps mu)^2 S(x) = (eps mu)^2 [sum_j a (-8 + kE z_j1)/(a + |z_j|^2)^2
                                  + eps^2 eta(s) e^s],
    s(x) = sum_j Psi(z_j) + grad H2(P_1) . (x - P_1) - (alpha/2)|log eps| |x|^2,

at x = P_1 + eps mu M_1 y, z_j = M_j^-1 (x - P_j), a = (eps mu)^2, with H2
linearized at its zero P_1 as the library does.  log mu solves the mu
relation at vertex 1 in mpmath; it is not taken from the float context,
whose root closes the float64 relation to rounding, about 1e-15, still
far above the 1e-30 relative size of the residual at e^-80.  The float
context supplies only exact binaries: the frames, c1, c2, kH, kE, alpha,
d_eps and the H2 gradient.  The H2 solve itself is not under test here.
"""

import math

import mpmath
import numpy as np
import pytest

from helix_kmd.stream import inner_residual_scaled

DPS = 120
# |y| from 0 to 4, angles spread over the circle
Y = np.array([[r * math.cos(0.7 * k), r * math.sin(0.7 * k)]
              for k, r in enumerate(np.linspace(0.0, 4.0, 10))])


def _profile(z, a, prof):
    """Psi(z) = Gamma_em q + kH W(|z|^2) Re z^3 in closed form."""
    z1, z2 = z
    v = z1 * z1 + z2 * z2
    gam = mpmath.log(8) - 2 * mpmath.log(a + v)
    q = 1 + prof.c1 * z1 + prof.c2 * v
    t = v / a
    if t == 0:
        w0 = mpmath.mpf(1)
    else:
        s1 = (mpmath.mpf(0.5) / t - 2 / t**2 + 3 * mpmath.log1p(t) / t**3
              - 1 / (t * t * (1 + t)))
        w0 = 1 / (1 + t) + s1
    return gam * q + prof.kH * w0 / (12 * a) * (z1**3 - 3 * z1 * z2**2)


def _oracle(ctx, y):
    """(eps mu)^2 S at P_1 + eps mu M_1 y for the rows of y, in mpmath."""
    with mpmath.workdps(DPS):
        mpf = mpmath.mpf
        prof = ctx.profile
        frames = [(mpmath.matrix(f.P.tolist()), mpmath.matrix(f.Mj.tolist()),
                   mpmath.matrix(f.Mj_inv.tolist())) for f in ctx.frames]
        p1, m1, _ = frames[0]
        eps = mpf(ctx.eps)
        abs_log = -mpmath.log(eps)
        alpha = mpf(ctx.alpha)

        def rot(x):                                # (alpha/2)|log eps| |x|^2
            return alpha / 2 * abs_log * (x[0] ** 2 + x[1] ** 2)

        # mu relation at vertex 1: 2 log mu = sum_{j>1} Psi(z_j(P_1)) - rot(P_1)
        log_mu = mpf(ctx.log_mu)
        for _ in range(8):
            a = (eps * mpmath.exp(log_mu)) ** 2
            far = sum(_profile(mi * (p1 - p), a, prof) for p, _, mi in frames[1:])
            log_mu = (far - rot(p1)) / 2
        em = eps * mpmath.exp(log_mu)
        a = em * em
        lo = 2 * mpmath.log(abs_log) + 2 * log_mu + mpmath.log(8) + mpf(ctx.d_eps)
        grad = mpmath.matrix(ctx.h2_grad.tolist())
        out = []
        for row in y:
            dx = em * (m1 * mpmath.matrix(row.tolist()))
            x = p1 + dx
            zs = [mi * (x - p) for p, _, mi in frames]
            s = sum(_profile(z, a, prof) for z in zs) + (grad.T * dx)[0] - rot(x)
            t = min(max((s - lo) / mpf(ctx.d_eps), 0), 1)
            eta = t**3 * (10 + t * (-15 + 6 * t))
            conc = sum(a * (-8 + prof.kE * z[0]) / (a + z[0] ** 2 + z[1] ** 2) ** 2
                       for z in zs)
            out.append(float(a * (conc + eps * eps * eta * mpmath.exp(s))))
    return np.array(out)


@pytest.mark.parametrize("exponent,bound", [
    # at e^-10 the gap is the second-order Taylor step of the H1 increment
    # in LocalProfile.delta_value (2.9e-7 measured)
    (10.0, 1e-6),
    (20.0, 1e-11),
    (40.0, 1e-11),
    (80.0, 1e-11),
])
def test_scaled_residual_matches_oracle(ctx_cache, exponent, bound):
    ctx = ctx_cache(exponent, alpha=-1.0)
    ref = _oracle(ctx, Y)
    got = inner_residual_scaled(Y, ctx)
    assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))
