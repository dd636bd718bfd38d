"""Properties of the stream construction over random admissible geometries.

Each example draws (eps, r, h, N, alpha) with N in 2..5, r/sqrt|log eps|
inside the cutoff and alpha inside the admissible band around the leading
speed, and builds its context on a coarse polar grid (the properties do
not depend on the H2 resolution).  Draws are derandomized, so a run does
not depend on the test order or on a stored example database.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helix_kmd.configurations import (
    KAPPA,
    HelixConfig,
    HelixVariant,
    sampled_trajectory,
    theorem_alpha,
)
from helix_kmd.elliptic import PolarGridSpec
from helix_kmd.errors import DegenerateConfig
from helix_kmd.filaments import galilean_transform
from helix_kmd.screw_operator import (
    _dot2,
    _mat2,
    change_from_local,
    change_to_local,
    local_frame,
)
from helix_kmd.stream import (
    _nearest_inner_coords,
    build_context,
    error_g,
    mu_relation_rhs,
    psi0_sum,
)

# n_angular = 60 is a multiple of lcm(2, N) for every N in 2..5
GRID = PolarGridSpec(n_radial=64, n_angular=60)
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)


@st.composite
def geometries(draw):
    """(eps, r, h, n, alpha) inside every band checked before mu is solved."""
    n = draw(st.integers(2, 5))
    exponent = draw(st.floats(10.0, 80.0))
    r = draw(st.floats(0.5, min(2.0, 0.449 * math.sqrt(exponent))))
    h = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    band = max(10.0, 4.0 * abs(theorem_alpha(r, h, n, HelixVariant.POLYGON_HELIX)) + 4.0)
    alpha = draw(st.floats(-band, band))
    return math.exp(-exponent), r, h, n, alpha


def _context(geometry):
    eps, r, h, n, alpha = geometry
    try:
        return build_context(eps, r, h, n, alpha=alpha, grid=GRID)
    except DegenerateConfig as err:
        # the mu band is known only once mu is solved: such draws are not
        # admissible, every other rejection is a failure
        assume("mu escaped" not in str(err))
        raise


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _points(data, ctx, size=120):
    """Points of the gluing disk at least 0.02 from every vertex."""
    seed = data.draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).uniform(-0.95, 0.95, size=(size, 2))
    gap = np.min(np.linalg.norm(x[:, None] - ctx.vertices[None], axis=-1), axis=1)
    return x[(gap > 0.02) & (np.hypot(x[:, 0], x[:, 1]) < 0.98)]


@PROPERTY
@given(geometry=geometries(), data=st.data())
def test_dihedral_invariance_and_mu_relation(geometry, data):
    ctx = _context(geometry)
    x = _points(data, ctx)
    # rotation by 2 pi/N and the reflection through P_1; points off the
    # vertices, where rounding the rotated point costs ~1e-16 |grad|
    moved = (x @ _rotation(2.0 * math.pi / ctx.n).T, x * [1.0, -1.0])
    for field in (lambda p: psi0_sum(p, ctx), lambda p: error_g(p, ctx.profile, ctx.frames)):
        base = field(x)
        for xm in moved:
            assert np.max(np.abs(field(xm) - base)) <= 1e-12 * max(1.0, np.max(np.abs(base)))
    rhs = [mu_relation_rhs(ctx, i) for i in range(1, ctx.n + 1)]
    assert max(rhs) - min(rhs) < 1e-12
    # solve_mu closes the relation it solves
    assert abs(2.0 * ctx.log_mu - rhs[0]) <= 1e-13


@PROPERTY
@given(geometry=geometries(), data=st.data())
def test_frame_round_trip(geometry, data):
    eps, r, h, n, _ = geometry
    R = r / math.sqrt(-math.log(eps))
    seed = data.draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(50, 2))
    for j in range(1, n + 1):
        f = local_frame(j, n, R, h)
        assert np.allclose(f.Mj @ f.Mj_inv, np.eye(2), rtol=0.0, atol=1e-14)
        assert np.allclose(change_from_local(change_to_local(x, f), f), x, rtol=0.0, atol=1e-14)
        z = change_to_local(x, f)
        assert np.allclose(change_to_local(change_from_local(z, f), f), z, rtol=0.0,
                           atol=1e-14 * np.max(np.abs(z)))


def _nearest_reference(frames, eps_mu, x):
    """One point and one frame at a time; the lowest index wins a tie."""
    idx = np.empty(len(x), dtype=int)
    y = np.empty_like(x)
    for p, xp in enumerate(x):
        zs = [change_to_local(xp, f) for f in frames]
        norms = [z[0] * z[0] + z[1] * z[1] for z in zs]
        idx[p] = min(range(len(zs)), key=lambda k: (norms[k], k))
        y[p] = zs[idx[p]] / eps_mu
    return y, idx


@PROPERTY
@given(geometry=geometries(), data=st.data())
def test_nearest_inner_coords_match_brute_force(geometry, data):
    eps, r, h, n, _ = geometry
    R = r / math.sqrt(-math.log(eps))
    frames = tuple(local_frame(j, n, R, h) for j in range(1, n + 1))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.uniform(-1.0, 1.0, size=(40, 2)),
                        frames[-1].P + 1e-3 * rng.normal(size=(10, 2))])
    # a repeated frame ties with its copy at every point
    for fr in (frames, frames[-1:] + frames):
        ctx = SimpleNamespace(frames=fr, eps_mu=1e-3 * eps)
        y, idx = _nearest_inner_coords(ctx, x)
        y_ref, idx_ref = _nearest_reference(fr, ctx.eps_mu, x)
        assert np.array_equal(idx, idx_ref)
        assert np.array_equal(y, y_ref)


@PROPERTY
@given(r=st.floats(0.3, 3.0), n=st.integers(2, 5),
       h=st.floats(0.5, 2.0) | st.floats(-2.0, -0.5))
def test_galilean_boost_maps_polygon_to_helix(r, n, h):
    # the boost with nu = 1/h (one axial mode of the period 2 pi |h|) turns
    # the straight polygon's exact trajectory into the polygon of helices'
    polygon = HelixConfig(r, h, n, 0.0, HelixVariant.STRAIGHT_POLYGON)
    helix = HelixConfig(r, h, n, 1.0 / h, HelixVariant.POLYGON_HELIX)
    boosted = galilean_transform(sampled_trajectory(polygon, 1e-3, 4, modes=64),
                                 1.0 / h, KAPPA)
    ref = sampled_trajectory(helix, 1e-3, 4, modes=64)
    scale = max(float(np.max(np.abs(s.positions))) for s in ref.snapshots)
    for a, b in zip(boosted.snapshots, ref.snapshots):
        assert np.max(np.abs(a.positions - b.positions)) <= 1e-12 * scale


# zero and either sign between 1e-30 and 1e30: sums of products that far
# apart in size are where a different summation order would round differently
_SPREAD = (st.just(0.0) | st.floats(1e-30, 1e30) | st.floats(-1e30, -1e-30))


def _vectors(shape):
    return hnp.arrays(float, shape + (2,), elements=_SPREAD)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(shape=hnp.array_shapes(min_dims=0, max_dims=2, max_side=6), data=st.data())
def test_two_vector_helpers_equal_einsum(shape, data):
    # bit for bit: a numpy whose einsum fused or reordered these sums would
    # fail here, where it would otherwise move the artifacts.  Only the sign
    # of an exact zero may differ (einsum adds into a +0 accumulator, so
    # -0 * 1 + -0 * 1 is +0 there), which array_equal does not see.
    a, b = data.draw(_vectors(shape)), data.draw(_vectors(shape))
    M = data.draw(hnp.arrays(float, (2, 2), elements=_SPREAD))
    for new, ref in [(_dot2(a, b), np.einsum("...i,...i->...", a, b)),
                     (_dot2(M[0], b), np.einsum("i,...i->...", M[0], b)),
                     (_mat2(M, b), np.einsum("ij,...j->...i", M, b)),
                     (_mat2(M.T, b), np.einsum("ji,...j->...i", M, b))]:
        assert new.shape == ref.shape and np.array_equal(new, ref)


@pytest.mark.parametrize("kind", ["eps", "r", "h", "n", "radius", "alpha", "delta"])
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(geometry=geometries(), excess=st.floats(0.01, 2.0))
def test_out_of_band_input_raises(kind, geometry, excess):
    eps, r, h, n, alpha = geometry
    delta = None
    edge = min(0.5 * math.sin(math.pi / n), 0.5)        # delta's upper edge, r0/4
    if kind == "eps":
        eps = math.exp(-1.0 + excess / 2.0)
    elif kind == "r":
        r = -excess
    elif kind == "h":
        h = 0.0
    elif kind == "n":
        n = 1 - int(excess)
    elif kind == "radius":
        r = 0.45 * math.sqrt(-math.log(eps)) * (1.0 + excess)
    elif kind == "alpha":
        band = max(10.0, 4.0 * abs(theorem_alpha(r, h, n, HelixVariant.POLYGON_HELIX)) + 4.0)
        alpha = math.copysign(band * (1.0 + excess), alpha)
    else:
        delta = edge * (1.0 + excess)
    with pytest.raises(DegenerateConfig):
        build_context(eps, r, h, n, alpha=alpha, delta=delta, grid=GRID)
