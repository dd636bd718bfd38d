"""Properties of the stream construction over random admissible geometries.

Each example draws (eps, r, h, N, alpha) with N in 2..5 (2..6 for the
symmetry-cell samplers), r/sqrt|log eps| inside the cutoff and alpha
inside the admissible band around the leading speed, and builds its
context on a coarse polar grid (the properties do not depend on the H2
resolution).  Draws are derandomized, so a run does not depend on the
test order or on a stored example database.
"""

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helix_kmd import liouville, stream
from helix_kmd.configurations import (
    KAPPA,
    HelixConfig,
    HelixVariant,
    sampled_trajectory,
    theorem_alpha,
)
from helix_kmd.elliptic import PolarGridSpec
from helix_kmd.errors import DegenerateConfig, NonFiniteError, QuadratureFailure
from helix_kmd.filaments import galilean_transform
from helix_kmd.screw_operator import (
    _dot2,
    _mat2,
    b_operator,
    change_from_local,
    change_to_local,
    local_frame,
)
from helix_kmd.stream import (
    UY1Z1,
    _polar_gauss_rule,
    b_eps_bound_check,
    build_context,
    calA,
    error_g,
    inner_residual_norm,
    inner_residual_scaled,
    mu_relation_rhs,
    outer_residual_norm,
    psi0_sum,
    residual_S,
)

# n_angular = 60 is a multiple of lcm(2, N) for every N in 2..6
GRID = PolarGridSpec(n_radial=64, n_angular=60)
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)


@st.composite
def geometries(draw, n_max=5):
    """(eps, r, h, n, alpha) inside every band checked before mu is solved."""
    n = draw(st.integers(2, n_max))
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
    vertices = np.array([f.P for f in ctx.frames])
    gap = np.min(np.linalg.norm(x[:, None] - vertices[None], axis=-1), axis=1)
    return x[(gap > 0.02) & (np.hypot(x[:, 0], x[:, 1]) < 0.98)]


@PROPERTY
@given(geometry=geometries(), data=st.data())
def test_dihedral_invariance_and_mu_relation(geometry, data):
    ctx = _context(geometry)
    x = _points(data, ctx)
    # rotation by 2 pi/N and the reflection through P_1; points off the
    # vertices, where rounding the rotated point costs ~1e-16 |grad|
    moved = (x @ _rotation(2.0 * math.pi / ctx.n).T, x * [1.0, -1.0])
    for field in (lambda p: psi0_sum(p, ctx), lambda p: error_g(p, ctx.core)):
        base = field(x)
        for xm in moved:
            assert np.max(np.abs(field(xm) - base)) <= 1e-12 * max(1.0, np.max(np.abs(base)))
    rhs = [mu_relation_rhs(ctx, i) for i in range(1, ctx.n + 1)]
    assert max(rhs) - min(rhs) < 1e-12
    # vertex_core closes the relation it solves
    assert abs(2.0 * ctx.core.log_mu - rhs[0]) <= 1e-13


@PROPERTY
@given(geometry=geometries(n_max=6), data=st.data())
def test_b_operator_is_the_same_in_every_polygon_frame(geometry, data):
    # b_coefficients reads only R and h, which every polygon frame shares, so
    # error_g may pass each vertex its own frame and keep every byte
    eps, r, h, n, _ = geometry
    R = r / math.sqrt(-math.log(eps))
    frames = [local_frame(j, n, R, h) for j in range(1, n + 1)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=(40, 2)) * np.exp(rng.uniform(-30.0, 0.0, (40, 1)))
    grad, hess = rng.normal(size=(40, 2)), rng.normal(size=(40, 2, 2))
    ref = b_operator(frames[0], z, grad, hess)
    for f in frames[1:]:
        assert np.array_equal(b_operator(f, z, grad, hess), ref)


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


# -- every vertex core is a rotated copy of vertex 1's -----------------------

def _far_tables_ref(frames):
    """Every vertex's tables: z0[i][j] = M_j^-1 (P_i - P_j), D[i][j] = M_j^-1 M_i."""
    n = len(frames)
    z0 = np.empty((n, n - 1, 2))
    dd = np.empty((n, n - 1, 2, 2))
    for i, fi in enumerate(frames):
        others = [f for f in frames if f.j != fi.j]
        for col, fj in enumerate(others):
            z0[i, col] = fj.Mj_inv @ (fi.P - fj.P)
            dd[i, col] = fj.Mj_inv @ fi.Mj
    return z0, dd


def _inner_terms_ref(y, ctx, vertex):
    """stream._inner_terms assembled at any vertex i, from that vertex's own
    frame, far tables and H2 gradient: (ds, U(y), s) at x = P_i + eps mu M_i y."""
    i = vertex - 1
    f = ctx.frames[i]
    prof, em = ctx.core.profile, ctx.eps_mu
    yn2 = _dot2(y, y)
    gam = math.log(8.0) - 2.0 * np.log1p(yn2)
    log_em = math.log(ctx.eps) + ctx.core.log_mu
    term_a = (gam - 4.0 * log_em) * (prof.c1 * em * y[..., 0] + prof.c2 * em * em * yn2)
    w0, _, _ = liouville._kernels(yn2)
    term_b = prof.kH * em * (w0 / 12.0) * liouville._re_cube(y[..., 0], y[..., 1])
    z0, dd = _far_tables_ref(ctx.frames)
    my = _mat2(f.Mj, y)
    term_c = np.zeros(y.shape[:-1])
    for col in range(ctx.n - 1):
        term_c += prof.delta_value(z0[i, col], em * _mat2(dd[i, col], y))
    term_d = em * _dot2(ctx.h2.gradient(f.P), my)
    term_e = -0.5 * ctx.alpha * ctx.abs_log_eps * (2.0 * em * _dot2(f.P, my)
                                                   + em * em * _dot2(my, my))
    ds = term_a + term_b + term_c + term_d + term_e
    s = gam - 4.0 * math.log(ctx.eps) - 2.0 * ctx.core.log_mu + ds
    return ds, 8.0 / (1.0 + yn2) ** 2, s


def _scaled_residual_ref(y, ctx, vertex, ds, u, s):
    """stream._scaled_residual at any vertex i, from that vertex's far tables."""
    i = vertex - 1
    eta, _ = stream._eta_of_s(ctx, s)
    core = np.where(eta >= 1.0, np.expm1(ds), eta * np.exp(ds) - 1.0)
    em = ctx.eps_mu
    prof = ctx.core.profile
    out = u * core + (prof.kE / 8.0) * em * y[..., 0] * u
    z0, dd = _far_tables_ref(ctx.frames)
    for col in range(ctx.n - 1):
        out += stream._retained(z0[i, col] + em * _mat2(dd[i, col], y), prof, em * em)
    return out


@PROPERTY
@given(geometry=geometries(n_max=6))
def test_vertex_cores_are_copies_of_vertex_one(geometry):
    # the inner assembly evaluates vertex 1 alone: the same assembly at any
    # other vertex, from its own tables, must agree to rounding.  The bounds
    # are about ten times the largest spreads over 80 random draws: 3.3e-16
    # of max|w|, 3.1e-15 in ds, 4.9e-14 of the residual's max, 9e-16 of the
    # tables' max
    ctx = _context(geometry)
    ymax = min(300.0, 0.98 * ctx.inner_radius_y)
    y = stream._polar_points(np.geomspace(0.05, ymax, 128),
                             stream._cell_angles(60, 1)).reshape(-1, 2)
    ds1, u1, s1 = stream._inner_terms(y, ctx)
    w1 = u1 * stream._eta_of_s(ctx, s1)[0] * np.exp(ds1)
    res1 = stream.inner_residual_scaled(y, ctx)
    z1, d1 = stream._far_geometry(ctx.frames)
    for vertex in range(1, ctx.n + 1):
        ds, u, s = _inner_terms_ref(y, ctx, vertex)
        w = u * stream._eta_of_s(ctx, s)[0] * np.exp(ds)
        res = _scaled_residual_ref(y, ctx, vertex, ds, u, s)
        if vertex == 1:
            for new, ref in ((ds1, ds), (w1, w), (res1, res)):
                assert np.array_equal(new, ref)
        assert np.max(np.abs(w - w1)) <= 5e-14 * np.max(np.abs(w1))
        assert np.max(np.abs(ds - ds1)) <= 4e-14
        assert np.max(np.abs(res - res1)) <= 1.2e-12 * np.max(np.abs(res1))
        # vertex i's rows, from vertex i + 1 on, are vertex 1's rows rotated
        z, d = stream._far_geometry(ctx.frames, vertex - 1)
        assert z.shape == (ctx.n - 1, 2) and d.shape == (ctx.n - 1, 2, 2)
        assert np.allclose(np.roll(z, 1 - vertex, axis=0), z1, rtol=0.0,
                           atol=1e-14 * np.max(np.abs(z1)))
        assert np.allclose(np.roll(d, 1 - vertex, axis=0), d1, rtol=0.0,
                           atol=1e-14 * np.max(np.abs(d1)))


@PROPERTY
@given(r=st.floats(0.3, 3.0), n=st.integers(2, 5),
       h=st.floats(0.5, 2.0) | st.floats(-2.0, -0.5))
def test_galilean_boost_maps_polygon_to_helix(r, n, h):
    # the boost with nu = 1/h (one axial mode of the period 2 pi |h|) turns
    # the straight polygon's exact trajectory into the polygon of helices'
    polygon = HelixConfig(r, h, n, HelixVariant.STRAIGHT_POLYGON)
    helix = HelixConfig(r, h, n, HelixVariant.POLYGON_HELIX)
    boosted = galilean_transform(sampled_trajectory(polygon, 1e-3, 4, modes=64),
                                 1.0 / h, KAPPA)
    ref = sampled_trajectory(helix, 1e-3, 4, modes=64)
    scale = max(float(np.max(np.abs(s.positions))) for s in ref.snapshots)
    for a, b in zip(boosted.snapshots, ref.snapshots):
        assert np.max(np.abs(a.positions - b.positions)) <= 1e-12 * scale


# -- sups and projections on one symmetry cell ------------------------------

def _outcome(fn, *args, **kwargs):
    """fn's value, or the type of the documented failure it raised: a norm
    whose F is switched on past overflow by the frozen rotation term, an
    inner disk too small for the grid."""
    try:
        return fn(*args, **kwargs)
    except (NonFiniteError, QuadratureFailure) as err:
        return type(err)


def _agree(cell, whole, rel):
    """The same failure on both sides, or values within rel of each other."""
    if isinstance(whole, type):
        return cell is whole
    return abs(cell - whole) <= rel * abs(whole)


def _outer_orbit_sup(ctx, n_r, n_theta, nu_bar=3.0):
    """outer_residual_norm's sup over the D_N orbit of its half-sector grid:
    K = ceil(n_theta/2N) midpoint angles of [0, pi/N], rotated by 2 pi j/N
    and reflected through the vertex axis."""
    k = -(-n_theta // (2 * ctx.n))
    cell = (np.arange(k) + 0.5) * (math.pi / (ctx.n * k))
    turns = 2.0 * math.pi * np.arange(ctx.n) / ctx.n
    th = np.concatenate([(cell[None] + turns[:, None]).ravel(),
                         (turns[:, None] - cell[None]).ravel()])
    rr = np.geomspace(ctx.frames[0].R / 8.0, 1.0, n_r)
    x = (rr[:, None, None] * np.stack([np.cos(th), np.sin(th)], axis=-1)).reshape(-1, 2)
    lim = ctx.delta / ctx.sqrt_log
    x = x[np.all([np.hypot(*change_to_local(x, f).T) > lim for f in ctx.frames], axis=0)]
    return stream._weighted_sup(residual_S(x, ctx), 1.0 + np.hypot(*x.T) ** nu_bar, "orbit")


@PROPERTY
@given(geometry=geometries(n_max=6), n_theta=st.sampled_from([96, 180]))
@example(geometry=(math.exp(-20.0), 1.0, 1.0, 4, 0.5), n_theta=180)
def test_outer_sup_on_half_sector_is_orbit_sup(geometry, n_theta):
    # 2N does not divide n_theta = 180 at N = 4, nor n_theta = 96 at N = 5
    ctx = _context(geometry)
    sampled = []

    def recorded(x, ctx):
        sampled.append(x)
        return residual_S(x, ctx)

    with patch.object(stream, "residual_S", recorded):
        cell = _outcome(outer_residual_norm, ctx, n_r=24, n_theta=n_theta)
    assert _agree(cell, _outcome(_outer_orbit_sup, ctx, 24, n_theta), 1e-12)
    # residual_S's direct assembly is only asked for outside the vertex cores
    (x,) = sampled
    for f in ctx.frames:
        assert np.all(np.hypot(*change_to_local(x, f).T) > ctx.delta**2 / ctx.sqrt_log)


def _two_branch_inner_norm(ctx, n_r, n_theta):
    """inner_residual_norm with its former second assembly: the scaled residual
    within |y| <= delta^2/(eps mu sqrt|log eps|), the direct residual_S beyond."""
    y, weight = stream._inner_sup_grid(ctx, 0.98, 300.0, n_r, n_theta)
    yn = np.sqrt(_dot2(y, y))
    ds, u, s = stream._inner_terms(y, ctx)
    deep = yn <= ctx.delta**2 / (ctx.eps_mu * ctx.sqrt_log)
    vals = np.empty(y.shape[0])
    if np.any(deep):
        vals[deep] = stream._scaled_residual(y[deep], ctx, ds[deep], u[deep], s[deep])
    if np.any(~deep):
        x = ctx.frames[0].P + ctx.eps_mu * _mat2(ctx.frames[0].Mj, y[~deep])
        vals[~deep] = ctx.eps_mu**2 * residual_S(x, ctx)
    mask = stream._eta_of_s(ctx, s)[0] >= 1.0
    if not np.any(mask):
        raise QuadratureFailure("cutoff never saturates on the inner grid")
    return stream._weighted_sup(vals[mask], weight[mask], "two-branch inner norm")


@PROPERTY
@given(geometry=geometries(n_max=6), n_theta=st.sampled_from([64, 96, 45]))
def test_inner_sups_on_half_disk_are_disk_sups(geometry, n_theta):
    # the same sups over the half-disk grid and its mirror image y2 -> -y2
    ctx = _context(geometry)
    half = stream._inner_sup_grid
    # the origin, then rings of ceil(n_theta/2) midpoint angles of (0, pi)
    y = half(ctx, 0.98, 300.0, 40, n_theta)[0]
    k = -(-n_theta // 2)
    assert np.array_equal(y[0], [0.0, 0.0]) and y.shape == (1 + 40 * k, 2)
    th = np.arctan2(y[1:, 1], y[1:, 0]).reshape(40, k)
    assert np.allclose(th, (np.arange(k) + 0.5) * (math.pi / k), rtol=0.0, atol=1e-12)

    def mirrored(*args):
        y, w = half(*args)
        return np.concatenate([y, y * [1.0, -1.0]]), np.tile(w, 2)

    def sups():
        return [_outcome(norm, ctx, n_r=40, n_theta=n_theta)
                for norm in (inner_residual_norm, b_eps_bound_check)]

    cells = sups()
    with patch.object(stream, "_inner_sup_grid", mirrored):
        disks = sups()
    for cell, disk in zip(cells, disks):
        assert _agree(cell, disk, 1e-12)
    # the cutoff saturates only inside the former switch radius, so the
    # single scaled assembly gives the two-branch norm bit for bit
    saturated = stream._eta_of_s(ctx, stream._inner_terms(y, ctx)[2])[0] >= 1.0
    switch = ctx.delta**2 / (ctx.eps_mu * ctx.sqrt_log)
    assert np.all(np.hypot(*y[saturated].T) < switch)
    two_branch = _outcome(_two_branch_inner_norm, ctx, 40, n_theta)
    assert cells[0] == two_branch


@PROPERTY
@given(geometry=geometries(n_max=6))
def test_half_disk_projection_matches_full_rule(geometry):
    ctx = _context(geometry)

    def full_rule():
        y, w = _polar_gauss_rule(ctx, 0.98, 50.0, 1.0, 24, 64)
        terms = inner_residual_scaled(y, ctx) * (-4.0 * y[..., 0] / (1.0 + _dot2(y, y))) * w
        if not np.all(np.isfinite(terms)):
            raise QuadratureFailure("projection integral is not finite")
        return np.sum(terms), np.sum(np.abs(terms))

    full = _outcome(full_rule)
    half = _outcome(calA, ctx.alpha, ctx)
    if isinstance(full, type):
        assert half is full
    else:
        assert abs(half * ctx.eps_mu * UY1Z1 - full[0]) <= 1e-12 * full[1]


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
