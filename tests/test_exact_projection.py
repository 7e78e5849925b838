"""The exact projection: its properties on every kind, the polyhedron's
answers against scipy, its fail-loud cases, and its bytes across CPU and
BLAS settings."""

import math
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linprog, nnls

from reflectsde.driver import GridPath
from reflectsde.errors import NonFinite, ReflectedSDEError
from reflectsde.geometry import (OUTSIDE, Ball, Box, ConvexPolyhedron,
                                 ExteriorOfBall, HalfSpace, _factor,
                                 default_boundary_tol)
from reflectsde.skorokhod import guarded_step, solve_skorokhod

# the polygon of the poly-reflect benchmark workload
POLYGON = ConvexPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [-1.0, 0.3]],
                           [-1.0, -1.0, -1.0, -1.2])
WEDGE_ANGLE = 1e-3
# opens toward +x with half-angle 1e-3, apex at the origin
WEDGE = ConvexPolyhedron([[math.sin(WEDGE_ANGLE), math.cos(WEDGE_ANGLE)],
                          [math.sin(WEDGE_ANGLE), -math.cos(WEDGE_ANGLE)]],
                         [0.0, 0.0])
DOMAINS = [
    HalfSpace([0.3, 1.0], -0.2),
    Ball([0.1, -0.2], 1.0),
    Box([-1.0, -0.5], [1.0, math.inf]),
    POLYGON,
    WEDGE,
    ExteriorOfBall([0.0, 0.0], 0.5),
]
CONVEX = [dom for dom in DOMAINS if math.isinf(dom.rho0)]
coordinates = st.floats(-4.0, 4.0)
points = st.tuples(coordinates, coordinates).map(np.array)


@settings(max_examples=150, deadline=None)
@given(index=st.integers(0, len(DOMAINS) - 1), x=points)
def test_projection_lands_in_the_closure_and_is_idempotent(index, x):
    """Never ``outside``; projecting again moves it at most the band."""
    dom = DOMAINS[index]
    # off the centre of an excluded ball, where it is not single valued
    assume(dom.kind != "exterior-of-ball"
           or np.linalg.norm(x - dom.center) > 1e-3)
    p = dom.project(x)
    assert dom.contains(p) != OUTSIDE
    assert np.linalg.norm(dom.project(p) - p) <= default_boundary_tol(p)


@settings(max_examples=100, deadline=None)
@given(index=st.integers(0, len(CONVEX) - 1), x=points, y=points)
def test_convex_projection_is_nonexpansive(index, x, y):
    dom = CONVEX[index]
    gap = np.linalg.norm(dom.project(x) - dom.project(y))
    assert gap <= (np.linalg.norm(x - y) + default_boundary_tol(x)
                   + default_boundary_tol(y))


@settings(max_examples=25, deadline=None)
@given(index=st.integers(0, len(DOMAINS) - 1),
       # |dy| < 0.99 rho0 = 0.495: the excluded ball's guard never trips
       steps=st.lists(st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
                      min_size=1, max_size=40))
def test_skorokhod_compensator_steps_are_bounded_by_the_driver(index, steps):
    """|dk| <= |dy| on every step, the fact behind Lemma 1's variation
    bounds: x_j lies in the closure, so the clipped distance of x_j + dy is
    at most |dy|."""
    dom = DOMAINS[index]
    start = dom.project(np.array([2.0, 2.0]))
    values = start + np.cumsum(np.vstack(([0.0, 0.0], steps)), axis=0)
    y = GridPath(np.arange(len(values), dtype=float), values)
    sol = solve_skorokhod(dom, y)
    dk = np.linalg.norm(np.diff(sol.k.values, axis=0), axis=1)
    dy = np.linalg.norm(np.diff(values, axis=0), axis=1)
    slack = 1e-12 * (1.0 + np.abs(sol.x.values[1:]).max(axis=1))
    assert np.all(dk <= dy + slack)


# ----------------------------------------------------- the scipy oracle

def oracle(dom, x):
    """The projection of ``x`` from scipy's Lawson-Hanson NNLS: the least
    distance problem min |y| subject to N y >= c - N x (Lawson & Hanson,
    Solving Least Squares Problems, ch. 23) is one NNLS in the multipliers."""
    h = dom.offsets - dom.normals @ x
    e = np.vstack((dom.normals.T, h))
    f = np.zeros(dom.dimension + 1)
    f[-1] = 1.0
    u, _ = nnls(e, f, maxiter=1000)
    residual = e @ u - f
    assert abs(residual[-1]) > 1e-12, "the oracle finds the faces infeasible"
    return x - residual[:-1] / residual[-1]


def random_polyhedron(rng, d, m):
    """m faces around a random interior point, some of them through it."""
    normals = rng.normal(size=(m, d))
    centre = rng.normal(size=d)
    margins = rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) < 0.7)
    return ConvexPolyhedron(normals, normals @ centre - margins)


@pytest.mark.parametrize("d, m", [(2, 3), (2, 6), (3, 4), (3, 8), (5, 7),
                                  (5, 12)])
def test_polyhedron_projection_matches_the_oracle(d, m):
    rng = np.random.default_rng(100 * d + m)
    for _ in range(4):
        dom = random_polyhedron(rng, d, m)
        for x in rng.normal(scale=3.0, size=(25, d)):
            p = dom.project(x)
            assert dom.contains(p) != OUTSIDE
            np.testing.assert_allclose(p, oracle(dom, x), rtol=0.0,
                                       atol=1e-9 * (1.0 + np.abs(x).max()))


@pytest.mark.parametrize("normals, offsets", [
    # a slab: two parallel faces of opposite normals
    ([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], [0.0, -0.5, 0.0]),
    # the same face twice, once scaled, and a parallel face behind it
    ([[1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [0.0, 1.0]], [0.0, 0.0, -3.0, -1.0]),
    # three faces through one vertex of a square
    ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0]], [0.0, 0.0, 0.0, -2.0]),
], ids=["slab", "duplicated", "three-at-a-vertex"])
def test_degenerate_faces_match_the_oracle(normals, offsets):
    dom = ConvexPolyhedron(normals, offsets)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-3.0, 3.0, size=(200, dom.dimension)):
        p = dom.project(x)
        assert dom.contains(p) != OUTSIDE
        np.testing.assert_allclose(p, oracle(dom, x), rtol=0.0, atol=1e-9)


def test_narrow_wedge_projects_to_its_apex():
    """The true projection of (-1, 0.3) is the apex: (0.3 cos a - sin a) > 0
    puts the point inside the polar cone."""
    p = WEDGE.project([-1.0, 0.3])
    np.testing.assert_allclose(p, oracle(WEDGE, np.array([-1.0, 0.3])),
                               atol=1e-12)
    assert np.abs(p).max() <= 1e-15
    assert WEDGE.contains(p) != OUTSIDE
    # a point along the wedge, beyond its tip's cone, lands on a face
    q = WEDGE.project([5.0, 0.3])
    np.testing.assert_allclose(q, oracle(WEDGE, np.array([5.0, 0.3])),
                               atol=1e-12)
    assert WEDGE.contains(q) != OUTSIDE


@pytest.mark.parametrize("x", [(1e200, -1e200), (-1e200, 1e200),
                               (-1e200, -1e200), (1e200, 0.5)])
def test_huge_rows_project_into_the_closure(x):
    """A huge row's projection is the vertex that maximizes x . p over the
    polygon, from scipy's linprog; its digits are not lost to |x|."""
    p = POLYGON.project(x)
    assert POLYGON.contains(p) != OUTSIDE
    direction = np.asarray(x) / 1e200
    lp = linprog(-direction, A_ub=-POLYGON.normals, b_ub=-POLYGON.offsets,
                 bounds=[(None, None)] * 2, method="highs")
    np.testing.assert_allclose(p, lp.x, atol=1e-9)


# ----------------------------------------------------- fail-loud cases

def test_empty_polyhedron_is_rejected_at_construction():
    with pytest.raises(ValueError, match="no common point"):
        ConvexPolyhedron([[1.0], [-1.0]], [0.5, 0.5])
    with pytest.raises(ValueError, match="no common point"):
        ConvexPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                         [0.0, 0.0, 0.5])
    # a single point is a nonempty closure
    ConvexPolyhedron([[1.0], [-1.0]], [0.5, -0.5])


def certify(dom, x, active, p=None):
    """The KKT check of ``p`` (by default the point of the faces
    ``active`` nearest to x) as the projection of x."""
    q, r = _factor([dom._faces[j][0] for j in active])
    if p is None:
        p = dom._point(x, dom._values(x), active, q, r)[0]
    dom._certify(x, p, dom._values(p), active, q, r)


def test_a_point_that_is_not_the_projection_fails_the_kkt_check():
    """The check behind every active-set result.  (3, -3) projects to the
    polygon's vertex (0.9, -1) of faces 1 and 3."""
    x = [3.0, -3.0]
    certify(POLYGON, x, [1, 3])
    # feasible, but off face 3
    with pytest.raises(ReflectedSDEError, match="leaves an active face"):
        certify(POLYGON, x, [1, 3], p=[-1.0, -1.0])
    # the vertex (-1, -1) of faces 0 and 1: x - p points into the polygon
    with pytest.raises(ReflectedSDEError, match="negative multiplier"):
        certify(POLYGON, x, [0, 1])
    # the nearest point of face 0 alone lies outside face 1
    with pytest.raises(ReflectedSDEError, match="violates a face"):
        certify(POLYGON, x, [0])


@pytest.mark.parametrize("row", [(math.nan, 0.0), (math.inf, 0.5),
                                 (-math.inf, math.inf)])
def test_polyhedron_step_on_a_non_finite_target_raises_nonfinite(row):
    """The projection hands a non-finite target back as NaN, quietly, so
    the step's |dk| is not finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            guarded_step(POLYGON, list(row), POLYGON.rho0)


def test_ball_projects_rows_whose_squares_overflow():
    with np.errstate(over="ignore"):
        p = Ball([0.0, 0.0], 1.0).project([1e200, 1e200])
        q = Ball([1.0, -1.0], 2.0).project([-1e300, 3e299])
    np.testing.assert_allclose(p, [math.sqrt(0.5)] * 2, rtol=1e-15)
    assert Ball([1.0, -1.0], 2.0).contains(q) != OUTSIDE


def test_ball_keeps_the_bits_of_rows_whose_squares_are_finite():
    rng = np.random.default_rng(12)
    dom = Ball([0.3, -0.7, 1.1], 0.8)
    rows = rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-2, 150, (2000, 1))
    for x in rows:
        rel = x - dom.center
        # the squares added in coordinate order
        dist = math.sqrt(rel[0] * rel[0] + rel[1] * rel[1] + rel[2] * rel[2])
        want = (x if dist <= dom.radius
                else dom.center + rel * (dom.radius / dist))
        assert dom.project(x).tobytes() == want.tobytes()


# ------------------------------------------- bytes across CPU and BLAS

POLYHEDRON_GATE_SCRIPT = textwrap.dedent("""
    import hashlib

    import numpy as np

    from reflectsde.geometry import ConvexPolyhedron

    rng = np.random.default_rng(2718)
    domains = [
        (ConvexPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0],
                           [-1.0, 0.3]], [-1.0, -1.0, -1.0, -1.2]), 6000),
        (ConvexPolyhedron(rng.normal(size=(7, 3)), -rng.uniform(0, 1, 7)),
         2500),
        (ConvexPolyhedron(rng.normal(size=(9, 5)), -rng.uniform(0, 1, 9)),
         1500),
    ]
    digest = hashlib.sha256()
    for dom, n in domains:
        rows = (rng.normal(size=(n, dom.dimension))
                * rng.uniform(0.1, 3.0, (n, 1)))
        for _ in range(2):
            digest.update(dom._margins(rows).tobytes())
            for x in rows.tolist():
                digest.update(np.array(dom._project(x)).tobytes())
    DIGEST = digest.hexdigest()
""")


def test_polyhedron_bytes_do_not_depend_on_cpu_or_blas(
        same_digest_under_gate_settings):
    """10k rows, classified and projected twice, give the bytes of this
    process also under OpenBLAS's non-FMA kernels and with numpy's AVX-512
    loops off."""
    same_digest_under_gate_settings(POLYHEDRON_GATE_SCRIPT)


STEP_GATE_SCRIPT = textwrap.dedent("""
    import hashlib
    import math

    import numpy as np

    from reflectsde.geometry import Ball, Box, ExteriorOfBall, HalfSpace
    from reflectsde.skorokhod import guarded_step

    rng = np.random.default_rng(1414)
    digest = hashlib.sha256()
    for d in (2, 3):
        domains = [
            Ball(rng.normal(size=d), 1.1),
            ExteriorOfBall(rng.normal(size=d), 0.9),
            HalfSpace(rng.normal(size=d), 0.3),
            Box(-rng.uniform(0.5, 2.0, d), rng.uniform(0.5, 2.0, d)),
        ]
        rows = rng.normal(size=(1500, d)) * rng.uniform(0.1, 3.0, (1500, 1))
        for dom in domains:
            digest.update(dom._margins(rows).tobytes())
            # x_next is _project's result, and |dk| its distance to x
            steps = [x_next + [dk_norm] for x_next, _, dk_norm in
                     (guarded_step(dom, x, math.inf) for x in rows.tolist())]
            digest.update(np.array(steps).tobytes())
    DIGEST = digest.hexdigest()
""")


def test_projection_step_bytes_do_not_depend_on_cpu_or_blas(
        same_digest_under_gate_settings):
    """The projection step of the ball, the exterior of a ball, the
    half-space and the box, and its |dk|, and their batch margins, give
    the bytes of this process also under OpenBLAS's non-FMA kernels and
    with numpy's AVX-512 loops off: squared norms and face values add the
    coordinate products in order, with no BLAS."""
    same_digest_under_gate_settings(STEP_GATE_SCRIPT)
