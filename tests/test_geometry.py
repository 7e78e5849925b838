"""Domain classification, projection, normals, and reach."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reflectsde.errors import (DimensionMismatch, NotOnBoundary,
                               ProjectionOutOfRange)
from reflectsde.geometry import (BOUNDARY, INTERIOR, OUTSIDE, Ball, Box,
                                 ConvexPolyhedron, Domain, ExteriorOfBall,
                                 HalfSpace, default_boundary_tol)
from reflectsde.flow import BLOWUP_GUARD
from reflectsde.skorokhod import guarded_step


def test_half_space_classification():
    dom = HalfSpace([1.0, 0.0], 0.0)
    assert dom.contains([0.5, 3.0]) == INTERIOR
    assert dom.contains([0.0, -2.0]) == BOUNDARY
    assert dom.contains([-0.5, 1.0]) == OUTSIDE


def test_half_space_projection_formula():
    dom = HalfSpace([1.0, 1.0], 1.0)
    # inward normal normalized to unit length, offset rescaled with it
    np.testing.assert_allclose(dom.normal, np.array([1.0, 1.0]) / math.sqrt(2.0))
    p = dom.project([-1.0, -1.0])
    # nearest point on {x + y = sqrt(2)} from (-1, -1)
    expected = np.array([-1.0, -1.0]) + (1.0 + math.sqrt(2.0)) * dom.normal
    np.testing.assert_allclose(p, expected, atol=1e-14)
    inside = np.array([3.0, 3.0])
    np.testing.assert_array_equal(dom.project(inside), inside)


def test_ball_projection_is_radial():
    dom = Ball([1.0, 2.0], 2.0)
    p = dom.project([1.0, 7.0])
    np.testing.assert_allclose(p, [1.0, 4.0], atol=1e-14)
    assert dom.contains(p) == BOUNDARY
    assert dom.distance_outside([1.0, 7.0]) == pytest.approx(3.0)
    assert dom.distance_outside([1.0, 2.5]) == 0.0


def test_box_with_infinite_bounds():
    half_line = Box([0.0], [math.inf])
    assert half_line.contains([0.0]) == BOUNDARY
    assert half_line.contains([5.0]) == INTERIOR
    assert half_line.contains([-0.1]) == OUTSIDE
    np.testing.assert_allclose(half_line.project([-2.0]), [0.0])

    strip = Box([0.0, -math.inf], [1.0, math.inf])
    np.testing.assert_allclose(strip.project([4.0, 9.0]), [1.0, 9.0])
    # inside margin is the exact boundary distance
    assert strip._signed_distance(np.array([0.25, 100.0])) == pytest.approx(0.25)


def test_box_corner_normal_averages_active_faces():
    dom = Box([0.0, 0.0], [1.0, 1.0])
    n = dom.normal_cone_vector([0.0, 0.0])
    np.testing.assert_allclose(n, np.array([1.0, 1.0]) / math.sqrt(2.0))
    n = dom.normal_cone_vector([1.0, 0.5])
    np.testing.assert_allclose(n, [-1.0, 0.0])
    with pytest.raises(NotOnBoundary):
        dom.normal_cone_vector([0.5, 0.5])


def test_convex_polyhedron_dykstra_matches_quadrant_clip():
    quadrant = ConvexPolyhedron(np.eye(2), [0.0, 0.0])
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.uniform(-3.0, 3.0, 2)
        np.testing.assert_allclose(quadrant.project(x), np.maximum(x, 0.0),
                                   atol=1e-9)


def test_convex_polyhedron_projection_optimality():
    # wedge between x >= 0 and x + y >= 0 in the plane
    dom = ConvexPolyhedron([[1.0, 0.0], [1.0, 1.0]], [0.0, 0.0])
    rng = np.random.default_rng(11)
    for _ in range(25):
        x = rng.uniform(-4.0, 4.0, 2)
        p = dom.project(x)
        assert np.min(dom.normals @ p - dom.offsets) >= -1e-9
        # no feasible sample may be closer than the projection
        for _ in range(40):
            q = rng.uniform(-4.0, 4.0, 2)
            if np.min(dom.normals @ q - dom.offsets) >= 0.0:
                assert np.linalg.norm(x - p) <= np.linalg.norm(x - q) + 1e-9


def test_triangle_projection_hits_vertex():
    # triangle with vertices (0,0), (1,0), (0,1)
    dom = ConvexPolyhedron(
        [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
        [0.0, 0.0, -1.0],
    )
    p = dom.project([-2.0, -2.0])
    np.testing.assert_allclose(p, [0.0, 0.0], atol=1e-9)
    p = dom.project([2.0, 2.0])
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-9)


def test_exterior_of_ball_projection_and_reach():
    dom = ExteriorOfBall([0.0, 0.0], 1.0)
    assert dom.contains([2.0, 0.0]) == INTERIOR
    assert dom.contains([1.0, 0.0]) == BOUNDARY
    assert dom.contains([0.3, 0.0]) == OUTSIDE
    np.testing.assert_allclose(dom.project([0.5, 0.0]), [1.0, 0.0])
    with pytest.raises(ProjectionOutOfRange):
        dom.project([0.0, 0.0])
    assert dom.rho0 == 1.0
    with pytest.raises(AttributeError):
        dom.rho0 = 2.0


def test_convex_constants_are_unlimited():
    for dom in (HalfSpace([1.0], 0.0), Ball([0.0], 1.0),
                Box([0.0], [1.0]), ConvexPolyhedron([[1.0]], [0.0])):
        assert math.isinf(dom.rho0)


def normal_inequality(x, n, r, samples, tol=1e-9):
    """Whether <y - x, n> + |y - x|^2 / (2 r) >= -tol for every sample y:
    the exterior-sphere inequality of radius r at x, checked on samples of
    the closure (necessary, not sufficient)."""
    diffs = np.asarray(samples) - x
    values = diffs @ n
    if math.isfinite(r):
        values = values + np.einsum("ij,ij->i", diffs, diffs) / (2.0 * r)
    return bool(np.all(values >= -tol))


def test_normal_inequality_convex_accepts_infinite_radius():
    dom = Ball([0.0, 0.0], 1.0)
    x = np.array([1.0, 0.0])
    n = dom.normal_cone_vector(x)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, (200, 2))
    samples = [p for p in pts if dom.contains(p) != OUTSIDE]
    assert normal_inequality(x, n, dom.rho0, samples)


def test_normal_inequality_exterior_needs_finite_radius():
    """The frozen counterexample: across the deleted ball the linear term
    is -2 while the quadratic correction is 4/(2r), so any r > 1 fails,
    and the reach rho0 = 1 holds."""
    dom = ExteriorOfBall([0.0, 0.0], 1.0)
    x = np.array([1.0, 0.0])
    n = dom.normal_cone_vector(x)
    np.testing.assert_allclose(n, [1.0, 0.0])
    far_side = [np.array([-1.0, 0.0])]
    assert normal_inequality(x, n, dom.rho0, far_side)
    assert not normal_inequality(x, n, 2.0 * dom.rho0, far_side)
    assert not normal_inequality(x, n, math.inf, far_side)


def test_projection_direction_is_normal_at_projected_point():
    rng = np.random.default_rng(19)
    dom = Ball([0.0, 0.0, 0.0], 1.5)
    for _ in range(20):
        x = rng.normal(0.0, 3.0, 3)
        if dom.contains(x) != OUTSIDE:
            continue
        p = dom.project(x)
        n = (p - x) / np.linalg.norm(p - x)
        np.testing.assert_allclose(n, dom.normal_cone_vector(p), atol=1e-9)


def test_boundary_count_vectorized():
    dom = HalfSpace([1.0], 0.0)
    pts = np.array([[0.0], [1e-12], [0.5], [-0.2]])
    assert dom.boundary_count(pts) == 2


@pytest.mark.parametrize("dom, on_boundary", [
    (HalfSpace([1.0, 0.0], 0.0), (0.0, 3.0)),
    (Ball([0.0, 0.0], 1.0), (0.6, 0.8)),
    (Box([-1.0, -1.0], [1.0, 1.0]), (1.0, 0.5)),
    (ConvexPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                      [-1.0, -1.0, -1.0]), (-1.0, 0.5)),
    (ExteriorOfBall([0.0, 0.0], 0.5), (0.0, -0.5)),
], ids=["half-space", "ball", "box", "convex-polyhedron", "exterior-of-ball"])
def test_boundary_count_skips_rows_that_are_not_finite(dom, on_boundary):
    """An infinite coordinate makes the default band infinite too; such a
    row is never on the boundary."""
    rows = np.array([on_boundary, [math.inf, 0.0], [0.0, -math.inf],
                     [math.inf, math.inf], [math.nan, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dom.boundary_count(rows) == 1
        assert dom.boundary_count(rows[1:]) == 0


def test_spec_round_trip_all_kinds():
    domains = [
        HalfSpace([0.0, 2.0], 1.0),
        Ball([1.0, -1.0], 0.75),
        Box([0.0, -math.inf], [2.0, math.inf]),
        ConvexPolyhedron([[1.0, 0.0], [0.0, 1.0]], [0.0, -1.0]),
        ExteriorOfBall([0.5, 0.5], 2.0),
    ]
    rng = np.random.default_rng(23)
    for dom in domains:
        clone = Domain.from_spec(dom.spec())
        assert clone.kind == dom.kind
        for _ in range(10):
            x = rng.uniform(-3.0, 3.0, dom.dimension)
            assert clone.contains(x) == dom.contains(x)
            try:
                np.testing.assert_allclose(clone.project(x), dom.project(x),
                                           atol=1e-9)
            except ProjectionOutOfRange:
                pass


def test_unknown_spec_kind_rejected():
    with pytest.raises(ValueError):
        Domain.from_spec({"kind": "pentagon"})


def test_dimension_checks():
    dom = Ball([0.0, 0.0], 1.0)
    with pytest.raises(DimensionMismatch):
        dom.contains([1.0])
    with pytest.raises(DimensionMismatch):
        dom.boundary_count(np.zeros((3, 3)))


def test_boundary_tol_scales_with_magnitude():
    assert default_boundary_tol([0.0]) == pytest.approx(1e-10)
    assert default_boundary_tol([1e6, 0.0]) == pytest.approx(1e-10 * (1.0 + 1e6))


# ---------------------------------------------------------------------------
# non-finite parameters

@pytest.mark.parametrize("build", [
    lambda: HalfSpace([math.nan, 0.0], 0.0),
    lambda: Ball([math.nan, 0.0], 1.0),
    lambda: Box([math.nan, 0.0], [1.0, 1.0]),
    lambda: ConvexPolyhedron([[math.nan, 0.0]], [0.0]),
    lambda: ExteriorOfBall([0.0, math.nan], 0.5),
], ids=["half-space", "ball", "box", "convex-polyhedron", "exterior-of-ball"])
def test_constructor_rejects_nan_parameters(build):
    with pytest.raises(ValueError, match="finite|NaN"):
        build()


@pytest.mark.parametrize("build", [
    lambda: HalfSpace([1.0, 0.0], math.inf),
    lambda: Ball([0.0, 0.0], math.inf),
    lambda: ConvexPolyhedron([[1.0, 0.0]], [-math.inf]),
    lambda: ExteriorOfBall([math.inf, 0.0], 0.5),
], ids=["half-space", "ball", "convex-polyhedron", "exterior-of-ball"])
def test_constructor_rejects_infinite_parameters(build):
    with pytest.raises(ValueError, match="finite"):
        build()


# ---------------------------------------------------------------------------
# the batch interior test of the bulk stepping path


# (domain, a point to centre the draws on, the domain's length scale)
INSIDE_DOMAINS = [
    (HalfSpace([0.3, 1.0], -0.2), (0.0, 0.0), 1.0),
    (Ball([0.1, -0.2], 1.0), (0.1, -0.2), 1.0),
    (Ball([3e5, -1e5], 2e5), (3e5, -1e5), 2e5),
    (Box([-1.0, -0.5], [1.0, math.inf]), (0.0, 0.0), 1.0),
    (ConvexPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [-1.0, 0.3]],
                      [-1.0, -1.0, -1.0, -1.2]), (0.0, 0.0), 1.0),
    (ExteriorOfBall([0.0, 0.0], 0.5), (0.0, 0.0), 0.5),
    (ExteriorOfBall([2e4, 1e4], 3e3), (2e4, 1e4), 3e3),
]
INSIDE_IDS = [f"{d.kind}-{i}" for i, (d, _, _) in enumerate(INSIDE_DOMAINS)]
# how far a probe sits from its anchor point, in units of the domain's
# scale; the anchor is on the boundary whenever the drawn point was outside
OFFSETS = [0.0, 1e-14, 1e-12, 3e-11, 1e-10, 1e-9, 1e-6, 1e-3, 0.1]


@settings(max_examples=200, deadline=None)
@given(index=st.integers(0, len(INSIDE_DOMAINS) - 1),
       point=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       angle=st.floats(0.0, 2.0 * math.pi),
       offsets=st.lists(st.tuples(st.sampled_from(OFFSETS),
                                  st.sampled_from([-1.0, 1.0])),
                        min_size=1, max_size=8))
def test_inside_batch_rows_are_fixed_points_of_the_projection(
        index, point, angle, offsets):
    """Every accepted row is returned unchanged by the projection and its
    guarded step raises nothing, also within 1e-12 of the boundary."""
    dom, centre, scale = INSIDE_DOMAINS[index]
    drawn = np.asarray(centre) + scale * np.array(point)
    assume(dom._signed_distance(drawn) > -0.9 * dom.rho0)
    anchor = dom.project(drawn)
    direction = np.array([math.cos(angle), math.sin(angle)])
    probes = np.array([anchor + sign * t * scale * direction
                       for t, sign in offsets])
    accepted = dom._inside_batch(probes)
    assert accepted.dtype == bool and accepted.shape == (len(probes),)
    for row, ok in zip(probes, accepted):
        if ok:
            assert dom._project(row).tobytes() == row.tobytes()
            x_next, _, dk_norm = guarded_step(dom, row, dom.rho0)
            assert x_next.tobytes() == row.tobytes() and dk_norm == 0.0
        elif dom._signed_distance(row) > 1e-6 * scale:
            pytest.fail(f"row {row.tolist()} clear of the boundary rejected")
        if abs(dom._signed_distance(row)) <= 1e-12 * scale:
            assert not ok


@pytest.mark.parametrize("dom, centre, scale", INSIDE_DOMAINS, ids=INSIDE_IDS)
def test_inside_batch_rejects_outside_and_non_finite_rows(dom, centre, scale):
    rng = np.random.default_rng(8)
    points = np.asarray(centre) + rng.uniform(-3.0, 3.0, size=(400, 2)) * scale
    accepted = dom._inside_batch(points)
    outside = np.array([dom.contains(p) == OUTSIDE for p in points])
    assert outside.sum() >= 20 and not np.any(accepted[outside])
    assert accepted.sum() >= 20
    bad = np.array([[math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf],
                    [BLOWUP_GUARD, BLOWUP_GUARD]])
    assert not np.any(dom._inside_batch(bad))


@pytest.mark.parametrize("dom", [
    INSIDE_DOMAINS[4][0],
    # no zero normal component, so some rows get a -inf margin, not nan
    ConvexPolyhedron([[1.0, 1.0], [-1.0, 2.0]], [-1.0, -1.0]),
])
def test_polyhedron_batch_margins_reject_infinite_rows_quietly(dom):
    rows = np.array([[0.0, 0.0], [math.inf, 0.0], [-math.inf, 0.0],
                     [0.0, -math.inf], [math.inf, math.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside = dom._inside_batch(rows)
        sd = dom._signed_distance_batch(rows)
        assert dom.boundary_count(rows) == 0
    assert inside.tolist() == [True, False, False, False, False]
    assert sd[0] > 0.0 and not np.any(sd[1:] >= 0.0)
