"""Domain classification, projection, and reach."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reflectsde.errors import DimensionMismatch, ProjectionOutOfRange
from reflectsde.geometry import (BOUNDARY, INTERIOR, OUTSIDE, Ball, Box,
                                 ConvexPolyhedron, Domain, ExteriorOfBall,
                                 HalfSpace, default_boundary_tol)
from reflectsde.flow import BLOWUP_GUARD
from reflectsde.skorokhod import guarded_step, interior_run

# the polygon of the poly-reflect benchmark workload
POLYGON = ConvexPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [-1.0, 0.3]],
                           [-1.0, -1.0, -1.0, -1.2])


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
    assert strip._margins(np.array([[0.25, 100.0]]))[0] == pytest.approx(0.25)
    # an infinity on the unbounded axis meets an infinite bound: no margin
    with np.errstate(invalid="ignore"):
        margins = strip._margins(np.array([[0.5, math.inf], [0.5, -math.inf],
                                           [math.nan, 0.0]]))
    assert not np.any(margins >= 0.0)


def test_convex_polyhedron_projection_matches_quadrant_clip():
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


def projection_normal(dom, q):
    """The projected point x of the outside point q and the unit normal
    n = (x - q) / |x - q| there: the direction a projection step's dk
    takes."""
    x = dom.project(q)
    return x, (x - q) / np.linalg.norm(x - q)


def test_normal_inequality_convex_accepts_infinite_radius():
    dom = Ball([0.0, 0.0], 1.0)
    x, n = projection_normal(dom, np.array([2.0, 0.0]))
    np.testing.assert_array_equal(x, [1.0, 0.0])
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, (200, 2))
    samples = [p for p in pts if dom.contains(p) != OUTSIDE]
    assert normal_inequality(x, n, dom.rho0, samples)


def test_normal_inequality_exterior_needs_finite_radius():
    """The frozen counterexample: across the deleted ball the linear term
    is -2 while the quadratic correction is 4/(2r), so any r > 1 fails,
    and the reach rho0 = 1 holds."""
    dom = ExteriorOfBall([0.0, 0.0], 1.0)
    x, n = projection_normal(dom, np.array([0.5, 0.0]))
    np.testing.assert_array_equal(x, [1.0, 0.0])
    np.testing.assert_allclose(n, [1.0, 0.0])
    far_side = [np.array([-1.0, 0.0])]
    assert normal_inequality(x, n, dom.rho0, far_side)
    assert not normal_inequality(x, n, 2.0 * dom.rho0, far_side)
    assert not normal_inequality(x, n, math.inf, far_side)


def test_projection_direction_is_normal_at_projected_point():
    """(project(q) - q) normalized is the ball's inward normal at the
    projected point, and satisfies the normal inequality there."""
    rng = np.random.default_rng(19)
    dom = Ball([0.0, 0.0, 0.0], 1.5)
    pts = rng.uniform(-1.5, 1.5, (300, 3))
    samples = [p for p in pts if dom.contains(p) != OUTSIDE]
    checked = 0
    for _ in range(20):
        q = rng.normal(0.0, 3.0, 3)
        if dom.contains(q) != OUTSIDE:
            continue
        p, n = projection_normal(dom, q)
        np.testing.assert_allclose(n, -p / dom.radius, atol=1e-9)
        assert normal_inequality(p, n, dom.rho0, samples)
        checked += 1
    assert checked >= 5


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
    # the centre of an excluded ball within the band: its projection raises,
    # the classifier does not
    (ExteriorOfBall([0.0, 0.0], 1e-11), (0.0, 0.0)),
], ids=["half-space", "ball", "box", "convex-polyhedron", "exterior-of-ball",
        "exterior-of-tiny-ball"])
def test_boundary_count_skips_rows_that_are_not_finite(dom, on_boundary):
    """An infinite coordinate makes the default band infinite too; such a
    row is never on the boundary."""
    rows = np.array([on_boundary, [math.inf, 0.0], [0.0, -math.inf],
                     [math.inf, math.inf], [math.nan, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dom.contains(on_boundary) == BOUNDARY
        assert dom.boundary_count(rows) == 1
        assert dom.boundary_count(rows[1:]) == 0
        assert dom.boundary_count(rows[:1] + 1e-6) == 0


def test_from_spec_builds_every_kind():
    """A literal spec dict of each kind builds the domain that its
    constructor builds from the same values."""
    pairs = [
        ({"kind": "half-space", "normal": [0.0, 2.0], "offset": 1.0},
         HalfSpace([0.0, 2.0], 1.0)),
        ({"kind": "ball", "center": [1.0, -1.0], "radius": 0.75},
         Ball([1.0, -1.0], 0.75)),
        ({"kind": "box", "lower": [0.0, -math.inf], "upper": [2.0, math.inf]},
         Box([0.0, -math.inf], [2.0, math.inf])),
        ({"kind": "convex-polyhedron", "normals": [[1.0, 0.0], [0.0, 1.0]],
          "offsets": [0.0, -1.0]},
         ConvexPolyhedron([[1.0, 0.0], [0.0, 1.0]], [0.0, -1.0])),
        ({"kind": "exterior-of-ball", "center": [0.5, 0.5], "radius": 2.0},
         ExteriorOfBall([0.5, 0.5], 2.0)),
    ]
    rng = np.random.default_rng(23)
    for spec, dom in pairs:
        built = Domain.from_spec(spec)
        assert type(built) is type(dom) and built.kind == spec["kind"]
        for _ in range(10):
            x = rng.uniform(-3.0, 3.0, dom.dimension)
            assert built.contains(x) == dom.contains(x)
            try:
                np.testing.assert_array_equal(built.project(x),
                                              dom.project(x))
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


def test_boundary_band_of_a_huge_row_does_not_overflow():
    """The squares of (1e200, -1e200) overflow; its band stays finite, so
    the row is outside the polygon rather than on its boundary."""
    rows = np.array([[1e200, -1e200], [-1e200, 1e200], [1e300, 1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert default_boundary_tol([1e200, -1e200]) == pytest.approx(
            1e-10 * math.hypot(1e200, 1e200))
        assert POLYGON.contains((1e200, -1e200)) == OUTSIDE
        assert POLYGON.boundary_count(rows) == 0


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
# the batch margins of the bulk stepping path


# (domain, a point to centre the draws on, the domain's length scale)
INSIDE_DOMAINS = [
    (HalfSpace([0.3, 1.0], -0.2), (0.0, 0.0), 1.0),
    (Ball([0.1, -0.2], 1.0), (0.1, -0.2), 1.0),
    (Ball([3e5, -1e5], 2e5), (3e5, -1e5), 2e5),
    (Box([-1.0, -0.5], [1.0, math.inf]), (0.0, 0.0), 1.0),
    (POLYGON, (0.0, 0.0), 1.0),
    (ExteriorOfBall([0.0, 0.0], 0.5), (0.0, 0.0), 0.5),
    (ExteriorOfBall([2e4, 1e4], 3e3), (2e4, 1e4), 3e3),
    (HalfSpace([0.2, -0.5, 1.0], 0.0), (0.0, 0.0, 0.0), 1.0),
    (Ball([0.0, 0.2, -0.3], 0.7), (0.0, 0.2, -0.3), 0.35),
    # zero bounds of either sign: clip hands back a bound's own zero
    (Box([0.0, -1.0, -0.0], [1.0, -0.0, math.inf]), (0.5, -0.5, 0.5), 0.25),
    # a tetrahedron with three faces through the origin
    (ConvexPolyhedron(np.vstack((np.eye(3), -np.ones((1, 3)))),
                      [0.0, 0.0, 0.0, -1.0]), (0.25, 0.25, 0.25), 0.15),
    (ExteriorOfBall([0.5, 0.0, -0.5], 1.0), (0.5, 0.0, -0.5), 0.5),
]
INSIDE_IDS = [f"{d.kind}-{i}" for i, (d, _, _) in enumerate(INSIDE_DOMAINS)]
# how far a probe sits from its anchor point, in units of the domain's
# scale; the anchor is on the boundary whenever the drawn point was outside
OFFSETS = [0.0, 1e-17, 1e-16, 1e-15, 1e-14, 1e-12, 1e-10, 1e-6, 1e-3, 0.1]


def is_fixed_point(dom, row):
    return np.array(dom._project(row.tolist())).tobytes() == row.tobytes()


@settings(max_examples=300, deadline=None)
@given(index=st.integers(0, len(INSIDE_DOMAINS) - 1),
       point=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       offsets=st.lists(st.tuples(st.sampled_from(OFFSETS),
                                  st.sampled_from([-1.0, 1.0])),
                        min_size=1, max_size=8),
       zeros=st.lists(st.sampled_from([None, 0.0, -0.0]), min_size=3,
                      max_size=3))
def test_inside_batch_rows_are_fixed_points_of_the_projection(
        index, point, direction, offsets, zeros):
    """The batch inside test of interior runs is margin >= 0 on a finite
    row.  A row with margin >= 0 is returned bitwise unchanged by the
    projection, and its guarded step gives |dk| == 0, also an ulp from the
    boundary and on signed zeros.  A row with a negative margin takes the
    projection's moving branch: it moves, or rounds back to itself within
    rounding of the boundary; and that margin is at most its distance to
    the closure."""
    dom, centre, scale = INSIDE_DOMAINS[index]
    d = dom.dimension
    drawn = np.asarray(centre) + scale * np.array(point[:d])
    assume(dom._margins(drawn[None])[0] > -0.9 * dom.rho0)
    anchor = dom.project(drawn)
    u = np.array(direction[:d])
    assume(np.linalg.norm(u) > 0.1)
    u /= np.linalg.norm(u)
    probes = np.array([anchor + sign * t * scale * u for t, sign in offsets])
    signed = probes.copy()
    for axis, zero in enumerate(zeros[:d]):
        if zero is not None:
            signed[:, axis] = zero
    probes = np.vstack((probes, signed))
    margins = dom._margins(probes)
    assert margins.shape == (len(probes),)
    for row, margin in zip(probes, margins):
        if margin >= 0.0:
            assert is_fixed_point(dom, row)
            x_next, _, dk_norm = guarded_step(dom, row.tolist(), dom.rho0)
            assert (np.array(x_next).tobytes() == row.tobytes()
                    and dk_norm == 0.0)
            continue
        try:
            assert (not is_fixed_point(dom, row)
                    or -margin <= 1e-12 * scale)
            assert -margin <= dom.distance_outside(row) + 1e-12 * scale
        except ProjectionOutOfRange:
            # the centre of an excluded ball, a radius from the closure
            assert -margin == dom.rho0


def ordered_dot(a, b):
    """a . b of two float lists, the products added in coordinate order."""
    return functools.reduce(lambda acc, k: acc + a[k] * b[k],
                            range(1, len(a)), a[0] * b[0])


def ordered_norm(v):
    return math.sqrt(ordered_dot(v, v))


# per kind, the scalar quantity whose sign decides whether ``_project``
# moves x (the box's clip moves the coordinates with a negative gap)
INSIDE_TESTS = {
    "half-space": lambda dom, x: ordered_dot(
        x.tolist(), dom.normal.tolist()) - dom.offset,
    "ball": lambda dom, x: dom.radius - ordered_norm(
        (x - dom.center).tolist()),
    "box": lambda dom, x: np.minimum(x - dom.lower, dom.upper - x).min(),
    "convex-polyhedron": lambda dom, x: min(
        ordered_dot(x.tolist(), n) - c
        for n, c in zip(dom.normals.tolist(), dom.offsets.tolist())),
    "exterior-of-ball": lambda dom, x: ordered_norm(
        (x - dom.center).tolist()) - dom.radius,
}


@pytest.mark.parametrize("d", [2, 3, 5])
def test_margins_are_bitwise_the_inside_test_of_the_projection(d):
    """Each row goes through the arithmetic of the scalar inside test: for
    the half-space, the balls and the polyhedron's face values, the
    products added in coordinate order with no BLAS (a BLAS dot or gemv
    would round differently on many rows)."""
    rng = np.random.default_rng(d)
    domains = [
        HalfSpace(rng.normal(size=d), 0.3),
        Ball(rng.normal(size=d), 1.1),
        Box(-rng.uniform(0.5, 2.0, d), rng.uniform(0.5, 2.0, d)),
        ConvexPolyhedron(rng.normal(size=(2 * d, d)), -np.ones(2 * d)),
        ExteriorOfBall(rng.normal(size=d), 0.9),
    ]
    points = rng.normal(size=(2000, d)) * rng.uniform(0.1, 1e3, (2000, 1))
    for dom in domains:
        want = [INSIDE_TESTS[dom.kind](dom, x) for x in points]
        assert dom._margins(points).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("dom, centre, scale", INSIDE_DOMAINS, ids=INSIDE_IDS)
def test_inside_batch_rejects_outside_and_non_finite_rows(dom, centre, scale):
    """Outside rows get a negative margin.  A row with a NaN or infinite
    coordinate ends an interior run, quietly; a huge finite row, also one
    whose squares overflow, is accepted exactly when the projection leaves
    it unchanged and it lies within ``BLOWUP_GUARD``."""
    d = dom.dimension
    rng = np.random.default_rng(8)
    points = np.asarray(centre) + rng.uniform(-3.0, 3.0, size=(400, d)) * scale
    margins = dom._margins(points)
    outside = np.array([dom.distance_outside(p) > 0.0 for p in points])
    assert outside.sum() >= 20 and not np.any(margins[outside] >= 0.0)
    assert np.count_nonzero(margins >= 0.0) >= 20
    x = points[margins > 0.1 * scale][0]
    zero = np.zeros(d)
    for bad in (math.nan, math.inf, -math.inf):
        for axis in range(d):
            row = x.copy()
            row[axis] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                run = interior_run(dom, x, np.array([zero, row - x, zero]))
            assert len(run) == 1
    accepted = 0
    for big in (BLOWUP_GUARD, 1e200):
        for signs in ((1.0,) * d, (1.0, -1.0) + (1.0,) * (d - 2)):
            row = big * np.array(signs)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                run = interior_run(dom, x, np.array([zero, row - x]))
            row = x + (row - x)
            assert (len(run) == 2) == (is_fixed_point(dom, row)
                                       and np.abs(row).max() <= BLOWUP_GUARD)
            accepted += len(run) == 2
    if dom.kind in ("half-space", "exterior-of-ball"):
        assert accepted


@pytest.mark.parametrize("dom", [
    POLYGON,
    # no zero normal component, so some rows get a -inf margin, not nan
    ConvexPolyhedron([[1.0, 1.0], [-1.0, 2.0]], [-1.0, -1.0]),
])
def test_polyhedron_batch_margins_reject_infinite_rows_quietly(dom):
    rows = np.array([[0.0, 0.0], [math.inf, 0.0], [-math.inf, 0.0],
                     [0.0, -math.inf], [math.inf, math.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dom.boundary_count(rows) == 0
    with np.errstate(invalid="ignore"):
        margins = dom._margins(rows)
    assert margins[0] > 0.0 and not np.any(margins[1:] >= 0.0)
