"""Constraint domains with projection and reach.

Reflected paths in this package live in the closure of an open connected
region D.  Five region kinds are built in:

* ``half-space``          {x : <normal, x> > offset}
* ``ball``                open ball around a center
* ``box``                 axis-aligned product of open intervals (bounds may
                          be infinite)
* ``convex-polyhedron``   finite intersection of half-spaces
* ``exterior-of-ball``    complement of a closed ball (the one nonconvex kind)

Each kind supports membership classification with a boundary tolerance band,
nearest-point projection onto the closure, and its reach ``rho0``, the one
constant the step-size and jump-size guards elsewhere use: the largest r
such that every boundary point x has an exterior tangent sphere of radius
r, that is a unit normal n with

    <y - x, n> + |y - x|^2 / (2 r) >= 0   for every y in the closure.

It is +inf for the convex kinds.  Projection is single valued at any point
whose distance from the closure is below rho0, and then (project(x) - x)
normalized is itself such a normal at project(x).

Validation contract: constructors reject non-finite parameters, and the
public methods (``project``, ``distance_outside``, ``contains``, ...) check
the shape and finiteness of their input on every call.  The stepping loops
in ``skorokhod`` and ``schemes`` validate once per path and then call the
kind's two hooks directly, unchecked:

* ``_project(x)`` through ``skorokhod.guarded_step``, once per projected
  step.  It takes a float array of the right shape and must pass
  non-finite input through as non-finite output rather than loop or raise
  on it.
* ``_margins(points)`` through ``skorokhod.interior_run``, on a run of
  candidate states, and through the rows classifier behind ``contains``
  and ``boundary_count``.  In the closure a row's margin is its distance
  to the boundary; outside it is negative, of size at most the distance
  to the closure.  Each margin goes through the same arithmetic, and the
  same BLAS kernel, as ``_project``'s own inside test, so on a finite row
  margin >= 0 holds exactly when ``_project`` returns the row bitwise
  unchanged.  Interior runs accept exactly those rows, with no band.
"""

import math

import numpy as np

from .errors import DimensionMismatch, ProjectionOutOfRange

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"

_DYKSTRA_MAX_CYCLES = 10_000
_DYKSTRA_TOL = 1e-12


def _bands(points: np.ndarray) -> np.ndarray:
    """The default boundary band 1e-10 (1 + |x|) of each row of ``points``.

    |x| is ``np.linalg.norm`` of the row; a finite row whose squares
    overflow falls back to ``math.hypot``, which does not overflow.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(points, axis=1)
    for i in np.flatnonzero(np.isinf(norms)):
        norms[i] = math.hypot(*points[i])  # inf again if a coordinate is
    return 1e-10 * (1.0 + norms)


def default_boundary_tol(x) -> float:
    """Scale-aware tolerance band used to classify boundary membership."""
    return float(_bands(np.asarray(x, dtype=float).reshape(1, -1))[0])


def _as_point(x, dimension: int) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.shape != (dimension,):
        raise DimensionMismatch(
            f"expected point of shape ({dimension},), got {p.shape}"
        )
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite coordinates")
    return p


def _require_finite(what: str, *values):
    if not all(np.all(np.isfinite(v)) for v in values):
        raise ValueError(f"{what} must be finite")


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (n, d) ``a`` with (n, d) or (d,) ``b``.

    A stacked matmul, so each row goes through the BLAS dot of the 1-d
    ``a[i] @ b[i]`` and matches it bitwise (a plain (n, d) @ (d,) is one
    gemv, whose rounding differs).
    """
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def _unit(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm <= 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / norm


class Domain:
    """Base class; use the concrete kinds or :meth:`from_spec`."""

    kind = "abstract"

    def __init__(self, dimension: int):
        dimension = int(dimension)
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension

    # -- subclass hooks -------------------------------------------------

    def _project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _margins(self, points: np.ndarray) -> np.ndarray:
        """(n,) margins of the (n, d) rows; see the module docstring."""
        raise NotImplementedError

    def _classify(self, points: np.ndarray, tol: float | None):
        """Signed distances of the (n, d) rows and their on-boundary mask.

        A row is on the boundary when its signed distance is finite and
        within the band (``tol``, or the default band of the row).  The
        margin is that distance inside; a row just outside, with
        -band <= margin < 0, gets its exact distance -|project(x) - x|, and
        a row further out is outside whatever its exact distance.
        """
        bands = (_bands(points) if tol is None
                 else np.full(len(points), float(tol)))
        with np.errstate(over="ignore", invalid="ignore"):
            sd = self._margins(points)
            for i in np.flatnonzero(np.isfinite(sd) & (sd < 0.0)
                                    & (sd >= -bands)):
                try:
                    sd[i] = -float(np.linalg.norm(self._project(points[i])
                                                  - points[i]))
                except ProjectionOutOfRange:
                    pass  # the centre of an excluded ball: -radius is exact
        return sd, np.isfinite(sd) & (np.abs(sd) <= bands)

    # -- public API -----------------------------------------------------

    def contains(self, x, tol: float | None = None) -> str:
        """Classify ``x`` as ``interior``, ``boundary``, or ``outside``."""
        sd, on_band = self._classify(_as_point(x, self.dimension)[None], tol)
        if on_band[0]:
            return BOUNDARY
        return INTERIOR if sd[0] > 0.0 else OUTSIDE

    def project(self, x) -> np.ndarray:
        """Nearest point of the closure.

        Points already in the closure are returned unchanged.  For nonconvex
        kinds the projection must be single valued: if ``x`` is at distance
        >= rho0 from the closure, ProjectionOutOfRange is raised.
        """
        p = _as_point(x, self.dimension)
        return self._project(p)

    def distance_outside(self, x) -> float:
        """Distance from ``x`` to the closure; zero inside."""
        p = _as_point(x, self.dimension)
        return float(np.linalg.norm(self._project(p) - p))

    @property
    def rho0(self) -> float:
        """Reach of the closure: +inf unless a kind says otherwise."""
        return math.inf

    def boundary_count(self, points: np.ndarray, tol: float | None = None) -> int:
        """Number of rows of ``points`` lying in the boundary tolerance band.

        A row whose signed distance is not finite (say, one with an infinite
        coordinate) is never counted.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"expected points of shape (n, {self.dimension}), got {pts.shape}"
            )
        return int(np.count_nonzero(self._classify(pts, tol)[1]))

    # -- construction ---------------------------------------------------

    def spec(self) -> dict:
        """Plain-dict description, round-trippable through :meth:`from_spec`."""
        raise NotImplementedError

    @staticmethod
    def from_spec(spec: dict) -> "Domain":
        kind = spec.get("kind")
        if kind == "half-space":
            return HalfSpace(spec["normal"], spec["offset"])
        if kind == "ball":
            return Ball(spec["center"], spec["radius"])
        if kind == "box":
            return Box(spec["lower"], spec["upper"])
        if kind == "convex-polyhedron":
            return ConvexPolyhedron(spec["normals"], spec["offsets"])
        if kind == "exterior-of-ball":
            return ExteriorOfBall(spec["center"], spec["radius"])
        raise ValueError(f"unknown domain kind: {kind!r}")


class HalfSpace(Domain):
    """Open half-space {x : <normal, x> > offset}; ``normal`` points inward."""

    kind = "half-space"

    def __init__(self, normal, offset: float):
        normal = np.asarray(normal, dtype=float)
        if normal.ndim != 1:
            raise DimensionMismatch("half-space normal must be a vector")
        super().__init__(normal.shape[0])
        _require_finite("half-space normal and offset", normal, offset)
        self.normal = _unit(normal)
        self.normal.flags.writeable = False
        self.offset = float(offset)

    def _margins(self, points):
        return _dot_rows(points, self.normal) - self.offset

    def _project(self, x):
        sd = float(self.normal @ x) - self.offset
        if sd >= 0.0:
            return x.copy()
        return x - sd * self.normal

    def spec(self):
        return {
            "kind": self.kind,
            "normal": self.normal.tolist(),
            "offset": self.offset,
        }


class Ball(Domain):
    """Open ball of given center and radius."""

    kind = "ball"

    def __init__(self, center, radius: float):
        center = np.asarray(center, dtype=float)
        if center.ndim != 1:
            raise DimensionMismatch("ball center must be a vector")
        super().__init__(center.shape[0])
        _require_finite("ball center and radius", center, radius)
        if not float(radius) > 0.0:
            raise ValueError("ball radius must be positive")
        self.center = center.copy()
        self.center.flags.writeable = False
        self.radius = float(radius)

    def _margins(self, points):
        rel = points - self.center
        return self.radius - np.sqrt(_dot_rows(rel, rel))

    def _project(self, x):
        rel = x - self.center
        dist = math.sqrt(rel.dot(rel))
        if dist <= self.radius:
            return x.copy()
        return self.center + rel * (self.radius / dist)

    def spec(self):
        return {
            "kind": self.kind,
            "center": self.center.tolist(),
            "radius": self.radius,
        }


class Box(Domain):
    """Axis-aligned product of open intervals; bounds may be +-inf."""

    kind = "box"

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise DimensionMismatch("box bounds must be vectors of equal length")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValueError("box bounds must not be NaN")
        if not np.all(lower < upper):
            raise ValueError("box requires lower < upper in every axis")
        if not np.all(np.isfinite(lower) | (lower == -math.inf)):
            raise ValueError("box lower bounds must be finite or -inf")
        if not np.all(np.isfinite(upper) | (upper == math.inf)):
            raise ValueError("box upper bounds must be finite or +inf")
        super().__init__(lower.shape[0])
        self.lower = lower.copy()
        self.upper = upper.copy()
        self.lower.flags.writeable = False
        self.upper.flags.writeable = False

    def _margins(self, points):
        # exact per coordinate: x - lower >= 0 iff x >= lower, so clip keeps
        # the value of x, and inside the least gap is the boundary distance
        gaps = np.minimum(points - self.lower, self.upper - points)
        on_face = gaps == 0.0
        if on_face.any():
            # where x equals a bound clip returns the bound's own bits, so a
            # zero on a zero bound of the other sign moves: just outside
            bound = np.where(points == self.lower, self.lower, self.upper)
            flipped = on_face & (np.signbit(points) != np.signbit(bound))
            gaps[flipped] = -math.ulp(0.0)
        return gaps.min(axis=1)

    def _project(self, x):
        return np.clip(x, self.lower, self.upper)

    def spec(self):
        return {
            "kind": self.kind,
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
        }


class ConvexPolyhedron(Domain):
    """Intersection of finitely many open half-spaces.

    Faces are given as unit inward normals n_i and offsets c_i, the region
    being {x : n_i . x > c_i for all i}.  The face list must describe a
    nonempty region; this is the caller's responsibility.  Projection uses
    cyclic Dykstra iteration over the faces.
    """

    kind = "convex-polyhedron"

    def __init__(self, normals, offsets):
        normals = np.asarray(normals, dtype=float)
        offsets = np.asarray(offsets, dtype=float)
        if normals.ndim != 2 or offsets.ndim != 1:
            raise DimensionMismatch("expected normals (m, d) and offsets (m,)")
        if normals.shape[0] != offsets.shape[0] or normals.shape[0] == 0:
            raise DimensionMismatch("need one offset per face, at least one face")
        super().__init__(normals.shape[1])
        _require_finite("polyhedron normals and offsets", normals, offsets)
        norms = np.linalg.norm(normals, axis=1)
        if np.any(norms <= 0.0):
            raise ValueError("face normals must be nonzero")
        self.normals = normals / norms[:, None]
        self.offsets = offsets / norms
        self.normals.flags.writeable = False
        self.offsets.flags.writeable = False

    def _margins(self, points):
        # stacked: each row through the gemv of _project's inside test; the
        # least face margin, which is the boundary distance inside
        faces = (self.normals @ points[:, :, None])[:, :, 0] - self.offsets
        return faces.min(axis=1)

    def _project(self, x):
        if (self.normals @ x - self.offsets).min() >= 0.0:
            return x.copy()
        # Dykstra's cyclic scheme; corrections make the limit the true
        # nearest point of the intersection, not just a feasible point.
        p = x.copy()
        corrections = np.zeros_like(self.normals)
        for _ in range(_DYKSTRA_MAX_CYCLES):
            start = p.copy()
            for i in range(len(self.offsets)):
                z = p + corrections[i]
                sd = float(self.normals[i] @ z) - self.offsets[i]
                y = z - min(sd, 0.0) * self.normals[i]
                corrections[i] = z - y
                p = y
            moved = p - start
            # the negated test also stops on a non-finite iterate
            if not math.sqrt(moved.dot(moved)) >= _DYKSTRA_TOL:
                break
        return p

    def spec(self):
        return {
            "kind": self.kind,
            "normals": self.normals.tolist(),
            "offsets": self.offsets.tolist(),
        }


class ExteriorOfBall(Domain):
    """Complement of a closed ball: {x : |x - center| > radius}.

    The one nonconvex built-in.  Its reach equals the deleted ball's radius,
    so projection is single valued everywhere except at the center.
    """

    kind = "exterior-of-ball"

    def __init__(self, center, radius: float):
        center = np.asarray(center, dtype=float)
        if center.ndim != 1:
            raise DimensionMismatch("center must be a vector")
        super().__init__(center.shape[0])
        _require_finite("exterior-of-ball center and radius", center, radius)
        if not float(radius) > 0.0:
            raise ValueError("radius must be positive")
        self.center = center.copy()
        self.center.flags.writeable = False
        self.radius = float(radius)

    def _margins(self, points):
        rel = points - self.center
        return np.sqrt(_dot_rows(rel, rel)) - self.radius

    def _project(self, x):
        rel = x - self.center
        dist = math.sqrt(rel.dot(rel))
        if dist >= self.radius:
            return x.copy()
        if dist <= 0.0:
            raise ProjectionOutOfRange(
                "projection is not single valued at the center of the "
                "excluded ball (distance to the closure equals rho0)"
            )
        return self.center + rel * (self.radius / dist)

    @property
    def rho0(self) -> float:
        return self.radius

    def spec(self):
        return {
            "kind": self.kind,
            "center": self.center.tolist(),
            "radius": self.radius,
        }
