"""Constraint domains with projection and inward-normal structure.

Reflected paths in this package live in the closure of an open connected
region D.  Five region kinds are built in:

* ``half-space``          {x : <normal, x> > offset}
* ``ball``                open ball around a center
* ``box``                 axis-aligned product of open intervals (bounds may
                          be infinite)
* ``convex-polyhedron``   finite intersection of half-spaces
* ``exterior-of-ball``    complement of a closed ball (the one nonconvex kind)

Each kind supports membership classification with a boundary tolerance band,
nearest-point projection onto the closure, inward unit normals on the
boundary, and an exterior-sphere certificate check.  ``DomainConstants``
carries the three constants used by step-size and jump-size guards
elsewhere: the reach ``rho0`` (radius of exterior tangent spheres; +inf for
convex domains), and the cone-aperture pair ``(beta, delta)``.

A unit vector n is an exterior-sphere normal of radius r at a boundary
point x exactly when

    <y - x, n> + |y - x|^2 / (2 r) >= 0   for every y in the closure,

which is the inequality ``verify_normal_inequality`` samples.  Projection is
single valued at any point whose distance from the closure is below rho0,
and then (project(x) - x) normalized is itself such a normal at project(x).

Validation contract: constructors reject non-finite parameters, and the
public methods (``project``, ``distance_outside``, ``contains``, ...) check
the shape and finiteness of their input on every call.  The stepping loops
in ``skorokhod`` and ``schemes`` validate once per path and then call the
kind's hooks directly, unchecked:

* ``_project`` through ``skorokhod.guarded_step``, once per projected step.
  It takes a float array of the right shape and must pass non-finite input
  through as non-finite output rather than loop or raise on it.
* ``_inside_batch`` through ``skorokhod.interior_run``, on a run of
  candidate states.  It is conservative: a row it accepts is finite, has no
  coordinate above ``BLOWUP_GUARD``, and clears the boundary by a band of
  1e-10 (1 + |x| + scale), far above the rounding of the batch arithmetic.
  ``_project`` therefore returns such a row unchanged and the scalar step
  would raise nothing on it, so the loops skip ``guarded_step`` for it
  without changing a bit of their output.  A row it rejects only goes
  through the scalar step.
"""

import math

import numpy as np

from .errors import DimensionMismatch, NotOnBoundary, ProjectionOutOfRange
from .flow import BLOWUP_GUARD

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"

# Surrogate for "every aperture radius works" on convex domains, kept finite
# so reports and JSON artifacts stay numeric.
DELTA_UNLIMITED = 1e18

_DYKSTRA_MAX_CYCLES = 10_000
_DYKSTRA_TOL = 1e-12


def default_boundary_tol(x) -> float:
    """Scale-aware tolerance band used to classify boundary membership."""
    return 1e-10 * (1.0 + float(np.linalg.norm(x)))


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


def _clear_of_boundary(points: np.ndarray, margins: np.ndarray,
                       scale: float = 0.0) -> np.ndarray:
    """Rows whose margin to the boundary exceeds 1e-10 (1 + |x| + scale).

    ``margins`` is a batch lower estimate of the distance inside the
    boundary; ``scale`` covers the rounding of domain parameters in it.  The
    norm bound (half the guard, so no rounding of the norm matters) also
    rejects non-finite rows and rows beyond BLOWUP_GUARD.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    return ((margins > 1e-10 * (1.0 + norms + scale))
            & (norms < 0.5 * BLOWUP_GUARD))


def _unit(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm <= 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / norm


class DomainConstants:
    """Geometric constants of a domain: reach rho0 and cone pair (beta, delta).

    rho0 is the largest radius r such that every boundary point admits an
    exterior tangent sphere of radius r; beta >= 1 bounds the aperture of the
    inward normal cone on boundary patches of diameter delta > 0.
    """

    __slots__ = ("rho0", "beta", "delta")

    def __init__(self, rho0: float, beta: float, delta: float):
        if not rho0 > 0.0:
            raise ValueError("rho0 must be positive")
        if beta < 1.0:
            raise ValueError("beta must be >= 1")
        if not delta > 0.0:
            raise ValueError("delta must be positive")
        self.rho0 = float(rho0)
        self.beta = float(beta)
        self.delta = float(delta)

    def as_dict(self) -> dict:
        return {"rho0": self.rho0, "beta": self.beta, "delta": self.delta}

    def __repr__(self):
        return (
            f"DomainConstants(rho0={self.rho0!r}, beta={self.beta!r}, "
            f"delta={self.delta!r})"
        )


class Domain:
    """Base class; use the concrete kinds or :meth:`from_spec`."""

    kind = "abstract"

    def __init__(self, dimension: int):
        dimension = int(dimension)
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension

    # -- subclass hooks -------------------------------------------------

    def _signed_distance(self, x: np.ndarray) -> float:
        """Positive inside, negative outside, magnitude ~ distance to the boundary."""
        raise NotImplementedError

    def _project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _normal(self, x: np.ndarray, tol: float) -> np.ndarray:
        raise NotImplementedError

    def _signed_distance_batch(self, points: np.ndarray) -> np.ndarray:
        return np.array([self._signed_distance(p) for p in points])

    def _inside_batch(self, points: np.ndarray) -> np.ndarray:
        """Boolean per row of (n, d) points: True only where ``_project``
        returns the row unchanged and a projection step raises nothing.

        Conservative: rows near the boundary may be rejected (see the module
        docstring for the band).  A kind without a closed form accepts no
        row, so every step is projected.
        """
        return np.zeros(len(points), dtype=bool)

    # -- public API -----------------------------------------------------

    def contains(self, x, tol: float | None = None) -> str:
        """Classify ``x`` as ``interior``, ``boundary``, or ``outside``."""
        p = _as_point(x, self.dimension)
        band = default_boundary_tol(p) if tol is None else float(tol)
        sd = self._signed_distance(p)
        if abs(sd) <= band:
            return BOUNDARY
        return INTERIOR if sd > 0.0 else OUTSIDE

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
        if self._signed_distance(p) >= 0.0:
            return 0.0
        return float(np.linalg.norm(self._project(p) - p))

    def normal_cone_vector(self, x, tol: float | None = None) -> np.ndarray:
        """A unit inward normal at the boundary point ``x``.

        On smooth patches this is the unique inward normal; where faces meet
        it is the normalized average of the active face normals.  Raises
        NotOnBoundary when ``x`` is not within the boundary tolerance band.
        """
        p = _as_point(x, self.dimension)
        band = default_boundary_tol(p) if tol is None else float(tol)
        if self.contains(p, band) != BOUNDARY:
            raise NotOnBoundary(f"point {p.tolist()} is not on the boundary")
        return self._normal(p, band)

    def verify_normal_inequality(self, x, n, r, samples, tol: float = 1e-9) -> bool:
        """Check the exterior-sphere inequality of radius ``r`` at ``x``.

        Returns True iff  <y - x, n> + |y - x|^2/(2r) >= -tol  for every
        sample point y.  Samples are arbitrary points of the closure chosen
        by the caller; the check is necessary, not sufficient.
        """
        p = _as_point(x, self.dimension)
        nv = _as_point(n, self.dimension)
        r = float(r)
        if not r > 0.0:
            raise ValueError("radius r must be positive")
        for y in samples:
            yv = _as_point(y, self.dimension)
            diff = yv - p
            value = float(diff @ nv)
            if math.isfinite(r):
                value += float(diff @ diff) / (2.0 * r)
            if value < -tol:
                return False
        return True

    def constants(self) -> DomainConstants:
        raise NotImplementedError

    @property
    def rho0(self) -> float:
        return self.constants().rho0

    def boundary_count(self, points: np.ndarray, tol: float | None = None) -> int:
        """Number of rows of ``points`` lying in the boundary tolerance band."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"expected points of shape (n, {self.dimension}), got {pts.shape}"
            )
        sd = self._signed_distance_batch(pts)
        if tol is None:
            bands = 1e-10 * (1.0 + np.linalg.norm(pts, axis=1))
        else:
            bands = np.full(len(pts), float(tol))
        return int(np.count_nonzero(np.abs(sd) <= bands))

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

    def _signed_distance(self, x):
        return float(self.normal @ x) - self.offset

    def _signed_distance_batch(self, points):
        return points @ self.normal - self.offset

    def _inside_batch(self, points):
        return _clear_of_boundary(points, self._signed_distance_batch(points))

    def _project(self, x):
        sd = self._signed_distance(x)
        if sd >= 0.0:
            return x.copy()
        return x - sd * self.normal

    def _normal(self, x, tol):
        return self.normal.copy()

    def constants(self):
        return DomainConstants(math.inf, 1.0, DELTA_UNLIMITED)

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

    def _signed_distance(self, x):
        return self.radius - float(np.linalg.norm(x - self.center))

    def _signed_distance_batch(self, points):
        return self.radius - np.linalg.norm(points - self.center, axis=1)

    def _inside_batch(self, points):
        return _clear_of_boundary(points, self._signed_distance_batch(points),
                                  self.radius)

    def _project(self, x):
        rel = x - self.center
        dist = math.sqrt(rel.dot(rel))
        if dist <= self.radius:
            return x.copy()
        return self.center + rel * (self.radius / dist)

    def _normal(self, x, tol):
        rel = x - self.center
        return -_unit(rel)

    def constants(self):
        return DomainConstants(math.inf, 1.0, DELTA_UNLIMITED)

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

    def _signed_distance(self, x):
        inside_margin = float(np.min(np.minimum(x - self.lower, self.upper - x)))
        if inside_margin >= 0.0:
            # exact distance to the boundary for an axis-aligned box
            return inside_margin
        clipped = np.clip(x, self.lower, self.upper)
        return -float(np.linalg.norm(x - clipped))

    def _signed_distance_batch(self, points):
        margins = np.minimum(points - self.lower, self.upper - points).min(axis=1)
        outside = margins < 0.0
        if np.any(outside):
            clipped = np.clip(points[outside], self.lower, self.upper)
            margins = margins.astype(float)
            margins[outside] = -np.linalg.norm(points[outside] - clipped, axis=1)
        return margins

    def _inside_batch(self, points):
        # exact per coordinate: x - lower > 0 iff x > lower, so clip keeps x
        return _clear_of_boundary(points, self._signed_distance_batch(points))

    def _project(self, x):
        return np.clip(x, self.lower, self.upper)

    def _normal(self, x, tol):
        inward = np.zeros(self.dimension)
        active = 0
        for i in range(self.dimension):
            if math.isfinite(self.lower[i]) and abs(x[i] - self.lower[i]) <= tol:
                inward[i] += 1.0
                active += 1
            if math.isfinite(self.upper[i]) and abs(x[i] - self.upper[i]) <= tol:
                inward[i] -= 1.0
                active += 1
        if active == 0 or np.linalg.norm(inward) <= 0.0:
            raise NotOnBoundary("no active face found within tolerance")
        return _unit(inward)

    def constants(self):
        return DomainConstants(math.inf, 1.0, DELTA_UNLIMITED)

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

    def _margins(self, x):
        return self.normals @ x - self.offsets

    def _signed_distance(self, x):
        m = float(np.min(self._margins(x)))
        if m >= 0.0:
            return m
        proj = self._project(x)
        return -float(np.linalg.norm(proj - x))

    def _margins_batch(self, points):
        # a row with an infinite coordinate gets infinite margins, or nan
        # where the infinity meets a zero normal component (inf * 0); the
        # norm bound of _clear_of_boundary rejects the row either way
        with np.errstate(invalid="ignore"):
            return (points @ self.normals.T - self.offsets).min(axis=1)

    def _signed_distance_batch(self, points):
        margins = self._margins_batch(points)
        # a row with an infinite coordinate has an infinite or nan margin,
        # which stands as it is: the projection has no finite answer for it
        outside = (margins < 0.0) & np.isfinite(margins)
        if np.any(outside):
            margins = margins.astype(float)
            for idx in np.nonzero(outside)[0]:
                margins[idx] = -float(
                    np.linalg.norm(self._project(points[idx]) - points[idx])
                )
        return margins

    def _inside_batch(self, points):
        return _clear_of_boundary(points, self._margins_batch(points))

    def _project(self, x):
        if self._margins(x).min() >= 0.0:
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

    def _normal(self, x, tol):
        margins = self._margins(x)
        active = np.abs(margins) <= tol
        if not np.any(active):
            raise NotOnBoundary("no active face found within tolerance")
        avg = self.normals[active].mean(axis=0)
        if np.linalg.norm(avg) <= 1e-12:
            avg = self.normals[active][0]
        return _unit(avg)

    def constants(self):
        return DomainConstants(math.inf, 1.0, DELTA_UNLIMITED)

    def spec(self):
        return {
            "kind": self.kind,
            "normals": self.normals.tolist(),
            "offsets": self.offsets.tolist(),
        }


class ExteriorOfBall(Domain):
    """Complement of a closed ball: {x : |x - center| > radius}.

    The one nonconvex built-in.  Its reach equals the deleted ball's radius,
    so projection is single valued everywhere except at the center, and the
    certificate pair is (beta, delta) = (sqrt(2), radius / 2).
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

    def _signed_distance(self, x):
        return float(np.linalg.norm(x - self.center)) - self.radius

    def _signed_distance_batch(self, points):
        return np.linalg.norm(points - self.center, axis=1) - self.radius

    def _inside_batch(self, points):
        return _clear_of_boundary(points, self._signed_distance_batch(points),
                                  self.radius)

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

    def _normal(self, x, tol):
        return _unit(x - self.center)

    def constants(self):
        return DomainConstants(self.radius, math.sqrt(2.0), self.radius / 2.0)

    def spec(self):
        return {
            "kind": self.kind,
            "center": self.center.tolist(),
            "radius": self.radius,
        }
