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
  step.  It maps a sequence of d floats (a list, or a float array) to a
  list, x itself when x lies in the closure.  It must pass non-finite
  input through as non-finite output rather than loop or raise on it.
* ``_margins(points)`` through ``skorokhod.interior_run``, on a run of
  candidate states, and through the rows classifier behind ``contains``
  and ``boundary_count``.  In the closure a row's margin is its distance
  to the boundary; outside it is negative, of size at most the distance
  to the closure.  Each margin goes through the same arithmetic as
  ``_project``'s own inside test, so on a finite row margin >= 0 holds
  exactly when ``_project`` returns the row bitwise unchanged.  Interior
  runs accept exactly those rows, with no band.

Both hooks, and the distances ``distance_outside`` and ``_classify`` take,
are plain float arithmetic in a fixed order: a dot product or squared norm
adds the coordinate products in coordinate order, over Python floats in
``_dot`` and ``_norm`` and over numpy columns in ``_row_dots``, with no
BLAS and no FMA.  Their bits depend on neither the CPU nor the BLAS
library.
"""

import math
import operator
import sys

import numpy as np

from .errors import (DimensionMismatch, ProjectionOutOfRange,
                     ReflectedSDEError)

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"

# The polyhedron's rounding allowance per unit of scale (64 ulps of 1); its
# active-set steps allowed per face and per dimension; and its passes onto
# the active faces, each of which leaves some ulps, times the faces'
# condition, of the last pass's error: one pass, unless x is far larger
# than its projection or the faces are ill conditioned, and 24 for any
# finite x
_ROUNDING = 64 * sys.float_info.epsilon
_SOLVE_STEPS = 10
_POLISH_PASSES = 24


class _UncertifiedProjection(ReflectedSDEError):
    """The polyhedral projection could not be computed or certified."""


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


def _dot(a, b) -> float:
    """a . b over sequences of floats, the products added in order."""
    products = map(operator.mul, a, b)
    acc = next(products)
    for p in products:
        acc += p
    return acc


def _norm(v) -> float:
    """|v| over a sequence of floats: math.sqrt(_dot(v, v)), bitwise, since
    no square is -0.0 and 0.0 + s is s."""
    acc = 0.0
    for u in v:
        acc += u * u
    return math.sqrt(acc)


def _distance(a, b) -> float:
    """|a - b| over sequences of floats."""
    return _norm(list(map(operator.sub, a, b)))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a . b of (n, d) ``a`` with (n, d) or (d,) ``b``: each row
    bitwise ``_dot`` of its floats, the columns' products added in order."""
    acc = a[:, 0] * b[..., 0]
    for k in range(1, a.shape[1]):
        acc += a[:, k] * b[..., k]
    return acc


def _norm1(a: list) -> float:
    total = 0.0
    for v in a:
        total += abs(v)
    return total


def _shift(base: list, w: list, q: list) -> list:
    """base + sum_l w_l q_l, one term after the other."""
    for w_l, q_l in zip(w, q):
        base = [a + w_l * b for a, b in zip(base, q_l)]
    return base


def _reduce(q: list, n) -> tuple:
    """Modified Gram-Schmidt of n against the orthonormal rows ``q``: the
    coefficients c and remainder z with n = sum_l c_l q_l + z."""
    z, coeffs = list(n), []
    for q_l in q:
        c = _dot(q_l, z)
        coeffs.append(c)
        z = [a - c * b for a, b in zip(z, q_l)]
    return coeffs, z


def _factor(normals: list) -> tuple:
    """QR factorization of the matrix whose columns are ``normals``: the
    orthonormal rows q and R as a list of columns (column j has j + 1
    entries)."""
    q, r = [], []
    for n in normals:
        coeffs, z = _reduce(q, n)
        norm = _norm(z)
        q.append([a / norm for a in z])
        r.append(coeffs + [norm])
    return q, r


def _back_substitute(r: list, b: list) -> list:
    """u with R u = b, R upper triangular given by its columns."""
    u = [0.0] * len(b)
    for i in reversed(range(len(b))):
        acc = b[i]
        for j in range(i + 1, len(b)):
            acc -= r[j][i] * u[j]
        u[i] = acc / r[i][i]
    return u


def _forward_substitute(r: list, b: list) -> list:
    """w with R^T w = b, R upper triangular given by its columns."""
    w = []
    for i, col in enumerate(r):
        acc = b[i]
        for j in range(i):
            acc -= col[j] * w[j]
        w.append(acc / col[i])
    return w


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

    def _project(self, x) -> list:
        """The projection of the d floats ``x``; see the module docstring."""
        raise NotImplementedError

    def _margins(self, points: np.ndarray) -> np.ndarray:
        """(n,) margins of the (n, d) rows; see the module docstring."""
        raise NotImplementedError

    def _classify(self, points: np.ndarray):
        """Signed distances of the (n, d) rows and their on-boundary mask.

        A row is on the boundary when its signed distance is finite and
        within the row's band (``_bands``).  The margin is that distance
        inside; a row just outside, with -band <= margin < 0, gets its exact
        distance -|project(x) - x|, and a row further out is outside
        whatever its exact distance.
        """
        bands = _bands(points)
        with np.errstate(over="ignore", invalid="ignore"):
            sd = self._margins(points)
        for i in np.flatnonzero(np.isfinite(sd) & (sd < 0.0)
                                & (sd >= -bands)).tolist():
            x = points[i].tolist()
            try:
                sd[i] = -_distance(self._project(x), x)
            except ProjectionOutOfRange:
                pass  # the centre of an excluded ball: -radius is exact
        return sd, np.isfinite(sd) & (np.abs(sd) <= bands)

    # -- public API -----------------------------------------------------

    def contains(self, x) -> str:
        """Classify ``x`` as ``interior``, ``boundary``, or ``outside``."""
        sd, on_band = self._classify(_as_point(x, self.dimension)[None])
        if on_band[0]:
            return BOUNDARY
        return INTERIOR if sd[0] > 0.0 else OUTSIDE

    def project(self, x) -> np.ndarray:
        """Nearest point of the closure.

        Points already in the closure are returned unchanged.  For nonconvex
        kinds the projection must be single valued: if ``x`` is at distance
        >= rho0 from the closure, ProjectionOutOfRange is raised.
        """
        p = _as_point(x, self.dimension).tolist()
        return np.array(self._project(p))

    def distance_outside(self, x) -> float:
        """Distance from ``x`` to the closure; zero inside."""
        p = _as_point(x, self.dimension).tolist()
        return _distance(self._project(p), p)

    @property
    def rho0(self) -> float:
        """Reach of the closure: +inf unless a kind says otherwise."""
        return math.inf

    def boundary_count(self, points: np.ndarray) -> int:
        """Number of rows of ``points`` lying in the boundary tolerance band.

        A row whose signed distance is not finite (say, one with an infinite
        coordinate) is never counted.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"expected points of shape (n, {self.dimension}), got {pts.shape}"
            )
        return int(np.count_nonzero(self._classify(pts)[1]))

    # -- construction ---------------------------------------------------

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
        self._normal = self.normal.tolist()

    def _margins(self, points):
        return _row_dots(points, self.normal) - self.offset

    def _project(self, x):
        sd = _dot(x, self._normal) - self.offset
        if sd >= 0.0:
            return x
        return [a - sd * n for a, n in zip(x, self._normal)]


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
        self._center = self.center.tolist()

    def _margins(self, points):
        rel = points - self.center
        return self.radius - np.sqrt(_row_dots(rel, rel))

    def _project(self, x):
        rel = list(map(operator.sub, x, self._center))
        dist = _norm(rel)
        if dist <= self.radius:
            return x
        if dist == math.inf:
            dist = math.hypot(*rel)  # the squares overflowed; hypot does not
        scale = self.radius / dist
        return [c + r * scale for c, r in zip(self._center, rel)]


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
        self._bounds = list(zip(self.lower.tolist(), self.upper.tolist()))

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
        # as np.clip does: NaN stays, and a coordinate equal to a bound (a
        # zero of either sign) becomes the bound itself
        out = []
        for v, (lo, hi) in zip(x, self._bounds):
            if v == v:
                if not v > lo:
                    v = lo
                if not v < hi:
                    v = hi
            out.append(v)
        return out


class ConvexPolyhedron(Domain):
    """Intersection of finitely many open half-spaces.

    Faces are given as unit inward normals n_i and offsets c_i, the region
    being {x : n_i . x > c_i for all i}.  Faces with no common point raise
    ValueError.

    A face value n_i . x - c_i is the products x_k n_ik added in coordinate
    order, less c_i: plain multiplications and additions, with no BLAS and
    no FMA, so its bits depend on neither the CPU nor the BLAS library.

    Projection is exact to rounding.  A point outside first goes to its most
    violated face i, x - s_i n_i (s_i its face value), which is the
    projection whenever it passes the KKT check.  Otherwise a dual
    active-set solve (Goldfarb & Idnani, Math. Programming 27, 1983, with
    the identity as Hessian) finds the faces the projection lies on, and the
    KKT check certifies its result.  Both are written in the same plain
    arithmetic.  A result that fails the check raises ReflectedSDEError
    rather than return a point that may lie outside the closure.  Only a
    point of huge norm whose projection lies far closer to the origin, off
    any vertex, is expected to fail it: the digits of x - p are lost there.
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
        # the face values' operands: columns for rows, floats for one point
        self._columns = [self.normals[:, k].copy()
                         for k in range(self.dimension)]
        self._faces = [(tuple(n), c) for n, c in
                       zip(self.normals.tolist(), self.offsets.tolist())]
        self._offset_slack = [_ROUNDING * abs(c) for _, c in self._faces]
        try:
            self._project([0.0] * self.dimension)
        except _UncertifiedProjection as exc:
            raise ValueError(f"invalid polyhedron: {exc}") from None

    def _margins(self, points):
        # row by row the face values of _project's inside test; the least,
        # which is the boundary distance inside
        faces = points[:, :1] * self._columns[0]
        for k in range(1, self.dimension):
            faces += points[:, k:k + 1] * self._columns[k]
        faces -= self.offsets
        return faces.min(axis=1)

    def _values(self, x: list) -> list:
        """The face values of one point, bitwise those ``_margins`` forms
        for it as a row."""
        return [_dot(x, n) - c for n, c in self._faces]

    def _slack(self, p: list) -> list:
        """Per face, the rounding allowed in a face value at ``p``:
        ``_ROUNDING`` times |p|_1 + |c_i|, which bounds the value's terms."""
        base = _ROUNDING * _norm1(p)
        return [base + extra for extra in self._offset_slack]

    def _project(self, x):
        values = self._values(x)
        if all(v >= 0.0 for v in values):
            return x
        if not all(map(math.isfinite, x)):
            return [a + math.nan for a in x]
        i = values.index(min(values))
        s, n = values[i], self._faces[i][0]
        p = [a - s * b for a, b in zip(x, n)]
        pv, slack = self._values(p), self._slack(p)
        # KKT for the active set {i}: p feasible and on face i, x - p along
        # -n_i with multiplier -s_i > 0
        if pv[i] <= slack[i] and all(v >= -e for v, e in zip(pv, slack)):
            return p
        return self._solve(x, values)

    def _solve(self, x: list, values: list) -> list:
        """Projection of the finite outside point ``x`` with face values
        ``values``: Goldfarb-Idnani from the unconstrained minimum x.

        The iterate is p = x + sum_j lam_j n_j over the active faces, whose
        normals are independent, with multipliers lam_j >= 0; ``q`` and
        ``r`` are the QR factors of those normals.  A face q violated
        beyond its slack joins: p moves along z, the part of n_q orthogonal
        to the active normals, until face q holds, unless an active
        multiplier reaches 0 first; that face then leaves, and face q goes
        on joining.  When n_q is a combination of the active normals with
        no positive coefficient, the faces have no common point.
        """
        if not all(map(math.isfinite, values)):
            raise _UncertifiedProjection(
                f"the face values of {x} overflow")
        faces, steps = self._faces, _SOLVE_STEPS * (len(self._faces)
                                                     + self.dimension)
        active, lam, q, r = [], [], [], []
        p, pv = x, values
        # the first face to join is the most violated one, as in _project
        adding = values.index(min(values))
        gain, s = 0.0, values[adding]
        for _ in range(steps):
            if adding is None:
                slack = self._slack(p)
                adding = min((i for i in range(len(faces))
                              if i not in active and pv[i] < -slack[i]),
                             key=pv.__getitem__, default=None)
                if adding is None:
                    self._certify(x, p, pv, active, q, r)
                    return p
                gain, s = 0.0, pv[adding]
            coeffs, z = _reduce(q, faces[adding][0])
            u = _back_substitute(r, coeffs)
            # z . n_q = |z|^2: n_q is z plus a combination of the rows of q
            zz = _dot(z, z)
            full = -s / zz if math.sqrt(zz) > _ROUNDING else math.inf
            partial, leaving = math.inf, None
            for j, (lam_j, u_j) in enumerate(zip(lam, u)):
                if u_j > 0.0 and lam_j / u_j < partial:
                    partial, leaving = lam_j / u_j, j
            step = min(full, partial)
            if step == math.inf:
                raise _UncertifiedProjection(
                    f"the faces have no common point: face {adding} "
                    f"contradicts faces {active}")
            lam = [lam_j - step * u_j for lam_j, u_j in zip(lam, u)]
            gain += step
            if full <= partial:
                active.append(adding)
                lam.append(gain)
                adding = None
                q, r = _factor([faces[j][0] for j in active])
                p, pv = self._point(x, values, active, q, r)
                continue
            if full < math.inf:
                p = [a + step * b for a, b in zip(p, z)]
                s += step * zz
            del active[leaving], lam[leaving]
            q, r = _factor([faces[j][0] for j in active])
        raise _UncertifiedProjection(
            f"no active set found for {x} in {steps} steps")

    def _point(self, x, values, active, q, r):
        """The nearest point p to ``x`` (face values ``values``) on the
        active faces, n_j . p = c_j for j in ``active`` with x - p in the
        span of their normals, and its face values."""
        if len(active) == self.dimension:
            # a vertex: solved for directly, so no digit of x is lost to it
            w = _forward_substitute(r, [self._faces[j][1] for j in active])
            p = _shift([0.0] * self.dimension, w, q)
            pv = self._values(p)
        else:
            p, pv = x, values
        for _ in range(_POLISH_PASSES):
            slack = self._slack(p)
            # x itself takes one pass
            if p is not x and all(abs(pv[j]) <= slack[j] for j in active):
                break
            w = _forward_substitute(r, [pv[j] for j in active])
            p = _shift(p, [-a for a in w], q)
            pv = self._values(p)
        return p, pv

    def _certify(self, x, p, pv, active, q, r):
        """Raise unless p is the projection of x to rounding: p lies in the
        closure and on its active faces, and p - x, which ``_point`` puts in
        the span of their inward normals, is a nonnegative combination of
        them."""
        slack = self._slack(p)
        if any(v < -e for v, e in zip(pv, slack)):
            raise _UncertifiedProjection(
                f"the projection {p} of {x} violates a face")
        if any(pv[j] > slack[j] for j in active):
            raise _UncertifiedProjection(
                f"the projection {p} of {x} leaves an active face")
        g = [b - a for a, b in zip(x, p)]
        coeffs = [_dot(q_l, g) for q_l in q]
        floor = -_ROUNDING * _norm1(g) / min(col[-1] for col in r)
        if any(lam_l < floor for lam_l in _back_substitute(r, coeffs)):
            raise _UncertifiedProjection(
                f"the projection {p} of {x} has a negative multiplier")


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
        self._center = self.center.tolist()

    def _margins(self, points):
        rel = points - self.center
        return np.sqrt(_row_dots(rel, rel)) - self.radius

    def _project(self, x):
        rel = list(map(operator.sub, x, self._center))
        dist = _norm(rel)
        if dist >= self.radius:
            return x
        if dist <= 0.0:
            raise ProjectionOutOfRange(
                "projection is not single valued at the center of the "
                "excluded ball (distance to the closure equals rho0)"
            )
        scale = self.radius / dist
        return [c + r * scale for c, r in zip(self._center, rel)]

    @property
    def rho0(self) -> float:
        return self.radius
