"""Discrete Skorokhod decomposition: constrain a path by minimal pushing.

Given a sampled path y with y_0 in the closed domain, the solver produces
the pair (x, k) with x = y + k on the grid, x staying in the closure, via
the projection recurrence

    x_{t_{j+1}} = project(x_{t_j} + (y_{t_{j+1}} - y_{t_j}))
    k_{t_{j+1}} = k_{t_j} + x_{t_{j+1}} - x_{t_j} - (y_{t_{j+1}} - y_{t_j}),

so k moves only when the projection clips the step, and then along an
inward normal at the projected point.  For nonconvex domains every step
must stay within the reach rho0 of the closure; the solver enforces this
with a one-percent safety margin and raises ProjectionOutOfRange otherwise.

Validation contract: ``guarded_step`` is the one projection step of every
stepping loop here and in ``schemes``.  The loops validate the start point
and the array shapes once per path, then hand each target straight to the
domain's projection, once per step; a target that is not finite shows up
as a non-finite |dk| and raises NonFinite.  The public ``Domain.project``
and ``Domain.distance_outside`` keep validating every call for outside
callers.

Interior runs skip ``guarded_step``.  The compensator grows only while the
path is on the boundary, so the step is the identity on every step that
stays inside.  When the increments do not depend on the state (a driver
path here, a constant coefficient in ``schemes``), ``project_steps`` builds
the candidate states of a run of steps with one sequential
``np.add.accumulate``, bitwise equal to the repeated ``x + dy`` of the
scalar loop, and ``interior_run`` keeps the leading rows that the domain's
``_inside_batch`` accepts.  That hook is conservative: on an accepted row
the projection returns its input unchanged, so dk = 0 exactly and the
scalar step would raise nothing.  Every other row goes through
``guarded_step``, and the loop stays scalar while each step still projects.

On each grid interval the compensator increment satisfies |dk| <= |dy|
exactly, which yields the variation comparisons checked by
``check_lemma1``: over any window (t, q],

    var(k) <= var(y)      and      var(x) <= 2 var(y).
"""

import math
from dataclasses import dataclass

import numpy as np

from .driver import GridPath, CADLAG_STEP
from .errors import NonFinite, ProjectionOutOfRange, StartOutsideDomain
from .geometry import Domain, OUTSIDE

_REACH_MARGIN = 0.99

# Rows per interior-run attempt: doubled after a fully accepted run, reset
# after a rejected row, so paths that keep touching the boundary pay little
# for the attempts and the candidate work stays linear in the path length.
_RUN_MIN, _RUN_MAX = 16, 256


@dataclass(frozen=True, eq=False)
class SkorokhodSolution:
    """Constrained path x, compensator k, and running variation of k."""

    x: GridPath
    k: GridPath
    k_variation: np.ndarray

    def __post_init__(self):
        kv = np.asarray(self.k_variation, dtype=float)
        kv.flags.writeable = False
        object.__setattr__(self, "k_variation", kv)


def guarded_step(domain: Domain, target: np.ndarray, rho0: float):
    """Project a validated target once: returns (x_next, dk, |dk|).

    ``target`` must be a float array of shape (domain.dimension,); its
    finiteness is not checked up front.  With dk = x_next - target, |dk| is
    the target's distance from the closure, so one projection serves both
    the step and its excursion guard: |dk| >= 0.99 rho0 raises
    ProjectionOutOfRange, and a non-finite |dk| (a non-finite target)
    raises NonFinite.
    """
    x_next = domain._project(target)
    dk = x_next - target
    dk_norm = math.sqrt(dk.dot(dk))
    if not dk_norm < _REACH_MARGIN * rho0:
        if not math.isfinite(dk_norm):
            raise NonFinite(f"step excursion {dk_norm} from target "
                            f"{target.tolist()} is not finite")
        raise ProjectionOutOfRange(
            f"step excursion {dk_norm:.6g} reaches the projection "
            f"radius {rho0:.6g}"
        )
    return x_next, dk, dk_norm


def interior_run(domain: Domain, x: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """The leading states x + dy_0, x + dy_0 + dy_1, ... that need no projection.

    The candidates come from one sequential ``np.add.accumulate`` over
    [x; increments], so they are bitwise equal to the repeated ``x + dy`` of
    the scalar loop.  The run ends before the first row that
    ``domain._inside_batch`` does not accept; its rows are the states the
    scalar steps would produce, with dk = 0.
    """
    candidates = np.add.accumulate(np.vstack((x, increments)), axis=0)[1:]
    inside = domain._inside_batch(candidates)
    return candidates if inside.all() else candidates[:int(inside.argmin())]


def project_steps(domain: Domain, x: np.ndarray, rho0: float, target, n: int,
                  increments: np.ndarray | None = None,
                  targets: np.ndarray | None = None,
                  path: np.ndarray | None = None):
    """Step x_{j+1} = project(target(j, x_j)) for j < n, from x_0 = x.

    Returns the (n + 1, d) path x_0 .. x_n, the (n, d) targets and the (n,)
    |dk|, so dk = path[1:] - targets.  With ``increments``
    (state-independent rows such that target(j, x) == x + increments[j]
    bitwise), interior runs are advanced in bulk by ``interior_run``; the
    other rows, and every row without ``increments``, go through
    ``guarded_step``.  The targets are written to ``targets`` when given,
    which may be ``increments`` itself: row j of the increments is read
    before target j is written.  The path is written to ``path`` when
    given, so when step j raises, its rows up to x_j are still there.
    """
    if path is None:
        path = np.empty((n + 1, len(x)))
    path[0] = x
    states = path[1:]
    if targets is None:
        targets = np.empty((n, len(x)))
    dk_norms = np.zeros(n)
    j, size = 0, _RUN_MIN
    while j < n:
        if increments is not None:
            run = interior_run(domain, x, increments[j:j + size])
            m = len(run)
            if m:
                states[j:j + m] = targets[j:j + m] = run
                x = run[-1]
                j += m
            if m == size:
                size = min(2 * size, _RUN_MAX)
                continue
            size = _RUN_MIN
        # the rejected row, then on while each step still projects
        while j < n:
            t = target(j, x)
            x, _, dk_norm = guarded_step(domain, t, rho0)
            states[j], targets[j], dk_norms[j] = x, t, dk_norm
            j += 1
            if dk_norm == 0.0 and increments is not None:
                break
    return path, targets, dk_norms


def accumulate(first, rows: np.ndarray) -> np.ndarray:
    """[first, first + rows[0], ...] summed in order, as a running loop does."""
    out = np.concatenate(([first], rows))
    return np.add.accumulate(out, axis=0, out=out)


def solve_skorokhod(domain: Domain, y: GridPath, y0=None) -> SkorokhodSolution:
    """Solve the discrete constrained decomposition for the path y.

    ``y0`` defaults to the first sample of y and must lie in the closed
    domain; passing a different value is an error.
    """
    values = y.values
    if y0 is None:
        y0 = values[0]
    start = np.asarray(y0, dtype=float)
    # contains() below then checks the path's dimension against the domain
    if (start.shape != values[0].shape
            or not np.allclose(start, values[0], rtol=0.0, atol=1e-9)):
        raise ValueError("y0 must equal the first sample of y")
    if domain.contains(start) == OUTSIDE:
        raise StartOutsideDomain(
            f"initial point {start.tolist()} is outside the closed domain"
        )
    x0 = domain.project(start)
    dys = np.diff(values, axis=0)
    # the targets overwrite the increments, and then dk the targets, so the
    # path, dk and |dk| are the only n-row arrays held while stepping
    xs, targets, dk_norms = project_steps(
        domain, x0, domain.rho0, lambda j, x: x + dys[j], len(dys),
        increments=dys, targets=dys)
    ks = accumulate(np.zeros_like(x0), np.subtract(xs[1:], targets, out=targets))

    x_path = GridPath(y.times, xs, interp=CADLAG_STEP)
    k_path = GridPath(y.times, ks, interp=CADLAG_STEP)
    return SkorokhodSolution(x_path, k_path, accumulate(0.0, dk_norms))


def total_variation(path: GridPath, t_from: float, t_to: float) -> float:
    """Variation of a step path over the window (t_from, t_to].

    Sums |increment| over grid times inside the window.  Window endpoints
    must satisfy 0 <= t_from <= t_to <= horizon (NaN fails).  The grid
    times inside are the rows lo .. hi-1 found by bisection; lo >= 1 since
    every path starts at time 0, so their increments are one diff of the
    slice of rows lo-1 .. hi-1, which copies no rows.
    """
    t_from, t_to = float(t_from), float(t_to)
    if not 0.0 <= t_from <= t_to <= path.horizon + 1e-12:
        raise ValueError("variation window must satisfy 0 <= t_from <= t_to <= horizon")
    lo, hi = np.searchsorted(path.times, (t_from, t_to), side="right")
    if hi <= lo:
        return 0.0
    increments = np.diff(path.values[lo - 1:hi], axis=0)
    return float(np.sum(np.linalg.norm(increments, axis=1)))


@dataclass(frozen=True)
class IntervalCheck:
    t_from: float
    t_to: float
    y_variation: float
    k_variation: float
    x_variation: float
    k_bound_ok: bool
    x_bound_ok: bool


@dataclass(frozen=True)
class Lemma1Report:
    """Variation comparisons of a solution against its driving path."""

    intervals: tuple
    increments_ok: bool
    rel_tol: float

    @property
    def all_ok(self) -> bool:
        return self.increments_ok and all(
            c.k_bound_ok and c.x_bound_ok for c in self.intervals
        )

    def as_dict(self) -> dict:
        return {
            "rel_tol": self.rel_tol,
            "increments_ok": self.increments_ok,
            "all_ok": self.all_ok,
            "intervals": [
                {
                    "t_from": c.t_from,
                    "t_to": c.t_to,
                    "y_variation": c.y_variation,
                    "k_variation": c.k_variation,
                    "x_variation": c.x_variation,
                    "k_bound_ok": c.k_bound_ok,
                    "x_bound_ok": c.x_bound_ok,
                }
                for c in self.intervals
            ],
        }


def check_lemma1(domain: Domain, y: GridPath, sol: SkorokhodSolution,
                 intervals, rel_tol: float = 1e-9) -> Lemma1Report:
    """Check var(k) <= var(y) and var(x) <= 2 var(y) on each window.

    Also verifies the prerequisite that every y increment stays below the
    domain reach.  Tolerance is relative: a bound b is accepted up to
    b + rel_tol * (1 + b).
    """
    rho0 = domain.rho0
    increments_ok = True
    if math.isfinite(rho0):
        dy = np.diff(y.values, axis=0)
        increments_ok = bool(np.all(np.linalg.norm(dy, axis=1) < rho0))

    checks = []
    for (t_from, t_to) in intervals:
        vy = total_variation(y, t_from, t_to)
        vk = total_variation(sol.k, t_from, t_to)
        vx = total_variation(sol.x, t_from, t_to)
        slack = lambda bound: bound + rel_tol * (1.0 + bound)
        checks.append(IntervalCheck(
            float(t_from), float(t_to), vy, vk, vx,
            k_bound_ok=vk <= slack(vy),
            x_bound_ok=vx <= slack(2.0 * vy),
        ))
    return Lemma1Report(tuple(checks), increments_ok, rel_tol)
