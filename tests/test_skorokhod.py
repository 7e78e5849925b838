"""Discrete constrained decomposition and its variation bounds.

The half-line solution has the closed form

    k(t) = max(0, max_{s <= t} (-y(s))),    x = y + k,

which is the running-maximum oracle used throughout.
"""

import math
import tracemalloc

import numpy as np
import pytest

from reflectsde.driver import GridPath, Partition, sample_brownian
from reflectsde.errors import (NonFinite, ProjectionOutOfRange,
                               StartOutsideDomain)
from reflectsde.geometry import (BOUNDARY, INTERIOR, OUTSIDE, Ball, Box,
                                 ConvexPolyhedron, ExteriorOfBall, HalfSpace)
from reflectsde.skorokhod import (check_lemma1, guarded_step, solve_skorokhod,
                                  total_variation)


def half_line():
    return HalfSpace([1.0], 0.0)


def running_max_oracle(y_values):
    """Reference decomposition on [0, inf) for a 1-d sampled path."""
    y = np.asarray(y_values, dtype=float).ravel()
    k = np.maximum.accumulate(np.maximum(-y, 0.0))
    return y + k, k


def test_half_line_hand_example():
    y = GridPath(np.array([0.0, 1.0, 2.0, 3.0]),
                 np.array([0.0, -1.0, -0.5, -2.0]))
    sol = solve_skorokhod(half_line(), y)
    np.testing.assert_array_equal(sol.x.values.ravel(), [0.0, 0.0, 0.5, 0.0])
    np.testing.assert_array_equal(sol.k.values.ravel(), [0.0, 1.0, 1.0, 2.0])
    np.testing.assert_array_equal(sol.k_variation, [0.0, 1.0, 1.0, 2.0])


def test_half_line_matches_running_max_oracle():
    rng = np.random.default_rng(211)
    for _ in range(20):
        steps = 64
        y_vals = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, 0.3, steps))])
        y = GridPath(np.linspace(0.0, 1.0, steps + 1), y_vals)
        sol = solve_skorokhod(half_line(), y)
        x_ref, k_ref = running_max_oracle(y_vals)
        np.testing.assert_allclose(sol.x.values.ravel(), x_ref, atol=1e-12)
        np.testing.assert_allclose(sol.k.values.ravel(), k_ref, atol=1e-12)


def test_decomposition_identity_and_membership():
    dom = Ball([0.0, 0.0], 1.0)
    z = sample_brownian(1.0, 256, 2, seed=77)
    sol = solve_skorokhod(dom, z)
    # x = y + k at every grid point
    np.testing.assert_allclose(sol.x.values, z.values + sol.k.values,
                               atol=1e-12)
    assert np.all(np.linalg.norm(sol.x.values, axis=1) <= 1.0 + 1e-9)
    # the compensator only moves when the boundary is active
    moves = np.linalg.norm(np.diff(sol.k.values, axis=0), axis=1) > 1e-12
    on_boundary = np.linalg.norm(sol.x.values[1:], axis=1) >= 1.0 - 1e-9
    assert np.all(on_boundary[moves])


def test_interior_path_needs_no_compensator():
    dom = Box([-5.0, -5.0], [5.0, 5.0])
    z = sample_brownian(1.0, 64, 2, seed=5)
    sol = solve_skorokhod(dom, z)
    np.testing.assert_array_equal(sol.k.values, np.zeros_like(z.values))
    np.testing.assert_array_equal(sol.x.values, z.values)


def test_start_outside_domain_raises():
    y = GridPath(np.array([0.0, 1.0]), np.array([-1.0, 0.0]))
    with pytest.raises(StartOutsideDomain):
        solve_skorokhod(half_line(), y)


def test_y0_must_match_first_sample():
    y = GridPath(np.array([0.0, 1.0]), np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        solve_skorokhod(half_line(), y, y0=np.array([0.75]))


def test_reflect_step_per_step_bound():
    """One projection never produces more compensator than driver motion."""
    rng = np.random.default_rng(99)
    dom = Ball([0.0, 0.0], 1.0)
    x = np.array([1.0, 0.0])
    for _ in range(200):
        dy = rng.normal(0.0, 0.5, 2)
        x_next, dk, dk_norm = guarded_step(dom, x + dy, dom.rho0)
        assert dk_norm == np.linalg.norm(dk)
        assert dk_norm <= np.linalg.norm(dy) + 1e-12
        x = x_next


def test_exterior_domain_excursion_guard():
    dom = ExteriorOfBall([0.0, 0.0], 1.0)
    x = np.array([1.0, 0.0])
    # target lands within 0.01 of the deleted ball's center: the step
    # excursion 0.995 reaches the 0.99 * rho0 margin
    with pytest.raises(ProjectionOutOfRange):
        guarded_step(dom, x + np.array([-0.995, 0.0]), dom.rho0)
    # a subcritical excursion is fine
    x_next, _, _ = guarded_step(dom, x + np.array([-0.5, 0.0]), dom.rho0)
    assert np.linalg.norm(x_next) == pytest.approx(1.0)


def test_total_variation_window():
    path = GridPath(np.array([0.0, 1.0, 2.0, 3.0]),
                    np.array([0.0, 1.0, -1.0, 0.5]))
    assert total_variation(path, 0.0, 3.0) == pytest.approx(4.5)
    assert total_variation(path, 1.0, 2.0) == pytest.approx(2.0)
    assert total_variation(path, 2.5, 2.75) == 0.0
    with pytest.raises(ValueError):
        total_variation(path, 2.0, 1.0)
    for window in ((math.nan, 1.0), (0.0, math.nan), (-1.0, 1.0),
                   (0.0, 3.5)):
        with pytest.raises(ValueError):
            total_variation(path, *window)


def masked_total_variation(path, t_from, t_to):
    """The variation summed over a boolean mask of the window's grid
    times and fancy-indexed increments."""
    times = path.times
    idx = np.nonzero((times > t_from) & (times <= t_to))[0]
    if len(idx) == 0:
        return 0.0
    increments = path.values[idx] - path.values[idx - 1]
    return float(np.sum(np.linalg.norm(increments, axis=1)))


@pytest.mark.parametrize("n, d", [(1, 1), (2, 2), (50, 1), (3000, 2),
                                  (700, 3)])
def test_total_variation_is_the_masked_sum_bitwise(n, d):
    """Slicing the window's rows gives bitwise the masked sum: on empty
    windows, (0, 0), (t, t), (0, horizon), ends on grid times, between
    them and past the last one within the horizon's 1e-12 slack."""
    rng = np.random.default_rng(n + d)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n - 1))])
    path = GridPath(times, rng.normal(size=(n, d)))
    horizon = path.horizon
    mids = (times[:-1] + times[1:]) / 2.0
    windows = [(0.0, 0.0), (0.0, horizon), (horizon, horizon),
               (0.0, horizon + 1e-13)]
    windows += [(t, t) for t in times[:5]]
    windows += [(m, m) for m in mids[:5]]
    windows += [(lo, hi) for lo, hi in zip(times[:-1], mids)]   # empty
    windows += [(a, b) for a, b in zip(mids[:-1], mids[1:])]
    for _ in range(200):
        ends = np.sort(rng.choice(np.concatenate([times, mids]), 2))
        windows.append(tuple(ends))
        windows.append(tuple(np.sort(rng.uniform(0.0, horizon, 2))))
    for t_from, t_to in windows:
        got = total_variation(path, t_from, t_to)
        assert got == masked_total_variation(path, t_from, t_to), (t_from,
                                                                   t_to)


def test_variation_bounds_on_windows():
    dom = half_line()
    z = sample_brownian(1.0, 512, 1, seed=303)
    sol = solve_skorokhod(dom, z)
    intervals = [(0.0, 0.25), (0.25, 0.5), (0.5, 1.0), (0.0, 1.0)]
    report = check_lemma1(dom, z, sol, intervals)
    assert report.all_ok
    assert report.increments_ok
    for check in report.intervals:
        assert check.k_variation <= check.y_variation * (1.0 + 1e-9) + 1e-9
        assert check.x_variation <= 2.0 * check.y_variation * (1.0 + 1e-9) + 1e-9
    payload = report.as_dict()
    assert payload["all_ok"] and len(payload["intervals"]) == 4


def test_variation_bounds_nonconvex_domain():
    dom = ExteriorOfBall([0.0, 0.0], 0.5)
    rng = np.random.default_rng(404)
    # moderate increments so each step stays below the reach
    incs = rng.normal(0.0, 0.05, (256, 2))
    vals = np.vstack([[2.0, 0.0], [2.0, 0.0] + np.cumsum(incs, axis=0)])
    y = GridPath(np.linspace(0.0, 1.0, 257), vals)
    sol = solve_skorokhod(dom, y)
    report = check_lemma1(dom, y, sol, [(0.0, 0.5), (0.5, 1.0), (0.0, 1.0)])
    assert report.increments_ok
    assert report.all_ok


def test_nonfinite_path_raises_nonfinite():
    y = GridPath(np.array([0.0, 0.5, 1.0]),
                 np.array([[0.5, 0.0], [np.nan, 0.0], [0.5, 0.0]]))
    with pytest.raises(NonFinite):
        solve_skorokhod(Ball([0.0, 0.0], 1.0), y)


GUARD_DOMAINS = [
    HalfSpace([1.0, 0.3], 0.2),
    Ball([0.1, -0.2], 1.0),
    Box([-1.0, -0.5], [1.0, 0.5]),
    ConvexPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [-1.0, 0.3]],
                     [-1.0, -1.0, -1.0, -1.2]),
    ExteriorOfBall([0.0, 0.0], 0.5),
]


@pytest.mark.parametrize("dom", GUARD_DOMAINS, ids=lambda d: d.kind)
def test_guarded_step_matches_public_projection_bitwise(dom):
    """The step's single projection gives exactly the public projection,
    and its |dk| exactly the public distance to the closure."""
    rng = np.random.default_rng(17)
    sides = {INTERIOR: 0, OUTSIDE: 0}
    for p in rng.uniform(-2.0, 2.0, size=(1000, 2)):
        side = dom.contains(p)
        if side == BOUNDARY:
            continue
        excursion = dom.distance_outside(p)
        if excursion >= 0.99 * dom.rho0:
            with pytest.raises(ProjectionOutOfRange):
                guarded_step(dom, p, dom.rho0)
            continue
        x_next, dk, dk_norm = guarded_step(dom, p, dom.rho0)
        assert x_next.tobytes() == dom.project(p).tobytes()
        assert dk.tobytes() == (x_next - p).tobytes()
        assert dk_norm == excursion
        sides[side] += 1
    assert sides[INTERIOR] >= 20 and sides[OUTSIDE] >= 20


def test_solve_skorokhod_holds_no_separate_targets():
    """The targets, and then dk, overwrite the increments, so a solve holds
    three n x d arrays (increments, path, k) and two n-vectors (|dk| and
    its running sum), not a fourth n x d array of targets."""
    n, d = 20000, 2
    rng = np.random.default_rng(3)
    values = np.cumsum(rng.normal(scale=0.02, size=(n, d)), axis=0)
    y = GridPath(np.arange(n) / n, values - values[0])
    dom = Ball([0.0, 0.0], 1.0)
    tracemalloc.start()
    try:
        sol = solve_skorokhod(dom, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.k_variation[-1] > 0.0
    assert peak < (3 * d + 2.5) * n * 8
