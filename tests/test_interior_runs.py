"""Bulk interior runs against the step-by-step projection loop.

With state-independent increments (a driver path, a constant coefficient)
the stepping loops advance runs of interior steps in bulk and project only
the other steps.  Their output must be bitwise that of the loop that
projects every step, which these tests keep as the reference, and a failure
must raise the same exception at the same step.
"""

import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import reflectsde.skorokhod as skorokhod
from reflectsde.driver import (CADLAG_STEP, GridPath, Partition,
                               jump_adapted_partition, sample_jump_driver)
from reflectsde.errors import JumpTooLarge, NonFinite, ProjectionOutOfRange
from reflectsde.flow import (BLOWUP_GUARD, DEFAULT_FLOW, Coefficient,
                             constant_matrix, marcus_jump)
from reflectsde.geometry import (Ball, Box, ConvexPolyhedron, ExteriorOfBall,
                                 HalfSpace)
from reflectsde.schemes import (SchemeSpec, _admissible_cells,
                                build_reference, run_scheme)
from reflectsde.skorokhod import guarded_step, solve_skorokhod

# (domain, start point) for each kind; the driver below hits every boundary
DOMAINS = [
    (HalfSpace([0.3, 1.0], -0.2), (0.1, 0.1)),
    (Ball([0.1, -0.2], 1.0), (0.2, 0.0)),
    (Box([-1.0, -0.5], [1.0, 0.7]), (0.0, 0.0)),
    (ConvexPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [-1.0, 0.3]],
                      [-1.0, -1.0, -1.0, -1.2]), (0.0, 0.0)),
    (ExteriorOfBall([0.0, 0.0], 1.5), (1.6, 0.1)),
]
IDS = [d.kind for d, _ in DOMAINS]
MATRIX = [[0.7, -0.3], [0.2, 1.1]]
OBSERVATIONS = np.linspace(0.0, 1.0, 23)


def check_delta(dz, f, dom):
    """The schemes' jump guard on one cell increment."""
    stop = _admissible_cells(dz[None], f.sup_f, dom.rho0)[1]
    if stop is not None:
        raise stop


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def scalar_only(dom):
    """The domain with every interior run rejected: each step is projected
    (by the ``scalar_runs`` fixture, through ``skorokhod.interior_run``)."""
    clone = copy.copy(dom)
    clone.scalar_only = True
    return clone


@pytest.fixture(autouse=True)
def scalar_runs(monkeypatch):
    """Give every ``scalar_only`` domain zero-row interior runs; returns the
    lengths of the runs it rejected."""
    run = skorokhod.interior_run
    rejected = []

    def patched(domain, x, increments):
        if getattr(domain, "scalar_only", False):
            rejected.append(len(increments))
            return increments[:0]
        return run(domain, x, increments)

    monkeypatch.setattr(skorokhod, "interior_run", patched)
    return rejected


def matrix_free(f):
    """The same constant field without ``matrix``: no bulk increments."""
    return Coefficient("constant-no-matrix", f.dimension, f._evaluate,
                       f._derivative, sup_f=f.sup_f)


def driver(seed, steps=256):
    return sample_jump_driver(1.0, steps, 2, seed, jump_rate=3.0,
                              jump_law={"kind": "uniform-ball", "radius": 0.2},
                              diffusion_scale=1.2)


def creeping(z):
    """z with every other block of 16 increments shrunk a trillionfold: a
    path clipped onto the boundary then creeps along it, within rounding
    distance of it on either side."""
    dz = np.diff(z.values, axis=0)
    dz[np.arange(len(dz)) // 16 % 2 == 1] *= 1e-12
    values = np.cumsum(np.vstack((z.values[:1], dz)), axis=0)
    return GridPath(z.times, values, interp=CADLAG_STEP)


# ---------------------------------------------------------------------------
# the loops that project every step, as the reference

def loop_skorokhod(dom, y):
    x = dom.project(y.values[0])
    xs, ks, kvar = [x], [np.zeros_like(x)], [0.0]
    for dy in np.diff(y.values, axis=0):
        x, dk, dk_norm = guarded_step(dom, x + dy, dom.rho0)
        xs.append(x)
        ks.append(ks[-1] + dk)
        kvar.append(kvar[-1] + dk_norm)
    return np.array(xs), np.array(ks), np.array(kvar)


def loop_projection(dom, f, x0, z, pts):
    x = np.asarray(x0, dtype=float)
    xs, ks, ys, kvar, count = [x], [np.zeros_like(x)], [x], [0.0], 0
    for dz in np.diff(z.value_at(pts), axis=0):
        check_delta(dz, f, dom)
        target = marcus_jump(f, dz, x, DEFAULT_FLOW)
        nxt, dk, dk_norm = guarded_step(dom, target, dom.rho0)
        ys.append(ys[-1] + (target - x))
        ks.append(ks[-1] + dk)
        kvar.append(kvar[-1] + dk_norm)
        count += dk_norm > 0.0
        xs.append(nxt)
        x = nxt
    return np.array(xs), np.array(ks), np.array(ys), np.array(kvar), count


def loop_wz_bar(dom, f, x0, z, pts, bar):
    x = np.asarray(x0, dtype=float)
    k, y, kv, count = np.zeros_like(x), x, 0.0, 0
    xs, ks, ys, kvar = [x], [k], [y], [kv]
    dus = np.diff(np.linspace(0.0, 1.0, bar + 1)).tolist()
    for dz in np.diff(z.value_at(pts), axis=0):
        check_delta(dz, f, dom)
        for du in dus:
            dy = f.evaluate(x) @ dz * du
            x, dk, dk_norm = guarded_step(dom, x + dy, dom.rho0)
            y = y + dy
            if dk_norm > 0.0:
                k = k + dk
                kv += dk_norm
                count += 1
        xs.append(x)
        ks.append(k)
        ys.append(y)
        kvar.append(kv)
    return np.array(xs), np.array(ks), np.array(ys), np.array(kvar), count


def outputs(out):
    return (out.x.times, out.x.values, out.k.values, out.y.values,
            out.k_variation, dataclasses.asdict(out.meta))


def assert_same_output(a, b):
    for u, v in zip(outputs(a)[:-1], outputs(b)[:-1]):
        assert same_bits(u, v)
    assert a.meta == b.meta


# ---------------------------------------------------------------------------
# bitwise equality

def test_scalar_only_domains_step_every_row(scalar_runs):
    dom, x0 = DOMAINS[1]
    z = driver(0)
    y = GridPath(z.times, z.values + np.asarray(x0), interp=CADLAG_STEP)
    solve_skorokhod(scalar_only(dom), y)
    # a run is tried, and rejected, after each step that stays inside
    assert len(scalar_runs) > 0.5 * len(y.times)


@pytest.mark.parametrize("dom, x0", DOMAINS, ids=IDS)
def test_skorokhod_bulk_matches_the_loop(dom, x0, monkeypatch):
    accepted = []
    run = skorokhod.interior_run

    def counted(domain, x, increments):
        rows = run(domain, x, increments)
        accepted.append(len(rows))
        return rows

    monkeypatch.setattr(skorokhod, "interior_run", counted)
    moved = 0
    for seed in range(3):
        for z in (driver(seed), creeping(driver(seed))):
            y = GridPath(z.times, z.values + np.asarray(x0),
                         interp=CADLAG_STEP)
            xs, ks, kvar = loop_skorokhod(dom, y)
            for d in (dom, scalar_only(dom)):
                sol = solve_skorokhod(d, y)
                assert same_bits(sol.x.values, xs)
                assert same_bits(sol.k.values, ks)
                assert same_bits(sol.k_variation, kvar)
            moved += np.count_nonzero(np.diff(kvar))
    assert moved > 0
    # the bulk path carried most of the steps
    assert sum(accepted) > 0.5 * 6 * len(y.times)


def test_signed_zero_on_a_zero_bound_matches_the_loop():
    """clip hands back a zero bound's own sign: the start (0.1, 0.0) is
    projected onto (0.1, -0.0), and each run of the path frozen on that
    face sums -0.0 + 0.0 = +0.0, which the projection turns back."""
    dom = Box([-1.0, -0.0], [1.0, 1.0])
    z = driver(0)
    values = np.column_stack((0.1 + 0.3 * z.values[:, 0], np.zeros(len(z.times))))
    y = GridPath(z.times, values, interp=CADLAG_STEP)
    xs, ks, kvar = loop_skorokhod(dom, y)
    assert np.all(np.signbit(xs[:, 1]))
    sol = solve_skorokhod(dom, y)
    assert same_bits(sol.x.values, xs) and same_bits(sol.k.values, ks)


@pytest.mark.parametrize("dom, x0", DOMAINS, ids=IDS)
@pytest.mark.parametrize("matrix", [np.eye(2), MATRIX], ids=["eye", "general"])
def test_projection_core_bulk_matches_the_loop(dom, x0, matrix):
    f = constant_matrix(matrix)
    moved = 0
    for seed in range(3):
        z = driver(seed)
        for cells in (32, 64):
            part = Partition.uniform(1.0, cells)
            xs, ks, ys, kvar, count = loop_projection(dom, f, x0, z,
                                                      part.points)
            out = run_scheme(dom, f, x0, z,
                             SchemeSpec(kind="projection", partition=part))
            for got, want in zip(outputs(out)[1:5], (xs, ks, ys, kvar)):
                assert same_bits(got, want)
            assert out.meta.projections == count
            moved += count
            for kind in ("projection", "jump-adapted"):
                for obs in (None, OBSERVATIONS):
                    spec = SchemeSpec(kind=kind, partition=part,
                                      observation_times=obs)
                    assert_same_output(
                        run_scheme(dom, f, x0, z, spec),
                        run_scheme(scalar_only(dom), f, x0, z, spec))
        ref = build_reference(dom, f, x0, z, 128)
        assert_same_output(ref, build_reference(scalar_only(dom), f, x0, z,
                                                128))
        adapted = jump_adapted_partition(z, 128).points
        pts = np.union1d(adapted, z.times)
        xs, ks, ys, kvar, count = loop_projection(dom, f, x0, z, pts)
        assert same_bits(ref.x.values, xs) and same_bits(ref.y.values, ys)
        z = creeping(z)
        part = Partition(z.times)
        xs, ks, ys, kvar, count = loop_projection(dom, f, x0, z, part.points)
        out = run_scheme(dom, f, x0, z,
                         SchemeSpec(kind="projection", partition=part))
        for got, want in zip(outputs(out)[1:5], (xs, ks, ys, kvar)):
            assert same_bits(got, want)
    assert moved > 0


@pytest.mark.parametrize("dom, x0", DOMAINS, ids=IDS)
@pytest.mark.parametrize("matrix", [np.eye(2), MATRIX], ids=["eye", "general"])
def test_wz_bar_bulk_matches_the_loop(dom, x0, matrix):
    f = constant_matrix(matrix)
    moved = 0
    for seed in range(3):
        z = driver(seed)
        for zz, part, bar in ((z, Partition.uniform(1.0, 32), 16),
                              (creeping(z), Partition(z.times), 2)):
            xs, ks, ys, kvar, count = loop_wz_bar(dom, f, x0, zz,
                                                  part.points, bar)
            spec = SchemeSpec(kind="wz-bar", partition=part, substeps_bar=bar)
            out = run_scheme(dom, f, x0, zz, spec)
            for got, want in zip(outputs(out)[1:5], (xs, ks, ys, kvar)):
                assert same_bits(got, want)
            assert out.meta.projections == count
            moved += count
        part = Partition.uniform(1.0, 32)
        for obs in (None, OBSERVATIONS):
            spec = SchemeSpec(kind="wz-bar", partition=part, substeps_bar=16,
                              observation_times=obs)
            out = run_scheme(dom, f, x0, z, spec)
            assert_same_output(out, run_scheme(scalar_only(dom), f, x0, z,
                                               spec))
            assert_same_output(out, run_scheme(dom, matrix_free(f), x0, z,
                                               spec))
    assert moved > 0


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_stacked_increment_products_match_the_row_loops(d):
    """A constant coefficient's increments are stacked products, each row
    bitwise the 1-D product of a loop over the rows: the projection core's
    dz @ M.T (as marcus_jump forms it) and wz-bar's M @ dz, with zero and
    -0.0 entries among the rows."""
    rng = np.random.default_rng(d)
    for _ in range(100):
        m = rng.normal(size=(d, d)) * 10.0 ** rng.integers(-3, 4, (d, d))
        dzs = rng.normal(size=(300, d)) * 10.0 ** rng.integers(-3, 4, (300, d))
        dzs[rng.random((300, d)) < 0.1] = 0.0
        dzs[rng.random((300, d)) < 0.1] = -0.0
        dzs[::50] = -0.0
        mt = m.T
        assert same_bits((dzs[:, None, :] @ mt)[:, 0, :],
                         np.array([dz @ mt for dz in dzs]))
        assert same_bits((m @ dzs[:, :, None])[:, :, 0],
                         np.array([m @ dz for dz in dzs]))


def test_wz_bar_blocks_of_cells_join_bitwise(monkeypatch):
    """Stepping the cells in several blocks changes no bit."""
    import reflectsde.schemes as schemes

    dom, x0 = DOMAINS[1]
    f = constant_matrix(MATRIX)
    z = driver(4)
    spec = SchemeSpec(kind="wz-bar", partition=Partition.uniform(1.0, 32),
                      substeps_bar=8, observation_times=OBSERVATIONS)
    whole = run_scheme(dom, f, x0, z, spec)
    monkeypatch.setattr(schemes, "_SEGMENT_ROWS", 24)
    assert_same_output(whole, run_scheme(dom, f, x0, z, spec))


def test_wz_bar_holds_a_segment_of_substeps():
    """128 cells of 1,024 substeps are assembled a segment at a time: the
    run peaks under 2.5 MB, where the step records of its 131,072 substeps
    alone would take at least 5.2 MB."""
    dom, f = Ball([0.0, 0.0], 1.0), constant_matrix(np.eye(2))
    z = driver(5)
    spec = SchemeSpec(kind="wz-bar", partition=Partition.uniform(1.0, 128),
                      substeps_bar=1024)
    # a run first, so one-time allocations are not counted
    run_scheme(dom, f, (0.9, 0.0), z, spec)
    tracemalloc.start()
    try:
        out = run_scheme(dom, f, (0.9, 0.0), z, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.meta.projections > 0
    assert peak < 2.5e6


# ---------------------------------------------------------------------------
# failures: same exception, same step

def raised(fn):
    try:
        fn()
    except (NonFinite, JumpTooLarge, ProjectionOutOfRange) as exc:
        return type(exc), str(exc)
    return None


def with_value(z, index, value):
    values = z.values.copy()
    values[index:] += value
    return GridPath(z.times, values, interp=CADLAG_STEP)


def truncated(z, index):
    return GridPath(z.times[:index], z.values[:index], interp=CADLAG_STEP)


RUNNERS = {
    "skorokhod": lambda d, f, x0, z: solve_skorokhod(
        d, GridPath(z.times, z.values + np.asarray(x0), interp=CADLAG_STEP)),
    "projection": lambda d, f, x0, z: run_scheme(d, f, x0, z, SchemeSpec(
        kind="projection", partition=Partition(z.times))),
    "jump-adapted": lambda d, f, x0, z: run_scheme(d, f, x0, z, SchemeSpec(
        kind="jump-adapted", partition=Partition(z.times))),
    "reference": lambda d, f, x0, z: build_reference(d, f, x0, z, 4),
    "wz-bar": lambda d, f, x0, z: run_scheme(d, f, x0, z, SchemeSpec(
        kind="wz-bar", partition=Partition(z.times), substeps_bar=4)),
    "wz-hat": lambda d, f, x0, z: run_scheme(d, f, x0, z, SchemeSpec(
        kind="wz-hat", partition=Partition(z.times))),
}


def assert_fails_at(runner, dom, f, x0, z, index, error):
    """``runner`` raises ``error`` on the path up to sample ``index`` and
    nothing on the path before it, in bulk and step by step alike."""
    for d in (dom, scalar_only(dom)):
        assert raised(lambda: runner(d, f, x0, truncated(z, index))) is None
    bulk = raised(lambda: runner(dom, f, x0, z))
    assert bulk is not None and bulk[0] is error
    assert raised(lambda: runner(scalar_only(dom), f, x0, z)) == bulk


@pytest.mark.parametrize("name", sorted(RUNNERS))
@pytest.mark.parametrize("dom, x0", [DOMAINS[1], DOMAINS[4]],
                         ids=["ball", "exterior-of-ball"])
def test_nan_target_raises_nonfinite_at_the_same_step(name, dom, x0):
    z = driver(7, steps=64)
    z = with_value(z, 40, np.array([math.nan, 0.0]))
    assert_fails_at(RUNNERS[name], dom, constant_matrix(np.eye(2)), x0, z,
                    40, NonFinite)


@pytest.mark.parametrize("name", ["projection", "jump-adapted", "reference",
                                  "wz-bar"])
def test_jump_too_large_raises_at_the_same_step(name):
    dom, x0 = ExteriorOfBall([0.0, 0.0], 0.5), (3.0, 0.0)
    z = GridPath(np.linspace(0.0, 1.0, 65), np.zeros((65, 2)) + 1e-3
                 * np.arange(65)[:, None], interp=CADLAG_STEP)
    z = with_value(z, 40, np.array([0.6, 0.0]))
    assert_fails_at(RUNNERS[name], dom, constant_matrix(np.eye(2)), x0, z,
                    40, JumpTooLarge)


@pytest.mark.parametrize("name", ["skorokhod", "projection", "jump-adapted",
                                  "reference"])
def test_projection_out_of_range_raises_at_the_same_step(name):
    """An interior run up to the hole's edge, then a step of 0.498 towards
    the center: under the jump guard (0.498 < rho0 = 0.5) but 0.498 from
    the closure, past the 0.99 rho0 excursion margin."""
    dom, x0 = ExteriorOfBall([0.0, 0.0], 0.5), (1.5, 0.0)
    steps = np.zeros((65, 2))
    steps[1:40, 0] = -1.0 / 39.0
    steps[40, 0] = -0.498
    z = GridPath(np.linspace(0.0, 1.0, 65), np.cumsum(steps, axis=0),
                 interp=CADLAG_STEP)
    assert_fails_at(RUNNERS[name], dom, constant_matrix(np.eye(2)), x0, z,
                    40, ProjectionOutOfRange)


def rising(rate):
    """A 64-cell driver whose first coordinate rises ``rate`` per cell."""
    return GridPath(np.linspace(0.0, 1.0, 65),
                    np.column_stack((rate * np.arange(65.0), np.zeros(65))),
                    interp=CADLAG_STEP)


GUARD_CROSSING = (HalfSpace([1.0, 0.0], 0.0), (1.0, 0.0),
                  constant_matrix([[1e6, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("name", ["projection", "jump-adapted", "reference",
                                  "wz-hat"])
def test_guard_crossing_raises_nonfinite_at_the_same_step(name):
    """x1 = 1 + 1e11 j after j cells, all inside the half-space: the
    constant coefficient's jump map raises NonFinite once x1 passes
    BLOWUP_GUARD, at sample 10, and so must an interior run."""
    dom, x0, f = GUARD_CROSSING
    assert_fails_at(RUNNERS[name], dom, f, x0, rising(1e5), 10, NonFinite)


@pytest.mark.parametrize("name, rate", [("skorokhod", 1e11), ("wz-bar", 1e5)])
def test_guard_crossing_unguarded_steps_match_the_loop(name, rate):
    """Steps with no finite-value guard go on past BLOWUP_GUARD, through
    ``guarded_step`` once interior runs stop there, to bitwise the states
    of the loop that projects every step."""
    dom, x0, f = GUARD_CROSSING
    z = rising(rate)
    bulk = RUNNERS[name](dom, f, x0, z)
    scalar = RUNNERS[name](scalar_only(dom), f, x0, z)
    assert bulk.x.values[-1, 0] > 6 * BLOWUP_GUARD
    for a, b in ((bulk.x, scalar.x), (bulk.k, scalar.k)):
        assert same_bits(a.values, b.values)
    assert same_bits(bulk.k_variation, scalar.k_variation)
