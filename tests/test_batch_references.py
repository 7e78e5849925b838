"""References and scheme runs of a block of paths against each path alone.

``build_references`` steps the paths of a block in lockstep by cell index,
and ``build_reference`` is its batch of one; ``run_schemes`` and
``run_scheme`` are the same pair for the schemes.  Every path's output must
be bitwise the one its driver gets alone, and the one of the step-by-step
loop through ``test_flow.oracle_jump``, the jump map kept as an oracle
apart from the package's engine; a path that fails must fail with the
error it raises alone and in that loop, without changing any other path of
its block.  wz-hat's interiors are also checked against a sampler that
carries each cell's flow one output time at a time, ``cell_interiors``.
"""

import math

import numpy as np
import pytest

from reflectsde.driver import (CADLAG_STEP, GridPath, Partition,
                               jump_adapted_partition, sample_jump_driver)
from reflectsde.errors import (JumpTooLarge, NonFinite, ProjectionOutOfRange,
                               ReflectedSDEError, StartOutsideDomain)
from reflectsde.flow import (REFERENCE_FLOW, Coefficient, FlowConfig,
                             catalog_coefficient, constant_matrix,
                             linear_diagonal)
from reflectsde.geometry import (Ball, Box, ConvexPolyhedron, ExteriorOfBall,
                                 HalfSpace)
from reflectsde.schemes import (SchemeSpec, _admissible_cells, _Chain,
                                _sample_interiors, build_reference,
                                build_references, run_scheme, run_schemes)
from reflectsde.skorokhod import guarded_step
from test_flow import full_field, oracle_jump

DOMAINS = [
    (HalfSpace([0.3, 1.0], -0.2), (0.1, 0.1)),
    (Ball([0.1, -0.2], 1.0), (0.2, 0.0)),
    (Box([-1.0, -0.5], [1.0, 0.7]), (0.0, 0.0)),
    (ConvexPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [-1.0, 0.3]],
                      [-1.0, -1.0, -1.0, -1.2]), (0.0, 0.0)),
    (ExteriorOfBall([0.0, 0.0], 0.6), (0.7, 0.1)),
]
COEFFICIENTS = {
    "gauss-rotation": catalog_coefficient("gauss-rotation", amplitude=0.9,
                                          sigma=1.5),
    "cosine-shear": catalog_coefficient("cosine-shear", amplitude=1.1),
}
FLOW = FlowConfig(32, adaptive=True)
REFINE = 16


def driver(seed, steps=64, scale=1.0):
    return sample_jump_driver(1.0, steps, 2, seed, jump_rate=3.0,
                              jump_law={"kind": "uniform-ball",
                                        "radius": 0.3 * scale},
                              diffusion_scale=scale)


def check_delta(dz, f, dom):
    """The schemes' jump guard on one cell increment."""
    stop = _admissible_cells(dz[None], f.sup_f, dom.rho0)[1]
    if stop is not None:
        raise stop


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_output(a, b):
    for u, v in ((a.x.times, b.x.times), (a.x.values, b.x.values),
                 (a.k.values, b.k.values), (a.y.values, b.y.values),
                 (a.k_variation, b.k_variation)):
        assert same_bits(u, v)
    assert a.meta == b.meta


def loop_reference(dom, f, x0, z, refine, cfg):
    """The reference path stepped one cell at a time: x, y and k-variation,
    or the (type, text) of the error that stops it."""
    adapted = jump_adapted_partition(z, refine).points
    pts = np.union1d(adapted, z.times[z.times <= adapted[-1]])
    x = np.asarray(x0, dtype=float)
    xs, ys, kvar = [x], [x], [0.0]
    try:
        for dz in np.diff(z.value_at(pts), axis=0):
            check_delta(dz, f, dom)
            target = oracle_jump(f, dz, x, 1.0, cfg)
            nxt, _, dk_norm = guarded_step(dom, target, dom.rho0)
            ys.append(ys[-1] + (target - x))
            kvar.append(kvar[-1] + dk_norm)
            xs.append(nxt)
            x = nxt
    except ReflectedSDEError as exc:
        return type(exc), str(exc)
    return np.array(xs), np.array(ys), np.array(kvar)


def alone(dom, f, x0, z, cfg=FLOW):
    """``build_reference`` of one driver, or the (type, text) it raises."""
    try:
        return build_reference(dom, f, x0, z, REFINE, flow_cfg=cfg)
    except ReflectedSDEError as exc:
        return type(exc), str(exc)


def assert_block_matches_alone(dom, f, x0, drivers, cfg=FLOW):
    block = build_references(dom, f, x0, drivers, REFINE, flow_cfg=cfg)
    assert len(block) == len(drivers)
    for z, got in zip(drivers, block):
        want = alone(dom, f, x0, z, cfg)
        loop = loop_reference(dom, f, x0, z, REFINE, cfg)
        if isinstance(want, tuple):
            assert (type(got), str(got)) == want == loop
        else:
            assert_same_output(got, want)
            xs, ys, kvar = loop
            assert same_bits(got.x.values, xs) and same_bits(got.y.values, ys)
            assert same_bits(got.k_variation, kvar)
    return block


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
@pytest.mark.parametrize("dom, x0", DOMAINS, ids=[d.kind for d, _ in DOMAINS])
def test_block_of_16_matches_each_path_alone(dom, x0, name):
    f = COEFFICIENTS[name]
    drivers = [driver(seed) for seed in range(16)]
    block = assert_block_matches_alone(dom, f, x0, drivers)
    assert sum(ref.meta.projections for ref in block) > 0


def test_block_matches_alone_with_the_reference_flow():
    dom, x0 = DOMAINS[4]
    f = COEFFICIENTS["gauss-rotation"]
    drivers = [driver(seed, steps=32) for seed in range(3)]
    assert_block_matches_alone(dom, f, x0, drivers, cfg=REFERENCE_FLOW)


def test_block_size_and_order_do_not_change_a_path():
    dom, x0 = DOMAINS[1]
    f = COEFFICIENTS["cosine-shear"]
    drivers = [driver(seed) for seed in range(6)]
    whole = build_references(dom, f, x0, drivers, REFINE, flow_cfg=FLOW)
    reverse = build_references(dom, f, x0, drivers[::-1], REFINE,
                               flow_cfg=FLOW)[::-1]
    pairs = build_references(dom, f, x0, drivers[:2], REFINE, flow_cfg=FLOW)
    for a, b in zip(whole, reverse):
        assert_same_output(a, b)
    for a, b in zip(whole, pairs):
        assert_same_output(a, b)


def with_step(z, index, step):
    values = z.values.copy()
    values[index:] += step
    return GridPath(z.times, values, interp=CADLAG_STEP)


def test_failing_paths_fail_alone_in_their_block():
    """JumpTooLarge (a jump of 1.5 against rho0 = 0.6) and
    ProjectionOutOfRange (a step into the hole, from its edge, that passes
    the jump guard) fail only their own path, with the error it raises
    alone."""
    dom, x0 = ExteriorOfBall([0.0, 0.0], 0.6), (0.6, 0.0)
    f = catalog_coefficient("gauss-rotation", amplitude=1.0, sigma=100.0)
    drivers = [driver(seed) for seed in range(8)]
    # the field is about the rotation by a quarter turn: dz along +y moves
    # the state along -x, from the hole's edge almost to its center
    steps = np.zeros((65, 2))
    steps[40, 1] = 0.599
    into_hole = GridPath(np.linspace(0.0, 1.0, 65), np.cumsum(steps, axis=0),
                         interp=CADLAG_STEP)
    drivers[2] = with_step(drivers[2], 30, np.array([1.5, 0.0]))
    drivers[5] = into_hole
    block = assert_block_matches_alone(dom, f, x0, drivers)
    errors = [type(r) for r in block if isinstance(r, ReflectedSDEError)]
    assert errors == [JumpTooLarge, ProjectionOutOfRange]
    assert isinstance(block[2], JumpTooLarge)
    assert isinstance(block[5], ProjectionOutOfRange)


def test_non_finite_path_fails_alone_in_its_block():
    dom, x0 = HalfSpace([1.0, 0.0], -10.0), (1.0, 1.0)
    f = linear_diagonal(1.0, 2, region_radius=1e9)
    drivers = [driver(seed) for seed in range(4)]
    drivers[1] = with_step(drivers[1], 20, np.array([80.0, 0.0]))
    block = assert_block_matches_alone(dom, f, x0, drivers)
    assert [isinstance(r, NonFinite) for r in block] == [False, True, False,
                                                         False]


def test_start_outside_fails_every_path():
    dom = Ball([0.0, 0.0], 1.0)
    f = COEFFICIENTS["gauss-rotation"]
    block = build_references(dom, f, (2.0, 0.0), [driver(0), driver(1)],
                             REFINE, flow_cfg=FLOW)
    assert all(isinstance(r, StartOutsideDomain) for r in block)


def loop_wz_hat(dom, f, x0, z, spec):
    """wz-hat stepped one cell at a time: for each cell the jump guard, the
    cell flow sampled at the output times inside it, then the grid step.
    Returns the output times, x, k, y and k-variation, or the (type, text)
    of the error that stops it."""
    cfg, pts = spec.flow_cfg, spec.partition.points
    out_t = pts
    if spec.observation_times is not None:
        out_t = np.union1d(pts, spec.observation_times)
    start = np.asarray(x0, dtype=float)
    X, K, Y = (np.empty((len(out_t), len(start))) for _ in range(3))
    kvar = np.empty(len(out_t))
    X[0], K[0], Y[0], kvar[0] = start, 0.0, start, 0.0
    grid_slot = np.searchsorted(out_t, pts)
    state, k_run, y_run, kvar_run = start, np.zeros(len(start)), start, 0.0
    try:
        for k, dz in enumerate(np.diff(z.value_at(pts), axis=0)):
            check_delta(dz, f, dom)
            cur, u_prev = state, 0.0
            for slot in range(grid_slot[k] + 1, grid_slot[k + 1]):
                u = (out_t[slot] - pts[k]) / (pts[k + 1] - pts[k])
                cur = oracle_jump(f, dz, cur, u - u_prev, cfg)
                X[slot], K[slot], kvar[slot] = cur, k_run, kvar_run
                Y[slot] = y_run + (cur - state)
                u_prev = u
            left = oracle_jump(f, dz, state, 1.0, cfg)
            nxt, dk, dk_norm = guarded_step(dom, left, dom.rho0)
            y_run, k_run = y_run + (left - state), k_run + dk
            kvar_run += dk_norm
            slot = grid_slot[k + 1]
            X[slot], K[slot], Y[slot], kvar[slot] = nxt, k_run, y_run, kvar_run
            state = nxt
    except ReflectedSDEError as exc:
        return type(exc), str(exc)
    return out_t, X, K, Y, kvar


def scheme_alone(dom, f, x0, z, spec):
    """``run_scheme`` of one driver, or the (type, text) it raises."""
    try:
        return run_scheme(dom, f, x0, z, spec)
    except ReflectedSDEError as exc:
        return type(exc), str(exc)


def assert_schemes_match_alone(dom, f, x0, drivers, spec):
    block = run_schemes(dom, f, x0, drivers, spec)
    assert len(block) == len(drivers)
    for z, got in zip(drivers, block):
        want = scheme_alone(dom, f, x0, z, spec)
        if isinstance(want, tuple):
            assert (type(got), str(got)) == want
        else:
            assert_same_output(got, want)
        if spec.kind != "wz-hat":
            continue
        loop = loop_wz_hat(dom, f, x0, z, spec)
        if isinstance(want, tuple):
            assert want == loop
        else:
            for a, b in zip((got.x.times, got.x.values, got.k.values,
                             got.y.values, got.k_variation), loop):
                assert same_bits(a, b)
    return block


OBSERVED = np.linspace(0.0, 1.0, 41)[1:-1:3]


def scheme_spec(kind, cells=16, observation_times=None, **kw):
    return SchemeSpec(kind=kind, partition=Partition.uniform(1.0, cells),
                      flow_cfg=FLOW, observation_times=observation_times,
                      **kw)


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
@pytest.mark.parametrize("kind, observed", [
    ("projection", None), ("jump-adapted", None), ("wz-hat", None),
    ("wz-hat", OBSERVED), ("wz-bar", None), ("marcus-euler", OBSERVED),
    ("wz-bar", OBSERVED), ("marcus-euler", None)],
    ids=["projection", "jump-adapted", "wz-hat", "wz-hat-observed",
         "wz-bar", "marcus-euler", "wz-bar-observed", "marcus-euler-grid"])
@pytest.mark.parametrize("dom, x0", [(DOMAINS[1][0], (0.95, -0.2)),
                                     DOMAINS[4]],
                         ids=[DOMAINS[1][0].kind, DOMAINS[4][0].kind])
def test_run_schemes_match_each_path_alone(dom, x0, kind, observed, name):
    f = COEFFICIENTS[name]
    drivers = [driver(seed, steps=32, scale=0.4) for seed in range(8)]
    spec = scheme_spec(kind, observation_times=observed, substeps_bar=8)
    block = assert_schemes_match_alone(dom, f, x0, drivers, spec)
    assert all(not isinstance(out, ReflectedSDEError) for out in block)
    assert sum(out.meta.projections for out in block) > 0


def test_run_schemes_block_size_and_order_do_not_change_a_path():
    """Blocks of 16, 5 + 5 + 5 + 1 and 1, and the reverse order, give each
    path the same output."""
    dom, x0 = DOMAINS[4]
    f = COEFFICIENTS["gauss-rotation"]
    drivers = [driver(seed, steps=32, scale=0.4) for seed in range(16)]
    spec = scheme_spec("wz-hat", observation_times=OBSERVED)
    whole = run_schemes(dom, f, x0, drivers, spec)
    reverse = run_schemes(dom, f, x0, drivers[::-1], spec)[::-1]
    fives = [out for first in range(0, 16, 5)
             for out in run_schemes(dom, f, x0, drivers[first:first + 5],
                                    spec)]
    ones = [run_scheme(dom, f, x0, z, spec) for z in drivers]
    for other in (reverse, fives, ones):
        for a, b in zip(whole, other, strict=True):
            assert_same_output(a, b)


def into_the_hole(cell, cells=16):
    """A driver still but for one step of 0.599 along -x at ``cell``: from
    (0.6, 0) at the edge of the hole of radius 0.6 it passes the jump guard
    and lands almost at the hole's center."""
    steps = np.zeros((cells + 1, 2))
    steps[cell + 1, 0] = -0.599
    return GridPath(np.linspace(0.0, 1.0, cells + 1),
                    np.cumsum(steps, axis=0), interp=CADLAG_STEP)


@pytest.mark.parametrize("f", [
    constant_matrix(np.eye(2)),
    catalog_coefficient("gauss-rotation", amplitude=1.0, sigma=100.0)],
    ids=["constant", "gauss-rotation"])
def test_wz_hat_errors_keep_their_cell_order(f):
    """Each cell's interior is sampled before its grid step, and no cell
    after the first failure is sampled: a NaN increment (NonFinite in its
    interior) after a failing grid step or jump guard does not show, and
    one before them does.  Each path fails alone with the loop's error."""
    dom, x0 = ExteriorOfBall([0.0, 0.0], 0.6), (0.6, 0.0)
    nan = np.array([np.nan, 0.0])
    # the identity maps the step to (0.001, 0); the quarter turn sends
    # the step along +y to about the same point
    hole = into_the_hole(4)
    if f.matrix is None:
        hole = GridPath(hole.times, hole.values[:, ::-1] * [1.0, -1.0],
                        interp=CADLAG_STEP)
    big = with_step(into_the_hole(15), 6, np.array([0.0, 1.5]))
    drivers = [
        driver(1, steps=16, scale=0.4),
        with_step(hole, 10, nan),            # hole first
        with_step(into_the_hole(12), 3, nan),  # NaN first
        with_step(big, 9, nan),              # jump guard first
        with_step(driver(2, steps=16, scale=0.4), 5, nan),
        driver(3, steps=16, scale=0.4),
    ]
    spec = scheme_spec("wz-hat", observation_times=OBSERVED)
    block = assert_schemes_match_alone(dom, f, x0, drivers, spec)
    assert [type(r).__name__ for r in block] == [
        "SchemeOutput", "ProjectionOutOfRange", "NonFinite", "JumpTooLarge",
        "NonFinite", "SchemeOutput"]


def test_paths_of_a_nan_field_fail_alone():
    """A field that is NaN everywhere fails every path that steps, with its
    error alone; a path stopped by the jump guard at its first cell never
    steps, keeps its JumpTooLarge, and its idle lane raises nothing while
    the others step."""
    f = Coefficient("nan-field", 2,
                    lambda x: np.full(x.shape[:-1] + (2, 2), np.nan),
                    sup_f=1e-6)
    dom, x0 = DOMAINS[4]
    drivers = [driver(1, steps=16, scale=0.4),
               with_step(driver(2, steps=16, scale=0.4), 1,
                         np.array([1e6, 0.0])),
               driver(3, steps=16, scale=0.4)]
    for spec in (scheme_spec("projection"),
                 scheme_spec("wz-hat", observation_times=OBSERVED)):
        block = assert_schemes_match_alone(dom, f, x0, drivers, spec)
        assert [type(r) for r in block] == [NonFinite, JumpTooLarge,
                                            NonFinite]
    block = assert_block_matches_alone(dom, f, x0, drivers)
    assert [type(r) for r in block] == [NonFinite, JumpTooLarge, NonFinite]


def cell_interiors(f, cfg, dzs, pts, out_t, xs, cells):
    """(slot, cell k, state) of each output time strictly inside the first
    ``cells`` cells: the flow of f(.) dz_k from the grid value xs[k],
    carried from one output time to the next, one slot at a time."""
    grid_slot = np.searchsorted(out_t, pts)
    samples = []
    for k in range(cells):
        lo, hi = grid_slot[k] + 1, grid_slot[k + 1]
        t0, dt = pts[k], pts[k + 1] - pts[k]
        cur, u_prev = xs[k], 0.0
        for slot in range(lo, hi):
            u = (out_t[slot] - t0) / dt
            cur = oracle_jump(f, dzs[k], cur, u - u_prev, cfg)
            samples.append((slot, k, cur))
            u_prev = u
    return samples


def assert_interiors_are_the_per_slot_sampler(f, z, out, spec):
    """The times inside the cells of a wz-hat output are the per-slot
    sampler's flow from its own grid values: X is the sample, Y moves with
    X from the cell's left end, and K and the k-variation stay there."""
    pts, out_t = spec.partition.points, out.x.times
    grid_slot = np.searchsorted(out_t, pts)
    xs = out.x.values[grid_slot]
    dzs = np.diff(z.value_at(pts), axis=0)
    samples = cell_interiors(f, spec.flow_cfg, dzs, pts, out_t, xs,
                             len(pts) - 1)
    assert len(samples) == len(out_t) - len(pts) > 0
    for slot, k, x in samples:
        left = grid_slot[k]
        assert same_bits(out.x.values[slot], x)
        assert same_bits(out.y.values[slot],
                         out.y.values[left] + (x - xs[k]))
        assert same_bits(out.k.values[slot], out.k.values[left])
        assert out.k_variation[slot] == out.k_variation[left]


# output times next to every cell end, on both sides, and one inside
_ENDS = np.linspace(0.0, 1.0, 17)
NEAR_ENDS = np.concatenate([np.nextafter(_ENDS[1:], -np.inf),
                            np.nextafter(_ENDS[:-1], np.inf),
                            _ENDS[:-1] + 1e-9, _ENDS[1:] - 1e-9,
                            _ENDS[:-1] + 0.37 / 16])
SAMPLER_COEFFICIENTS = {
    "constant": constant_matrix([[0.8, 0.2], [-0.3, 0.9]]),
    "gauss-rotation": COEFFICIENTS["gauss-rotation"],
    "linear-diagonal": linear_diagonal(0.7, 2, region_radius=2.0),
    "full-field": full_field(),
}


@pytest.mark.parametrize("name", sorted(SAMPLER_COEFFICIENTS))
@pytest.mark.parametrize("dom, x0", [DOMAINS[0], DOMAINS[2], DOMAINS[4]],
                         ids=[DOMAINS[i][0].kind for i in (0, 2, 4)])
def test_wz_hat_sampler_is_the_per_slot_sampler(dom, x0, name):
    """Blocks of 16, 5 + 5 + 5 + 1 and 1, and the reverse order, sample
    every path's interiors bitwise as the per-slot sampler does, at output
    times a few ulps and 1e-9 from the cell ends."""
    f = SAMPLER_COEFFICIENTS[name]
    drivers = [driver(seed, steps=32, scale=0.2) for seed in range(16)]
    spec = scheme_spec("wz-hat", observation_times=NEAR_ENDS)
    whole = assert_schemes_match_alone(dom, f, x0, drivers, spec)
    reverse = run_schemes(dom, f, x0, drivers[::-1], spec)[::-1]
    fives = [out for first in range(0, 16, 5)
             for out in run_schemes(dom, f, x0, drivers[first:first + 5],
                                    spec)]
    done = 0
    for z, out, other, five in zip(drivers, whole, reverse, fives,
                                   strict=True):
        if isinstance(out, ReflectedSDEError):
            assert (type(other), str(other)) == (type(out), str(out))
            assert (type(five), str(five)) == (type(out), str(out))
            continue
        assert_same_output(out, other)
        assert_same_output(out, five)
        assert_interiors_are_the_per_slot_sampler(f, z, out, spec)
        done += 1
    assert done >= 12


def with_nan(z, index):
    """``z`` with a NaN sample at ``index``: the cells on both sides of it
    have NaN increments."""
    values = z.values.copy()
    values[index] = np.nan
    return GridPath(z.times, values, interp=CADLAG_STEP)


@pytest.mark.parametrize("f", [
    constant_matrix(np.eye(2)),
    catalog_coefficient("gauss-rotation", amplitude=1.0, sigma=100.0)],
    ids=["constant", "gauss-rotation"])
def test_wz_hat_nan_interiors_next_to_a_failing_cell(f):
    """A NaN increment in the interior of the cell before a failing step or
    jump guard fails the path with NonFinite; in the cell after it, the
    failing cell's error stands.  Each path fails alone with the loop's
    error, in blocks in either order."""
    dom, x0 = ExteriorOfBall([0.0, 0.0], 0.6), (0.6, 0.0)
    hole = into_the_hole(8)
    if f.matrix is None:
        hole = GridPath(hole.times, hole.values[:, ::-1] * [1.0, -1.0],
                        interp=CADLAG_STEP)
    noise = np.random.default_rng(4).normal(0.0, 0.02, (17, 2))
    noise[0] = 0.0
    big = with_step(GridPath(hole.times, np.cumsum(noise, axis=0),
                             interp=CADLAG_STEP), 9, np.array([0.0, 1.5]))
    # sample 7 makes cells 6 and 7 NaN, sample 10 cells 9 and 10
    drivers = [with_nan(hole, 7), with_nan(hole, 10), with_nan(big, 7),
               with_nan(big, 10), driver(3, steps=16, scale=0.4)]
    spec = scheme_spec("wz-hat", observation_times=NEAR_ENDS)
    for block in (drivers, drivers[::-1]):
        results = assert_schemes_match_alone(dom, f, x0, block, spec)
        if block is not drivers:
            results = results[::-1]
        assert [type(r).__name__ for r in results] == [
            "NonFinite", "ProjectionOutOfRange", "NonFinite", "JumpTooLarge",
            "SchemeOutput"]


@pytest.mark.parametrize("low", ["nan", "blow-up"])
def test_sampler_keeps_the_lowest_failing_cell(low):
    """Whichever of its lanes fails first in the engine's iterations, a
    chain keeps the per-slot sampler's error: that of its lowest failing
    cell.  A NaN increment fails before any step, a blow-up only after
    several."""
    f = linear_diagonal(1.0, 2, region_radius=1e9)
    part = Partition.uniform(1.0, 4)
    out_t = np.union1d(part.points, NEAR_ENDS)
    dzs = np.full((4, 2), 0.1)
    nan_cell, blow_cell = (1, 3) if low == "nan" else (3, 1)
    dzs[nan_cell] = np.nan
    dzs[blow_cell] = [60.0, 0.0]
    chain = _Chain(np.ones(2), part, dzs, f.sup_f, math.inf, out_t)
    chain.path[:] = 1.0
    _sample_interiors(f, FLOW, [chain])
    with pytest.raises(NonFinite) as want:
        cell_interiors(f, FLOW, dzs, part.points, out_t, chain.path, 4)
    assert (type(chain.sample_error), str(chain.sample_error)) == (
        NonFinite, str(want.value))
    assert ("nan" in str(want.value)) == (low == "nan")
    # the cells below the failing one are sampled
    assert {k for _, k, _ in chain.samples} >= set(range(min(nan_cell,
                                                             blow_cell)))
