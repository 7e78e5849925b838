"""References built for a block of paths against each path built alone.

``build_references`` steps the paths of a block in lockstep by cell index,
and ``build_reference`` is its batch of one.  Every path's output must be
bitwise the one ``build_reference`` gives for its driver alone, and the one
of the step-by-step loop through the single-row jump map kept here as the
oracle; a path that fails must fail with the error it raises alone and in
that loop, without changing any other path of its block.
"""

import numpy as np
import pytest

from reflectsde.driver import (CADLAG_STEP, GridPath, jump_adapted_partition,
                               sample_jump_driver)
from reflectsde.errors import (JumpTooLarge, NonFinite, ProjectionOutOfRange,
                               ReflectedSDEError, StartOutsideDomain)
from reflectsde.flow import (REFERENCE_FLOW, FlowConfig, catalog_coefficient,
                             linear_diagonal, marcus_jump)
from reflectsde.geometry import (Ball, Box, ConvexPolyhedron, ExteriorOfBall,
                                 HalfSpace)
from reflectsde.schemes import (_check_delta, build_reference,
                                build_references)
from reflectsde.skorokhod import guarded_step

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


def driver(seed, steps=64):
    return sample_jump_driver(1.0, steps, 2, seed, jump_rate=3.0,
                              jump_law={"kind": "uniform-ball", "radius": 0.3},
                              diffusion_scale=1.0)


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
            _check_delta(dz, f.sup_f, dom.rho0)
            target = marcus_jump(f, dz, x, cfg)
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
