"""marcus-euler through ``project_steps`` against the per-cell loop.

The scheme computes every cell's continuous increment, covariation and
recorded jumps up front and steps its cells through the shared projection
core.  The loop below, which walks each cell's driver samples and projects
one cell at a time, is kept as the oracle: the scheme's output must be
bitwise the loop's, and a run that fails must raise the loop's error, of the
same type and with the same message, at the same cell.
"""

import dataclasses
import math

import numpy as np
import pytest

from reflectsde.driver import (CADLAG_STEP, GridPath, Partition,
                               sample_brownian, sample_jump_driver)
from reflectsde.errors import (JumpTooLarge, NonFinite, ProjectionOutOfRange,
                               ReflectedSDEError)
from reflectsde.flow import (FlowConfig, catalog_coefficient, constant_matrix,
                             linear_diagonal, marcus_jump)
from reflectsde.geometry import (Ball, Box, ConvexPolyhedron, ExteriorOfBall,
                                 HalfSpace)
from reflectsde.schemes import SchemeSpec, run_scheme
from reflectsde.skorokhod import guarded_step

# (domain, start point near its boundary) for each kind
DOMAINS = [
    (HalfSpace([0.3, 1.0], -0.2), (0.3, -0.25)),
    (Ball([0.1, -0.2], 1.0), (1.0, -0.1)),
    (Box([-1.0, -0.5], [1.0, 0.7]), (0.9, 0.6)),
    (ConvexPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [-1.0, 0.3]],
                      [-1.0, -1.0, -1.0, -1.2]), (0.48, 0.48)),
    (ExteriorOfBall([0.0, 0.0], 0.6), (0.7, 0.1)),
]
COEFFICIENTS = {
    "constant": constant_matrix([[0.7, -0.3], [0.2, 1.1]]),
    "gauss-rotation": catalog_coefficient("gauss-rotation", amplitude=0.9,
                                          sigma=1.5),
    "linear-diagonal": linear_diagonal(0.4, 2, region_radius=2.0),
}
FLOW = FlowConfig(32, adaptive=True)
OBSERVED = np.linspace(0.0, 1.0, 41)[1:-1:3]


def driver(seed, jumps=True, steps=128):
    """A step path with jumps, or a piecewise-linear Brownian path."""
    if not jumps:
        return sample_brownian(1.0, steps, 2, seed, scale=0.6)
    return sample_jump_driver(1.0, steps, 2, seed, jump_rate=3.0,
                              jump_law={"kind": "uniform-ball", "radius": 0.3},
                              diffusion_scale=0.6)


# cells of about 4 driver samples, cells with none or with no sample at
# their right end, and a horizon short of the driver's
PARTITIONS = [Partition.uniform(1.0, 32), Partition.uniform(1.0, 200),
              Partition.uniform(0.7, 20)]


def spec(partition, observation_times=None):
    return SchemeSpec(kind="marcus-euler", partition=partition, flow_cfg=FLOW,
                      observation_times=observation_times)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def loop_marcus_euler(domain, f, x0, z, spec):
    """marcus-euler one cell at a time: the jump guard, the walk over the
    driver's samples in the cell, then one projected step.  Returns the
    output times, x, k, y, k-variation and meta, or the (type, text) of the
    error that stops it."""
    start = np.asarray(x0, dtype=float)
    rho0, cfg = domain.rho0, spec.flow_cfg
    pts = spec.partition.points
    zvals = z.value_at(pts)
    d = len(start)
    n = len(pts)
    states, ks, ys = (np.empty((n, d)) for _ in range(3))
    kvar = np.empty(n)
    states[0], ks[0], ys[0], kvar[0] = start, 0.0, start, 0.0
    dk_count = 0
    inner = np.searchsorted(z.times, pts, side="right")
    jump_set = {float(t): v for t, v in zip(z.jump_times, z.jump_values)}
    state = start
    try:
        for k in range(n - 1):
            dz = zvals[k + 1] - zvals[k]
            if math.isfinite(rho0):
                dz_norm = math.sqrt(dz.dot(dz))
                if dz_norm * f.sup_f >= rho0:
                    raise JumpTooLarge(
                        f"increment norm {dz_norm:.6g} times coefficient "
                        f"bound {f.sup_f:.6g} reaches the projection radius "
                        f"{rho0:.6g}")
            seq_t, seq_v = [pts[k]], [zvals[k]]
            for i in range(inner[k], inner[k + 1]):
                if z.times[i] > pts[k]:
                    seq_t.append(float(z.times[i]))
                    seq_v.append(z.values[i])
            if seq_t[-1] != pts[k + 1]:
                seq_t.append(float(pts[k + 1]))
                seq_v.append(zvals[k + 1])
            dzc, qc, jumps = np.zeros(d), np.zeros((d, d)), []
            for i in range(1, len(seq_t)):
                delta = seq_v[i] - seq_v[i - 1]
                jv = jump_set.get(seq_t[i])
                if jv is not None:
                    jumps.append(jv)
                    delta = delta - jv
                dzc += delta
                qc += np.outer(delta, delta)
            incr = f.field(state, dzc)
            if np.any(qc):
                corr = f.correction(state)
                incr = incr + 0.5 * np.einsum("ijm,jm->i", corr, qc)
            for jv in jumps:
                incr = incr + (marcus_jump(f, jv, state, cfg) - state)
            state, dk, dk_norm = guarded_step(domain, (state + incr).tolist(),
                                              rho0)
            state = np.array(state)
            states[k + 1], ys[k + 1], ks[k + 1] = state, ys[k] + incr, ks[k] + dk
            kvar[k + 1] = kvar[k] + dk_norm
            dk_count += dk_norm > 0.0
    except ReflectedSDEError as exc:
        return type(exc), str(exc)
    out_t = pts
    if spec.observation_times is not None:
        obs = spec.observation_times
        out_t = np.union1d(pts, obs[(obs >= 0.0) & (obs <= pts[-1])])
    idx = np.clip(np.searchsorted(pts, out_t, side="right") - 1, 0, n - 1)
    X = states[idx]
    meta = {"scheme": "marcus-euler", "mesh": spec.partition.mesh,
            "projections": dk_count,
            "boundary_hits": domain.boundary_count(X)}
    return out_t, X, ks[idx], ys[idx], kvar[idx], meta


def scheme_or_error(domain, f, x0, z, spec):
    try:
        out = run_scheme(domain, f, x0, z, spec)
    except ReflectedSDEError as exc:
        return type(exc), str(exc)
    return (out.x.times, out.x.values, out.k.values, out.y.values,
            out.k_variation, dataclasses.asdict(out.meta))


def assert_matches_loop(domain, f, x0, z, spec):
    got = scheme_or_error(domain, f, x0, z, spec)
    want = loop_marcus_euler(domain, f, x0, z, spec)
    if isinstance(want[0], type):
        assert got == want
        return None
    for a, b in zip(got[:-1], want[:-1], strict=True):
        assert same_bits(a, b)
    assert got[-1] == want[-1]
    return got


@pytest.mark.parametrize("jumps", [False, True], ids=["no-jumps", "jumps"])
@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
@pytest.mark.parametrize("dom, x0", DOMAINS, ids=[d.kind for d, _ in DOMAINS])
def test_marcus_euler_is_bitwise_the_loop(dom, x0, name, jumps):
    f = COEFFICIENTS[name]
    projections = 0
    for seed in range(3):
        z = driver(seed, jumps)
        assert (len(z.jump_times) > 0) == jumps
        for partition in PARTITIONS:
            for obs in (None, OBSERVED):
                got = assert_matches_loop(dom, f, x0, z, spec(partition, obs))
                assert got is not None
                projections += got[-1]["projections"]
    assert projections > 0


def with_step(z, index, step):
    """z with ``step`` added to every sample from ``index`` on, recorded as
    a jump at that sample."""
    values = z.values.copy()
    values[index:] += step
    return GridPath(z.times, values, interp=CADLAG_STEP,
                    jump_times=z.times[index:index + 1],
                    jump_values=np.reshape(step, (1, 2)))


def wiggle(cells=16):
    """A small deterministic motion on a uniform grid of ``cells`` steps."""
    steps = 0.02 * np.column_stack((np.sin(np.arange(cells + 1)),
                                    np.cos(np.arange(cells + 1))))
    steps[0] = 0.0
    return GridPath(np.linspace(0.0, 1.0, cells + 1), np.cumsum(steps, axis=0),
                    interp=CADLAG_STEP)


def on_grid(z, samples=None):
    """marcus-euler on the driver's own grid, cut after ``samples`` samples,
    so cell k ends at sample k + 1."""
    return SchemeSpec(kind="marcus-euler",
                      partition=Partition(z.times[:samples]), flow_cfg=FLOW)


def assert_fails_at(dom, f, x0, z, index, error):
    """The run fails like the loop, with ``error`` at the cell ending at
    sample ``index``: the run up to that cell raises nothing."""
    got = scheme_or_error(dom, f, x0, z, on_grid(z))
    assert got[0] is error
    assert got == loop_marcus_euler(dom, f, x0, z, on_grid(z))
    assert assert_matches_loop(dom, f, x0, z, on_grid(z, index)) is not None
    return got


def test_jump_too_large_is_raised_at_its_cell():
    """The guard stops the run at the cell of the first oversized
    increment, once the cells before it are stepped: a NaN after it does
    not show."""
    dom, x0 = ExteriorOfBall([0.0, 0.0], 0.6), (0.7, 0.1)
    f = COEFFICIENTS["gauss-rotation"]
    z = with_step(wiggle(), 6, np.array([0.0, 1.5]))
    got = assert_fails_at(dom, f, x0, z, 6, JumpTooLarge)
    assert "reaches the projection radius 0.6" in got[1]
    values = z.values.copy()
    values[11:] += np.nan
    after = GridPath(z.times, values, interp=CADLAG_STEP)
    assert assert_fails_at(dom, f, x0, after, 6, JumpTooLarge) == got


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
def test_non_finite_jump_transport_is_raised_at_its_cell(name):
    """A NaN jump fails in its transport, before the cell is projected."""
    dom, x0 = ExteriorOfBall([0.0, 0.0], 0.6), (0.7, 0.1)
    f = COEFFICIENTS[name]
    z = with_step(wiggle(), 3, np.array([np.nan, 0.0]))
    got = assert_fails_at(dom, f, x0, z, 3, NonFinite)
    assert "step excursion" not in got[1]


def test_blown_up_jump_transport_raises_nonfinite():
    """A jump that carries the linear field past the finite-value guard
    fails inside its RK4 transport."""
    f = linear_diagonal(1.0, 2, region_radius=1e9)
    z = with_step(wiggle(), 5, np.array([40.0, 0.0]))
    got = assert_fails_at(Box([-1e30, -1e30], [1e30, 1e30]), f, (1.0, 1.0),
                          z, 5, NonFinite)
    assert "finite-value guard" in got[1]


def test_projection_out_of_range_is_raised_at_its_cell():
    """A still driver but for one step of 0.599 towards the hole's center:
    under the jump guard (0.599 < rho0 = 0.6), but its target lies 0.599
    from the closure, past the 0.99 rho0 excursion margin.  A later
    oversized increment does not show."""
    dom, x0 = ExteriorOfBall([0.0, 0.0], 0.6), (0.6, 0.0)
    f = constant_matrix(np.eye(2))
    still = GridPath(np.linspace(0.0, 1.0, 17), np.zeros((17, 2)),
                     interp=CADLAG_STEP)
    z = with_step(still, 4, np.array([-0.599, 0.0]))
    got = assert_fails_at(dom, f, x0, z, 4, ProjectionOutOfRange)
    values = z.values.copy()
    values[12:] += [1.5, 0.0]
    later = GridPath(z.times, values, interp=CADLAG_STEP,
                     jump_times=z.jump_times, jump_values=z.jump_values)
    assert assert_fails_at(dom, f, x0, later, 4, ProjectionOutOfRange) == got
