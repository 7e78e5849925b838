"""Driver paths: sampling determinism, transforms, and partitions."""

import math

import numpy as np
import pytest

import reflectsde.driver as driver_module
from reflectsde.driver import (CADLAG_STEP, LINEAR, GridPath, Partition,
                               jump_adapted_partition, path_seed,
                               sample_brownian, sample_jump_driver)
from reflectsde.errors import JumpTooLarge
from reflectsde.schemes import _admissible_cells, _continuous_parts


def step_path():
    return GridPath(
        times=np.array([0.0, 1.0, 2.0, 3.0]),
        values=np.array([[0.0], [1.0], [1.0], [-1.0]]),
        interp=CADLAG_STEP,
        jump_times=np.array([1.0, 3.0]),
        jump_values=np.array([[1.0], [-2.0]]),
    )


def test_grid_path_validation():
    with pytest.raises(ValueError):
        GridPath(np.array([0.5, 1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        GridPath(np.array([0.0, 1.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        GridPath(np.array([0.0, 1.0]), np.zeros(2), interp=LINEAR,
                 jump_times=np.array([1.0]), jump_values=np.array([[1.0]]))
    with pytest.raises(ValueError):
        # jump at a non-grid time
        GridPath(np.array([0.0, 1.0]), np.zeros(2),
                 jump_times=np.array([0.5]), jump_values=np.array([[1.0]]))


def test_value_at_sides():
    z = step_path()
    assert z.value_at(1.0)[0] == 1.0
    assert z.value_at(1.0, side="left")[0] == 0.0
    assert z.value_at(2.5)[0] == 1.0
    assert z.value_at(3.0, side="left")[0] == 1.0
    np.testing.assert_array_equal(z.value_at([0.0, 1.5, 3.0]).ravel(),
                                  [0.0, 1.0, -1.0])


def test_linear_value_at_interpolates():
    z = GridPath(np.array([0.0, 2.0]), np.array([[0.0], [4.0]]), interp=LINEAR)
    assert z.value_at(0.5)[0] == pytest.approx(1.0)


def test_partition_uniform_and_mesh():
    p = Partition.uniform(2.0, 4)
    np.testing.assert_allclose(p.points, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert p.mesh == pytest.approx(0.5)
    assert p.cells == 4
    assert p.horizon == 2.0
    with pytest.raises(ValueError):
        Partition(np.array([0.5, 1.0]))


def test_brownian_sampling_is_deterministic():
    a = sample_brownian(1.0, 64, 2, seed=101)
    b = sample_brownian(1.0, 64, 2, seed=101)
    np.testing.assert_array_equal(a.values, b.values)
    c = sample_brownian(1.0, 64, 2, seed=102)
    assert not np.array_equal(a.values, c.values)
    assert a.interp == LINEAR
    # variance of the endpoint over dimensions should be order 1
    assert np.all(np.abs(a.values[-1]) < 6.0)


def test_jump_driver_rate_zero_matches_brownian():
    """The jump stream is separate, so a rate-0 driver reproduces the
    Brownian samples bitwise."""
    bm = sample_brownian(2.0, 128, 3, seed=55)
    jd = sample_jump_driver(2.0, 128, 3, seed=55, jump_rate=0.0)
    np.testing.assert_array_equal(bm.values, jd.values)
    np.testing.assert_array_equal(bm.times, jd.times)
    assert len(jd.jump_times) == 0


def test_jump_driver_inserts_exact_event_times():
    z = sample_jump_driver(1.0, 32, 2, seed=42, jump_rate=5.0,
                           jump_law={"kind": "uniform-ball", "radius": 0.5})
    assert len(z.jump_times) == len(z.jump_values) > 0
    for t, jv in zip(z.jump_times, z.jump_values):
        assert t in z.times
        assert np.linalg.norm(jv) <= 0.5 + 1e-12
    # the recorded jump accounts for the increment at that time, up to the
    # diffusion motion over the (short) cell that ends there
    for t, v in zip(z.jump_times, z.jump_values):
        i = int(np.searchsorted(z.times, t))
        inc = z.values[i] - z.values[i - 1]
        dt = z.times[i] - z.times[i - 1]
        assert np.linalg.norm(inc - v) <= 6.0 * math.sqrt(dt) * math.sqrt(2.0)


def mask_loop_values(z, seed, diffusion_scale):
    """The driver's values with each jump added through a full-length mask,
    rebuilt from the diffusion stream of ``sample_jump_driver``."""
    gen = driver_module._rng(seed, driver_module._STREAM_DIFFUSION)
    normals = gen.standard_normal((len(z.times) - 1, z.dimension))
    increments = normals * np.sqrt(np.diff(z.times))[:, None] * diffusion_scale
    values = np.vstack([np.zeros(z.dimension), np.cumsum(increments, axis=0)])
    for t, v in zip(z.jump_times, z.jump_values):
        values[z.times >= t] += v
    return values


class CoarseUniform:
    """A generator whose uniform draws are rounded up to multiples of 1/8,
    so that jump times coincide with each other and with grid points."""

    def __init__(self, gen):
        self.gen = gen

    def __getattr__(self, name):
        return getattr(self.gen, name)

    def uniform(self, low, high, size):
        return np.ceil(self.gen.uniform(low, high, size) * 8.0) / 8.0


@pytest.mark.parametrize("seed", [1, 7, 2024, 31337])
def test_jump_additions_match_the_mask_loop(seed, monkeypatch):
    z = sample_jump_driver(1.0, 64, 2, seed, jump_rate=20.0,
                           jump_law={"kind": "uniform-ball", "radius": 0.5},
                           diffusion_scale=0.7)
    assert len(z.jump_times) > 5
    np.testing.assert_array_equal(z.values, mask_loop_values(z, seed, 0.7))

    rng = driver_module._rng
    monkeypatch.setattr(driver_module, "_rng", lambda s, stream: (
        CoarseUniform(rng(s, stream))
        if stream == driver_module._STREAM_JUMPS else rng(s, stream)))
    merged = sample_jump_driver(1.0, 16, 2, seed, jump_rate=40.0,
                                diffusion_scale=0.7)
    # more events than distinct times: some merged, on base grid points
    assert 0 < len(merged.jump_times) <= 8
    assert np.all(np.isin(merged.jump_times, np.linspace(0.0, 1.0, 17)))
    np.testing.assert_array_equal(merged.values,
                                  mask_loop_values(merged, seed, 0.7))


def test_fixed_vector_jump_law():
    z = sample_jump_driver(4.0, 16, 2, seed=9, jump_rate=2.0,
                           jump_law={"kind": "fixed-vector",
                                     "vector": [0.3, -0.1]})
    assert len(z.jump_times) > 0
    for v in z.jump_values:
        np.testing.assert_allclose(v, [0.3, -0.1])


def test_path_seed_is_order_independent():
    seeds_a = [path_seed(7, i) for i in range(10)]
    seeds_b = [path_seed(7, i) for i in reversed(range(10))]
    assert seeds_a == list(reversed(seeds_b))
    assert len(set(seeds_a)) == 10
    assert path_seed(7, 0) != path_seed(8, 0)


def test_jump_adapted_partition_isolates_big_jumps():
    z = GridPath(
        times=np.array([0.0, 0.3, 1.0]),
        values=np.array([[0.0], [1.0], [1.2]]),
        jump_times=np.array([0.3]),
        jump_values=np.array([[1.0]]),
    )
    p = jump_adapted_partition(z, 4)
    assert 0.3 in p.points
    assert p.mesh <= 0.25 + 1e-12
    assert p.points[0] == 0.0 and p.points[-1] == 1.0

    # threshold 1/n too coarse to see a small jump: plain mesh walk
    small = GridPath(
        times=np.array([0.0, 0.31, 1.0]),
        values=np.array([[0.0], [0.1], [0.2]]),
        jump_times=np.array([0.31]),
        jump_values=np.array([[0.1]]),
    )
    q = jump_adapted_partition(small, 2)
    assert 0.31 not in q.points
    np.testing.assert_allclose(q.points, [0.0, 0.5, 1.0])


def cell_parts(z, cells):
    """marcus-euler's continuous increments, covariations and recorded
    jumps of the cells of a uniform partition of z's horizon."""
    pts = Partition.uniform(z.horizon, cells).points
    return _continuous_parts(z, pts, z.value_at(pts))


def test_quadratic_variation_split_is_jump_aware():
    """Each cell increment splits into its continuous part and its recorded
    jumps, and the covariation sees only the continuous part."""
    z = step_path()
    dzcs, qcs, jumps = cell_parts(z, 3)
    # increments are +1 (jump), 0, -2 (jump)
    np.testing.assert_array_equal(dzcs, np.zeros((3, 1)))
    np.testing.assert_array_equal(qcs, np.zeros((3, 1, 1)))
    assert [j.ravel().tolist() for j in jumps] == [[1.0], [], [-2.0]]


def test_quadratic_variation_mixed_cell():
    """Diffusion sharing a cell with a jump goes to the continuous part,
    summed over the driver's own samples in the cell."""
    z = GridPath(
        times=np.array([0.0, 0.5, 1.0]),
        values=np.array([[0.0], [0.2], [1.5]]),
        jump_times=np.array([1.0]),
        jump_values=np.array([[1.0]]),
    )
    dzcs, qcs, jumps = cell_parts(z, 1)
    assert dzcs[0, 0] == pytest.approx(0.2 + 0.3)
    assert qcs[0, 0, 0] == pytest.approx(0.2 ** 2 + 0.3 ** 2)
    assert [j.ravel().tolist() for j in jumps] == [[1.0]]


def test_brownian_quadratic_variation_approaches_horizon():
    """The covariations sum the squared sample increments, whatever the
    partition, and their trace approaches the horizon."""
    z = sample_brownian(1.0, 4096, 1, seed=31)
    _, fine, jumps = cell_parts(z, 4096)
    _, coarse, _ = cell_parts(z, 64)
    assert fine.sum() == pytest.approx(1.0, abs=0.1)
    assert coarse.sum() == pytest.approx(fine.sum(), rel=1e-12)
    assert all(len(j) == 0 for j in jumps)


def test_check_jump_condition():
    """The schemes' jump guard passes the leading cells with
    |dZ| * bound < rho0 and stops at the first that fails."""
    dzs = np.diff(step_path().value_at([0.0, 1.0, 2.0, 3.0]), axis=0)
    assert _admissible_cells(dzs, 0.4, 1.0) == (3, None)    # 2 * 0.4 < 1
    n, stop = _admissible_cells(dzs, 0.6, 1.0)              # 2 * 0.6 >= 1
    assert n == 2 and isinstance(stop, JumpTooLarge)
    assert _admissible_cells(dzs, 100.0, math.inf) == (3, None)
    assert _admissible_cells(np.zeros((4, 1)), 100.0, 0.5) == (4, None)
