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


def exact_norm(dz):
    """math.sqrt(dz.dot(dz)), or math.hypot(*dz) for a finite cell whose
    sum of squares overflows."""
    with np.errstate(over="ignore"):
        square = dz.dot(dz)
    if square == math.inf and np.isfinite(dz).all():
        return math.hypot(*dz)
    return math.sqrt(square)


def exact_admissible_cells(dzs, bound, rho0):
    """The jump guard tested cell by cell with ``exact_norm``."""
    if math.isfinite(rho0):
        for k, dz in enumerate(dzs):
            dz_norm = exact_norm(dz)
            if dz_norm * bound >= rho0:
                return k, (f"increment norm {dz_norm:.6g} times coefficient "
                           f"bound {bound:.6g} reaches the projection radius "
                           f"{rho0:.6g}")
    return len(dzs), None


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_screened_jump_guard_is_the_exact_loop(d):
    """The einsum screen keeps the exact loop's decision and message: the
    largest cell's exact norm times the bound sits within a few ulps of
    rho0, where the einsum norm alone decides some cells the other way
    when dot fuses multiply and add (6 of these 600 trials for d = 2 on
    x86-64); cells are also zero, tiny, huge, NaN and inf."""
    rng = np.random.default_rng(d)
    rho0 = 0.75
    for trial in range(600):
        n = int(rng.integers(1, 40))
        dzs = rng.normal(scale=0.1, size=(n, d))
        if trial % 4 == 0:
            dzs[rng.integers(0, n, 3)] = 0.0
        if trial % 5 == 1:
            dzs[rng.integers(0, n)] *= 10.0 ** rng.choice([-170, -155, 152,
                                                           160])
        if trial % 7 == 2:
            dzs[rng.integers(0, n), 0] = rng.choice([np.nan, np.inf])
        with np.errstate(over="ignore"):  # the exact dot of a huge cell
            exact = np.array([exact_norm(dz) for dz in dzs])
            k = int(np.argmax(np.where(np.isfinite(exact), exact, -1.0)))
            # the bound that puts cell k's exact norm at rho0, nudged by ulps
            bound = rho0 / exact[k] if 0.0 < exact[k] < math.inf else 2.0
            bound *= 1.0 + float(rng.integers(-3, 4)) * 2.0 ** -52
            expect = exact_admissible_cells(dzs, bound, rho0)
            n_ok, stop = _admissible_cells(dzs, bound, rho0)
        assert (n_ok, stop if stop is None else str(stop)) == expect
        assert stop is None or isinstance(stop, JumpTooLarge)


def test_jump_guard_does_not_screen_a_sum_that_overflows_in_dot_only():
    """Where dot fuses multiply and add (x86-64), the einsum sum of squares
    of this cell is the largest double while dot's overflows: the screen
    leaves the cell to the exact test, which takes its hypot norm, about
    1.34e154, not inf, and decides by it either way."""
    dzs = np.array([[0.1, 0.0], [3.7618274148337565e+153,
                                 1.2869264469550572e+154]])
    for bound, want in ((1e-160, (2, None)),
                        (1e-154, (1, "increment norm 1.34078e+154 times "
                                     "coefficient bound 1e-154 reaches the "
                                     "projection radius 0.75"))):
        expect = exact_admissible_cells(dzs, bound, 0.75)
        n_ok, stop = _admissible_cells(dzs, bound, 0.75)
        assert (n_ok, stop if stop is None else str(stop)) == expect == want
