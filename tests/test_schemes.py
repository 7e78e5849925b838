"""Constrained scheme runners: agreement, closed forms, and guards."""

import math

import numpy as np
import pytest

from reflectsde.driver import (CADLAG_STEP, GridPath, Partition,
                               jump_adapted_partition, sample_brownian,
                               sample_jump_driver)
from reflectsde.errors import (DimensionMismatch, JumpTooLarge, NonFinite,
                               ProjectionOutOfRange, StartOutsideDomain)
from reflectsde.flow import (Coefficient, FlowConfig, catalog_coefficient,
                             constant_matrix, linear_diagonal, marcus_jump,
                             marcus_jump_chains)
from reflectsde.geometry import Ball, Box, ExteriorOfBall, HalfSpace
from reflectsde.schemes import SchemeSpec, build_reference, run_scheme
from reflectsde.skorokhod import solve_skorokhod

FREE_BOX = Box([-1e6], [1e6])


def test_projection_scheme_equals_skorokhod_for_identity_coefficient():
    """With f = I the transported increment is the plain increment, so the
    projection scheme is exactly the discrete constrained decomposition of
    the driver frozen on the partition (a step path through its values
    there)."""
    dom = HalfSpace([1.0], 0.0)
    z = sample_brownian(1.0, 128, 1, seed=21)
    part = Partition.uniform(1.0, 32)
    spec = SchemeSpec(kind="projection", partition=part)
    out = run_scheme(dom, constant_matrix([[1.0]]), (0.0,), z, spec)
    frozen = GridPath(part.points, z.value_at(part.points), interp=CADLAG_STEP)
    sol = solve_skorokhod(dom, frozen)
    np.testing.assert_allclose(out.x.values, sol.x.values, atol=1e-12)
    np.testing.assert_allclose(out.k.values, sol.k.values, atol=1e-12)
    np.testing.assert_allclose(out.k_variation, sol.k_variation, atol=1e-12)


def test_output_identity_x_equals_y_plus_k():
    dom = Ball([0.0, 0.0], 1.0)
    f = catalog_coefficient("gauss-rotation", amplitude=0.6, sigma=2.0)
    z = sample_brownian(1.0, 128, 2, seed=33)
    spec = SchemeSpec(kind="projection", partition=Partition.uniform(1.0, 64))
    out = run_scheme(dom, f, (0.5, 0.0), z, spec)
    np.testing.assert_allclose(out.x.values, out.y.values + out.k.values,
                               atol=1e-12)
    assert np.all(np.diff(out.k_variation) >= -1e-15)


def test_jump_adapted_matches_exponential_oracle():
    """d = 1, f(x) = x: the exact constrained-free solution is x0 e^{z(t)}."""
    f = linear_diagonal(1.0, 1, region_radius=20.0)
    z = sample_jump_driver(1.0, 256, 1, seed=93, jump_rate=2.0,
                           jump_law={"kind": "uniform-ball", "radius": 0.4})
    spec = SchemeSpec(kind="jump-adapted", partition=Partition.uniform(1.0, 256))
    out = run_scheme(FREE_BOX, f, (1.0,), z, spec)
    exact = np.exp(z.value_at(out.x.times))
    err = np.max(np.abs(out.x.values - exact))
    assert err < 1e-4
    # no reflection happened, so the compensator is identically zero
    np.testing.assert_array_equal(out.k.values, np.zeros_like(out.k.values))


def test_jump_adapted_partition_used():
    z = GridPath(
        times=np.array([0.0, 0.37, 1.0]),
        values=np.array([[0.0], [1.0], [1.0]]),
        jump_times=np.array([0.37]),
        jump_values=np.array([[1.0]]),
    )
    spec = SchemeSpec(kind="jump-adapted", partition=Partition.uniform(1.0, 4))
    out = run_scheme(FREE_BOX, constant_matrix([[1.0]]), (0.0,), z, spec)
    assert 0.37 in out.x.times


def test_wz_hat_grid_values_match_projection_bitwise():
    dom = Ball([0.0, 0.0], 1.0)
    f = catalog_coefficient("gauss-rotation", amplitude=0.9, sigma=1.5)
    z = sample_jump_driver(1.0, 64, 2, seed=57, jump_rate=3.0,
                           jump_law={"kind": "uniform-ball", "radius": 0.6})
    part = Partition.uniform(1.0, 16)
    obs = np.linspace(0.0, 1.0, 49)
    proj = run_scheme(dom, f, (0.3, 0.2), z,
                      SchemeSpec(kind="projection", partition=part))
    hat = run_scheme(dom, f, (0.3, 0.2), z,
                     SchemeSpec(kind="wz-hat", partition=part,
                                observation_times=obs))
    sel = np.searchsorted(hat.x.times, part.points)
    np.testing.assert_array_equal(hat.x.values[sel], proj.x.values)
    np.testing.assert_array_equal(hat.k.values[sel], proj.k.values)
    np.testing.assert_array_equal(hat.k_variation[sel], proj.k_variation)


def test_wz_hat_interior_follows_cell_flow():
    f = catalog_coefficient("sine-diagonal", amplitude=1.1, dimension=1)
    z = GridPath(np.array([0.0, 1.0]), np.array([[0.0], [0.8]]))
    part = Partition.uniform(1.0, 1)
    obs = np.array([0.25, 0.5])
    cfg = FlowConfig(32, adaptive=True)
    out = run_scheme(FREE_BOX, f, (0.4,), z,
                     SchemeSpec(kind="wz-hat", partition=part,
                                flow_cfg=cfg, observation_times=obs))
    # the cell's flow from 0.4 up to 0.25 and on to 0.5: one lane of two
    # quarter-span jumps of the cell's increment
    states = []

    def follow(i, k, y, error):
        states.append(y)
        return y

    marcus_jump_chains(f, [(np.array([[0.8], [0.8]]), np.array([0.25, 0.25]),
                            np.array([0.4]))], follow, cfg)
    np.testing.assert_array_equal(out.x.value_at(0.25), states[0])
    np.testing.assert_array_equal(out.x.value_at(0.5), states[1])
    # inside the cell the state is unconstrained: no compensator yet
    assert out.k.value_at(0.5)[0] == 0.0


def test_wz_bar_reflected_ramp_closed_form():
    """Deterministic downhill ramp on the half line: the polygonal state
    decreases to the wall and sits there while the compensator absorbs the
    remaining motion.  A ramp of 1e-170 from the wall puts every target
    about 1e-170 outside it, where |dk| underflows to 0: such a step counts
    as no move, so K, its variation and the projection count stay 0, for
    every step rule (in d = 2 for the RK4 transport, whose steps a driver
    increment of norm 1e-170 would skip)."""
    dom = HalfSpace([1.0], 0.0)
    f = constant_matrix([[1.0]])
    part = Partition.uniform(1.0, 4)
    obs = np.array([0.125, 0.375, 0.625, 0.875])
    for x0, drop in ((0.5, 1.0), (0.0, 1e-170)):
        z = GridPath(np.array([0.0, 1.0]), np.array([[0.0], [-drop]]),
                     interp="linear")
        out = run_scheme(dom, f, (x0,), z,
                         SchemeSpec(kind="wz-bar", partition=part,
                                    substeps_bar=8, observation_times=obs))
        for t in np.concatenate([part.points, obs]):
            expected = max(x0 - drop * t, 0.0)
            assert out.x.value_at(t)[0] == pytest.approx(expected, abs=1e-12)
        assert out.k.value_at(1.0)[0] == pytest.approx(drop - x0, abs=1e-12)
        assert out.x.interp == "linear"
        assert out.k.interp == "linear"
    # increment rows, lockstep RK4 transport, and explicit targets
    f = constant_matrix(np.eye(2))
    no_matrix = Coefficient("constant-no-matrix", 2, f._evaluate,
                            f._derivative, sup_f=f.sup_f)
    z = GridPath(np.array([0.0, 1.0]), np.array([[0.0, 0.0], [1.0, -1e-170]]),
                 interp="linear")
    for kind, g in (("wz-bar", f), ("projection", f),
                    ("projection", no_matrix), ("wz-bar", no_matrix),
                    ("marcus-euler", f)):
        under = run_scheme(HalfSpace([0.0, 1.0], 0.0), g, (0.0, 0.0), z,
                           SchemeSpec(kind=kind, partition=part,
                                      substeps_bar=8))
        assert np.all(under.x.values[:, 1] == 0.0), kind
        assert under.y.values[-1, 1] < 0.0, kind
        assert not under.k.values.any() and not under.k_variation.any()
        assert under.meta.projections == 0


def test_wz_bar_compensator_is_continuous():
    dom = Ball([0.0, 0.0], 1.0)
    f = constant_matrix(0.5 * np.eye(2))
    z = sample_brownian(1.0, 128, 2, seed=71)
    out = run_scheme(dom, f, (0.9, 0.0), z,
                     SchemeSpec(kind="wz-bar",
                                partition=Partition.uniform(1.0, 32),
                                substeps_bar=16))
    steps = np.linalg.norm(np.diff(out.k.values, axis=0), axis=1)
    # per-cell compensator increments shrink with the substep size; none of
    # them can exceed the largest per-substep driver motion
    dz = np.abs(np.diff(z.value_at(out.k.times), axis=0))
    assert np.all(steps <= 0.5 * np.linalg.norm(dz, axis=1) + 1e-9)


def test_marcus_euler_tracks_transported_exponential():
    """For d = 1, f(x) = x and a continuous driver, the expanded one-step
    rule with its quadratic correction tracks exp(W_t), not the uncorrected
    exponential exp(W_t - t/2)."""
    f = linear_diagonal(1.0, 1, region_radius=50.0)
    z = sample_brownian(1.0, 1024, 1, seed=365)
    spec = SchemeSpec(kind="marcus-euler",
                      partition=Partition.uniform(1.0, 256))
    out = run_scheme(FREE_BOX, f, (1.0,), z, spec)
    w_end = float(z.values[-1, 0])
    transported = math.exp(w_end)
    uncorrected = math.exp(w_end - 0.5)
    end = float(out.x.values[-1, 0])
    assert abs(end - transported) < 0.2 * abs(end - uncorrected)
    assert abs(end - transported) < 0.15


def test_marcus_euler_transports_jumps_exactly():
    """A pure-jump driver with one recorded jump: the cell update reduces
    to the exact transport of that jump."""
    f = linear_diagonal(1.0, 1, region_radius=20.0)
    z = GridPath(
        times=np.array([0.0, 0.5, 1.0]),
        values=np.array([[0.0], [0.8], [0.8]]),
        jump_times=np.array([0.5]),
        jump_values=np.array([[0.8]]),
    )
    cfg = FlowConfig(64, adaptive=False)
    spec = SchemeSpec(kind="marcus-euler",
                      partition=Partition.uniform(1.0, 2), flow_cfg=cfg)
    out = run_scheme(FREE_BOX, f, (1.0,), z, spec)
    expected = marcus_jump(f, np.array([0.8]), np.array([1.0]), cfg)
    np.testing.assert_allclose(out.x.values[-1], expected, atol=1e-12)


def test_jump_size_guard_raises():
    dom = ExteriorOfBall([0.0, 0.0], 1.0)
    f = constant_matrix(np.eye(2))
    z = GridPath(
        times=np.array([0.0, 0.5, 1.0]),
        values=np.array([[0.0, 0.0], [1.2, 0.0], [1.2, 0.0]]),
        jump_times=np.array([0.5]),
        jump_values=np.array([[1.2, 0.0]]),
    )
    spec = SchemeSpec(kind="projection", partition=Partition.uniform(1.0, 2))
    with pytest.raises(JumpTooLarge):
        run_scheme(dom, f, (2.0, 0.0), z, spec)


def test_start_outside_raises():
    dom = Ball([0.0, 0.0], 1.0)
    z = sample_brownian(1.0, 8, 2, seed=2)
    spec = SchemeSpec(kind="projection", partition=Partition.uniform(1.0, 4))
    with pytest.raises(StartOutsideDomain):
        run_scheme(dom, constant_matrix(np.eye(2)), (3.0, 0.0), z, spec)


def test_observation_times_are_merged_into_output():
    z = sample_brownian(1.0, 32, 1, seed=8)
    obs = np.array([0.1, 0.55, 0.9])
    spec = SchemeSpec(kind="projection", partition=Partition.uniform(1.0, 4),
                      observation_times=obs)
    out = run_scheme(FREE_BOX, constant_matrix([[1.0]]), (0.0,), z, spec)
    for t in obs:
        assert t in out.x.times
        # step output: value at an off-grid time equals the cell start value
        cell_start = 0.25 * math.floor(t / 0.25)
        np.testing.assert_array_equal(out.x.value_at(t),
                                      out.x.value_at(cell_start))


def test_build_reference_refines_and_isolates():
    z = sample_jump_driver(1.0, 64, 1, seed=44, jump_rate=3.0,
                           jump_law={"kind": "uniform-ball", "radius": 0.5})
    f = linear_diagonal(1.0, 1, region_radius=20.0)
    ref = build_reference(FREE_BOX, f, (1.0,), z, refine=256)
    # the reference grid contains the driver's own sample grid
    assert np.all(np.isin(z.times, ref.x.times))
    exact = np.exp(z.value_at(ref.x.times))
    assert np.max(np.abs(ref.x.values - exact)) < 1e-5


def test_run_scheme_dispatch_and_validation():
    z = sample_brownian(1.0, 16, 1, seed=3)
    part = Partition.uniform(1.0, 8)
    for kind in ("projection", "jump-adapted", "wz-hat", "wz-bar",
                 "marcus-euler"):
        out = run_scheme(FREE_BOX, constant_matrix([[1.0]]), (0.0,), z,
                         SchemeSpec(kind=kind, partition=part))
        assert out.meta.scheme in (kind, "jump-adapted")
        assert out.x.times[-1] == 1.0
    with pytest.raises(ValueError):
        SchemeSpec(kind="midpoint", partition=part)
    with pytest.raises(ValueError):
        SchemeSpec(kind="wz-bar", partition=part, substeps_bar=0)


def test_schemes_agree_on_smooth_problem():
    """On a smooth, reflection-free problem every scheme converges to the
    same transported solution; at a fine mesh they agree to a few percent."""
    f = catalog_coefficient("sine-diagonal", amplitude=0.8, dimension=1)
    z = sample_brownian(1.0, 512, 1, seed=1234)
    part = Partition.uniform(1.0, 256)
    ends = []
    for kind in ("projection", "wz-hat", "wz-bar", "marcus-euler"):
        out = run_scheme(FREE_BOX, f, (0.2,), z,
                         SchemeSpec(kind=kind, partition=part))
        ends.append(float(out.x.values[-1, 0]))
    spread = max(ends) - min(ends)
    assert spread < 0.05


# ---------------------------------------------------------------------------
# loud failures of the guarded projection step

ALL_KINDS = ("projection", "jump-adapted", "wz-hat", "wz-bar", "marcus-euler")


def _nan_field(dimension):
    """A coefficient whose every evaluation is NaN."""
    return Coefficient(
        "nan-field", dimension,
        lambda x: np.full(x.shape[:-1] + (dimension, dimension), np.nan),
        sup_f=1e-6)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("dom, x0", [(Ball([0.0, 0.0], 1.0), (0.5, 0.0)),
                                     (ExteriorOfBall([0.0, 0.0], 0.5),
                                      (1.0, 0.0))],
                         ids=["ball", "exterior-of-ball"])
def test_nan_coefficient_raises_nonfinite(kind, dom, x0):
    z = sample_brownian(1.0, 16, 2, seed=5)
    spec = SchemeSpec(kind=kind, partition=Partition.uniform(1.0, 4),
                      substeps_bar=4)
    with pytest.raises(NonFinite):
        run_scheme(dom, _nan_field(2), x0, z, spec)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_scheme_guards_the_reach(kind):
    """One increment of 0.995 towards the deleted unit ball's center passes
    the jump-size guard (0.995 * 1 < rho0 = 1) but its target lies 0.995
    from the closure, past the 0.99 * rho0 excursion margin."""
    dom = ExteriorOfBall([0.0, 0.0], 1.0)
    z = GridPath(np.array([0.0, 1.0]), np.array([[0.0, 0.0], [-0.995, 0.0]]))
    spec = SchemeSpec(kind=kind, partition=Partition.uniform(1.0, 1),
                      substeps_bar=1)
    with pytest.raises(ProjectionOutOfRange):
        run_scheme(dom, constant_matrix(np.eye(2)), (1.0, 0.0), z, spec)


def test_dimension_mismatch_is_caught_before_stepping():
    z = sample_brownian(1.0, 8, 1, seed=2)
    spec = SchemeSpec(kind="wz-bar", partition=Partition.uniform(1.0, 2))
    with pytest.raises(DimensionMismatch):
        run_scheme(Ball([0.0, 0.0], 1.0), constant_matrix(np.eye(2)),
                   (0.0, 0.0), z, spec)
