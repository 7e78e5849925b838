"""Unit-time flows, jump transport, coefficients, and defect bounds.

Frozen oracles used here:

* the 1-d field f(x) = x transported across dz = 1 sends x0 to x0 * e,
  and across a path increment z to x0 * exp(z);
* a constant rotation generator produces the planar rotation matrix;
* the defect of f(x) = x at x0 = 1, dz = 0.1 is e^0.1 - 1 - 0.1.
"""

import math

import numpy as np
import pytest

from reflectsde.errors import DimensionMismatch, NonFinite
from reflectsde.flow import (BLOWUP_GUARD, CATALOG, DEFAULT_FLOW,
                             REFERENCE_FLOW, Coefficient, FlowConfig, catalog_coefficient,
                             coefficient_from_spec, constant_matrix, flow,
                             flow_partial, jump_defect, linear_diagonal,
                             marcus_jump, marcus_jump_partial)


def test_flow_reproduces_exponential():
    cfg = FlowConfig(substeps=64, adaptive=False)
    out = flow(lambda y: y, np.array([1.0]), cfg)
    assert abs(out[0] - math.e) < 1e-8


def test_flow_reproduces_rotation():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    out = flow(lambda y: rot @ y, np.array([1.0, 0.0]),
               FlowConfig(64, adaptive=False))
    np.testing.assert_allclose(out, [math.cos(1.0), math.sin(1.0)], atol=1e-10)


def test_flow_is_fourth_order():
    """Halving the substep count should scale the error by about 2^4."""
    target = math.e

    def err(n):
        out = flow(lambda y: y, np.array([1.0]), FlowConfig(n, adaptive=False))
        return abs(out[0] - target)

    ratio1 = err(4) / err(8)
    ratio2 = err(8) / err(16)
    assert 12.0 < ratio1 < 20.0
    assert 12.0 < ratio2 < 20.0


def test_flow_semigroup_property():
    g = lambda y: np.sin(y) + 0.5
    x = np.array([0.3, -0.7])
    whole = flow(g, x, FlowConfig(64, adaptive=False))
    half = flow_partial(g, x, 0.5, substeps=32)
    rest = flow_partial(g, half, 0.5, substeps=32)
    np.testing.assert_allclose(whole, rest, atol=1e-12)


def test_marcus_jump_linear_oracle():
    f = linear_diagonal(1.0, 1)
    x = np.array([2.0])
    out = marcus_jump(f, np.array([1.0]), x, FlowConfig(64, adaptive=False))
    assert abs(out[0] - 2.0 * math.e) < 1e-7
    out = marcus_jump(f, np.array([-0.5]), x, FlowConfig(64, adaptive=False))
    assert abs(out[0] - 2.0 * math.exp(-0.5)) < 1e-9


def test_marcus_jump_constant_matrix_is_exact():
    m = np.array([[1.0, 2.0], [0.0, -1.0]])
    f = constant_matrix(m)
    x = np.array([0.5, 1.5])
    dz = np.array([0.25, -0.75])
    np.testing.assert_array_equal(marcus_jump(f, dz, x), x + m @ dz)


def test_marcus_jump_zero_increment_is_identity():
    f = catalog_coefficient("sine-diagonal", amplitude=1.0, dimension=2)
    x = np.array([0.4, -0.2])
    np.testing.assert_array_equal(marcus_jump(f, np.zeros(2), x), x)


def test_marcus_jump_batched_matches_loop():
    f = catalog_coefficient("gauss-rotation", amplitude=0.8, sigma=2.0)
    rng = np.random.default_rng(5)
    xs = rng.normal(0.0, 1.0, (6, 2))
    dzs = rng.normal(0.0, 0.5, (6, 2))
    cfg = FlowConfig(16, adaptive=False)
    batched = marcus_jump(f, dzs, xs, cfg)
    for i in range(len(xs)):
        single = marcus_jump(f, dzs[i], xs[i], cfg)
        np.testing.assert_allclose(batched[i], single, atol=1e-12)


def test_marcus_jump_partial_composes():
    """The transport field is autonomous, so two half-spans equal one full."""
    f = catalog_coefficient("sine-diagonal", amplitude=0.9, dimension=2)
    x = np.array([0.2, 1.1])
    dz = np.array([0.7, -0.4])
    cfg = FlowConfig(64, adaptive=False)
    whole = marcus_jump(f, dz, x, cfg)
    half = marcus_jump_partial(f, dz, x, 0.5, cfg)
    full = marcus_jump_partial(f, dz, half, 0.5, cfg)
    np.testing.assert_allclose(whole, full, atol=1e-12)
    np.testing.assert_array_equal(marcus_jump_partial(f, dz, half, 0.0, cfg),
                                  half)


def test_adaptive_substeps_scale_with_increment():
    cfg = FlowConfig(substeps=32, adaptive=True)
    assert cfg.steps_for(1.0) == 32
    assert cfg.steps_for(0.5) == 16
    assert cfg.steps_for(1e-4) == 1
    assert cfg.steps_for(7.0) == 32
    fixed = FlowConfig(substeps=8, adaptive=False)
    assert fixed.steps_for(1e-4) == 8


def test_blow_up_raises_non_finite():
    f = linear_diagonal(1.0, 1, region_radius=1e9)
    with pytest.raises(NonFinite):
        marcus_jump(f, np.array([80.0]), np.array([1.0]),
                    FlowConfig(256, adaptive=False))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 2.0 * BLOWUP_GUARD])
def test_finite_guard_rejects_nan_inf_and_blow_up(bad):
    f = constant_matrix([[1.0, 0.0], [0.0, 1.0]])
    dz = np.array([0.5, 0.0])
    for x in (np.array([0.0, bad]), np.array([[0.0, 0.0], [0.0, bad]])):
        with pytest.raises(NonFinite):
            marcus_jump(f, dz, x)
    at_guard = marcus_jump(f, dz, np.array([0.0, -BLOWUP_GUARD]))
    assert at_guard.tolist() == [0.5, -BLOWUP_GUARD]


def test_jump_defect_linear_oracle():
    """For f(x) = x: phi(dz, x) - x - x dz = x (e^dz - 1 - dz)."""
    f = linear_diagonal(1.0, 1)
    defect = jump_defect(f, np.array([0.1]), np.array([1.0]))
    expected = math.exp(0.1) - 1.0 - 0.1
    assert abs(defect[0] - expected) < 1e-12
    assert expected == pytest.approx(0.0051709180756477, rel=1e-12)


def test_jump_defect_constant_coefficient_is_zero():
    f = constant_matrix([[2.0, 1.0], [0.0, 3.0]])
    defect = jump_defect(f, np.array([0.4, -0.2]), np.array([1.0, 1.0]))
    np.testing.assert_array_equal(defect, np.zeros(2))


def test_defect_quadratic_bound_linear_coefficient():
    f = linear_diagonal(1.0, 1, region_radius=2.0)
    rng = np.random.default_rng(13)
    for _ in range(200):
        x = rng.uniform(-2.0, 2.0, 1)
        dz = rng.uniform(-1.0, 1.0, 1)
        defect = jump_defect(f, dz, x)
        bound = f.defect_constant(abs(float(dz[0]))) * float(dz[0]) ** 2
        assert np.linalg.norm(defect) <= bound + 1e-9


def test_defect_constant_formula():
    f = linear_diagonal(1.0, 1, region_radius=2.0)
    # sup|f'f| = r * e over the enlarged region, times e^{|dz| sup|f'|}
    assert f.defect_constant(0.0) == pytest.approx(f.sup_dff)
    assert f.defect_constant(1.0) == pytest.approx(f.sup_dff * math.e)


def test_derivative_finite_difference_matches_analytic():
    analytic = catalog_coefficient("cosine-shear", amplitude=1.3)
    numeric = Coefficient("probe", 2, analytic._evaluate)
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, 2)
        np.testing.assert_allclose(numeric.derivative(x),
                                   analytic.derivative(x), atol=1e-7)


def test_correction_tensor_linear_coefficient():
    # f(x) = diag(x) gives (f'f)[i, j, m] = delta_ijm * x_i
    f = linear_diagonal(1.0, 2)
    corr = f.correction(np.array([2.0, -3.0]))
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 2.0
    expected[1, 1, 1] = -3.0
    np.testing.assert_allclose(corr, expected, atol=1e-12)


def test_catalog_round_trip_and_bounds():
    for cid, params in [
        ("sine-diagonal", {"amplitude": 0.5, "dimension": 3}),
        ("gauss-rotation", {"amplitude": 0.7, "sigma": 1.5}),
        ("cosine-shear", {"amplitude": 0.9}),
    ]:
        f = catalog_coefficient(cid, **params)
        clone = coefficient_from_spec(f.spec())
        assert clone.dimension == f.dimension
        x = np.full(f.dimension, 0.3)
        np.testing.assert_allclose(clone.evaluate(x), f.evaluate(x))
        assert np.linalg.norm(f.evaluate(x), 2) <= f.sup_f + 1e-12
        # the catalog id also works directly as the spec kind
        direct = coefficient_from_spec({"kind": cid, **params})
        np.testing.assert_allclose(direct.evaluate(x), f.evaluate(x))
    assert set(CATALOG) == {"sine-diagonal", "gauss-rotation", "cosine-shear"}


def test_catalog_unknown_id():
    with pytest.raises(KeyError):
        catalog_coefficient("spiral")


def test_coefficient_dimension_guard():
    f = constant_matrix(np.eye(2))
    with pytest.raises(DimensionMismatch):
        f.evaluate(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        marcus_jump(f, np.zeros(3), np.zeros(2))


def test_default_configs():
    assert DEFAULT_FLOW.substeps == 32
    assert DEFAULT_FLOW.adaptive
    assert REFERENCE_FLOW.substeps == 256
    with pytest.raises(ValueError):
        FlowConfig(substeps=0)
