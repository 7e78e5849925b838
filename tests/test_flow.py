"""Unit-time flows, jump transport, coefficients, and defect bounds.

Frozen oracles used here:

* the 1-d field f(x) = x transported across dz = 1 sends x0 to x0 * e,
  and across a path increment z to x0 * exp(z);
* a constant rotation generator produces the planar rotation matrix;
* the defect of f(x) = x at x0 = 1, dz = 0.1 is e^0.1 - 1 - 0.1.

``oracle_jump`` is the jump transport of one state as a loop of its own,
independent of the lockstep engine ``marcus_jump_chains`` that every call
of the package runs on; the engine, its rows and its single calls are
checked bitwise against it.
"""

import math

import numpy as np
import pytest

from reflectsde.errors import DimensionMismatch, NonFinite
from reflectsde.flow import (BLOWUP_GUARD, CATALOG, DEFAULT_FLOW,
                             REFERENCE_FLOW, Coefficient, FlowConfig,
                             catalog_coefficient,
                             coefficient_from_spec, constant_matrix,
                             jump_defect, linear_diagonal,
                             marcus_jump, marcus_jump_chains)


GUARD_MESSAGE = "flow trajectory left the finite-value guard region"


def guarded(y):
    if not np.abs(y).max() <= BLOWUP_GUARD:
        raise NonFinite(GUARD_MESSAGE)
    return y


def oracle_jump(f, dz, x, span=1.0, cfg=DEFAULT_FLOW):
    """The flow of y -> f(y) dz over [0, span] from one state x.

    A zero span maps x to a copy of x; a constant coefficient to
    x + span (dz @ M.T); a zero increment to a copy of x.  Otherwise it
    takes n = cfg.steps_for(|dz|) classical RK4 steps, or ceil(n span) and
    at least one for a span other than 1, through the 1-D ``f.field``.
    Every result that is not a copy is checked against the guard region.
    """
    x = np.asarray(x, dtype=float)
    dz = np.asarray(dz, dtype=float)
    span = float(span)
    if span == 0.0:
        return x.copy()
    if f.matrix is not None:
        return guarded(x + span * (dz @ f.matrix.T))
    norm = float(np.linalg.norm(dz, axis=-1))
    if norm == 0.0:
        return x.copy()
    n = cfg.steps_for(norm)
    if span != 1.0:
        n = max(1, math.ceil(n * span))
    h = span / n
    y = x.copy()
    for _ in range(n):
        k1 = f.field(y, dz)
        k2 = f.field(y + 0.5 * h * k1, dz)
        k3 = f.field(y + 0.5 * h * k2, dz)
        k4 = f.field(y + h * k3, dz)
        y = guarded(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return y


def oracle_outcome(f, dz, x, span, cfg):
    """``oracle_jump``'s result, or the type and text of its error."""
    try:
        return oracle_jump(f, dz, x, span, cfg)
    except NonFinite as exc:
        return type(exc), str(exc)


def exp_flow(n):
    """The RK4 transport of f(x) = x across dz = 1 from x = 1, in n steps:
    the flow of y' = y at time 1."""
    return marcus_jump(linear_diagonal(1.0, 1), np.array([1.0]),
                       np.array([1.0]), FlowConfig(n, adaptive=False))


def test_flow_reproduces_exponential():
    assert abs(exp_flow(64)[0] - math.e) < 1e-8


def test_flow_reproduces_rotation():
    """f(x) dz = (-x_1, x_0) for dz = (1, 0): the rotation generator."""
    def ev(x):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0], out[..., 1, 0] = -x[..., 1], x[..., 0]
        return out

    out = marcus_jump(Coefficient("rotation", 2, ev), np.array([1.0, 0.0]),
                      np.array([1.0, 0.0]), FlowConfig(64, adaptive=False))
    np.testing.assert_allclose(out, [math.cos(1.0), math.sin(1.0)], atol=1e-10)


def test_flow_is_fourth_order():
    """Halving the substep count should scale the error by about 2^4."""
    def err(n):
        return abs(exp_flow(n)[0] - math.e)

    ratio1 = err(4) / err(8)
    ratio2 = err(8) / err(16)
    assert 12.0 < ratio1 < 20.0
    assert 12.0 < ratio2 < 20.0


def half_span_lanes(f, dz, x, spans, cfg):
    """One lane of jumps by ``dz`` over ``spans`` of ``marcus_jump_chains``,
    the first from ``x`` and each later one from its predecessor's end,
    checked bitwise against the oracle: the jumps' ends."""
    lanes = [(np.tile(dz, (len(spans), 1)), np.array(spans), x)]

    def next_start(i, k, y):
        return x if k == 0 else y

    got = run_lanes(f, lanes, cfg, next_start)
    assert_lanes_match_the_oracle(f, lanes, got, cfg, next_start)
    assert [err for _, _, err in got[0]] == [None] * len(spans)
    return [y for _, y, _ in got[0]]


def test_flow_semigroup_property():
    """Two half-span transports of 32 steps compose to the 64-step one."""
    f = catalog_coefficient("sine-diagonal", amplitude=1.3, dimension=2)
    cfg = FlowConfig(64, adaptive=False)
    x, dz = np.array([0.3, -0.7]), np.array([1.0, 0.5])
    whole, half, rest = half_span_lanes(f, dz, x, [1.0, 0.5, 0.5], cfg)
    np.testing.assert_array_equal(whole, marcus_jump(f, dz, x, cfg))
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


BATCH_SPECS = [
    {"kind": "catalog-smooth", "id": "gauss-rotation", "amplitude": 0.8,
     "sigma": 2.0},
    {"kind": "catalog-smooth", "id": "sine-diagonal", "amplitude": 0.9,
     "dimension": 3},
    {"kind": "catalog-smooth", "id": "cosine-shear", "amplitude": 0.7},
    {"kind": "linear-diagonal", "scale": 0.5, "dimension": 2},
    {"kind": "constant-matrix", "matrix": [[1.0, 0.3], [-0.2, 0.8]]},
]


def full_field():
    """A state-dependent field with no zero entry: unlike the catalog's
    diagonal and rotation fields, its products f(y) dz have two nonzero
    terms per row, so their rounding depends on how they are formed."""
    def ev(x):
        s, c = np.sin(x[..., 0]), np.cos(x[..., 1])
        return np.stack([np.stack([1.0 + 0.5 * s, 0.3 + 0.2 * c], axis=-1),
                         np.stack([0.7 * c - 0.1, 1.1 + 0.4 * s], axis=-1)],
                        axis=-2)
    return Coefficient("full-field", 2, ev, sup_f=2.0)


def test_marcus_jump_batched_matches_loop():
    """Each row of a batch is bitwise its single-row call: its own step
    count (norms from 1e-3 to 3, so adaptive counts differ), and none for a
    zero row."""
    rng = np.random.default_rng(5)
    for f in [coefficient_from_spec(spec) for spec in BATCH_SPECS] + [full_field()]:
        for cfg in (FlowConfig(16, adaptive=False), DEFAULT_FLOW,
                    REFERENCE_FLOW):
            for rows in (1, 64):
                xs = rng.normal(0.0, 1.0, (rows, f.dimension))
                dzs = rng.normal(0.0, 1.0, (rows, f.dimension))
                dzs *= np.geomspace(1e-3, 3.0, rows)[:, None] / np.linalg.norm(
                    dzs, axis=1, keepdims=True)
                dzs[rows // 2] = 0.0
                batched = marcus_jump(f, dzs, xs, cfg)
                rowwise, errors = one_jump_lanes(f, dzs, xs, cfg)
                assert errors == [None] * rows
                np.testing.assert_array_equal(rowwise, batched)
                for i in range(rows):
                    np.testing.assert_array_equal(
                        batched[i], marcus_jump(f, dzs[i], xs[i], cfg))
                    assert bits(batched[i]) == bits(
                        oracle_jump(f, dzs[i], xs[i], 1.0, cfg))
                np.testing.assert_array_equal(batched[rows // 2],
                                              xs[rows // 2])


def one_jump_lanes(f, dzs, xs, cfg):
    """The rows of ``dzs`` and ``xs`` as lanes of one unit-span jump each of
    ``marcus_jump_chains``: the (m, d) results, NaN where a lane failed,
    and per lane None or its error's type and text."""
    lanes = [(dzs[i:i + 1], np.ones(1), xs[i]) for i in range(len(xs))]
    got = [jumps[0] for jumps in run_lanes(f, lanes, cfg,
                                           lambda i, k, y: None)]
    ys = np.array([np.full(f.dimension, np.nan) if y is None else y
                   for _, y, _ in got])
    return ys, [err for _, _, err in got]


def test_marcus_jump_rows_fail_alone():
    """A row that leaves the guard region gets the error its single-row
    call raises; the other rows keep their single-row results, and a batch
    raises its first failed row's error."""
    f = linear_diagonal(1.0, 1, region_radius=1e9)
    cfg = FlowConfig(256, adaptive=False)
    xs = np.array([[1.0], [1.0], [-2.0], [1.0]])
    dzs = np.array([[0.5], [80.0], [0.25], [90.0]])
    ys, errors = one_jump_lanes(f, dzs, xs, cfg)
    assert errors[0] is None and errors[2] is None
    for i in (0, 2):
        np.testing.assert_array_equal(ys[i], marcus_jump(f, dzs[i], xs[i], cfg))
    for i in (1, 3):
        with pytest.raises(NonFinite) as alone:
            marcus_jump(f, dzs[i], xs[i], cfg)
        assert errors[i] == (NonFinite, str(alone.value))
    with pytest.raises(NonFinite) as batched:
        marcus_jump(f, dzs, xs, cfg)
    assert str(batched.value) == errors[1][1]


def test_marcus_jump_rows_constant_coefficient_fail_alone():
    """A constant coefficient's rows fail alone too, with the single-row
    error."""
    f = constant_matrix([[1.0, 0.0], [0.0, 1.0]])
    xs = np.array([[0.0, 0.0], [BLOWUP_GUARD, 0.0], [1.0, 1.0]])
    dzs = np.array([[0.5, 0.5], [BLOWUP_GUARD, 0.0], [0.0, 0.0]])
    ys, errors = one_jump_lanes(f, dzs, xs, DEFAULT_FLOW)
    assert errors[0] is None and errors[2] is None
    with pytest.raises(NonFinite) as alone:
        marcus_jump(f, dzs[1], xs[1], DEFAULT_FLOW)
    assert errors[1] == (NonFinite, str(alone.value))
    for i in (0, 2):
        np.testing.assert_array_equal(ys[i], marcus_jump(f, dzs[i], xs[i]))
    with pytest.raises(NonFinite) as batched:
        marcus_jump(f, dzs, xs, DEFAULT_FLOW)
    assert str(batched.value) == errors[1][1]


@pytest.mark.parametrize("dz", [(math.nan, 0.0), (math.inf, 0.0)],
                         ids=["nan", "inf"])
def test_marcus_jump_rejects_a_non_finite_increment(dz):
    """No step count transports a non-finite increment: NonFinite, on the
    adaptive and the fixed configuration, and from ``steps_for`` itself."""
    f = catalog_coefficient("gauss-rotation", amplitude=0.8, sigma=2.0)
    for cfg in (DEFAULT_FLOW, FlowConfig(16, adaptive=False)):
        with pytest.raises(NonFinite):
            marcus_jump(f, np.array(dz), np.array([0.5, 0.0]), cfg)
        with pytest.raises(NonFinite):
            cfg.steps_for(dz[0])


def test_steps_for_caps_a_norm_whose_scaled_count_overflows():
    assert DEFAULT_FLOW.steps_for(1e308) == DEFAULT_FLOW.substeps


def test_marcus_jump_rows_non_finite_increment_fails_alone():
    """A NaN or infinite increment fails its own row with the single-row
    error, next to good rows that keep their single-row results."""
    f = catalog_coefficient("gauss-rotation", amplitude=0.8, sigma=2.0)
    xs = np.array([[0.5, 0.0], [0.1, 0.2], [-0.3, 0.4], [0.0, 1.0],
                   [0.2, 0.2]])
    dzs = np.array([[0.3, 0.1], [math.nan, 0.0], [0.0, 0.0],
                    [math.inf, 0.0], [-0.05, 0.2]])
    ys, errors = one_jump_lanes(f, dzs, xs, DEFAULT_FLOW)
    for i in (0, 2, 4):
        assert errors[i] is None
        np.testing.assert_array_equal(ys[i], marcus_jump(f, dzs[i], xs[i]))
    for i in (1, 3):
        with pytest.raises(NonFinite) as alone:
            marcus_jump(f, dzs[i], xs[i])
        assert errors[i] == (NonFinite, str(alone.value))


def test_marcus_jump_chains_span_lanes_match_the_oracle():
    """Lanes of jumps over the spans 0, 0.3, 1 and two halves, on every
    batch coefficient and configuration, give each jump bitwise its
    ``oracle_jump`` call: its own step count over its span (norms from
    1e-3 to 3, so adaptive counts differ), none for a zero span or a zero
    increment, which hand back their start."""
    rng = np.random.default_rng(11)
    spans = np.array([0.0, 0.3, 1.0, 0.5, 0.5])

    def next_start(i, k, y):
        return y

    for f in [coefficient_from_spec(spec) for spec in BATCH_SPECS] + [full_field()]:
        for cfg in (FlowConfig(16, adaptive=False), DEFAULT_FLOW,
                    REFERENCE_FLOW):
            dzs = rng.normal(0.0, 1.0, (8, f.dimension))
            dzs *= np.geomspace(1e-3, 3.0, 8)[:, None] / np.linalg.norm(
                dzs, axis=1, keepdims=True)
            dzs[4] = 0.0
            lanes = [(np.tile(dz, (len(spans), 1)), spans,
                      rng.normal(0.0, 1.0, f.dimension)) for dz in dzs]
            got = run_lanes(f, lanes, cfg, next_start)
            assert_lanes_match_the_oracle(f, lanes, got, cfg, next_start)
            assert [err for g in got for _, _, err in g] == [None] * 40
            for g, (_, _, x) in zip(got, lanes):
                np.testing.assert_array_equal(g[0][1], x)
            assert all(bits(y) == bits(lanes[4][2]) for _, y, _ in got[4])


def chain_oracle(f, dzs, spans, x, cfg, next_start):
    """One lane of ``marcus_jump_chains`` as a loop of ``oracle_jump``:
    (k, y or None, error type and text or None) per jump taken."""
    out = []
    for k, (dz, span) in enumerate(zip(dzs, spans)):
        try:
            y = oracle_jump(f, dz, x, span, cfg)
            out.append((k, y, None))
        except NonFinite as exc:
            y = None
            out.append((k, None, (type(exc), str(exc))))
        x = next_start(k, y)
        if x is None:
            break
    return out


@pytest.mark.parametrize("span", [1.0, 0.4])
def test_marcus_jump_chains_match_a_loop_of_single_calls(span):
    """Lanes of different lengths, with zero, NaN and blow-up increments
    mid-lane and a lane that its caller stops early, all give each jump
    bitwise its ``oracle_jump`` call, in order, and continue from the start
    the caller returns."""
    f = linear_diagonal(1.0, 2, region_radius=1e9)
    cfg = FlowConfig(32, adaptive=True)
    rng = np.random.default_rng(9)
    lanes = []
    for length in (0, 1, 5, 17, 40, 3):
        dzs = rng.normal(0.0, 0.3, (length, 2))
        dzs[::4] *= 5.0
        lanes.append((dzs, np.full(length, span), rng.normal(0.0, 1.0, 2)))
    lanes[2][0][1] = 0.0
    lanes[3][0][4] = [np.nan, 0.0]
    lanes[3][0][9] = [80.0, 0.0]
    lanes[4][0][6] = [0.0, np.inf]

    def next_start(i, k, y):
        if i == 4 and k == 20:
            return None
        # after an error, a fresh start; else on from the jump's end
        return np.array([0.5, -0.5]) if y is None else y * 0.9

    got = run_lanes(f, lanes, cfg, next_start)
    assert_lanes_match_the_oracle(f, lanes, got, cfg, next_start)
    assert [len(g) for g in got] == [0, 1, 5, 17, 21, 3]
    assert sum(err is not None for g in got for _, _, err in g) == 3


def assert_lanes_match_the_oracle(f, lanes, got, cfg, next_start):
    for i, (dzs, spans, x) in enumerate(lanes):
        want = chain_oracle(f, dzs, spans, x, cfg,
                            lambda k, y, i=i: next_start(i, k, y))
        assert len(got[i]) == len(want)
        for (k, y, err), (k2, y2, err2) in zip(got[i], want):
            assert k == k2 and err == err2
            assert (y is None) == (y2 is None)
            if y is not None:
                assert bits(y) == bits(y2)


def run_lanes(f, lanes, cfg, next_start):
    """Each lane's (k, y or None, error type and text or None) per jump."""
    got = [[] for _ in lanes]

    def follow(i, k, y, error):
        got[i].append((k, y, None if error is None
                       else (type(error), str(error))))
        return next_start(i, k, y)

    marcus_jump_chains(f, lanes, follow, cfg)
    return got


@pytest.mark.parametrize("f", [linear_diagonal(0.8, 2, region_radius=1e9),
                               full_field(),
                               constant_matrix([[1.0, 0.3], [-0.2, 0.8]])],
                         ids=["linear-diagonal", "full-field", "constant"])
def test_marcus_jump_chains_per_jump_spans(f):
    """Lanes whose jumps have mixed spans (0, 0.3, 1 and a negative one),
    with zero and NaN increments next to zero spans, give each jump bitwise
    its oracle: a zero span hands back the start even for a NaN
    increment."""
    cfg = FlowConfig(32, adaptive=True)
    rng = np.random.default_rng(21)
    choices = np.array([0.0, 0.3, 1.0, -0.45])
    lanes = []
    for length in (1, 4, 9, 30):
        dzs = rng.normal(0.0, 0.4, (length, 2))
        spans = choices[rng.integers(0, 4, length)]
        spans[0] = choices[length % 4]
        lanes.append((dzs, spans, rng.normal(0.0, 1.0, 2)))
    lanes[2][0][3], lanes[2][1][3] = np.nan, 0.0    # NaN over a zero span
    lanes[3][0][5], lanes[3][1][5] = 0.0, 0.3       # zero increment
    lanes[3][0][11], lanes[3][1][11] = np.nan, 0.3  # NaN over a span

    def next_start(i, k, y):
        return np.array([0.2, -0.1]) if y is None else y

    got = run_lanes(f, lanes, cfg, next_start)
    assert_lanes_match_the_oracle(f, lanes, got, cfg, next_start)
    assert [len(g) for g in got] == [1, 4, 9, 30]
    np.testing.assert_array_equal(got[2][3][1], got[2][2][1])
    assert got[3][11][2] is not None
    assert {span for _, spans, _ in lanes for span in spans} == set(choices)


def test_constant_coefficient_lanes_fail_with_the_guard_message():
    """A constant coefficient's jump is its closed form: a NaN increment or
    one that blows past the guard region fails with the guard message, not
    the step-count one, and the lane goes on from the start its caller
    gives."""
    f = constant_matrix([[1.0, 0.3], [-0.2, 0.8]])
    lanes = [(np.array([[0.1, 0.2], [np.nan, 0.0], [0.3, -0.1],
                        [2.0 * BLOWUP_GUARD, 0.0], [-0.2, 0.4]]),
              np.array([1.0, 0.5, 1.0, 1.0, 0.7]), np.array([0.5, 0.5]))]

    def next_start(i, k, y):
        return np.array([1.0, -1.0]) if y is None else y

    got = run_lanes(f, lanes, DEFAULT_FLOW, next_start)
    assert_lanes_match_the_oracle(f, lanes, got, DEFAULT_FLOW, next_start)
    assert [err for _, _, err in got[0]] == [
        None, (NonFinite, GUARD_MESSAGE), None, (NonFinite, GUARD_MESSAGE),
        None]


FIELD_KINDS = [
    linear_diagonal(0.7, 2),
    linear_diagonal(-1.3, 3),
    catalog_coefficient("sine-diagonal", amplitude=0.8, dimension=2),
    catalog_coefficient("sine-diagonal", amplitude=-0.5, dimension=3),
    catalog_coefficient("gauss-rotation", amplitude=0.4, sigma=1.5),
    # a negative amplitude, and an envelope that underflows to zero
    catalog_coefficient("gauss-rotation", amplitude=-0.9, sigma=0.01),
    catalog_coefficient("cosine-shear", amplitude=1.1),
    catalog_coefficient("cosine-shear", amplitude=-0.6),
]


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("f", FIELD_KINDS, ids=lambda f: f.label)
def test_field_closed_forms_match_the_matrix_product(f):
    """Every closed-form field is bitwise the stacked product f(y) dz and
    the 1-D product, signed zeros included, on rows with +-0.0 components,
    zero rows, tiny and large states."""
    assert f._field is not None
    rng = np.random.default_rng(17)
    d = f.dimension
    for _ in range(50):
        ys = rng.normal(size=(64, d)) * rng.choice([1e-300, 1.0, 50.0],
                                                   size=(64, 1))
        dzs = rng.normal(size=(64, d)) * rng.choice([1e-300, 1e-8, 1.0],
                                                    size=(64, 1))
        for a in (ys, dzs):
            mask = rng.random(a.shape) < 0.3
            a[mask] = rng.choice([0.0, -0.0], size=int(mask.sum()))
        dzs[::7], dzs[3::7] = 0.0, -0.0
        want = (f.evaluate(ys) @ dzs[..., None])[..., 0]
        got = f.field(ys, dzs)
        np.testing.assert_array_equal(got, want)
        assert bits(got) == bits(want)
        for i in range(0, 64, 5):
            one = f.field(ys[i], dzs[i])
            assert one.shape == (d,)
            assert bits(one) == bits(want[i]) == bits(f.evaluate(ys[i]) @ dzs[i])


def test_default_field_is_the_matrix_product():
    f = full_field()
    rng = np.random.default_rng(2)
    ys, dzs = rng.normal(size=(8, 2)), rng.normal(size=(8, 2))
    assert bits(f.field(ys, dzs)) == bits((f.evaluate(ys) @ dzs[..., None])[..., 0])
    assert bits(f.field(ys[0], dzs[0])) == bits(f.evaluate(ys[0]) @ dzs[0])


def test_marcus_jump_partial_composes():
    """The transport field is autonomous, so two half-spans equal one full,
    and a zero span hands back its start."""
    f = catalog_coefficient("sine-diagonal", amplitude=0.9, dimension=2)
    x = np.array([0.2, 1.1])
    dz = np.array([0.7, -0.4])
    cfg = FlowConfig(64, adaptive=False)
    whole, half, still, full = half_span_lanes(f, dz, x,
                                               [1.0, 0.5, 0.0, 0.5], cfg)
    np.testing.assert_array_equal(whole, marcus_jump(f, dz, x, cfg))
    np.testing.assert_allclose(whole, full, atol=1e-12)
    np.testing.assert_array_equal(still, half)


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
        clone = coefficient_from_spec({"kind": "catalog-smooth", "id": cid,
                                       **params})
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
    """A state or increment whose last axis is not of length d, a 0-d one
    included, and states and increments that do not broadcast, are a
    DimensionMismatch, not an IndexError or numpy's ValueError."""
    f = constant_matrix(np.eye(2))
    with pytest.raises(DimensionMismatch):
        f.evaluate(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        marcus_jump(f, np.zeros(3), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        marcus_jump(linear_diagonal(1.0, 2), np.zeros((3, 2)),
                    np.zeros((2, 2)))
    g = linear_diagonal(1.0, 1)
    for call in (lambda: g.evaluate(0.5),
                 lambda: marcus_jump(g, 0.5, np.array([0.3])),
                 lambda: marcus_jump(g, np.array([0.5]), 0.3),
                 lambda: jump_defect(g, 0.5, np.array([0.3])),
                 lambda: jump_defect(g, np.array([0.5]), 0.3)):
        with pytest.raises(DimensionMismatch):
            call()


def test_default_configs():
    assert DEFAULT_FLOW.substeps == 32
    assert DEFAULT_FLOW.adaptive
    assert REFERENCE_FLOW.substeps == 256
    with pytest.raises(ValueError):
        FlowConfig(substeps=0)


# ---------------------------------------------------------------------------
# bad parameters are rejected at construction

def test_constant_matrix_rejects_non_finite_entries():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            constant_matrix([[1.0, 0.0], [bad, 1.0]])


def test_coefficient_refuses_a_matrix_other_than_its_field():
    """``matrix`` must be bitwise ``evaluate`` at the zero state, or the
    schemes that step with the matrix would step another field than those
    that evaluate it: NaN against 1.0, one ulp, a sign of zero and a shape
    are all refused; every constant_matrix passes, -0.0 entries too."""
    def const(m):
        return lambda x: np.array(m, dtype=float)

    one_ulp = math.nextafter(1.0, 2.0)
    for evaluated, matrix in [([[np.nan]], [[1.0]]), ([[1.0]], [[one_ulp]]),
                              ([[0.0]], [[-0.0]]), ([[1.0]], [1.0])]:
        with pytest.raises(ValueError, match="bitwise"):
            Coefficient("mismatch", 1, const(evaluated), matrix=matrix)
    f = constant_matrix([[1.0, -0.0], [0.0, one_ulp]])
    assert f.matrix.tobytes() == f.evaluate(np.zeros(2)).tobytes()


def test_linear_diagonal_rejects_bad_parameters():
    """A negative region radius would give a negative sup|f|, which turns
    the jump guard off."""
    for kwargs in ({"scale": math.inf}, {"region_radius": -1.0}, {"region_radius": 0.0},
                   {"region_radius": math.inf}, {"dimension": 2.5},
                   {"dimension": 0}, {"dimension": True}):
        args = {"scale": 1.0, "dimension": 2, "region_radius": 10.0, **kwargs}
        with pytest.raises(ValueError):
            linear_diagonal(**args)
    assert linear_diagonal(1.0, 2.0).dimension == 2


def test_sine_diagonal_rejects_bad_parameters():
    for kwargs in ({"amplitude": math.nan}, {"dimension": 2.5},
                   {"dimension": -1}, {"dimension": "2"}):
        with pytest.raises(ValueError):
            catalog_coefficient("sine-diagonal",
                                **{"amplitude": 1.0, "dimension": 2, **kwargs})


def test_gauss_rotation_rejects_bad_parameters():
    """sigma = 0 used to divide by zero in the bounds."""
    for kwargs in ({"amplitude": math.inf}, {"sigma": 0.0}, {"sigma": -1.5},
                   {"sigma": 1e-200}, {"sigma": math.inf}):
        with pytest.raises(ValueError):
            catalog_coefficient("gauss-rotation",
                                **{"amplitude": 1.0, "sigma": 1.5, **kwargs})


def test_cosine_shear_rejects_bad_parameters():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="amplitude"):
            catalog_coefficient("cosine-shear", amplitude=bad)

