"""Unit-time ODE flows and the jump maps built from matrix coefficient fields.

A coefficient is a smooth matrix field f : R^d -> R^(d x d).  The jump map
phi(f dz, x) transports a state across a driver increment dz by following

    dy/du = f(y) dz,    y(0) = x,    u in [0, 1],

and evaluating y(1).  ``flow`` integrates a generic vector field g over unit
parameter time with the classical fourth-order Runge-Kutta rule on a fixed
substep grid, so the integration error is O(substeps^-4).  ``jump_defect``
measures how far the jump map deviates from its linearization,

    phi(f dz, x) - x - f(x) dz,

which is quadratically small in |dz| with a constant computable from bounds
on f and its derivative.

All entry points are shape polymorphic: a state of shape (d,) with an
increment (d,) integrates a single trajectory, while states (m, d) with
increments (m, d) integrate m independent trajectories in one vectorized
pass (used by the defect sweeps and by the lockstep reference build).
``marcus_jump_rows`` is that pass, and each of its rows is exact: row i is
bitwise the single-row jump map of (dz_i, x_i), with its own step count,
and a row that leaves the finite-value guard fails alone.
"""

import copy
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonFinite

BLOWUP_GUARD = 1e12

#: Substep defaults: schemes use 32 for in-step jump transport, references
#: and oracles 256.
SCHEME_SUBSTEPS = 32
REFERENCE_SUBSTEPS = 256


@dataclass(frozen=True)
class FlowConfig:
    """Integrator settings for unit-time flows.

    substeps: fixed Runge-Kutta step count over the unit parameter interval.
    adaptive: when True, jump transport scales the step count with the
        increment norm (never above ``substeps``, never below one step), so
        small diffusion-scale increments do not pay the full substep cost.
    """

    substeps: int = SCHEME_SUBSTEPS
    adaptive: bool = True

    def __post_init__(self):
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")

    def steps_for(self, dz_norm: float) -> int:
        if not self.adaptive:
            return self.substeps
        scaled = int(math.ceil(self.substeps * float(dz_norm)))
        return max(1, min(self.substeps, scaled))


DEFAULT_FLOW = FlowConfig()
REFERENCE_FLOW = FlowConfig(substeps=REFERENCE_SUBSTEPS, adaptive=True)


_GUARD_MESSAGE = "flow trajectory left the finite-value guard region"


def _check_finite(y: np.ndarray):
    # one reduction: the negated test also fails on nan, and inf exceeds it
    if not np.abs(y).max() <= BLOWUP_GUARD:
        raise NonFinite(_GUARD_MESSAGE)


def _rk4(g: Callable[[np.ndarray], np.ndarray], x: np.ndarray, span: float, n: int):
    """Integrate dy/du = g(y) over a parameter span with n RK4 steps."""
    h = span / n
    y = np.asarray(x, dtype=float).copy()
    for _ in range(n):
        k1 = g(y)
        k2 = g(y + 0.5 * h * k1)
        k3 = g(y + 0.5 * h * k2)
        k4 = g(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_finite(y)
    return y


def _rk4_rows(f: "Coefficient", dz: np.ndarray, x: np.ndarray, steps: list):
    """Row-wise ``_rk4`` of dy/du = f(y) dz_i over [0, 1] in steps[i] steps.

    Every row does the arithmetic of the single-row ``_rk4`` with h = 1 /
    steps[i]; a row with 0 steps stays put.  The field is the stacked
    product ``f(y) @ dz[..., None]``, which rounds like the 1-D product
    ``f(y) @ dz`` (einsum does not).  Rows are sorted by step count and
    retire once their steps are done, so each iteration works on the
    leading rows that still have steps left.  A row that leaves the guard
    region retires at the iteration the single-row call would raise, with
    the error it would raise.  Returns (y, errors): per row None, or the
    NonFinite that stopped it (its row of y is then not meaningful).
    """
    order = sorted(range(len(steps)), key=steps.__getitem__, reverse=True)
    steps = [steps[r] for r in order]
    rows = np.array(order, dtype=int)
    y, col = x[rows], dz[rows, :, None]
    # each row's h = 1 / steps as the single-row call forms it, spread over
    # the row: same-shape products are the cheapest
    h = np.array([[1.0 / n if n else 1.0] * x.shape[1] for n in steps])
    half, sixth = 0.5 * h, h / 6.0
    out = np.empty_like(x)
    errors = [None] * len(steps)

    def g(v):
        return (f.evaluate(v) @ col)[..., 0]

    i = 0
    while True:
        live = len(steps)
        while live and steps[live - 1] <= i:
            live -= 1
        if live < len(steps):
            out[rows[live:]] = y[live:]
            del steps[live:]
            rows, y, col, h, half, sixth = (
                a[:live] for a in (rows, y, col, h, half, sixth))
        if not live:
            return out, errors
        k1 = g(y)
        k2 = g(y + half * k1)
        k3 = g(y + half * k2)
        k4 = g(y + h * k3)
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.abs(y).max() <= BLOWUP_GUARD:
            ok = np.abs(y).max(axis=1) <= BLOWUP_GUARD
            for r in rows[~ok].tolist():
                errors[r] = NonFinite(_GUARD_MESSAGE)
            steps = [s for s, keep in zip(steps, ok.tolist()) if keep]
            rows, y, col, h, half, sixth = (
                a[ok] for a in (rows, y, col, h, half, sixth))
        i += 1


def flow(g, x, cfg: FlowConfig = DEFAULT_FLOW) -> np.ndarray:
    """Unit-time flow of the vector field g from state x.

    ``adaptive`` has no effect here (there is no increment to scale by); the
    full ``cfg.substeps`` count is always used.
    """
    return _rk4(g, x, 1.0, cfg.substeps)


def flow_partial(g, x, u_end: float, cfg: FlowConfig = DEFAULT_FLOW,
                 substeps: int | None = None) -> np.ndarray:
    """Flow of g from x over the parameter interval [0, u_end], u_end <= 1."""
    u_end = float(u_end)
    if u_end < 0.0:
        raise ValueError("u_end must be nonnegative")
    if u_end == 0.0:
        return np.asarray(x, dtype=float).copy()
    if substeps is None:
        substeps = max(1, int(math.ceil(cfg.substeps * u_end)))
    return _rk4(g, x, u_end, substeps)


def _increment_field(f: "Coefficient", dz: np.ndarray):
    dz = np.asarray(dz, dtype=float)
    if dz.ndim == 1:
        def g(y):
            return f.evaluate(y) @ dz
    else:
        def g(y):
            return np.einsum("...ij,...j->...i", f.evaluate(y), dz)
    return g


def marcus_jump(f: "Coefficient", dz, x, cfg: FlowConfig = DEFAULT_FLOW) -> np.ndarray:
    """Jump map phi(f dz, x): unit-time flow of the field y -> f(y) dz.

    For a constant coefficient the flow is exact in closed form (x + f dz)
    and the integrator is skipped entirely.  Batched input is mapped row by
    row through ``marcus_jump_rows``, and the first failed row's error is
    raised.
    """
    x = np.asarray(x, dtype=float)
    dz = np.asarray(dz, dtype=float)
    if x.shape[-1] != f.dimension or dz.shape[-1] != f.dimension:
        raise DimensionMismatch(
            f"state/increment dimension must be {f.dimension}"
        )
    if x.ndim > 1 or dz.ndim > 1:
        x, dz = np.broadcast_arrays(x, dz)
        d = f.dimension
        y, errors = marcus_jump_rows(f, dz.reshape(-1, d), x.reshape(-1, d), cfg)
        for err in errors:
            if err is not None:
                raise err
        return y.reshape(x.shape)
    if f.matrix is not None:
        out = x + dz @ f.matrix.T
        _check_finite(out)
        return out
    peak = float(np.linalg.norm(dz, axis=-1))
    if peak == 0.0:
        return x.copy()
    n = cfg.steps_for(peak)
    return _rk4(_increment_field(f, dz), x, 1.0, n)


def marcus_jump_rows(f: "Coefficient", dz, x, cfg: FlowConfig = DEFAULT_FLOW):
    """Jump maps of the rows of (m, d) increments dz and states x.

    Row i is bitwise ``marcus_jump(f, dz[i], x[i], cfg)``: it gets its own
    step count ``cfg.steps_for(|dz_i|)`` (none for a zero row, which maps
    to itself), and a constant coefficient forms each row's product as the
    single-row call does.  Returns (y, errors): ``errors[i]`` is None, or
    the NonFinite that the single-row call raises for row i, whose row of y
    is then not meaningful; no other row is affected by it.
    """
    x = np.asarray(x, dtype=float)
    dz = np.asarray(dz, dtype=float)
    if x.ndim != 2 or x.shape != dz.shape or x.shape[1] != f.dimension:
        raise DimensionMismatch(
            f"states and increments must both have shape (m, {f.dimension})"
        )
    if f.matrix is not None:
        # a stack of (1, d) @ (d, d) products rounds like the 1-D dz @ M.T
        y = x + (dz[:, None, :] @ f.matrix.T)[:, 0, :]
        ok = (np.abs(y).max(axis=1) <= BLOWUP_GUARD).tolist()
        return y, [None if good else NonFinite(_GUARD_MESSAGE) for good in ok]
    # the norms of the single-row call, and its zero-increment shortcut
    norms = np.linalg.norm(dz, axis=-1).tolist()
    return _rk4_rows(f, dz, x, [cfg.steps_for(v) if v != 0.0 else 0
                                for v in norms])


def marcus_jump_partial(f: "Coefficient", dz, x, u_end: float,
                        cfg: FlowConfig = DEFAULT_FLOW) -> np.ndarray:
    """Partial jump transport: flow of y -> f(y) dz over [0, u_end]."""
    x = np.asarray(x, dtype=float)
    dz = np.asarray(dz, dtype=float)
    u_end = float(u_end)
    if u_end == 0.0:
        return x.copy()
    if f.matrix is not None:
        out = x + u_end * (dz @ f.matrix.T)
        _check_finite(out)
        return out
    peak = float(np.max(np.linalg.norm(dz, axis=-1)))
    if peak == 0.0:
        return x.copy()
    n = max(1, int(math.ceil(cfg.steps_for(peak) * u_end)))
    return _rk4(_increment_field(f, dz), x, u_end, n)


def jump_defect(f: "Coefficient", dz, x, cfg: FlowConfig = REFERENCE_FLOW) -> np.ndarray:
    """Deviation of the jump map from its linearization at x.

    Returns phi(f dz, x) - x - f(x) dz; shape follows the inputs.  The norm
    of this defect is bounded by C |dz|^2 with
    C = sup|f'f| * exp(sup|f'| |dz|), the constant exposed by
    :meth:`Coefficient.defect_constant`.
    """
    x = np.asarray(x, dtype=float)
    dz = np.asarray(dz, dtype=float)
    transported = marcus_jump(f, dz, x, cfg)
    linear = np.einsum("...ij,...j->...i", f.evaluate(x), dz)
    return transported - x - linear


_FD_STEP_SCALE = 1e-5


class Coefficient:
    """Matrix coefficient field f with optional analytic derivative.

    evaluate(x): f(x), shape (d, d); batched input (m, d) gives (m, d, d).
    derivative(x): rank-3 array D with D[i, j, l] = d f_ij / d x_l.  When no
        analytic derivative is supplied, central finite differences with
        step 1e-5 * (1 + |x|) are used (single states only).

    The bound attributes certify suprema over the working region (a ball of
    ``region_radius`` around the origin, enlarged by unit-increment
    transport for the unbounded kinds):

    sup_f:   operator-norm bound on f        (the L in jump-size guards)
    sup_df:  Frobenius bound on f'
    sup_dff: Frobenius bound on the correction tensor (f'f)
    lip_df:  Lipschitz constant of x -> f'(x) in Frobenius norm

    ``spec`` is the plain-dict description that :meth:`spec` returns, or
    None for a coefficient that cannot be rebuilt from a spec.
    """

    def __init__(self, kind: str, dimension: int, evaluate, derivative=None,
                 sup_f=math.inf, sup_df=math.inf, sup_dff=math.inf,
                 lip_df=math.inf, region_radius=math.inf, matrix=None,
                 label: str = "", spec: dict | None = None):
        self.kind = kind
        self.dimension = int(dimension)
        self._evaluate = evaluate
        self._derivative = derivative
        self.sup_f = float(sup_f)
        self.sup_df = float(sup_df)
        self.sup_dff = float(sup_dff)
        self.lip_df = float(lip_df)
        self.region_radius = float(region_radius)
        self.matrix = None
        if matrix is not None:
            self.matrix = np.asarray(matrix, dtype=float).copy()
            self.matrix.flags.writeable = False
        self.label = label or kind
        self._spec = spec

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dimension:
            raise DimensionMismatch(f"state dimension must be {self.dimension}")
        return self._evaluate(x)

    def derivative(self, x) -> np.ndarray:
        """d f_ij / d x_l as an (d, d, d) array indexed [i, j, l]."""
        x = np.asarray(x, dtype=float)
        if self._derivative is not None:
            return self._derivative(x)
        if x.ndim != 1:
            raise DimensionMismatch("finite-difference derivative needs a single state")
        h = _FD_STEP_SCALE * (1.0 + float(np.linalg.norm(x)))
        d = self.dimension
        out = np.empty((d, d, d))
        for l in range(d):
            bump = np.zeros(d)
            bump[l] = h
            out[:, :, l] = (self._evaluate(x + bump) - self._evaluate(x - bump)) / (2.0 * h)
        return out

    def correction(self, x) -> np.ndarray:
        """Correction tensor (f'f)(x): C[i, j, m] = sum_l df_ij/dx_l f_lm."""
        return np.einsum("ijl,lm->ijm", self.derivative(x), self.evaluate(x))

    def defect_constant(self, dz_norm: float) -> float:
        """Bound C with |jump defect| <= C |dz|^2 for increments up to dz_norm."""
        return self.sup_dff * math.exp(self.sup_df * float(dz_norm))

    def defect_lipschitz(self, dz_norm: float) -> float:
        """Bound C' with |h(x) - h(y)| <= C' |x - y| for the normalized defect
        h(x) = (phi(f dz, x) - x - f(x) dz) / |dz|^2 at fixed |dz| <= dz_norm."""
        e = math.exp(self.sup_df * float(dz_norm))
        return 0.5 * e * e * (self.lip_df * self.sup_f + self.sup_df ** 2)

    def spec(self) -> dict:
        """Plain-dict description, round-trippable through
        :func:`coefficient_from_spec`."""
        if self._spec is None:
            raise NotImplementedError(f"{self.label} has no spec")
        return copy.deepcopy(self._spec)

    def __repr__(self):
        return f"Coefficient({self.label!r}, d={self.dimension})"


def constant_matrix(matrix) -> Coefficient:
    """Constant coefficient f(x) = M.  Exact jump map, zero defect."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch("constant coefficient needs a square matrix")
    d = m.shape[0]
    zero = np.zeros((d, d, d))

    def ev(x):
        if x.ndim == 1:
            return m.copy()
        return np.broadcast_to(m, x.shape[:-1] + (d, d)).copy()

    def deriv(x):
        return zero.copy()

    sup = float(np.linalg.norm(m, 2))
    return Coefficient("constant-matrix", d, ev, deriv, sup_f=sup, sup_df=0.0,
                       sup_dff=0.0, lip_df=0.0, matrix=m,
                       label=f"constant-matrix(d={d})",
                       spec={"kind": "constant-matrix", "matrix": m.tolist()})


def linear_diagonal(scale: float, dimension: int, region_radius: float = 10.0) -> Coefficient:
    """f(x) = scale * diag(x).  Unbounded; bounds hold on the working region.

    Transport over an increment of norm up to 1 can enlarge |x| by at most
    exp(|scale|), which the certified suprema account for.
    """
    s = float(scale)
    d = int(dimension)
    r = float(region_radius)
    grow = math.exp(abs(s))  # worst-case enlargement for |dz| <= 1

    def ev(x):
        if x.ndim == 1:
            return np.diag(s * x)
        out = np.zeros(x.shape[:-1] + (d, d))
        idx = np.arange(d)
        out[..., idx, idx] = s * x
        return out

    eye_tensor = np.zeros((d, d, d))
    for i in range(d):
        eye_tensor[i, i, i] = s

    def deriv(x):
        return eye_tensor.copy()

    return Coefficient(
        "linear-diagonal", d, ev, deriv,
        sup_f=abs(s) * r * grow,
        sup_df=abs(s) * math.sqrt(d),
        sup_dff=s * s * r * grow,
        lip_df=0.0,
        region_radius=r,
        label=f"linear-diagonal(scale={s}, d={d})",
        spec={"kind": "linear-diagonal", "scale": s, "dimension": d,
              "region_radius": r},
    )


def _sine_diagonal(amplitude: float, dimension: int) -> Coefficient:
    a = float(amplitude)
    d = int(dimension)

    def ev(x):
        out = np.zeros(x.shape[:-1] + (d, d))
        idx = np.arange(d)
        out[..., idx, idx] = a * np.sin(x)
        return out

    def deriv(x):
        if x.ndim != 1:
            raise DimensionMismatch("derivative needs a single state")
        out = np.zeros((d, d, d))
        for i in range(d):
            out[i, i, i] = a * math.cos(x[i])
        return out

    return Coefficient(
        "catalog-smooth", d, ev, deriv,
        sup_f=abs(a),
        sup_df=abs(a) * math.sqrt(d),
        sup_dff=0.5 * a * a * math.sqrt(d),
        lip_df=abs(a) * math.sqrt(d),
        label=f"sine-diagonal(a={a}, d={d})",
        spec={"kind": "catalog-smooth", "id": "sine-diagonal",
              "amplitude": a, "dimension": d},
    )


def _gauss_rotation(amplitude: float, sigma: float) -> Coefficient:
    a = float(amplitude)
    s = float(sigma)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])

    def envelope(x):
        return np.exp(-np.sum(x * x, axis=-1) / (2.0 * s * s))

    def ev(x):
        g = envelope(x)
        if x.ndim == 1:
            return a * g * rot
        return a * g[..., None, None] * rot

    def deriv(x):
        if x.ndim != 1:
            raise DimensionMismatch("derivative needs a single state")
        g = float(envelope(x))
        out = np.empty((2, 2, 2))
        for l in range(2):
            out[:, :, l] = a * g * (-x[l] / (s * s)) * rot
        return out

    # sup |grad envelope| = exp(-1/2)/s; crude but certified Frobenius bounds
    return Coefficient(
        "catalog-smooth", 2, ev, deriv,
        sup_f=abs(a),
        sup_df=abs(a) * math.sqrt(2.0) / s,
        sup_dff=a * a / s,
        lip_df=2.0 * abs(a) / (s * s),
        label=f"gauss-rotation(a={a}, sigma={s})",
        spec={"kind": "catalog-smooth", "id": "gauss-rotation",
              "amplitude": a, "sigma": s},
    )


def _cosine_shear(amplitude: float) -> Coefficient:
    a = float(amplitude)

    def ev(x):
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = a * np.cos(x[..., 1])
        out[..., 1, 1] = a * np.cos(x[..., 0])
        return out

    def deriv(x):
        if x.ndim != 1:
            raise DimensionMismatch("derivative needs a single state")
        out = np.zeros((2, 2, 2))
        out[0, 0, 1] = -a * math.sin(x[1])
        out[1, 1, 0] = -a * math.sin(x[0])
        return out

    return Coefficient(
        "catalog-smooth", 2, ev, deriv,
        sup_f=abs(a),
        sup_df=abs(a) * math.sqrt(2.0),
        sup_dff=a * a * math.sqrt(2.0),
        lip_df=abs(a) * math.sqrt(2.0),
        label=f"cosine-shear(a={a})",
        spec={"kind": "catalog-smooth", "id": "cosine-shear", "amplitude": a},
    )


#: Bounded smooth built-ins addressable by id from configs.
CATALOG = {
    "sine-diagonal": _sine_diagonal,
    "gauss-rotation": _gauss_rotation,
    "cosine-shear": _cosine_shear,
}


def catalog_coefficient(cid: str, **params) -> Coefficient:
    """Instantiate a bounded catalog coefficient by id."""
    if cid not in CATALOG:
        raise KeyError(
            f"unknown catalog coefficient {cid!r}; available: {sorted(CATALOG)}"
        )
    return CATALOG[cid](**params)


def coefficient_from_spec(spec: dict) -> Coefficient:
    """Build a coefficient from its plain-dict description."""
    kind = spec.get("kind")
    if kind == "constant-matrix":
        return constant_matrix(spec["matrix"])
    if kind == "linear-diagonal":
        return linear_diagonal(
            spec["scale"], spec["dimension"],
            region_radius=spec.get("region_radius", 10.0),
        )
    if kind == "catalog-smooth":
        params = {k: v for k, v in spec.items() if k not in ("kind", "id")}
        return catalog_coefficient(spec["id"], **params)
    if kind in CATALOG:
        params = {k: v for k, v in spec.items() if k != "kind"}
        return catalog_coefficient(kind, **params)
    raise ValueError(f"unknown coefficient kind: {kind!r}")
