"""Unit-time ODE flows and the jump maps built from matrix coefficient fields.

A coefficient is a smooth matrix field f : R^d -> R^(d x d).  The jump map
phi(f dz, x) transports a state across a driver increment dz by following

    dy/du = f(y) dz,    y(0) = x,    u in [0, 1],

and evaluating y(1) with the classical fourth-order Runge-Kutta rule on a
fixed substep grid, so the integration error is O(substeps^-4).
``jump_defect`` measures how far the jump map deviates from its
linearization,

    phi(f dz, x) - x - f(x) dz,

which is quadratically small in |dz| with a constant computable from bounds
on f and its derivative.

Every jump transport runs on ``marcus_jump_chains``, the one RK4 loop: it
steps lanes of jumps, each with its own increment, span and step count,
where a lane's next jump starts from what the caller makes of the last
(the lockstep projects it, wz-hat's sampler goes on to the next
observation time).  ``marcus_jump`` maps broadcast rows of states and
increments as lanes of one unit-span jump each, and a state (d,) is a
batch of one row, so a row gives the same bits alone or in any batch.  The
first row, in row order, that leaves the finite-value guard or has a
non-finite increment raises its NonFinite.

The integrators never build the (m, d, d) matrices f(y): each Runge-Kutta
stage asks the coefficient for the vector f(y) dz through the ``field``
hook (:meth:`Coefficient.field`).  Its default is the stacked matrix
product; the built-in state-dependent kinds pass a closed form that is
bitwise that product, signed zeros included, at a fraction of its cost.
"""

import math
import numbers
from dataclasses import dataclass

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
        """RK4 steps for an increment of norm ``dz_norm``.

        A non-finite norm raises NonFinite: no step count transports it.
        """
        dz_norm = float(dz_norm)
        if not math.isfinite(dz_norm):
            raise NonFinite(f"jump increment norm {dz_norm} is not finite")
        if not self.adaptive:
            return self.substeps
        scaled = self.substeps * dz_norm
        if scaled >= self.substeps:
            # capped; also where the product overflows
            return self.substeps
        return max(1, int(math.ceil(scaled)))


DEFAULT_FLOW = FlowConfig()
REFERENCE_FLOW = FlowConfig(substeps=REFERENCE_SUBSTEPS, adaptive=True)


_GUARD_MESSAGE = "flow trajectory left the finite-value guard region"


def _constant_jump(f: "Coefficient", dz, x, span):
    """The closed-form jump map x + span f dz of a constant coefficient, for
    a state (d,) or rows (m, d), and whether each result is in the guard
    region.  A stack of (1, d) @ (d, d) products rounds like the 1-D
    ``dz @ f.matrix.T``, so a row is bitwise its single state."""
    y = x + span * (dz[..., None, :] @ f.matrix.T)[..., 0, :]
    return y, np.abs(y).max(axis=-1) <= BLOWUP_GUARD


def inside_guard(y: list) -> list:
    """The state ``y`` (floats) that a jump reached, or NonFinite if a
    coordinate lies beyond ``BLOWUP_GUARD`` or is NaN: the check that
    ``_constant_jump`` makes on one row."""
    for v in y:
        if not abs(v) <= BLOWUP_GUARD:
            raise NonFinite(_GUARD_MESSAGE)
    return y


def marcus_jump_chains(f: "Coefficient", lanes, follow,
                       cfg: FlowConfig = DEFAULT_FLOW):
    """Chains of jump maps, one per lane, with the lanes stepped together.

    ``lanes[i]`` is (dzs, spans, x): the (n_i, d) increments of lane i's
    jumps, taken in order, their (n_i,) spans, and the start of its first.
    Jump k from x is the flow of y -> f(y) dzs[k] over [0, spans[k]]: a
    copy of x for a zero span, whatever the increment; the closed form
    (``_constant_jump``) for a constant coefficient; otherwise
    ``_jump_steps`` RK4 steps of h = span / steps through the rows of
    ``f.field`` (none for a zero increment, a copy of x again).  It fails
    with NonFinite on a non-finite increment (the guard's error, for a
    constant coefficient) or a result, checked after every step, outside
    the guard region.  ``follow(i, k, y, error)`` gets y, or None and the
    error, once jump k of lane i is done, and returns the start of jump
    k + 1, or None to stop the lane.  Each iteration advances every lane
    with a jump in progress by one RK4 step, so no lane waits for the steps
    of another lane's jump.  A lane with no jump in progress has dz = 0 and
    stays put at its last state (a failed jump's start), and only lanes
    with a jump in progress are checked against the guard.
    """
    m, d = len(lanes), f.dimension
    constant = f.matrix is not None
    # arrays, not lists: a float object would cost four times the memory;
    # a closed form needs no norm, whose squares may overflow where it does not
    norms = [] if constant else [np.linalg.norm(dzs, axis=-1)
                                 for dzs, _, _ in lanes]
    starts = [np.asarray(x, dtype=float) for _, _, x in lanes]
    y = np.array(starts).reshape(m, d)
    dz, h, half, sixth = (np.zeros((m, d)) for _ in range(4))
    left = np.full(m, -1)   # RK4 steps left in each lane's jump
    jobs = [0] * m          # the jump each lane is on, from starts[i]
    field = f.field

    def start(i, k, x):
        """Put lane i on jump k from x; returns whether it is stepping.

        Jumps that need no step, or fail before stepping, end here.
        """
        dzs, spans, _ = lanes[i]
        while x is not None and k < len(spans):
            span = float(spans[k])
            try:
                if span == 0.0:
                    out = x.copy()
                elif constant:
                    out, inside = _constant_jump(f, dzs[k], x, span)
                    if not inside:
                        raise NonFinite(_GUARD_MESSAGE)
                else:
                    n = _jump_steps(cfg, float(norms[i][k]), span)
                    if n:
                        y[i], dz[i], left[i], jobs[i], starts[i] = (
                            x, dzs[k], n, k, x)
                        step = span / n
                        h[i], half[i], sixth[i] = step, 0.5 * step, step / 6.0
                        return True
                    out = x.copy()
            except NonFinite as exc:
                x, k = follow(i, k, None, exc), k + 1
                continue
            x, k = follow(i, k, out, None), k + 1
        dz[i], left[i] = 0.0, -1
        return False

    busy = sum(start(i, 0, x) for i, x in enumerate(list(starts)))
    while busy:
        k1 = field(y, dz)
        k2 = field(y + half * k1, dz)
        k3 = field(y + half * k2, dz)
        k4 = field(y + h * k3, dz)
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        left -= 1
        if not np.abs(y).max() <= BLOWUP_GUARD:
            # lanes that leave the guard region fail at this step, and go
            # back to their jump's start
            for i in np.flatnonzero(~(np.abs(y).max(axis=1) <= BLOWUP_GUARD)
                                    & (left >= 0)).tolist():
                k, y[i], left[i] = jobs[i], starts[i], -1
                busy += start(i, k + 1, follow(
                    i, k, None, NonFinite(_GUARD_MESSAGE))) - 1
        for i in np.flatnonzero(left == 0).tolist():
            k = jobs[i]
            busy += start(i, k + 1, follow(i, k, y[i].copy(), None)) - 1


def _jump_steps(cfg: FlowConfig, dz_norm: float, span: float) -> int:
    """RK4 steps of the jump transport over [0, span]; 0 for a zero increment."""
    if dz_norm == 0.0:
        return 0
    n = cfg.steps_for(dz_norm)
    return n if span == 1.0 else max(1, int(math.ceil(n * span)))


def marcus_jump(f: "Coefficient", dz, x, cfg: FlowConfig = DEFAULT_FLOW) -> np.ndarray:
    """Jump map phi(f dz, x): unit-time flow of the field y -> f(y) dz.

    States and increments are broadcast, and each row is the jump of
    ``marcus_jump_chains`` from its state over its increment: its own step
    count from ``cfg.steps_for(|dz|)``, and none for a zero increment, which
    maps the state to itself.  A constant coefficient forms all rows'
    closed forms x + f dz at once (``_constant_jump``), each bitwise its row
    alone.  The first failed row's NonFinite is raised, and a state or
    increment whose last axis is not of length d, or states and increments
    that do not broadcast, raise DimensionMismatch.
    """
    x = np.asarray(x, dtype=float)
    dz = np.asarray(dz, dtype=float)
    d = f.dimension
    if x.shape[-1:] != (d,) or dz.shape[-1:] != (d,):
        raise DimensionMismatch(f"state/increment dimension must be {d}")
    try:
        x, dz = np.broadcast_arrays(x, dz)
    except ValueError:
        raise DimensionMismatch(f"states {x.shape} and increments {dz.shape} "
                                f"do not broadcast") from None
    shape = x.shape
    x, dz = x.reshape(-1, d), dz.reshape(-1, d)
    if f.matrix is not None:
        y, inside = _constant_jump(f, dz, x, 1.0)
        if not inside.all():
            raise NonFinite(_GUARD_MESSAGE)
        return y.reshape(shape)
    y, errors = np.empty_like(x), [None] * len(x)

    def follow(i, k, yi, error):
        if error is None:
            y[i] = yi
        errors[i] = error

    # one lane of one jump per row
    spans = np.ones(1)
    marcus_jump_chains(f, [(dz[i:i + 1], spans, x[i]) for i in range(len(x))],
                       follow, cfg)
    for err in errors:
        if err is not None:
            raise err
    return y.reshape(shape)


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
        An x whose last axis is not of length d, a scalar included, raises
        DimensionMismatch.
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

    ``field`` is an optional closed form of :meth:`field`, the product
    f(y) dz, that must round exactly like the stacked matrix product it
    replaces (see :meth:`field`).

    ``matrix`` marks a constant coefficient: every scheme then steps with
    it in closed form.  It must be bitwise ``evaluate`` at the zero state
    (ValueError otherwise), so that no scheme steps another field.
    """

    def __init__(self, kind: str, dimension: int, evaluate, derivative=None,
                 sup_f=math.inf, sup_df=math.inf, sup_dff=math.inf,
                 lip_df=math.inf, region_radius=math.inf, matrix=None,
                 label: str = "", field=None):
        self.kind = kind
        self.dimension = int(dimension)
        self._evaluate = evaluate
        self._derivative = derivative
        self._field = field
        self.sup_f = float(sup_f)
        self.sup_df = float(sup_df)
        self.sup_dff = float(sup_dff)
        self.lip_df = float(lip_df)
        self.region_radius = float(region_radius)
        self.matrix = None
        if matrix is not None:
            self.matrix = np.asarray(matrix, dtype=float).copy()
            self.matrix.flags.writeable = False
            at_zero = np.asarray(self.evaluate(np.zeros(self.dimension)),
                                 dtype=float)
            if (at_zero.shape != self.matrix.shape
                    or at_zero.tobytes() != self.matrix.tobytes()):
                raise ValueError("matrix must be bitwise evaluate at the "
                                 "zero state")
        self.label = label or kind

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dimension,):
            raise DimensionMismatch(f"state dimension must be {self.dimension}")
        return self._evaluate(x)

    def field(self, y: np.ndarray, dz: np.ndarray) -> np.ndarray:
        """The vector f(y) dz, for a state (d,) or states (m, d) and
        increments of the same shape; float arrays, unchecked.

        By default it is the stacked product ``(f(y) @ dz[..., None])[...,
        0]``, which rounds like the 1-D ``f(y) @ dz``.  A closed form skips
        building the (m, d, d) matrices.  Each row of f(y) of the built-in
        kinds has one nonzero entry, so its product is exact in every term
        but that one; adding 0.0 does what the matrix product's zero start
        does to a -0.0 sum, so the closed forms are bitwise the product.
        """
        if self._field is not None:
            return self._field(y, dz)
        return (self._evaluate(y) @ dz[..., None])[..., 0]

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

    def __repr__(self):
        return f"Coefficient({self.label!r}, d={self.dimension})"


def _finite(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is finite."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


def _dimension(value) -> int:
    """``value`` as an int; ValueError unless it is an integer >= 1."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer() or value < 1):
        raise ValueError(f"dimension must be an integer >= 1, got {value!r}")
    return int(value)


def constant_matrix(matrix) -> Coefficient:
    """Constant coefficient f(x) = M.  Exact jump map, zero defect."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch("constant coefficient needs a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("constant coefficient matrix must be finite")
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
                       label=f"constant-matrix(d={d})")


def linear_diagonal(scale: float, dimension: int, region_radius: float = 10.0) -> Coefficient:
    """f(x) = scale * diag(x).  Unbounded; bounds hold on the working region.

    Transport over an increment of norm up to 1 can enlarge |x| by at most
    exp(|scale|), which the certified suprema account for.
    """
    s = _finite("scale", scale)
    d = _dimension(dimension)
    r = _finite("region_radius", region_radius)
    if not r > 0.0:
        raise ValueError(
            f"region_radius must be positive, got {region_radius!r}")
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

    def field(y, dz):
        return s * y * dz + 0.0

    return Coefficient(
        "linear-diagonal", d, ev, deriv,
        sup_f=abs(s) * r * grow,
        sup_df=abs(s) * math.sqrt(d),
        sup_dff=s * s * r * grow,
        lip_df=0.0,
        region_radius=r,
        label=f"linear-diagonal(scale={s}, d={d})",
        field=field,
    )


def _sine_diagonal(amplitude: float, dimension: int) -> Coefficient:
    a = _finite("amplitude", amplitude)
    d = _dimension(dimension)

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

    def field(y, dz):
        return a * np.sin(y) * dz + 0.0

    return Coefficient(
        "catalog-smooth", d, ev, deriv,
        sup_f=abs(a),
        sup_df=abs(a) * math.sqrt(d),
        sup_dff=0.5 * a * a * math.sqrt(d),
        lip_df=abs(a) * math.sqrt(d),
        label=f"sine-diagonal(a={a}, d={d})",
        field=field,
    )


def _gauss_rotation(amplitude: float, sigma: float) -> Coefficient:
    a = _finite("amplitude", amplitude)
    s = _finite("sigma", sigma)
    if not (s > 0.0 and s * s > 0.0):
        # the bounds divide by s and s^2
        raise ValueError(f"sigma must be positive with a nonzero square, "
                         f"got {sigma!r}")
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    # the nonzero entries g (-a) and g a of f(x) = a g rot, which multiply
    # dz_1 and dz_0: bitwise (a g)(-1) and (a g) 1
    signed_a = np.array([-a, a])

    # exp(-|x|^2 / (2 s^2)), the sign moved onto the divisor: same quotient
    divisor = -(2.0 * s * s)

    def envelope(x):
        return np.exp(np.add.reduce(x * x, axis=-1) / divisor)

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

    def field(y, dz):
        return envelope(y)[..., None] * signed_a * dz[..., ::-1] + 0.0

    # sup |grad envelope| = exp(-1/2)/s; crude but certified Frobenius bounds
    return Coefficient(
        "catalog-smooth", 2, ev, deriv,
        sup_f=abs(a),
        sup_df=abs(a) * math.sqrt(2.0) / s,
        sup_dff=a * a / s,
        lip_df=2.0 * abs(a) / (s * s),
        label=f"gauss-rotation(a={a}, sigma={s})",
        field=field,
    )


def _cosine_shear(amplitude: float) -> Coefficient:
    a = _finite("amplitude", amplitude)

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

    def field(y, dz):
        return a * np.cos(y[..., ::-1]) * dz + 0.0

    return Coefficient(
        "catalog-smooth", 2, ev, deriv,
        sup_f=abs(a),
        sup_df=abs(a) * math.sqrt(2.0),
        sup_dff=a * a * math.sqrt(2.0),
        lip_df=abs(a) * math.sqrt(2.0),
        label=f"cosine-shear(a={a})",
        field=field,
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
