"""Constrained time-stepping schemes for Marcus-type noise.

All schemes advance a state X through the closure of a domain D driven by a
sampled path Z and a matrix coefficient f, recording the constrained path
X, the compensator K, the internal unconstrained path Y (so X = Y + K on
the output grid), and the running variation of K.

projection      X_{k+1} = project(phi(f dZ_k, X_k)) on a fixed partition;
                phi is the unit-time jump transport, so each cell increment
                is carried along the coefficient flow before clipping.
jump-adapted    the same step on the partition that isolates every jump of
                magnitude > 1/n while keeping mesh <= 1/n.
wz-hat          cell-interior transport of the same increments: on
                [t_k, t_{k+1}) the state follows the cell flow of
                f(.) dZ_k, is left unconstrained inside the cell, and is
                projected exactly at grid points.  Its grid values coincide
                bitwise with the projection scheme on the same partition,
                because both are produced by the same flow evaluation and
                the same projection call.
wz-bar          per-cell reflected polygonal dynamics: substeps_bar
                projected Euler substeps per cell, giving a continuous
                output path and a continuous compensator.
marcus-euler    expanded one-step rule: Euler term in the continuous
                increment, one half correction (f'f) against the cell's
                continuous quadratic covariation, exact transport across
                recorded jumps, one projection per cell.

Per step the jump admissibility guard |dZ| * sup|f| < rho0 is enforced
whenever the domain reach rho0 is finite; violations raise JumpTooLarge.
Every projection goes through ``skorokhod.guarded_step``: each runner
validates its start point and the dimensions once per path and then
projects each target once, unchecked (see the ``skorokhod`` docstring).

projection, jump-adapted (and so ``build_reference``) and wz-bar step
through ``skorokhod.project_steps``.  With a constant coefficient
(``f.matrix`` set) their increments do not depend on the state: f dZ_k per
cell, and (f dZ_k) du per wz-bar substep.  Runs of steps that stay inside
the domain then skip the projection, where it is the identity, and are
advanced in bulk; the output is bitwise that of the step-by-step loop,
because the same increments are summed in the same order.  The other
coefficients step one projection at a time.  The cells before the first
one that fails the jump guard are stepped first, and then the guard
raises, as it would in a loop checking each cell before stepping it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .driver import (CADLAG_STEP, LINEAR, GridPath, Partition,
                     jump_adapted_partition)
from .errors import DimensionMismatch, JumpTooLarge, StartOutsideDomain
from .flow import (DEFAULT_FLOW, REFERENCE_FLOW, Coefficient, FlowConfig,
                   marcus_jump, marcus_jump_partial)
from .geometry import Domain, OUTSIDE
from .skorokhod import accumulate, guarded_step, project_steps

SCHEME_KINDS = ("projection", "jump-adapted", "wz-hat", "wz-bar", "marcus-euler")

# wz-bar substeps held in memory at once
_BAR_BLOCK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class SchemeSpec:
    """What to run: scheme kind, partition, flow settings, and sampling.

    ``substeps_bar`` only matters for wz-bar.  ``jump_threshold`` only
    matters for jump-adapted (defaults to round(1/mesh) of the partition).
    ``observation_times`` are extra output times merged into the partition
    grid.
    """

    kind: str
    partition: Partition
    flow_cfg: FlowConfig = DEFAULT_FLOW
    substeps_bar: int = 64
    jump_threshold: int | None = None
    observation_times: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind: {self.kind!r}")
        if self.substeps_bar < 1:
            raise ValueError("substeps_bar must be >= 1")


@dataclass(frozen=True)
class RunMeta:
    scheme: str
    mesh: float
    projections: int
    boundary_hits: int

    def as_dict(self):
        return {"scheme": self.scheme, "mesh": self.mesh,
                "projections": self.projections,
                "boundary_hits": self.boundary_hits}


@dataclass(frozen=True, eq=False)
class SchemeOutput:
    """Constrained path, compensator, internal path, and bookkeeping."""

    x: GridPath
    k: GridPath
    y: GridPath
    k_variation: np.ndarray
    meta: RunMeta

    def __post_init__(self):
        kv = np.asarray(self.k_variation, dtype=float)
        kv.flags.writeable = False
        object.__setattr__(self, "k_variation", kv)


def _validated_start(domain: Domain, f: Coefficient, x0, z: GridPath) -> np.ndarray:
    """Check dimensions and the start point once, before stepping unchecked."""
    if not domain.dimension == f.dimension == z.dimension:
        raise DimensionMismatch(
            f"domain, coefficient and driver dimensions differ: "
            f"{domain.dimension}, {f.dimension}, {z.dimension}"
        )
    start = np.asarray(x0, dtype=float)
    if domain.contains(start) == OUTSIDE:
        raise StartOutsideDomain(
            f"initial point {start.tolist()} is outside the closed domain"
        )
    return start


def _check_delta(dz: np.ndarray, bound: float, rho0: float):
    if math.isfinite(rho0):
        dz_norm = math.sqrt(dz.dot(dz))
        if dz_norm * bound >= rho0:
            raise JumpTooLarge(
                f"increment norm {dz_norm:.6g} times coefficient bound "
                f"{bound:.6g} reaches the projection radius {rho0:.6g}"
            )


def _admissible_cells(dzs: np.ndarray, bound: float, rho0: float) -> int:
    """Number of leading cell increments that pass ``_check_delta``."""
    if not math.isfinite(rho0):
        return len(dzs)
    for k, dz in enumerate(dzs):
        try:
            _check_delta(dz, bound, rho0)
        except JumpTooLarge:
            return k
    return len(dzs)


def _output_grid(partition: Partition, observation_times) -> np.ndarray:
    if observation_times is None:
        return partition.points.copy()
    obs = np.asarray(observation_times, dtype=float)
    obs = obs[(obs >= 0.0) & (obs <= partition.horizon)]
    return np.union1d(partition.points, obs)


def _buffers(n: int, start: np.ndarray):
    """X, K, Y and k-variation arrays of n rows, the first set at the start."""
    X, K, Y = (np.empty((n, len(start))) for _ in range(3))
    kvar = np.empty(n)
    X[0], K[0], Y[0], kvar[0] = start, 0.0, start, 0.0
    return X, K, Y, kvar


def _output(domain, label, partition, out_t, paths, dk_count,
            interp=CADLAG_STEP) -> SchemeOutput:
    """Wrap the X, K, Y and k-variation arrays sampled at ``out_t``."""
    X, K, Y, kvar = paths
    return SchemeOutput(
        x=GridPath(out_t, X, interp=interp),
        k=GridPath(out_t, K, interp=interp),
        y=GridPath(out_t, Y, interp=interp),
        k_variation=kvar,
        meta=RunMeta(scheme=label, mesh=partition.mesh, projections=dk_count,
                     boundary_hits=domain.boundary_count(X)),
    )


def _fill_step(out_t, grid_t, grid_vals):
    """Step-interpolate grid values onto the output times."""
    idx = np.searchsorted(grid_t, out_t, side="right") - 1
    idx = np.clip(idx, 0, len(grid_t) - 1)
    return grid_vals[idx]


def run_projection_scheme(domain: Domain, f: Coefficient, x0, z: GridPath,
                          spec: SchemeSpec) -> SchemeOutput:
    """Projected transport on a fixed partition (piecewise-constant output)."""
    return _projection_core(domain, f, x0, z, spec, spec.partition, "projection")


def run_jump_adapted_scheme(domain: Domain, f: Coefficient, x0, z: GridPath,
                            n: int, spec: SchemeSpec) -> SchemeOutput:
    """Projected transport on the jump-isolating partition of threshold 1/n.

    For a continuous driver this coincides with the projection scheme on
    the uniform mesh 1/n grid.
    """
    part = jump_adapted_partition(z, n)
    return _projection_core(domain, f, x0, z, spec, part, "jump-adapted")


def _projection_core(domain, f, x0, z, spec, partition, label) -> SchemeOutput:
    start = _validated_start(domain, f, x0, z)
    rho0 = domain.rho0
    cfg = spec.flow_cfg
    pts = partition.points
    dzs = np.diff(z.value_at(pts), axis=0)
    n = _admissible_cells(dzs, f.sup_f, rho0)
    increments = None
    if f.matrix is not None:
        # row by row, as marcus_jump forms x + dz @ f.matrix.T: a batched
        # product may round differently
        mt = f.matrix.T
        increments = np.array([dz @ mt for dz in dzs[:n]]).reshape(n, len(start))
    xs, targets, dk_norms = project_steps(
        domain, start, rho0, lambda k, x: marcus_jump(f, dzs[k], x, cfg), n,
        increments)
    if n < len(dzs):
        _check_delta(dzs[n], f.sup_f, rho0)

    paths = (xs,
             accumulate(np.zeros_like(start), xs[1:] - targets),
             accumulate(start, targets - xs[:-1]),
             accumulate(0.0, dk_norms))
    out_t = _output_grid(partition, spec.observation_times)
    return _output(domain, label, partition, out_t,
                   [_fill_step(out_t, pts, a) for a in paths],
                   int(np.count_nonzero(dk_norms)))


def run_wz_hat_scheme(domain: Domain, f: Coefficient, x0, z: GridPath,
                      spec: SchemeSpec) -> SchemeOutput:
    """Cell-flow transport, projected at grid points only.

    Grid values are computed by exactly the same flow call and projection
    call as the projection scheme, so at partition points the two schemes
    agree bitwise; between grid points the state follows the unconstrained
    cell flow, sampled at the requested observation times.
    """
    start = _validated_start(domain, f, x0, z)
    rho0 = domain.rho0
    cfg = spec.flow_cfg
    pts = spec.partition.points
    out_t = _output_grid(spec.partition, spec.observation_times)
    X, K, Y, kvar = paths = _buffers(len(out_t), start)

    # output slots of each partition point and of the strict cell interiors
    grid_slot = np.searchsorted(out_t, pts)
    k_run = np.zeros(len(start))
    y_run = start.copy()
    kvar_run = 0.0
    dk_count = 0

    state = start
    for k, dz in enumerate(np.diff(z.value_at(pts), axis=0)):
        t0, t1 = pts[k], pts[k + 1]
        _check_delta(dz, f.sup_f, rho0)

        lo, hi = grid_slot[k] + 1, grid_slot[k + 1]
        if hi > lo:
            dt = t1 - t0
            cur = state
            u_prev = 0.0
            for slot in range(lo, hi):
                u = (out_t[slot] - t0) / dt
                cur = marcus_jump_partial(f, dz, cur, u - u_prev, cfg)
                X[slot] = cur
                K[slot] = k_run
                Y[slot] = y_run + (cur - state)
                kvar[slot] = kvar_run
                u_prev = u

        left = marcus_jump(f, dz, state, cfg)
        nxt, dk, dk_norm = guarded_step(domain, left, rho0)
        y_run = y_run + (left - state)
        k_run = k_run + dk
        kvar_run += dk_norm
        if dk_norm > 0.0:
            dk_count += 1
        slot = grid_slot[k + 1]
        X[slot], K[slot], Y[slot], kvar[slot] = nxt, k_run, y_run, kvar_run
        state = nxt

    return _output(domain, "wz-hat", spec.partition, out_t, paths, dk_count)


def run_wz_bar_scheme(domain: Domain, f: Coefficient, x0, z: GridPath,
                      spec: SchemeSpec) -> SchemeOutput:
    """Reflected polygonal dynamics: projected Euler substeps inside cells.

    Each cell [t_k, t_{k+1}] is traversed in ``substeps_bar`` Euler
    substeps of the cell field f(.) dZ_k scaled by the substep fraction,
    with a projection after every substep, so both the path and the
    compensator are continuous (piecewise linear) in time.  Cells are
    stepped in blocks of about ``_BAR_BLOCK_ROWS`` substeps, so memory
    stays bounded on fine partitions.
    """
    start = _validated_start(domain, f, x0, z)
    rho0 = domain.rho0
    pts = spec.partition.points
    out_t = _output_grid(spec.partition, spec.observation_times)
    X, K, Y, kvar = _buffers(len(out_t), start)
    grid_slot = np.searchsorted(out_t, pts)
    dzs = np.diff(z.value_at(pts), axis=0)
    n_cells = _admissible_cells(dzs, f.sup_f, rho0)

    # substep fractions of a cell without observation times, built once
    bar = spec.substeps_bar
    fractions = np.linspace(0.0, 1.0, bar + 1)
    plain_du = np.diff(fractions)
    # a constant coefficient gives each cell one increment direction
    fixed = f.evaluate(start) if f.matrix is not None else None

    state, k_run, y_run, kvar_run = start, np.zeros(len(start)), start, 0.0
    dk_count = 0
    block = max(1, _BAR_BLOCK_ROWS // bar)
    for first in range(0, n_cells, block):
        cells = range(first, min(first + block, n_cells))
        # per substep: its fraction, its cell, and the output slot it marks
        dus, cell_of, rows, slots = [], [], [], []
        for k in cells:
            lo, hi = grid_slot[k] + 1, grid_slot[k + 1]
            if hi > lo:
                # observation times inside the cell, spliced in exactly
                t0, dt = pts[k], pts[k + 1] - pts[k]
                marks = {(out_t[slot] - t0) / dt: slot for slot in range(lo, hi)}
                marks[1.0] = hi
                spliced = np.union1d(fractions, np.array(sorted(marks)))
                du = np.diff(spliced)
                for i, u in enumerate(spliced[1:].tolist()):
                    if u in marks:
                        rows.append(len(cell_of) + i)
                        slots.append(marks[u])
            else:
                du = plain_du
                rows.append(len(cell_of) + bar - 1)
                slots.append(hi)
            dus.append(du)
            cell_of.extend([k] * len(du))
        dus = np.concatenate(dus)

        if fixed is not None:
            cell_dy = np.array([fixed @ dzs[k] for k in cells])
            dys = cell_dy[np.asarray(cell_of) - first] * dus[:, None]

            def target(j, x):
                return x + dys[j]
        else:
            dys = np.empty((len(dus), len(start)))

            def target(j, x):
                dys[j] = f.evaluate(x) @ dzs[cell_of[j]] * dus[j]
                return x + dys[j]

        path, targets, dk_norms = project_steps(
            domain, state, rho0, target, len(dus),
            dys if fixed is not None else None)
        states = path[1:]
        # K moves on projected substeps only: a dk too small to square has
        # |dk| = 0 and counts as no move
        dks = np.where(dk_norms[:, None] > 0.0, states - targets, 0.0)
        ks = accumulate(k_run, dks)[1:]
        ys = accumulate(y_run, dys)[1:]
        kvs = accumulate(kvar_run, dk_norms)[1:]
        X[slots], K[slots], Y[slots], kvar[slots] = (
            states[rows], ks[rows], ys[rows], kvs[rows])
        state, k_run, y_run, kvar_run = states[-1], ks[-1], ys[-1], kvs[-1]
        dk_count += int(np.count_nonzero(dk_norms))

    if n_cells < len(dzs):
        _check_delta(dzs[n_cells], f.sup_f, rho0)
    return _output(domain, "wz-bar", spec.partition, out_t, (X, K, Y, kvar),
                   dk_count, interp=LINEAR)


def run_marcus_euler(domain: Domain, f: Coefficient, x0, z: GridPath,
                     spec: SchemeSpec) -> SchemeOutput:
    """Expanded one-step rule with exact transport across recorded jumps.

    Per cell, with X frozen at the cell's left endpoint:

        X+ = project( X + f(X) dZc + 1/2 (f'f)(X) : d[Zc]
                        + sum over recorded jumps J of (phi(f J, X) - X) )

    where dZc and d[Zc] are the continuous-part increment and quadratic
    covariation matrix of the cell, computed from the driver's own sample
    increments with the recorded jump vectors removed.
    """
    start = _validated_start(domain, f, x0, z)
    rho0 = domain.rho0
    cfg = spec.flow_cfg
    pts = spec.partition.points
    zvals = z.value_at(pts)
    d = len(start)
    states, ks, ys, kvar = paths = _buffers(len(pts), start)
    dk_count = 0

    # driver sample times falling in each cell
    inner = np.searchsorted(z.times, pts, side="right")
    jump_set = {float(t): v for t, v in zip(z.jump_times, z.jump_values)}

    state = start
    for k in range(len(pts) - 1):
        _check_delta(zvals[k + 1] - zvals[k], f.sup_f, rho0)

        # walk the driver increments inside (t_k, t_{k+1}]
        seq_t = [pts[k]]
        seq_v = [zvals[k]]
        for i in range(inner[k], inner[k + 1]):
            if z.times[i] > pts[k]:
                seq_t.append(float(z.times[i]))
                seq_v.append(z.values[i])
        if seq_t[-1] != pts[k + 1]:
            seq_t.append(float(pts[k + 1]))
            seq_v.append(zvals[k + 1])

        dzc = np.zeros(d)
        qc = np.zeros((d, d))
        jumps = []
        for i in range(1, len(seq_t)):
            delta = seq_v[i] - seq_v[i - 1]
            jv = jump_set.get(seq_t[i])
            if jv is not None:
                jumps.append(jv)
                delta = delta - jv
            dzc += delta
            qc += np.outer(delta, delta)

        fx = f.evaluate(state)
        incr = fx @ dzc
        if np.any(qc):
            corr = f.correction(state)
            incr = incr + 0.5 * np.einsum("ijm,jm->i", corr, qc)
        for jv in jumps:
            incr = incr + (marcus_jump(f, jv, state, cfg) - state)

        nxt, dk, dk_norm = guarded_step(domain, state + incr, rho0)
        ys[k + 1] = ys[k] + incr
        ks[k + 1] = ks[k] + dk
        kvar[k + 1] = kvar[k] + dk_norm
        if dk_norm > 0.0:
            dk_count += 1
        states[k + 1] = nxt
        state = nxt

    out_t = _output_grid(spec.partition, spec.observation_times)
    return _output(domain, "marcus-euler", spec.partition, out_t,
                   [_fill_step(out_t, pts, a) for a in paths], dk_count)


def build_reference(domain: Domain, f: Coefficient, x0, z: GridPath,
                    refine: int, flow_cfg: FlowConfig = REFERENCE_FLOW,
                    observation_times=None) -> SchemeOutput:
    """High-resolution surrogate for the exact constrained path.

    Runs the jump-adapted step on the union of the driver's own sample grid
    and the jump-isolating partition of threshold 1/refine, with the
    high-accuracy flow configuration.  ``refine`` should be at least four
    times finer than the finest experimental mesh.
    """
    if refine < 1:
        raise ValueError("refine must be >= 1")
    adapted = jump_adapted_partition(z, refine)
    points = np.union1d(adapted.points, z.times[z.times <= adapted.horizon])
    part = Partition(points)
    spec = SchemeSpec(kind="jump-adapted", partition=part, flow_cfg=flow_cfg,
                      observation_times=observation_times)
    return _projection_core(domain, f, x0, z, spec, part, "jump-adapted")


def run_scheme(domain: Domain, f: Coefficient, x0, z: GridPath,
               spec: SchemeSpec) -> SchemeOutput:
    """Dispatch on ``spec.kind``."""
    if spec.kind == "projection":
        return run_projection_scheme(domain, f, x0, z, spec)
    if spec.kind == "jump-adapted":
        n = spec.jump_threshold or max(1, round(1.0 / spec.partition.mesh))
        return run_jump_adapted_scheme(domain, f, x0, z, n, spec)
    if spec.kind == "wz-hat":
        return run_wz_hat_scheme(domain, f, x0, z, spec)
    if spec.kind == "wz-bar":
        return run_wz_bar_scheme(domain, f, x0, z, spec)
    if spec.kind == "marcus-euler":
        return run_marcus_euler(domain, f, x0, z, spec)
    raise ValueError(f"unknown scheme kind: {spec.kind!r}")
