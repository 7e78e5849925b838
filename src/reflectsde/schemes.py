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

projection, jump-adapted and the reference share one projection core,
which steps a block of paths, each on its own partition; the runners are
its batch of one, and ``build_references`` builds the references of many
drivers at once.  With a constant coefficient (``f.matrix`` set) the
increments do not depend on the state: f dZ_k per cell, and (f dZ_k) du per
wz-bar substep.  Each path then steps through ``skorokhod.project_steps``
(so does wz-bar), where runs of steps that stay inside the domain skip the
projection, where it is the identity, and are advanced in bulk; the output
is bitwise that of the step-by-step loop, because the same increments are
summed in the same order.  Other coefficients step the block, a batch of
one included, in lockstep by cell index: one ``marcus_jump_rows`` call
transports every path that still has that cell, each row bitwise as a
single-path call, and then each row is projected by its own
``guarded_step``.  A path's output is therefore
bitwise independent of the block it runs in, and a path that fails
(JumpTooLarge, NonFinite, ProjectionOutOfRange) fails alone, at the same
step and with the same error as when it runs alone.  The cells before the
first one that fails the jump guard are stepped first, and then the guard
raises, as it would in a loop checking each cell before stepping it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .driver import (CADLAG_STEP, LINEAR, GridPath, Partition,
                     jump_adapted_partition)
from .errors import (DimensionMismatch, JumpTooLarge, ReflectedSDEError,
                     StartOutsideDomain)
from .flow import (DEFAULT_FLOW, REFERENCE_FLOW, Coefficient, FlowConfig,
                   marcus_jump, marcus_jump_partial, marcus_jump_rows)
from .geometry import Domain, OUTSIDE
from .skorokhod import accumulate, guarded_step, project_steps

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


def _admissible_cells(dzs: np.ndarray, bound: float, rho0: float):
    """Leading cell increments that pass ``_check_delta``.

    Returns their number and the JumpTooLarge of the first cell that fails,
    or None when every cell passes.
    """
    if not math.isfinite(rho0):
        return len(dzs), None
    for k, dz in enumerate(dzs):
        try:
            _check_delta(dz, bound, rho0)
        except JumpTooLarge as exc:
            return k, exc
    return len(dzs), None


def _output_grid(partition: Partition, observation_times) -> np.ndarray:
    if observation_times is None:
        # read-only, like the times of the paths built on it
        return partition.points
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
    if len(out_t) == len(grid_t):
        # the output times are the grid itself (they always contain it)
        return grid_vals
    idx = np.searchsorted(grid_t, out_t, side="right") - 1
    idx = np.clip(idx, 0, len(grid_t) - 1)
    return grid_vals[idx]


def run_projection_scheme(domain: Domain, f: Coefficient, x0, z: GridPath,
                          spec: SchemeSpec) -> SchemeOutput:
    """Projected transport on a fixed partition (piecewise-constant output)."""
    return _only(_projection_core(domain, f, x0, [z], [spec.partition],
                                  spec.flow_cfg, "projection",
                                  spec.observation_times))


def run_jump_adapted_scheme(domain: Domain, f: Coefficient, x0, z: GridPath,
                            n: int, spec: SchemeSpec) -> SchemeOutput:
    """Projected transport on the jump-isolating partition of threshold 1/n.

    For a continuous driver this coincides with the projection scheme on
    the uniform mesh 1/n grid.
    """
    part = jump_adapted_partition(z, n)
    return _only(_projection_core(domain, f, x0, [z], [part], spec.flow_cfg,
                                  "jump-adapted", spec.observation_times))


def _only(results):
    """The output of a batch of one path, or the error that stopped it."""
    (result,) = results
    if isinstance(result, ReflectedSDEError):
        raise result
    return result


class _Chain:
    """One path of the projection core: its cells and its step records.

    ``dzs`` holds the cell increments while the path still steps; the first
    ``n`` cells pass the jump guard, and ``stop`` is the guard's error at
    the next one (None when every cell passes), raised once the cells before
    it are stepped, as a loop checking each cell before stepping it would.
    """

    def __init__(self, start, partition, dzs, bound, rho0):
        self.start, self.partition, self.dzs = start, partition, dzs
        self.n, self.stop = _admissible_cells(dzs, bound, rho0)
        self.error = None
        # project_steps' (n + 1, d) path, (n, d) targets and (n,) |dk|
        self.path = self.targets = self.dk_norms = None

    def finish(self, domain, label, observation_times):
        """The path's SchemeOutput, or the error that stopped it.

        Drops the step records, so a block holds each path's records or its
        output, not both.
        """
        xs, targets, dk_norms = self.path, self.targets, self.dk_norms
        self.dzs = self.path = self.targets = self.dk_norms = None
        error = self.error if self.error is not None else self.stop
        if error is not None:
            return error
        paths = (xs,
                 accumulate(np.zeros_like(self.start), xs[1:] - targets),
                 accumulate(self.start, targets - xs[:-1]),
                 accumulate(0.0, dk_norms))
        out_t = _output_grid(self.partition, observation_times)
        pts = self.partition.points
        return _output(domain, label, self.partition, out_t,
                       [_fill_step(out_t, pts, a) for a in paths],
                       int(np.count_nonzero(dk_norms)))


def _projection_core(domain, f, x0, drivers, partitions, cfg, label,
                     observation_times) -> list:
    """The projection step of each driver on its own partition.

    Returns, per path, its SchemeOutput or the ReflectedSDEError that
    stopped it, so a failure stays with its own path.  With a constant
    coefficient each path's increments are known up front, and it steps
    through ``project_steps``, which advances interior runs in bulk.  Any
    other coefficient steps the block, a single path included, in lockstep
    by cell index (``_step_in_lockstep``).
    """
    rho0 = domain.rho0
    chains = []
    for z, part in zip(drivers, partitions):
        try:
            start = _validated_start(domain, f, x0, z)
        except ReflectedSDEError as exc:
            chains.append(exc)
            continue
        dzs = np.diff(z.value_at(part.points), axis=0)
        chains.append(_Chain(start, part, dzs, f.sup_f, rho0))
    stepping = [c for c in chains if isinstance(c, _Chain)]

    if f.matrix is not None:
        # row by row, as marcus_jump forms x + dz @ f.matrix.T: a batched
        # product may round differently
        mt = f.matrix.T
        for c in stepping:
            increments = np.array([dz @ mt for dz in c.dzs[:c.n]]).reshape(
                c.n, len(c.start))
            try:
                c.path, c.targets, c.dk_norms = project_steps(
                    domain, c.start, rho0,
                    lambda k, x, dzs=c.dzs: marcus_jump(f, dzs[k], x, cfg),
                    c.n, increments)
            except ReflectedSDEError as exc:
                c.error = exc
            c.dzs = None
    else:
        _step_in_lockstep(domain, f, stepping, cfg, rho0)

    return [c.finish(domain, label, observation_times)
            if isinstance(c, _Chain) else c for c in chains]


def _step_in_lockstep(domain, f, chains, cfg, rho0):
    """Step every chain's admissible cells, all chains at one cell index.

    At cell index k one ``marcus_jump_rows`` call transports the chains
    that still have a k-th cell, each row exactly as a single-path call
    would, and then each row is projected by its own ``guarded_step``.  A
    row that fails records its error on its chain, which then stops.  A
    chain drops its increments once it stops.
    """
    d = f.dimension
    for c in chains:
        c.path = np.empty((c.n + 1, d))
        c.path[0] = c.start
        c.targets = np.empty((c.n, d))
        c.dk_norms = np.zeros(c.n)
    active = chains
    k = 0
    while True:
        for c in active:
            if c.error is not None or c.n == k:
                c.dzs = None
        active = [c for c in active if c.dzs is not None]
        if not active:
            break
        targets, errors = marcus_jump_rows(
            f, np.array([c.dzs[k] for c in active]),
            np.array([c.path[k] for c in active]), cfg)
        for c, target, error in zip(active, targets, errors):
            try:
                if error is not None:
                    raise error
                x, _, dk_norm = guarded_step(domain, target, rho0)
            except ReflectedSDEError as exc:
                c.error = exc
                continue
            c.path[k + 1] = x
            c.targets[k] = target
            c.dk_norms[k] = dk_norm
        k += 1


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
    n_cells, stop = _admissible_cells(dzs, f.sup_f, rho0)

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

    if stop is not None:
        raise stop
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


def _reference_partition(z: GridPath, refine: int) -> Partition:
    adapted = jump_adapted_partition(z, refine)
    return Partition(np.union1d(adapted.points,
                                z.times[z.times <= adapted.horizon]))


def build_references(domain: Domain, f: Coefficient, x0, drivers,
                     refine: int, flow_cfg: FlowConfig = REFERENCE_FLOW,
                     observation_times=None) -> list:
    """``build_reference`` for a block of drivers, built together.

    Returns, per driver, its reference or the ReflectedSDEError that
    stopped it.  With a state-dependent coefficient the paths' cells are
    stepped in lockstep (``_projection_core``).  Each result is bitwise the
    one that ``build_reference`` gives for that driver alone, whatever the
    block's size and makeup.
    """
    if refine < 1:
        raise ValueError("refine must be >= 1")
    partitions = [_reference_partition(z, refine) for z in drivers]
    return _projection_core(domain, f, x0, drivers, partitions, flow_cfg,
                            "jump-adapted", observation_times)


def build_reference(domain: Domain, f: Coefficient, x0, z: GridPath,
                    refine: int, flow_cfg: FlowConfig = REFERENCE_FLOW,
                    observation_times=None) -> SchemeOutput:
    """High-resolution surrogate for the exact constrained path.

    Runs the jump-adapted step on the union of the driver's own sample grid
    and the jump-isolating partition of threshold 1/refine, with the
    high-accuracy flow configuration.  ``refine`` should be at least four
    times finer than the finest experimental mesh.  This is the batch of one
    of ``build_references``.
    """
    return _only(build_references(domain, f, x0, [z], refine, flow_cfg,
                                  observation_times))


def _run_jump_adapted(domain, f, x0, z, spec):
    # the threshold defaults to the resolution of the partition's mesh
    n = spec.jump_threshold or max(1, round(1.0 / spec.partition.mesh))
    return run_jump_adapted_scheme(domain, f, x0, z, n, spec)


#: Scheme kind -> runner(domain, f, x0, z, spec).
_RUNNERS = {
    "projection": run_projection_scheme,
    "jump-adapted": _run_jump_adapted,
    "wz-hat": run_wz_hat_scheme,
    "wz-bar": run_wz_bar_scheme,
    "marcus-euler": run_marcus_euler,
}
SCHEME_KINDS = tuple(_RUNNERS)


def run_scheme(domain: Domain, f: Coefficient, x0, z: GridPath,
               spec: SchemeSpec) -> SchemeOutput:
    """Run the scheme ``spec.kind`` names."""
    return _RUNNERS[spec.kind](domain, f, x0, z, spec)
