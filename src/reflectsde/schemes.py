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
wz-hat          the projection scheme's grid values, and between them the
                unconstrained cell flow of f(.) dZ_k from the left grid
                value, sampled at the observation times: every cell of a
                block with such times is a lane of one
                ``marcus_jump_chains`` call (``_sample_interiors``).
wz-bar          per-cell reflected polygonal dynamics: substeps_bar
                projected Euler substeps per cell, giving a continuous
                output path and a continuous compensator.
marcus-euler    expanded one-step rule: Euler term in the continuous
                increment, one half correction (f'f) against the cell's
                continuous quadratic covariation, exact transport across
                recorded jumps, one projection per cell.

Per step the jump admissibility guard |dZ| * sup|f| < rho0 is enforced
whenever the domain reach rho0 is finite; violations raise JumpTooLarge.
Every projection goes through ``skorokhod.guarded_step``: the core
validates each path's start point and the dimensions once and then
projects each target once, unchecked (see the ``skorokhod`` docstring).

All five kinds and the reference share one projection core, which steps a
block of paths: ``run_schemes`` and ``build_references`` run it on a block
of drivers, and ``run_scheme`` and ``build_reference`` are their batch of
one.  Each path is a chain of a grid (its partition; wz-bar splits each
cell into substeps_bar substeps and splices the observation times inside
it in exactly), a step rule, and output rows (grid points and observation
times written CADLAG; wz-bar's cell ends and observation times, LINEAR).
The step rule is one of three.  With a constant coefficient (``f.matrix``
set) the increments do not depend on the state: f dZ_k per cell, and
(f dZ_k) du per wz-bar substep.  They step through
``skorokhod.project_steps``, where runs of steps that stay inside the
domain skip the projection, where it is the identity, and are advanced in
bulk; the output is bitwise that of the step-by-step loop, because the
same increments are summed in the same order.  Other coefficients step a
block of the other kinds, a batch of one included, in lockstep:
``marcus_jump_chains`` moves every path one RK4 step of its current cell
per iteration, each cell bitwise as a single-path call, and a path's cell
is projected by its own ``guarded_step`` once transported, which starts
its next cell.  wz-bar's x + f(x) dZ_k du and marcus-euler's expanded rule
are explicit targets stepped through ``project_steps``.  One assembly
turns every chain's step records into X, K, Y and the k-variation, a
segment at a time.  A path's output is bitwise independent of the block it
runs in, and a path that fails (JumpTooLarge, NonFinite,
ProjectionOutOfRange) fails alone, with the error it raises alone, in cell
order: the jump guard of a cell, then wz-hat's sampling of its interior,
then its step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .driver import (CADLAG_STEP, LINEAR, GridPath, Partition,
                     jump_adapted_partition)
from .errors import (DimensionMismatch, JumpTooLarge, ReflectedSDEError,
                     StartOutsideDomain)
from .flow import (DEFAULT_FLOW, REFERENCE_FLOW, Coefficient, FlowConfig,
                   inside_guard, marcus_jump, marcus_jump_chains)
from .geometry import Domain, OUTSIDE
from .skorokhod import accumulate, guarded_step, project_steps, shifted

# step records that the assembly holds at once; wz-bar steps whole cells
# of substeps in segments of about this many rows
_SEGMENT_ROWS = 4096


@dataclass(frozen=True, eq=False)
class SchemeSpec:
    """What to run: scheme kind, partition, flow settings, and sampling.

    ``substeps_bar`` only matters for wz-bar; jump-adapted isolates the
    jumps above 1/n with n = round(1/mesh) of the partition.
    ``observation_times`` are extra output times merged into the partition
    grid.
    """

    kind: str
    partition: Partition
    flow_cfg: FlowConfig = DEFAULT_FLOW
    substeps_bar: int = 64
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


def _admissible_cells(dzs: np.ndarray, bound: float, rho0: float):
    """Leading cell increments that pass the jump guard |dz| * bound < rho0.

    Returns their number and the JumpTooLarge of the first cell that fails,
    or None when every cell passes (always, when rho0 is infinite).

    The guard's norm is ``math.sqrt(dz.dot(dz))``, or ``math.hypot(*dz)``
    for a finite cell whose sum of squares overflows.  Unlike the
    projection step's sums, ``dot`` is a BLAS call that may fuse multiply
    and add, so its last bit may depend on the BLAS kernel, and one einsum
    over all cells only screens the cells: a cell whose screened norm
    passes with a relative margin of 1e-9 passes the exact test too, since
    the two sums of squares differ by a few ulps (and not at all where they
    underflow).  Norms above 1e150, whose sums may overflow in one form
    only, and NaN and inf cells are not screened; the cells left are tested
    exactly, in order.
    """
    if not math.isfinite(rho0):
        return len(dzs), None
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.einsum("ij,ij->i", dzs, dzs))
        clear = (norms <= 1e150) & (norms * bound < rho0 * (1.0 - 1e-9))
    for k in np.flatnonzero(~clear):
        dz = dzs[k]
        with np.errstate(over="ignore"):
            square = dz.dot(dz)
        if square == math.inf and np.isfinite(dz).all():
            dz_norm = math.hypot(*dz)
        else:
            dz_norm = math.sqrt(square)
        if dz_norm * bound >= rho0:
            return int(k), JumpTooLarge(
                f"increment norm {dz_norm:.6g} times coefficient bound "
                f"{bound:.6g} reaches the projection radius {rho0:.6g}")
    return len(dzs), None


def _output_grid(partition: Partition, observation_times) -> np.ndarray:
    if observation_times is None:
        # read-only, like the times of the paths built on it
        return partition.points
    obs = np.asarray(observation_times, dtype=float)
    obs = obs[(obs >= 0.0) & (obs <= partition.horizon)]
    return np.union1d(partition.points, obs)


def _only(results):
    """The output of a batch of one path, or the error that stopped it."""
    (result,) = results
    if isinstance(result, ReflectedSDEError):
        raise result
    return result


class _Chain:
    """One path of the projection core: its cells and its step records.

    ``dzs`` holds the cell increments until the path finishes; the first
    ``n`` cells pass the jump guard, and ``stop`` is the guard's error at
    the next one (None when every cell passes), raised once the cells before
    it are stepped, as a loop checking each cell before stepping it would.
    ``error`` is the error of the step of cell ``failed_at``.  The output
    is sampled at ``out_t``; ``samples`` holds wz-hat's (slot, cell k,
    state) of the times inside the cells, and ``sample_error`` the error of
    the lowest cell whose interior fails (``_sample_interiors``).  With one
    step per cell (no wz-bar ``substeps``) the chain holds its step records:
    the (n + 1, d) path, whose rows up to a failing step stay for wz-hat's
    interiors, (n, d) targets, (n,) |dk| and the increments ``dys`` that
    its rule records, if any.
    """

    def __init__(self, start, partition, dzs, bound, rho0, out_t,
                 substeps=1):
        self.start, self.partition, self.dzs = start, partition, dzs
        self.out_t, self.samples, self.sample_error = out_t, [], None
        self.n, self.stop = _admissible_cells(dzs, bound, rho0)
        self.error = self.failed_at = self.dys = self.path = None
        if substeps == 1:
            self.path = np.empty((self.n + 1, len(start)))
            self.path[0], self.dk_norms = start, np.zeros(self.n)
            self.targets = np.empty((self.n, len(start)))

    def finish(self, domain, label, segments, interp):
        """The path's SchemeOutput, or the error that stopped it.

        ``segments`` are its step records for ``_assemble`` (wz-bar steps
        as they are drawn).  A cell's interior fails before its step, and
        every cell the sampler reaches comes before the jump guard's
        ``stop``.  Drops the step records, so a block holds each path's
        records or its output, not both.
        """
        if self.sample_error is None and self.error is None:
            X, K, Y, kvar, count = _assemble(self.start, self.out_t, segments)
        path = self.path
        self.dzs = self.path = self.targets = self.dk_norms = self.dys = None
        for error in (self.sample_error, self.error, self.stop):
            if error is not None:
                return error
        # an interior sample keeps K and the k-variation of its cell's
        # left end, and moves Y with X
        for slot, k, x in self.samples:
            X[slot] = x
            Y[slot] += x - path[k]
        return SchemeOutput(
            x=GridPath(self.out_t, X, interp=interp),
            k=GridPath(self.out_t, K, interp=interp),
            y=GridPath(self.out_t, Y, interp=interp),
            k_variation=kvar,
            meta=RunMeta(scheme=label, mesh=self.partition.mesh,
                         projections=count,
                         boundary_hits=domain.boundary_count(X)))


def _assemble(start, out_t, segments):
    """X, K, Y and the k-variation at ``out_t``, and the number of steps
    that project, from a chain's step records: per segment, the left state
    and step ends ``states``, the targets, |dk| and recorded increments
    (or None), and the output ``slots`` that take ``states[rows]``.  The
    running sums carry across segments, so each sums its steps in order.
    K moves only where |dk| > 0 (a dk too small to square is no move); Y
    sums the recorded increments, or else targets - states.
    """
    X, K, Y = (np.empty((len(out_t), len(start))) for _ in range(3))
    kvar = np.empty(len(out_t))
    X[0], K[0], Y[0], kvar[0] = start, 0.0, start, 0.0
    k_run, y_run, kv_run, count = np.zeros(len(start)), start, 0.0, 0
    for states, targets, dk_norms, dys, rows, slots in segments:
        dks = np.where(dk_norms[:, None] > 0.0, states[1:] - targets, 0.0)
        ks = accumulate(k_run, dks)
        ys = accumulate(y_run, targets - states[:-1] if dys is None else dys)
        kvs = accumulate(kv_run, dk_norms)
        X[slots], K[slots], Y[slots], kvar[slots] = (
            states[rows], ks[rows], ys[rows], kvs[rows])
        k_run, y_run, kv_run = ks[-1], ys[-1], kvs[-1]
        count += int(np.count_nonzero(dk_norms))
    return X, K, Y, kvar, count


def _cell_segments(c):
    """The step records of a chain of one step per cell, in segments of
    ``_SEGMENT_ROWS`` cells, with its output rows: each output time takes
    the grid value at or before it (CADLAG)."""
    # the number of cells done at each output time
    done = np.searchsorted(c.partition.points, c.out_t, side="right") - 1
    for a in range(0, c.n, _SEGMENT_ROWS):
        b = min(a + _SEGMENT_ROWS, c.n)
        lo, hi = np.searchsorted(done, a), np.searchsorted(done, b, "right")
        # no output time inside these cells: the rows are a slice
        rows = slice(0, hi - lo) if hi - lo == b - a + 1 else done[lo:hi] - a
        yield (c.path[a:b + 1], c.targets[a:b], c.dk_norms[a:b],
               None if c.dys is None else c.dys[a:b], rows, slice(lo, hi))


def _bar_segments(domain, f, c, bar):
    """wz-bar's step records, stepped a block of whole cells at a time as
    they are drawn, with the output rows of the cell ends and observation
    times.  Each cell [t_k, t_{k+1}] is traversed in ``bar`` Euler
    substeps of the cell field f(.) dZ_k scaled by the substep fraction,
    each projected, so both the path and the compensator are continuous
    (piecewise linear) in time.  A failing step ends the records.
    """
    rho0, pts, out_t, dzs = domain.rho0, c.partition.points, c.out_t, c.dzs
    grid_slot = np.searchsorted(out_t, pts)
    # substep fractions of a cell without observation times
    fractions = np.linspace(0.0, 1.0, bar + 1)
    plain_du = np.diff(fractions)
    state = c.start
    block = max(1, _SEGMENT_ROWS // bar)
    for first in range(0, c.n, block):
        cells = range(first, min(first + block, c.n))
        # per substep: its fraction and its cell; the substeps done at each
        # output slot the block fills
        if grid_slot[cells.stop] - grid_slot[first] == len(cells):
            # no observation time inside the block's cells
            dus = np.tile(plain_du, len(cells))
            cell_of = np.repeat(cells, bar)
            rows = np.arange(bar, len(dus) + 1, bar)
            slots = grid_slot[first + 1:cells.stop + 1]
        else:
            dus, cell_of, rows, slots = _spliced_substeps(
                cells, pts, out_t, grid_slot, fractions)

        if f.matrix is not None:
            # a constant coefficient gives each cell one increment
            # direction: stacked, each row rounding like the 1-D
            # f.matrix @ dzs[k]
            cell_dy = (f.matrix @ dzs[first:cells.stop, :, None])[:, :, 0]
            dys = cell_dy[cell_of - first] * dus[:, None]

            def target(j, x):
                return shifted(x, dys[j])
        else:
            dys = np.empty((len(dus), len(state)))

            def target(j, x):
                dys[j] = f.field(np.array(x), dzs[cell_of[j]]) * dus[j]
                return shifted(x, dys[j])

        try:
            path, targets, dk_norms = project_steps(
                domain, state, rho0, target, len(dus),
                dys if f.matrix is not None else None)
        except ReflectedSDEError as exc:
            c.error = exc
            return
        yield path, targets, dk_norms, dys, rows, slots
        state = path[-1]


def _spliced_substeps(cells, pts, out_t, grid_slot, fractions):
    """The substeps of ``cells``, with the observation times inside a cell
    spliced in exactly: per substep its fraction du and its cell, and the
    number of substeps done at each output slot they end, with those
    slots."""
    plain_du = np.diff(fractions)
    dus, cell_of, rows, slots = [], [], [], []
    for k in cells:
        lo, hi = grid_slot[k] + 1, grid_slot[k + 1]
        if hi > lo:
            t0, dt = pts[k], pts[k + 1] - pts[k]
            marks = {(out_t[slot] - t0) / dt: slot for slot in range(lo, hi)}
            marks[1.0] = hi
            spliced = np.union1d(fractions, np.array(sorted(marks)))
            du = np.diff(spliced)
            for i, u in enumerate(spliced[1:].tolist()):
                if u in marks:
                    rows.append(len(cell_of) + i + 1)
                    slots.append(marks[u])
        else:
            du = plain_du
            rows.append(len(cell_of) + len(du))
            slots.append(hi)
        dus.append(du)
        cell_of.extend([k] * len(du))
    return np.concatenate(dus), np.array(cell_of), rows, slots


def _increment_rule(f, c):
    """A constant coefficient's cell step: its increments f dz_k, as
    marcus_jump forms them, and the target x + f dz_k with marcus_jump's
    finite-value guard."""
    # a stack of (1, d) @ (d, d) products, each rounding like the 1-D
    # dz @ f.matrix.T of marcus_jump (a plain (n, d) @ (d, d) may not)
    increments = (c.dzs[:c.n, None, :] @ f.matrix.T)[:, 0, :]

    def target(k, x):
        # interior runs cannot fail, so a failing step is the last one
        # whose target is taken here
        c.failed_at = k
        return inside_guard(shifted(x, increments[k]))

    return target, increments


def _euler_rule(f, cfg, c, parts):
    """marcus-euler's cell step, with X frozen at the cell's left end:

        X+ = project( X + f(X) dZc + 1/2 (f'f)(X) : d[Zc]
                        + sum over recorded jumps J of (phi(f J, X) - X) )

    where dZc and d[Zc] are the continuous-part increment and quadratic
    covariation matrix of the cell, and its recorded jumps, in ``parts``
    (``_continuous_parts``).  The increments are recorded, and Y sums them.
    """
    dzcs, qcs, jumps = parts
    c.dys = incrs = np.empty((c.n, len(c.start)))
    curved = qcs.any(axis=(1, 2)).tolist()

    def target(k, x):
        state = np.array(x)
        incr = f.field(state, dzcs[k])
        if curved[k]:
            incr = incr + 0.5 * np.einsum("ijm,jm->i", f.correction(state),
                                          qcs[k])
        for jv in jumps[k]:
            incr = incr + (marcus_jump(f, jv, state, cfg) - state)
        incrs[k] = incr
        return shifted(x, incr)

    return target, None


def _projection_core(domain, f, x0, drivers, partitions, kind, cfg,
                     observation_times=None, substeps=1) -> list:
    """The scheme ``kind`` of each driver on its own partition.

    Returns, per path, its SchemeOutput or the ReflectedSDEError that
    stopped it, so a failure stays with its own path.  Constant increments
    and marcus-euler's rule step each chain of one step per cell through
    ``project_steps`` as it is built, wz-bar as its output is assembled,
    and any other rule steps the block, a single path included, in
    lockstep.  wz-hat's interiors are sampled once every path is stepped.
    """
    rho0 = domain.rho0
    lockstep = f.matrix is None and kind not in ("wz-bar", "marcus-euler")
    chains = []
    for z, part in zip(drivers, partitions):
        try:
            start = _validated_start(domain, f, x0, z)
        except ReflectedSDEError as exc:
            chains.append(exc)
            continue
        zvals = z.value_at(part.points)
        c = _Chain(start, part, np.diff(zvals, axis=0), f.sup_f, rho0,
                   _output_grid(part, observation_times), substeps)
        chains.append(c)
        if kind == "marcus-euler":
            target, increments = _euler_rule(
                f, cfg, c, _continuous_parts(z, part.points, zvals))
        elif kind == "wz-bar" or lockstep:
            continue
        else:
            target, increments = _increment_rule(f, c)
        try:
            c.dk_norms = project_steps(domain, start, rho0, target, c.n,
                                       increments, targets=c.targets,
                                       path=c.path)[2]
        except ReflectedSDEError as exc:
            c.error = exc
    stepping = [c for c in chains if isinstance(c, _Chain)]
    if lockstep:
        _step_in_lockstep(domain, f, stepping, cfg, rho0)
    if kind == "wz-hat":
        _sample_interiors(f, cfg, stepping)
    bar = kind == "wz-bar"
    return [c.finish(domain, kind, _bar_segments(domain, f, c, substeps) if bar
                     else _cell_segments(c), LINEAR if bar else CADLAG_STEP)
            if isinstance(c, _Chain) else c for c in chains]


def _sample_interiors(f, cfg, chains):
    """Sample the output times strictly inside the chains' cells in one
    ``marcus_jump_chains`` call, one lane per (chain, cell k) with such
    times: the flow of f(.) dz_k from the cell's left grid value, over the
    spans between the times' successive fractions u of the cell, from 0.
    A chain samples its cells up to the one whose step failed, and keeps
    the error of the lowest cell whose interior fails; cells above it stop.
    """
    lanes, owners, upto = [], [], []
    for ci, c in enumerate(chains):
        pts, out_t = c.partition.points, c.out_t
        upto.append(c.n if c.error is None else c.failed_at + 1)
        grid_slot = np.searchsorted(out_t, pts[:upto[ci] + 1])
        inside = np.diff(grid_slot) - 1   # output times inside each cell
        cells = np.flatnonzero(inside > 0)
        if not len(cells):
            continue
        # all the chain's interior slots at once, lane after lane: slot,
        # cell, fraction u of the cell, and span from the lane's previous
        # u (0 at its first slot), elementwise the per-lane operations
        lo, counts = grid_slot[cells] + 1, inside[cells]
        first = np.cumsum(counts) - counts
        cell = np.repeat(cells, counts)
        slot = np.arange(counts.sum()) + np.repeat(lo - first, counts)
        u = (out_t[slot] - pts[cell]) / (pts[cell + 1] - pts[cell])
        u_prev = np.concatenate(([0.0], u[:-1]))
        u_prev[first] = 0.0
        spans, dzs = u - u_prev, c.dzs[cell]
        for k, a, n, s in zip(cells.tolist(), first.tolist(),
                              counts.tolist(), lo.tolist()):
            lanes.append((dzs[a:a + n], spans[a:a + n], c.path[k]))
            owners.append((ci, k, s))

    def follow(i, j, y, error):
        ci, k, lo = owners[i]
        if k >= upto[ci]:
            return None
        if error is not None:
            upto[ci], chains[ci].sample_error = k, error
            return None
        chains[ci].samples.append((lo + j, k, y))
        return y

    marcus_jump_chains(f, lanes, follow, cfg)


def _step_in_lockstep(domain, f, chains, cfg, rho0):
    """Step every chain's admissible cells, the chains together.

    ``marcus_jump_chains`` transports each chain's cells in order, one lane
    per chain, each cell exactly as a single-path call would, and each
    transported target is then projected by its chain's ``guarded_step``,
    whose result starts the chain's next cell.  A chain whose cell fails
    records its error and stops.
    """
    def follow(i, k, target, error):
        c = chains[i]
        try:
            if error is not None:
                raise error
            x, _, dk_norm = guarded_step(domain, target.tolist(), rho0)
        except ReflectedSDEError as exc:
            c.error, c.failed_at = exc, k
            return None
        c.path[k + 1], c.targets[k], c.dk_norms[k] = x, target, dk_norm
        return c.path[k + 1]

    marcus_jump_chains(f, [(c.dzs[:c.n], np.ones(c.n), c.start)
                           for c in chains], follow, cfg)


def _continuous_parts(z: GridPath, pts: np.ndarray, zvals: np.ndarray):
    """Per cell of the grid ``pts``: the continuous increment dZc (cells, d),
    its quadratic covariation d[Zc] (cells, d, d) and its recorded jumps.

    A cell's increments run over its left end value ``zvals[k]``, the
    driver's own samples inside it, and its right end value when no sample
    is there, each with the jump recorded at its time removed.  dZc and
    d[Zc] sum them, and their outer products, in time order from zero, all
    cells together.
    """
    cells = len(pts) - 1
    # the samples lo[k] .. lo[k] + count[k] - 1 lie in (pts[k], pts[k + 1]]
    inner = np.searchsorted(z.times, pts, side="right")
    lo, count = inner[:-1], np.diff(inner)
    last = z.times[np.maximum(inner[1:] - 1, 0)]
    per_cell = count + ((count == 0) | (last != pts[1:]))
    # increment j of cell k, in row first[k] + j, ends at sample lo[k] + j,
    # or at the cell's right end value after its last sample
    first = np.cumsum(per_cell) - per_cell
    cell = np.repeat(np.arange(cells), per_cell)
    j = np.arange(len(cell)) - first[cell]
    sample = lo[cell] + j
    ahead = np.where((j < count[cell])[:, None],
                     z.values[np.minimum(sample, len(z.times) - 1)],
                     zvals[cell + 1])
    behind = np.where((j == 0)[:, None], zvals[cell], z.values[sample - 1])
    deltas = ahead - behind
    jump_rows = np.searchsorted(z.times, z.jump_times)
    taken = (jump_rows >= inner[0]) & (jump_rows < inner[-1])
    at = np.searchsorted(inner, jump_rows[taken], side="right") - 1
    rows = first[at] + jump_rows[taken] - lo[at]
    deltas[rows] = deltas[rows] - z.jump_values[taken]
    squares = deltas[:, :, None] * deltas[:, None, :]
    # summed one increment of every cell at a time, as a loop over the
    # cell's increments sums them
    dzcs = np.zeros((cells, z.dimension))
    qcs = np.zeros((cells, z.dimension, z.dimension))
    for step in range(per_cell.max()):
        busy = np.flatnonzero(per_cell > step)
        dzcs[busy] += deltas[first[busy] + step]
        qcs[busy] += squares[first[busy] + step]
    bounds = np.searchsorted(jump_rows, inner)
    jumps = [z.jump_values[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return dzcs, qcs, jumps


def _reference_partition(z: GridPath, refine: int) -> Partition:
    adapted = jump_adapted_partition(z, refine)
    return Partition(np.union1d(adapted.points,
                                z.times[z.times <= adapted.horizon]))


def build_references(domain: Domain, f: Coefficient, x0, drivers,
                     refine: int, flow_cfg: FlowConfig = REFERENCE_FLOW) -> list:
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
    return _projection_core(domain, f, x0, drivers, partitions,
                            "jump-adapted", flow_cfg)


def build_reference(domain: Domain, f: Coefficient, x0, z: GridPath,
                    refine: int, flow_cfg: FlowConfig = REFERENCE_FLOW) -> SchemeOutput:
    """High-resolution surrogate for the exact constrained path.

    Runs the jump-adapted step on the union of the driver's own sample grid
    and the jump-isolating partition of threshold 1/refine, with the
    high-accuracy flow configuration.  ``refine`` should be at least four
    times finer than the finest experimental mesh.  This is the batch of one
    of ``build_references``.
    """
    return _only(build_references(domain, f, x0, [z], refine, flow_cfg))


SCHEME_KINDS = ("projection", "jump-adapted", "wz-hat", "wz-bar",
                "marcus-euler")


def run_schemes(domain: Domain, f: Coefficient, x0, drivers,
                spec: SchemeSpec) -> list:
    """The scheme ``spec.kind`` names on each driver: per driver, its
    SchemeOutput or the ReflectedSDEError that stopped it, each bitwise as
    ``run_scheme`` on its driver alone."""
    kind = spec.kind
    if kind == "jump-adapted":
        # the threshold is the resolution of the partition's mesh
        n = max(1, round(1.0 / spec.partition.mesh))
        partitions = [jump_adapted_partition(z, n) for z in drivers]
    else:
        partitions = [spec.partition] * len(drivers)
    return _projection_core(domain, f, x0, drivers, partitions, kind,
                            spec.flow_cfg, spec.observation_times,
                            spec.substeps_bar if kind == "wz-bar" else 1)


def run_scheme(domain: Domain, f: Coefficient, x0, z: GridPath,
               spec: SchemeSpec) -> SchemeOutput:
    """Run the scheme ``spec.kind`` names: ``run_schemes`` on one driver."""
    return _only(run_schemes(domain, f, x0, [z], spec))
