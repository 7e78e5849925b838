"""Error measurement, convergence studies, and diagnostic reports.

``sup_error`` is the pathwise metric used everywhere: the largest pointwise
distance between two sampled paths over a comparison horizon.  A
``convergence_study`` runs a scheme against a high-resolution reference over
a ladder of meshes and many independent driver paths, producing a
``RateTable`` with per-mesh medians and a least-squares rate estimate.
``remark4_report`` quantifies the gap between transported and polygonal
jump handling at a curved boundary, and ``variation_report`` packages the
variation comparisons of a constrained path against its internal driver.

Monte Carlo fan-out derives one seed per path index, so results do not
depend on scheduling.  With a state-dependent coefficient paths run in
blocks of at most ``_BLOCK_PATHS``, whose references are built together in
lockstep, and so are their scheme runs on each mesh of the ladder when the
scheme steps through the projection core (projection, jump-adapted,
wz-hat); a path's results do not depend on its block either, and a path
whose reference or scheme run fails fails alone.
Aggregation always walks results in index order, and the produced tables
are byte-stable across worker counts.  The process pool is imported only
when a study runs with more than one worker, so importing the package does
not load ``concurrent.futures`` or ``multiprocessing``.
"""

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .driver import GridPath, Partition, path_seed, sample_jump_driver
from .errors import DimensionMismatch, ReflectedSDEError
from .flow import (REFERENCE_SUBSTEPS, SCHEME_SUBSTEPS, FlowConfig,
                   coefficient_from_spec, constant_matrix)
from .geometry import Ball, Domain, HalfSpace
# bench/layers.py wraps the bindings analysis.build_reference and
# analysis.run_scheme
from .schemes import (SCHEME_KINDS, SchemeSpec, build_reference,  # noqa: F401
                      build_references, run_scheme, run_schemes)
from .skorokhod import check_lemma1

SUP_ERROR_MODES = ("uniform", "grid-points")


def sup_error(a: GridPath, b: GridPath, horizon: float,
              mode: str = "uniform") -> float:
    """Largest pointwise distance |a(t) - b(t)| over [0, horizon].

    mode "uniform" evaluates on the union of both sample grids and also
    compares left limits there, so step paths with mismatched jump times
    are charged the full discrepancy; "grid-points" evaluates only at the
    sample times of ``a``.
    """
    if a.dimension != b.dimension:
        raise DimensionMismatch("paths have different dimensions")
    if mode not in SUP_ERROR_MODES:
        raise ValueError(f"unknown error mode: {mode!r}")
    horizon = float(horizon)
    if horizon > min(a.horizon, b.horizon) + 1e-12:
        raise ValueError("comparison horizon exceeds a path horizon")

    if mode == "uniform":
        ts = np.union1d(a.times[a.times <= horizon + 1e-12],
                        b.times[b.times <= horizon + 1e-12])
    else:
        ts = a.times[a.times <= horizon + 1e-12]
    ts = np.minimum(ts, horizon)

    diff = a.value_at(ts) - b.value_at(ts)
    err = float(np.max(np.linalg.norm(np.atleast_2d(diff), axis=1)))
    if mode == "uniform":
        tl = ts[ts > 0.0]
        if len(tl):
            diff_l = a.value_at(tl, side="left") - b.value_at(tl, side="left")
            err_l = float(np.max(np.linalg.norm(np.atleast_2d(diff_l), axis=1)))
            err = max(err, err_l)
    return err


def json_ready(obj):
    """``obj`` as plain JSON data, for every artifact the CLI writes.

    A dataclass becomes the dict of its fields, dicts are walked, tuples and
    arrays become lists, and a NaN float becomes None (JSON null).
    """
    if is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, dict):
        return {key: json_ready(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [json_ready(value) for value in obj]
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


@dataclass(frozen=True)
class RateRow:
    """Per-mesh aggregate over the sampled paths."""

    mesh: float
    err_unif_med: float
    err_unif_p90: float
    err_grid_med: float
    k_err_med: float
    kvar_end_med: float
    n_ok: int
    n_failed: int
    slope_partial: float


@dataclass(frozen=True)
class RateTable:
    """Mesh ladder results with a least-squares convergence rate.

    ``slope`` is the fitted exponent p in err ~ C mesh^p over the rows with
    a positive finite median; nan when fewer than two rows qualify.
    """

    scheme: str
    n_paths: int
    seed: int
    rows: tuple
    slope: float
    r_squared: float


def fit_rate(meshes, medians):
    """Least-squares exponent and R^2 of err ~ C mesh^p in log2 space."""
    xs, ys = [], []
    for m, e in zip(meshes, medians):
        if math.isfinite(e) and e > 0.0 and m > 0.0:
            xs.append(math.log2(m))
            ys.append(math.log2(e))
    if len(xs) < 2:
        return math.nan, math.nan
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)


@dataclass
class StudyPlan:
    """Plain-data description of a convergence experiment.

    Every field is plain data, so a plan pickles to a process pool's
    workers as it is.  ``meshes`` are normalized to a descending
    ladder.  The reference resolution must be at least four times finer
    than the finest experimental mesh.
    """

    domain: dict
    coefficient: dict
    x0: tuple
    scheme: str
    meshes: tuple
    horizon: float = 1.0
    driver_steps: int = 1024
    driver_dimension: int = 1
    jump_rate: float = 0.0
    jump_law: dict | None = None
    diffusion_scale: float = 1.0
    n_paths: int = 50
    seed: int = 0
    reference_refine: int = 1024
    flow_substeps: int = SCHEME_SUBSTEPS
    flow_adaptive: bool = True
    reference_substeps: int = REFERENCE_SUBSTEPS
    substeps_bar: int = 64

    def __post_init__(self):
        self.x0 = tuple(float(v) for v in np.atleast_1d(self.x0))
        meshes = sorted({float(m) for m in self.meshes}, reverse=True)
        self.meshes = tuple(meshes)

    def validate(self):
        problems = []
        if self.scheme not in SCHEME_KINDS:
            problems.append(f"unknown scheme {self.scheme!r}")
        if not self.meshes or any(m <= 0.0 for m in self.meshes):
            problems.append("meshes must be a nonempty list of positive numbers")
        if self.horizon <= 0.0:
            problems.append("horizon must be positive")
        elif self.meshes and min(self.meshes) > self.horizon:
            problems.append("finest mesh exceeds the horizon")
        if self.n_paths < 1:
            problems.append("n_paths must be >= 1")
        if self.driver_steps < 1 or self.driver_dimension < 1:
            problems.append("driver_steps and driver_dimension must be >= 1")
        if self.jump_rate < 0.0:
            problems.append("jump_rate must be >= 0")
        if self.meshes and min(self.meshes) > 0.0:
            need = 4.0 / min(self.meshes)
            if self.reference_refine < need:
                problems.append(
                    "reference_refine %d is below the required %d "
                    "(four times the finest mesh resolution)"
                    % (self.reference_refine, int(math.ceil(need)))
                )
        return problems


#: Most paths one study task carries.  With a state-dependent coefficient
#: their references are built in lockstep, which amortizes the per-step work
#: over the block.
_BLOCK_PATHS = 16


def _study_block(plan: StudyPlan, indices) -> list:
    """Run a block of driver paths through every mesh of the plan.

    Top-level so process pools can import it; builds all objects from the
    plain-data plan.  The block's references are built together by
    ``build_references``, and on each mesh one ``run_schemes`` call runs the
    scheme on every path whose reference was built; each result is bitwise
    the one its path gets alone.  Returns one record of per-mesh errors per
    path index; reference and scheme failures are recorded per mesh instead
    of aborting the study.  Only x and k of a reference are kept, and a
    mesh's scheme outputs are let go once they are scored.
    """
    domain = Domain.from_spec(plan.domain)
    f = coefficient_from_spec(plan.coefficient)
    drivers = [sample_jump_driver(plan.horizon, plan.driver_steps,
                                  plan.driver_dimension,
                                  path_seed(plan.seed, index),
                                  jump_rate=plan.jump_rate,
                                  jump_law=plan.jump_law,
                                  diffusion_scale=plan.diffusion_scale)
               for index in indices]
    refs = build_references(domain, f, plan.x0, drivers, plan.reference_refine,
                            flow_cfg=FlowConfig(plan.reference_substeps, True))
    per_mesh = [[] for _ in indices]
    built = []
    for i, ref in enumerate(refs):
        if isinstance(ref, ReflectedSDEError):
            per_mesh[i] = [{"ok": False,
                            "error": f"reference: {type(ref).__name__}: {ref}"}
                           for _ in plan.meshes]
        else:
            built.append((i, ref.x, ref.k))
    refs = None
    flow_cfg = FlowConfig(plan.flow_substeps, plan.flow_adaptive)
    for mesh in plan.meshes:
        cells = max(1, round(plan.horizon / mesh))
        spec = SchemeSpec(kind=plan.scheme,
                          partition=Partition.uniform(plan.horizon, cells),
                          flow_cfg=flow_cfg, substeps_bar=plan.substeps_bar)
        outs = run_schemes(domain, f, plan.x0,
                           [drivers[i] for i, _, _ in built], spec)
        for (i, ref_x, ref_k), out in zip(built, outs):
            per_mesh[i].append(_score(out, ref_x, ref_k, plan.horizon))
        outs = out = None
    return [{"index": index, "per_mesh": records}
            for index, records in zip(indices, per_mesh)]


def _score(out, ref_x, ref_k, horizon) -> dict:
    """The error record of one scheme run against its reference's x, k."""
    if isinstance(out, ReflectedSDEError):
        return {"ok": False, "error": f"{type(out).__name__}: {out}"}
    return {
        "ok": True,
        "err_unif": sup_error(out.x, ref_x, horizon=horizon),
        "err_grid": sup_error(out.x, ref_x, horizon=horizon,
                              mode="grid-points"),
        "k_err": sup_error(out.k, ref_k, horizon=horizon),
        "kvar_end": float(out.k_variation[-1]),
    }


def _blocks(n_paths: int, jobs: int, lockstep: bool) -> list:
    """Path-index ranges, one per study task.

    Paths share a block only where their references are built in lockstep
    (a state-dependent coefficient): up to ``_BLOCK_PATHS`` of them, and no
    more than an even share of the workers, so every worker has a block.
    Otherwise each path is its own block, which lets a pool balance its
    workers path by path.
    """
    size = min(_BLOCK_PATHS, -(-n_paths // jobs)) if lockstep else 1
    return [range(first, min(first + size, n_paths))
            for first in range(0, n_paths, size)]


def convergence_study(plan: StudyPlan, jobs: int = 1) -> RateTable:
    """Monte Carlo convergence table for a scheme against its reference.

    Paths run in blocks (``_study_block``); with jobs > 1 the blocks are
    distributed over a process pool of at most one worker per block.
    Results are aggregated in path-index order either way, so the table is
    identical for any worker count.
    """
    problems = plan.validate()
    if problems:
        raise ValueError("invalid study plan: " + "; ".join(problems))
    jobs = max(1, int(jobs))

    results = [None] * plan.n_paths
    lockstep = coefficient_from_spec(plan.coefficient).matrix is None
    blocks = _blocks(plan.n_paths, jobs, lockstep)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor, as_completed
        workers = min(jobs, len(blocks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_study_block, plan, block)
                       for block in blocks]
            for fut in as_completed(futures):
                for rec in fut.result():
                    results[rec["index"]] = rec
    else:
        for block in blocks:
            for rec in _study_block(plan, block):
                results[rec["index"]] = rec

    rows = []
    prev = None
    for j, mesh in enumerate(plan.meshes):
        unif, grid, kerr, kvar = [], [], [], []
        n_failed = 0
        for rec in results:
            cell = rec["per_mesh"][j]
            if cell["ok"]:
                unif.append(cell["err_unif"])
                grid.append(cell["err_grid"])
                kerr.append(cell["k_err"])
                kvar.append(cell["kvar_end"])
            else:
                n_failed += 1

        def med(vals):
            return float(np.median(vals)) if vals else math.nan

        row = {
            "mesh": float(mesh),
            "err_unif_med": med(unif),
            "err_unif_p90": float(np.percentile(unif, 90.0)) if unif else math.nan,
            "err_grid_med": med(grid),
            "k_err_med": med(kerr),
            "kvar_end_med": med(kvar),
            "n_ok": len(unif),
            "n_failed": n_failed,
        }
        if prev is not None and prev["err_unif_med"] > 0.0 and row["err_unif_med"] > 0.0:
            row["slope_partial"] = (
                (math.log2(row["err_unif_med"]) - math.log2(prev["err_unif_med"]))
                / (math.log2(row["mesh"]) - math.log2(prev["mesh"]))
            )
        else:
            row["slope_partial"] = math.nan
        rows.append(row)
        prev = row

    slope, r2 = fit_rate([r["mesh"] for r in rows],
                         [r["err_unif_med"] for r in rows])
    return RateTable(
        scheme=plan.scheme,
        n_paths=plan.n_paths,
        seed=plan.seed,
        rows=tuple(RateRow(**r) for r in rows),
        slope=slope,
        r_squared=r2,
    )


@dataclass(frozen=True, eq=False)
class Remark4Report:
    """Transported versus polygonal jump handling at a curved boundary.

    A unit jump pushes a state on the unit circle tangentially.  One-shot
    transport plus projection lands at the chord projection; the polygonal
    (projected substep) dynamics creep along the arc and converge to the
    constrained tangential flow.  The two limits differ by a fixed
    geometric gap; on flat boundaries or without jumps the gap is zero.
    """

    meshes: tuple
    substeps: tuple
    marcus_endpoint: np.ndarray
    flow_endpoints: np.ndarray
    gaps: tuple
    gap: float
    gap_spread: float
    integrator_error: float
    smooth_oracle: np.ndarray
    marcus_oracle: np.ndarray
    flow_oracle_error: float
    marcus_oracle_error: float
    half_line_gap: float
    zero_jump_gap: float


def _tangential_jump_setup():
    """Unit disk, unit jump at t=1 pushing (1, 0) tangentially upward."""
    domain = Ball((0.0, 0.0), 1.0)
    f = constant_matrix([[0.0, 0.0], [1.0, 0.0]])
    x0 = (1.0, 0.0)
    z = GridPath(
        times=np.array([0.0, 1.0, 1.5]),
        values=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]),
        interp="cadlag-step",
        jump_times=np.array([1.0]),
        jump_values=np.array([[1.0, 0.0]]),
    )
    return domain, f, x0, z


def remark4_report(substeps=(64, 128, 256, 512),
                   meshes=(0.5, 0.25, 0.125)) -> Remark4Report:
    """Quantify the endpoint gap between the two jump conventions.

    The polygonal endpoint converges (first order in the substep count) to
    the constrained tangential flow of the circle, whose endpoint is
    (sech 1, tanh 1); the transported endpoint is the chord projection
    (1, 1)/sqrt(2).  The report also carries two null cases (flat boundary,
    no jump) where both conventions agree exactly.
    """
    substeps = tuple(int(m) for m in substeps)
    meshes = tuple(float(m) for m in meshes)
    if not substeps or any(m < 1 for m in substeps):
        raise ValueError("substeps must be positive integers")
    if not meshes or any(m <= 0.0 for m in meshes):
        raise ValueError("meshes must be positive")

    domain, f, x0, z = _tangential_jump_setup()
    horizon = z.horizon

    def partition_for(mesh):
        return Partition.uniform(horizon, max(1, round(horizon / mesh)))

    flow_endpoints = np.empty((len(meshes), len(substeps), 2))
    for i, mesh in enumerate(meshes):
        part = partition_for(mesh)
        for j, m in enumerate(substeps):
            spec = SchemeSpec(kind="wz-bar", partition=part, substeps_bar=m)
            out = run_scheme(domain, f, x0, z, spec)
            flow_endpoints[i, j] = out.x.values[-1]

    proj_spec = SchemeSpec(kind="projection", partition=partition_for(meshes[-1]))
    marcus_endpoint = run_scheme(domain, f, x0, z, proj_spec).x.values[-1]

    gaps = tuple(
        float(np.linalg.norm(flow_endpoints[i, -1] - marcus_endpoint))
        for i in range(len(meshes))
    )
    gap = gaps[-1]
    gap_spread = max(gaps) - min(gaps)

    if len(substeps) >= 2:
        integrator_error = 2.0 * float(np.linalg.norm(
            flow_endpoints[-1, -1] - flow_endpoints[-1, -2]
        ))
    else:
        integrator_error = math.nan

    smooth_oracle = np.array([1.0 / math.cosh(1.0), math.tanh(1.0)])
    marcus_oracle = np.array([1.0, 1.0]) / math.sqrt(2.0)
    flow_oracle_error = float(np.linalg.norm(flow_endpoints[-1, -1] - smooth_oracle))
    marcus_oracle_error = float(np.linalg.norm(marcus_endpoint - marcus_oracle))

    # flat boundary: a jump straight into the wall, both conventions agree
    line = HalfSpace([1.0], 0.0)
    f_line = constant_matrix([[-1.0]])
    z_line = GridPath(
        times=np.array([0.0, 1.0, 1.5]),
        values=np.array([[0.0], [1.0], [1.0]]),
        interp="cadlag-step",
        jump_times=np.array([1.0]),
        jump_values=np.array([[1.0]]),
    )
    part = partition_for(meshes[-1])
    bar_spec = SchemeSpec(kind="wz-bar", partition=part, substeps_bar=substeps[-1])
    prj_spec = SchemeSpec(kind="projection", partition=part)
    end_bar = run_scheme(line, f_line, (0.5,), z_line, bar_spec).x.values[-1]
    end_prj = run_scheme(line, f_line, (0.5,), z_line, prj_spec).x.values[-1]
    half_line_gap = float(np.linalg.norm(end_bar - end_prj))

    # no jump at all: both conventions keep the state put
    z_quiet = GridPath(
        times=np.array([0.0, 1.0, 1.5]),
        values=np.zeros((3, 2)),
        interp="cadlag-step",
    )
    end_bar = run_scheme(domain, f, x0, z_quiet, bar_spec).x.values[-1]
    end_prj = run_scheme(domain, f, x0, z_quiet, prj_spec).x.values[-1]
    zero_jump_gap = float(np.linalg.norm(end_bar - end_prj))

    return Remark4Report(
        meshes=meshes,
        substeps=substeps,
        marcus_endpoint=np.asarray(marcus_endpoint),
        flow_endpoints=flow_endpoints,
        gaps=gaps,
        gap=gap,
        gap_spread=gap_spread,
        integrator_error=integrator_error,
        smooth_oracle=smooth_oracle,
        marcus_oracle=marcus_oracle,
        flow_oracle_error=flow_oracle_error,
        marcus_oracle_error=marcus_oracle_error,
        half_line_gap=half_line_gap,
        zero_jump_gap=zero_jump_gap,
    )


def variation_report(domain: Domain, y: GridPath, sol) -> dict:
    """Variation comparisons of a constrained pair (x, k) against y.

    ``sol`` needs ``x`` and ``k`` path attributes (a Skorokhod solution or
    a scheme output).  The windows are the four quarters of the horizon
    plus the full interval, at ``check_lemma1``'s default tolerance.  The
    ``bounded_by_driver`` flag is the practical boundedness check: the
    compensator's total variation stays within the driver's.
    """
    horizon = y.horizon
    edges = np.linspace(0.0, horizon, 5)
    intervals = [(float(edges[i]), float(edges[i + 1])) for i in range(4)]
    intervals.append((0.0, horizon))
    report = check_lemma1(domain, y, sol, intervals)
    total = report.intervals[-1]
    vy, vk = total.y_variation, total.k_variation
    bounded = (bool(vk <= vy + report.rel_tol * (1.0 + vy))
               and math.isfinite(vk))
    out = json_ready(report)
    out["y_variation_total"] = vy
    out["k_variation_total"] = vk
    out["bounded_by_driver"] = bounded
    return out
