"""Acceptance scorecard for the whole package.

Nine end-to-end checks, each printing one `[criterion n] PASS/FAIL` line
with the measured quantity and its pinned tolerance.  Tolerances here are
frozen; see the unit test modules for the finer-grained coverage behind
them.
"""

import filecmp
import math
import os
import time

import numpy as np

from reflectsde.analysis import StudyPlan, convergence_study, remark4_report
from reflectsde.cli import main
from reflectsde.driver import (GridPath, Partition, path_seed,
                               sample_brownian, sample_jump_driver)
from reflectsde.flow import (catalog_coefficient, constant_matrix,
                             jump_defect, linear_diagonal)
from reflectsde.geometry import (Ball, Box, ConvexPolyhedron, ExteriorOfBall,
                                 HalfSpace)
from reflectsde.schemes import SchemeSpec, run_scheme
from reflectsde.skorokhod import check_lemma1, solve_skorokhod

FREE_BOX = Box([-1e6], [1e6])
JOBS = min(8, os.cpu_count() or 1)


def _verdict(capsys, n, ok, detail):
    with capsys.disabled():
        print("\n[criterion %d] %s %s" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d: %s" % (n, detail)


def test_criterion_1_half_line_decomposition_oracle(capsys):
    """1000 random cadlag paths on the half line against the running-max
    closed form, every grid point within 1e-12, under a 10 s budget."""
    t0 = time.time()
    dom = HalfSpace([1.0], 0.0)
    worst = 0.0
    for i in range(1000):
        z = sample_jump_driver(1.0, 128, 1, seed=path_seed(11, i),
                               jump_rate=3.0,
                               jump_law={"kind": "uniform-ball",
                                         "radius": 0.8})
        y = GridPath(z.times, z.values + 0.3, interp=z.interp,
                     jump_times=z.jump_times, jump_values=z.jump_values)
        sol = solve_skorokhod(dom, y)
        running_min = np.minimum.accumulate(y.values[:, 0])
        oracle = y.values[:, 0] + np.maximum(-running_min, 0.0)
        worst = max(worst, float(np.max(np.abs(sol.x.values[:, 0] - oracle))))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _verdict(capsys, 1, ok,
             "worst grid error %.2e (tol 1e-12), 1000 paths in %.1fs "
             "(budget 10s)" % (worst, elapsed))


def test_criterion_2_variation_bounds_four_domains(capsys):
    """Compensator and state variation bounded by the driver variation
    (factors 1 and 2, rel tol 1e-9) on 1000 paths per domain, three
    windows each, with per-step increments kept below the reach radius."""
    t0 = time.time()
    cases = [
        (HalfSpace([1.0, 0.0], 0.0), (0.5, 0.0)),
        (Ball([0.0, 0.0], 1.5), (0.5, 0.0)),
        (Box([-1.0, -1.0], [1.0, 1.0]), (0.0, 0.0)),
        (ExteriorOfBall([0.0, 0.0], 0.5), (1.5, 0.0)),
    ]
    intervals = [(0.0, 1.0), (0.25, 0.75), (0.5, 1.0)]
    n_bad = 0
    n_rejected = 0
    for dom, x0 in cases:
        cap = 0.9 * dom.rho0 if np.isfinite(dom.rho0) else np.inf
        done = 0
        idx = 0
        while done < 1000:
            z = sample_jump_driver(1.0, 128, 2, seed=path_seed(22, idx),
                                   jump_rate=2.0, diffusion_scale=0.3,
                                   jump_law={"kind": "uniform-ball",
                                             "radius": 0.25})
            idx += 1
            steps = np.linalg.norm(np.diff(z.values, axis=0), axis=1)
            if float(np.max(steps)) >= cap:
                n_rejected += 1
                continue
            done += 1
            y = GridPath(z.times, z.values + np.asarray(x0), interp=z.interp,
                         jump_times=z.jump_times, jump_values=z.jump_values)
            sol = solve_skorokhod(dom, y)
            rep = check_lemma1(dom, y, sol, intervals=intervals)
            if not rep.all_ok:
                n_bad += 1
    elapsed = time.time() - t0
    ok = n_bad == 0
    _verdict(capsys, 2, ok,
             "%d/12000 window checks failed (rel tol 1e-9), %d oversized "
             "paths rejected, %.1fs" % (n_bad * 3, n_rejected, elapsed))


def test_criterion_3_jump_exponential_oracle(capsys):
    """d = 1, f(x) = x, compound Poisson plus Brownian driver on a free
    box: the jump-isolating scheme on mesh 2^-10 lands on x0 e^{z(t)} at
    every grid point, median sup error below 1e-3."""
    f = linear_diagonal(1.0, 1, region_radius=50.0)
    errs = []
    for i in range(100):
        z = sample_jump_driver(1.0, 1024, 1, seed=path_seed(777, i),
                               jump_rate=2.0,
                               jump_law={"kind": "uniform-ball",
                                         "radius": 0.4})
        spec = SchemeSpec(kind="jump-adapted",
                          partition=Partition.uniform(1.0, 1024))
        out = run_scheme(FREE_BOX, f, (1.0,), z, spec)
        exact = np.exp(z.value_at(out.x.times))
        errs.append(float(np.max(np.abs(out.x.values - exact))))
    med = float(np.median(errs))
    ok = med < 1e-3
    _verdict(capsys, 3, ok,
             "median sup grid error vs x0*exp(z) %.2e (tol 1e-3), "
             "100 paths" % med)


def test_criterion_4_stratonovich_not_ito(capsys):
    """Pure Brownian driver, same exponential setup, chord-flow scheme.
    At mesh 2^-9 the grid-point error against exp(W) is far below a fifth
    of the distance to the exp(W - t/2) solution, and uniform-metric
    errors against exp(W) strictly decrease along meshes 2^-4 .. 2^-9."""
    f = linear_diagonal(1.0, 1, region_radius=50.0)
    meshes = [2.0 ** -k for k in range(4, 10)]
    n_paths = 100
    unif = np.zeros((len(meshes), n_paths))
    grid_strat = np.zeros(n_paths)
    grid_ito = np.zeros(n_paths)
    for i in range(n_paths):
        z = sample_brownian(1.0, 1024, 1, seed=path_seed(888, i))
        tt = z.times
        exact = np.exp(z.values[:, 0])
        for m, mesh in enumerate(meshes):
            cells = round(1.0 / mesh)
            part = Partition.uniform(1.0, cells)
            spec = SchemeSpec(kind="wz-hat", partition=part,
                              observation_times=tt)
            out = run_scheme(FREE_BOX, f, (1.0,), z, spec)
            vals = out.x.value_at(tt)[:, 0]
            unif[m, i] = float(np.max(np.abs(vals - exact)))
            if m == len(meshes) - 1:
                sel = np.searchsorted(out.x.times, part.points)
                g = out.x.values[sel][:, 0]
                wt = z.value_at(part.points)[:, 0]
                grid_strat[i] = float(np.max(np.abs(g - np.exp(wt))))
                grid_ito[i] = float(
                    np.max(np.abs(g - np.exp(wt - 0.5 * part.points))))
    med = np.median(unif, axis=1)
    ratio = float(np.median(grid_strat) / np.median(grid_ito))
    decreasing = bool(np.all(np.diff(med) < 0))
    ok = ratio < 0.2 and decreasing
    _verdict(capsys, 4, ok,
             "grid-point error ratio %.2e (tol 0.2), uniform medians "
             "%s strictly decreasing: %s"
             % (ratio, ["%.3f" % v for v in med], decreasing))


def _random_identity_config(rng, idx):
    kind = idx % 5
    if kind == 0:
        n = rng.normal(size=2)
        n /= np.linalg.norm(n)
        offset = rng.uniform(-0.3, 0.0)
        dom = HalfSpace(n, offset)
        x0 = n * (offset + 0.6)
    elif kind == 1:
        center = rng.uniform(-0.5, 0.5, size=2)
        dom = Ball(center, rng.uniform(0.8, 1.5))
        x0 = center + np.array([0.2, 0.1])
    elif kind == 2:
        lo = rng.uniform(-1.5, -0.8, size=2)
        hi = rng.uniform(0.8, 1.5, size=2)
        dom = Box(lo, hi)
        x0 = 0.5 * (lo + hi)
    elif kind == 3:
        a = rng.uniform(-0.5, -0.2, size=2)
        dom = ConvexPolyhedron(np.eye(2), a)
        x0 = a + 0.6
    else:
        center = rng.uniform(-0.3, 0.3, size=2)
        dom = ExteriorOfBall(center, 0.4)
        x0 = center + np.array([1.2, 0.0])
    coeff_id = ("sine-diagonal", "gauss-rotation", "cosine-shear")[idx % 3]
    amp = float(rng.uniform(0.2, 0.5))
    if coeff_id == "sine-diagonal":
        f = catalog_coefficient(coeff_id, amplitude=amp, dimension=2)
    elif coeff_id == "gauss-rotation":
        f = catalog_coefficient(coeff_id, amplitude=amp,
                                sigma=float(rng.uniform(1.0, 2.0)))
    else:
        f = catalog_coefficient(coeff_id, amplitude=amp)
    scale = 0.08 if kind == 4 else 0.4
    radius = 0.2 if kind == 4 else 0.5
    z = sample_jump_driver(1.0, 64, 2, seed=path_seed(505, idx),
                           jump_rate=3.0, diffusion_scale=scale,
                           jump_law={"kind": "uniform-ball",
                                     "radius": radius})
    cells = int(rng.choice([8, 16, 32]))
    n_obs = int(rng.integers(0, 4))
    obs = np.sort(rng.uniform(0.0, 1.0, size=n_obs)) if n_obs else None
    return dom, f, tuple(float(v) for v in x0), z, cells, obs


def test_criterion_5_chord_scheme_grid_identity(capsys):
    """On 100 random configurations the chord-flow scheme restricted to
    its partition points reproduces the projection scheme bit for bit."""
    rng = np.random.default_rng(909)
    all_equal = True
    first_bad = None
    for idx in range(100):
        dom, f, x0, z, cells, obs = _random_identity_config(rng, idx)
        part = Partition.uniform(1.0, cells)
        proj = run_scheme(
            dom, f, x0, z, SchemeSpec(kind="projection", partition=part))
        hat = run_scheme(
            dom, f, x0, z, SchemeSpec(kind="wz-hat", partition=part,
                                      observation_times=obs))
        sel = np.searchsorted(hat.x.times, part.points)
        same = (np.array_equal(hat.x.values[sel], proj.x.values)
                and np.array_equal(hat.k.values[sel], proj.k.values)
                and np.array_equal(hat.k_variation[sel], proj.k_variation))
        if not same and first_bad is None:
            first_bad = idx
            all_equal = False
    _verdict(capsys, 5, all_equal,
             "100 random configs bitwise identical at partition points"
             if all_equal else "first mismatch at config %d" % first_bad)


def test_criterion_6_reflected_brownian_convergence(capsys):
    """Reflected Brownian motion on the unit disk, polygonal scheme on
    meshes 2^-4 .. 2^-8 against a refined reference: state-error medians
    strictly decreasing with the last below 5e-2, and compensator-error
    medians decreasing as well."""
    t0 = time.time()
    plan = StudyPlan(
        domain={"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        coefficient={"kind": "constant-matrix",
                     "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        x0=[1.0, 0.0],
        scheme="wz-bar",
        meshes=[2.0 ** -k for k in range(4, 9)],
        horizon=1.0,
        driver_steps=1024,
        driver_dimension=2,
        jump_rate=0.0,
        diffusion_scale=0.2,
        n_paths=60,
        seed=2024,
        reference_refine=1024,
        substeps_bar=64,
    )
    table = convergence_study(plan, jobs=JOBS)
    x_med = np.asarray([row.err_unif_med for row in table.rows])
    k_med = np.asarray([row.k_err_med for row in table.rows])
    x_decreasing = bool(np.all(np.diff(x_med) < 0))
    k_decreasing = bool(np.all(np.diff(k_med) < 0))
    final = float(x_med[-1])
    ok = x_decreasing and k_decreasing and final < 5e-2
    _verdict(capsys, 6, ok,
             "x medians %s decreasing: %s, final %.3f (tol 5e-2); "
             "k medians %s decreasing: %s; %.1fs"
             % (["%.3f" % v for v in x_med], x_decreasing, final,
                ["%.3f" % v for v in k_med], k_decreasing,
                time.time() - t0))


def test_criterion_7_tangential_jump_gap(capsys):
    """Disk with a tangential unit jump: the polygonal scheme's endpoint
    approaches the constrained-flow point (sech 1, tanh 1) while the
    projected transport endpoint stays at the chord point (1,1)/sqrt(2);
    the gap between the two limits is mesh-stable and far larger than the
    substep-refinement error."""
    rep = remark4_report(substeps=(64, 128, 256, 512),
                         meshes=(0.5, 0.25, 0.125))
    flow_ok = rep.flow_oracle_error < 1e-3
    marcus_ok = rep.marcus_oracle_error < 1e-12
    oracle_gap = math.hypot(1.0 / math.cosh(1.0) - 1.0 / math.sqrt(2.0),
                            math.tanh(1.0) - 1.0 / math.sqrt(2.0))
    gap_ok = abs(rep.gap - oracle_gap) < 1e-3
    stable = rep.gap_spread < 1e-3
    dominates = rep.gap > 10.0 * rep.integrator_error
    ok = flow_ok and marcus_ok and gap_ok and stable and dominates
    _verdict(capsys, 7, ok,
             "flow endpoint err %.2e (tol 1e-3), chord endpoint err %.2e "
             "(tol 1e-12), gap %.6f vs oracle %.6f, spread %.2e (tol 1e-3), "
             "gap/integrator %.0fx"
             % (rep.flow_oracle_error, rep.marcus_oracle_error, rep.gap,
                oracle_gap, rep.gap_spread,
                rep.gap / max(rep.integrator_error, 1e-300)))


def test_criterion_8_jump_defect_bounds(capsys):
    """The one-jump transport defect obeys |defect| <= C |dz|^2 with the
    coefficient's own derived constant over 10000 random pairs each, and
    the defect is C'-Lipschitz in the state on 2000 random pairs each."""
    rng = np.random.default_rng(808)
    coeffs = {
        "constant": constant_matrix([[0.3, 0.1], [0.0, 0.2]]),
        "linear-diagonal": linear_diagonal(0.4, 2, region_radius=3.0),
        "sine-diagonal": catalog_coefficient("sine-diagonal", amplitude=0.8,
                                             dimension=2),
        "gauss-rotation": catalog_coefficient("gauss-rotation",
                                              amplitude=0.7, sigma=1.5),
        "cosine-shear": catalog_coefficient("cosine-shear", amplitude=0.6),
    }
    quad_bad = []
    lip_bad = []
    for name, f in coeffs.items():
        x = rng.uniform(-3.0, 3.0, size=(10000, 2))
        dz = rng.uniform(-1.0, 1.0, size=(10000, 2))
        dz /= np.maximum(1.0, np.linalg.norm(dz, axis=1, keepdims=True))
        defect = jump_defect(f, dz, x)
        bound = f.defect_constant(1.0) * np.linalg.norm(dz, axis=1) ** 2
        if not np.all(np.linalg.norm(defect, axis=1) <= bound + 1e-12):
            quad_bad.append(name)
        x1 = rng.uniform(-3.0, 3.0, size=(2000, 2))
        x2 = x1 + rng.uniform(-1.0, 1.0, size=(2000, 2))
        dz2 = rng.uniform(-1.0, 1.0, size=(2000, 2))
        dz2 /= np.maximum(1.0, np.linalg.norm(dz2, axis=1, keepdims=True))
        d1 = jump_defect(f, dz2, x1)
        d2 = jump_defect(f, dz2, x2)
        lhs = np.linalg.norm(d1 - d2, axis=1)
        rhs = (f.defect_lipschitz(1.0) * np.linalg.norm(dz2, axis=1) ** 2
               * np.linalg.norm(x1 - x2, axis=1))
        if not np.all(lhs <= rhs + 1e-12):
            lip_bad.append(name)
    ok = not quad_bad and not lip_bad
    _verdict(capsys, 8, ok,
             "quadratic bound ok for %d/5 coefficients, Lipschitz bound ok "
             "for %d/5 (10000 and 2000 samples each)"
             % (5 - len(quad_bad), 5 - len(lip_bad)))


CONV_YAML = """
domain:
  kind: half-space
  normal: [1.0]
  offset: 0.0
coefficient:
  kind: constant-matrix
  matrix: [[1.0]]
driver:
  steps: 128
scheme:
  kind: projection
experiment:
  x0: [0.5]
  meshes: [0.25, 0.125]
  n_paths: 6
  reference_refine: 128
  reference_substeps: 32
"""


def test_criterion_9_parallel_determinism(capsys, tmp_path):
    """The convergence subcommand writes byte-identical artifacts at
    --jobs 1 and --jobs 8."""
    cfg = tmp_path / "conv.yaml"
    cfg.write_text(CONV_YAML)
    out1, out8 = tmp_path / "j1", tmp_path / "j8"
    code1 = main(["converge", "--config", str(cfg), "--out", str(out1),
                  "--jobs", "1"])
    code8 = main(["converge", "--config", str(cfg), "--out", str(out8),
                  "--jobs", "8"])
    capsys.readouterr()
    same = all(filecmp.cmp(out1 / name, out8 / name, shallow=False)
               for name in ("rate.csv", "rate.json"))
    ok = code1 == 0 and code8 == 0 and same
    _verdict(capsys, 9, ok,
             "rate.csv and rate.json byte-identical at --jobs 1 vs "
             "--jobs 8" if same else "artifacts differ between job counts")
