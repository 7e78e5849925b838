"""Error metrics, rate studies, the flow-gap report, and serialization."""

import concurrent.futures
import json
import pickle

import numpy as np
import pytest

from reflectsde import analysis, csvio
from reflectsde.analysis import (RateRow, StudyPlan, convergence_study,
                                 fit_rate, json_ready, remark4_report,
                                 sup_error, variation_report)
from reflectsde.config import (ExperimentConfig, config_from_mapping,
                               default_config, load_config)
from reflectsde.csvio import (path_csv_text, rate_csv_text, read_path_csv,
                              solution_csv_text, write_path_csv,
                              write_rate_csv, write_solution_csv)
from reflectsde.driver import (GridPath, Partition, path_seed, sample_brownian,
                               sample_jump_driver)
from reflectsde.errors import ConfigError, CsvFormatError, ReflectedSDEError
from reflectsde.flow import (Coefficient, FlowConfig, coefficient_from_spec,
                             constant_matrix)
from reflectsde.geometry import Domain, HalfSpace
from reflectsde.schemes import SchemeSpec, build_reference, run_scheme
from reflectsde.skorokhod import solve_skorokhod


def _step(times, values, **kw):
    return GridPath(np.asarray(times, dtype=float),
                    np.asarray(values, dtype=float)[:, None], **kw)


# ---------------------------------------------------------------------------
# sup_error


def test_sup_error_zero_on_identical_paths():
    a = _step([0.0, 0.5, 1.0], [0.0, 1.0, 2.0])
    assert sup_error(a, a, 1.0) == 0.0


def test_sup_error_sees_mismatched_jump_from_the_left():
    """Two step paths that agree at every grid point of either grid but
    jump at different times differ in the uniform metric: the left limit
    at the later jump time exposes the gap."""
    a = _step([0.0, 0.5, 1.0], [0.0, 1.0, 1.0],
              jump_times=np.array([0.5]), jump_values=np.array([[1.0]]))
    b = _step([0.0, 0.25, 1.0], [0.0, 1.0, 1.0],
              jump_times=np.array([0.25]), jump_values=np.array([[1.0]]))
    # on the union grid both are equal to 1 from t = 0.5 on, and at 0.25
    # a is still 0 while b is already 1
    assert sup_error(a, b, 1.0, mode="uniform") == pytest.approx(1.0)
    # grid-points mode only looks at a's own times (0, 0.5, 1), where the
    # two paths agree, so the mismatched jump is invisible there
    assert sup_error(a, b, 1.0, mode="grid-points") == 0.0


def test_sup_error_modes_and_horizon():
    a = _step([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], interp="linear")
    b = _step([0.0, 1.0], [0.0, 0.8], interp="linear")
    assert sup_error(a, b, 1.0, mode="uniform") == pytest.approx(0.2)
    # restricting the window cuts off the late discrepancy
    assert sup_error(a, b, horizon=0.5, mode="uniform") == pytest.approx(0.1)
    with pytest.raises(ValueError):
        sup_error(a, b, 1.0, mode="weighted")
    short = _step([0.0, 0.5], [0.0, 0.5], interp="linear")
    with pytest.raises(ValueError):
        sup_error(a, short, horizon=0.9)


def test_sup_error_dimension_guard():
    a = _step([0.0, 1.0], [0.0, 1.0])
    b = GridPath(np.array([0.0, 1.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        sup_error(a, b, 1.0)


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_rate_recovers_synthetic_order():
    meshes = [0.25, 0.125, 0.0625, 0.03125]
    errs = [0.7 * h ** 0.5 for h in meshes]
    slope, r2 = fit_rate(meshes, errs)
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_ignores_failed_levels():
    slope, r2 = fit_rate([0.5, 0.25, 0.125], [0.3, float("nan"), 0.075])
    assert slope == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_degenerate():
    slope, r2 = fit_rate([0.5], [0.1])
    assert np.isnan(slope) and np.isnan(r2)


# ---------------------------------------------------------------------------
# study plan


def _tiny_plan(**overrides):
    base = dict(
        domain={"kind": "half-space", "normal": [1.0], "offset": 0.0},
        coefficient={"kind": "constant-matrix", "matrix": [[1.0]]},
        x0=[0.5],
        scheme="projection",
        meshes=[0.25, 0.125],
        horizon=1.0,
        driver_steps=64,
        driver_dimension=1,
        n_paths=4,
        seed=7,
        reference_refine=64,
        flow_substeps=8,
        flow_adaptive=False,
        reference_substeps=16,
    )
    base.update(overrides)
    return StudyPlan(**base)


def test_study_plan_normalizes_and_validates():
    plan = _tiny_plan(meshes=[0.125, 0.25, 0.125])
    assert plan.meshes == (0.25, 0.125)
    assert plan.validate() == []
    bad = _tiny_plan(meshes=[0.25], reference_refine=2)
    problems = bad.validate()
    assert any("reference_refine" in p for p in problems)
    with pytest.raises(ValueError):
        convergence_study(bad)


def test_study_plan_round_trip():
    """A plan reaches a pool's workers pickled, so it must come back equal,
    with its normalized fields as they were."""
    plan = _tiny_plan()
    again = pickle.loads(pickle.dumps(plan))
    assert again == plan and again is not plan
    assert again.x0 == plan.x0 and type(again.x0) is tuple
    assert again.meshes == plan.meshes and type(again.meshes) is tuple


def test_convergence_study_small_run():
    plan = _tiny_plan()
    table = convergence_study(plan, jobs=1)
    assert table.scheme == "projection"
    assert len(table.rows) == 2
    for row in table.rows:
        assert row.n_ok == 4 and row.n_failed == 0
        assert row.err_unif_med >= 0.0
    # identical plan, parallel execution: identical numbers
    table2 = convergence_study(plan, jobs=2)
    assert json_ready(table) == json_ready(table2)


def test_process_pool_is_capped_at_the_number_of_blocks(monkeypatch):
    """A pool never gets more workers than the study has blocks: --jobs
    5000 on four paths (four blocks) asks for four, and the table is the
    serial one.  The stand-in pool runs each block at submit, in this
    process, so the test starts no process."""
    widths = []

    class InlinePool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InlinePool)
    plan = _tiny_plan()
    serial = json_ready(convergence_study(plan, jobs=1))
    for jobs in (5000, 4, 3):
        assert json_ready(convergence_study(plan, jobs=jobs)) == serial
    assert widths == [4, 4, 3]


def test_convergence_study_records_nonfinite_cells(monkeypatch):
    """A scheme step that goes non-finite fails its cell, not the study.

    The references are built with the identity, whose constant-matrix jump
    map is exact, so they succeed, while every field evaluation the wz-bar
    substeps make returns NaN."""
    def nan_coefficient(spec):
        return Coefficient("nan-field", 1,
                           lambda x: np.full(x.shape[:-1] + (1, 1), np.nan),
                           sup_f=1.0)

    build_references = analysis.build_references

    def identity_references(domain, f, *args, **kwargs):
        return build_references(domain, constant_matrix([[1.0]]), *args,
                                **kwargs)

    monkeypatch.setattr(analysis, "coefficient_from_spec", nan_coefficient)
    monkeypatch.setattr(analysis, "build_references", identity_references)
    plan = _tiny_plan(scheme="wz-bar", substeps_bar=4)
    table = convergence_study(plan, jobs=1)
    for row in table.rows:
        assert row.n_ok == 0 and row.n_failed == 4
    for record in analysis._study_block(plan, range(4)):
        assert [cell["error"].split(":")[0] for cell in record["per_mesh"]
                ] == ["NonFinite"] * len(plan.meshes)


def test_blocks_group_paths_only_for_the_lockstep():
    """Paths share a block only where their references are built in
    lockstep, at most ``_BLOCK_PATHS`` of them and no more than an even
    share of the workers; blocks cover the paths in index order."""
    def sizes(n_paths, jobs, lockstep):
        blocks = analysis._blocks(n_paths, jobs, lockstep)
        assert [i for block in blocks for i in block] == list(range(n_paths))
        return [len(block) for block in blocks]

    assert sizes(40, 1, True) == [16, 16, 8]
    assert sizes(16, 2, True) == [8, 8]
    assert sizes(16, 3, True) == [6, 6, 4]
    assert sizes(2, 4, True) == [1, 1]
    assert sizes(6, 1, False) == [1] * 6
    assert sizes(6, 2, False) == [1] * 6


def loop_study_records(plan, indices):
    """Each path's per-mesh records, one path and one run at a time: its
    reference alone, then ``run_scheme`` on each mesh, scored against the
    reference's x and k."""
    domain = Domain.from_spec(plan.domain)
    f = coefficient_from_spec(plan.coefficient)
    records = []
    for index in indices:
        z = sample_jump_driver(plan.horizon, plan.driver_steps,
                               plan.driver_dimension,
                               path_seed(plan.seed, index),
                               jump_rate=plan.jump_rate,
                               jump_law=plan.jump_law,
                               diffusion_scale=plan.diffusion_scale)
        try:
            ref = build_reference(domain, f, plan.x0, z, plan.reference_refine,
                                  FlowConfig(plan.reference_substeps, True))
        except ReflectedSDEError as exc:
            records.append({"index": index, "per_mesh": [
                {"ok": False,
                 "error": f"reference: {type(exc).__name__}: {exc}"}
                for _ in plan.meshes]})
            continue
        per_mesh = []
        for mesh in plan.meshes:
            part = Partition.uniform(plan.horizon,
                                     max(1, round(plan.horizon / mesh)))
            spec = SchemeSpec(kind=plan.scheme, partition=part,
                              flow_cfg=FlowConfig(plan.flow_substeps,
                                                  plan.flow_adaptive),
                              substeps_bar=plan.substeps_bar)
            try:
                out = run_scheme(domain, f, plan.x0, z, spec)
            except ReflectedSDEError as exc:
                per_mesh.append({"ok": False,
                                 "error": f"{type(exc).__name__}: {exc}"})
                continue
            per_mesh.append({
                "ok": True,
                "err_unif": sup_error(out.x, ref.x, horizon=plan.horizon),
                "err_grid": sup_error(out.x, ref.x, horizon=plan.horizon,
                                      mode="grid-points"),
                "k_err": sup_error(out.k, ref.k, horizon=plan.horizon),
                "kvar_end": float(out.k_variation[-1]),
            })
        records.append({"index": index, "per_mesh": per_mesh})
    return records


@pytest.mark.parametrize("scheme", ["wz-hat", "jump-adapted", "wz-bar"])
def test_study_block_matches_a_loop_over_paths(scheme):
    """A block's records, its references built and its runs made together,
    equal a loop over its paths, each built and run alone; with a reach of
    0.5 and jumps up to 0.6, some references and runs fail."""
    plan = StudyPlan(
        domain={"kind": "exterior-of-ball", "center": [0.0, 0.0],
                "radius": 0.5},
        coefficient={"kind": "catalog-smooth", "id": "gauss-rotation",
                     "amplitude": 0.8, "sigma": 1.5},
        x0=(0.55, 0.0), scheme=scheme, meshes=(0.25, 0.125),
        driver_steps=64, driver_dimension=2, jump_rate=3.0,
        jump_law={"kind": "uniform-ball", "radius": 0.6},
        diffusion_scale=0.2, n_paths=10, seed=4, reference_refine=64,
        reference_substeps=64, substeps_bar=8)
    got = analysis._study_block(plan, range(10))
    assert got == loop_study_records(plan, range(10))
    cells = [cell for rec in got for cell in rec["per_mesh"]]
    assert any(not c["ok"] and c["error"].startswith("reference")
               for c in cells)
    assert any(not c["ok"] and not c["error"].startswith("reference")
               for c in cells)
    assert sum(c["ok"] for c in cells) >= 8


def test_convergence_study_errors_shrink():
    plan = _tiny_plan(meshes=[0.5, 0.0625], n_paths=6)
    table = convergence_study(plan)
    assert table.rows[1].err_unif_med < table.rows[0].err_unif_med


# ---------------------------------------------------------------------------
# flow-gap report


def test_remark4_report_frozen_numbers():
    rep = remark4_report(substeps=(64, 128, 256, 512),
                         meshes=(0.5, 0.25, 0.125))
    assert rep.marcus_oracle_error < 1e-12
    assert rep.flow_oracle_error < 1e-3
    assert rep.gap == pytest.approx(0.0800757509533985, abs=1e-12)
    assert rep.gap_spread < 1e-10
    assert rep.gap > 10.0 * rep.integrator_error
    assert rep.half_line_gap < 1e-12
    assert rep.zero_jump_gap < 1e-12
    d = json_ready(rep)
    assert d["gap"] == rep.gap
    json.dumps(d)


def test_json_ready_writes_nan_as_null():
    """One substep count leaves no integrator error to estimate: NaN, which
    the JSON form writes as null, never as a bare NaN."""
    d = json_ready(remark4_report(substeps=(64,)))
    assert d["integrator_error"] is None
    assert d["substeps"] == [64] and isinstance(d["marcus_endpoint"], list)
    json.dumps(d, allow_nan=False)


# ---------------------------------------------------------------------------
# variation report


def test_variation_report_flags():
    dom = HalfSpace([1.0], 0.0)
    y = sample_brownian(1.0, 256, 1, seed=5)
    sol = solve_skorokhod(dom, y)
    rep = variation_report(dom, y, sol)
    assert rep["all_ok"] is True
    assert rep["bounded_by_driver"] is True
    assert rep["k_variation_total"] <= rep["y_variation_total"] + 1e-9
    assert len(rep["intervals"]) == 5


# ---------------------------------------------------------------------------
# csv round trips


def test_path_csv_round_trip(tmp_path):
    z = GridPath(
        times=np.array([0.0, 0.25, 0.5, 1.0]),
        values=np.array([[0.0, 1.0], [0.5, 1.5], [1.5, 1.5], [1.0, 2.0]]),
        jump_times=np.array([0.5]),
        jump_values=np.array([[1.0, 0.0]]),
    )
    p = tmp_path / "path.csv"
    write_path_csv(p, z)
    back = read_path_csv(p)
    np.testing.assert_array_equal(back.times, z.times)
    np.testing.assert_array_equal(back.values, z.values)
    np.testing.assert_array_equal(back.jump_times, z.jump_times)
    np.testing.assert_array_equal(back.jump_values, z.jump_values)
    # serialization is deterministic text
    assert path_csv_text(z) == path_csv_text(back)


def test_solution_csv_round_trip(tmp_path):
    dom = HalfSpace([1.0], 0.0)
    y = sample_brownian(1.0, 64, 1, seed=11)
    sol = solve_skorokhod(dom, y)
    p = tmp_path / "solution.csv"
    write_solution_csv(p, sol.x, sol.k, sol.k_variation)
    table = np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)
    assert table[:, 0].tobytes() == sol.x.times.tobytes()
    assert table[:, 1:2].tobytes() == sol.x.values.tobytes()
    assert table[:, 2:3].tobytes() == sol.k.values.tobytes()
    assert table[:, 3].tobytes() == sol.k_variation.tobytes()
    text = solution_csv_text(sol.x, sol.k, sol.k_variation)
    assert text.startswith("t,x1,k1,kvar")


def test_rate_csv_round_trip(tmp_path):
    rows = [
        RateRow(mesh=0.25, err_unif_med=0.1, err_unif_p90=0.2,
                err_grid_med=0.05, k_err_med=0.01, kvar_end_med=1.0,
                n_ok=4, n_failed=0, slope_partial=float("nan")),
        RateRow(mesh=0.125, err_unif_med=0.07, err_unif_p90=0.15,
                err_grid_med=0.03, k_err_med=0.008, kvar_end_med=1.0,
                n_ok=4, n_failed=0, slope_partial=0.51),
    ]
    mappings = json_ready(rows)
    p = tmp_path / "rate.csv"
    write_rate_csv(p, mappings)
    back = np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)
    want = np.array([[r[key] for key in csvio.RATE_HEADER] for r in mappings],
                    dtype=float)
    assert back.tobytes() == want.tobytes()
    assert back[0, 0] == 0.25
    assert np.isnan(back[0, -1])
    assert back[1, -1] == 0.51
    assert rate_csv_text(mappings).splitlines()[0] == \
        "mesh,err_unif_med,err_unif_p90,err_grid_med,k_err_med,slope_partial"


def test_csv_malformed_inputs(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("t,z1,is_jump\n0.0,0.0,0\n0.5,oops,0\n")
    with pytest.raises(CsvFormatError):
        read_path_csv(p)
    p.write_text("wrong,header\n0,0\n")
    with pytest.raises(CsvFormatError):
        read_path_csv(p)
    p.write_text("t,z1,is_jump\n0.0,0.0,1\n")
    with pytest.raises(CsvFormatError):
        read_path_csv(p)


# ---------------------------------------------------------------------------
# configuration


def test_default_config_is_valid():
    cfg = default_config()
    assert cfg.validate() == []
    cfg.ensure_valid()
    assert cfg.scheme["kind"] == "wz-hat"


def test_config_hash_is_stable_under_key_order():
    a = config_from_mapping({"driver": {"steps": 128, "horizon": 2.0}})
    b = config_from_mapping({"driver": {"horizon": 2.0, "steps": 128}})
    assert a.config_hash() == b.config_hash()
    c = config_from_mapping({"driver": {"steps": 256, "horizon": 2.0}})
    assert a.config_hash() != c.config_hash()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError) as e:
        config_from_mapping({"driver": {"stepz": 128}})
    assert any("stepz" in p for p in e.value.problems)
    with pytest.raises(ConfigError):
        config_from_mapping({"solver": {}})


def test_config_collects_all_problems():
    cfg = config_from_mapping({
        "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "coefficient": {"kind": "constant-matrix", "matrix": [[1.0]]},
        "experiment": {"x0": [5.0, 0.0]},
    })
    problems = cfg.validate()
    # dimension clash between coefficient and domain, and x0 outside
    assert len(problems) >= 2
    with pytest.raises(ConfigError):
        cfg.ensure_valid()


def test_config_study_plan_mapping():
    cfg = config_from_mapping({
        "scheme": {"kind": "wz-bar", "substeps_bar": 16},
        "experiment": {"meshes": [0.5, 0.25], "n_paths": 3,
                       "reference_refine": 64},
    })
    plan = cfg.study_plan()
    assert plan.scheme == "wz-bar"
    assert plan.meshes == (0.5, 0.25)
    assert plan.n_paths == 3
    assert plan.validate() == []


def test_load_config_yaml(tmp_path):
    p = tmp_path / "exp.yaml"
    p.write_text("driver:\n  steps: 128\nscheme:\n  kind: projection\n")
    cfg = load_config(p)
    assert cfg.driver["steps"] == 128
    assert cfg.scheme["kind"] == "projection"
    bad = tmp_path / "bad.yaml"
    bad.write_text("driver: [1, 2\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")


def test_config_seed_override_changes_hash():
    cfg = default_config()
    other = ExperimentConfig(
        domain=cfg.domain, coefficient=cfg.coefficient, driver=cfg.driver,
        scheme=cfg.scheme,
        experiment={**cfg.experiment, "seed": cfg.experiment["seed"] + 1},
    )
    assert cfg.config_hash() != other.config_hash()
