"""Command line entry point: exit codes, artifacts, determinism."""

import filecmp
import json
import tracemalloc

import pytest

from reflectsde import analysis, csvio
from reflectsde.analysis import convergence_study
from reflectsde.cli import main
from reflectsde.config import default_config, load_config
from reflectsde.driver import GridPath
from reflectsde.schemes import run_scheme
from reflectsde.skorokhod import solve_skorokhod


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


SIM_YAML = """
domain:
  kind: ball
  center: [0.0, 0.0]
  radius: 1.0
coefficient:
  kind: constant-matrix
  matrix: [[0.5, 0.0], [0.0, 0.5]]
driver:
  steps: 64
  dimension: 2
  jump_rate: 2.0
scheme:
  kind: wz-hat
  cells: 16
experiment:
  x0: [0.5, 0.0]
  seed: 99
"""

CONV_YAML = """
domain:
  kind: half-space
  normal: [1.0]
  offset: 0.0
coefficient:
  kind: constant-matrix
  matrix: [[1.0]]
driver:
  steps: 64
scheme:
  kind: projection
experiment:
  x0: [0.5]
  meshes: [0.25, 0.125]
  n_paths: 4
  reference_refine: 64
  reference_substeps: 16
"""


def test_simulate_writes_artifacts_and_status(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.yaml", SIM_YAML)
    out = tmp_path / "run1"
    code = main(["simulate", "--config", cfg, "--out", str(out)])
    assert code == 0
    status = json.loads(capsys.readouterr().out)
    assert status["command"] == "simulate"
    assert sorted(status["files"]) == ["path.csv", "solution.csv",
                                       "summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config_sha256"] == status["config_sha256"]
    assert summary["variation"]["all_ok"] is True


def test_simulate_rerun_is_byte_identical(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.yaml", SIM_YAML)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    capsys.readouterr()
    for name in ("path.csv", "solution.csv", "summary.json"):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def test_seed_flag_changes_artifacts(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.yaml", SIM_YAML)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2),
                 "--seed", "100"]) == 0
    capsys.readouterr()
    assert not filecmp.cmp(out1 / "path.csv", out2 / "path.csv",
                           shallow=False)


def test_skorokhod_command(tmp_path, capsys):
    out = tmp_path / "sk"
    code = main(["skorokhod", "--out", str(out)])
    assert code == 0
    status = json.loads(capsys.readouterr().out)
    assert status["command"] == "skorokhod"
    assert (out / "solution.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["variation"]["bounded_by_driver"] is True


def test_converge_parallel_is_byte_identical(tmp_path, capsys):
    cfg = _write(tmp_path, "conv.yaml", CONV_YAML)
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    assert main(["converge", "--config", cfg, "--out", str(out1),
                 "--jobs", "1"]) == 0
    assert main(["converge", "--config", cfg, "--out", str(out2),
                 "--jobs", "4"]) == 0
    capsys.readouterr()
    for name in ("rate.csv", "rate.json"):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name
    payload = json.loads((out1 / "rate.json").read_text())
    rows = payload["table"]["rows"]
    assert [row["mesh"] for row in rows] == [0.25, 0.125]


JUMP_CONV_YAML = """
domain:
  kind: exterior-of-ball
  center: [0.0, 0.0]
  radius: 0.5
coefficient:
  kind: catalog-smooth
  id: gauss-rotation
  amplitude: 0.4
  sigma: 1.5
driver:
  steps: 64
  dimension: 2
  jump_rate: 3.0
  jump_law: {kind: uniform-ball, radius: 0.3}
  diffusion_scale: 0.2
scheme:
  kind: wz-hat
experiment:
  x0: [0.55, 0.0]
  meshes: [0.25, 0.125]
  n_paths: 12
  reference_refine: 64
  reference_substeps: 64
"""


@pytest.mark.parametrize("scheme", ["wz-hat", "projection", "jump-adapted",
                                    "wz-bar", "marcus-euler"])
def test_converge_blocks_are_byte_identical(tmp_path, capsys, monkeypatch,
                                            scheme):
    """A state-dependent coefficient builds its references, and runs these
    schemes, in blocks of paths: 12 paths in one block (--jobs 1), in two
    blocks of 6 (--jobs 2), in three of 4 (--jobs 3), and in blocks of
    5 + 5 + 2 and of 1 run serially all write the same rate.csv and
    rate.json."""
    cfg = _write(tmp_path, "conv.yaml",
                 JUMP_CONV_YAML.replace("kind: wz-hat", f"kind: {scheme}"))
    outs = []
    for jobs in (1, 2, 3):
        outs.append(tmp_path / f"j{jobs}")
        assert main(["converge", "--config", cfg, "--out", str(outs[-1]),
                     "--jobs", str(jobs)]) == 0
    for size in (5, 1):
        monkeypatch.setattr(analysis, "_BLOCK_PATHS", size)
        outs.append(tmp_path / f"blocks-of-{size}")
        assert main(["converge", "--config", cfg, "--out", str(outs[-1]),
                     "--jobs", "1"]) == 0
    capsys.readouterr()
    for out in outs[1:]:
        for name in ("rate.csv", "rate.json"):
            assert filecmp.cmp(outs[0] / name, out / name, shallow=False), (
                out.name, name)
    table = json.loads((outs[0] / "rate.json").read_text())["table"]
    assert table["scheme"] == scheme
    assert [row["n_ok"] for row in table["rows"]] == [12, 12]


def test_streamed_csv_artifacts_equal_the_text_writers(tmp_path, capsys):
    """path.csv and solution.csv are streamed to disk and rate.csv is
    written as text; all three are byte for byte the ``*_csv_text`` of the
    objects the command computes."""
    sk, sim, conv = tmp_path / "sk", tmp_path / "sim", tmp_path / "conv"
    sim_cfg = _write(tmp_path, "sim.yaml", SIM_YAML)
    conv_cfg = _write(tmp_path, "conv.yaml", CONV_YAML)
    assert main(["skorokhod", "--out", str(sk)]) == 0
    assert main(["simulate", "--config", sim_cfg, "--out", str(sim)]) == 0
    assert main(["converge", "--config", conv_cfg, "--out", str(conv)]) == 0
    capsys.readouterr()

    cfg = default_config()
    z = cfg.sample_driver(cfg.seed())
    y = GridPath(z.times, z.values + cfg.x0(), interp=z.interp,
                 jump_times=z.jump_times, jump_values=z.jump_values)
    sol = solve_skorokhod(cfg.build_domain(), y)
    assert (sk / "path.csv").read_bytes() == csvio.path_csv_text(y).encode()
    assert (sk / "solution.csv").read_bytes() == csvio.solution_csv_text(
        sol.x, sol.k, sol.k_variation).encode()

    cfg = load_config(sim_cfg)
    z = cfg.sample_driver(cfg.seed())
    out = run_scheme(cfg.build_domain(), cfg.build_coefficient(), cfg.x0(),
                     z, cfg.build_scheme_spec())
    assert (sim / "path.csv").read_bytes() == csvio.path_csv_text(z).encode()
    assert (sim / "solution.csv").read_bytes() == csvio.solution_csv_text(
        out.x, out.k, out.k_variation).encode()

    table = convergence_study(load_config(conv_cfg).study_plan())
    assert (conv / "rate.csv").read_bytes() == csvio.rate_csv_text(
        table.csv_rows()).encode()


LONG_SKOROKHOD_YAML = """
domain:
  kind: convex-polyhedron
  normals: [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [-1.0, 0.3]]
  offsets: [-1.0, -1.0, -1.0, -1.2]
coefficient:
  kind: constant-matrix
  matrix: [[1.0, 0.0], [0.0, 1.0]]
driver:
  steps: 25000
  dimension: 2
  jump_rate: 50.0
  jump_law: {kind: uniform-ball, radius: 0.8}
  diffusion_scale: 1.5
experiment:
  x0: [0.0, 0.0]
  seed: 11
"""


def test_skorokhod_streams_its_csv_artifacts(tmp_path, capsys):
    """A 25k-step skorokhod run allocates less than 5 MB at its peak, while
    its solution.csv alone is over 2.5 MB: the CSV text is never held
    whole (building it as one string peaked at 7.9 MB)."""
    cfg = _write(tmp_path, "long.yaml", LONG_SKOROKHOD_YAML)
    # a short run first, so one-time allocations are not counted
    assert main(["skorokhod", "--out", str(tmp_path / "warm")]) == 0
    out = tmp_path / "long"
    tracemalloc.start()
    try:
        code = main(["skorokhod", "--config", cfg, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert (out / "solution.csv").stat().st_size > 2.5e6
    assert peak < 5e6


def test_remark4_command(tmp_path, capsys):
    out = tmp_path / "r4"
    code = main(["remark4", "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "remark4.json").read_text())
    assert rep["report"]["gap"] == pytest.approx(0.0800757509533985,
                                                 abs=1e-12)
    capsys.readouterr()


def test_print_config_short_circuits(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.yaml", SIM_YAML)
    code = main(["simulate", "--config", cfg, "--print-config"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["driver"]["jump_rate"] == 2.0
    assert len(payload["sha256"]) == 64
    # nothing was written anywhere
    assert not (tmp_path / "out").exists()


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.yaml",
                 "domain:\n  kind: torus\n")
    code = main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "configuration"
    assert err["problems"]


@pytest.mark.parametrize("text, field", [
    ("driver:\n  horizon: abc\n", "driver.horizon"),
    ("experiment:\n  x0: [.nan]\n", "experiment.x0"),
], ids=["horizon-abc", "x0-nan"])
def test_malformed_number_exits_2(tmp_path, capsys, text, field):
    cfg = _write(tmp_path, "bad.yaml", text)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "configuration"
    assert any(field in problem for problem in err["problems"])


@pytest.mark.parametrize("coefficient", [
    "{kind: catalog-smooth, id: gauss-rotation, amplitude: 0.4, sigma: 0}",
    "{kind: catalog-smooth, id: gauss-rotation, amplitude: .inf, sigma: 1.5}",
    "{kind: linear-diagonal, scale: 1.0, dimension: 2, region_radius: -1}",
    "{kind: catalog-smooth, id: sine-diagonal, amplitude: 1.0, "
    "dimension: 2.5}",
    f"{{kind: constant-matrix, matrix: [[{10 ** 400}, 0], [0, 1]]}}",
], ids=["sigma-0", "amplitude-inf", "radius-negative", "dimension-2.5",
        "integer-overflow"])
def test_bad_coefficient_parameters_exit_2(tmp_path, capsys, coefficient):
    cfg = _write(tmp_path, "bad.yaml", SIM_YAML.replace(
        "coefficient:\n  kind: constant-matrix\n"
        "  matrix: [[0.5, 0.0], [0.0, 0.5]]", f"coefficient: {coefficient}"))
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "configuration"
    assert any(p.startswith("coefficient: ") for p in err["problems"])
    assert not (tmp_path / "o").exists()


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.yaml", "driver:\n  stepz: 10\n")
    assert main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_runtime_failure_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path, "jump.yaml", """
domain:
  kind: exterior-of-ball
  center: [0.0, 0.0]
  radius: 1.0
coefficient:
  kind: constant-matrix
  matrix: [[4.0, 0.0], [0.0, 4.0]]
driver:
  steps: 32
  dimension: 2
  jump_rate: 6.0
  jump_law:
    kind: fixed-vector
    vector: [2.0, 0.0]
scheme:
  kind: projection
  cells: 16
experiment:
  x0: [2.0, 0.0]
  seed: 3
""")
    code = main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "o")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert "error" in err


@pytest.mark.parametrize("scheme", ["kind: projection",
                                    "kind: wz-hat\n  observations: 64"],
                         ids=["projection", "wz-hat"])
def test_jump_guard_of_a_huge_finite_increment(tmp_path, capsys, scheme):
    """Cells whose sums of squares overflow take the scaled norm: cell 0
    (|dz| * bound 0.26) passes, and cell 1 (0.64 against the radius 0.5)
    is the first to fail, with no overflow warning on the way, also where
    wz-hat samples cell 0's interior."""
    cfg = _write(tmp_path, "huge.yaml", """
domain:
  kind: exterior-of-ball
  center: [0.0, 0.0]
  radius: 0.5
coefficient:
  kind: constant-matrix
  matrix: [[1.0e-160, 0.0], [0.0, 1.0e-160]]
driver:
  steps: 16
  dimension: 2
  diffusion_scale: 1.0e+160
scheme:
  %s
  mesh: 0.125
experiment:
  x0: [1.0, 0.0]
  seed: 3
""" % scheme)
    code = main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "o")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err.startswith("JumpTooLarge: increment norm 6.4011e+159 times "
                          "coefficient bound 1e-160")


def test_usage_error_exit_code(capsys):
    with_bad = main(["frobnicate"])
    assert with_bad == 2
    capsys.readouterr()
