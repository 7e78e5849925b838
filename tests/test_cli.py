"""Command line entry point: exit codes, artifacts, determinism."""

import filecmp
import hashlib
import json
import tracemalloc

import pytest

from reflectsde import analysis, csvio
from reflectsde.analysis import convergence_study, json_ready
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
        json_ready(table.rows)).encode()


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


GOLDEN_POLYGON_YAML = """
domain:
  kind: convex-polyhedron
  normals: [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]
  offsets: [-1.0, -1.0, -1.0]
coefficient:
  kind: constant-matrix
  matrix: [[1.0, 0.0], [0.0, 1.0]]
driver:
  steps: 2500
  dimension: 2
  jump_rate: 20.0
  jump_law: {kind: uniform-ball, radius: 0.8}
  diffusion_scale: 1.0
experiment:
  x0: [0.0, 0.0]
  seed: 31
"""

GOLDEN_PURE_JUMP_YAML = """
domain:
  kind: box
  lower: [-1.0, -1.0, -1.0]
  upper: [1.0, 1.0, 1.0]
coefficient:
  kind: constant-matrix
  matrix: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
driver:
  steps: 1500
  dimension: 3
  jump_rate: 15.0
  jump_law: {kind: uniform-ball, radius: 0.9}
  diffusion_scale: 0.0
scheme:
  kind: projection
  cells: 1500
experiment:
  x0: [0.0, 0.0, 0.0]
  seed: 5
"""

GOLDEN_BALL_YAML = """
domain:
  kind: ball
  center: [0.0, 0.0]
  radius: 0.7
coefficient:
  kind: constant-matrix
  matrix: [[1.0, 0.0], [0.0, 1.0]]
driver:
  steps: 1200
  dimension: 2
  jump_rate: 4.0
scheme:
  kind: projection
  cells: 1200
experiment:
  x0: [0.5, 0.0]
  seed: 99
"""

# 13000 steps write more than three CSV blocks (3 * _BLOCK_ROWS + 500 rows
# and more), and the step 1/13000 puts the first times below 1e-4, which
# the writers format through Python's '%.17g'
GOLDEN_LONG_POLYGON_YAML = LONG_SKOROKHOD_YAML.replace(
    "steps: 25000", "steps: 13000").replace("seed: 11", "seed: 41")

# SHA-256 of each artifact.  No change of the CSV writers has moved one; the
# exact polyhedral projection moved the polygon runs' solution.csv and
# summary.json (re-recorded with it), and the projection step without BLAS
# dots moved simulate-ball's solution.csv and summary.json and polygon's
# solution.csv, to the bytes the BLAS-dot step wrote under OpenBLAS's
# non-FMA kernels
GOLDEN = {
    ("skorokhod", "polygon"): {
        "path.csv": "0b6fb62a8e0529c7a844c9e31acc62b724a038d676caf1372390a071fd48c13c",
        "solution.csv": "d6e6d1386a5310a4d2db2640b99c0364507a5831b5887fc169f18ded1a52685a",
        "summary.json": "be475b130b7d94ac31cf59eac73c0f7f67b31950f6595be317c9deb1768adf24",
    },
    ("skorokhod", "pure-jump"): {
        "path.csv": "f9d4066218eb993be5502ee6b784ede1bce0388571c4fcc7728867abbd6a3942",
        "solution.csv": "c74484786a4cd0ee817232b4e9a7a5bbe6c2a8ead99bdc207213dbb3bcd7e2ad",
        "summary.json": "5eea45349509144e7eddd22df9fdbf81e28087da1ba64f2b79503091347f4844",
    },
    ("simulate", "pure-jump"): {
        "path.csv": "ffac371bee709cd4b84b1a6931315a6265e9d048ff1383b83410292e9ecece12",
        "solution.csv": "090f81d81d4d6b6d2d3bc22805ada4370ae48e7f7397252056c6beeb061a273c",
        "summary.json": "87ddfb64c7a33f0823f92092c2e50f9efe77701e6ff2f5d187718d6debac3f50",
    },
    ("skorokhod", "long-polygon"): {
        "path.csv": "b5f7a056e030d6fbcdb5a9042a4b68dc590c1e3d1193ef00939e67f3734429e9",
        "solution.csv": "0611fef67e75a8994863a4bc25483e521d285ed112991d2afb7f71e1f4d0d093",
        "summary.json": "eb6e2847fd97e609e97342dbf95f941acbf8a1e60fb15b7537df54d36fc75d9e",
    },
    ("simulate", "ball"): {
        "path.csv": "b2b81f22b2c91d4d5f23368b291981beb2f4f1f78df5a95564c6b6ab3cf88c2f",
        "solution.csv": "c72b0f89e359ab223e0ba378388ae831ec44c2e538a68a5cfb4b1943443e1c63",
        "summary.json": "fc08ff9958a1a9503b95be14c9d497624d8a9e8f9d23b7986b3324e7e3ee9e65",
    },
}
GOLDEN_YAML = {"polygon": GOLDEN_POLYGON_YAML,
               "pure-jump": GOLDEN_PURE_JUMP_YAML, "ball": GOLDEN_BALL_YAML,
               "long-polygon": GOLDEN_LONG_POLYGON_YAML}


@pytest.mark.parametrize("command,name", sorted(GOLDEN))
def test_artifacts_keep_their_recorded_sha256(tmp_path, capsys, command,
                                              name):
    """Every artifact of a small fixed run keeps the SHA-256 it had when
    the CSV writers formatted each value of each row: the run-length
    formatting of k (and of x and z between a pure-jump driver's jumps)
    changes no byte."""
    cfg = _write(tmp_path, f"{name}.yaml", GOLDEN_YAML[name])
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())} == GOLDEN[command, name]


GOLDEN_GATE_SCRIPT = """
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from reflectsde.cli import main

hashes = []
with tempfile.TemporaryDirectory() as tmp:
    for command, name, text in RUNS:
        cfg, out = Path(tmp, name + ".yaml"), Path(tmp, command + name)
        cfg.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        hashes.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in sorted(out.iterdir())})
DIGEST = json.dumps(hashes)
"""


def test_projected_goldens_do_not_depend_on_cpu_or_blas(
        same_digest_under_gate_settings):
    """The goldens whose steps project onto a ball or a polygon write their
    recorded bytes also under OpenBLAS's non-FMA kernels and with numpy's
    AVX-512 loops off: the projection and its |dk| use no BLAS."""
    runs = [("simulate", "ball"), ("skorokhod", "polygon")]
    script = (f"RUNS = {[(c, n, GOLDEN_YAML[n]) for c, n in runs]!r}\n"
              + GOLDEN_GATE_SCRIPT)
    digest = same_digest_under_gate_settings(script)
    assert json.loads(digest) == [GOLDEN[run] for run in runs]


def test_remark4_command(tmp_path, capsys):
    out = tmp_path / "r4"
    code = main(["remark4", "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "remark4.json").read_text())
    assert rep["report"]["gap"] == pytest.approx(0.0800757509533985,
                                                 abs=1e-12)
    capsys.readouterr()


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("command, text", [
    ("simulate", SIM_YAML), ("skorokhod", None), ("converge", CONV_YAML),
    ("remark4", None)])
def test_json_artifacts_are_strict_json(tmp_path, capsys, command, text):
    """No artifact holds a bare NaN or Infinity, which JSON does not have."""
    argv = [command, "--out", str(tmp_path / "o")]
    if text is not None:
        argv += ["--config", _write(tmp_path, "cfg.yaml", text)]
    assert main(argv) == 0
    json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    names = sorted(p.name for p in (tmp_path / "o").glob("*.json"))
    assert names
    for name in names:
        json.loads((tmp_path / "o" / name).read_text(),
                   parse_constant=_refuse_constant)


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


def test_empty_polyhedron_exits_2(tmp_path, capsys):
    """{x >= 0.5} and {-x >= 0.5} share no point: a domain problem, exit 2
    before any output is written, not a traceback."""
    cfg = _write(tmp_path, "empty.yaml", CONV_YAML.replace(
        "  kind: half-space\n  normal: [1.0]\n  offset: 0.0",
        "  kind: convex-polyhedron\n  normals: [[1.0], [-1.0]]\n"
        "  offsets: [0.5, 0.5]"))
    out = tmp_path / "o"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "configuration"
    assert any(p.startswith("domain: ") and "no common point" in p
               for p in err["problems"])
    assert not out.exists()


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.yaml", "driver:\n  stepz: 10\n")
    assert main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command, text, field", [
    ("converge", "experiment:\n  n_paths: %d\n" % 10 ** 30,
     "experiment.n_paths"),
    ("simulate", "scheme:\n  observations: %d\n" % 10 ** 30,
     "scheme.observations"),
], ids=["n_paths", "observations"])
def test_integer_size_beyond_an_index_exits_2(tmp_path, capsys, command,
                                              text, field):
    """A size no array index can hold is a configuration problem, found
    before anything is allocated."""
    cfg = _write(tmp_path, "huge.yaml", text)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "configuration"
    assert any(p.startswith(field + " must be <=") for p in err["problems"])
    assert not out.exists()


def test_allocation_failure_exits_3(tmp_path, capsys):
    """10**17 driver steps fit an index, but their 711 PiB of samples
    cannot be allocated: numpy refuses at once, and the run exits 3 with
    the error as JSON."""
    cfg = _write(tmp_path, "huge.yaml", "driver:\n  steps: %d\n" % 10 ** 17)
    assert main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert "Unable to allocate" in err["error"]


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


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    """--jobs must be a positive integer: anything else is a usage error,
    exit 2 before any output is written."""
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out), "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exit_code(capsys):
    with_bad = main(["frobnicate"])
    assert with_bad == 2
    capsys.readouterr()
