"""Command line entry point: exit codes, artifacts, determinism."""

import filecmp
import json

import pytest

from reflectsde.cli import main


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


def test_usage_error_exit_code(capsys):
    with_bad = main(["frobnicate"])
    assert with_bad == 2
    capsys.readouterr()
