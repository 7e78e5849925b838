"""The benchmark's correctness gate, run in process on every workload.

``bench/run.py`` first runs each workload at its full size and at
``GATE_SEED``, and refuses the run unless the outputs reproduce
``bench/recorded.json`` and pass the workload's invariants.  This test runs
the same check into a temporary directory, reading the bench files as they
are and writing none of them.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_run():
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = load_run()


@pytest.mark.parametrize("name", run.NAMES)
def test_workload_reproduces_its_recorded_gate_values(tmp_path, name):
    wl = run.workload(name, "full")
    config = tmp_path / "config.yaml"
    config.write_text(wl.config_text(run.GATE_SEED))
    gate = run.Run(wl, config, tmp_path / "out")
    code, _, _ = gate.once(wl.jobs)
    assert code == 0
    result = gate.result()
    recorded = run.load_recorded(run.RECORDED, "full", name)
    assert run.compare(recorded, run.gate_fields(wl.command, result)) == []
    assert run.invariants(wl, result) == []
