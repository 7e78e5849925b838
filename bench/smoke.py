#!/usr/bin/env python3
"""Smoke test of the benchmark at the tiny size (two paths, short drivers).

    python3 bench/smoke.py

For every workload it runs ``run.py --size tiny`` with tracing off and on,
and checks that the result line names every metric ``BENCHMARK.json``
declares, with its unit.  It then perturbs one recorded gate value per
subcommand and checks that the run fails and names the workload and field.
Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from run import RECORDED, WORK  # noqa: E402
from workloads import NAMES  # noqa: E402

PERTURBED = {"disk-rbm": "table.rows[0].k_err_med",
             "poly-reflect": "k_variation_end"}


def bench(workload, trace, recorded=RECORDED):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", "--recorded", str(recorded)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.splitlines()[-1])
    return proc.returncode, result, proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for name in NAMES:
        for trace in (0, 1):
            code, result, err = bench(name, trace)
            label = f"{name} --trace {trace}"
            if code != 0 or result["correct"] is not True:
                failures.append(f"{label}: exit {code}, stderr {err.strip()}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                failures.append(f"{label}: metrics {sorted(got.items())} "
                                f"!= declared {sorted(declared[trace].items())}")

    data = json.loads(RECORDED.read_text())
    WORK.mkdir(parents=True, exist_ok=True)
    for name, field in PERTURBED.items():
        perturbed = json.loads(json.dumps(data))
        perturbed["values"]["tiny"][name][field] *= 1.0 + 1e-4
        path = WORK / f"smoke-recorded-{name}.json"
        path.write_text(json.dumps(perturbed))
        code, result, err = bench(name, 0, path)
        if code == 0 or result["correct"] is not False:
            failures.append(f"{name}: perturbed {field} was accepted")
        elif name not in err or field not in err:
            failures.append(f"{name}: gate message does not name the "
                            f"workload and field: {err.strip()}")

    for failure in failures:
        print("FAIL", failure)
    print("smoke:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
