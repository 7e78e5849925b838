#!/usr/bin/env python3
"""Benchmark of the reflectsde command line, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload disk-rbm --seed 1 --seconds 35 --trace 0

Each workload (see ``workloads.py``) is one subcommand run in process through
``reflectsde.cli.main(argv)`` on a YAML file this script writes from the
seed: a closed loop with one client, one command at a time.

``--trace 0`` repeats the command until ``--seconds`` have passed, with
tracing off, and reports the end-to-end metrics as medians over the repeats.
``--trace 1`` alternates traced and untraced passes at ``--jobs 1`` for the
same time and reports the per-layer metrics (``layers.py``).

Every run first checks correctness: the workload at the fixed gate seed must
reproduce ``recorded.json`` within its stated tolerance, every repeat must
write byte-identical artifacts, and the seeded outputs must pass the
workload's invariants.  The last stdout line is the result object; the line
before it holds machine info, the seed and each metric's quartiles.  The exit
status is 0 only when every check passed.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "reflectsde-bench"
RECORDED = BENCH / "recorded.json"
GATE_SEED = 2024
MIN_REPEATS = 3
MIN_SETUPS = 7
RTOL, ATOL = 1e-6, 1e-12

sys.path.insert(0, str(BENCH))
from workloads import NAMES, SIZES, workload  # noqa: E402

# one fresh interpreter: import the package, load, validate and build the
# workload's configuration
SETUP_CODE = """
import sys, time
start = time.perf_counter()
from reflectsde.config import load_config
cfg = load_config(sys.argv[1]).ensure_valid()
cfg.build_domain()
cfg.build_coefficient()
if sys.argv[2] == "converge":
    cfg.study_plan().validate()
else:
    cfg.build_scheme_spec()
print(time.perf_counter() - start)
"""


def import_package():
    """Import reflectsde from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "reflectsde" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'reflectsde'}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import reflectsde
    if SRC not in Path(reflectsde.__file__).resolve().parents:
        sys.exit(f"bench: reflectsde imported from {reflectsde.__file__}")


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def machine_info() -> dict:
    import numpy
    import yaml
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "pyyaml": yaml.__version__}


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Run:
    """One invocation of the CLI on one workload and seed."""

    def __init__(self, wl, config_path: Path, out_dir: Path):
        self.wl = wl
        self.config = config_path
        self.out = out_dir

    def argv(self, jobs: int) -> list:
        return [self.wl.command, "--config", str(self.config),
                "--out", str(self.out), "--jobs", str(jobs)]

    def once(self, jobs: int, tracer=None):
        """Run the command; return (exit code, wall s, cpu s)."""
        from reflectsde.cli import main
        argv = self.argv(jobs)
        sink = io.StringIO()  # the CLI prints a one-line summary
        gc.collect()  # start every pass from the same heap
        with contextlib.redirect_stdout(sink):
            cpu0, wall0 = cpu_seconds(), time.perf_counter()
            code = tracer.run(main, argv) if tracer else main(argv)
            wall = time.perf_counter() - wall0
            cpu = cpu_seconds() - cpu0
        return code, wall, cpu

    def digests(self) -> dict:
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(self.out.iterdir())}

    def result(self) -> dict:
        name = "rate.json" if self.wl.command == "converge" else "summary.json"
        return json.loads((self.out / name).read_text())

    def work(self) -> int:
        """Paths per converge run, or driver samples per skorokhod run."""
        if self.wl.command == "converge":
            return self.result()["table"]["n_paths"]
        with open(self.out / "path.csv", "rb") as fh:
            return sum(1 for _ in fh) - 1


# ------------------------------------------------------------- correctness

def gate_fields(command: str, result: dict) -> dict:
    """The output numbers the correctness gate compares, by field name."""
    if command == "converge":
        table = result["table"]
        fields = {"table.slope": table["slope"]}
        for i, row in enumerate(table["rows"]):
            for key in ("err_unif_med", "err_unif_p90", "err_grid_med",
                        "k_err_med", "kvar_end_med", "n_ok", "n_failed"):
                fields[f"table.rows[{i}].{key}"] = row[key]
        return fields
    fields = {f"endpoint[{i}]": v for i, v in enumerate(result["endpoint"])}
    fields["k_variation_end"] = result["k_variation_end"]
    fields["variation.all_ok"] = result["variation"]["all_ok"]
    return fields


def compare(recorded: dict, got: dict) -> list:
    """Fields of ``got`` that differ from ``recorded`` beyond RTOL/ATOL."""
    bad = []
    for field, want in recorded.items():
        have = got.get(field)
        if isinstance(want, float) and isinstance(have, (int, float)):
            same = math.isclose(have, want, rel_tol=RTOL, abs_tol=ATOL)
        else:
            same = have == want
        if not same:
            bad.append(f"{field}: got {have!r}, recorded {want!r}")
    return bad


def invariants(wl, result: dict) -> list:
    """Checks that hold for every seed of the workload."""
    bad = []
    if wl.command == "converge":
        table = result["table"]
        for i, row in enumerate(table["rows"]):
            if row["n_failed"] or row["n_ok"] != table["n_paths"]:
                bad.append(f"table.rows[{i}]: {row['n_failed']} failed cells")
            for key in ("err_unif_med", "err_unif_p90", "k_err_med"):
                if not (isinstance(row[key], float) and math.isfinite(row[key])
                        and row[key] >= 0.0):
                    bad.append(f"table.rows[{i}].{key} = {row[key]!r}")
        return bad
    from reflectsde.geometry import OUTSIDE, Domain
    domain = Domain.from_spec(wl.sections["domain"])
    if domain.contains(result["endpoint"]) == OUTSIDE:
        bad.append(f"endpoint {result['endpoint']} outside the domain")
    for key in ("all_ok", "bounded_by_driver"):
        if result["variation"][key] is not True:
            bad.append(f"variation.{key} = {result['variation'][key]!r}")
    if not math.isfinite(result["k_variation_end"]):
        bad.append(f"k_variation_end = {result['k_variation_end']!r}")
    return bad


def load_recorded(path: Path, size: str, name: str) -> dict:
    data = json.loads(path.read_text())
    if data["gate_seed"] != GATE_SEED:
        sys.exit(f"bench: {path} was recorded at another gate seed")
    return data["values"][size][name]


def prepare(wl, seed: int, tag: str) -> Run:
    directory = WORK / wl.name / tag
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    config_path = directory / "config.yaml"
    config_path.write_text(wl.config_text(seed))
    return Run(wl, config_path, directory / "out")


def gate_run(wl) -> tuple:
    """Run the workload at the gate seed; return (Run, exit code)."""
    run = prepare(wl, GATE_SEED, "gate")
    code, _, _ = run.once(wl.jobs)
    return run, code


def record(path: Path):
    """Write the gate-seed outputs of every workload and size to ``path``."""
    values = {}
    for size in SIZES:
        values[size] = {}
        for name in NAMES:
            wl = workload(name, size)
            run, code = gate_run(wl)
            if code != 0:
                sys.exit(f"bench: {name} ({size}) exited {code}")
            values[size][name] = gate_fields(wl.command, run.result())
    path.write_text(json.dumps({"gate_seed": GATE_SEED, "rtol": RTOL,
                                "atol": ATOL, "values": values},
                               indent=1, sort_keys=True) + "\n")


# ------------------------------------------------------------- measurement

def setup_seconds(run: Run) -> float:
    """Set-up time in one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(run.config), run.wl.command],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process plus, with a process pool, its largest worker.

    The pool workers are forked from this process, so they outgrow the
    set-up interpreters, which are children too.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if jobs > 1:
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024.0


class Checker:
    """Byte identity of every repeat against the first one, and invariants."""

    def __init__(self, wl):
        self.wl = wl
        self.reference = None
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def check(self, run: Run, code: int, label: str):
        result = run.result() if code == 0 else None
        if self.wl.command == "converge":
            cells = self.wl.sections["experiment"]["n_paths"] * len(
                self.wl.sections["experiment"]["meshes"])
            self.attempted += cells
            if result is None:
                self.failed += cells
            else:
                self.failed += sum(r["n_failed"] for r in
                                   result["table"]["rows"])
        else:
            self.attempted += 1
            self.failed += code != 0
        if code != 0:
            self.problems.append(f"{label}: exit status {code}")
            return
        digests = run.digests()
        if self.reference is None:
            self.reference = (label, digests)
            self.problems += [f"{label}: {p}"
                              for p in invariants(self.wl, result)]
        elif digests != self.reference[1]:
            changed = sorted(k for k in digests
                             if digests[k] != self.reference[1].get(k))
            self.problems.append(f"{label}: {', '.join(changed)} differ "
                                 f"from {self.reference[0]}")


def measure(wl, run: Run, seconds: float, checker: Checker) -> dict:
    """Timed repeats until ``seconds`` pass, each followed by one set-up.

    Interleaving the set-up interpreters with the repeats spreads both over
    the same stretch of machine time.
    """
    walls, cpus, setups = [], [], []
    deadline = time.perf_counter() + seconds
    while (len(walls) < MIN_REPEATS or len(setups) < MIN_SETUPS
           or time.perf_counter() < deadline):
        code, wall, cpu = run.once(wl.jobs)
        checker.check(run, code, f"repeat {len(walls)}")
        if code != 0:
            break
        walls.append(wall)
        cpus.append(cpu)
        setups.append(setup_seconds(run))
    work = run.work() if walls else 0  # identical in every repeat
    return {"wall_s": walls, "cpu_s": cpus,
            "work_per_s": [work / wall for wall in walls],
            "setup_s": setups, "peak_rss_mb": [peak_rss_mb(wl.jobs)]}


def measure_traced(wl, run: Run, seconds: float, checker: Checker):
    from layers import Tracer, micro_metrics
    micro = micro_metrics()
    plain, traced, tracers = [], [], []
    if wl.jobs > 1:  # the --jobs 1 traced pass must match this byte for byte
        code, _, _ = run.once(wl.jobs)
        checker.check(run, code, f"untraced --jobs {wl.jobs}")
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        code, wall, _ = run.once(1)
        checker.check(run, code, f"untraced --jobs 1 #{len(plain)}")
        plain.append(wall)
        tracer = Tracer()
        code, wall, _ = run.once(1, tracer)
        checker.check(run, code, f"traced --jobs 1 #{len(traced)}")
        traced.append(wall)
        tracers.append(tracer)
        if code != 0:
            break
    tracers[-1].write_spans(run.out.parent / "spans.jsonl")
    samples = {}
    for tracer in tracers:
        for key, value in tracer.layer_metrics().items():
            samples.setdefault(key, []).append(value)
    samples.update({key: [value] for key, value in micro.items()})
    samples["trace.overhead_frac"] = [
        statistics.median(traced) / statistics.median(plain) - 1.0]
    shares = {layer: statistics.median(t.layer_shares()[layer]
                                       for t in tracers)
              for layer in tracers[0].layer_shares()}
    return samples, shares


LAYER_MAP = {"disk-rbm": ("schemes", "geometry"), "jump-flow": ("flow",),
             "poly-reflect": ("skorokhod", "csvio")}


def layer_map_verdict(name: str, shares: dict) -> dict:
    """Whether the predicted layers hold most of the self time.

    ``outranked_by`` lists the other layers with a larger share than the
    smallest predicted one.
    """
    expected = LAYER_MAP[name]
    share = sum(shares[layer] for layer in expected)
    floor = min(shares[layer] for layer in expected)
    return {"expected_dominant": list(expected), "expected_share": share,
            "holds": share > 0.5,
            "outranked_by": sorted(layer for layer in shares
                                   if layer not in expected
                                   and shares[layer] > floor)}


# ------------------------------------------------------------------- main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny runs two paths on short drivers")
    parser.add_argument("--recorded", type=Path, default=RECORDED,
                        help="recorded gate values to check against")
    parser.add_argument("--record", action="store_true",
                        help="rewrite --recorded from this commit and exit")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    if args.record:
        record(args.recorded)
        return 0

    wl = workload(args.workload, args.size)
    recorded = load_recorded(args.recorded, args.size, wl.name)
    gate, code = gate_run(wl)
    problems = [f"gate seed exit status {code}"] if code else [
        f"gate seed {GATE_SEED}: {p}"
        for p in compare(recorded, gate_fields(wl.command, gate.result()))]

    run = prepare(wl, args.seed, "run")
    checker = Checker(wl)
    if args.trace:
        samples, shares = measure_traced(wl, run, args.seconds, checker)
    else:
        samples, shares = measure(wl, run, args.seconds, checker), None
    problems += checker.problems

    samples = {key: values for key, values in samples.items() if values}
    metrics = {key: {"value": statistics.median(values),
                     "unit": unit_of(key)}
               for key, values in samples.items()}
    detail = {
        "workload": wl.name, "size": args.size, "seed": args.seed,
        "gate_seed": GATE_SEED, "trace": args.trace,
        "work_unit": wl.work_unit, "machine": machine_info(),
        "tolerance": {"rtol": RTOL, "atol": ATOL},
        "failed_frac": checker.failed / max(checker.attempted, 1),
        "quartiles": {k: quartiles(v) for k, v in samples.items()},
        "samples": {k: len(v) for k, v in samples.items()},
        "problems": problems,
    }
    if shares is not None:
        detail["layer_shares"] = shares
        detail["layer_map"] = layer_map_verdict(wl.name, shares)
    print(json.dumps({"detail": detail}, sort_keys=True))
    for problem in problems:
        print(f"bench: correctness check failed: workload {wl.name}: "
              f"{problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems,
                      "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 1 if problems else 0


def unit_of(key: str) -> str:
    """Unit of a metric, from its name."""
    if key == "work_per_s":
        return "1/s"
    if key.endswith("_mb"):
        return "MB"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_calls"):
        return "count"
    if key.endswith("bytes"):
        return "bytes"
    if key.endswith(("_ratio", "_frac")):
        return "ratio"
    return "us"


if __name__ == "__main__":
    sys.exit(main())
