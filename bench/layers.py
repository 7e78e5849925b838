"""Spans around the public entry points of each layer, from outside the package.

``Tracer.install`` replaces each traced function at the binding its caller
uses (``cli.solve_skorokhod``, ``analysis.build_reference``,
``Domain.project`` on the class, ...) with a wrapper that records a span;
``Tracer.remove`` puts the originals back.  Nothing under ``src/`` is
edited.  A span has a name, start, end, parent span and the Monte Carlo path
index it belongs to.  Self time (duration minus the time covered by child
spans) is accumulated on the fly from a call stack, so it is exact for every
call.  Spans are kept in memory and written out once at the end, except the
per-point calls (``project``, ``distance_outside``, ``evaluate``), which run
tens of thousands of times per path and are only counted and timed in
aggregate.

``micro_metrics`` times single calls on fixed inputs, independent of the
workload seed: one projection per domain kind (a point inside and a point
outside), one jump transport per coefficient, and one scheme cell per
scheme kind.
"""

import importlib
import json
import statistics
import time
from collections import defaultdict

import numpy as np

from reflectsde.driver import Partition, sample_jump_driver
from reflectsde.flow import DEFAULT_FLOW, coefficient_from_spec
from reflectsde.geometry import INTERIOR, OUTSIDE, Domain
from reflectsde.schemes import SCHEME_KINDS, SchemeSpec

# the package re-exports functions named like its modules (``flow``)
analysis, cli, config, flow, geometry, schemes = (
    importlib.import_module(f"reflectsde.{name}")
    for name in ("analysis", "cli", "config", "flow", "geometry", "schemes"))

# (owner, attribute, span name); owners are modules or classes
TRACED = (
    (cli, "load_config", "config.load"),
    (config.ExperimentConfig, "ensure_valid", "config.validate"),
    (cli, "convergence_study", "analysis.convergence_study"),
    (cli, "solve_skorokhod", "skorokhod.solve"),
    (cli, "variation_report", "analysis.variation_report"),
    (cli, "path_csv_text", "csvio.write"),
    (cli, "solution_csv_text", "csvio.write"),
    (cli, "rate_csv_text", "csvio.write"),
    (config, "sample_jump_driver", "driver.sample"),
    (analysis, "sample_jump_driver", "driver.sample"),
    (analysis, "build_reference", "schemes.reference"),
    (analysis, "run_scheme", "schemes.run"),
    (analysis, "sup_error", "analysis.sup_error"),
    (analysis, "check_lemma1", "skorokhod.check_lemma1"),
    (schemes, "jump_adapted_partition", "driver.partition"),
    (schemes, "marcus_jump", "flow.marcus_jump"),
    (flow, "marcus_jump", "flow.marcus_jump"),
    (flow.Coefficient, "evaluate", "flow.evaluate"),
    (geometry.Domain, "project", "geometry.project"),
    (geometry.Domain, "distance_outside", "geometry.distance_outside"),
)
ROOT = "cli.main"
PER_POINT = {"geometry.project", "geometry.distance_outside", "flow.evaluate"}
LAYERS = ("cli", "config", "driver", "flow", "geometry", "skorokhod",
          "schemes", "analysis", "csvio")


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.spans = []      # (name, start, end, parent span index, path)
        self.project_moved = 0
        self.csv_bytes = 0
        self._stack = []     # [span index or -1, child time]
        self._path = -1
        self._saved = []

    def wrap(self, name, fn, new_path=False):
        """``fn`` recording a span; ``new_path`` starts the next path index."""
        stats = self.stats[name]
        stack = self._stack
        keep = name not in PER_POINT

        def traced(*args, **kwargs):
            if new_path:
                self._path += 1
            index = -1
            if keep:
                index = len(self.spans)
                parent = stack[-1][0] if stack else -1
                self.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if keep:
                    self.spans[index] = (name, start, end, parent, self._path)
            if name == "geometry.project":
                if not np.array_equal(result, np.asarray(args[1], dtype=float)):
                    self.project_moved += 1
            elif name == "csvio.write":
                self.csv_bytes += len(result)
            return result

        return traced

    def install(self):
        for owner, attr, name in TRACED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            # every Monte Carlo path samples its driver once
            setattr(owner, attr,
                    self.wrap(name, original, name == "driver.sample"))

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def run(self, fn, *args):
        """Call ``fn`` as the root span with every layer traced."""
        self.install()
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            self.remove()

    def total(self, name):
        return self.stats[name][1] if name in self.stats else 0.0

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def self_time(self, name):
        return self.stats[name][2] if name in self.stats else 0.0

    def layer_metrics(self) -> dict:
        """Per-layer metrics of one traced pass (times in s)."""
        project_calls = self.calls("geometry.project")
        return {
            "config.load_s": self.total("config.load")
            + self.total("config.validate"),
            "driver.sample_s": self.total("driver.sample"),
            "driver.sample_calls": self.calls("driver.sample"),
            "driver.partition_s": self.total("driver.partition"),
            "flow.marcus_jump_s": self.total("flow.marcus_jump"),
            "flow.marcus_jump_calls": self.calls("flow.marcus_jump"),
            "flow.evaluate_calls": self.calls("flow.evaluate"),
            "geometry.project_s": self.total("geometry.project"),
            "geometry.project_calls": project_calls,
            "geometry.distance_outside_s":
                self.total("geometry.distance_outside"),
            "geometry.project_moved_ratio":
                self.project_moved / project_calls if project_calls else 0.0,
            "skorokhod.solve_s": self.total("skorokhod.solve"),
            "skorokhod.check_lemma1_s": self.total("skorokhod.check_lemma1"),
            "schemes.run_s": self.self_time("schemes.run"),
            "schemes.reference_s": self.self_time("schemes.reference"),
            "analysis.sup_error_s": self.total("analysis.sup_error"),
            "analysis.sup_error_calls": self.calls("analysis.sup_error"),
            "analysis.variation_report_s":
                self.total("analysis.variation_report"),
            "csvio.write_s": self.total("csvio.write"),
            "csvio.bytes": self.csv_bytes,
        }

    def layer_shares(self) -> dict:
        """Self time of each layer as a share of the root span."""
        wall = self.total(ROOT)
        shares = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, own) in self.stats.items():
            shares[name.split(".", 1)[0]] += own / wall
        return shares

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, path_index in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "path": path_index})
                         + "\n")


# ------------------------------------------------------------ fixed inputs

MICRO_DOMAINS = {
    "half-space": {"kind": "half-space", "normal": [1.0, 0.0], "offset": 0.0},
    "ball": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
    "box": {"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    "convex-polyhedron": {"kind": "convex-polyhedron",
                          "normals": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0],
                                      [-1.0, 0.3]],
                          "offsets": [-1.0, -1.0, -1.0, -1.2]},
    "exterior-of-ball": {"kind": "exterior-of-ball", "center": [0.0, 0.0],
                         "radius": 0.5},
}
MICRO_COEFFICIENTS = {
    "constant-matrix": {"kind": "constant-matrix",
                        "matrix": [[1.0, 0.2], [0.0, 0.8]]},
    "linear-diagonal": {"kind": "linear-diagonal", "scale": 0.5,
                        "dimension": 2},
    "sine-diagonal": {"kind": "catalog-smooth", "id": "sine-diagonal",
                      "amplitude": 0.5, "dimension": 2},
    "gauss-rotation": {"kind": "catalog-smooth", "id": "gauss-rotation",
                       "amplitude": 0.4, "sigma": 1.5},
    "cosine-shear": {"kind": "catalog-smooth", "id": "cosine-shear",
                     "amplitude": 0.5},
}
_MICRO_SEED = 7
_POINTS_PER_SIDE = 32


def _per_call_us(fn, items, repeats=5, min_seconds=0.02):
    """Median over repeats of the mean time of one ``fn(item)`` call, in us."""
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            for item in items:
                fn(item)
        if time.perf_counter() - start >= min_seconds:
            break
        loops *= 2
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            for item in items:
                fn(item)
        samples.append((time.perf_counter() - start) / (loops * len(items)))
    return statistics.median(samples) * 1e6


def _sample_points(domain):
    rng = np.random.default_rng(_MICRO_SEED)
    inside, outside = [], []
    for p in rng.uniform(-2.0, 2.0, size=(4000, 2)):
        side = domain.contains(p)
        if side == INTERIOR and len(inside) < _POINTS_PER_SIDE:
            inside.append(p)
        elif side == OUTSIDE and len(outside) < _POINTS_PER_SIDE:
            outside.append(p)
    return inside, outside


def micro_metrics() -> dict:
    out = {}
    for kind, spec in MICRO_DOMAINS.items():
        domain = Domain.from_spec(spec)
        inside, outside = _sample_points(domain)
        out[f"geometry.project_us.{kind}.inside"] = _per_call_us(
            domain.project, inside)
        out[f"geometry.project_us.{kind}.outside"] = _per_call_us(
            domain.project, outside)

    x, dz = np.array([0.3, -0.2]), np.array([0.2, 0.1])
    for kind, spec in MICRO_COEFFICIENTS.items():
        f = coefficient_from_spec(spec)
        out[f"flow.marcus_jump_us.{kind}"] = _per_call_us(
            lambda state: flow.marcus_jump(f, dz, state, DEFAULT_FLOW), [x])

    # one small fixed problem for all five schemes: disk, smooth rotation
    # field, Brownian driver with jumps, 64 cells
    domain = Domain.from_spec(MICRO_DOMAINS["ball"])
    f = coefficient_from_spec(MICRO_COEFFICIENTS["gauss-rotation"])
    z = sample_jump_driver(1.0, 256, 2, _MICRO_SEED, jump_rate=3.0,
                           jump_law={"kind": "uniform-ball", "radius": 0.3},
                           diffusion_scale=0.5)
    cells = 64
    part = Partition.uniform(1.0, cells)
    for kind in SCHEME_KINDS:
        spec = SchemeSpec(kind=kind, partition=part, substeps_bar=16)
        per_run = _per_call_us(
            lambda s: schemes.run_scheme(domain, f, (0.5, 0.0), z, s),
            [spec], repeats=3, min_seconds=0.0)
        out[f"schemes.cell_us.{kind}"] = per_run / cells
    return out
