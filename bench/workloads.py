"""Benchmark workloads: the YAML each one feeds the CLI, built from a seed.

Every workload is one ``reflectsde`` subcommand on one generated
configuration.  The seed is the only input that changes between runs; it
becomes ``experiment.seed``, from which the program derives every driver
path.  ``full`` is the size the benchmark measures; ``tiny`` (two paths,
short drivers) is the size the smoke test runs.  README.md gives the
reasons for each workload.
"""

from dataclasses import dataclass

import yaml

IDENTITY_2D = [[1.0, 0.0], [0.0, 1.0]]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # CLI subcommand
    jobs: int               # --jobs of the timed pass
    sections: dict          # YAML sections without experiment.seed

    @property
    def work_unit(self) -> str:
        return "paths" if self.command == "converge" else "driver samples"

    def config_text(self, seed: int) -> str:
        sections = {key: dict(value) for key, value in self.sections.items()}
        sections["experiment"]["seed"] = int(seed)
        return yaml.safe_dump(sections, sort_keys=True)


def _disk_rbm(size: str) -> Workload:
    """Criterion-6 plan: wz-bar substeps, Ball.project calls, pool fan-out."""
    tiny = size == "tiny"
    return Workload(
        name="disk-rbm",
        command="converge",
        jobs=2,
        sections={
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "coefficient": {"kind": "constant-matrix", "matrix": IDENTITY_2D},
            "driver": {"horizon": 1.0, "steps": 128 if tiny else 1024,
                       "dimension": 2, "jump_rate": 0.0,
                       "diffusion_scale": 0.2},
            "scheme": {"kind": "wz-bar", "substeps_bar": 8 if tiny else 64},
            "experiment": {
                "x0": [1.0, 0.0],
                "n_paths": 2 if tiny else 6,
                "meshes": [2.0 ** -k for k in (range(4, 7) if tiny
                                                else range(4, 9))],
                "reference_refine": 256 if tiny else 1024,
            },
        },
    )


def _jump_flow(size: str) -> Workload:
    """Serial baseline: RK4 jump transport, mostly in the reference build."""
    tiny = size == "tiny"
    return Workload(
        name="jump-flow",
        command="converge",
        jobs=1,
        sections={
            "domain": {"kind": "exterior-of-ball", "center": [0.0, 0.0],
                       "radius": 0.5},
            "coefficient": {"kind": "catalog-smooth", "id": "gauss-rotation",
                            "amplitude": 0.4, "sigma": 1.5},
            "driver": {"horizon": 1.0, "steps": 64 if tiny else 512,
                       "dimension": 2, "jump_rate": 3.0,
                       "jump_law": {"kind": "uniform-ball", "radius": 0.3},
                       "diffusion_scale": 0.2},
            "scheme": {"kind": "wz-hat"},
            "experiment": {
                "x0": [0.55, 0.0],
                "n_paths": 2 if tiny else 16,
                "meshes": [2.0 ** -k for k in (range(3, 5) if tiny
                                                else range(3, 7))],
                "reference_refine": 64 if tiny else 256,
                "reference_substeps": 256,
            },
        },
    )


def _poly_reflect(size: str) -> Workload:
    """One long projection chain with Dykstra, Lemma 1 windows, CSV writes."""
    tiny = size == "tiny"
    return Workload(
        name="poly-reflect",
        command="skorokhod",
        jobs=1,
        sections={
            "domain": {"kind": "convex-polyhedron",
                       "normals": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0],
                                   [-1.0, 0.3]],
                       "offsets": [-1.0, -1.0, -1.0, -1.2]},
            "coefficient": {"kind": "constant-matrix", "matrix": IDENTITY_2D},
            "driver": {"horizon": 1.0, "steps": 2000 if tiny else 25000,
                       "dimension": 2, "jump_rate": 50.0,
                       "jump_law": {"kind": "uniform-ball", "radius": 0.8},
                       "diffusion_scale": 1.5},
            "experiment": {"x0": [0.0, 0.0]},
        },
    )


_BUILDERS = {"disk-rbm": _disk_rbm, "jump-flow": _jump_flow,
             "poly-reflect": _poly_reflect}
NAMES = tuple(_BUILDERS)
SIZES = ("full", "tiny")


def workload(name: str, size: str = "full") -> Workload:
    return _BUILDERS[name](size)
