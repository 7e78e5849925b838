"""Experiment configuration: YAML loading, validation, and object building.

A configuration has five sections (domain, coefficient, driver, scheme,
experiment), each a plain mapping merged over package defaults.  Unknown
keys anywhere are configuration errors, as are inconsistent dimensions.
Validation collects every problem before raising, so a bad file reports
all its mistakes at once.  Every numeric field is type-checked and must be
finite, so a malformed value is reported as a problem, never raised.

The canonical form of a configuration is its sorted-key compact JSON; its
sha-256 digest is embedded in artifacts so that outputs are traceable to
the exact configuration that produced them.
"""

import hashlib
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np
import yaml

from .analysis import StudyPlan
from .driver import Partition, sample_jump_driver
from .errors import ConfigError, ReflectedSDEError
from .flow import FlowConfig, coefficient_from_spec
from .geometry import OUTSIDE, Domain
from .schemes import SCHEME_KINDS, SchemeSpec

_DOMAIN_DEFAULT = {"kind": "half-space", "normal": [1.0], "offset": 0.0}
_COEFFICIENT_DEFAULT = {"kind": "constant-matrix", "matrix": [[1.0]]}
_DRIVER_DEFAULT = {
    "horizon": 1.0,
    "steps": 256,
    "dimension": 1,
    "jump_rate": 0.0,
    "jump_law": {"kind": "uniform-ball", "radius": 1.0},
    "diffusion_scale": 1.0,
}
_SCHEME_DEFAULT = {
    "kind": "wz-hat",
    "mesh": None,
    "cells": 64,
    "substeps": 32,
    "adaptive": True,
    "substeps_bar": 64,
    "observations": 0,
}
_EXPERIMENT_DEFAULT = {
    "x0": [0.0],
    "seed": 12345,
    "n_paths": 64,
    "meshes": [0.25, 0.125, 0.0625, 0.03125],
    "reference_refine": 256,
    "reference_substeps": 256,
    "label": "default",
}

_SECTIONS = ("domain", "coefficient", "driver", "scheme", "experiment")
_JUMP_LAW_KINDS = ("uniform-ball", "fixed-vector")

# scalar fields of the merged sections: (section, key) ->
# (integer, lower bound, bound inclusive, None allowed)
_SCALARS = {
    ("driver", "horizon"): (False, 0.0, False, False),
    ("driver", "steps"): (True, 1, True, False),
    ("driver", "dimension"): (True, 1, True, False),
    ("driver", "jump_rate"): (False, 0.0, True, False),
    ("driver", "diffusion_scale"): (False, 0.0, True, False),
    ("scheme", "mesh"): (False, 0.0, False, True),
    ("scheme", "cells"): (True, 1, True, True),
    ("scheme", "substeps"): (True, 1, True, False),
    ("scheme", "substeps_bar"): (True, 1, True, False),
    ("scheme", "observations"): (True, 0, True, False),
    ("experiment", "seed"): (True, 0, True, False),
    ("experiment", "n_paths"): (True, 1, True, False),
    ("experiment", "reference_refine"): (True, 1, True, False),
    ("experiment", "reference_substeps"): (True, 1, True, False),
}


def _number(value, integer: bool = False):
    """``value`` as a finite float (an int if ``integer``), else None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    if not math.isfinite(number) or (integer and not number.is_integer()):
        return None
    return int(value) if integer else number


def _vector(value):
    """A number or a list of numbers as a finite float array, else None."""
    items = value.tolist() if isinstance(value, np.ndarray) else value
    if not isinstance(items, (list, tuple)):
        items = [items]
    parsed = [_number(item) for item in items]
    if None in parsed:
        return None
    return np.array(parsed, dtype=float)


def _has_nan(spec) -> bool:
    """Whether a nested spec holds a NaN anywhere (infinities may be bounds)."""
    if isinstance(spec, dict):
        return any(_has_nan(v) for v in spec.values())
    if isinstance(spec, (list, tuple)):
        return any(_has_nan(v) for v in spec)
    return isinstance(spec, float) and math.isnan(spec)


def _merge_section(defaults: dict, override, section: str, problems: list) -> dict:
    """Merge an override mapping over section defaults, rejecting unknown keys."""
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in defaults.items()}
    if override is None:
        return out
    if not isinstance(override, dict):
        problems.append(f"section {section!r} must be a mapping")
        return out
    for key, value in override.items():
        if key not in defaults:
            problems.append(f"unknown key {key!r} in section {section!r}")
            continue
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            merged = dict(out[key])
            merged.update(value)
            out[key] = merged
        else:
            out[key] = value
    return out


def _replace_section(default: dict, override, section: str, problems: list) -> dict:
    """Domain and coefficient specs replace the default wholesale."""
    if override is None:
        return dict(default)
    if not isinstance(override, dict):
        problems.append(f"section {section!r} must be a mapping")
        return dict(default)
    return dict(override)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated five-section configuration with object builders."""

    domain: dict
    coefficient: dict
    driver: dict
    scheme: dict
    experiment: dict

    def as_dict(self) -> dict:
        return {
            "domain": self.domain,
            "coefficient": self.coefficient,
            "driver": self.driver,
            "scheme": self.scheme,
            "experiment": self.experiment,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # ---------------------------------------------------------------- checks

    def validate(self) -> list:
        """Collect every configuration problem; empty list means valid."""
        problems = []
        domain = coefficient = None
        for name in ("domain", "coefficient"):
            if _has_nan(getattr(self, name)):
                problems.append(f"{name}: NaN is not a valid number")
        try:
            domain = Domain.from_spec(self.domain)
        except (ReflectedSDEError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"domain: {exc}")
        try:
            coefficient = coefficient_from_spec(self.coefficient)
        except (ReflectedSDEError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"coefficient: {exc}")

        # scalars that pass their checks, keyed "section.key"
        num = {}
        for (section, key), (integer, low, inclusive, optional) in _SCALARS.items():
            name = f"{section}.{key}"
            raw = getattr(self, section).get(key)
            if raw is None and optional:
                continue
            value = _number(raw, integer)
            if value is None:
                kind = "an integer" if integer else "a finite number"
                problems.append(f"{name} must be {kind}, got {raw!r}")
            elif (value < low) if inclusive else (value <= low):
                problems.append(f"{name} must be {'>=' if inclusive else '>'} {low}")
            else:
                num[name] = value

        law = self.driver.get("jump_law") or {}
        if not isinstance(law, dict) or law.get("kind") not in _JUMP_LAW_KINDS:
            problems.append(
                "driver.jump_law.kind must be one of %s" % (_JUMP_LAW_KINDS,)
            )
        elif law["kind"] == "fixed-vector":
            vec = _vector(law.get("vector", []))
            if vec is None or vec.shape != (num.get("driver.dimension"),):
                problems.append(
                    "driver.jump_law.vector must be finite numbers matching "
                    "driver.dimension"
                )
        else:
            radius = _number(law.get("radius", 1.0))
            if radius is None or radius <= 0.0:
                problems.append("driver.jump_law.radius must be a positive number")

        sch = self.scheme
        if sch.get("kind") not in SCHEME_KINDS:
            problems.append(
                "scheme.kind must be one of %s" % (SCHEME_KINDS,)
            )
        if sch.get("mesh") is None and sch.get("cells") is None:
            problems.append("scheme needs a positive mesh or cells >= 1")
        if not isinstance(sch.get("adaptive"), bool):
            problems.append("scheme.adaptive must be true or false")

        exp = self.experiment
        x0 = _vector(exp.get("x0", []))
        if x0 is None:
            problems.append("experiment.x0 must be finite numbers")
        elif domain is not None and x0.shape != (domain.dimension,):
            problems.append("experiment.x0 must match the domain dimension")
        elif domain is not None and domain.contains(x0) == OUTSIDE:
            problems.append("experiment.x0 lies outside the closed domain")
        meshes = exp.get("meshes")
        if meshes is not None:
            arr = _vector(meshes)
            if arr is None or arr.size == 0 or np.any(arr <= 0.0):
                problems.append("experiment.meshes must be positive numbers")

        if domain is not None and coefficient is not None:
            if domain.dimension != coefficient.dimension:
                problems.append(
                    "domain dimension %d and coefficient dimension %d differ"
                    % (domain.dimension, coefficient.dimension)
                )
            if num.get("driver.dimension", coefficient.dimension) != coefficient.dimension:
                problems.append(
                    "driver.dimension must equal the coefficient dimension"
                )
        return problems

    def ensure_valid(self) -> "ExperimentConfig":
        problems = self.validate()
        if problems:
            raise ConfigError(problems)
        return self

    # --------------------------------------------------------------- objects

    def build_domain(self) -> Domain:
        return Domain.from_spec(self.domain)

    def build_coefficient(self):
        return coefficient_from_spec(self.coefficient)

    def build_flow(self) -> FlowConfig:
        return FlowConfig(int(self.scheme["substeps"]),
                          bool(self.scheme["adaptive"]))

    def reference_flow(self) -> FlowConfig:
        return FlowConfig(int(self.experiment["reference_substeps"]), True)

    def build_partition(self) -> Partition:
        horizon = float(self.driver["horizon"])
        mesh = self.scheme.get("mesh")
        if mesh is not None:
            cells = max(1, round(horizon / float(mesh)))
        else:
            cells = int(self.scheme["cells"])
        return Partition.uniform(horizon, cells)

    def observation_times(self):
        count = int(self.scheme.get("observations", 0))
        if count <= 0:
            return None
        return np.linspace(0.0, float(self.driver["horizon"]), count + 1)

    def build_scheme_spec(self) -> SchemeSpec:
        return SchemeSpec(
            kind=self.scheme["kind"],
            partition=self.build_partition(),
            flow_cfg=self.build_flow(),
            substeps_bar=int(self.scheme["substeps_bar"]),
            observation_times=self.observation_times(),
        )

    def sample_driver(self, seed: int):
        drv = self.driver
        return sample_jump_driver(
            float(drv["horizon"]), int(drv["steps"]), int(drv["dimension"]),
            int(seed), jump_rate=float(drv["jump_rate"]),
            jump_law=drv.get("jump_law"),
            diffusion_scale=float(drv["diffusion_scale"]),
        )

    def x0(self) -> tuple:
        return tuple(float(v)
                     for v in np.atleast_1d(self.experiment["x0"]))

    def seed(self) -> int:
        return int(self.experiment["seed"])

    def study_plan(self) -> StudyPlan:
        exp = self.experiment
        drv = self.driver
        meshes = exp.get("meshes")
        if meshes is None:
            meshes = [self.build_partition().mesh]
        return StudyPlan(
            domain=dict(self.domain),
            coefficient=dict(self.coefficient),
            x0=self.x0(),
            scheme=self.scheme["kind"],
            meshes=tuple(float(m) for m in np.atleast_1d(meshes)),
            horizon=float(drv["horizon"]),
            driver_steps=int(drv["steps"]),
            driver_dimension=int(drv["dimension"]),
            jump_rate=float(drv["jump_rate"]),
            jump_law=dict(drv["jump_law"]) if drv.get("jump_law") else None,
            diffusion_scale=float(drv["diffusion_scale"]),
            n_paths=int(exp["n_paths"]),
            seed=self.seed(),
            reference_refine=int(exp["reference_refine"]),
            flow_substeps=int(self.scheme["substeps"]),
            flow_adaptive=bool(self.scheme["adaptive"]),
            reference_substeps=int(exp["reference_substeps"]),
            substeps_bar=int(self.scheme["substeps_bar"]),
        )


def config_from_mapping(mapping) -> ExperimentConfig:
    """Merge a parsed mapping over the defaults; raise ConfigError if bad."""
    problems = []
    mapping = mapping or {}
    if not isinstance(mapping, dict):
        raise ConfigError(["configuration root must be a mapping"])
    unknown = set(mapping) - set(_SECTIONS)
    for key in sorted(unknown):
        problems.append(f"unknown section {key!r}")
    cfg = ExperimentConfig(
        domain=_replace_section(_DOMAIN_DEFAULT, mapping.get("domain"),
                                "domain", problems),
        coefficient=_replace_section(_COEFFICIENT_DEFAULT,
                                     mapping.get("coefficient"),
                                     "coefficient", problems),
        driver=_merge_section(_DRIVER_DEFAULT, mapping.get("driver"),
                              "driver", problems),
        scheme=_merge_section(_SCHEME_DEFAULT, mapping.get("scheme"),
                              "scheme", problems),
        experiment=_merge_section(_EXPERIMENT_DEFAULT,
                                  mapping.get("experiment"),
                                  "experiment", problems),
    )
    if problems:
        raise ConfigError(problems)
    return cfg


def load_config(path) -> ExperimentConfig:
    """Parse a YAML file into an ExperimentConfig (not yet validated)."""
    try:
        with open(path, "r") as fh:
            mapping = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read configuration file: {exc}"])
    except yaml.YAMLError as exc:
        raise ConfigError([f"cannot parse YAML: {exc}"])
    return config_from_mapping(mapping)


def default_config() -> ExperimentConfig:
    """Reflected unit Brownian motion on the half line, cell-flow scheme."""
    return config_from_mapping({})
