"""Sampled driver paths and partitions.

A ``GridPath`` stores a d-dimensional path sampled on a strictly increasing
time grid starting at 0.  Driver paths start at the origin.  Two
interpretations are supported between samples: right-continuous steps
(``cadlag-step``) and piecewise-linear (``linear``, jump free).  Jump times
are recorded explicitly together with their jump vectors; they are always
grid points, because the samplers insert exact event times into the grid
rather than rounding them.

Randomness uses the Philox counter-based bit generator keyed by
(seed, stream), so that independent path indices can be drawn in any order,
and in parallel, with identical results.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch

CADLAG_STEP = "cadlag-step"
LINEAR = "linear"

_STREAM_DIFFUSION = 0
_STREAM_JUMPS = 1


def _rng(seed: int, stream: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


def path_seed(experiment_seed: int, path_index: int) -> int:
    """Derive the per-path seed used by Monte Carlo fan-out.

    Deterministic in (experiment_seed, path_index) and independent of the
    order in which paths are generated.
    """
    ss = np.random.SeedSequence(
        entropy=int(experiment_seed), spawn_key=(int(path_index),)
    )
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True, eq=False)
class GridPath:
    """A sampled path: times (n,), values (n, d), and recorded jumps."""

    times: np.ndarray
    values: np.ndarray
    interp: str = CADLAG_STEP
    jump_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    jump_values: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if times.ndim != 1 or values.ndim != 2 or len(times) != len(values):
            raise DimensionMismatch("times (n,) and values (n, d) required")
        if len(times) == 0:
            raise ValueError("a path needs at least one sample")
        if times[0] != 0.0:
            raise ValueError("paths start at time 0")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if self.interp not in (CADLAG_STEP, LINEAR):
            raise ValueError(f"unknown interp rule: {self.interp!r}")
        jt = np.asarray(self.jump_times, dtype=float)
        jv = np.asarray(self.jump_values, dtype=float)
        if jv.size == 0:
            # no jumps: (0, d), whatever empty shape was passed
            jv = np.empty((0, values.shape[1]))
        if jv.ndim != 2 or len(jt) != len(jv) or (len(jv) and jv.shape[1] != values.shape[1]):
            raise DimensionMismatch("jump_values must be (m, d) matching jump_times")
        if len(jt):
            if self.interp == LINEAR:
                raise ValueError("linear paths cannot carry jumps")
            if np.any(np.diff(jt) <= 0.0):
                raise ValueError("jump times must be strictly increasing")
            pos = np.searchsorted(times, jt)
            ok = (pos < len(times)) & (times[np.minimum(pos, len(times) - 1)] == jt)
            if not np.all(ok):
                raise ValueError("every jump time must be a grid time")
            if jt[0] <= 0.0:
                raise ValueError("jumps cannot occur at time 0")
        for arr in (times, values, jt, jv):
            arr.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "jump_values", jv)

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def value_at(self, t, side: str = "right") -> np.ndarray:
        """Path value at time(s) t; ``side='left'`` gives the left limit.

        ``side`` is "right" or "left" (ValueError otherwise).
        """
        if side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {side!r}")
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr < 0.0) or np.any(t_arr > self.horizon + 1e-12):
            raise ValueError("evaluation time outside [0, horizon]")
        t_arr = np.minimum(t_arr, self.horizon)
        if self.interp == LINEAR:
            out = np.column_stack(
                [np.interp(t_arr, self.times, self.values[:, j])
                 for j in range(self.dimension)]
            )
        else:
            idx = np.searchsorted(self.times, t_arr, side=side) - 1
            idx = np.clip(idx, 0, len(self.times) - 1)
            out = self.values[idx]
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out[0]
        return out


@dataclass(frozen=True, eq=False)
class Partition:
    """Strictly increasing grid of times starting at 0."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or len(pts) < 2:
            raise DimensionMismatch("a partition needs at least two points")
        if pts[0] != 0.0:
            raise ValueError("partitions start at 0")
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError("partition points must be strictly increasing")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.points)))

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    @classmethod
    def uniform(cls, horizon: float, cells: int) -> "Partition":
        horizon = float(horizon)
        if not horizon > 0.0 or cells < 1:
            raise ValueError("need horizon > 0 and at least one cell")
        return cls(np.linspace(0.0, horizon, cells + 1))


def sample_brownian(horizon: float, steps: int, dimension: int, seed: int,
                    scale: float = 1.0) -> GridPath:
    """Brownian path sampled on a uniform grid, stored as a linear path."""
    horizon = float(horizon)
    if not horizon > 0.0 or steps < 1 or dimension < 1:
        raise ValueError("need horizon > 0, steps >= 1, dimension >= 1")
    times = np.linspace(0.0, horizon, steps + 1)
    gen = _rng(seed, _STREAM_DIFFUSION)
    normals = gen.standard_normal((steps, dimension))
    increments = normals * math.sqrt(horizon / steps) * float(scale)
    values = np.vstack([np.zeros(dimension), np.cumsum(increments, axis=0)])
    return GridPath(times, values, interp=LINEAR)


def sample_jump_driver(horizon: float, steps: int, dimension: int, seed: int,
                       jump_rate: float = 0.0,
                       jump_law: dict | None = None,
                       diffusion_scale: float = 1.0) -> GridPath:
    """Compound-Poisson plus Brownian driver on [0, horizon].

    Jump event times are Poisson with the given rate; each event time is
    inserted into the sampling grid exactly, so the recorded jump vectors
    are carried by genuine grid points.  ``jump_law`` selects the jump
    vector distribution:

        {"kind": "uniform-ball", "radius": r}   uniform in the r-ball
        {"kind": "fixed-vector", "vector": v}   constant vector v

    With jump_rate 0 and diffusion_scale 1 the sampled values coincide with
    ``sample_brownian`` for the same seed (the jump stream is independent),
    apart from the step interpretation tag.
    """
    horizon = float(horizon)
    if not horizon > 0.0 or steps < 1 or dimension < 1:
        raise ValueError("need horizon > 0, steps >= 1, dimension >= 1")
    if jump_rate < 0.0:
        raise ValueError("jump_rate must be >= 0")
    base = np.linspace(0.0, horizon, steps + 1)

    jump_times = np.empty(0)
    jump_values = np.empty((0, dimension))
    if jump_rate > 0.0:
        jgen = _rng(seed, _STREAM_JUMPS)
        count = int(jgen.poisson(jump_rate * horizon))
        if count > 0:
            times = np.sort(jgen.uniform(0.0, horizon, count))
            vectors = _draw_jump_vectors(jgen, jump_law, count, dimension)
            keep = times > 0.0
            times, vectors = times[keep], vectors[keep]
            # merge events landing on the same float time (measure zero)
            times, start = np.unique(times, return_index=True)
            if len(times) < len(vectors):
                vectors = np.add.reduceat(vectors, start, axis=0)
            jump_times, jump_values = times, vectors

    grid = np.union1d(base, jump_times)
    gen = _rng(seed, _STREAM_DIFFUSION)
    normals = gen.standard_normal((len(grid) - 1, dimension))
    dt = np.diff(grid)
    increments = normals * np.sqrt(dt)[:, None] * float(diffusion_scale)
    values = np.vstack([np.zeros(dimension), np.cumsum(increments, axis=0)])
    # every jump time is a grid point: add each jump from its own row on
    for i, v in zip(np.searchsorted(grid, jump_times), jump_values):
        values[i:] += v
    return GridPath(grid, values, interp=CADLAG_STEP,
                    jump_times=jump_times, jump_values=jump_values)


def _draw_jump_vectors(gen, jump_law, count, dimension):
    law = jump_law or {"kind": "uniform-ball", "radius": 1.0}
    kind = law.get("kind")
    if kind == "fixed-vector":
        v = np.asarray(law["vector"], dtype=float)
        if v.shape != (dimension,):
            raise DimensionMismatch("fixed jump vector has wrong dimension")
        return np.tile(v, (count, 1))
    if kind == "uniform-ball":
        radius = float(law.get("radius", 1.0))
        directions = gen.standard_normal((count, dimension))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        radii = radius * gen.uniform(0.0, 1.0, count) ** (1.0 / dimension)
        return directions / norms * radii[:, None]
    raise ValueError(f"unknown jump law: {kind!r}")


def jump_adapted_partition(z: GridPath, n: int) -> Partition:
    """Partition isolating every jump of z larger than 1/n, with mesh <= 1/n.

    Successive points advance by at most 1/n and stop exactly at each
    recorded jump time of magnitude > 1/n; the horizon is always included.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    horizon = z.horizon
    step = 1.0 / float(n)
    big = z.jump_times[np.linalg.norm(z.jump_values, axis=1) > step] if len(z.jump_times) else np.empty(0)
    points = [0.0]
    t = 0.0
    j = 0
    while t < horizon:
        while j < len(big) and big[j] <= t:
            j += 1
        nxt = t + step
        if j < len(big) and big[j] < nxt:
            nxt = float(big[j])
        nxt = min(nxt, horizon)
        points.append(nxt)
        t = nxt
    return Partition(np.array(points))
