"""Shared builders for test fields (seeded noise, band-limited fields, waves)
and a check of written artifacts."""

import math
import tracemalloc
from pathlib import Path

import numpy as np

from metacont.fields import (
    GridSpec,
    ScalarField,
    TensorField,
    VectorField,
    make_grid,
    norm_linf,
)
from metacont.diffops import leray_project
from metacont.scenarios import band_limited_noise

GRID_64 = make_grid((64, 64, 1), (2 * np.pi, 2 * np.pi, 2 * np.pi))
GRID_32_3D = make_grid((32, 32, 32), (2 * np.pi, 2 * np.pi, 2 * np.pi))


def band_limited_scalar(grid: GridSpec, seed: int, fraction: float = 0.25,
                        amplitude: float = 1.0) -> ScalarField:
    return ScalarField(grid, band_limited_noise(grid, seed, fraction, peak=amplitude))


def band_limited_vector(grid: GridSpec, seed: int, fraction: float = 0.25,
                        amplitude: float = 1.0, solenoidal: bool = False) -> VectorField:
    if not solenoidal:
        return VectorField(
            grid, band_limited_noise(grid, seed, fraction, (3,), amplitude))
    raw = VectorField(grid, band_limited_noise(grid, seed, fraction, (3,)))
    v = leray_project(raw).solenoidal
    peak = norm_linf(v)
    return v * (amplitude / peak) if peak > 0 else v


def band_limited_tensor(grid: GridSpec, seed: int, fraction: float = 0.25,
                        amplitude: float = 1.0) -> TensorField:
    """Each component scaled to its own peak `amplitude`."""
    rng = np.random.default_rng(seed)
    return TensorField(grid, [
        [band_limited_noise(grid, rng, fraction, peak=amplitude) for _ in range(3)]
        for _ in range(3)
    ])


def identity_tensor(grid: GridSpec) -> TensorField:
    """delta_ij at every grid point."""
    return TensorField(grid, np.eye(3).reshape((3, 3, 1, 1, 1)) * np.ones(grid.shape))


def sine_scalar(grid: GridSpec, axis: int = 0, k: int = 1) -> ScalarField:
    """sin(k * 2*pi*x_axis / L_axis) sampled on the grid."""
    coords = grid.coordinates()
    phase = 2.0 * np.pi * k / grid.lengths[axis] * coords[axis]
    return ScalarField(grid, np.broadcast_to(np.sin(phase), grid.shape))


def cosine_scalar(grid: GridSpec, axis: int = 0, k: int = 1) -> ScalarField:
    coords = grid.coordinates()
    phase = 2.0 * np.pi * k / grid.lengths[axis] * coords[axis]
    return ScalarField(grid, np.broadcast_to(np.cos(phase), grid.shape))


def vector_of(grid: GridSpec, fx=None, fy=None, fz=None) -> VectorField:
    """Vector field from optional per-component scalar fields (None = zero)."""
    zero = np.zeros(grid.shape)
    arrs = [f.values if f is not None else zero for f in (fx, fy, fz)]
    return VectorField(grid, tuple(arrs))


def assert_plain_numbers(out_dir) -> None:
    """Every .json, .ndjson and .csv artifact under `out_dir` spells its
    numbers as plain text: none holds a numpy repr such as np.float64(1.0)."""
    paths = [p for p in sorted(Path(out_dir).rglob("*"))
             if p.suffix in (".json", ".ndjson", ".csv")]
    assert paths, f"no text artifact under {out_dir}"
    for path in paths:
        assert "np." not in path.read_text(), path


def traced_peak_units(grid: GridSpec, call) -> float:
    """The tracemalloc peak of `call()` above what was allocated before it,
    in units of one real component on `grid` (8 bytes a point).  `call` runs
    once untraced first, so that the per-grid caches it fills do not count."""
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * math.prod(grid.shape))
