"""Periodic structured-grid fields: containers, algebra, spectral layer, snapshots.

Everything in this package operates on double-precision fields sampled on a
uniform grid over the periodic box [0,Lx) x [0,Ly) x [0,Lz).  Fields are
immutable once constructed; all operations are pure functions returning new
fields and are bitwise deterministic for a fixed grid.  The private array
helpers behind them (`_cross_arrays`, the `diffops` and `dynamics` spectral
helpers) may scale, accumulate and subtract in place, but only into arrays
they allocated themselves or into the `out` array a caller hands them,
never into an input.

A dimension of size 1 is inactive: derivatives along it vanish and it is
exempt from the even-and-at-least-4 rule.  2D runs are 3D grids with nz=1.
A grid with one inactive axis n is planar, (a, b, n) in cyclic order
(`_plane`): `_cross_arrays`, the curl and the Leray projection take a vector
in its plane as [x_a, x_b] and one along n as x_n, in the full operation order.

Stacked layout.  Every field is one read-only float64 array `values` whose
leading axes index the components and whose three trailing axes are the
grid's: `ScalarField` has shape grid.shape, `VectorField` (3,) + grid.shape
and `TensorField` (3, 3) + grid.shape.  The three classes share one
implementation of + - * / and negation, and `fftn_array` / `ifftn_array`
transform the trailing active axes of any leading shape, so an operator
acts on the whole stack at once; a batched transform gives the same bits as
one transform per component.

Finiteness is checked where values come from outside: the public
constructors (`ScalarField(grid, values)`, its vector and tensor kin, and
`full`) copy their input and reject a misshaped or non-finite one with
`FieldError`, as the snapshot reader does.  Operator results are adopted as
they are, without a copy or a scan.  The time stepper in `dynamics` scans
instead: the rates of every RK stage and each accepted state, in the layout
the stages hold (physical values, or the coefficients of fi and
second_order, whose physical state is not scanned: its RHS's products carry
an overflow into the scanned rates).

Spectral layout.  Every field is real, so the forward transform is
real-to-complex over the active axes and the inverse is complex-to-real.
The last active axis keeps only its modes 0..n/2 (n//2 + 1 coefficients);
the other active axes keep all n modes in FFT order.  The missing modes are
the complex conjugates of the stored ones, c(-m) = conj(c(m)).
`GridSpec.spectral_shape` is the coefficient shape, and `_mode_indices`,
`angular_wavenumbers`, `dealias_mask`, `fftn_array`, `ifftn_array`,
`spectral_norm_l2` and `mode_coefficient` all describe this one layout; no
other module knows which axis is halved.  A grid without an active axis is
its own (complex) coefficient array.  The engine is numpy's pocketfft, the
code `scipy.fft` wraps, without scipy's import (which would double the
package's).  One-axis calls in pocketfft's n-d order and scaling give the
bits of `scipy.fft.rfftn` / `irfftn`: `rfft` along the halved axis, then
`fft` in place along the others in ascending order (numpy's `rfftn` reverses
it, which rounds differently in 3D); the inverse likewise, with `ifft` and
`irfft` unscaled and one scale by 1/N at the end (a 1/n per pass rounds
differently for any n that is not a power of 2).

Nyquist convention.  The Nyquist mode |m| = n/2 of an active axis has no
sign, so `angular_wavenumbers` gives it k = 0 on every active axis: every
derivative annihilates it.  For a first derivative this is what a
complex-to-complex transform followed by `.real` yields; without it, `irfftn`
would keep the anti-Hermitian Nyquist part of i*k*c along the non-halved
axes.  Band-limited fields and dealiased products carry no Nyquist content,
so the convention shows only on full-band input.

Cached symbols.  The constant spectral symbols that multiply coefficients on
the stepping path are cached once per grid as complex128: the wavenumber
stack `_k_vector`, the two-thirds factor `_dealias_factor` and the Leray
guard in `diffops`.  A real or boolean factor would be cast to complex on
every call, which costs about as much as the multiply itself; numpy's
cast-then-multiply is this same complex multiply, so the results carry the
same bits.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import ClassVar

import numpy as np

__all__ = [
    "GridError",
    "FieldError",
    "GridSpec",
    "make_grid",
    "ScalarField",
    "VectorField",
    "TensorField",
    "dot",
    "cross",
    "norm_l2",
    "norm_linf",
    "fftn_array",
    "ifftn_array",
    "dealias_field",
    "spectral_norm_l2",
    "mode_coefficient",
    "angular_wavenumbers",
    "dealias_mask",
    "write_snapshot",
    "read_snapshot",
    "SNAPSHOT_LAYOUT",
]

SNAPSHOT_LAYOUT = "stacked-row-major-f64-le"


class GridError(ValueError):
    """Invalid grid construction."""


class FieldError(ValueError):
    """Invalid field construction or incompatible field operands."""


def _is_integer(x) -> bool:
    """Whether x is an integer (numpy integers included) and not a boolean."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: point counts (nx,ny,nz) and box lengths (Lx,Ly,Lz).

    Its hash is computed once, on construction: every per-grid cache lookup
    on the stepping path hashes the grid."""

    dims: tuple[int, int, int]
    lengths: tuple[float, float, float]

    def __post_init__(self):
        if len(tuple(self.dims)) != 3 or len(tuple(self.lengths)) != 3:
            raise GridError("dims and lengths must be triples")
        if not all(_is_integer(n) for n in self.dims):
            raise GridError(f"dims must be integers, got {tuple(self.dims)!r}")
        dims = tuple(int(n) for n in self.dims)
        lengths = tuple(float(L) for L in self.lengths)
        for n in dims:
            if n < 1:
                raise GridError(f"grid dimension must be >= 1, got {n}")
            if n > 1 and (n % 2 != 0 or n < 4):
                raise GridError(
                    f"active grid dimension must be even and >= 4, got {n}"
                )
        for L in lengths:
            if not np.isfinite(L) or L <= 0.0:
                raise GridError(f"box length must be positive and finite, got {L}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "_hash", hash((dims, lengths)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.dims

    @property
    def spacing(self) -> tuple[float, float, float]:
        return tuple(L / n for L, n in zip(self.lengths, self.dims))

    @property
    def num_points(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def cell_volume(self) -> float:
        hx, hy, hz = self.spacing
        return hx * hy * hz

    @property
    def active(self) -> tuple[bool, bool, bool]:
        """Which dimensions carry more than one point."""
        return tuple(n > 1 for n in self.dims)

    def min_active_spacing(self) -> float:
        """Smallest spacing among active dimensions (all spacings if 0D)."""
        pairs = [h for h, a in zip(self.spacing, self.active) if a]
        return min(pairs) if pairs else min(self.spacing)

    @property
    def spectral_shape(self) -> tuple[int, int, int]:
        """Shape of the coefficient arrays (see the module docstring)."""
        half = _halved_axis(self)
        if half is None:
            return self.dims
        return tuple(n // 2 + 1 if axis == half else n
                     for axis, n in enumerate(self.dims))

    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable coordinate arrays (X, Y, Z) of the grid points."""
        out = []
        for axis, (n, h) in enumerate(zip(self.dims, self.spacing)):
            shape = [1, 1, 1]
            shape[axis] = n
            out.append((h * np.arange(n)).reshape(shape))
        return tuple(out)


def make_grid(dims, lengths) -> GridSpec:
    """Validated grid from point counts and box lengths."""
    return GridSpec(tuple(dims), tuple(lengths))


@lru_cache(maxsize=128)
def _transform_axes(grid: GridSpec) -> tuple[int, ...]:
    # a DFT over a length-1 axis is the identity, so only active axes are
    # transformed; coefficients are identical to the full three-axis transform
    return tuple(i for i, a in enumerate(grid.active) if a)


@lru_cache(maxsize=128)
def _plane(grid: GridSpec) -> tuple[int, int, int] | None:
    """(a, b, n) in cyclic order if n is the one inactive axis, else None."""
    n = [i for i, a in enumerate(grid.active) if not a]
    return ((n[0] + 1) % 3, (n[0] + 2) % 3, n[0]) if len(n) == 1 else None


def _halved_axis(grid: GridSpec) -> int | None:
    """The axis that keeps only modes 0..n/2: the last active one."""
    axes = _transform_axes(grid)
    return axes[-1] if axes else None


@lru_cache(maxsize=128)
def _mode_indices(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Broadcastable integer mode-index arrays per axis in the half-spectrum
    layout: 0..n/2 on the halved axis, FFT ordering on the others."""
    half = _halved_axis(grid)
    out = []
    for axis, n in enumerate(grid.dims):
        if axis == half:
            m = np.fft.rfftfreq(n, d=1.0 / n)
        else:
            m = np.fft.fftfreq(n, d=1.0 / n)
        shape = [1, 1, 1]
        shape[axis] = m.size
        m = m.reshape(shape)
        m.setflags(write=False)
        out.append(m)
    return tuple(out)


@lru_cache(maxsize=128)
def angular_wavenumbers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Broadcastable angular wavenumber arrays k_i = 2*pi*m_i/L_i per axis,
    with k = 0 at the Nyquist mode (see the module docstring)."""
    out = []
    for m, n, L in zip(_mode_indices(grid), grid.dims, grid.lengths):
        k = np.where(np.abs(m) == n / 2, 0.0, (2.0 * np.pi / L) * m)
        k.setflags(write=False)
        out.append(k)
    return tuple(out)


@lru_cache(maxsize=128)
def _k_squared(grid: GridSpec) -> np.ndarray:
    kx, ky, kz = angular_wavenumbers(grid)
    k2 = (kx * kx + ky * ky + kz * kz) * np.ones(grid.spectral_shape)
    k2.setflags(write=False)
    return k2


@lru_cache(maxsize=128)
def _k_vector(grid: GridSpec, plane: bool = False) -> np.ndarray:
    """The wavenumbers k_x, k_y, k_z stacked as complex128 (see the module
    docstring): shape (3,) + spectral_shape; a real user reads `.real`.
    With `plane`, the in-plane pair [k_a, k_b] of a planar grid."""
    k = np.stack(np.broadcast_arrays(*angular_wavenumbers(grid)), dtype=np.complex128)
    k = k[list(_plane(grid)[:2])] if plane else k
    k.setflags(write=False)
    return k


@lru_cache(maxsize=128)
def dealias_mask(grid: GridSpec, fraction: float = 1 / 3) -> np.ndarray:
    """The modes with |m_i| <= n_i * fraction along every active axis; the
    default is the two-thirds-rule mask."""
    mask = np.ones(grid.spectral_shape, dtype=bool)
    for m, n, active in zip(_mode_indices(grid), grid.dims, grid.active):
        if active:
            mask = mask & (np.abs(m) <= n * fraction)
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=128)
def _dealias_factor(grid: GridSpec) -> np.ndarray:
    """`dealias_mask` as complex128, the factor of the package's own products
    with coefficients (see the module docstring)."""
    factor = dealias_mask(grid).astype(np.complex128)
    factor.setflags(write=False)
    return factor


def _stack_axes(grid: GridSpec, values: np.ndarray) -> tuple[int, ...]:
    """The active axes of `grid` as axes of an array with leading component axes."""
    lead = values.ndim - 3
    return tuple(lead + i for i in _transform_axes(grid))


def fftn_array(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Forward real-to-complex DFT over the trailing grid axes of an array of
    any leading shape (unnormalized), in the half-spectrum layout."""
    axes = _stack_axes(grid, values)
    if not axes:
        return values.astype(np.complex128)
    out = np.fft.rfft(values, axis=axes[-1])
    for axis in axes[:-1]:
        np.fft.fft(out, axis=axis, out=out)
    return out


def ifftn_array(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Inverse complex-to-real DFT over the trailing grid axes back to
    physical space, as an owned C-contiguous array."""
    axes = _stack_axes(grid, coeffs)
    if not axes:
        return coeffs.real.copy()
    n = grid.dims[_halved_axis(grid)]
    if len(axes) == 1:
        return np.fft.irfft(coeffs, n, axis=axes[0])
    work = np.fft.ifft(coeffs, axis=axes[0], norm="forward")
    for axis in axes[1:-1]:
        np.fft.ifft(work, axis=axis, norm="forward", out=work)
    out = np.fft.irfft(work, n, axis=axes[-1], norm="forward")
    return np.multiply(out, 1.0 / grid.num_points, out=out)


def dealias_array(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Physical-space round trip through the two-thirds mask."""
    return ifftn_array(grid, fftn_array(grid, values) * _dealias_factor(grid))


# ---------------------------------------------------------------------------
# field containers
# ---------------------------------------------------------------------------

def _check_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise FieldError(f"grid mismatch: {a.grid.dims} vs {b.grid.dims}")


@dataclass(frozen=True)
class Field:
    """Real samples on a grid, stacked as one read-only float64 array of shape
    `COMPONENTS + grid.shape`; the shared storage and algebra of
    `ScalarField`, `VectorField` and `TensorField`.

    The constructor copies its input and rejects a misshaped or non-finite
    one; `_wrap` adopts an operator result as it is (see the module
    docstring)."""

    COMPONENTS: ClassVar[tuple[int, ...]] = ()

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        name = type(self).__name__
        try:
            arr = np.array(self.values, dtype=np.float64, order="C", copy=True)
        except (TypeError, ValueError) as exc:
            raise FieldError(f"{name} values are not a real array: {exc}") from exc
        if arr.shape != self.COMPONENTS + self.grid.shape:
            raise FieldError(
                f"{name} value shape {arr.shape} does not match "
                f"{self.COMPONENTS + self.grid.shape} on grid {self.grid.shape}"
            )
        if not np.isfinite(arr).all():
            raise FieldError(f"{name} contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def _wrap(cls, grid: GridSpec, values: np.ndarray):
        """A field over an array the package just computed: no copy, no scan."""
        field = object.__new__(cls)
        values.setflags(write=False)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "values", values)
        return field

    @classmethod
    def zeros(cls, grid: GridSpec):
        return cls._wrap(grid, np.zeros(cls.COMPONENTS + grid.shape))

    @classmethod
    def full(cls, grid: GridSpec, value: float):
        return cls(grid, np.full(cls.COMPONENTS + grid.shape, float(value)))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _check_same_grid(self, other)
        return self._wrap(self.grid, self.values + other.values)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _check_same_grid(self, other)
        return self._wrap(self.grid, self.values - other.values)

    def __mul__(self, other):
        """Product with a scalar field (on every component) or a real number."""
        if isinstance(other, ScalarField):
            _check_same_grid(self, other)
            return self._wrap(self.grid, self.values * other.values)
        if isinstance(other, numbers.Real):
            return self._wrap(self.grid, self.values * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, numbers.Real):
            return NotImplemented
        return self._wrap(self.grid, self.values / float(other))

    def __neg__(self):
        return self._wrap(self.grid, -self.values)


class ScalarField(Field):
    """Real scalar samples on a grid; `values` has the grid's shape."""


class VectorField(Field):
    """Three components on one grid; `values` has shape (3,) + grid.shape."""

    COMPONENTS = (3,)

    @property
    def x(self) -> ScalarField:
        return ScalarField._wrap(self.grid, self.values[0])

    @property
    def y(self) -> ScalarField:
        return ScalarField._wrap(self.grid, self.values[1])

    @property
    def z(self) -> ScalarField:
        return ScalarField._wrap(self.grid, self.values[2])


class TensorField(Field):
    """Rank-2 field T_ij, not assumed symmetric; `values` has shape
    (3, 3) + grid.shape with T_ij at values[i, j]."""

    COMPONENTS = (3, 3)


# ---------------------------------------------------------------------------
# field algebra
# ---------------------------------------------------------------------------

def dot(v: VectorField, w: VectorField) -> ScalarField:
    """Pointwise inner product of two vector fields."""
    _check_same_grid(v, w)
    va, wa = v.values, w.values
    return ScalarField._wrap(v.grid, va[0] * wa[0] + va[1] * wa[1] + va[2] * wa[2])


_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]   # component j -> (j + 1) % 3, (j + 2) % 3


def _cross_arrays(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Cross product over the leading axis of two stacked triples, formed
    per component in one array, `out` or a new one (indexing whole stacks
    would copy four); of planar forms (see the module docstring), a is an
    in-plane pair."""
    if len(a) == 2 and np.ndim(b) == np.ndim(a):
        out = np.multiply(a[0], b[1], out=out)
        out -= a[1] * b[0]
        return out
    if out is None:
        # a planar pair times a field along n: b broadcasts against each of a
        lead = () if np.ndim(b) == np.ndim(a) else (1,)
        out = np.empty(np.broadcast_shapes(a.shape, lead + np.shape(b)),
                       np.result_type(a, b))
    if len(a) == 2:
        np.multiply(a[1], b, out=out[0])
        np.negative(np.multiply(a[0], b, out=out[1]), out=out[1])
        return out
    term = np.empty_like(out[0])
    for j, (n, f) in enumerate(zip(_NEXT, _AFTER)):
        np.multiply(a[n], b[f], out=out[j])
        out[j] -= np.multiply(a[f], b[n], out=term)
    return out


def cross(v: VectorField, w: VectorField) -> VectorField:
    """Pointwise cross product v x w."""
    _check_same_grid(v, w)
    return VectorField._wrap(v.grid, _cross_arrays(v.values, w.values))


def norm_l2(f: Field) -> float:
    """Volume-weighted discrete L2 norm over all components."""
    return float(np.sqrt(f.grid.cell_volume * float(np.sum(f.values * f.values))))


def norm_linf(f: Field) -> float:
    """Maximum absolute value over all components."""
    return float(np.max(np.abs(f.values)))


# ---------------------------------------------------------------------------
# spectral layer
# ---------------------------------------------------------------------------

def dealias_field(f: Field) -> Field:
    """Physical-space dealiasing of any-rank field (round trip through the mask)."""
    return f._wrap(f.grid, dealias_array(f.grid, f.values))


def spectral_norm_l2(grid: GridSpec, coeffs: np.ndarray) -> float:
    """L2 norm of a scalar field's coefficients, `fftn_array(grid, values)`,
    matching the volume-weighted physical norm (Parseval).

    Each interior bin of the halved axis stands for itself and its conjugate
    mirror, so it counts twice; its 0 and Nyquist bins count once."""
    power = np.abs(coeffs) ** 2
    total = float(np.sum(power))
    half = _halved_axis(grid)
    if half is not None:
        interior = [slice(None)] * 3
        interior[half] = slice(1, grid.dims[half] // 2)
        total += float(np.sum(power[tuple(interior)]))
    return float(np.sqrt(grid.cell_volume * total / grid.num_points))


def mode_coefficient(f: ScalarField, mode) -> complex:
    """Normalized DFT coefficient of one mode; for A*sin(x) the m=(1,0,0) value is -iA/2.

    A mode whose halved-axis index is negative is not stored; it is the
    conjugate of the stored mirrored mode -m."""
    coeffs = fftn_array(f.grid, f.values)
    dims = f.grid.dims
    idx = [int(m) % n for m, n in zip(mode, dims)]
    half = _halved_axis(f.grid)
    if half is not None and idx[half] > dims[half] // 2:
        mirrored = tuple(-int(m) % n for m, n in zip(mode, dims))
        return complex(np.conj(coeffs[mirrored]) / f.grid.num_points)
    return complex(coeffs[tuple(idx)] / f.grid.num_points)


# ---------------------------------------------------------------------------
# snapshot I/O
# ---------------------------------------------------------------------------

def atomic_write_bytes(path: Path, data: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# the component labels that a snapshot sidecar lists for each field kind
_LABELS = {
    ScalarField: [],
    VectorField: ["x", "y", "z"],
    TensorField: [f"{a}{b}" for a in "xyz" for b in "xyz"],
}


def _check_stem(name, meta_path: Path) -> None:
    """Reject a field name that would put `<name>.f64` outside its directory."""
    if not isinstance(name, str) or not name or Path(name).name != name:
        raise FieldError(f"{meta_path} lists {name!r}, which is not a plain file stem")


def _check_time(time, meta_path: Path) -> None:
    """Reject a snapshot time that is not a finite real number (nor a bool)."""
    if (isinstance(time, bool) or not isinstance(time, (int, float))
            or not math.isfinite(time)):
        raise FieldError(f"{meta_path} gives time {time!r}, which is not a finite number")


def write_snapshot(directory, fields, time: float) -> list[Path]:
    """Snapshot (name, field) pairs on one grid into `directory`.

    Each field goes to `<name>.f64`: its stacked values, components first, as
    raw little-endian f64 in C order, so a scalar's file is its grid values
    and a vector's is its x, y and z files joined.  One sidecar,
    `snapshot.json`, gives the grid, the time, the layout and the component
    labels of every field.  Every file is written atomically and the sidecar
    last, so a directory that has a sidecar is complete.  Fields on more than
    one grid, a name that is not a plain file stem or is repeated, and a time
    that is not a finite number are rejected before anything is written.
    """
    fields = list(fields)
    grids = {field.grid for _, field in fields}
    if len(grids) != 1:
        raise FieldError(f"a snapshot holds fields on one grid, got {grids}")
    grid = grids.pop()
    directory = Path(directory)
    meta_path = directory / "snapshot.json"
    names = [name for name, _ in fields]
    for name in names:
        _check_stem(name, meta_path)
    if len(set(names)) != len(names):
        raise FieldError(f"{meta_path} would list a field name twice: {names}")
    _check_time(time, meta_path)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, field in fields:
        data_path = directory / f"{name}.f64"
        atomic_write_bytes(
            data_path, np.ascontiguousarray(field.values, dtype="<f8").tobytes())
        written.append(data_path)
    sidecar = {
        "dims": list(grid.dims),
        "lengths": list(grid.lengths),
        "time": time,
        "layout": SNAPSHOT_LAYOUT,
        "fields": {name: _LABELS[type(field)] for name, field in fields},
    }
    atomic_write_text(meta_path, json.dumps(sidecar, sort_keys=True) + "\n")
    written.append(meta_path)
    return written


def read_snapshot(directory) -> tuple[dict[str, Field], dict]:
    """The fields of a snapshot directory by name, and its sidecar."""
    directory = Path(directory)
    meta_path = directory / "snapshot.json"
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as exc:
        raise FieldError(f"{meta_path} is not JSON: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("layout") != SNAPSHOT_LAYOUT:
        raise FieldError(f"{meta_path} is not a {SNAPSHOT_LAYOUT!r} sidecar")
    missing = sorted({"dims", "lengths", "time", "fields"} - meta.keys())
    if missing:
        raise FieldError(f"{meta_path} lacks {missing}")
    _check_time(meta["time"], meta_path)
    if not isinstance(meta["fields"], dict):
        raise FieldError(f"{meta_path} lists its fields as {meta['fields']!r}")
    try:
        grid = make_grid(meta["dims"], meta["lengths"])
    except (ValueError, TypeError) as exc:  # GridError included
        raise FieldError(f"{meta_path} gives no valid grid: {exc}") from exc
    fields = {}
    for name, labels in meta["fields"].items():
        _check_stem(name, meta_path)
        kind = next((k for k, known in _LABELS.items() if known == labels), None)
        if kind is None:
            raise FieldError(f"{meta_path} gives {name!r} unknown components {labels!r}")
        data_path = directory / f"{name}.f64"
        if not data_path.is_file():
            raise FieldError(f"{data_path} is listed in {meta_path} but missing")
        raw = data_path.read_bytes()
        shape = kind.COMPONENTS + grid.shape
        if len(raw) != 8 * math.prod(shape):
            raise FieldError(
                f"{data_path} holds {len(raw)} bytes, but {len(labels) or 1} "
                f"component(s) on dims {list(grid.dims)} need {8 * math.prod(shape)}"
            )
        fields[name] = kind(grid, np.frombuffer(raw, dtype="<f8").reshape(shape))
    return fields, meta
