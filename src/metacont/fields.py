"""Periodic structured-grid fields: containers, algebra, spectral layer, snapshots.

Everything in this package operates on double-precision fields sampled on a
uniform grid over the periodic box [0,Lx) x [0,Ly) x [0,Lz).  Fields are
immutable once constructed; all operations are pure functions returning new
fields and are deterministic for a fixed grid regardless of the FFT worker
count (set via the METACONT_THREADS environment variable).

A dimension of size 1 is inactive: derivatives along it vanish and it is
exempt from the even-and-at-least-4 rule.  2D runs are 3D grids with nz=1.

Spectral layout.  Every field is real, so the forward transform is the
real-to-complex `scipy.fft.rfftn` over the active axes and the inverse is
`irfftn`.  The last active axis keeps only its modes 0..n/2 (n//2 + 1
coefficients); the other active axes keep all n modes in FFT order.  The
missing modes are the complex conjugates of the stored ones, c(-m) =
conj(c(m)).  `GridSpec.spectral_shape` is the coefficient shape, and
`_mode_indices`, `angular_wavenumbers`, `dealias_mask`, `SpectralField`,
`spectral_norm_l2` and `mode_coefficient` all describe this one layout; no
other module knows which axis is halved.  A grid without an active axis is
its own (complex) coefficient array.

Nyquist convention.  The Nyquist mode |m| = n/2 of an active axis has no
sign, so `angular_wavenumbers` gives it k = 0 on every active axis: every
derivative annihilates it.  For a first derivative this is what a
complex-to-complex transform followed by `.real` yields; without it, `irfftn`
would keep the anti-Hermitian Nyquist part of i*k*c along the non-halved
axes.  Band-limited fields and dealiased products carry no Nyquist content,
so the convention shows only on full-band input.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy.fft

__all__ = [
    "GridError",
    "FieldError",
    "GridSpec",
    "make_grid",
    "ScalarField",
    "VectorField",
    "TensorField",
    "SpectralField",
    "axpy",
    "dot",
    "cross",
    "norm_l2",
    "norm_linf",
    "to_spectral",
    "from_spectral",
    "dealias",
    "dealias_field",
    "spectral_norm_l2",
    "mode_coefficient",
    "angular_wavenumbers",
    "dealias_mask",
    "write_snapshot",
    "read_snapshot_scalar",
    "read_snapshot_vector",
    "SNAPSHOT_LAYOUT",
]

SNAPSHOT_LAYOUT = "row-major-f64-le"


class GridError(ValueError):
    """Invalid grid construction."""


class FieldError(ValueError):
    """Invalid field construction or incompatible field operands."""


def _fft_workers() -> int:
    """FFT worker count, capped by METACONT_THREADS (default 1, deterministic)."""
    try:
        workers = int(os.environ.get("METACONT_THREADS", "1"))
    except ValueError:
        return 1
    return max(1, workers)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: point counts (nx,ny,nz) and box lengths (Lx,Ly,Lz)."""

    dims: tuple[int, int, int]
    lengths: tuple[float, float, float]

    def __post_init__(self):
        if len(tuple(self.dims)) != 3 or len(tuple(self.lengths)) != 3:
            raise GridError("dims and lengths must be triples")
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
def dealias_mask(grid: GridSpec) -> np.ndarray:
    """Two-thirds-rule mask: modes with |m_i| > n_i/3 in any active dim are zeroed."""
    mask = np.ones(grid.spectral_shape, dtype=bool)
    for m, n, active in zip(_mode_indices(grid), grid.dims, grid.active):
        if active:
            mask = mask & (np.abs(m) <= n / 3.0)
    mask.setflags(write=False)
    return mask


def fftn_array(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Forward real-to-complex DFT of a physical-space array (unnormalized),
    in the half-spectrum layout."""
    axes = _transform_axes(grid)
    if not axes:
        return values.astype(np.complex128)
    return scipy.fft.rfftn(values, axes=axes, workers=_fft_workers())


def ifftn_array(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Inverse complex-to-real DFT back to physical space, as an owned
    C-contiguous array."""
    axes = _transform_axes(grid)
    if not axes:
        return coeffs.real.copy()
    return scipy.fft.irfftn(coeffs, s=[grid.dims[i] for i in axes], axes=axes,
                            workers=_fft_workers())


def dealias_array(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Physical-space round trip through the two-thirds mask."""
    return ifftn_array(grid, fftn_array(grid, values) * dealias_mask(grid))


# ---------------------------------------------------------------------------
# field containers
# ---------------------------------------------------------------------------

def _check_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise FieldError(f"grid mismatch: {a.grid.dims} vs {b.grid.dims}")


@dataclass(frozen=True)
class ScalarField:
    """Real scalar samples on a grid; immutable, finite everywhere."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, order="C", copy=True)
        if arr.shape != self.grid.shape:
            raise FieldError(
                f"value shape {arr.shape} does not match grid {self.grid.shape}"
            )
        if not np.isfinite(arr).all():
            raise FieldError("scalar field contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def zeros(cls, grid: GridSpec) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def full(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    def __add__(self, other: "ScalarField") -> "ScalarField":
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            _check_same_grid(self, other)
            return ScalarField(self.grid, self.values * other.values)
        if isinstance(other, numbers.Real):
            return ScalarField(self.grid, self.values * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, numbers.Real):
            return ScalarField(self.grid, self.values / float(other))
        return NotImplemented

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, -self.values)


@dataclass(frozen=True)
class VectorField:
    """Three scalar components on a shared grid."""

    grid: GridSpec
    components: tuple[ScalarField, ScalarField, ScalarField]

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != 3:
            raise FieldError("vector field needs exactly three components")
        for c in comps:
            if not isinstance(c, ScalarField):
                raise FieldError("vector components must be ScalarField")
            if c.grid != self.grid:
                raise FieldError("vector components must share the grid")
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_arrays(cls, grid: GridSpec, arrays) -> "VectorField":
        ax, ay, az = arrays
        return cls(grid, (ScalarField(grid, ax), ScalarField(grid, ay),
                          ScalarField(grid, az)))

    @classmethod
    def zeros(cls, grid: GridSpec) -> "VectorField":
        return cls.from_arrays(grid, (np.zeros(grid.shape),) * 3)

    @property
    def x(self) -> ScalarField:
        return self.components[0]

    @property
    def y(self) -> ScalarField:
        return self.components[1]

    @property
    def z(self) -> ScalarField:
        return self.components[2]

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(c.values for c in self.components)

    def __add__(self, other: "VectorField") -> "VectorField":
        _check_same_grid(self, other)
        return VectorField.from_arrays(
            self.grid, tuple(a + b for a, b in zip(self.arrays(), other.arrays()))
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        _check_same_grid(self, other)
        return VectorField.from_arrays(
            self.grid, tuple(a - b for a, b in zip(self.arrays(), other.arrays()))
        )

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            _check_same_grid(self, other)
            return VectorField.from_arrays(
                self.grid, tuple(a * other.values for a in self.arrays())
            )
        if isinstance(other, numbers.Real):
            s = float(other)
            return VectorField.from_arrays(
                self.grid, tuple(a * s for a in self.arrays())
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, numbers.Real):
            return self * (1.0 / float(other))
        return NotImplemented

    def __neg__(self) -> "VectorField":
        return VectorField.from_arrays(self.grid, tuple(-a for a in self.arrays()))


@dataclass(frozen=True)
class TensorField:
    """Rank-2 field: nine scalar components T_ij, not assumed symmetric."""

    grid: GridSpec
    components: tuple[tuple[ScalarField, ScalarField, ScalarField], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.components)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise FieldError("tensor field needs a 3x3 component layout")
        for row in rows:
            for c in row:
                if not isinstance(c, ScalarField):
                    raise FieldError("tensor components must be ScalarField")
                if c.grid != self.grid:
                    raise FieldError("tensor components must share the grid")
        object.__setattr__(self, "components", rows)

    @classmethod
    def from_arrays(cls, grid: GridSpec, rows) -> "TensorField":
        return cls(grid, tuple(
            tuple(ScalarField(grid, a) for a in row) for row in rows
        ))

    @classmethod
    def zeros(cls, grid: GridSpec) -> "TensorField":
        z = np.zeros(grid.shape)
        return cls.from_arrays(grid, ((z, z, z),) * 3)

    @classmethod
    def identity(cls, grid: GridSpec) -> "TensorField":
        one = np.ones(grid.shape)
        zero = np.zeros(grid.shape)
        return cls.from_arrays(
            grid, ((one, zero, zero), (zero, one, zero), (zero, zero, one))
        )

    def component(self, i: int, j: int) -> ScalarField:
        return self.components[i][j]

    def array(self, i: int, j: int) -> np.ndarray:
        return self.components[i][j].values

    def transpose(self) -> "TensorField":
        return TensorField(self.grid, tuple(
            tuple(self.components[j][i] for j in range(3)) for i in range(3)
        ))

    def __add__(self, other: "TensorField") -> "TensorField":
        _check_same_grid(self, other)
        return TensorField.from_arrays(self.grid, tuple(
            tuple(self.array(i, j) + other.array(i, j) for j in range(3))
            for i in range(3)
        ))

    def __sub__(self, other: "TensorField") -> "TensorField":
        _check_same_grid(self, other)
        return TensorField.from_arrays(self.grid, tuple(
            tuple(self.array(i, j) - other.array(i, j) for j in range(3))
            for i in range(3)
        ))

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            _check_same_grid(self, other)
            return TensorField.from_arrays(self.grid, tuple(
                tuple(self.array(i, j) * other.values for j in range(3))
                for i in range(3)
            ))
        if isinstance(other, numbers.Real):
            s = float(other)
            return TensorField.from_arrays(self.grid, tuple(
                tuple(self.array(i, j) * s for j in range(3)) for i in range(3)
            ))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "TensorField":
        return TensorField.from_arrays(self.grid, tuple(
            tuple(-self.array(i, j) for j in range(3)) for i in range(3)
        ))


Field = ScalarField | VectorField | TensorField


def _component_arrays(f: Field) -> list[np.ndarray]:
    if isinstance(f, ScalarField):
        return [f.values]
    if isinstance(f, VectorField):
        return list(f.arrays())
    if isinstance(f, TensorField):
        return [f.array(i, j) for i in range(3) for j in range(3)]
    raise FieldError(f"not a field: {type(f)!r}")


def _rebuild_like(f: Field, arrays: list[np.ndarray]) -> Field:
    if isinstance(f, ScalarField):
        return ScalarField(f.grid, arrays[0])
    if isinstance(f, VectorField):
        return VectorField.from_arrays(f.grid, tuple(arrays))
    return TensorField.from_arrays(f.grid, tuple(
        tuple(arrays[3 * i + j] for j in range(3)) for i in range(3)
    ))


# ---------------------------------------------------------------------------
# field algebra
# ---------------------------------------------------------------------------

def axpy(a: float, x: Field, y: Field) -> Field:
    """a*x + y for fields of the same rank on the same grid."""
    if type(x) is not type(y):
        raise FieldError("axpy operands must have the same rank")
    _check_same_grid(x, y)
    a = float(a)
    return _rebuild_like(
        x, [a * xa + ya for xa, ya in zip(_component_arrays(x), _component_arrays(y))]
    )


def dot(v: VectorField, w: VectorField) -> ScalarField:
    """Pointwise inner product of two vector fields."""
    _check_same_grid(v, w)
    va, wa = v.arrays(), w.arrays()
    return ScalarField(v.grid, va[0] * wa[0] + va[1] * wa[1] + va[2] * wa[2])


def cross(v: VectorField, w: VectorField) -> VectorField:
    """Pointwise cross product v x w."""
    _check_same_grid(v, w)
    (vx, vy, vz), (wx, wy, wz) = v.arrays(), w.arrays()
    return VectorField.from_arrays(v.grid, (
        vy * wz - vz * wy,
        vz * wx - vx * wz,
        vx * wy - vy * wx,
    ))


def norm_l2(f: Field) -> float:
    """Volume-weighted discrete L2 norm over all components."""
    total = 0.0
    for arr in _component_arrays(f):
        total += float(np.sum(arr * arr))
    return float(np.sqrt(f.grid.cell_volume * total))


def norm_linf(f: Field) -> float:
    """Maximum absolute value over all components."""
    return max(float(np.max(np.abs(arr))) for arr in _component_arrays(f))


# ---------------------------------------------------------------------------
# spectral layer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralField:
    """Complex DFT coefficients of a real scalar field (unnormalized forward
    transform) in the half-spectrum layout: `coeffs` has the grid's
    `spectral_shape`, the last active axis holding modes 0..n/2 only."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.complex128, order="C", copy=True)
        if arr.shape != self.grid.spectral_shape:
            raise FieldError(
                f"coefficient shape {arr.shape} does not match the spectral "
                f"shape {self.grid.spectral_shape} of grid {self.grid.shape}"
            )
        if not np.isfinite(arr).all():
            raise FieldError("spectral field contains non-finite coefficients")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)


def to_spectral(f: ScalarField) -> SpectralField:
    """Forward DFT of a scalar field."""
    return SpectralField(f.grid, fftn_array(f.grid, f.values))


def from_spectral(sf: SpectralField) -> ScalarField:
    """Inverse DFT; imaginary round-off is discarded."""
    return ScalarField(sf.grid, ifftn_array(sf.grid, sf.coeffs))


def dealias(sf: SpectralField) -> SpectralField:
    """Zero every mode with |m_i| > n_i/3 in any active dimension."""
    return SpectralField(sf.grid, sf.coeffs * dealias_mask(sf.grid))


def dealias_field(f: Field) -> Field:
    """Physical-space dealiasing of any-rank field (round trip through the mask)."""
    return _rebuild_like(
        f, [dealias_array(f.grid, arr) for arr in _component_arrays(f)]
    )


def spectral_norm_l2(sf: SpectralField) -> float:
    """Coefficient L2 norm matching the volume-weighted physical norm (Parseval).

    Each interior bin of the halved axis stands for itself and its conjugate
    mirror, so it counts twice; its 0 and Nyquist bins count once."""
    power = np.abs(sf.coeffs) ** 2
    total = float(np.sum(power))
    half = _halved_axis(sf.grid)
    if half is not None:
        interior = [slice(None)] * 3
        interior[half] = slice(1, sf.grid.dims[half] // 2)
        total += float(np.sum(power[tuple(interior)]))
    return float(np.sqrt(sf.grid.cell_volume * total / sf.grid.num_points))


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


_TENSOR_LABELS = tuple(f"{a}{b}" for a in "xyz" for b in "xyz")


def _component_items(field: Field) -> list[tuple[str, np.ndarray]]:
    if isinstance(field, ScalarField):
        return [("", field.values)]
    if isinstance(field, VectorField):
        return list(zip(("x", "y", "z"), field.arrays()))
    return list(zip(_TENSOR_LABELS, _component_arrays(field)))


def write_snapshot(field: Field, directory, field_name: str, time: float) -> list[Path]:
    """One raw little-endian f64 file per scalar component plus a JSON sidecar."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for label, arr in _component_items(field):
        stem = f"{field_name}_{label}" if label else field_name
        data_path = directory / f"{stem}.f64"
        atomic_write_bytes(data_path, np.ascontiguousarray(arr, dtype="<f8").tobytes())
        sidecar = {
            "dims": list(field.grid.dims),
            "lengths": list(field.grid.lengths),
            "field_name": field_name,
            "component": label,
            "time": time,
            "layout": SNAPSHOT_LAYOUT,
        }
        meta_path = directory / f"{stem}.json"
        atomic_write_text(meta_path, json.dumps(sidecar, sort_keys=True) + "\n")
        written.extend([data_path, meta_path])
    return written


def _read_component(directory: Path, stem: str) -> tuple[ScalarField, dict]:
    meta = json.loads((directory / f"{stem}.json").read_text())
    if meta.get("layout") != SNAPSHOT_LAYOUT:
        raise FieldError(f"unsupported snapshot layout: {meta.get('layout')!r}")
    grid = make_grid(meta["dims"], meta["lengths"])
    raw = (directory / f"{stem}.f64").read_bytes()
    values = np.frombuffer(raw, dtype="<f8").reshape(grid.shape)
    return ScalarField(grid, values), meta


def read_snapshot_scalar(directory, field_name: str) -> tuple[ScalarField, dict]:
    return _read_component(Path(directory), field_name)


def read_snapshot_vector(directory, field_name: str) -> tuple[VectorField, dict]:
    directory = Path(directory)
    comps, meta = [], None
    for label in ("x", "y", "z"):
        c, meta = _read_component(directory, f"{field_name}_{label}")
        comps.append(c)
    return VectorField(comps[0].grid, tuple(comps)), meta
