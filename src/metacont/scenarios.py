"""Initial-condition generators and the analytic oracles the tests verify against.

Scenario kinds
--------------
- ``plane_shear_wave``     right-travelling transverse wave: v = A p cos(k.x),
                           E = -mu c |k| A p sin(k.x)
- ``standing_shear_wave``  v = A p sin(k.x), E = 0
- ``gaussian_vortex``      velocity from the curl of a Gaussian streamfunction
- ``random_solenoidal``    seeded band-limited noise (|m_i| <= n_i/6), velocity
                           Leray-projected; E is band-limited noise with a
                           generally nonzero divergence so the metacharge laws
                           have content
- ``compression_pulse``    longitudinal displacement u = A sin(k.x) khat, v = 0
- ``uniform_E_decay``      longitudinal stress E = A sin(k.x) khat with v = 0;
                           E is a pure gradient, so the projection keeps v = 0
                           and E decays at exactly exp(-kappa t)

Every generated state carries v, E, u (zero unless the scenario defines them)
and mu_field = mu, so any governing system can consume it.  A pressure is
not state: the fi right-hand side returns it with its rates.

Oracles
-------
`wave_oracle` decides which spectral mode of a scenario run by a system is
measured, and what its analytic oracle says: the mode of v along the
polarization for the shear kinds, of v along khat (w = c_s k) for
``compression_pulse``, of E along khat (decay rate kappa) for
``uniform_E_decay``.  kappa enters only for the systems that integrate it.
Eliminating the stress vector for solenoidal plane waves turns the coupled
first-order system into the telegraph equation

    mu v_tt + kappa mu v_t = eta lap v,

whose plane-wave roots solve mu w^2 + i kappa mu w - eta k^2 = 0, i.e.
w = -i kappa/2 +/- sqrt(c^2 k^2 - kappa^2 / 4).  The roots returned by
`dispersion_shear` are verified against an independent polynomial root finder
in the test suite before being used as expected values anywhere.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .diffops import curl, leray_project
from .dynamics import SYSTEMS, FluidState, MediumParams
from .fields import (
    GridSpec,
    ScalarField,
    VectorField,
    dealias_mask,
    fftn_array,
    ifftn_array,
    mode_coefficient,
    norm_linf,
    _is_integer,
)

__all__ = [
    "ScenarioError",
    "FitError",
    "ScenarioSpec",
    "SCENARIO_KINDS",
    "band_limited_noise",
    "generate",
    "ShearDispersion",
    "dispersion_shear",
    "dispersion_compressional",
    "WaveOracle",
    "wave_oracle",
    "WaveMeasurement",
    "measure_wave",
    "trim_uniform",
]

SCENARIO_KINDS = (
    "plane_shear_wave",
    "standing_shear_wave",
    "gaussian_vortex",
    "random_solenoidal",
    "compression_pulse",
    "uniform_E_decay",
)

_SHEAR_KINDS = frozenset({"plane_shear_wave", "standing_shear_wave"})
_WAVE_KINDS = _SHEAR_KINDS | {"compression_pulse", "uniform_E_decay"}
RANDOM_BAND_FRACTION = 1.0 / 6.0
# Gaussian vortex width relative to the shorter in-plane box side
_VORTEX_WIDTH = 0.125


class ScenarioError(ValueError):
    """Invalid scenario specification."""


class FitError(RuntimeError):
    """Wave measurement could not be performed."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Descriptor of an initial condition.

    polarization is required for the shear kinds and must be orthogonal to
    the wavevector; it is normalized on construction.  seed only matters for
    the random kinds.
    """

    kind: str
    amplitude: float
    wavevector: tuple[int, int, int] = (1, 0, 0)
    polarization: tuple[float, float, float] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ScenarioError(f"unknown scenario kind {self.kind!r}")
        if not np.isfinite(self.amplitude):
            raise ScenarioError("amplitude must be finite")
        wv = tuple(self.wavevector)
        if len(wv) != 3 or not all(_is_integer(m) for m in wv):
            raise ScenarioError(f"wavevector must be an integer triple, got {wv!r}")
        wv = tuple(int(m) for m in wv)
        if self.kind in _WAVE_KINDS and wv == (0, 0, 0):
            raise ScenarioError(f"{self.kind} needs a nonzero wavevector")
        object.__setattr__(self, "wavevector", wv)
        if not _is_integer(self.seed):
            raise ScenarioError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ScenarioError(f"seed must be >= 0, got {self.seed}")
        if self.kind in _SHEAR_KINDS:
            if self.polarization is None:
                raise ScenarioError(f"{self.kind} needs a polarization vector")
            pol = np.asarray(self.polarization, dtype=float)
            if pol.shape != (3,) or not np.isfinite(pol).all():
                raise ScenarioError("polarization must be a finite real triple")
            norm = float(np.linalg.norm(pol))
            if norm == 0.0:
                raise ScenarioError("polarization must be nonzero")
            pol = pol / norm
            object.__setattr__(self, "polarization", tuple(float(p) for p in pol))


def _physical_wavevector(spec: ScenarioSpec, grid: GridSpec) -> np.ndarray:
    return np.array([
        2.0 * np.pi * m / L for m, L in zip(spec.wavevector, grid.lengths)
    ])


def _check_orthogonal(spec: ScenarioSpec, grid: GridSpec) -> np.ndarray:
    k = _physical_wavevector(spec, grid)
    pol = np.asarray(spec.polarization)
    if abs(float(k @ pol)) > 1e-12 * np.linalg.norm(k):
        raise ScenarioError(
            f"polarization {spec.polarization} is not orthogonal to the "
            f"wavevector {spec.wavevector} on this box"
        )
    return k


def _phase_array(grid: GridSpec, k: np.ndarray) -> np.ndarray:
    x, y, z = grid.coordinates()
    return k[0] * x + k[1] * y + k[2] * z


def _directional_wave(grid: GridSpec, k: np.ndarray, direction: np.ndarray,
                      profile) -> VectorField:
    shape = grid.shape
    wave = profile(_phase_array(grid, k))
    return VectorField(grid, [np.broadcast_to(d * wave, shape) for d in direction])


def band_limited_noise(grid: GridSpec, rng, fraction: float = RANDOM_BAND_FRACTION,
                       shape: tuple[int, ...] = (),
                       peak: float | None = None) -> np.ndarray:
    """Seeded zero-mean noise of shape `shape + grid.shape` that keeps only the
    modes with |m_i| <= n_i * fraction along the active axes.

    rng is a numpy Generator or a seed.  The standard normals of all the
    `shape` components are drawn in one call, in C order.  With `peak`, the
    result is scaled so that its largest magnitude is `peak`.
    """
    rng = np.random.default_rng(rng)
    coeffs = (fftn_array(grid, rng.standard_normal(tuple(shape) + grid.shape))
              * dealias_mask(grid, fraction))
    coeffs[..., 0, 0, 0] = 0.0
    out = ifftn_array(grid, coeffs)
    largest = float(np.max(np.abs(out)))
    return out * (peak / largest) if peak is not None and largest > 0.0 else out


def _scaled_to_peak(field: VectorField, amplitude: float) -> VectorField:
    peak = norm_linf(field)
    if peak == 0.0:
        return field
    return field * (amplitude / peak)


def generate(spec: ScenarioSpec, grid: GridSpec, params: MediumParams) -> FluidState:
    """Initial state for a scenario; solenoidal v for the incompressible kinds."""
    zeros_v = VectorField.zeros(grid)
    v, E, u = zeros_v, zeros_v, zeros_v

    if spec.kind == "plane_shear_wave":
        k = _check_orthogonal(spec, grid)
        pol = np.asarray(spec.polarization)
        kmag = float(np.linalg.norm(k))
        v = _directional_wave(grid, k, spec.amplitude * pol, np.cos)
        E = _directional_wave(
            grid, k, -params.mu * params.c * kmag * spec.amplitude * pol, np.sin
        )
    elif spec.kind == "standing_shear_wave":
        k = _check_orthogonal(spec, grid)
        pol = np.asarray(spec.polarization)
        v = _directional_wave(grid, k, spec.amplitude * pol, np.sin)
    elif spec.kind == "gaussian_vortex":
        x, y, _ = grid.coordinates()
        lx, ly = grid.lengths[0], grid.lengths[1]
        w = _VORTEX_WIDTH * min(lx, ly)
        bump = np.exp(-((x - lx / 2) ** 2 + (y - ly / 2) ** 2) / (2.0 * w * w))
        zero = np.zeros(grid.shape)
        stream = VectorField(grid, (zero, zero, np.broadcast_to(bump, grid.shape)))
        v = _scaled_to_peak(curl(stream), spec.amplitude)
    elif spec.kind == "random_solenoidal":
        rng = np.random.default_rng(spec.seed)
        raw = VectorField(grid, band_limited_noise(grid, rng, shape=(3,)))
        v = _scaled_to_peak(leray_project(raw).solenoidal, spec.amplitude)
        E = VectorField(grid, band_limited_noise(grid, rng, shape=(3,),
                                                 peak=spec.amplitude))
    elif spec.kind == "compression_pulse":
        k = _physical_wavevector(spec, grid)
        khat = k / np.linalg.norm(k)
        u = _directional_wave(grid, k, spec.amplitude * khat, np.sin)
    elif spec.kind == "uniform_E_decay":
        k = _physical_wavevector(spec, grid)
        khat = k / np.linalg.norm(k)
        E = _directional_wave(grid, k, spec.amplitude * khat, np.sin)

    return FluidState(
        time=0.0,
        v=v,
        E=E,
        mu_field=ScalarField.full(grid, params.mu),
        u=u,
    )


# ---------------------------------------------------------------------------
# dispersion oracles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShearDispersion:
    """Roots of mu w^2 + i kappa mu w - eta k^2 = 0 (time convention e^{-iwt})."""

    omega_plus: complex
    omega_minus: complex
    regime: str  # underdamped | critical | overdamped

    @property
    def frequency(self) -> float:
        """Oscillation frequency |Re w| of the upper root."""
        return abs(self.omega_plus.real)

    @property
    def decay_rate(self) -> float:
        """Attenuation -Im w of the upper root (kappa/2 when underdamped)."""
        return -self.omega_plus.imag


def dispersion_shear(k_mag: float, params: MediumParams) -> ShearDispersion:
    """Telegraph-equation roots for a solenoidal shear mode of magnitude k."""
    if not k_mag > 0:
        raise ValueError(f"k_mag must be positive, got {k_mag}")
    half_kappa = params.kappa / 2.0
    discriminant = (params.c * k_mag) ** 2 - half_kappa ** 2
    if discriminant > 0.0:
        root = math.sqrt(discriminant)
        return ShearDispersion(
            omega_plus=complex(root, -half_kappa),
            omega_minus=complex(-root, -half_kappa),
            regime="underdamped",
        )
    if discriminant == 0.0:
        w = complex(0.0, -half_kappa)
        return ShearDispersion(w, w, "critical")
    s = math.sqrt(-discriminant)
    return ShearDispersion(
        omega_plus=complex(0.0, -(half_kappa - s)),
        omega_minus=complex(0.0, -(half_kappa + s)),
        regime="overdamped",
    )


def dispersion_compressional(k_mag: float, params: MediumParams) -> tuple[float, float]:
    """Compressional plane-wave frequencies +/- c_s k of the linear solid branch."""
    if not k_mag > 0:
        raise ValueError(f"k_mag must be positive, got {k_mag}")
    w = params.c_s * k_mag
    return (w, -w)


@dataclass(frozen=True)
class WaveOracle:
    """The spectral mode a wave scenario is measured on, and its oracle.

    The mode is the `wavevector` coefficient of the state's `field`, weighted
    by `direction` over the x, y, z components; k_mag is |k| on the box.  The
    oracle is a `law` name, a frequency, a decay rate and a regime.
    """

    field: str
    wavevector: tuple[int, int, int]
    direction: tuple[float, float, float]
    k_mag: float
    law: str
    frequency: float
    decay_rate: float
    regime: str

    @property
    def phase_speed(self) -> float:
        return self.frequency / self.k_mag

    def sample(self, state) -> complex:
        """The measured mode's coefficient in `state`."""
        # each coefficient costs a transform: skip the zero weights, whose
        # terms add exactly nothing
        field = getattr(state, self.field)
        return sum(
            d * mode_coefficient(c, self.wavevector)
            for d, c in zip(self.direction, (field.x, field.y, field.z)) if d != 0.0
        )

    def summary(self) -> dict:
        return {"law": self.law, "frequency": self.frequency,
                "phase_speed": self.phase_speed, "decay_rate": self.decay_rate,
                "regime": self.regime}

    def errors(self, m: WaveMeasurement) -> dict:
        """Relative errors of a measurement against the nonzero oracle values."""
        out = {}
        if self.frequency > 0:
            out["phase_speed_rel_error"] = (
                abs(m.phase_speed - self.phase_speed) / self.phase_speed)
        if self.decay_rate > 0:
            out["decay_rate_rel_error"] = (
                abs(m.decay_rate - self.decay_rate) / self.decay_rate)
        return out


def wave_oracle(spec: ScenarioSpec, grid: GridSpec, params: MediumParams,
                system: str) -> WaveOracle | None:
    """The measured mode and oracle of `spec` run by `system`, or None when
    the scenario has no wave oracle or the system does not advance the field
    its mode is read from (the classical state has no v)."""
    if spec.kind not in _WAVE_KINDS:
        return None
    record = SYSTEMS[system]
    field = "E" if spec.kind == "uniform_E_decay" else "v"
    if field not in record.fields:
        return None
    if not record.uses_kappa:
        params = dataclasses.replace(params, kappa=0.0)
    k = _physical_wavevector(spec, grid)
    k_mag = float(np.linalg.norm(k))
    direction = tuple(k / k_mag)
    if spec.kind in _SHEAR_KINDS:
        direction = spec.polarization
        disp = dispersion_shear(k_mag, params)
        law = ("shear_dispersion", disp.frequency, disp.decay_rate, disp.regime)
    elif spec.kind == "compression_pulse":
        law = ("compressional_dispersion",
               dispersion_compressional(k_mag, params)[0], 0.0, "underdamped")
    else:
        law = ("stress_attenuation", 0.0, params.kappa, "decay")
    return WaveOracle(field, spec.wavevector, direction, k_mag, *law)


# ---------------------------------------------------------------------------
# wave measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveMeasurement:
    """Damped-oscillation fit of a single spectral mode's time series.

    valid is False when the fit residual exceeds 1% of the signal peak;
    degenerate is True when less than a quarter oscillation was observed
    (the frequency estimate is then meaningless, the decay rate may still
    be useful).
    """

    omega: float
    phase_speed: float
    decay_rate: float
    fit_residual: float
    valid: bool
    degenerate: bool


def trim_uniform(times, values):
    """Longest uniformly sampled prefix (drops a shortened final sample)."""
    t = np.asarray(times, dtype=float)
    s = np.asarray(values)
    if len(t) < 2:
        return t, s
    dt = t[1] - t[0]
    n = len(t)
    for i in range(2, len(t)):
        if abs((t[i] - t[i - 1]) - dt) > 1e-9 * max(abs(dt), 1.0):
            n = i
            break
    return t[:n], s[:n]


def measure_wave(times, values, k_mag: float = 1.0) -> WaveMeasurement:
    """Fit A e^{-gamma t} cos(w t + phi) to a spectral-mode series.

    Uniform sampling is required (use `trim_uniform` when the final step of a
    run was shortened); recommended input is at least 32 samples spanning two
    oscillation periods.  One linear-prediction fit, s[n+2] = a s[n+1] +
    b s[n] with real a and b over the real and imaginary parts together,
    gives two roots: a conjugate pair for a standing damped cosine, z and its
    conjugate for a rotating mode c z^n (both of its parts obey the real
    recurrence), two real roots for decays.  The amplitudes of the roots are
    fitted by least squares and the root with the largest amplitude is
    reported, with its frequency made non-negative.  The fit is
    deterministic; a singular fit raises FitError instead of silently
    returning defaults.
    """
    t = np.asarray(times, dtype=float)
    s = np.asarray(values, dtype=complex)
    if t.shape != s.shape or t.ndim != 1:
        raise FitError("times and values must be 1-D arrays of equal length")
    if len(t) < 8:
        raise FitError(f"need at least 8 samples, got {len(t)}")
    dt = float(t[1] - t[0])
    if dt <= 0 or np.max(np.abs(np.diff(t) - dt)) > 1e-9 * max(abs(dt), 1.0):
        raise FitError("series must be uniformly sampled in time")

    span = float(t[-1] - t[0])
    scale = float(np.max(np.abs(s)))
    if scale == 0.0:
        return WaveMeasurement(0.0, 0.0, 0.0, 0.0, True, True)
    if float(np.max(np.abs(s - s.mean()))) < 1e-13 * scale:
        # constant series: frequency unidentifiable
        return WaveMeasurement(0.0, 0.0, 0.0, 0.0, True, True)

    lhs = np.concatenate([s[2:].real, s[2:].imag])
    col1 = np.concatenate([s[1:-1].real, s[1:-1].imag])
    col2 = np.concatenate([s[:-2].real, s[:-2].imag])
    try:
        ab, *_ = np.linalg.lstsq(np.stack([col1, col2], axis=1), lhs, rcond=None)
        roots = [complex(r) for r in np.roots([1.0, -ab[0], -ab[1]])
                 if np.isfinite(r) and abs(r) > 0]
        if len(roots) == 2 and abs(roots[0] - roots[1]) <= 1e-12 * max(map(abs, roots)):
            roots = roots[:1]  # a double root spans one exponential
        if not roots:
            raise FitError("no usable linear-prediction root for this series")
        basis = np.stack([r ** np.arange(len(s)) for r in roots], axis=1)
        amplitudes, *_ = np.linalg.lstsq(basis, s, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"linear-prediction fit failed: {exc}") from exc
    fit_residual = float(np.sqrt(np.mean(np.abs(s - basis @ amplitudes) ** 2)))
    z = roots[int(np.argmax(np.abs(amplitudes)))]
    omega = abs(cmath.phase(z)) / dt
    return WaveMeasurement(
        omega=omega,
        phase_speed=omega / k_mag,
        decay_rate=-math.log(abs(z)) / dt,
        fit_residual=fit_residual,
        valid=fit_residual <= 0.01 * scale,
        degenerate=omega * span < math.pi / 2.0,
    )
