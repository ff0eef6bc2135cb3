"""Governing systems and their time integration.

Systems
-------
- ``linear_navier``          linear compressible elastodynamics in (u, v):
      mu v_t = (lam + 2 eta) grad(div u) - eta curl(curl u),   u_t = v
- ``fi_incompressible``      frame-indifferent incompressible elastic fluid in (v, E):
      mu (v_t + v.grad v) = -grad p - E,       div v = 0,
      E_t + v.grad E - E.grad v + (div v) E + kappa E = eta curl(curl v)
  where E is the negative shear-stress vector.  The pressure is realized by
  the Leray projection of the momentum right-hand side, so div v = 0 holds
  discretely at every stage.
- ``second_order``           the stress-eliminated form in (v, v_t):
      mu v_tt + 2 mu (v.grad) v_t + (vv) grad grad v = -(pressure-gradient rate) + eta lap v
  with the pressure-gradient rate realized implicitly by projecting v_tt.
- ``compressible_liquid`` / ``compressible_solid``   slightly compressible
  extension in (v, E, mu_field[, u]); the dilational stress is
  (nu + 2 zeta) div v (liquid) or (lam + 2 eta) div u (solid), and the density
  obeys mu_t = -v.grad mu - mu div v.
- ``classical_maxwell``      reference linear evolution in (E, B):
      B_t = -curl E,   E_t = c^2 curl B.

The fi and compressible systems share one pseudo-spectral core (`_Core`):
v and E are transformed once, only derivatives along active axes are
inverse-transformed, the advection (v.grad)v and the convected bracket
v.grad E - E.grad v + (div v) E are formed in physical space and dealiased
with one forward transform each, and the linear terms (Leray projection,
eta curl(curl v), the dilational gradient, kappa E) stay in spectral space.

Each system is one `System` record in the `SYSTEMS` table, keyed by its
name: the state fields it advances and their rates, its RHS, the fields
projected after each step, its CFL speed, its law report, its initial-state
builder and the scenario kinds it accepts.  `step`, `integrate` and the
runner read only the record, so adding a system means adding one record.

Time stepping is a fixed four-stage explicit Runge-Kutta scheme; for the
incompressible systems the velocity is re-projected after each step so the
solenoidality invariant holds to round-off along the whole trajectory.
The systems are hyperbolic; kappa of order 1 adds mild attenuation, while
kappa*dt beyond the explicit stability range is rejected rather than treated
implicitly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import emlaws
from .diffops import (
    _contract,
    _curl_curl_hat,
    _leray_hat,
    curl,
    curl_curl,
    div,
    divergence_tensor,
    double_advection,
    grad,
    grad_vector,
    laplacian,
    leray_project,
    vector_advection,
)
from .fields import (
    FieldError,
    ScalarField,
    TensorField,
    VectorField,
    _k_vector,
    angular_wavenumbers,
    dealias_array,
    dealias_mask,
    fftn_array,
    ifftn_array,
    norm_linf,
)

__all__ = [
    "MediumParams",
    "FluidState",
    "MaxwellState",
    "SecondOrderState",
    "StepControl",
    "SolenoidalityError",
    "DensityError",
    "StepSizeError",
    "IntegrationError",
    "NavierRates",
    "FiRates",
    "SecondOrderRates",
    "CompressibleRates",
    "MaxwellRates",
    "upper_convected_vector",
    "upper_convected_tensor",
    "oldroyd_discrepancy",
    "rhs_linear_navier",
    "rhs_fi_incompressible",
    "rhs_second_order",
    "rhs_compressible",
    "rhs_classical_maxwell",
    "step",
    "integrate",
    "auto_step_size",
    "System",
    "SYSTEMS",
]

DIV_INPUT_TOL = 1e-9          # L-inf bound on div v accepted by the RHS
KAPPA_DT_LIMIT = 2.0          # explicit stability range for the attenuation term


class SolenoidalityError(ValueError):
    """Input velocity (or velocity rate) is not divergence-free."""


class DensityError(ValueError):
    """Density field lost positivity."""


class StepSizeError(ValueError):
    """Step control produced an unusable dt (e.g. kappa*dt too stiff)."""


class IntegrationError(RuntimeError):
    """A step failed; carries the last accepted state for diagnostics."""

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


# ---------------------------------------------------------------------------
# parameters and states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MediumParams:
    """Constitutive constants of the medium.

    mu     mass density
    eta    apparent shear modulus (eta = zeta / tau)
    lam    dilational Lame coefficient
    kappa  conductivity (linear attenuation of the stress vector)
    tau    stress relaxation time
    zeta   elastic viscosity; derived as eta * tau when omitted
    nu     dilational viscosity (liquid dilational branch)

    Derived: c = sqrt(eta/mu), c_s = sqrt((2 eta + lam)/mu),
    delta = eta / (2 eta + lam) = c^2 / c_s^2 in (0, 1/2].
    """

    mu: float = 1.0
    eta: float = 1.0
    lam: float = 0.0
    kappa: float = 0.0
    tau: float = 1.0
    zeta: float | None = None
    nu: float = 0.0

    def __post_init__(self):
        for name in ("mu", "eta", "lam", "kappa", "tau", "zeta", "nu"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.lam < 0:
            raise ValueError(f"lam must be non-negative, got {self.lam}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be non-negative, got {self.kappa}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.nu < 0:
            raise ValueError(f"nu must be non-negative, got {self.nu}")
        if self.zeta is None:
            object.__setattr__(self, "zeta", self.eta * self.tau)
        else:
            if self.zeta < 0:
                raise ValueError(f"zeta must be non-negative, got {self.zeta}")
            if abs(self.eta - self.zeta / self.tau) > 1e-12 * max(self.eta, 1.0):
                raise ValueError(
                    f"inconsistent moduli: eta={self.eta} but zeta/tau="
                    f"{self.zeta / self.tau}"
                )

    @property
    def c(self) -> float:
        """Shear wave speed."""
        return float(np.sqrt(self.eta / self.mu))

    @property
    def c_s(self) -> float:
        """Compressional wave speed."""
        return float(np.sqrt((2.0 * self.eta + self.lam) / self.mu))

    @property
    def delta(self) -> float:
        """Shear-to-compressional modulus ratio, c^2/c_s^2."""
        return self.eta / (2.0 * self.eta + self.lam)


@dataclass(frozen=True)
class FluidState:
    """Evolving unknowns of the fluid systems.

    v is always present; E (negative shear-stress vector) and p (pressure from
    the projection) belong to the incompressible/compressible systems;
    mu_field and u belong to the compressible ones (u only on the solid
    dilational branch, where v = du/dt).
    """

    time: float
    v: VectorField
    E: VectorField | None = None
    p: ScalarField | None = None
    mu_field: ScalarField | None = None
    u: VectorField | None = None


@dataclass(frozen=True)
class MaxwellState:
    """State of the classical reference system."""

    time: float
    E: VectorField
    B: VectorField


@dataclass(frozen=True)
class SecondOrderState:
    """State of the stress-eliminated second-order system."""

    time: float
    v: VectorField
    v_t: VectorField


@dataclass(frozen=True)
class StepControl:
    """Time-step control: fixed dt or 'auto' (cfl * h_min / (c_max + |v|_max))."""

    t_end: float
    dt: float | str = "auto"
    cfl: float = 0.4

    def __post_init__(self):
        if isinstance(self.dt, str):
            if self.dt != "auto":
                raise StepSizeError(f"dt must be positive or 'auto', got {self.dt!r}")
        elif not (self.dt > 0 and math.isfinite(self.dt)):
            raise StepSizeError(f"dt must be positive and finite, got {self.dt}")
        if not (0.0 < self.cfl <= 1.0):
            raise StepSizeError(f"cfl must be in (0, 1], got {self.cfl}")
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise StepSizeError(f"t_end must be positive and finite, got {self.t_end}")


# ---------------------------------------------------------------------------
# Oldroyd (upper-convected) rates
# ---------------------------------------------------------------------------

def upper_convected_vector(E: VectorField, v: VectorField,
                           dE_partial: VectorField | None) -> VectorField:
    """Upper-convected rate of a vector density:
    dE_partial + v.grad E - E.grad v + (div v) E, products dealiased."""
    core = _Core(v, E)
    out = VectorField._wrap(v.grid, np.stack(
        [core.physical(core.products(j)[1]) for j in range(3)]))
    return out if dE_partial is None else dE_partial + out


def upper_convected_tensor(sigma: TensorField, v: VectorField,
                           dsigma_partial: TensorField | None) -> TensorField:
    """Upper-convected rate of a rank-2 density:
    dsigma_partial + v.grad sigma - sigma grad v - (grad v)^T sigma + sigma div v,
    with (grad v)_ij = d_i v_j and all products dealiased."""
    g = sigma.grid
    s = sigma.values
    gv = grad_vector(v).values
    divv = gv[0, 0] + gv[1, 1] + gv[2, 2]
    conv = _contract(g, v.values, 1j * _k_vector(g), s)
    lower = np.sum(s[:, :, None] * gv[None], axis=1)      # sum_k s_ik gv_kj
    upper = np.sum(gv[:, :, None] * s[:, None], axis=0)   # sum_k gv_ki s_kj
    out = TensorField._wrap(g, dealias_array(g, conv - lower - upper + s * divv))
    if dsigma_partial is None:
        return out
    return dsigma_partial + out


def oldroyd_discrepancy(sigma: TensorField, v: VectorField) -> VectorField:
    """div(tensor rate) - vector rate of (div sigma), both with zero partials.

    Contract: equals -hessian_contract(v, sigma) up to dealiasing, i.e. the
    tensor and vector upper-convected rates differ exactly by the contraction
    of the velocity Hessian with sigma.
    """
    tensor_rate = upper_convected_tensor(sigma, v, None)
    stress_vector = divergence_tensor(sigma)
    vector_rate = upper_convected_vector(stress_vector, v, None)
    return divergence_tensor(tensor_rate) - vector_rate


# ---------------------------------------------------------------------------
# spectral core of the elastic-fluid systems
# ---------------------------------------------------------------------------

class _Core:
    """The spectral core of one elastic-fluid RHS call (see the module
    docstring).  Callers take E one component at a time, so the coefficients
    and gradients of only one component are alive at once."""

    def __init__(self, v: VectorField, E: VectorField):
        self.grid = g = v.grid
        self.ks = angular_wavenumbers(g)
        self.axes = tuple(i for i, a in enumerate(g.active) if a)
        self.va, self.ea = v.values, E.values
        self.vh = fftn_array(g, self.va)
        self.divv = ifftn_array(g, self.div_hat(self.vh))
        # formed here, while no component's products are alive
        self.curl_curl_hat = _curl_curl_hat(_k_vector(g), self.vh)

    def div_hat(self, hats) -> np.ndarray:
        """Sum over the active axes i of i k_i hats[i]."""
        return sum(((1j * self.ks[i]) * hats[i] for i in self.axes),
                   np.zeros(self.grid.spectral_shape, dtype=np.complex128))

    def d(self, hat: np.ndarray, i: int) -> np.ndarray:
        """Physical-space derivative along axis i of the coefficients hat."""
        return ifftn_array(self.grid, (1j * self.ks[i]) * hat)

    def physical(self, hat: np.ndarray) -> np.ndarray:
        return ifftn_array(self.grid, hat)

    def products(self, j: int, body=None):
        """Coefficients of (momentum_j, bracket_j, E_j), the products dealiased:
            momentum_j = body(j) - (v.grad v)_j     (body(j) = 0 when body is None)
            bracket_j  = (v.grad E)_j - (E.grad v)_j + (div v) E_j
        body(j) is a physical array."""
        g, va, ea = self.grid, self.va, self.ea
        e_hat = fftn_array(g, ea[j])
        mom = np.zeros(g.shape) if body is None else body(j)
        conv = ea[j] * self.divv
        for i in self.axes:
            d_v = self.d(self.vh[j], i)
            d_e = self.d(e_hat, i)
            mom = mom - va[i] * d_v
            conv = conv + va[i] * d_e - ea[i] * d_v
        mask = dealias_mask(g)
        return fftn_array(g, mom) * mask, fftn_array(g, conv) * mask, e_hat

    def stress_rate(self, j: int, bracket, e_hat, params: MediumParams) -> np.ndarray:
        """Component j of E_t = eta curl(curl v) - bracket - kappa E."""
        return self.physical(params.eta * self.curl_curl_hat[j]
                             - bracket - params.kappa * e_hat)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NavierRates:
    du: VectorField
    dv: VectorField


@dataclass(frozen=True)
class FiRates:
    dv: VectorField
    dE: VectorField
    pressure: ScalarField


@dataclass(frozen=True)
class SecondOrderRates:
    dv: VectorField
    dv_t: VectorField


@dataclass(frozen=True)
class CompressibleRates:
    dv: VectorField
    dE: VectorField
    dmu: ScalarField
    du: VectorField | None


@dataclass(frozen=True)
class MaxwellRates:
    dE: VectorField
    dB: VectorField


def rhs_linear_navier(state: FluidState, params: MediumParams) -> NavierRates:
    """Linear compressible elastodynamics:
    mu v_t = (lam + 2 eta) grad(div u) - eta curl(curl u), u_t = v."""
    if state.u is None:
        raise ValueError("linear_navier needs a displacement field u")
    u, v = state.u, state.v
    dv = (grad(div(u)) * (params.lam + 2.0 * params.eta)
          - curl_curl(u) * params.eta) * (1.0 / params.mu)
    return NavierRates(du=v, dv=dv)


def rhs_fi_incompressible(state: FluidState, params: MediumParams) -> FiRates:
    """Frame-indifferent incompressible elastic fluid.

    v_t is the Leray projection of -(v.grad)v - E/mu; the removed gradient
    defines the pressure (it absorbs the Bernoulli head as well).  The stress
    vector evolves by
        E_t = eta curl(curl v) - v.grad E + E.grad v - (div v) E - kappa E,
    with the (div v) E term retained even though div v = 0 analytically, so
    that the derived-law residuals close discretely.

    This is the hot path of every incompressible run.  It runs on the spectral
    core shared with the compressible systems: v and E are transformed once,
    the two quadratic terms are dealiased products, and the projection,
    curl(curl v) and kappa E never leave spectral space.  Each term equals
    the composed diffops evaluation up to rounding.
    """
    if state.E is None:
        raise ValueError("fi_incompressible needs the stress vector E")
    core = _Core(state.v, state.E)
    divv_linf = float(np.max(np.abs(core.divv)))
    if divv_linf > DIV_INPUT_TOL:
        raise SolenoidalityError(
            f"div v = {divv_linf:.3e} exceeds {DIV_INPUT_TOL:.0e} on input"
        )
    g = core.grid
    raw, dE = [], []
    for j in range(3):
        momentum, bracket, e_hat = core.products(j)
        raw.append(momentum - e_hat / params.mu)
        dE.append(core.stress_rate(j, bracket, e_hat, params))
    sol_hats, phi_hat = _leray_hat(g, np.stack(raw))
    return FiRates(
        dv=VectorField._wrap(g, core.physical(sol_hats)),
        dE=VectorField._wrap(g, np.stack(dE)),
        pressure=ScalarField._wrap(g, core.physical(phi_hat * params.mu)),
    )


def rhs_second_order(state: SecondOrderState, params: MediumParams) -> SecondOrderRates:
    """Stress-eliminated second-order form.

    mu v_tt + 2 mu (v.grad) v_t + (vv) grad grad v = -(rate of grad p) + eta lap v.
    All known terms are evaluated and v_tt is Leray-projected, which realizes
    the pressure-gradient rate implicitly as the projected-out gradient.
    """
    v, v_t = state.v, state.v_t
    for name, f in (("v", v), ("v_t", v_t)):
        linf = norm_linf(div(f))
        if linf > DIV_INPUT_TOL:
            raise SolenoidalityError(
                f"div {name} = {linf:.3e} exceeds {DIV_INPUT_TOL:.0e} on input"
            )
    raw = (laplacian(v) * (params.eta / params.mu)
           - vector_advection(v, v_t) * 2.0
           - double_advection(v, v) * (1.0 / params.mu))
    return SecondOrderRates(dv=v_t, dv_t=leray_project(raw).solenoidal)


def rhs_compressible(state: FluidState, params: MediumParams,
                     rheology: str) -> CompressibleRates:
    """Slightly compressible extension.

    mu (v_t + v.grad v) = -E + grad(dilational stress) with the dilational
    stress (nu + 2 zeta) div v (liquid) or (lam + 2 eta) div u (solid); the
    E equation is unchanged from the incompressible system, and
    mu_t = -v.grad mu - mu div v.  The solid branch also advances u_t = v.
    """
    if rheology not in ("liquid", "solid"):
        raise ValueError(f"rheology must be 'liquid' or 'solid', got {rheology!r}")
    if state.E is None or state.mu_field is None:
        raise ValueError("compressible systems need E and mu_field")
    v, E, mu_f = state.v, state.E, state.mu_field
    if float(mu_f.values.min()) <= 0.0:
        raise DensityError(
            f"density lost positivity (min = {float(mu_f.values.min()):.3e})"
        )
    core = _Core(v, E)
    if rheology == "liquid":
        dilational_hat = core.div_hat(core.vh) * (params.nu + 2.0 * params.zeta)
        du = None
    else:
        if state.u is None:
            raise ValueError("compressible solid branch needs u")
        ua = state.u.values
        dilational_hat = (params.lam + 2.0 * params.eta) * core.div_hat(
            {i: fftn_array(core.grid, ua[i]) for i in core.axes})
        du = v
    inv_mu = 1.0 / mu_f.values

    def force_per_mass(j):  # (grad(dilational stress) - E)_j / mu
        grad_j = core.d(dilational_hat, j) if j in core.axes else 0.0
        return (grad_j - core.ea[j]) * inv_mu

    g = core.grid
    dv, dE = [], []
    for j in range(3):
        momentum, bracket, e_hat = core.products(j, force_per_mass)
        dv.append(core.physical(momentum))
        dE.append(core.stress_rate(j, bracket, e_hat, params))
        del momentum, bracket, e_hat   # free before the next component
    dv, dE = np.stack(dv), np.stack(dE)
    mu_hat = fftn_array(g, mu_f.values)
    mass = -mu_f.values * core.divv - sum(core.va[i] * core.d(mu_hat, i) for i in core.axes)
    return CompressibleRates(dv=VectorField._wrap(g, dv),
                             dE=VectorField._wrap(g, dE),
                             dmu=ScalarField._wrap(g, dealias_array(g, mass)),
                             du=du)


def rhs_classical_maxwell(state: MaxwellState, params: MediumParams) -> MaxwellRates:
    """Classical reference evolution: B_t = -curl E, E_t = c^2 curl B."""
    return MaxwellRates(
        dE=curl(state.B) * (params.c ** 2),
        dB=-curl(state.E),
    )


# ---------------------------------------------------------------------------
# the systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class System:
    """What the integrator and the runner know about one governing system.

    fields      state attributes the integrator advances, in order
    rates       the attribute of the RHS result that is each field's rate
    rhs         (state, params) -> rates
    scenarios   the scenario kinds whose initial state the system accepts
    projected   fields Leray-projected after every step
    carried     (state attribute, rate attribute) pairs taken from the rates
                at the step's start (fi's pressure)
    cfl_speed   the MediumParams attribute that is the fastest signal speed
    uses_kappa  whether kappa*dt is held to KAPPA_DT_LIMIT
    report      (state, params, rates) -> law report, or None
    initial     (scenario state, params) -> the system's initial state
    """

    fields: tuple[str, ...]
    rates: tuple[str, ...]
    rhs: Callable
    scenarios: frozenset[str]
    projected: tuple[str, ...] = ()
    carried: tuple[tuple[str, str], ...] = ()
    cfl_speed: str = "c"
    uses_kappa: bool = False
    report: Callable | None = None
    initial: Callable = lambda state, params: state

    @property
    def snapshot(self) -> tuple[str, ...]:
        """State attributes a run writes: the advanced and the carried ones."""
        return self.fields + tuple(name for name, _ in self.carried)


_WAVES = frozenset({"plane_shear_wave", "standing_shear_wave"})
_SOLENOIDAL = _WAVES | {"gaussian_vortex", "random_solenoidal"}
_STRESSED = _SOLENOIDAL | {"uniform_E_decay"}

# The RHS and the report are looked up when called, so a rebound module
# attribute (a tracer's wrapper, a test double) takes effect.
SYSTEMS: dict[str, System] = {
    "linear_navier": System(
        fields=("u", "v"), rates=("du", "dv"),
        rhs=lambda s, p: rhs_linear_navier(s, p),
        scenarios=_WAVES | {"compression_pulse"}, cfl_speed="c_s"),
    "fi_incompressible": System(
        fields=("v", "E"), rates=("dv", "dE"),
        rhs=lambda s, p: rhs_fi_incompressible(s, p),
        scenarios=_STRESSED, projected=("v",), carried=(("p", "pressure"),),
        uses_kappa=True, report=lambda s, p, r: emlaws.fi_report(s, p, r),
        # p = 0 stands in for the pressure until the first step sets it
        initial=lambda state, params: dataclasses.replace(
            state, p=ScalarField.zeros(state.v.grid))),
    "second_order": System(
        fields=("v", "v_t"), rates=("dv", "dv_t"),
        rhs=lambda s, p: rhs_second_order(s, p),
        scenarios=_SOLENOIDAL, projected=("v", "v_t"),
        # v_t starts as the fi velocity rate of the scenario state
        initial=lambda s, p: SecondOrderState(
            time=s.time, v=s.v, v_t=rhs_fi_incompressible(s, p).dv)),
    "compressible_liquid": System(
        fields=("v", "E", "mu_field"), rates=("dv", "dE", "dmu"),
        rhs=lambda s, p: rhs_compressible(s, p, "liquid"),
        scenarios=_STRESSED, cfl_speed="c_s", uses_kappa=True,
        report=lambda s, p, r: emlaws.fi_report(s, p, r)),
    "compressible_solid": System(
        fields=("v", "E", "mu_field", "u"), rates=("dv", "dE", "dmu", "du"),
        rhs=lambda s, p: rhs_compressible(s, p, "solid"),
        scenarios=_STRESSED | {"compression_pulse"}, cfl_speed="c_s",
        uses_kappa=True, report=lambda s, p, r: emlaws.fi_report(s, p, r)),
    "classical_maxwell": System(
        fields=("E", "B"), rates=("dE", "dB"),
        rhs=lambda s, p: rhs_classical_maxwell(s, p),
        scenarios=_SOLENOIDAL,
        report=lambda s, p, r: emlaws.classical_report(s, p, r),
        # the classical twin of a fluid state: E, and B = mu curl v
        initial=lambda s, p: MaxwellState(time=s.time, E=s.E, B=curl(s.v) * p.mu)),
}


def _record(system: str) -> System:
    try:
        return SYSTEMS[system]
    except KeyError:
        raise ValueError(f"unknown system {system!r}") from None


# ---------------------------------------------------------------------------
# time integration
# ---------------------------------------------------------------------------

def auto_step_size(state, params: MediumParams, control: StepControl,
                   system: str) -> float:
    """cfl * h_min / (c_max + |v|_max); |v|_max is zero for the classical system."""
    record = _record(system)
    grid = getattr(state, record.fields[0]).grid
    vmax = norm_linf(state.v) if hasattr(state, "v") else 0.0
    return control.cfl * grid.min_active_spacing() / (
        getattr(params, record.cfl_speed) + vmax
    )


def _resolve_dt(state, params, control, system) -> float:
    if control.dt == "auto":
        return auto_step_size(state, params, control, system)
    return float(control.dt)


def step(state, params: MediumParams, control: StepControl, system: str,
         dt: float | None = None):
    """One explicit RK4 step.

    dt overrides the control (used by `integrate` to land exactly on t_end).
    For the incompressible systems the velocity (and velocity rate) are
    re-projected after the update so the solenoidality invariant is restored
    to round-off.  Operators do not scan their results, so the step scans
    the input fields of each of the four stages and the accepted state
    (carried fields included); a non-finite value aborts with an
    IntegrationError carrying the last accepted state.
    """
    record = _record(system)
    h = float(dt) if dt is not None else _resolve_dt(state, params, control, system)
    if not h > 0:
        raise StepSizeError(f"step size must be positive, got {h}")
    if record.uses_kappa and params.kappa * h > KAPPA_DT_LIMIT:
        raise StepSizeError(
            f"kappa*dt = {params.kappa * h:.3g} exceeds the explicit stability "
            f"range ({KAPPA_DT_LIMIT}); reduce dt"
        )

    y0 = [getattr(state, name) for name in record.fields]

    def eval_rhs(fields):
        _check_finite(fields)
        trial = dataclasses.replace(state, **dict(zip(record.fields, fields)))
        rates = record.rhs(trial, params)
        return [getattr(rates, name) for name in record.rates], rates

    try:
        k1, rates1 = eval_rhs(y0)
        k2, _ = eval_rhs([y + ki * (h / 2.0) for y, ki in zip(y0, k1)])
        k3, _ = eval_rhs([y + ki * (h / 2.0) for y, ki in zip(y0, k2)])
        k4, _ = eval_rhs([y + ki * h for y, ki in zip(y0, k3)])
        new_fields = [
            y + (a + (b + c) * 2.0 + d) * (h / 6.0)
            for y, a, b, c, d in zip(y0, k1, k2, k3, k4)
        ]
        new = dict(zip(record.fields, new_fields))
        for name in record.projected:
            new[name] = leray_project(new[name]).solenoidal
        # fi's pressure is the projection potential of the first stage, i.e.
        # the pressure at the step's start; reports re-evaluate the RHS at
        # sample times
        new.update((name, getattr(rates1, rate)) for name, rate in record.carried)
        _check_finite(new.values())
    except (FieldError, FloatingPointError) as exc:
        raise IntegrationError(
            f"step from t={state.time:.6g} with dt={h:.3e} produced non-finite "
            f"values in system {system!r}: {exc}",
            state=state,
        ) from exc
    return dataclasses.replace(state, time=state.time + h, **new)


def _check_finite(fields) -> None:
    for f in fields:
        if f is not None and not np.isfinite(f.values).all():
            raise FieldError(f"{type(f).__name__} contains non-finite values")


def integrate(state, params: MediumParams, control: StepControl, system: str,
              observer=None):
    """Advance to control.t_end, shortening the final step to land exactly.

    `observer(step_index, state)` is called with the initial state (index 0)
    and after every accepted step.
    """
    if observer is not None:
        observer(0, state)
    n = 0
    t_end = control.t_end
    eps = 1e-12 * max(1.0, abs(t_end))
    while state.time < t_end - eps:
        h = min(_resolve_dt(state, params, control, system), t_end - state.time)
        state = step(state, params, control, system, dt=h)
        n += 1
        if observer is not None:
            observer(n, state)
    return state
