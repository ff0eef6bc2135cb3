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
  obeys mu_t = -div(mu v).
- ``classical_maxwell``      reference linear evolution in (E, B):
      B_t = -curl E,   E_t = c^2 curl B.

Spectral core.  The fi and compressible systems form their quadratic terms
alike from the half-spectrum coefficients of v and E and their grid values,
with P the two-thirds mask.  The momentum is in rotational form,
-(v.grad)v = v x omega - grad(|v|^2/2) (T. A. Zang, Appl. Numer. Math. 7,
1991): omega = curl v from one inverse transform of ik x v, then P[v x omega].
fi's Leray projection removes the gradient; the compressible
systems subtract ik P[|v|^2/2] (`_head_hat`).  The convected bracket
v.grad E - E.grad v + (div v) E is formed in the Maxwell form of the paper's
generalized Ampere law, v div E - curl(v x E), from one inverse transform of
div E, with the curl taken on the dealiased coefficients (`_bracket_hat`).
These are the products that the laws read, so fi's Faraday-Lorentz law,
generalized Ampere and metacharge continuity close at round-off on any state
(see `emlaws`).  The compressible density rate is the conservative
-div(mu v), from one forward transform of the mass flux.  The linear terms
(the Leray projection, eta curl(curl v), the dilational gradient, kappa E)
stay in spectral space.

Each system is one `System` record in the `SYSTEMS` table, keyed by its
name: the state fields it advances and their rates, its RHS, its CFL speed
and diffusivity, its law report, its initial-state builder and the scenario
kinds it accepts.  `rhs`, `integrate` and the runner read only the record,
so adding a system means adding one record.

State layout.  Time stepping is one four-stage explicit Runge-Kutta scheme
for every system, on the stage values that the stepper encodes from a
state; its stage inputs and update are formed in place in new arrays,
bitwise y + k h/2 and y + (k1 + (k2 + k3) 2 + k4) h/6 in that order.
No array outlives its last read: each stage holds y, k1 and two registers
at most, and no trajectory holds its initial state past its first step.
The RK stages of fi and second_order, the systems held to div v = 0, hold
the half-spectrum coefficients (`GridSpec.spectral_shape`) of [v, E] and
[v, v_t]; their RHS (`_rhs_fi_hat`, `_rhs_second_order_hat`) return rate
coefficients, each velocity rate Leray-projected by a multiply.  Rates are
projected, never states: solenoidal rates keep div v at round-off.  A fi
stage forms the coefficients of curl v once, for the Lamb product and for
eta curl(curl v) = eta ik x curl v, inverse-transforms [v, E], curl v and
[div v, div E] in three calls and forward-transforms only the three products.
A fi state in one plane of a 2D grid (`fields._plane`, v_n = E_n = 0) stays
there, the transverse-electric polarization: with d_n = 0, curl v and v x E
lie along n, and v x curl v, ik x (anything along n), the Leray projection
and kappa E in the plane.  Its stages hold [v_a, v_b, E_a, E_b] alone and
transform 12 components, not 20 (`_rhs_fi_plane_hat`), in the full path's
order: states and physical rates carry its bits, rate coefficients all but
the sign of a zero.  Such a stage writes its terms into three arrays it
allocates, the 7-component inverse input, the 5 products and the 2 x 2
rates, and frees each after its last read.
The compressible stages hold coefficients too, one array per field,
[v, E, mu_field] for the liquid and [v, E, mu_field, u] for the solid: of
every field but the density, whose grid values the 1/mu_field factor and the
positivity check read at every stage.  Their RHS
(`_rhs_compressible_hat`) returns [dv, dE, dmu, du], dmu as grid values and
du the stage's own coefficients of v; it inverse-transforms v, E, div E,
curl v, the dilational gradient and dmu, and forward-transforms only its
five products, the momentum, |v|^2/2, v div E, v x E and mu v.  A solid step
at 3D takes 111 component transforms, where physical stages took 144 to
transform v, E and u in again at every stage.  The linear systems keep
physical stages, built from the `diffops` operators.  `rhs` and `integrate`
take and return physical states whatever the layout.

A trajectory is one `_Stepper`, which holds the path's head: the last
accepted state, its stage values and its stage rates.  A state is accepted
once its RHS is evaluated and finite, the final one included; that
evaluation is the next step's first stage and is what the observer sees.
A failed step leaves the head where it was.  The physical rates, and fi's
pressure, are formed only when the observer asks for them.  A step's inner
stages 2-4 are evaluated for their rates alone: on coefficients, they decode
no physical state and form no rates, so a step decodes one state, the one it
accepts.  The stepper holds that state until its next step starts, and only
weakly during it, so that grid values that only the state holds are freed
while the step runs.

Finiteness.  Operators do not scan their results.  The stepper scans the
rates of every RK stage and each accepted state in the stage layout, not
the physical state of coefficients: its RHS's products carry an overflow
into the scanned rates.  A non-finite value, like a DensityError or
SolenoidalityError raised in a stage, aborts with an IntegrationError
carrying the last accepted state.
The systems are hyperbolic; kappa of order 1 adds mild attenuation, and the
liquid's dilational stress a diffusion that stiffens where the density falls.
A step beyond the explicit stability range of either at its start state (the
one table `_stiff_limits`) is rejected, not treated implicitly.  Auto dt
keeps inside it: `integrate` holds its first step and halves it if need be.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import emlaws
from .diffops import (
    _contract,
    _curl_curl_hat,
    _curl_hat,
    _div_hat,
    _ik,
    _leray_hat,
    curl,
    div,
    divergence_tensor,
    double_advection,
    grad_vector,
    vector_advection,
)
from .fields import (
    FieldError,
    ScalarField,
    TensorField,
    VectorField,
    _cross_arrays,
    _dealias_factor,
    _k_squared,
    _k_vector,
    _plane,
    _transform_axes,
    dealias_array,
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
    "rhs",
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
    """A step failed; carries the stepper's head, the last accepted state,
    and `rates()` of that state, or the initial state and rates None when
    its own evaluation failed."""

    def __init__(self, message: str, state=None, rates=None):
        super().__init__(message)
        self.state = state
        self.rates = rates


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
    nu     dilational viscosity (liquid dilational branch)

    Derived: zeta = eta tau (elastic viscosity), c = sqrt(eta/mu),
    c_s = sqrt((2 eta + lam)/mu), delta = eta / (2 eta + lam) = c^2 / c_s^2
    in (0, 1/2].
    """

    mu: float = 1.0
    eta: float = 1.0
    lam: float = 0.0
    kappa: float = 0.0
    tau: float = 1.0
    nu: float = 0.0

    def __post_init__(self):
        for name in ("mu", "eta", "lam", "kappa", "tau", "nu"):
            value = getattr(self, name)
            if not math.isfinite(value):
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

    @property
    def zeta(self) -> float:
        """Elastic viscosity, eta tau."""
        return self.eta * self.tau

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

    v is always present; E (negative shear-stress vector) belongs to the
    incompressible/compressible systems; mu_field and u belong to the
    compressible ones (u only on the solid dilational branch, where
    v = du/dt).  The fi pressure is a rate, `FiRates.pressure`, not state.
    """

    time: float
    v: VectorField
    E: VectorField | None = None
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
    """Time-step control: a fixed dt, or 'auto': `auto_step_size` of the
    initial state, which `integrate` holds, halving it only where it would
    break a limit itself."""

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

def upper_convected_vector(E: VectorField, v: VectorField) -> VectorField:
    """The convected part of the upper-convected rate of a vector density,
    v.grad E - E.grad v + (div v) E, formed as the spectral core forms it
    (`_bracket_hat`)."""
    g = v.grid
    bracket_hat = _bracket_hat(g, v.values, E.values, div(E).values)
    return VectorField._wrap(g, ifftn_array(g, bracket_hat))


def upper_convected_tensor(sigma: TensorField, v: VectorField) -> TensorField:
    """The convected part of the upper-convected rate of a rank-2 density,
    v.grad sigma - sigma grad v - (grad v)^T sigma + sigma div v, with
    (grad v)_ij = d_i v_j and all products dealiased."""
    g = sigma.grid
    s = sigma.values
    gv = grad_vector(v).values
    divv = gv[0, 0] + gv[1, 1] + gv[2, 2]
    conv = _contract(g, v.values, _ik(g), fftn_array(g, s))
    lower = np.sum(s[:, :, None] * gv[None], axis=1)      # sum_k s_ik gv_kj
    upper = np.sum(gv[:, :, None] * s[:, None], axis=0)   # sum_k gv_ki s_kj
    return TensorField._wrap(g, dealias_array(g, conv - lower - upper + s * divv))


def oldroyd_discrepancy(sigma: TensorField, v: VectorField) -> VectorField:
    """div(tensor rate) - vector rate of (div sigma), both convected parts.

    Contract: equals -hessian_contract(v, sigma) up to dealiasing, i.e. the
    tensor and vector upper-convected rates differ exactly by the contraction
    of the velocity Hessian with sigma.
    """
    tensor_rate = upper_convected_tensor(sigma, v)
    stress_vector = divergence_tensor(sigma)
    vector_rate = upper_convected_vector(stress_vector, v)
    return divergence_tensor(tensor_rate) - vector_rate


# ---------------------------------------------------------------------------
# spectral core of the elastic-fluid systems
# ---------------------------------------------------------------------------

def _head_hat(g, va):
    """P[|v|^2/2] less its mean: the kinetic head whose gradient the
    rotational form subtracts."""
    head_hat = fftn_array(g, 0.5 * np.sum(va * va, axis=0))
    head_hat *= _dealias_factor(g)
    head_hat.flat[0] = 0.0
    return head_hat


def _bracket_hat(g, va, ea, div_e):
    """P[v div E] - ik x P[v x E], the dealiased coefficients of
    v.grad E - E.grad v + (div v) E in Maxwell form, from the grid values
    va, ea and div_e of v, E and div E."""
    # two 3-component calls: at 32^3 one stacked 6-component call is slower,
    # because glibc hands its larger buffers back to the system after each
    # call and the next call faults them in anew
    bracket_hat = fftn_array(g, va * div_e)
    bracket_hat -= _curl_hat(_k_vector(g), fftn_array(g, _cross_arrays(va, ea)))
    bracket_hat *= _dealias_factor(g)
    return bracket_hat


def _stress_rate_hat(g, hats, omega_hat, bracket_hat, params: MediumParams,
                     out=None) -> np.ndarray:
    """Coefficients of E_t = eta curl(curl v) - bracket - kappa E, into `out`
    if given, with curl(curl v) read as ik x omega_hat from omega_hat =
    ik x v_hat; on a planar state's in-plane hats, omega_hat is the normal
    component."""
    k = _k_vector(g, plane=True) if len(hats[1]) == 2 else _k_vector(g)
    out = _curl_hat(k, omega_hat, out)
    del omega_hat    # not read again: a temporary passed here is freed
    out *= params.eta
    out -= bracket_hat
    out -= params.kappa * hats[1]
    return out


def _divergences(g, hats, checked: tuple[str, ...]) -> np.ndarray:
    """The grid values of the divergence of every field in the stacked
    coefficients hats, from one inverse transform; the fields named in
    `checked` (the leading ones, in order) must be solenoidal on input."""
    return _checked(ifftn_array(g, _div_hat(g, hats.swapaxes(0, 1))), checked)


def _checked(divs, checked: tuple[str, ...]) -> np.ndarray:
    """divs, once those of the fields in `checked` are within DIV_INPUT_TOL."""
    for name, d in zip(checked, divs):
        linf = float(np.max(np.abs(d)))
        if linf > DIV_INPUT_TOL:
            raise SolenoidalityError(
                f"div {name} = {linf:.3e} exceeds {DIV_INPUT_TOL:.0e} on input")
    return divs


def _embed(g, values: np.ndarray) -> np.ndarray:
    """3-component stacks of the in-plane pairs `values`, zero along n."""
    if values.shape[1] == 3:
        return values
    out = np.zeros(values.shape[:1] + (3,) + values.shape[2:])
    out[:, list(_plane(g)[:2])] = values
    return out


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


def _rhs_linear_navier(state: FluidState, params: MediumParams) -> NavierRates:
    """Linear compressible elastodynamics:
    mu v_t = (lam + 2 eta) grad(div u) - eta curl(curl u), u_t = v."""
    g = state.u.grid
    # one forward and one inverse transform of u; ik x (ik x u_hat) keeps
    # the cancellation of gradient fields that `curl_curl` documents
    u_hat = fftn_array(g, state.u.values)
    dv_hat = ((params.lam + 2.0 * params.eta) * (_ik(g) * _div_hat(g, u_hat))
              - params.eta * _curl_curl_hat(_k_vector(g), u_hat))
    dv = VectorField._wrap(g, ifftn_array(g, dv_hat * (1.0 / params.mu)))
    return NavierRates(du=state.v, dv=dv)


def _rhs_fi_hat(g, hats, params: MediumParams, physical=None):
    """Frame-indifferent incompressible elastic fluid, on the stacked
    half-spectrum coefficients hats = [v_hat, E_hat].

    v_t is the Leray projection of P[v x omega] - E/mu, omega = curl v: the
    rotational form of -(v.grad)v - E/mu less grad(P[|v|^2/2]), which the
    projection removes anyway.  The pressure is mu times the potential of the
    whole removed gradient (it absorbs the Bernoulli head as well).  The
    stress vector evolves by
        E_t = eta curl(curl v) - v.grad E + E.grad v - (div v) E - kappa E,
    with the (div v) E term retained even though div v = 0 analytically, so
    that the derived-law residuals close discretely; `_bracket_hat` forms
    the bracket as v div E - curl(v x E).  Each term equals the composed
    diffops evaluation up to rounding.

    Returns the stacked rate coefficients [dv_hat, dE_hat], the stacked
    physical [v, E] that the products used (inverse-transformed unless
    `physical` gives them) and a function that forms the physical `FiRates`
    once, on request.  The quadratic terms are the only ones that leave
    spectral space.
    """
    if physical is None:
        physical = ifftn_array(g, hats)
    va, ea = physical
    div_e = _divergences(g, hats, ("v",))[1]
    omega_hat = _curl_hat(_k_vector(g), hats[0])
    lamb_hat = fftn_array(g, _cross_arrays(va, ifftn_array(g, omega_hat)))
    lamb_hat *= _dealias_factor(g)
    lamb_hat -= hats[1] / params.mu
    dv_hat, phi_hat = _leray_hat(g, lamb_hat)
    bracket_hat = _bracket_hat(g, va, ea, div_e)
    rates_hat = np.stack([dv_hat, _stress_rate_hat(g, hats, omega_hat, bracket_hat,
                                                    params)])
    return rates_hat, physical, _fi_rates(g, rates_hat, phi_hat, va, params)


def _rhs_fi_plane_hat(g, hats, params: MediumParams, physical=None):
    """`_rhs_fi_hat` on the in-plane coefficients [[v_a, v_b], [E_a, E_b]] of
    a planar state (see the module docstring), in its operation order: one
    inverse transform of [v, E] (unless `physical` gives them), curl v and
    [div v, div E], one forward one of the five products; `rates()` is 3D.
    Its terms are written into three arrays it allocates, each freed after
    its last read: the inverse input, the products and the rate stack."""
    k, shape = _k_vector(g, plane=True), hats.shape[2:]
    a, b, _ = _plane(g)
    omega_hat = _curl_hat(k, hats[0])
    # [v_a, v_b, E_a, E_b] unless given, omega_n, div v, div E
    inverse = np.empty((7 if physical is None else 3,) + shape, np.complex128)
    if physical is None:
        inverse[:4] = hats.reshape((4,) + shape)
    inverse[-3] = omega_hat
    _div_hat(g, {a: hats[:, 0], b: hats[:, 1]}, out=inverse[-2:])
    values = ifftn_array(g, inverse)
    del inverse
    omega, div_e = values[-3], _checked(values[-2:], ("v",))[1]
    physical = values[:4].reshape((2, 2) + g.shape) if physical is None else physical
    va, ea = physical
    # [v x omega (in plane), v div E, (v x E)_n]
    products = np.empty((5,) + g.shape)
    _cross_arrays(va, omega, products[:2])
    np.multiply(va, div_e, out=products[2:4])
    _cross_arrays(va, ea, products[4])
    products_hat = fftn_array(g, products)
    del products
    # [dv_hat, dE_hat]; dE_hat's slot holds E/mu and ik x P[v x E] until
    # the stress rate is written into it
    rates_hat = np.empty(hats.shape, np.complex128)
    lamb_hat = products_hat[:2]
    lamb_hat *= _dealias_factor(g)
    lamb_hat -= np.divide(hats[1], params.mu, out=rates_hat[1])
    phi_hat = _leray_hat(g, lamb_hat, rates_hat[0])[1]
    bracket_hat = products_hat[2:4]
    bracket_hat -= _curl_hat(k, products_hat[4], rates_hat[1])
    bracket_hat *= _dealias_factor(g)
    # an assignment to itself, unless `_stress_rate_hat` is rebound to a
    # function that returns a new array
    rates_hat[1] = _stress_rate_hat(g, hats, omega_hat, bracket_hat, params, rates_hat[1])
    return rates_hat, physical, _fi_rates(g, rates_hat, phi_hat, va, params)


def _fi_rates(g, rates_hat, phi_hat, va, params: MediumParams):
    """The function that forms fi's physical `FiRates` once, on request,
    from its rate and potential coefficients and the physical v."""
    @functools.cache
    def rates() -> FiRates:
        dv, dE = _embed(g, ifftn_array(g, rates_hat))
        return FiRates(
            dv=VectorField._wrap(g, dv),
            dE=VectorField._wrap(g, dE),
            pressure=ScalarField._wrap(
                g, ifftn_array(g, (phi_hat - _head_hat(g, va)) * params.mu)),
        )
    return rates


def _rhs_second_order_hat(g, hats, params: MediumParams, physical=None):
    """Stress-eliminated second-order form, on the stacked coefficients
    hats = [v_hat, v_t_hat].

    mu v_tt + 2 mu (v.grad) v_t + (vv) grad grad v = -(rate of grad p) + eta lap v.
    All known terms are evaluated and v_tt is Leray-projected, which realizes
    the pressure-gradient rate implicitly as the projected-out gradient; v's
    rate is v_t projected.  Returns what `_rhs_fi_hat` does; only the
    dealiased products (v.grad) v_t and (vv) grad grad v leave spectral space.
    """
    if physical is None:
        physical = ifftn_array(g, hats)
    _divergences(g, hats, ("v", "v_t"))
    v, v_t = (VectorField._wrap(g, a) for a in physical)
    products = vector_advection(v, v_t) * 2.0 + double_advection(v, v) * (1.0 / params.mu)
    raw_hat = hats[0] * (-_k_squared(g) * (params.eta / params.mu))
    raw_hat -= fftn_array(g, products.values)
    rates_hat = np.stack([_leray_hat(g, hats[1])[0], _leray_hat(g, raw_hat)[0]])
    rates = functools.cache(lambda: SecondOrderRates(
        *(VectorField._wrap(g, a) for a in ifftn_array(g, rates_hat))))
    return rates_hat, physical, rates


def _rhs_compressible_hat(g, y, params: MediumParams, rheology: str,
                          physical=None):
    """Slightly compressible extension, on the stage values
    y = [v_hat, E_hat, mu_field(, u_hat)]: the half-spectrum coefficients of
    v and E (and of u on the solid branch) and the grid values of the density.

    mu (v_t + v.grad v) = -E + grad(dilational stress) with the dilational
    stress (nu + 2 zeta) div v (liquid) or (lam + 2 eta) div u (solid), and
    v.grad v in rotational form; the E equation is unchanged from the
    incompressible system, and mu_t = -div(mu v), formed as -ik.P[mu v] with
    P the two-thirds mask.  The solid branch also advances u_t = v.  Only
    u_hat's components along the active axes are read.

    Returns the stage rates [dv_hat, dE_hat, dmu(, du_hat)], dmu grid values
    and du_hat the stage's own v_hat; the grid values [v, E] that the
    products used (inverse-transformed unless `physical` gives them); and a
    function that forms the physical `CompressibleRates` once, on request,
    its du those grid values of v.  Only the five products are
    forward-transformed: the momentum, the head |v|^2/2, v div E, v x E and
    mu v.
    """
    v_hat, e_hat, mu = y[:3]
    if float(mu.min()) <= 0.0:
        raise DensityError(f"density lost positivity (min = {float(mu.min()):.3e})")
    if physical is None:
        physical = [ifftn_array(g, v_hat), ifftn_array(g, e_hat)]
    va, ea = physical
    # the stress rate, then the momentum, then the density rate: each frees
    # its terms before the next, and a gradient is inverse-transformed and
    # added one component at a time
    k, ik, axes = _k_vector(g), _ik(g), _transform_axes(g)
    dE_hat = _bracket_hat(g, va, ea, ifftn_array(g, _div_hat(g, e_hat)))
    dE_hat = _stress_rate_hat(g, (v_hat, e_hat), _curl_hat(k, v_hat), dE_hat, params)
    # v x omega - E / mu + grad(dilational stress) / mu
    momentum = _cross_arrays(va, ifftn_array(g, _curl_hat(k, v_hat)))
    inv_mu = 1.0 / mu
    momentum -= ea * inv_mu
    if rheology == "liquid":
        dilational_hat = _div_hat(g, v_hat) * (params.nu + 2.0 * params.zeta)
    else:
        dilational_hat = (params.lam + 2.0 * params.eta) * _div_hat(g, y[3])
    for i in axes:
        momentum[i] += ifftn_array(g, ik[i] * dilational_hat) * inv_mu
    del dilational_hat, inv_mu
    dv_hat = fftn_array(g, momentum)
    del momentum
    dv_hat *= _dealias_factor(g)
    head_hat = _head_hat(g, va)
    for i in range(3):
        dv_hat[i] -= ik[i] * head_hat
    del head_hat
    # -div P[mu v], from the mass flux along the active axes alone
    dmu = np.zeros(g.spectral_shape, np.complex128)
    for i in axes:
        dmu += ik[i] * fftn_array(g, mu * va[i])
    dmu = ifftn_array(g, -dmu * _dealias_factor(g))
    rates_hat = [dv_hat, dE_hat, dmu] + ([] if rheology == "liquid" else [v_hat])

    # v's grid values, held weakly: a state that keeps them supplies du,
    # else v_hat does
    v_ref = weakref.ref(va)

    @functools.cache
    def rates() -> CompressibleRates:
        du = None
        if rheology != "liquid":
            v = v_ref()
            du = VectorField._wrap(g, ifftn_array(g, v_hat) if v is None else v)
        return CompressibleRates(dv=VectorField._wrap(g, ifftn_array(g, dv_hat)),
                                 dE=VectorField._wrap(g, ifftn_array(g, dE_hat)),
                                 dmu=ScalarField._wrap(g, dmu), du=du)
    return rates_hat, physical, rates


def _rhs_classical_maxwell(state: MaxwellState, params: MediumParams) -> MaxwellRates:
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

    fields       state attributes the integrator advances, in order
    rates        the attribute of the RHS result that is each field's rate
    scenarios    the scenario kinds whose initial state the system accepts
    rhs          (state, params) -> rates, evaluated on physical RK stages
    rhs_hat      or the RHS on coefficient stages, which hold the fields'
                 half-spectrum coefficients: (grid, stage values, params,
                 grid values of the first two fields or None) -> (stage
                 rates, those grid values, physical rates on request).  The
                 stage values are one stack of coefficients, and so are the
                 stage rates (`_rhs_fi_hat`, velocity rates projected), unless
                 some fields are `physical`; then they are lists of one array
                 per field (`_rhs_compressible_hat`)
    physical     the fields a coefficient stage holds as grid values
    read_by_div  the fields whose coefficients `rhs_hat` reads only through
                 their divergence, so only along the active axes
    rhs_plane_hat  or `rhs_hat` on a planar state's in-plane coefficients
    observed     rate attributes a run writes beside the fields (fi's pressure)
    cfl_speed    the MediumParams attribute that is the fastest signal speed
    diffusivity  None, or (params, mu) -> the diffusivity D at density mu of an
                 explicit diffusion term, held to RK4's limit at least mu_field
    uses_kappa   whether kappa*dt is held to KAPPA_DT_LIMIT
    report       (state, params, rates) -> law report, or None
    initial      (scenario state, params) -> the system's initial state
    """

    fields: tuple[str, ...]
    rates: tuple[str, ...]
    scenarios: frozenset[str]
    rhs: Callable | None = None
    rhs_hat: Callable | None = None
    physical: tuple[str, ...] = ()
    read_by_div: tuple[str, ...] = ()
    rhs_plane_hat: Callable | None = None
    observed: tuple[str, ...] = ()
    cfl_speed: str = "c"
    diffusivity: Callable | None = None
    uses_kappa: bool = False
    report: Callable | None = None
    initial: Callable = lambda state, params: state


_WAVES = frozenset({"plane_shear_wave", "standing_shear_wave"})
_SOLENOIDAL = _WAVES | {"gaussian_vortex", "random_solenoidal"}
_STRESSED = _SOLENOIDAL | {"uniform_E_decay"}

# The RHS and the report are looked up when called, so a rebound module
# attribute (a tracer's wrapper, a test double) takes effect.
SYSTEMS: dict[str, System] = {
    "linear_navier": System(
        fields=("u", "v"), rates=("du", "dv"),
        rhs=lambda s, p: _rhs_linear_navier(s, p),
        scenarios=_WAVES | {"compression_pulse"}, cfl_speed="c_s"),
    "fi_incompressible": System(
        fields=("v", "E"), rates=("dv", "dE"),
        rhs_hat=lambda g, hats, p, physical: _rhs_fi_hat(g, hats, p, physical),
        rhs_plane_hat=lambda g, hats, p, phys: _rhs_fi_plane_hat(g, hats, p, phys),
        observed=("pressure",), scenarios=_STRESSED,
        uses_kappa=True, report=lambda s, p, r: emlaws.fi_report(s, p, r)),
    "second_order": System(
        fields=("v", "v_t"), rates=("dv", "dv_t"), scenarios=_SOLENOIDAL,
        rhs_hat=lambda g, hats, p, physical: _rhs_second_order_hat(g, hats, p, physical),
        # v_t starts as the fi velocity rate of the scenario state
        initial=lambda s, p: SecondOrderState(
            time=s.time, v=s.v, v_t=rhs(s, p, "fi_incompressible").dv)),
    "compressible_liquid": System(
        fields=("v", "E", "mu_field"), rates=("dv", "dE", "dmu"),
        rhs_hat=lambda g, y, p, physical: _rhs_compressible_hat(
            g, y, p, "liquid", physical),
        physical=("mu_field",), scenarios=_STRESSED, cfl_speed="c_s",
        uses_kappa=True,
        # the dilational stress (nu + 2 zeta) div v diffuses v with
        # D = (nu + 2 zeta) / mu at the density mu
        diffusivity=lambda p, mu: (p.nu + 2.0 * p.zeta) / mu,
        report=lambda s, p, r: emlaws.fi_report(s, p, r)),
    "compressible_solid": System(
        fields=("v", "E", "mu_field", "u"), rates=("dv", "dE", "dmu", "du"),
        rhs_hat=lambda g, y, p, physical: _rhs_compressible_hat(
            g, y, p, "solid", physical),
        physical=("mu_field",), read_by_div=("u",),
        scenarios=_STRESSED | {"compression_pulse"}, cfl_speed="c_s",
        uses_kappa=True, report=lambda s, p, r: emlaws.fi_report(s, p, r)),
    "classical_maxwell": System(
        fields=("E", "B"), rates=("dE", "dB"),
        rhs=lambda s, p: _rhs_classical_maxwell(s, p),
        scenarios=_SOLENOIDAL,
        report=lambda s, p, r: emlaws.classical_report(s, p, r),
        # the classical twin of a fluid state: E, and B = mu curl v
        initial=lambda s, p: MaxwellState(time=s.time, E=s.E, B=curl(s.v) * p.mu)),
}


def _record(system: str, state) -> System:
    """The record of `system`, once `state` holds every field it advances."""
    try:
        record = SYSTEMS[system]
    except KeyError:
        raise ValueError(f"unknown system {system!r}") from None
    missing = [name for name in record.fields if getattr(state, name, None) is None]
    if missing:
        raise ValueError(f"{system} advances {', '.join(missing)}, "
                         f"which the state lacks")
    return record


# ---------------------------------------------------------------------------
# time integration
# ---------------------------------------------------------------------------

RK4_DIFFUSIVE_LIMIT = 2.78    # RK4 is stable for real h*lambda in [-2.78, 0]


def _stiff_limits(record: System, params: MediumParams, state) -> dict:
    """{term: (rate, limit)} of the system's stiff linear terms: a step h from
    `state` is stable on a term only for rate * h <= limit.  kappa E has rate
    kappa; a diffusion has rate D k2_max, D at the state's least density (the
    only read of the state) and k2_max the largest |k|^2 of the grid."""
    limits = {"kappa*dt": (params.kappa, KAPPA_DT_LIMIT)} if record.uses_kappa else {}
    if record.diffusivity is not None:
        mu = state.mu_field
        limits["D*k2_max*dt"] = (
            record.diffusivity(params, float(mu.values.min()))
            * float(_k_squared(mu.grid).max()),
            RK4_DIFFUSIVE_LIMIT)
    return limits


def auto_step_size(state, params: MediumParams, control: StepControl,
                   system: str) -> float:
    """cfl times the least of h_min / (c_max + |v|_max), |v|_max zero for the
    classical system, and every limit / rate of `_stiff_limits` at `state`:
    at cfl = 1, the longest step from `state` that breaks no limit."""
    record = _record(system, state)
    grid = getattr(state, record.fields[0]).grid
    vmax = norm_linf(state.v) if hasattr(state, "v") else 0.0
    h = control.cfl * grid.min_active_spacing() / (
        getattr(params, record.cfl_speed) + vmax
    )
    for rate, limit in _stiff_limits(record, params, state).values():
        if rate > 0.0:
            h = min(h, control.cfl * limit / rate)
    return h


# what an RHS evaluation inside a step may raise; the step turns each into
# an IntegrationError that carries the last accepted state
_STAGE_ERRORS = (FieldError, FloatingPointError, DensityError, SolenoidalityError)


class _Stepper:
    """One RK4 path of one system and one parameter set; `like` is a state of
    the system that supplies the attributes the integrator does not advance.
    The stepper keeps those and the field classes, not `like`'s arrays, so
    it holds no reference to its initial state after its first step.

    The stepper holds the path's head, the last accepted state: `state`, its
    `time`, its stage values `y`, its stage rates `k` (the first RK stage of
    the step from it) and `rates()`, the system's physical RHS result there.
    The stage values are the physical values of the advanced fields, or,
    when the record has `rhs_hat`, their half-spectrum coefficients: one
    `stacked` array of them, the in-plane ones alone (`rhs_plane_hat`) when
    `like` lies in the `plane` (a, b, n) of a 2D grid, which fi keeps (see
    the module docstring); or one array per field when the record holds
    some fields `physical`, those as grid values.  States and `rates()` have
    three components all the same.
    `start` accepts the first state and `advance` moves the head one step;
    a state is accepted only once its RHS is evaluated and finite.
    `evaluate` returns the physical state at any stage values; `advance`
    evaluates its inner stages for their rates alone (`_inner_stage`) and
    decodes only the state it accepts.  The head's state is held until the
    next step starts, and only weakly during it: whoever kept it still has
    it, and once nobody does, `state` decodes it anew from y.  A failed
    evaluation raises an IntegrationError carrying the head, which stays
    where it was.
    """

    def __init__(self, system: str, params: MediumParams, like):
        self.system, self.params = system, params
        self.record = _record(system, like)
        self.grid = getattr(like, self.record.fields[0]).grid
        self.classes = [type(getattr(like, name)) for name in self.record.fields]
        self.like = dataclasses.replace(like, **dict.fromkeys(self.record.fields))
        self.y = self.k = self.rates = self.time = self.plane = None
        self._held = self._head = None
        plane = self.record.rhs_plane_hat and _plane(self.grid)
        if plane and not any(a[plane[2]].any() for a in self._values(like)):
            self.plane = plane
        record = self.record
        self.rhs_hat = record.rhs_hat if self.plane is None else record.rhs_plane_hat
        self.stacked = not record.physical

    @property
    def state(self):
        """The head's physical state, None before `start`."""
        state = None if self._head is None else self._head()
        if state is None and self.y is not None:
            state = self._hold(self._decode(self._grid_values(self.y), self.time))
        return state

    def _hold(self, state):
        self._held, self._head = state, weakref.ref(state)
        return state

    def _values(self, state) -> list[np.ndarray]:
        values = [getattr(state, name).values for name in self.record.fields]
        return values if self.plane is None else [a[list(self.plane[:2])] for a in values]

    def encode(self, state, one_off: bool = False) -> list[np.ndarray]:
        """The stage values of a physical state.  `one_off` leaves zero the
        coefficients of a `read_by_div` field along the inactive axes, which
        an evaluation does not read and only a step advances."""
        record, g = self.record, self.grid
        values = self._values(state)
        if record.rhs_hat is None:
            return values
        if self.stacked:
            return [fftn_array(g, np.stack(values))]
        y = []
        for name, a in zip(record.fields, values):
            if name in record.physical:
                y.append(a)
            elif one_off and name in record.read_by_div:
                y.append(np.zeros(a.shape[:1] + g.spectral_shape, np.complex128))
                for i in _transform_axes(g):
                    y[-1][i] = fftn_array(g, a[i])
            else:
                y.append(fftn_array(g, a))
        return y

    def _grid_values(self, y, physical=None) -> list[np.ndarray]:
        """The physical values of the advanced fields at stage values y;
        `physical`, when given, holds those of the first two fields, which
        the RHS has formed."""
        record, g = self.record, self.grid
        if record.rhs_hat is None:
            return y
        if self.stacked:
            return list(_embed(g, ifftn_array(g, y[0]) if physical is None else physical))
        values = [] if physical is None else list(physical)
        for name, a in zip(record.fields[len(values):], y[len(values):]):
            values.append(a if name in record.physical else ifftn_array(g, a))
        return values

    def _decode(self, values, time: float):
        """The state at `time` with physical field values `values`."""
        fields = {name: cls._wrap(self.grid, a)
                  for name, cls, a in zip(self.record.fields, self.classes, values)}
        return dataclasses.replace(self.like, time=time, **fields)

    def _rhs(self, y, physical=None):
        """`rhs_hat` at stage values y, its stage rates as a list; `physical`
        holds the grid values of the first two fields when they are known."""
        if self.stacked:
            k, physical, rates = self.rhs_hat(self.grid, y[0], self.params, physical)
            return [k], physical, rates
        return self.rhs_hat(self.grid, y, self.params, physical)

    def evaluate(self, y, time: float, state=None):
        """(stage rates k, physical state, rates on request) at stage values
        y; `state` is the physical state of y when the caller already has it."""
        record = self.record
        if record.rhs_hat is None:
            if state is None:
                state = self._decode(y, time)
            rates = record.rhs(state, self.params)
            k = [getattr(rates, name).values for name in record.rates]
            return k, state, lambda: rates
        physical = None
        if state is not None:
            physical = self._values(state)[:2]
            physical = np.stack(physical) if self.stacked else physical
        k, physical, rates = self._rhs(y, physical)
        if state is None:
            state = self._decode(self._grid_values(y, physical), time)
        return k, state, rates

    def _stage(self, y, time: float, state=None):
        """`evaluate`, once its stage rates are scanned finite."""
        k, state, rates = self.evaluate(y, time, state)
        _check_finite(k)
        return k, state, rates

    def _inner_stage(self, y, time: float) -> list[np.ndarray]:
        """The stage rates at y, scanned finite, of an RK stage whose state
        and physical rates nothing reads: on coefficients, no state is
        decoded and no `rates()` formed."""
        if self.record.rhs_hat is None:
            return self._stage(y, time)[0]
        k = self._rhs(y)[0]
        _check_finite(k)
        return k

    def start(self, state) -> None:
        """Accept `state` as the head."""
        y = self.encode(state)
        try:
            k, _, rates = self._stage(y, state.time, state)
        except _STAGE_ERRORS as exc:
            raise self.failure(state, None, None, exc) from exc
        self.y, self.time, self.k, self.rates = y, state.time, k, rates
        self._hold(state)

    def check(self, state, h: float) -> None:
        """Raise StepSizeError unless a step of size h from `state` keeps
        inside `_stiff_limits` there."""
        if not h > 0:
            raise StepSizeError(f"step size must be positive, got {h}")
        for term, (rate, limit) in _stiff_limits(self.record, self.params, state).items():
            # not rate * h > limit: cfl <= 1 times the limit never trips it
            if rate > 0.0 and h > limit / rate:
                raise StepSizeError(
                    f"{term} = {rate * h:.3g} exceeds the explicit stability "
                    f"range ({limit}); reduce dt")

    def advance(self, h: float) -> None:
        """Move the head one RK4 step of size h, h checked at the head before
        any stage; the new head's evaluation is the next step's first stage,
        and the previous head is released only once the new one is accepted.
        Beside y and k1 a stage holds its input and at most one register:
        k2 at stage 3, k2 + k3 at stage 4, formed fresh before it (a rate is
        read-only, and a du is its stage input's v)."""
        self.check(self.state, h)
        self._held = None

        def plus_y(arrays):
            for out, y in zip(arrays, self.y):
                out += y
            return arrays

        time = self.time + h
        try:
            k2 = self._inner_stage(plus_y([k * (h / 2.0) for k in self.k]), self.time)
            k3 = self._inner_stage(plus_y([k * (h / 2.0) for k in k2]), self.time)
            # y + (a + (b + c) * 2 + d) * (h / 6), in that operation order
            new = [b + c for b, c in zip(k2, k3)]
            del k2    # freed before y + k3 h is formed
            y4 = plus_y([k * h for k in k3])
            del k3
            k4 = self._inner_stage(y4, self.time)
            for out, a, d in zip(new, self.k, k4):
                out *= 2.0
                out += a
                out += d
                out *= h / 6.0
            del y4, k4    # freed before the end state's evaluation peaks
            new = plus_y(new)
            _check_finite(new)
            k, state, rates = self._stage(new, time)
        except _STAGE_ERRORS as exc:
            raise self.failure(self.state, self.rates, h, exc) from exc
        self.y, self.time, self.k, self.rates = new, time, k, rates
        self._hold(state)

    def failure(self, state, rates, h, exc: Exception) -> "IntegrationError":
        step = "" if h is None else f" with dt={h:.3e}"
        return IntegrationError(
            f"step from t={state.time:.6g}{step} failed in system "
            f"{self.system!r}: {type(exc).__name__}: {exc}",
            state=state, rates=rates)


def _check_finite(arrays) -> None:
    # a complex array is scanned through its float view, twice as fast: a
    # complex value is finite exactly when both its parts are
    for a in arrays:
        if not np.isfinite(a.view(a.real.dtype)).all():
            raise FieldError("non-finite values in an RK stage")


def rhs(state, params: MediumParams, system: str):
    """The system's physical RHS result at a physical state (`FiRates`,
    `CompressibleRates`, ...): the first RK stage that `integrate` evaluates
    there, through a stepper of the system.  A system that steps on
    coefficients transforms the state in once and its rates out once."""
    stepper = _Stepper(system, params, state)
    return stepper.evaluate(stepper.encode(state, one_off=True), state.time, state)[2]()


def integrate(state, params: MediumParams, control: StepControl, system: str,
              observer=None):
    """Advance to control.t_end, shortening the final step to land exactly.

    The step is dt, or under auto dt `auto_step_size` of the initial state,
    held: it halves for the rest of the run only at a start state where it
    would break a limit (`auto_step_size` at cfl = 1 is below it).  Its first
    value is the sample clock: `observer(tick, state, rates)` is called with
    the initial state (tick 0), at every multiple of it and at t_end.
    `rates()` returns the system's physical RHS result at that state.  The
    run is one `_Stepper` path, and the observer sees its head: the RHS is
    evaluated once per accepted state, the final one included, and that
    evaluation is the next step's first stage.  A first step beyond a stiff
    limit raises StepSizeError before any evaluation.  A failed evaluation
    raises an IntegrationError carrying the head and its `rates`.  The run
    holds no reference to `state` after its first accepted step.
    """
    stepper = _Stepper(system, params, state)
    auto = control.dt == "auto"
    h = auto_step_size(state, params, control, system) if auto else float(control.dt)
    at_limit = dataclasses.replace(control, cfl=1.0)
    n, per_tick = 0, 1       # ticks observed, steps of size h per tick
    t_end = control.t_end
    eps = 1e-12 * abs(t_end)
    if state.time < t_end - eps:
        stepper.check(state, min(h, t_end - state.time))
    stepper.start(state)
    del state    # the head holds it only until the first step is accepted
    while True:
        if observer is not None:
            observer(n, stepper.state, stepper.rates)
        if not stepper.time < t_end - eps:
            return stepper.state
        taken = 0
        while taken < per_tick and stepper.time < t_end - eps:
            while auto and auto_step_size(stepper.state, params, at_limit, system) < h:
                h, per_tick, taken = h / 2.0, per_tick * 2, taken * 2
            stepper.advance(min(h, t_end - stepper.time))
            taken += 1
        n += 1
