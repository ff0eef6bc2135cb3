"""Governing-system right-hand sides, Oldroyd rates, and the RK4 integrator."""

import dataclasses
import itertools
import weakref

import numpy as np
import pytest

from metacont.fields import (
    FieldError,
    ScalarField,
    TensorField,
    VectorField,
    ifftn_array,
    make_grid,
    norm_l2,
    norm_linf,
)
from metacont.diffops import div, grad_vector, hessian_contract, leray_project
from metacont.dynamics import (
    DensityError,
    FluidState,
    IntegrationError,
    MaxwellState,
    MediumParams,
    SYSTEMS,
    SecondOrderState,
    SolenoidalityError,
    StepControl,
    StepSizeError,
    _Stepper,
    auto_step_size,
    integrate,
    oldroyd_discrepancy,
    rhs,
    upper_convected_tensor,
    upper_convected_vector,
)
from metacont.scenarios import ScenarioSpec, generate

import outofplace_reference as ref
from helpers import (
    GRID_64,
    band_limited_scalar,
    band_limited_tensor,
    band_limited_vector,
    cosine_scalar,
    identity_tensor,
    sine_scalar,
    traced_peak_units,
    vector_of,
)


def _zeros_state(grid, with_u=False, with_mu=False, mu=1.0):
    return FluidState(
        time=0.0,
        v=VectorField.zeros(grid),
        E=VectorField.zeros(grid),
        mu_field=ScalarField.full(grid, mu) if with_mu else None,
        u=VectorField.zeros(grid) if with_u else None,
    )


class TestMediumParams:
    def test_derived_speeds(self):
        p = MediumParams(mu=1.0, eta=1.0, lam=98.0)
        assert p.c == 1.0
        assert abs(p.c_s - 10.0) < 1e-14
        assert abs(p.delta - 0.01) < 1e-15
        assert abs(p.delta - p.c ** 2 / p.c_s ** 2) < 1e-15

    def test_delta_range(self):
        assert MediumParams(lam=0.0).delta == 0.5
        assert 0.0 < MediumParams(lam=1e6).delta < 0.5

    def test_zeta_derived_from_eta_tau(self):
        p = MediumParams(eta=2.0, tau=0.5)
        assert p.zeta == 1.0

    def test_inconsistent_zeta_rejected(self):
        # zeta is derived from eta and tau, so no zeta can be given at all
        with pytest.raises(TypeError, match="zeta"):
            MediumParams(eta=1.0, tau=1.0, zeta=2.0)

    def test_positivity(self):
        with pytest.raises(ValueError):
            MediumParams(mu=0.0)
        with pytest.raises(ValueError):
            MediumParams(eta=-1.0)
        with pytest.raises(ValueError):
            MediumParams(lam=-0.1)
        with pytest.raises(ValueError):
            MediumParams(tau=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["mu", "eta", "lam", "kappa", "tau", "nu"])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            MediumParams(**{name: value})


class TestStepControl:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["t_end", "dt", "cfl"])
    def test_non_finite_rejected(self, name, value):
        kwargs = {"t_end": 1.0, name: value}
        with pytest.raises(StepSizeError, match=name):
            StepControl(**kwargs)


class TestLinearNavier:
    def test_zero_state(self):
        r = rhs(_zeros_state(GRID_64, with_u=True), MediumParams(), "linear_navier")
        assert norm_linf(r.du) == 0.0
        assert norm_linf(r.dv) == 0.0

    def test_shear_branch(self):
        # u = (A sin(2y), 0, 0) solenoidal: v_t = -eta k^2 u / mu = -4 A sin(2y)
        A, k = 0.5, 2
        state = FluidState(
            time=0.0,
            v=VectorField.zeros(GRID_64),
            u=vector_of(GRID_64, fx=sine_scalar(GRID_64, axis=1, k=k) * A),
        )
        r = rhs(state, MediumParams(mu=1.0, eta=1.0, lam=0.0), "linear_navier")
        expected = -A * k ** 2 * sine_scalar(GRID_64, axis=1, k=k).values
        np.testing.assert_allclose(r.dv.x.values, expected, atol=1e-11)
        np.testing.assert_array_equal(r.du.x.values, state.v.x.values)

    def test_compressional_branch(self):
        # u = (A cos x, 0, 0): div u = -A sin x, v_t = -(lam+2eta) A cos x / mu
        A = 0.25
        lam, eta, mu = 3.0, 1.0, 2.0
        state = FluidState(
            time=0.0,
            v=VectorField.zeros(GRID_64),
            u=vector_of(GRID_64, fx=cosine_scalar(GRID_64, axis=0) * A),
        )
        r = rhs(state, MediumParams(mu=mu, eta=eta, lam=lam), "linear_navier")
        expected = -(lam + 2 * eta) / mu * A * cosine_scalar(GRID_64, axis=0).values
        np.testing.assert_allclose(r.dv.x.values, expected, atol=1e-11)


class TestUpperConvectedRates:
    def test_vector_rate_zero_velocity(self):
        E = band_limited_vector(GRID_64, seed=50)
        out = upper_convected_vector(E, VectorField.zeros(GRID_64))
        assert norm_linf(out) == 0.0

    def test_vector_rate_zero_field(self):
        v = band_limited_vector(GRID_64, seed=52)
        out = upper_convected_vector(VectorField.zeros(GRID_64), v)
        assert norm_linf(out) == 0.0

    def test_vector_rate_oracle(self):
        # v = (sin y,0,0), E = (0,sin y,0): v.grad E = 0, div v = 0,
        # -E.grad v = (-sin y cos y, 0, 0)
        v = vector_of(GRID_64, fx=sine_scalar(GRID_64, axis=1))
        E = vector_of(GRID_64, fy=sine_scalar(GRID_64, axis=1))
        out = upper_convected_vector(E, v)
        _, y, _ = GRID_64.coordinates()
        expected = np.broadcast_to(-np.sin(y) * np.cos(y), GRID_64.shape)
        np.testing.assert_allclose(out.x.values, expected, atol=1e-12)
        assert norm_linf(out.y) < 1e-12

    def test_tensor_rate_zero_velocity(self):
        sigma = band_limited_tensor(GRID_64, seed=54)
        out = upper_convected_tensor(sigma, VectorField.zeros(GRID_64))
        assert norm_linf(out) == 0.0

    def test_tensor_rate_zero_sigma(self):
        v = band_limited_vector(GRID_64, seed=56)
        out = upper_convected_tensor(TensorField.zeros(GRID_64), v)
        assert norm_linf(out) == 0.0

    def test_tensor_rate_isotropic_oracle(self):
        # sigma = f I with solenoidal v: rate = (v.grad f) I - f (grad v + grad v^T)
        f = band_limited_scalar(GRID_64, seed=58, fraction=0.15)
        v = band_limited_vector(GRID_64, seed=59, fraction=0.15, solenoidal=True)
        sigma = identity_tensor(GRID_64) * f
        out = upper_convected_tensor(sigma, v)

        from metacont.diffops import advect_scalar
        from metacont.fields import dealias_field

        gv = grad_vector(v).values
        expected = (identity_tensor(GRID_64) * advect_scalar(v, f)
                    - dealias_field(TensorField(GRID_64, gv + gv.swapaxes(0, 1)) * f))
        assert norm_linf(out - expected) < 1e-10

    def test_oldroyd_discrepancy_zero_cases(self):
        sigma = band_limited_tensor(GRID_64, seed=60)
        const_v = VectorField(GRID_64, (np.full(GRID_64.shape, 2.0),) * 3)
        assert norm_linf(oldroyd_discrepancy(sigma, const_v)) < 1e-12
        v = band_limited_vector(GRID_64, seed=61)
        assert norm_linf(oldroyd_discrepancy(TensorField.zeros(GRID_64), v)) == 0.0

    def test_oldroyd_discrepancy_is_minus_hessian_contract(self):
        # cubic-safe bandwidth |m| <= n/6
        sigma = band_limited_tensor(GRID_64, seed=62, fraction=1 / 6)
        v = band_limited_vector(GRID_64, seed=63, fraction=1 / 6)
        residual = oldroyd_discrepancy(sigma, v) + hessian_contract(v, sigma)
        assert norm_linf(residual) < 1e-9


class TestFiIncompressible:
    def test_zero_state(self):
        r = rhs(_zeros_state(GRID_64), MediumParams(), "fi_incompressible")
        assert norm_linf(r.dv) == 0.0
        assert norm_linf(r.dE) == 0.0

    def test_gradient_stress_is_absorbed_by_pressure(self):
        # E = (sin x,0,0) = grad(-cos x): projection removes -E/mu entirely
        state = FluidState(
            time=0.0,
            v=VectorField.zeros(GRID_64),
            E=vector_of(GRID_64, fx=sine_scalar(GRID_64, axis=0)),
        )
        r = rhs(state, MediumParams(kappa=0.0), "fi_incompressible")
        assert norm_linf(r.dv) < 1e-12
        assert norm_linf(r.dE) < 1e-12
        # removed gradient is -grad(-cos x)/mu -> pressure = cos x (zero mean)
        np.testing.assert_allclose(r.pressure.values,
                                   cosine_scalar(GRID_64, axis=0).values, atol=1e-11)

    def test_shear_wave_seed(self):
        # v = (A sin(2y),0,0), E = 0: E_t = eta curl curl v = (A k^2 sin(2y),0,0)
        A, k = 1e-3, 2
        state = FluidState(
            time=0.0,
            v=vector_of(GRID_64, fx=sine_scalar(GRID_64, axis=1, k=k) * A),
            E=VectorField.zeros(GRID_64),
        )
        r = rhs(state, MediumParams(mu=1.0, eta=1.0, kappa=0.0), "fi_incompressible")
        expected = A * k ** 2 * sine_scalar(GRID_64, axis=1, k=k).values
        np.testing.assert_allclose(r.dE.x.values, expected, atol=1e-12)
        assert norm_linf(r.dv) < 1e-15

    def test_divergent_input_rejected(self):
        state = FluidState(
            time=0.0,
            v=vector_of(GRID_64, fx=cosine_scalar(GRID_64, axis=0)),  # grad field
            E=VectorField.zeros(GRID_64),
        )
        with pytest.raises(SolenoidalityError):
            rhs(state, MediumParams(), "fi_incompressible")


class TestSecondOrder:
    def test_zero_state(self):
        state = SecondOrderState(time=0.0, v=VectorField.zeros(GRID_64),
                                 v_t=VectorField.zeros(GRID_64))
        r = rhs(state, MediumParams(), "second_order")
        assert norm_linf(r.dv) == 0.0
        assert norm_linf(r.dv_t) == 0.0

    def test_linear_regime_is_wave_equation(self):
        # v = (sin y,0,0), v_t = 0: v_tt = (eta/mu) lap v = (-sin y,0,0)
        v = vector_of(GRID_64, fx=sine_scalar(GRID_64, axis=1))
        state = SecondOrderState(time=0.0, v=v, v_t=VectorField.zeros(GRID_64))
        r = rhs(state, MediumParams(mu=1.0, eta=1.0), "second_order")
        np.testing.assert_allclose(r.dv_t.x.values, -v.x.values, atol=1e-11)
        assert norm_linf(r.dv) == 0.0

    @pytest.mark.parametrize("field", ("v", "v_t"))
    def test_divergent_input_rejected_naming_the_field(self, field):
        fields = {"v": vector_of(GRID_64, fx=sine_scalar(GRID_64, axis=1)),
                  "v_t": vector_of(GRID_64, fy=sine_scalar(GRID_64, axis=0))}
        fields[field] = vector_of(GRID_64, fx=cosine_scalar(GRID_64, axis=0))
        state = SecondOrderState(time=0.0, **fields)
        with pytest.raises(SolenoidalityError, match=rf"^div {field} = "):
            rhs(state, MediumParams(), "second_order")


class TestCompressible:
    def test_uniform_state_is_static(self):
        state = _zeros_state(GRID_64, with_u=True, with_mu=True, mu=2.0)
        for rheology in ("liquid", "solid"):
            r = rhs(state, MediumParams(mu=2.0), f"compressible_{rheology}")
            assert norm_linf(r.dv) == 0.0
            assert norm_linf(r.dE) == 0.0
            assert norm_linf(r.dmu) == 0.0

    def test_solid_compression_pulse(self):
        # u = (A sin x,0,0), v=0: v_t = (lam+2eta) grad(div u) = -(lam+2eta) A sin x
        A, lam, eta = 1e-3, 98.0, 1.0
        state = FluidState(
            time=0.0,
            v=VectorField.zeros(GRID_64),
            E=VectorField.zeros(GRID_64),
            mu_field=ScalarField.full(GRID_64, 1.0),
            u=vector_of(GRID_64, fx=sine_scalar(GRID_64, axis=0) * A),
        )
        r = rhs(state, MediumParams(mu=1.0, eta=eta, lam=lam), "compressible_solid")
        expected = -(lam + 2 * eta) * A * sine_scalar(GRID_64, axis=0).values
        np.testing.assert_allclose(r.dv.x.values, expected, atol=1e-9)
        np.testing.assert_array_equal(r.du.x.values, state.v.x.values)

    def test_liquid_branch_matches_incompressible_up_to_pressure(self):
        # with div v = 0 and uniform density, dv differs from the
        # incompressible dv by a pure gradient and dE matches exactly
        v = band_limited_vector(GRID_64, seed=64, fraction=1 / 6,
                                amplitude=0.1, solenoidal=True)
        E = band_limited_vector(GRID_64, seed=65, fraction=1 / 6, amplitude=0.1)
        params = MediumParams(mu=1.0, eta=1.0, kappa=0.3)
        state = FluidState(time=0.0, v=v, E=E,
                           mu_field=ScalarField.full(GRID_64, 1.0))
        rc = rhs(state, params, "compressible_liquid")
        ri = rhs(state, params, "fi_incompressible")
        assert norm_linf(rc.dE - ri.dE) < 1e-12
        gradient_part = rc.dv - ri.dv
        assert norm_linf(leray_project(gradient_part).solenoidal) < 1e-9

    def test_density_positivity_enforced(self):
        state = FluidState(
            time=0.0,
            v=VectorField.zeros(GRID_64),
            E=VectorField.zeros(GRID_64),
            mu_field=ScalarField(GRID_64, np.full(GRID_64.shape, -1.0)),
        )
        with pytest.raises(DensityError):
            rhs(state, MediumParams(), "compressible_liquid")


class TestClassicalMaxwell:
    def test_zero_state(self):
        state = MaxwellState(time=0.0, E=VectorField.zeros(GRID_64),
                             B=VectorField.zeros(GRID_64))
        r = rhs(state, MediumParams(), "classical_maxwell")
        assert norm_linf(r.dE) == 0.0
        assert norm_linf(r.dB) == 0.0

    def test_standing_initialization(self):
        # E = (0, sin(kx), 0), B = 0: B_t = -curl E = (0,0,-k cos(kx)), E_t = 0
        k = 3
        state = MaxwellState(
            time=0.0,
            E=vector_of(GRID_64, fy=sine_scalar(GRID_64, axis=0, k=k)),
            B=VectorField.zeros(GRID_64),
        )
        r = rhs(state, MediumParams(), "classical_maxwell")
        expected = -k * cosine_scalar(GRID_64, axis=0, k=k).values
        np.testing.assert_allclose(r.dB.z.values, expected, atol=1e-11)
        assert norm_linf(r.dE) == 0.0

    def test_div_b_stays_zero_along_trajectory(self):
        state = MaxwellState(
            time=0.0,
            E=vector_of(GRID_64, fy=sine_scalar(GRID_64, axis=0)),
            B=VectorField.zeros(GRID_64),
        )
        control = StepControl(t_end=0.4, dt=0.02)
        worst = []
        integrate(state, MediumParams(), control, "classical_maxwell",
                  lambda i, s, rates: worst.append(norm_linf(div(s.B))))
        assert len(worst) == 21
        assert max(worst) < 1e-12


def _stepper_state(grid):
    """Band-limited fields for every state attribute of the fluid systems."""
    return FluidState(
        time=0.0,
        v=band_limited_vector(grid, 72, 1 / 6, 0.1, solenoidal=True),
        E=band_limited_vector(grid, 73, 1 / 6, 0.1),
        mu_field=ScalarField(
            grid, 1.0 + band_limited_scalar(grid, 74, 1 / 6, 0.2).values),
        u=band_limited_vector(grid, 75, 1 / 6, 0.01),
    )


def _standing_shear_state(grid, amplitude=1e-3, k=1):
    return FluidState(
        time=0.0,
        v=vector_of(grid, fy=sine_scalar(grid, axis=0, k=k) * amplitude),
        E=VectorField.zeros(grid),
    )


class TestStepAndIntegrate:
    def test_zero_state_stays_zero(self):
        state = _zeros_state(GRID_64)
        out = integrate(state, MediumParams(), StepControl(t_end=0.1, dt=0.1),
                        "fi_incompressible")
        assert out.time == 0.1
        assert norm_linf(out.v) == 0.0
        assert norm_linf(out.E) == 0.0

    def test_auto_dt_formula(self):
        # c = 1, spacing 2*pi/64, cfl = 0.4, |v|_max = 0
        state = _zeros_state(GRID_64)
        dt = auto_step_size(state, MediumParams(mu=1.0, eta=1.0),
                            StepControl(t_end=1.0, cfl=0.4), "fi_incompressible")
        assert abs(dt - 0.4 * (2 * np.pi / 64)) < 1e-15

    def test_auto_dt_uses_cs_for_compressible(self):
        state = _zeros_state(GRID_64, with_u=True, with_mu=True)
        p = MediumParams(mu=1.0, eta=1.0, lam=98.0)
        dt = auto_step_size(state, p, StepControl(t_end=1.0, cfl=0.4),
                            "compressible_solid")
        assert abs(dt - 0.4 * (2 * np.pi / 64) / 10.0) < 1e-15

    def test_divergence_stays_small_along_trajectory(self):
        v = band_limited_vector(GRID_64, seed=66, fraction=1 / 6,
                                amplitude=0.1, solenoidal=True)
        E = band_limited_vector(GRID_64, seed=67, fraction=1 / 6, amplitude=0.1)
        state = FluidState(time=0.0, v=v, E=E)
        params = MediumParams()
        control = StepControl(t_end=0.5, dt="auto", cfl=0.4)

        worst = 0.0

        def observer(i, s, rates):
            nonlocal worst
            worst = max(worst, norm_linf(div(s.v)))

        integrate(state, params, control, "fi_incompressible", observer)
        assert worst < 1e-11

    def test_energy_drift_linear_shear_wave(self):
        # single k=1 transverse mode with c=1: energy = mu|v|^2/2 + |E|^2/(2 mu)
        # is conserved; RK4 at dt=0.02 keeps the drift far below 1e-8 over 200 steps
        params = MediumParams(mu=1.0, eta=1.0, kappa=0.0)
        state = _standing_shear_state(GRID_64)
        control = StepControl(t_end=4.0, dt=0.02)

        def energy(s):
            return (0.5 * params.mu * norm_l2(s.v) ** 2
                    + 0.5 / params.mu * norm_l2(s.E) ** 2)

        e0 = energy(state)
        state = integrate(state, params, control, "fi_incompressible")
        assert abs(energy(state) - e0) / e0 < 1e-8

    def test_final_step_lands_exactly(self):
        state = _zeros_state(GRID_64)
        out = integrate(state, MediumParams(), StepControl(t_end=0.25, dt=0.1),
                        "fi_incompressible")
        assert abs(out.time - 0.25) < 1e-12

    @pytest.mark.parametrize("t_end", (1e-13, 5e-13))
    def test_a_t_end_below_the_end_tolerance_of_one_is_reached(self, t_end):
        # the end tolerance is relative to t_end, so one short step is taken
        out = integrate(_zeros_state(GRID_64), MediumParams(),
                        StepControl(t_end=t_end, dt=0.01), "fi_incompressible")
        assert out.time == t_end

    def test_kappa_stiffness_rejected(self):
        state = _zeros_state(GRID_64)
        params = MediumParams(kappa=1e4)
        with pytest.raises(StepSizeError):
            integrate(state, params, StepControl(t_end=1.0, dt=0.01),
                      "fi_incompressible")

    def test_blowup_aborts_with_diagnostic(self):
        state = _standing_shear_state(GRID_64, amplitude=1.0)
        params = MediumParams()
        control = StepControl(t_end=5e9, dt=1e8)  # wildly unstable on purpose
        with pytest.raises(IntegrationError) as info, \
                np.errstate(over="ignore", invalid="ignore"):
            integrate(state, params, control, "fi_incompressible")
        assert info.value.state is not None

    def test_pressure_populated_on_fi_steps(self):
        # the pressure is a rate of each observed state, not carried state
        v = band_limited_vector(GRID_64, seed=68, fraction=1 / 6,
                                amplitude=0.2, solenoidal=True)
        state = FluidState(time=0.0, v=v, E=VectorField.zeros(GRID_64))
        pressures = []
        integrate(state, MediumParams(), StepControl(t_end=0.02, dt=0.01),
                  "fi_incompressible",
                  lambda i, s, rates: pressures.append(rates().pressure))
        assert len(pressures) == 3
        assert all(norm_linf(p) > 0.0 for p in pressures)
        # step 0 is the pressure of the initial state itself
        np.testing.assert_array_equal(
            pressures[0].values,
            rhs(state, MediumParams(), "fi_incompressible").pressure.values)

    def test_compressible_liquid_preserves_solenoidality_single_mode(self):
        # single-mode transverse data: (v.grad)v vanishes identically, so the
        # liquid branch keeps div v at round-off over a short run; dt is
        # inside the diffusive limit, 2.78 / (2 x 1922) = 7.2e-4 on 64x64
        params = MediumParams(mu=1.0, eta=1.0, nu=0.0)
        state = FluidState(
            time=0.0,
            v=vector_of(GRID_64, fy=sine_scalar(GRID_64, axis=0) * 1e-3),
            E=VectorField.zeros(GRID_64),
            mu_field=ScalarField.full(GRID_64, 1.0),
        )
        out = integrate(state, params, StepControl(t_end=0.5, dt=7e-4),
                        "compressible_liquid")
        assert norm_linf(div(out.v)) < 1e-12

    @pytest.mark.parametrize("system, amplitude", [("fi_incompressible", 1.0),
                                                   ("second_order", 0.3)])
    def test_solenoidal_fields_stay_solenoidal_at_every_tick(self, system, amplitude):
        # div v (and div v_t) is held by the stepping alone over 300 steps of
        # a full-amplitude random flow, checked at every accepted state
        grid = make_grid((32, 32, 1), (2 * np.pi,) * 3)
        params = MediumParams(kappa=0.1)
        spec = ScenarioSpec("random_solenoidal", amplitude=amplitude, seed=3)
        state = SYSTEMS[system].initial(generate(spec, grid, params), params)
        worst = []

        def observer(n, s, rates):
            worst.append(max(norm_linf(div(getattr(s, name)))
                             for name in SYSTEMS[system].fields if name != "E"))

        integrate(state, params, StepControl(t_end=1.5, dt=0.005), system, observer)
        assert len(worst) == 301
        assert max(worst) <= 1e-13, max(worst)

    @pytest.mark.parametrize("system, dims", [("fi_incompressible", (16, 16, 1)),
                                              ("second_order", (8, 8, 8)),
                                              ("linear_navier", (8, 8, 8)),
                                              ("compressible_liquid", (8, 8, 8)),
                                              ("compressible_solid", (8, 8, 8))])
    def test_advance_equals_out_of_place_rk4_and_keeps_its_source(self, system, dims):
        # fi's and second_order's stages hold coefficients, the others'
        # physical values; linear_navier's and compressible_solid's rate du is
        # the stage input's v array, so a stage register reused or written in
        # place would change a rate that the update still reads
        grid = make_grid(dims, (2 * np.pi, 3.0, 4.0))
        params = MediumParams(lam=1.0, kappa=0.3)
        state = SYSTEMS[system].initial(_stepper_state(grid), params)
        stepper = _Stepper(system, params, state)
        stepper.start(state)
        h = 0.01
        source = stepper.y + stepper.k
        y0, k1 = [y.copy() for y in stepper.y], [k.copy() for k in stepper.k]
        stepper.advance(h)
        new = stepper.y
        for got, want in zip(source, y0 + k1):
            assert got.tobytes() == want.tobytes()

        def rates_at(y):
            return stepper.evaluate(y, 0.0)[0]

        k2 = rates_at(ref.rk4_stage(y0, k1, h / 2.0))
        k3 = rates_at(ref.rk4_stage(y0, k2, h / 2.0))
        k4 = rates_at(ref.rk4_stage(y0, k3, h))
        expected = ref.rk4_update(y0, k1, k2, k3, k4, h)
        assert len(new) == len(expected)
        for got, want in zip(new, expected):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_three_compressible_solid_steps_peak_below_62_grid_components(self):
        # the traced peak of three steps, the initial state built in the call
        # so that only the trajectory holds it: 61.0 grid components at 16^3,
        # against 86.5 while the stepper kept k2 and k3 through stage 4 and
        # the initial state for the whole run, and the RHS its temporaries
        grid = make_grid((16, 16, 16), (2 * np.pi, 3.0, 4.0))
        params = MediumParams(lam=1.0, kappa=0.3)
        units = traced_peak_units(grid, lambda: integrate(
            _stepper_state(grid), params, StepControl(t_end=0.03, dt=0.01),
            "compressible_solid"))
        assert units <= 62.0, units

    def test_three_planar_fi_steps_peak_below_58_grid_components(self):
        # the traced peak of a planar fi stepper from a 64x64x1 shear wave,
        # started and advanced three times, the state built in the call:
        # 57.4 grid components, against 59.5 while a stage concatenated its
        # transform inputs and products, stacked its rates and decoded the
        # state of every stage
        params = MediumParams()
        spec = ScenarioSpec("plane_shear_wave", amplitude=1e-3, polarization=(0, 1, 0))

        def three_steps():
            state = generate(spec, GRID_64, params)
            stepper = _Stepper("fi_incompressible", params, state)
            assert stepper.plane is not None
            stepper.start(state)
            del state
            for _ in range(3):
                stepper.advance(0.01)

        units = traced_peak_units(GRID_64, three_steps)
        assert units <= 58.0, units

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_a_trajectory_drops_its_initial_state_once_it_steps(self, system):
        # the caller holds no reference to the initial state: once the first
        # step is accepted, no array of its advanced fields is alive
        grid = make_grid((8, 8, 8), (2 * np.pi, 3.0, 4.0))
        params = MediumParams(lam=1.0, kappa=0.3)
        record = SYSTEMS[system]
        refs = []

        def initial():
            state = record.initial(_stepper_state(grid), params)
            for name in record.fields:
                values = getattr(state, name).values
                refs.extend(weakref.ref(a) for a in (values, values.base)
                            if a is not None)
            return state

        alive = []
        integrate(initial(), params, StepControl(t_end=0.02, dt=0.01), system,
                  lambda n, state, rates: alive.append(
                      sum(r() is not None for r in refs)))
        assert alive == [len(refs), 0, 0]

    @pytest.mark.parametrize("system, dims, bad", [
        ("fi_incompressible", (16, 16, 1), complex(0.0, np.nan)),
        ("fi_incompressible", (16, 16, 1), complex(np.inf, 0.0)),
        ("compressible_solid", (8, 8, 8), np.nan),
        ("compressible_solid", (8, 8, 8), np.inf),
    ])
    def test_non_finite_stage_rate_aborts_with_last_accepted_state(
            self, monkeypatch, system, dims, bad):
        # fi's stage rates are coefficients, scanned through their float view:
        # a NaN only in an imaginary part, or +inf only in a real part, must
        # abort as a non-finite physical rate does.  The value is planted in
        # the sixth RHS evaluation, the second stage of the second step.
        grid = make_grid(dims, (2 * np.pi, 3.0, 4.0))
        state = _stepper_state(grid)
        params = MediumParams(lam=1.0, kappa=0.3)
        control = StepControl(t_end=0.03, dt=0.01)
        accepted = integrate(state, params, StepControl(t_end=0.01, dt=0.01), system)
        calls = _plant_rate(monkeypatch, system, grid, 6, bad)
        with pytest.raises(IntegrationError) as info:
            integrate(state, params, control, system)
        assert isinstance(info.value.__cause__, FieldError)
        assert next(calls) == 7
        _assert_carries(info.value, accepted, system)

    @pytest.mark.parametrize("system, dims", [("fi_incompressible", (16, 16, 1)),
                                              ("second_order", (16, 16, 1)),
                                              ("compressible_solid", (8, 8, 8))])
    def test_a_final_state_with_non_finite_rates_is_not_returned(
            self, monkeypatch, system, dims):
        # a state is accepted only once its RHS is evaluated and finite, the
        # final one too, with no observer to ask for its rates: a NaN planted
        # only in call 4n + 1, the evaluation at t_end, aborts the run with
        # the state one step before t_end and its rates
        grid = make_grid(dims, (2 * np.pi, 3.0, 4.0))
        params = MediumParams(lam=1.0, kappa=0.3)
        state = SYSTEMS[system].initial(_stepper_state(grid), params)
        n = 3
        accepted = integrate(state, params, StepControl(t_end=0.02, dt=0.01), system)
        calls = _plant_rate(monkeypatch, system, grid, 4 * n + 1, np.nan)
        with pytest.raises(IntegrationError) as info:
            integrate(state, params, StepControl(t_end=n * 0.01, dt=0.01), system)
        assert isinstance(info.value.__cause__, FieldError)
        assert next(calls) == 4 * n + 2
        _assert_carries(info.value, accepted, system)
        assert np.isfinite(info.value.rates().dv.values).all()

    @pytest.mark.parametrize("call", (6, 9))
    @pytest.mark.parametrize("system, dims", [("fi_incompressible", (16, 16, 1)),
                                              ("compressible_solid", (8, 8, 8))])
    def test_a_failed_step_leaves_the_head_in_place(self, monkeypatch, system, dims,
                                                    call):
        # a NaN planted in step 2, in its second stage (call 6) or in the
        # evaluation of its end state (call 9), leaves the step-1 head
        grid = make_grid(dims, (2 * np.pi, 3.0, 4.0))
        params = MediumParams(lam=1.0, kappa=0.3)
        state = _stepper_state(grid)
        _plant_rate(monkeypatch, system, grid, call, np.nan)
        stepper = _Stepper(system, params, state)
        stepper.start(state)
        stepper.advance(0.01)
        time, head, rates = stepper.time, stepper.state, stepper.rates()
        y, k = [a.tobytes() for a in stepper.y], [a.tobytes() for a in stepper.k]
        with pytest.raises(IntegrationError) as info:
            stepper.advance(0.01)
        assert isinstance(info.value.__cause__, FieldError)
        assert stepper.time == time == 0.01
        assert stepper.state is head and stepper.rates() is rates
        assert [a.tobytes() for a in stepper.y] == y
        assert [a.tobytes() for a in stepper.k] == k
        assert info.value.state is head and info.value.rates() is rates

    @pytest.mark.parametrize("system", ("fi_incompressible", "second_order"))
    def test_an_end_state_that_overflows_in_physical_space_is_not_accepted(
            self, monkeypatch, system):
        # fi's and second_order's stages hold coefficients; the physical
        # state is not scanned, but its RHS's products carry an overflow into
        # the scanned rates.  Finite coefficients 1e308 at the modes +-1 of
        # x in the y component of the second field (E, v_t; solenoidal, and
        # entering the rates' linear terms finite) are planted in the end
        # state of the second step, whose inverse transform overflows
        grid = make_grid((16, 16, 1), (2 * np.pi,) * 3)
        params = MediumParams(kappa=0.3)
        state = SYSTEMS[system].initial(_stepper_state(grid), params)
        accepted = integrate(state, params, StepControl(t_end=0.01, dt=0.01), system)
        record = SYSTEMS[system]
        calls = itertools.count(1)
        overflowed = []

        def rhs_hat(g, hats, p, physical):
            if next(calls) == 9:
                hats = hats.copy()
                hats[1, 1, [1, -1], 0, 0] = 1e308
                assert np.isfinite(hats).all()
                overflowed.append(np.isinf(ifftn_array(g, hats)).any())
            return record.rhs_hat(g, hats, p, physical)

        monkeypatch.setitem(SYSTEMS, system, dataclasses.replace(record, rhs_hat=rhs_hat))
        with pytest.raises(IntegrationError) as info, \
                np.errstate(over="ignore", invalid="ignore"):
            integrate(state, params, StepControl(t_end=0.03, dt=0.01), system)
        assert overflowed == [True]
        assert isinstance(info.value.__cause__, FieldError)
        _assert_carries(info.value, accepted, system)


def _plant_rate(monkeypatch, system, grid, call, bad):
    """Make the call-th RHS evaluation of `system` return a stage rate
    holding `bad`; returns the evaluation counter."""
    record = SYSTEMS[system]
    calls = itertools.count(1)

    def rhs_hat(g, hats, p, physical):
        k, physical, rates = record.rhs_hat(g, hats, p, physical)
        if next(calls) == call:
            k = k.copy()
            k[1, 0, 1, 2, 0] = bad
        return k, physical, rates

    def rhs(s, p):
        rates = record.rhs(s, p)
        if next(calls) == call:
            dv = rates.dv.values.copy()
            dv[0, 1, 2, 3] = bad
            rates = dataclasses.replace(rates, dv=VectorField._wrap(grid, dv))
        return rates

    planted = (dict(rhs_hat=rhs_hat) if record.rhs_hat is not None
               else dict(rhs=rhs))
    monkeypatch.setitem(SYSTEMS, system, dataclasses.replace(record, **planted))
    return calls


def _assert_carries(error, accepted, system):
    """`error` carries the state `accepted`, bit for bit."""
    carried = error.state
    assert carried.time == accepted.time
    for name in SYSTEMS[system].fields:
        assert (getattr(carried, name).values.tobytes()
                == getattr(accepted, name).values.tobytes()), name


class TestTemporalConvergence:
    def test_rk4_order_on_shear_wave(self):
        params = MediumParams()
        state0 = _standing_shear_state(GRID_64)

        def run(dt):
            return integrate(state0, params, StepControl(t_end=1.0, dt=dt),
                             "fi_incompressible")

        ref = run(0.05 / 8)
        err_h = norm_l2(run(0.05).v - ref.v)
        err_h2 = norm_l2(run(0.025).v - ref.v)
        ratio = err_h / err_h2
        assert 16 * 0.8 < ratio < 16 * 1.2
