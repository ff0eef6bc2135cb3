"""The SYSTEMS table: every declared (system, scenario) pair steps, every
other pair is rejected at configuration time."""

import dataclasses

import numpy as np
import pytest

from metacont import dynamics
from metacont.cli import ConfigError, RunConfig
from metacont.dynamics import (
    SYSTEMS,
    DensityError,
    FluidState,
    IntegrationError,
    MediumParams,
    SolenoidalityError,
    StepControl,
    StepSizeError,
    auto_step_size,
    integrate,
    rhs,
)
from metacont.fields import ScalarField, VectorField, make_grid
from metacont.scenarios import SCENARIO_KINDS, ScenarioSpec, generate

from test_rhs_core import _system_state

GRID = make_grid((16, 16, 1), (2 * np.pi, 2 * np.pi, 2 * np.pi))
PARAMS = MediumParams(lam=2.0, kappa=0.1)
SCENARIOS = {
    "plane_shear_wave": {"polarization": (0, 1, 0)},
    "standing_shear_wave": {"polarization": (0, 1, 0)},
    "gaussian_vortex": {},
    "random_solenoidal": {"seed": 5},
    "compression_pulse": {},
    "uniform_E_decay": {},
}
# the (scenario, system) pairs a run accepts
COMPATIBLE = {
    "plane_shear_wave": set(SYSTEMS),
    "standing_shear_wave": set(SYSTEMS),
    "gaussian_vortex": set(SYSTEMS) - {"linear_navier"},
    "random_solenoidal": set(SYSTEMS) - {"linear_navier"},
    "compression_pulse": {"linear_navier", "compressible_solid"},
    "uniform_E_decay": {"fi_incompressible", "compressible_liquid",
                        "compressible_solid"},
}


def _doc(system, kind):
    scenario = {"kind": kind, "amplitude": 1e-3, **SCENARIOS[kind]}
    return {"grid": {"dims": list(GRID.dims)}, "system": system,
            "scenario": scenario, "control": {"t_end": 0.1}}


@pytest.mark.parametrize("system", list(SYSTEMS))
def test_system_steps_from_every_declared_scenario(system):
    record = SYSTEMS[system]
    assert record.scenarios == {k for k, s in COMPATIBLE.items() if system in s}
    for kind in sorted(record.scenarios):
        spec = ScenarioSpec(kind, amplitude=1e-3, **SCENARIOS[kind])
        state = record.initial(generate(spec, GRID, PARAMS), PARAMS)
        out = integrate(state, PARAMS, StepControl(t_end=0.01, dt=0.01), system)
        assert type(out) is type(state)
        assert out.time == pytest.approx(0.01)
        for name in record.fields:
            assert getattr(out, name) is not None, (kind, name)
        assert RunConfig.from_dict(_doc(system, kind)).system == system


@pytest.mark.parametrize("system", list(SYSTEMS))
def test_undeclared_scenarios_rejected(system):
    for kind in sorted(set(SCENARIO_KINDS) - SYSTEMS[system].scenarios):
        with pytest.raises(ConfigError, match="incompatible"):
            RunConfig.from_dict(_doc(system, kind))


def test_unknown_system_name_raises_value_error():
    spec = ScenarioSpec("random_solenoidal", amplitude=1e-3)
    state = generate(spec, GRID, PARAMS)
    control = StepControl(t_end=1.0, dt=0.01)
    with pytest.raises(ValueError, match="unknown system"):
        integrate(state, PARAMS, control, "navier_stokes")
    with pytest.raises(ValueError, match="unknown system"):
        auto_step_size(state, PARAMS, control, "navier_stokes")
    with pytest.raises(ValueError, match="unknown system"):
        rhs(state, PARAMS, "navier_stokes")


ENTRY_POINTS = {
    "rhs": lambda state, system: rhs(state, PARAMS, system),
    "integrate": lambda state, system: integrate(
        state, PARAMS, StepControl(t_end=0.01, dt=0.01), system),
    "auto_step_size": lambda state, system: auto_step_size(
        state, PARAMS, StepControl(t_end=0.01), system),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("system, field", [
    (system, field) for system in SYSTEMS for field in SYSTEMS[system].fields])
def test_a_state_without_an_advanced_field_is_rejected(system, field, entry):
    state = dataclasses.replace(_system_state(system, GRID), **{field: None})
    with pytest.raises(ValueError,
                       match=f"^{system} advances {field}, which the state lacks$"):
        ENTRY_POINTS[entry](state, system)


@pytest.mark.parametrize("system", list(SYSTEMS))
def test_blowup_raises_with_the_last_finite_state(system):
    # a dt far beyond RK4's stability range amplifies the wave by ~1e10 per
    # step until it overflows; kappa = 0 keeps the kappa*dt limit out of it
    params = MediumParams(lam=2.0)
    spec = ScenarioSpec("standing_shear_wave", amplitude=1.0, **SCENARIOS[
        "standing_shear_wave"])
    record = SYSTEMS[system]
    state = record.initial(generate(spec, GRID, params), params)
    control = StepControl(t_end=1e5, dt=1e3)    # at most 100 steps
    if record.diffusivity is not None:
        # such a dt is far beyond the diffusive limit, so no stage runs
        with pytest.raises(StepSizeError, match="D\\*k2_max\\*dt"):
            integrate(state, params, control, system)
        return
    observed = []
    with pytest.raises(IntegrationError) as info, \
            np.errstate(over="ignore", invalid="ignore"):
        integrate(state, params, control, system,
                  lambda i, s, rates: observed.append(s))
    # the state the failed step started from: the last observed one, or the
    # one before it if the last one's RHS was not finite
    last = info.value.state
    assert any(last is s for s in observed[-2:])
    for name in record.fields:
        assert np.isfinite(getattr(last, name).values).all(), name


def _compressed(state):
    """`state` with the density 1 - 0.7 cos x, whose least value is 0.3."""
    grid = state.v.grid
    mu = np.ones(grid.shape) - 0.7 * np.cos(grid.coordinates()[0])
    return dataclasses.replace(state, mu_field=ScalarField(grid, mu))


# every system on three grids, and a compressed liquid at cfl 1: D at the
# least density is 3.3 times D at mu, so a step from the background mu
# would break the diffusive limit (D k2_max dt = 9.27) and lose positivity
# by t = 0.26
_STABLE_CASES = [
    pytest.param(system, dims, None, id=f"dims{i}-{system}")
    for i, dims in enumerate([(32, 32, 1), (64, 64, 1), (16, 16, 16)])
    for system in SYSTEMS
] + [pytest.param("compressible_liquid", (32, 32, 1), _compressed,
                  id="compressed-compressible_liquid")]


@pytest.mark.parametrize("system, dims, density", _STABLE_CASES)
def test_auto_dt_keeps_every_system_stable(system, dims, density):
    # compressible_liquid's dilational stress is a diffusion with
    # D = (nu + 2 zeta) / mu = 2 here; a wave-only auto dt loses density
    # positivity on 64x64x1 before t = 0.05
    grid = make_grid(dims, (2 * np.pi,) * 3)
    params = MediumParams()
    control = StepControl(t_end=0.05, dt="auto")
    record = SYSTEMS[system]
    kind = ("random_solenoidal" if "random_solenoidal" in record.scenarios
            else "compression_pulse")
    spec = ScenarioSpec(kind, amplitude=0.05, seed=1)
    state = record.initial(generate(spec, grid, params), params)
    if density is not None:
        params, control = MediumParams(nu=0.5), StepControl(t_end=0.3, cfl=1.0)
        state = density(state)
    out = integrate(state, params, control, system)
    assert out.time == pytest.approx(control.t_end)
    for name in record.fields:
        assert np.isfinite(getattr(out, name).values).all(), name
    if "mu_field" in record.fields:
        assert out.mu_field.values.min() > 0.0


def test_auto_dt_obeys_the_diffusive_limit():
    grid = make_grid((32, 32, 1), (2 * np.pi,) * 3)
    params = MediumParams(nu=0.5)
    state = generate(ScenarioSpec("random_solenoidal", amplitude=1e-3, seed=1),
                     grid, params)
    control = StepControl(t_end=1.0, cfl=0.4)
    k2_max = 2 * 15.0 ** 2          # |m| <= 15: the Nyquist mode has k = 0
    diffusive = 0.4 * 2.78 / ((0.5 + 2.0) * k2_max)
    assert auto_step_size(state, params, control, "compressible_liquid") == \
        pytest.approx(diffusive, rel=1e-12)
    # the solid's dilational stress is elastic: a wave limit only
    assert auto_step_size(state, params, control, "compressible_solid") > diffusive


@pytest.mark.parametrize("system, params, term, h_max, density", [
    # (nu + 2 zeta) / mu x k2_max with |m| <= 15 on 32x32
    ("compressible_liquid", MediumParams(nu=0.5), "D\\*k2_max\\*dt",
     2.78 / (2.5 * 2 * 15.0 ** 2), None),
    # the same at the least density, 0.3
    ("compressible_liquid", MediumParams(nu=0.5), "D\\*k2_max\\*dt",
     2.78 / (2.5 / (1.0 - 0.7) * 2 * 15.0 ** 2), _compressed),
    ("compressible_solid", MediumParams(kappa=4.0), "kappa\\*dt", 2.0 / 4.0, None),
    ("fi_incompressible", MediumParams(kappa=4.0), "kappa\\*dt", 2.0 / 4.0, None),
], ids=("liquid_diffusion", "compressed_liquid_diffusion", "solid_kappa",
        "fi_kappa"))
def test_fixed_dt_is_held_to_the_stiff_limits(system, params, term, h_max,
                                              density, monkeypatch):
    grid = make_grid((32, 32, 1), (2 * np.pi,) * 3)
    spec = ScenarioSpec("random_solenoidal", amplitude=1e-3, seed=1)
    state = SYSTEMS[system].initial(generate(spec, grid, params), params)
    if density is not None:
        state = density(state)
    inside = StepControl(t_end=1.0, dt=h_max * (1.0 - 1e-9))
    assert integrate(state, params, dataclasses.replace(inside, t_end=inside.dt),
                     system).time == inside.dt
    # beyond the limit: rejected before the first RK stage evaluates the RHS
    calls = []
    for name in ("_rhs_compressible", "_rhs_fi_hat"):
        monkeypatch.setattr(dynamics, name, lambda *a: calls.append(a))
    beyond = StepControl(t_end=1.0, dt=h_max * (1.0 + 1e-9))
    with pytest.raises(StepSizeError, match=term):
        integrate(state, params, beyond, system)
    assert calls == []


def test_auto_dt_keeps_kappa_dt_inside_its_limit():
    # the wave limit alone gives dt = 0.157 and kappa dt = 3.14
    grid = make_grid((16, 16, 1), (2 * np.pi,) * 3)
    params = MediumParams(kappa=20.0)
    spec = ScenarioSpec("standing_shear_wave", amplitude=1e-3,
                        **SCENARIOS["standing_shear_wave"])
    state = generate(spec, grid, params)
    control = StepControl(t_end=1.0, cfl=0.4)
    assert auto_step_size(state, params, control, "fi_incompressible") <= \
        0.4 * 2.0 / 20.0
    out = integrate(state, params, control, "fi_incompressible")
    assert out.time == pytest.approx(1.0)
    assert np.isfinite(out.E.values).all()


def test_auto_dt_observes_a_varying_step_on_a_uniform_clock():
    # a large-amplitude wave: |v|_max, and with it the auto step, varies
    # along the run, but the observer sees every multiple of the first step
    grid = make_grid((32, 32, 1), (2 * np.pi,) * 3)
    params = MediumParams()
    spec = ScenarioSpec("standing_shear_wave", amplitude=0.3,
                        **SCENARIOS["standing_shear_wave"])
    control = StepControl(t_end=2.0, cfl=0.4)
    times, steps = [], []

    def observer(i, state, rates):
        times.append(state.time)
        steps.append(auto_step_size(state, params, control, "fi_incompressible"))

    integrate(generate(spec, grid, params), params, control,
              "fi_incompressible", observer)
    assert max(steps) / min(steps) > 1.01
    clock = steps[0]
    assert times[-1] == pytest.approx(2.0)
    np.testing.assert_allclose(times[:-1], clock * np.arange(len(times) - 1),
                               rtol=0.0, atol=1e-9)


def test_a_halved_step_keeps_the_sample_clock(monkeypatch):
    # at cfl 1 the first dip of the least density breaks the diffusive
    # limit at the held step, so the step halves and a tick takes two
    grid = make_grid((32, 32, 1), (2 * np.pi,) * 3)
    params = MediumParams(nu=0.5)
    spec = ScenarioSpec("random_solenoidal", amplitude=0.05, seed=1)
    state = _compressed(generate(spec, grid, params))
    control = StepControl(t_end=0.02, cfl=1.0)
    clock = auto_step_size(state, params, control, "compressible_liquid")
    taken = []
    advance = dynamics._Stepper.advance

    def recorded(self, sample, h):
        taken.append(h)
        return advance(self, sample, h)

    monkeypatch.setattr(dynamics._Stepper, "advance", recorded)
    times = []
    integrate(state, params, control, "compressible_liquid",
              lambda i, s, rates: times.append(s.time))
    assert min(taken[:-1]) == clock / 2.0
    assert len(taken) > len(times)
    assert times[-1] == pytest.approx(0.02)
    np.testing.assert_allclose(times[:-1], clock * np.arange(len(times) - 1),
                               rtol=0.0, atol=1e-9)


def test_auto_dt_at_cfl_one_stays_inside_the_diffusive_limit():
    # cfl * limit / rate at cfl = 1 is exactly limit / rate
    grid = make_grid((32, 32, 1), (2 * np.pi,) * 3)
    params = MediumParams(nu=0.5)
    state = generate(ScenarioSpec("random_solenoidal", amplitude=1e-3, seed=1),
                     grid, params)
    control = StepControl(t_end=1e-3, cfl=1.0)
    dt = auto_step_size(state, params, control, "compressible_liquid")
    assert dt == 2.78 / ((0.5 + 2.0) * 2 * 15.0 ** 2)
    out = integrate(state, params, StepControl(t_end=2 * dt, cfl=1.0),
                    "compressible_liquid")
    assert out.time == pytest.approx(2 * dt)


def test_density_error_in_a_stage_raises_integration_error():
    params = MediumParams()
    spec = ScenarioSpec("random_solenoidal", amplitude=1e-3, seed=1)
    state = generate(spec, GRID, params)
    mu = np.ones(GRID.shape)
    mu[3, 4, 0] = -0.5
    state = FluidState(time=0.0, v=state.v, E=state.E,
                       mu_field=ScalarField(GRID, mu))
    with pytest.raises(IntegrationError) as info:
        integrate(state, params, StepControl(t_end=1.0, dt=0.01),
                  "compressible_liquid")
    assert info.value.state is state
    assert info.value.rates is None
    assert isinstance(info.value.__cause__, DensityError)


def test_solenoidality_error_in_a_stage_raises_integration_error():
    params = MediumParams()
    v = np.zeros((3,) + GRID.shape)
    v[0] = np.sin(GRID.coordinates()[0])      # div v = cos x
    state = FluidState(time=0.0, v=VectorField(GRID, v),
                       E=VectorField.zeros(GRID))
    with pytest.raises(IntegrationError) as info:
        integrate(state, params, StepControl(t_end=0.1, dt=0.01), "fi_incompressible")
    assert info.value.state is state
    assert isinstance(info.value.__cause__, SolenoidalityError)
