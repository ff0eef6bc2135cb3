"""Scenario generators, dispersion oracles, the wave-measurement fit, and the
agreement of every measured run with its oracle."""

import dataclasses
import math

import numpy as np
import pytest

from metacont.cli import RunConfig, run
from metacont.fields import (
    VectorField,
    _mode_indices,
    fftn_array,
    ifftn_array,
    make_grid,
    norm_l2,
    norm_linf,
)
from metacont.diffops import curl, div
from metacont.dynamics import SYSTEMS, MediumParams
from metacont.scenarios import (
    SCENARIO_KINDS,
    FitError,
    ScenarioError,
    ScenarioSpec,
    band_limited_noise,
    dispersion_compressional,
    dispersion_shear,
    generate,
    measure_wave,
    trim_uniform,
    wave_oracle,
)

from helpers import GRID_64


PARAMS = MediumParams()


class TestScenarioSpec:
    def test_shear_requires_polarization(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec("standing_shear_wave", amplitude=1e-3, wavevector=(1, 0, 0))

    def test_polarization_must_be_orthogonal(self):
        spec = ScenarioSpec("standing_shear_wave", amplitude=1e-3,
                            wavevector=(1, 0, 0), polarization=(1.0, 1.0, 0.0))
        with pytest.raises(ScenarioError):
            generate(spec, GRID_64, PARAMS)

    def test_wave_kinds_need_nonzero_wavevector(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec("compression_pulse", amplitude=1e-3, wavevector=(0, 0, 0))

    @pytest.mark.parametrize("kwargs", [
        {"wavevector": (1.5, 0, 0)}, {"wavevector": (True, 0, 0)},
        {"seed": 1.5}, {"seed": True},
    ])
    def test_non_integer_wavevector_or_seed_rejected(self, kwargs):
        # int() would truncate these to a valid spec
        with pytest.raises(ScenarioError, match=next(iter(kwargs))):
            ScenarioSpec("random_solenoidal", amplitude=1e-3, **kwargs)

    def test_numpy_integer_wavevector_and_seed_accepted(self):
        spec = ScenarioSpec("random_solenoidal", amplitude=1e-3,
                            wavevector=(np.int64(2), np.int32(0), 0), seed=np.int64(3))
        assert spec.wavevector == (2, 0, 0)
        assert spec.seed == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec("vortex_sheet", amplitude=1.0)

    def test_polarization_normalized(self):
        spec = ScenarioSpec("standing_shear_wave", amplitude=1e-3,
                            wavevector=(1, 0, 0), polarization=(0.0, 2.0, 0.0))
        assert spec.polarization == (0.0, 1.0, 0.0)


def _noise_reference(grid, seed, fraction, shape=(3,)):
    """`band_limited_noise` with its band mask built in place from the mode
    indices, as the generator once built it."""
    mask = np.ones(grid.spectral_shape, dtype=bool)
    for m, n, active in zip(_mode_indices(grid), grid.dims, grid.active):
        if active:
            mask = mask & (np.abs(m) <= n * fraction)
    rng = np.random.default_rng(seed)
    coeffs = fftn_array(grid, rng.standard_normal(shape + grid.shape)) * mask
    coeffs[..., 0, 0, 0] = 0.0
    return ifftn_array(grid, coeffs)


class TestBandLimitedNoise:
    @pytest.mark.parametrize("fraction", (1 / 6, 1 / 4, 0.4))
    @pytest.mark.parametrize("seed", (0, 7, 2024))
    def test_bitwise_equal_to_the_in_place_mask(self, seed, fraction):
        for grid in (GRID_64, make_grid((16, 8, 12), (2 * np.pi, 3.0, 5.5))):
            got = band_limited_noise(grid, seed, fraction, (3,))
            assert got.tobytes() == _noise_reference(grid, seed, fraction).tobytes()


class TestGenerate:
    def test_standing_shear_wave_construction(self):
        spec = ScenarioSpec("standing_shear_wave", amplitude=1e-3,
                            wavevector=(1, 0, 0), polarization=(0, 1, 0))
        state = generate(spec, GRID_64, PARAMS)
        x = GRID_64.coordinates()[0]
        expected = np.broadcast_to(1e-3 * np.sin(x), GRID_64.shape)
        np.testing.assert_allclose(state.v.y.values, expected, atol=1e-15)
        assert norm_linf(state.v.x) == 0.0
        assert norm_linf(state.E) == 0.0
        assert norm_linf(state.u) == 0.0
        assert float(state.mu_field.values.min()) == PARAMS.mu

    def test_plane_shear_wave_stress_consistent(self):
        # travelling wave: E = -mu c |k| A p sin(k.x) accompanies v = A p cos(k.x)
        spec = ScenarioSpec("plane_shear_wave", amplitude=2e-3,
                            wavevector=(0, 2, 0), polarization=(1, 0, 0))
        params = MediumParams(mu=2.0, eta=8.0)  # c = 2
        state = generate(spec, GRID_64, params)
        y = GRID_64.coordinates()[1]
        np.testing.assert_allclose(
            state.v.x.values,
            np.broadcast_to(2e-3 * np.cos(2 * y), GRID_64.shape), atol=1e-15)
        np.testing.assert_allclose(
            state.E.x.values,
            np.broadcast_to(-2.0 * 2.0 * 2.0 * 2e-3 * np.sin(2 * y), GRID_64.shape),
            atol=1e-15)

    def test_random_solenoidal_divergence_free(self):
        spec = ScenarioSpec("random_solenoidal", amplitude=0.5, seed=7)
        state = generate(spec, GRID_64, PARAMS)
        assert norm_linf(div(state.v)) < 1e-12
        assert abs(norm_linf(state.v) - 0.5) < 1e-12
        # E carries metacharge on purpose
        assert norm_linf(div(state.E)) > 1e-3

    def test_random_solenoidal_reproducible(self):
        spec = ScenarioSpec("random_solenoidal", amplitude=0.5, seed=7)
        a = generate(spec, GRID_64, PARAMS)
        b = generate(spec, GRID_64, PARAMS)
        np.testing.assert_array_equal(a.v.values, b.v.values)

    def test_gaussian_vortex_solenoidal(self):
        spec = ScenarioSpec("gaussian_vortex", amplitude=0.3)
        state = generate(spec, GRID_64, PARAMS)
        assert norm_linf(div(state.v)) < 1e-12
        assert abs(norm_linf(state.v) - 0.3) < 1e-12

    def test_compression_pulse_irrotational(self):
        spec = ScenarioSpec("compression_pulse", amplitude=1e-3, wavevector=(1, 0, 0))
        state = generate(spec, GRID_64, PARAMS)
        x = GRID_64.coordinates()[0]
        np.testing.assert_allclose(
            state.u.x.values, np.broadcast_to(1e-3 * np.sin(x), GRID_64.shape),
            atol=1e-15)
        assert norm_linf(curl(state.u)) < 1e-12
        assert norm_linf(state.v) == 0.0

    def test_uniform_e_decay_is_pure_gradient(self):
        spec = ScenarioSpec("uniform_E_decay", amplitude=0.1, wavevector=(1, 0, 0))
        state = generate(spec, GRID_64, PARAMS)
        assert norm_linf(curl(state.E)) < 1e-12
        assert norm_linf(state.v) == 0.0


class TestDispersionShear:
    def test_undamped_roots(self):
        d = dispersion_shear(2.0, MediumParams(kappa=0.0))
        assert d.regime == "underdamped"
        assert d.omega_plus == pytest.approx(2.0)
        assert d.omega_minus == pytest.approx(-2.0)
        assert d.decay_rate == 0.0

    def test_critical_damping(self):
        # kappa = 2 c k: double root at -i kappa / 2
        params = MediumParams(kappa=4.0)
        d = dispersion_shear(2.0, params)
        assert d.regime == "critical"
        assert d.omega_plus == complex(0.0, -2.0)
        assert d.omega_plus == d.omega_minus

    def test_underdamped_example(self):
        d = dispersion_shear(1.0, MediumParams(kappa=0.5))
        assert d.regime == "underdamped"
        assert d.omega_plus.imag == pytest.approx(-0.25)
        assert d.omega_plus.real == pytest.approx(np.sqrt(1 - 0.0625))

    def test_overdamped_rates_positive(self):
        d = dispersion_shear(1.0, MediumParams(kappa=10.0))
        assert d.regime == "overdamped"
        assert d.omega_plus.real == 0.0
        assert 0.0 < -d.omega_plus.imag < -d.omega_minus.imag

    @pytest.mark.parametrize("kappa,k", [(0.0, 1.0), (0.5, 1.0), (2.0, 3.0),
                                         (10.0, 1.0), (4.0, 2.0)])
    def test_roots_satisfy_quadratic(self, kappa, k):
        # independent check: substitute each root into mu w^2 + i kappa mu w - eta k^2
        params = MediumParams(mu=1.3, eta=2.1, kappa=kappa)
        d = dispersion_shear(k, params)
        for w in (d.omega_plus, d.omega_minus):
            residual = params.mu * w ** 2 + 1j * kappa * params.mu * w \
                - params.eta * k ** 2
            assert abs(residual) < 1e-12 * (params.mu * abs(w) ** 2
                                            + params.eta * k ** 2)

    @pytest.mark.parametrize("kappa,k", [(0.5, 1.0), (3.0, 2.0)])
    def test_roots_match_numpy_root_finder(self, kappa, k):
        params = MediumParams(kappa=kappa)
        d = dispersion_shear(k, params)
        numeric = np.roots([params.mu, 1j * kappa * params.mu,
                            -params.eta * k ** 2])
        ours = sorted((d.omega_plus, d.omega_minus), key=lambda w: (w.real, w.imag))
        ref = sorted((complex(r) for r in numeric), key=lambda w: (w.real, w.imag))
        for a, b in zip(ours, ref):
            assert abs(a - b) < 1e-12

    def test_kappa_zero_exact_ck(self):
        params = MediumParams(mu=4.0, eta=1.0)  # c = 0.5
        d = dispersion_shear(3.0, params)
        assert d.omega_plus == 1.5
        assert d.omega_minus == -1.5


class TestDispersionCompressional:
    def test_lam_zero(self):
        w = dispersion_compressional(1.0, MediumParams(mu=1.0, eta=1.0, lam=0.0))
        assert w[0] == pytest.approx(np.sqrt(2.0))
        assert w[1] == pytest.approx(-np.sqrt(2.0))

    def test_stiff_medium(self):
        params = MediumParams(mu=1.0, eta=1.0, lam=98.0)
        w = dispersion_compressional(1.0, params)
        assert w[0] == pytest.approx(10.0)
        assert params.delta == pytest.approx(0.01)


class TestMeasureWave:
    def _series(self, omega, gamma, n=128, dt=0.05, phi=0.3):
        t = dt * np.arange(n)
        return t, np.exp(-gamma * t) * np.cos(omega * t + phi)

    def test_pure_oscillation(self):
        t, s = self._series(omega=2.0, gamma=0.0)
        m = measure_wave(t, s, k_mag=1.0)
        assert abs(m.phase_speed - 2.0) < 1e-6
        assert abs(m.decay_rate) < 1e-6
        assert m.valid and not m.degenerate

    def test_damped_oscillation(self):
        t, s = self._series(omega=1.0, gamma=0.25)
        m = measure_wave(t, s, k_mag=1.0)
        assert abs(m.omega - 1.0) < 1e-6
        assert abs(m.decay_rate - 0.25) < 1e-6
        assert m.valid

    def test_phase_speed_uses_k(self):
        t, s = self._series(omega=2.0, gamma=0.0)
        m = measure_wave(t, s, k_mag=4.0)
        assert abs(m.phase_speed - 0.5) < 1e-6

    def test_rotating_mode(self):
        t = 0.05 * np.arange(64)
        s = np.exp((-0.1 - 1.5j) * t)
        m = measure_wave(t, s)
        assert abs(m.omega - 1.5) < 1e-6
        assert abs(m.decay_rate - 0.1) < 1e-6

    def test_constant_series_degenerate(self):
        t = 0.05 * np.arange(64)
        s = np.full(64, 2.0 + 0.0j)
        m = measure_wave(t, s)
        assert m.omega == 0.0
        assert m.degenerate

    def test_pure_decay_degenerate_but_rate_right(self):
        t = 0.05 * np.arange(64)
        s = 3.0 * np.exp(-0.4 * t)
        m = measure_wave(t, s)
        assert m.degenerate
        assert abs(m.decay_rate - 0.4) < 1e-6

    def test_noise_flags_invalid(self):
        rng = np.random.default_rng(0)
        t, s = self._series(omega=1.0, gamma=0.0)
        noisy = s + 0.05 * rng.standard_normal(len(s))
        m = measure_wave(t, noisy)
        assert not m.valid
        assert m.fit_residual > 0.01

    def test_nonuniform_sampling_rejected(self):
        t = np.array([0.0, 0.1, 0.2, 0.35, 0.4, 0.5, 0.6, 0.7])
        s = np.cos(t)
        with pytest.raises(FitError):
            measure_wave(t, s)

    def test_too_short_rejected(self):
        with pytest.raises(FitError):
            measure_wave([0.0, 0.1], [1.0, 0.9])

    def test_singular_fit_raises(self):
        # an impulse: every prediction row is zero, so both roots are zero
        t = 0.05 * np.arange(16)
        with pytest.raises(FitError):
            measure_wave(t, np.eye(16)[0])

    def test_reports_the_root_that_carries_the_signal(self):
        # a decay at 0.5 plus a constant a thousand times smaller: the
        # constant's root has the larger modulus, the decay the amplitude
        t = 0.01 * np.arange(101)
        m = measure_wave(t, 0.05 * np.exp(-0.5 * t) + 5e-5)
        assert m.valid
        assert abs(m.decay_rate - 0.5) < 1e-9

    def test_rotating_mode_of_either_sense_has_non_negative_frequency(self):
        t = 0.05 * np.arange(64)
        for sense in (1, -1):
            m = measure_wave(t, 0.3 * np.exp((-0.1 + sense * 1.5j) * t))
            assert abs(m.omega - 1.5) < 1e-9
            assert abs(m.decay_rate - 0.1) < 1e-9

    def test_fields_are_plain_python_values(self):
        t, s = self._series(omega=1.0, gamma=0.25)
        m = measure_wave(t, s)
        for field in dataclasses.fields(m):
            value = getattr(m, field.name)
            assert type(value) in (float, bool), (field.name, type(value))

    def test_trim_uniform_drops_short_tail(self):
        t = np.array([0.0, 0.1, 0.2, 0.3, 0.35])
        s = np.arange(5.0)
        tt, ss = trim_uniform(t, s)
        assert len(tt) == 4
        np.testing.assert_array_equal(ss, s[:4])


# ---------------------------------------------------------------------------
# wave oracles and the runs measured against them
# ---------------------------------------------------------------------------

GRID_16 = make_grid((16, 16, 1), (2 * np.pi,) * 3)
# kappa, lam and nu all nonzero, so a system that ignores one of them and an
# oracle that does not shows up as a disagreement
ORACLE_PARAMS = {"kappa": 0.3, "lam": 2.0, "nu": 0.1}
# (t_end, dt): a shear period is 2 pi, a compressional one pi (c_s = 2)
ORACLE_CONTROL = {"plane_shear_wave": (6.5, 0.1),
                  "standing_shear_wave": (6.5, 0.1),
                  "compression_pulse": (3.2, 0.04),
                  "uniform_E_decay": (1.0, 0.02)}
SHEAR = ("plane_shear_wave", "standing_shear_wave")
# every system and wave scenario it accepts; the classical state has no v
MEASURED = [
    ("linear_navier", "plane_shear_wave"),
    ("linear_navier", "standing_shear_wave"),
    ("linear_navier", "compression_pulse"),
    ("fi_incompressible", "plane_shear_wave"),
    ("fi_incompressible", "standing_shear_wave"),
    ("fi_incompressible", "uniform_E_decay"),
    ("second_order", "plane_shear_wave"),
    ("second_order", "standing_shear_wave"),
    ("compressible_liquid", "plane_shear_wave"),
    ("compressible_liquid", "standing_shear_wave"),
    ("compressible_liquid", "uniform_E_decay"),
    ("compressible_solid", "plane_shear_wave"),
    ("compressible_solid", "standing_shear_wave"),
    ("compressible_solid", "compression_pulse"),
    ("compressible_solid", "uniform_E_decay"),
]


def _scenario_doc(kind, amplitude=1e-3):
    doc = {"kind": kind, "amplitude": amplitude, "wavevector": [1, 0, 0]}
    if kind in SHEAR:
        doc["polarization"] = [0, 1, 0]
    return doc


def _assert_agrees(measurement):
    assert measurement["valid"]
    errors = {k: v for k, v in measurement.items() if k.endswith("_rel_error")}
    assert errors  # an oracle with nothing to compare checks nothing
    assert all(v < 2e-2 for v in errors.values()), errors


class TestWaveOracle:
    def test_an_oracle_for_exactly_the_measured_pairs(self):
        params = MediumParams(**ORACLE_PARAMS)
        found = [
            (system, kind) for system, record in SYSTEMS.items()
            for kind in SCENARIO_KINDS if kind in record.scenarios
            and wave_oracle(ScenarioSpec(**_scenario_doc(kind)), GRID_16,
                            params, system) is not None
        ]
        assert sorted(found) == sorted(MEASURED)

    def test_kappa_only_for_systems_that_integrate_it(self):
        spec = ScenarioSpec(**_scenario_doc("standing_shear_wave"))
        params = MediumParams(kappa=0.5)
        for system, record in SYSTEMS.items():
            oracle = wave_oracle(spec, GRID_16, params, system)
            if oracle is None:
                continue
            expected = dispersion_shear(1.0, params if record.uses_kappa
                                        else MediumParams())
            assert (oracle.frequency, oracle.decay_rate) == (
                expected.frequency, expected.decay_rate), system
        assert wave_oracle(spec, GRID_16, params, "linear_navier").decay_rate == 0.0
        assert wave_oracle(spec, GRID_16, params,
                           "fi_incompressible").decay_rate == 0.25

    def test_mode_and_direction(self):
        params = MediumParams(lam=2.0, kappa=0.5)
        pulse = wave_oracle(ScenarioSpec("compression_pulse", 1e-3, (0, 2, 0)),
                            GRID_16, params, "compressible_solid")
        assert (pulse.field, pulse.wavevector, pulse.direction) == (
            "v", (0, 2, 0), (0.0, 1.0, 0.0))
        assert pulse.k_mag == 2.0
        assert pulse.phase_speed == math.sqrt(4.0)
        decay = wave_oracle(ScenarioSpec("uniform_E_decay", 0.1), GRID_16,
                            params, "fi_incompressible")
        assert (decay.field, decay.frequency, decay.decay_rate) == ("E", 0.0, 0.5)
        assert wave_oracle(ScenarioSpec("random_solenoidal", 0.1), GRID_16,
                           params, "fi_incompressible") is None

    @pytest.mark.parametrize("system, kind", MEASURED)
    def test_valid_measurement_agrees_with_its_oracle(self, tmp_path, system, kind):
        t_end, dt = ORACLE_CONTROL[kind]
        if system == "compressible_liquid":
            # its dilational diffusion, D k2_max = 2.1 x 98, holds dt to 0.0135
            dt = 0.0125
        doc = {"grid": {"dims": [16, 16, 1]}, "params": ORACLE_PARAMS,
               "system": system, "scenario": _scenario_doc(kind),
               "control": {"t_end": t_end, "dt": dt}}
        summary, _ = run(RunConfig.from_dict(doc, out_dir=tmp_path))
        _assert_agrees(summary["measurement"])

    @pytest.mark.parametrize("system, params", [
        ("compressible_solid", {"kappa": 0.5, "lam": 2.0}),
        ("compressible_liquid", {"kappa": 0.5, "nu": 0.1}),
    ])
    def test_large_stress_decay_agrees_with_its_oracle(self, tmp_path, system,
                                                       params):
        # the fit's spurious second root once had the larger modulus here;
        # the liquid's diffusive limit is 2.78 / (2.1 x 450) = 2.9e-3
        dt = 0.0025 if system == "compressible_liquid" else 0.01
        doc = {"grid": {"dims": [32, 32, 1]}, "params": params, "system": system,
               "scenario": _scenario_doc("uniform_E_decay", amplitude=0.1),
               "control": {"t_end": 1.0, "dt": dt}}
        summary, _ = run(RunConfig.from_dict(doc, out_dir=tmp_path))
        _assert_agrees(summary["measurement"])
