"""Electromagnetic mapping and the residuals of every derived law."""

import csv
import json

import numpy as np
import pytest

from metacont.fields import (
    ScalarField,
    VectorField,
    cross,
    dealias_field,
    make_grid,
    norm_linf,
)
from metacont.diffops import curl, div, grad, leray_project
from metacont.dynamics import (
    FluidState,
    MaxwellState,
    MediumParams,
    StepControl,
    integrate,
    rhs_classical_maxwell,
    rhs_compressible,
    rhs_fi_incompressible,
    step,
)
from metacont import emlaws
from metacont.emlaws import (
    LAW_NAMES,
    classical_report,
    extract_em,
    fi_report,
    full_report,
    write_reports_csv,
    write_reports_ndjson,
    EmState,
)

from helpers import (
    GRID_32_3D,
    GRID_64,
    band_limited_vector,
    cosine_scalar,
    sine_scalar,
    vector_of,
)


def _band_limited_state(grid, seed=100, amplitude=1e-3, fraction=1 / 6):
    v = band_limited_vector(grid, seed, fraction=fraction, amplitude=amplitude,
                            solenoidal=True)
    E = band_limited_vector(grid, seed + 1, fraction=fraction, amplitude=amplitude)
    return FluidState(time=0.0, v=v, E=E)


def _law(name, em, v, params, dE_dt=None, dB_dt=None):
    """The residual field of one law, formed as full_report forms it."""
    return emlaws._LAWS[name](emlaws._Terms(em, v, dE_dt, dB_dt, params))[0]


class TestExtractEm:
    def test_zero_state(self):
        state = FluidState(time=0.0, v=VectorField.zeros(GRID_64),
                           E=VectorField.zeros(GRID_64))
        em = extract_em(state, MediumParams())
        for f in (em.E, em.B, em.H, em.J):
            assert norm_linf(f) == 0.0
        assert norm_linf(em.rho) == 0.0

    def test_b_is_weighted_curl(self):
        # v = (-sin y, sin x, 0), mu = 2: B = (0, 0, 2(cos x + cos y))
        v = vector_of(GRID_64, fx=-1.0 * sine_scalar(GRID_64, axis=1),
                      fy=sine_scalar(GRID_64, axis=0))
        state = FluidState(time=0.0, v=v, E=VectorField.zeros(GRID_64))
        em = extract_em(state, MediumParams(mu=2.0, eta=1.0))
        x, y, _ = GRID_64.coordinates()
        expected = np.broadcast_to(2.0 * (np.cos(x) + np.cos(y)), GRID_64.shape)
        np.testing.assert_allclose(em.B.z.values, expected, atol=1e-11)
        assert norm_linf(em.B.x) < 1e-12

    def test_metacharge_is_divergence(self):
        state = FluidState(time=0.0, v=VectorField.zeros(GRID_64),
                           E=vector_of(GRID_64, fx=sine_scalar(GRID_64, axis=0)))
        em = extract_em(state, MediumParams())
        np.testing.assert_allclose(em.rho.values,
                                   cosine_scalar(GRID_64, axis=0).values, atol=1e-12)

    def test_b_equals_mu_h_pointwise(self):
        state = _band_limited_state(GRID_64, amplitude=0.3)
        params = MediumParams(mu=2.5, eta=2.5)
        em = extract_em(state, params)
        diff = em.B - em.H * params.mu
        assert norm_linf(diff) < 1e-14

    def test_div_b_vanishes(self):
        state = _band_limited_state(GRID_64, amplitude=1.0)
        em = extract_em(state, MediumParams())
        assert norm_linf(div(em.B)) < 1e-12


class TestClassicalTrajectoryLaws:
    def test_faraday_and_displacement_exact_along_trajectory(self):
        params = MediumParams()
        state = MaxwellState(
            time=0.0,
            E=vector_of(GRID_64, fy=sine_scalar(GRID_64, axis=0)),
            B=VectorField.zeros(GRID_64),
        )
        control = StepControl(t_end=1.0, dt=0.02)
        for _ in range(10):
            rates = rhs_classical_maxwell(state, params)
            report = classical_report(state, params, rates)
            assert report.entry("faraday").linf < 1e-11
            assert report.entry("displacement_current").linf < 1e-11
            assert norm_linf(div(state.B)) < 1e-12
            state = step(state, params, control, "classical_maxwell")


class TestExactCorollaries:
    def test_fi_corollary_residuals_band_limited(self):
        params = MediumParams(mu=1.0, eta=1.0, kappa=0.3)
        state = _band_limited_state(GRID_64, amplitude=1e-2)
        report = fi_report(state, params, rhs_fi_incompressible(state, params))
        for law in ("faraday_lorentz", "hertz_form", "generalized_ampere",
                    "metacharge_continuity"):
            assert report.entry(law).linf < 1e-9

    def test_fi_corollary_residuals_3d(self):
        params = MediumParams(kappa=0.1)
        state = _band_limited_state(GRID_32_3D, seed=104, amplitude=1e-2)
        report = fi_report(state, params, rhs_fi_incompressible(state, params))
        assert report.entry("faraday_lorentz").linf < 1e-9
        assert report.entry("generalized_ampere").linf < 1e-9

    @pytest.mark.parametrize("system", ("fi", "compressible_solid"))
    @pytest.mark.parametrize("dims", ((64, 64, 1), (16, 16, 16), (24, 24, 24)))
    def test_ampere_and_continuity_close_on_full_band_states(self, system, dims):
        # the stress rate's bracket is formed in the Maxwell form
        # v div E - curl(v x E), whose terms these two laws read, so they close
        # on a state whose every mode is occupied and no product is resolved;
        # fi's momentum is P[v x curl v] less a gradient, so its Faraday-Lorentz
        # law closes too (the compressible one divides E by the density)
        grid = make_grid(dims, (2 * np.pi,) * 3)
        rng = np.random.default_rng(sum(dims))
        noise = lambda scale: scale * rng.standard_normal((3,) + dims)  # noqa: E731
        v = VectorField(grid, noise(0.1))
        params = MediumParams(mu=1.3, eta=0.8, lam=2.5, kappa=0.4)
        if system == "fi":
            state = FluidState(time=0.0, v=leray_project(v).solenoidal,
                               E=VectorField(grid, noise(0.1)))
            rates = rhs_fi_incompressible(state, params)
        else:
            mu = ScalarField(grid, 1.0 + 0.2 * rng.uniform(-1.0, 1.0, dims))
            state = FluidState(time=0.0, v=v, E=VectorField(grid, noise(0.1)),
                               mu_field=mu, u=VectorField(grid, noise(0.01)))
            rates = rhs_compressible(state, params, "solid")
        report = fi_report(state, params, rates)
        laws = ("generalized_ampere", "metacharge_continuity")
        if system == "fi":
            laws += ("faraday_lorentz",)
        for law in laws:
            assert report.entry(law).normalized_linf < 1e-12, law

    def test_hertz_matches_faraday_lorentz(self):
        params = MediumParams()
        state = _band_limited_state(GRID_64, seed=106, amplitude=1e-2)
        rates = rhs_fi_incompressible(state, params)
        em = extract_em(state, params)
        dB = curl(rates.dv) * params.mu
        fl = _law("faraday_lorentz", em, state.v, params, rates.dE, dB)
        hz = _law("hertz_form", em, state.v, params, rates.dE, dB)
        assert norm_linf(fl - hz) < 1e-9

    def test_v_zero_reduces_motional_laws_to_classical(self):
        params = MediumParams(kappa=0.0)
        E = band_limited_vector(GRID_64, seed=107, fraction=1 / 6, amplitude=0.1)
        state = FluidState(time=0.0, v=VectorField.zeros(GRID_64), E=E)
        rates = rhs_fi_incompressible(state, params)
        em = extract_em(state, params)
        dB = curl(rates.dv) * params.mu
        fl, fa, ga, dc = (
            _law(name, em, state.v, params, rates.dE, dB)
            for name in ("faraday_lorentz", "faraday", "generalized_ampere",
                         "displacement_current"))
        assert norm_linf(fl - fa) < 1e-14
        assert norm_linf(ga - dc) < 1e-14


class TestLinearLimitScaling:
    def test_faraday_residual_scales_linearly_with_amplitude(self):
        params = MediumParams()
        amplitudes = (1e-1, 1e-2, 1e-3)
        values = []
        for a in amplitudes:
            state = _band_limited_state(GRID_64, seed=108, amplitude=a)
            rates = rhs_fi_incompressible(state, params)
            em = extract_em(state, params)
            dB = curl(rates.dv) * params.mu
            report = full_report(em, state.v, rates.dE, dB, params, 0.0)
            values.append(report.entry("faraday").normalized_l2)
        slope = np.polyfit(np.log10(amplitudes), np.log10(values), 1)[0]
        assert abs(slope - 1.0) < 0.1

    def test_displacement_residual_scales_linearly_with_amplitude(self):
        params = MediumParams(kappa=0.0)
        amplitudes = (1e-1, 1e-2, 1e-3)
        values = []
        for a in amplitudes:
            state = _band_limited_state(GRID_64, seed=109, amplitude=a)
            rates = rhs_fi_incompressible(state, params)
            em = extract_em(state, params)
            dB = curl(rates.dv) * params.mu
            report = full_report(em, state.v, rates.dE, dB, params, 0.0)
            values.append(report.entry("displacement_current").normalized_l2)
        slope = np.polyfit(np.log10(amplitudes), np.log10(values), 1)[0]
        assert abs(slope - 1.0) < 0.1


class TestStationaryDiagnostics:
    def test_biot_savart_zero_state(self):
        params = MediumParams()
        state = FluidState(time=0.0, v=VectorField.zeros(GRID_64),
                           E=VectorField.zeros(GRID_64))
        report = fi_report(state, params, rhs_fi_incompressible(state, params))
        assert report.entry("biot_savart").linf == 0.0

    def test_biot_savart_static_field_residual_is_b(self):
        # v = 0 with a static E: the residual reduces to B itself
        v = band_limited_vector(GRID_64, seed=110, fraction=1 / 6, amplitude=0.2,
                                solenoidal=True)
        state = FluidState(time=0.0, v=VectorField.zeros(GRID_64),
                           E=band_limited_vector(GRID_64, seed=111, fraction=1 / 6))
        params = MediumParams()
        em = extract_em(state, params)
        residual = _law("biot_savart", em, state.v, params)
        assert norm_linf(residual - em.B) < 1e-14

    def test_biot_savart_manufactured_exact(self):
        params = MediumParams(mu=1.0, eta=4.0)  # c^2 = 4
        v = band_limited_vector(GRID_64, seed=112, fraction=1 / 6, amplitude=0.3,
                                solenoidal=True)
        E = band_limited_vector(GRID_64, seed=113, fraction=1 / 6, amplitude=0.3)
        manufactured_b = dealias_field(cross(v, E)) * (-1.0 / params.c ** 2)
        em = EmState(E=E, B=manufactured_b, H=manufactured_b * (1 / params.mu),
                     rho=div(E), J=VectorField.zeros(GRID_64))
        assert norm_linf(_law("biot_savart", em, v, params)) < 1e-14

    def test_ohm_ampere_manufactured_exact(self):
        params = MediumParams(kappa=0.5)
        b_source = band_limited_vector(GRID_64, seed=114, fraction=1 / 6,
                                       amplitude=0.2, solenoidal=True)
        manufactured_e = curl(b_source) * (params.c ** 2 / params.kappa)
        em = EmState(E=manufactured_e, B=b_source, H=b_source * (1 / params.mu),
                     rho=div(manufactured_e), J=VectorField.zeros(GRID_64))
        residual = _law("ohm_ampere", em, VectorField.zeros(GRID_64), params)
        assert norm_linf(residual) < 1e-12

    def test_ampere_vacuo_manufactured_exact(self):
        params = MediumParams()
        b_source = band_limited_vector(GRID_64, seed=115, fraction=1 / 6,
                                       amplitude=0.2, solenoidal=True)
        manufactured_j = curl(b_source) * params.c ** 2
        em = EmState(E=VectorField.zeros(GRID_64), B=b_source,
                     H=b_source * (1 / params.mu),
                     rho=ScalarField.zeros(GRID_64), J=manufactured_j)
        residual = _law("ampere_vacuo", em, VectorField.zeros(GRID_64), params)
        assert norm_linf(residual) < 1e-12


class TestKappaDecay:
    def test_longitudinal_plane_wave_decays_at_kappa(self):
        # E = grad(-A cos x) is a pure gradient, so the projection keeps v = 0
        # and the stress equation reduces to E_t = -kappa E exactly
        kappa = 0.5
        params = MediumParams(kappa=kappa)
        E0 = grad(ScalarField(GRID_64, -np.broadcast_to(
            np.cos(GRID_64.coordinates()[0]), GRID_64.shape)))
        state = FluidState(time=0.0, v=VectorField.zeros(GRID_64), E=E0)
        out = integrate(state, params, StepControl(t_end=4.0, dt="auto", cfl=0.4),
                        "fi_incompressible")
        assert norm_linf(out.v) < 1e-13
        measured = norm_linf(out.E) / norm_linf(E0)
        rate = -np.log(measured) / 4.0
        assert abs(rate - kappa) / kappa < 0.005

    def test_zero_metacharge_is_fixed_point(self):
        params = MediumParams(kappa=0.7)
        v = band_limited_vector(GRID_64, seed=116, fraction=1 / 6, amplitude=1e-2,
                                solenoidal=True)
        E = leray_project(
            band_limited_vector(GRID_64, seed=117, fraction=1 / 6, amplitude=1e-2)
        ).solenoidal  # div E = 0 -> rho = 0
        state = FluidState(time=0.0, v=v, E=E)
        out = integrate(state, params, StepControl(t_end=0.5, dt="auto"),
                        "fi_incompressible")
        em = extract_em(out, params)
        assert norm_linf(em.rho) < 1e-11


class TestReports:
    def test_zero_state_all_entries_zero(self):
        params = MediumParams()
        state = FluidState(time=0.0, v=VectorField.zeros(GRID_64),
                           E=VectorField.zeros(GRID_64))
        rates = rhs_fi_incompressible(state, params)
        report = fi_report(state, params, rates)
        names = [e.name for e in report.entries]
        assert names == list(LAW_NAMES)
        assert len(names) == len(set(names))
        for e in report.entries:
            assert e.l2 == 0.0
            assert e.normalized_l2 == 0.0

    def test_classical_report_exact_entries(self):
        params = MediumParams()
        state = MaxwellState(
            time=0.0,
            E=vector_of(GRID_64, fy=sine_scalar(GRID_64, axis=0)),
            B=vector_of(GRID_64, fz=cosine_scalar(GRID_64, axis=0)),
        )
        rates = rhs_classical_maxwell(state, params)
        report = classical_report(state, params, rates)
        assert report.entry("faraday").normalized_linf < 1e-11
        assert report.entry("displacement_current").normalized_linf < 1e-11

    def test_fi_report_corollary_entries(self):
        params = MediumParams(kappa=0.2)
        state = _band_limited_state(GRID_64, seed=118, amplitude=1e-2)
        rates = rhs_fi_incompressible(state, params)
        report = fi_report(state, params, rates)
        for law in ("faraday_lorentz", "hertz_form", "generalized_ampere",
                    "metacharge_continuity"):
            assert report.entry(law).normalized_linf < 1e-9

    def test_serialization_round_trip(self, tmp_path):
        params = MediumParams(kappa=0.2)
        state = _band_limited_state(GRID_64, seed=119, amplitude=1e-2)
        rates = rhs_fi_incompressible(state, params)
        report = fi_report(state, params, rates)

        ndjson = tmp_path / "reports.ndjson"
        write_reports_ndjson([report, report], ndjson)
        lines = ndjson.read_text().strip().split("\n")
        assert len(lines) == 2
        parsed = json.loads(lines[0])
        assert set(parsed["laws"].keys()) == set(LAW_NAMES)
        assert parsed["laws"]["faraday_lorentz"]["normalized_linf"] < 1e-9

        csv_path = tmp_path / "reports.csv"
        write_reports_csv([report], csv_path)
        raw = csv_path.read_bytes()
        assert raw.count(b"\r\n") == 1 + len(LAW_NAMES)
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "law", "l2", "linf", "norm"]
        assert [row[1] for row in rows[1:]] == list(LAW_NAMES)
