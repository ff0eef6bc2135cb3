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
    rhs,
)
from metacont import emlaws
from metacont.emlaws import (
    LAW_NAMES,
    classical_report,
    extract_em,
    fi_report,
    write_reports_csv,
    write_reports_ndjson,
)

from helpers import (
    GRID_32_3D,
    GRID_64,
    band_limited_vector,
    cosine_scalar,
    sine_scalar,
    traced_peak_units,
    vector_of,
)


def _band_limited_state(grid, seed=100, amplitude=1e-3, fraction=1 / 6):
    v = band_limited_vector(grid, seed, fraction=fraction, amplitude=amplitude,
                            solenoidal=True)
    E = band_limited_vector(grid, seed + 1, fraction=fraction, amplitude=amplitude)
    return FluidState(time=0.0, v=v, E=E)


def _law(name, params, v, E, dE_dt=None, dv_dt=None, B=None):
    """The residual field of one law, formed as a report forms it: with
    B = mu curl v and dB/dt = mu curl dv/dt, or with a given B."""
    return emlaws._LAWS[name](emlaws._Terms(params, v, E, dE_dt, dv_dt, B=B))[0]


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
        observed = []

        def observer(i, state, rates):
            observed.append(i)
            report = classical_report(state, params, rates())
            assert report.entry("faraday").linf < 1e-11
            assert report.entry("displacement_current").linf < 1e-11
            assert norm_linf(div(state.B)) < 1e-12

        integrate(state, params, StepControl(t_end=0.18, dt=0.02),
                  "classical_maxwell", observer)
        assert observed == list(range(10))


class TestExactCorollaries:
    def test_fi_corollary_residuals_band_limited(self):
        params = MediumParams(mu=1.0, eta=1.0, kappa=0.3)
        state = _band_limited_state(GRID_64, amplitude=1e-2)
        report = fi_report(state, params, rhs(state, params, "fi_incompressible"))
        for law in ("faraday_lorentz", "hertz_form", "generalized_ampere",
                    "metacharge_continuity"):
            assert report.entry(law).linf < 1e-9

    def test_fi_corollary_residuals_3d(self):
        params = MediumParams(kappa=0.1)
        state = _band_limited_state(GRID_32_3D, seed=104, amplitude=1e-2)
        report = fi_report(state, params, rhs(state, params, "fi_incompressible"))
        assert report.entry("faraday_lorentz").linf < 1e-9
        assert report.entry("generalized_ampere").linf < 1e-9

    @pytest.mark.parametrize("system", ("fi_incompressible", "compressible_solid"))
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
        if system == "fi_incompressible":
            state = FluidState(time=0.0, v=leray_project(v).solenoidal,
                               E=VectorField(grid, noise(0.1)))
        else:
            mu = ScalarField(grid, 1.0 + 0.2 * rng.uniform(-1.0, 1.0, dims))
            state = FluidState(time=0.0, v=v, E=VectorField(grid, noise(0.1)),
                               mu_field=mu, u=VectorField(grid, noise(0.01)))
        report = fi_report(state, params, rhs(state, params, system))
        laws = ("generalized_ampere", "metacharge_continuity")
        if system == "fi_incompressible":
            laws += ("faraday_lorentz",)
        for law in laws:
            assert report.entry(law).normalized_linf < 1e-12, law

    def test_hertz_matches_faraday_lorentz(self):
        params = MediumParams()
        state = _band_limited_state(GRID_64, seed=106, amplitude=1e-2)
        rates = rhs(state, params, "fi_incompressible")
        fl, hz = (_law(name, params, state.v, state.E, rates.dE, rates.dv)
                  for name in ("faraday_lorentz", "hertz_form"))
        assert norm_linf(fl - hz) < 1e-9

    def test_v_zero_reduces_motional_laws_to_classical(self):
        params = MediumParams(kappa=0.0)
        E = band_limited_vector(GRID_64, seed=107, fraction=1 / 6, amplitude=0.1)
        state = FluidState(time=0.0, v=VectorField.zeros(GRID_64), E=E)
        rates = rhs(state, params, "fi_incompressible")
        fl, fa, ga, dc = (
            _law(name, params, state.v, state.E, rates.dE, rates.dv)
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
            report = fi_report(state, params, rhs(state, params, "fi_incompressible"))
            values.append(report.entry("faraday").normalized_l2)
        slope = np.polyfit(np.log10(amplitudes), np.log10(values), 1)[0]
        assert abs(slope - 1.0) < 0.1

    def test_displacement_residual_scales_linearly_with_amplitude(self):
        params = MediumParams(kappa=0.0)
        amplitudes = (1e-1, 1e-2, 1e-3)
        values = []
        for a in amplitudes:
            state = _band_limited_state(GRID_64, seed=109, amplitude=a)
            report = fi_report(state, params, rhs(state, params, "fi_incompressible"))
            values.append(report.entry("displacement_current").normalized_l2)
        slope = np.polyfit(np.log10(amplitudes), np.log10(values), 1)[0]
        assert abs(slope - 1.0) < 0.1


class TestStationaryDiagnostics:
    def test_biot_savart_zero_state(self):
        params = MediumParams()
        state = FluidState(time=0.0, v=VectorField.zeros(GRID_64),
                           E=VectorField.zeros(GRID_64))
        report = fi_report(state, params, rhs(state, params, "fi_incompressible"))
        assert report.entry("biot_savart").linf == 0.0

    def test_biot_savart_static_field_residual_is_b(self):
        # v = 0 with a static E: the residual reduces to B itself
        B = band_limited_vector(GRID_64, seed=110, fraction=1 / 6, amplitude=0.2,
                                solenoidal=True)
        E = band_limited_vector(GRID_64, seed=111, fraction=1 / 6)
        residual = _law("biot_savart", MediumParams(), VectorField.zeros(GRID_64), E,
                        B=B)
        assert norm_linf(residual - B) == 0.0

    def test_biot_savart_manufactured_exact(self):
        params = MediumParams(mu=1.0, eta=4.0)  # c^2 = 4
        v = band_limited_vector(GRID_64, seed=112, fraction=1 / 6, amplitude=0.3,
                                solenoidal=True)
        E = band_limited_vector(GRID_64, seed=113, fraction=1 / 6, amplitude=0.3)
        manufactured_b = dealias_field(cross(v, E)) * (-1.0 / params.c ** 2)
        assert norm_linf(_law("biot_savart", params, v, E, B=manufactured_b)) < 1e-14

    def test_ohm_ampere_manufactured_exact(self):
        params = MediumParams(kappa=0.5)
        b_source = band_limited_vector(GRID_64, seed=114, fraction=1 / 6,
                                       amplitude=0.2, solenoidal=True)
        manufactured_e = curl(b_source) * (params.c ** 2 / params.kappa)
        residual = _law("ohm_ampere", params, VectorField.zeros(GRID_64),
                        manufactured_e, B=b_source)
        assert norm_linf(residual) < 1e-12

    def test_ampere_vacuo_manufactured_exact(self):
        # a uniform v = u z along the inactive axis and an in-plane B: then
        # J = P[v div E] = u div(E) z and c^2 curl B = c^2 (curl B)_z z, which
        # agree for E = (c^2 / u) (B_y, -B_x, 0)
        params = MediumParams(eta=2.0)
        u = 0.5
        b_source = band_limited_vector(GRID_64, seed=115, fraction=1 / 6,
                                       amplitude=0.2, solenoidal=True)
        bx, by, _ = b_source.values
        B = VectorField(GRID_64, [bx, by, np.zeros_like(bx)])
        E = VectorField(GRID_64, [by, -bx, np.zeros_like(bx)]) * (params.c ** 2 / u)
        v = VectorField(GRID_64, [np.zeros_like(bx)] * 2 + [np.full_like(bx, u)])
        residual = _law("ampere_vacuo", params, v, E, B=B)
        assert norm_linf(residual) < 1e-12 * norm_linf(curl(B))


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
        rates = rhs(state, params, "fi_incompressible")
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
        rates = rhs(state, params, "classical_maxwell")
        report = classical_report(state, params, rates)
        assert report.entry("faraday").normalized_linf < 1e-11
        assert report.entry("displacement_current").normalized_linf < 1e-11

    def test_fi_report_corollary_entries(self):
        params = MediumParams(kappa=0.2)
        state = _band_limited_state(GRID_64, seed=118, amplitude=1e-2)
        rates = rhs(state, params, "fi_incompressible")
        report = fi_report(state, params, rates)
        for law in ("faraday_lorentz", "hertz_form", "generalized_ampere",
                    "metacharge_continuity"):
            assert report.entry(law).normalized_linf < 1e-9

    def test_fi_report_peak_below_35_grid_components(self):
        # the traced peak of one report at 32^3 with its state and rates
        # given: 34.8 grid components, against 37.6 while every term made a
        # physical round trip; each cached term is dropped after its last law
        params = MediumParams(kappa=0.3)
        state = _band_limited_state(GRID_32_3D, seed=120, amplitude=1e-2)
        rates = rhs(state, params, "fi_incompressible")
        units = traced_peak_units(GRID_32_3D, lambda: fi_report(state, params, rates))
        assert units <= 35.0, units

    def test_serialization_round_trip(self, tmp_path):
        params = MediumParams(kappa=0.2)
        state = _band_limited_state(GRID_64, seed=119, amplitude=1e-2)
        rates = rhs(state, params, "fi_incompressible")
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
