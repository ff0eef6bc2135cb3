"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one printed pass line
per criterion with the measured values.
"""

import numpy as np
import pytest

from metacont.cli import RunConfig, run, sweep
from metacont.diffops import div, hessian_contract, leray_project
from metacont.dynamics import (
    FluidState,
    MediumParams,
    StepControl,
    integrate,
    oldroyd_discrepancy,
    rhs,
    SecondOrderState,
)
from metacont.emlaws import extract_em, fi_report
from metacont.fields import VectorField, make_grid, norm_l2, norm_linf
from metacont.diffops import curl
from metacont.scenarios import (
    ScenarioSpec,
    dispersion_shear,
    generate,
)

from helpers import GRID_64, band_limited_tensor, band_limited_vector

TWO_PI = 2 * np.pi


def _report(criterion: int, message: str) -> None:
    print(f"\n[acceptance] criterion {criterion}: PASS ({message})")


def test_criterion_01_shear_wave_speed(tmp_path):
    # FI incompressible, standing shear wave A=1e-3, k=1, 64^2, kappa=0,
    # mu=eta=1: measured phase speed within 0.5% of c=1
    doc = {
        "grid": {"dims": [64, 64, 1]},
        "params": {"mu": 1.0, "eta": 1.0, "kappa": 0.0},
        "system": "fi_incompressible",
        "scenario": {"kind": "standing_shear_wave", "amplitude": 1e-3,
                     "wavevector": [1, 0, 0], "polarization": [0, 1, 0]},
        "control": {"t_end": 13.0, "dt": 0.026},
        "outputs": {"out_dir": str(tmp_path / "c1")},
    }
    summary, _ = run(RunConfig.from_dict(doc))
    m = summary["measurement"]
    assert m["valid"]
    rel = abs(m["measured_phase_speed"] - 1.0)
    assert rel < 0.005
    _report(1, f"phase speed {m['measured_phase_speed']:.6f}, "
               f"rel err {rel:.2e} < 5e-3")


def test_criterion_02_compressional_wave_speed(tmp_path):
    # linear Navier, compression pulse, lam=98, eta=mu=1: speed 10 within 1%,
    # and delta = 0.01 exactly by construction
    params = MediumParams(mu=1.0, eta=1.0, lam=98.0)
    assert params.delta == pytest.approx(0.01, abs=1e-15)
    doc = {
        "grid": {"dims": [64, 64, 1]},
        "params": {"mu": 1.0, "eta": 1.0, "lam": 98.0},
        "system": "linear_navier",
        "scenario": {"kind": "compression_pulse", "amplitude": 1e-3,
                     "wavevector": [1, 0, 0]},
        "control": {"t_end": 2.0, "dt": 0.004},
        "outputs": {"out_dir": str(tmp_path / "c2")},
    }
    summary, _ = run(RunConfig.from_dict(doc))
    m = summary["measurement"]
    assert m["valid"]
    rel = abs(m["measured_phase_speed"] - 10.0) / 10.0
    assert rel < 0.01
    _report(2, f"compressional speed {m['measured_phase_speed']:.4f}, "
               f"rel err {rel:.2e} < 1e-2; delta = {params.delta}")


def test_criterion_03_maxwell_limit_quadratic(tmp_path):
    # trajectory distance between the FI (E, mu curl v) pair and the classical
    # reference from matched initial data: log-log slope 2.0 +/- 0.1
    doc = {
        "grid": {"dims": [64, 64, 1]},
        "params": {"mu": 1.0, "eta": 1.0, "kappa": 0.0},
        "system": "fi_incompressible",
        "scenario": {"kind": "random_solenoidal", "amplitude": 1e-1, "seed": 11},
        "control": {"t_end": 2.0, "dt": 0.02},
    }
    summary = sweep(doc, "amplitude", [1e-1, 1e-2, 1e-3], tmp_path / "c3")
    assert not summary["partial"]
    distances = [r["maxwell_distance"] for r in summary["rows"]]
    assert min(distances) > 0.0
    slope = summary["slope_estimate"]
    assert abs(slope - 2.0) < 0.1
    _report(3, f"maxwell-limit slope {slope:.4f} in 2.0 +/- 0.1; "
               f"distances {['%.3e' % d for d in distances]}")


def test_criterion_04_exact_discrete_corollaries():
    # normalized L-inf residuals of the four corollary laws < 1e-9 on a
    # band-limited FI state, and div B < 1e-12 along the trajectory
    params = MediumParams(mu=1.0, eta=1.0, kappa=0.3)
    spec = ScenarioSpec("random_solenoidal", amplitude=1e-2, seed=21)
    state = generate(spec, GRID_64, params)
    control = StepControl(t_end=0.2, dt=0.02)

    worst_laws = {}
    worst_div_b = 0.0
    observed = []

    def observer(i, state, rates):
        nonlocal worst_div_b
        observed.append(i)
        report = fi_report(state, params, rates())
        for law in ("faraday_lorentz", "hertz_form", "generalized_ampere",
                    "metacharge_continuity"):
            value = report.entry(law).normalized_linf
            worst_laws[law] = max(worst_laws.get(law, 0.0), value)
        em = extract_em(state, params)
        worst_div_b = max(worst_div_b, norm_linf(div(em.B)))

    integrate(state, params, control, "fi_incompressible", observer)
    assert observed == list(range(11))
    for law, value in worst_laws.items():
        assert value < 1e-9, law
    assert worst_div_b < 1e-12
    worst = max(worst_laws.values())
    _report(4, f"corollary residuals max {worst:.2e} < 1e-9, "
               f"div B max {worst_div_b:.2e} < 1e-12")


def test_criterion_05_oldroyd_discrepancy_identity():
    # div(tensor rate) - vector rate(div sigma) + hessian contraction = 0
    # within 1e-9 L-inf on cubic-safe band-limited inputs (|m| <= n/6)
    sigma = band_limited_tensor(GRID_64, seed=31, fraction=1 / 6)
    v = band_limited_vector(GRID_64, seed=32, fraction=1 / 6)
    residual = oldroyd_discrepancy(sigma, v) + hessian_contract(v, sigma)
    worst = norm_linf(residual)
    assert worst < 1e-9
    _report(5, f"discrepancy identity residual {worst:.2e} < 1e-9")


def test_criterion_06_telegraph_damping(tmp_path):
    # k=1 shear wave with kappa=0.5 decays at kappa/2 = 0.25 within 1% and
    # oscillates at sqrt(c^2 k^2 - kappa^2/4) = sqrt(0.9375) within 1%
    params = MediumParams(mu=1.0, eta=1.0, kappa=0.5)
    oracle = dispersion_shear(1.0, params)
    assert oracle.decay_rate == pytest.approx(0.25)
    assert oracle.frequency == pytest.approx(np.sqrt(1 - 0.0625))
    doc = {
        "grid": {"dims": [64, 64, 1]},
        "params": {"mu": 1.0, "eta": 1.0, "kappa": 0.5},
        "system": "fi_incompressible",
        "scenario": {"kind": "standing_shear_wave", "amplitude": 1e-3,
                     "wavevector": [1, 0, 0], "polarization": [0, 1, 0]},
        "control": {"t_end": 14.0, "dt": 0.028},
        "outputs": {"out_dir": str(tmp_path / "c6")},
    }
    summary, _ = run(RunConfig.from_dict(doc))
    m = summary["measurement"]
    assert m["valid"]
    decay_rel = abs(m["measured_decay_rate"] - 0.25) / 0.25
    freq_rel = abs(m["measured_omega"] - oracle.frequency) / oracle.frequency
    assert decay_rel < 0.01
    assert freq_rel < 0.01
    _report(6, f"decay {m['measured_decay_rate']:.5f} (rel {decay_rel:.2e}), "
               f"frequency {m['measured_omega']:.5f} (rel {freq_rel:.2e})")


def test_criterion_07_second_order_equivalence():
    # v-trajectories of the first-order and stress-eliminated second-order
    # systems agree within 1e-6 relative L2 at t=1 in the linear regime
    params = MediumParams(mu=1.0, eta=1.0, kappa=0.0)
    spec = ScenarioSpec("standing_shear_wave", amplitude=1e-3,
                        wavevector=(1, 0, 0), polarization=(0, 1, 0))
    fi_state = generate(spec, GRID_64, params)
    rates0 = rhs(fi_state, params, "fi_incompressible")
    so_state = SecondOrderState(time=0.0, v=fi_state.v, v_t=rates0.dv)
    control = StepControl(t_end=1.0, dt=0.02)
    fi_final = integrate(fi_state, params, control, "fi_incompressible")
    so_final = integrate(so_state, params, control, "second_order")
    rel = norm_l2(fi_final.v - so_final.v) / norm_l2(fi_final.v)
    assert rel < 1e-6
    _report(7, f"first/second-order v difference {rel:.2e} < 1e-6 at t=1")


def test_criterion_08_incompressible_limit_sweep(tmp_path):
    # compressible-solid deviation from the incompressible reference is
    # monotone decreasing over lam in {10, 100, 1000} eta with a log-log
    # slope in delta of 1.0 +/- 0.25
    doc = {
        "grid": {"dims": [64, 64, 1]},
        "params": {"mu": 1.0, "eta": 1.0, "kappa": 0.0},
        "system": "compressible_solid",
        "scenario": {"kind": "random_solenoidal", "amplitude": 0.05, "seed": 3},
        "control": {"t_end": 0.5, "dt": "auto", "cfl": 0.4},
    }
    summary = sweep(doc, "lambda", [10.0, 100.0, 1000.0], tmp_path / "c8")
    assert not summary["partial"]
    rows = summary["rows"]
    assert rows[0]["delta"] > rows[1]["delta"] > rows[2]["delta"]
    devs = [r["deviation_l2"] for r in rows]
    assert devs[0] > devs[1] > devs[2] > 0.0
    slope = summary["slope_estimate"]
    assert abs(slope - 1.0) < 0.25
    _report(8, f"delta slope {slope:.3f} in 1.0 +/- 0.25; "
               f"deviations {['%.3e' % d for d in devs]}")


def test_criterion_09_integrator_order():
    # halving dt reduces the error against a dt/8 reference by 16 +/- 20%
    # on the criterion-1 scenario
    params = MediumParams(mu=1.0, eta=1.0, kappa=0.0)
    spec = ScenarioSpec("standing_shear_wave", amplitude=1e-3,
                        wavevector=(1, 0, 0), polarization=(0, 1, 0))
    state0 = generate(spec, GRID_64, params)

    def final_v(dt):
        out = integrate(state0, params, StepControl(t_end=1.0, dt=dt),
                        "fi_incompressible")
        return out.v

    ref = final_v(0.05 / 8)
    err_h = norm_l2(final_v(0.05) - ref)
    err_h2 = norm_l2(final_v(0.025) - ref)
    ratio = err_h / err_h2
    assert 16 * 0.8 < ratio < 16 * 1.2
    _report(9, f"dt-halving error ratio {ratio:.2f} in [12.8, 19.2]")


def test_criterion_10_verification_suite(tmp_path, capsys, verify_suite):
    # `metacont verify` passes every check in under 30 seconds, and a fixed
    # config with a fixed seed reruns byte-identically
    assert verify_suite.code == 0
    assert all(r["pass"] for r in verify_suite.results)
    assert "PASS verify: 41/41" in verify_suite.text
    assert verify_suite.seconds < 30.0

    def run_once(out_dir):
        doc = {
            "grid": {"dims": [64, 64, 1]},
            "params": {"mu": 1.0, "eta": 1.0, "kappa": 0.1},
            "system": "fi_incompressible",
            "scenario": {"kind": "random_solenoidal", "amplitude": 0.05,
                         "seed": 42},
            "control": {"t_end": 0.3, "dt": 0.02},
            "outputs": {"snapshot_every": 5, "report_every": 5,
                        "out_dir": str(out_dir)},
        }
        run(RunConfig.from_dict(doc))
        return {
            p.relative_to(out_dir): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()
            if p.name != "manifest.json"  # embeds out_dir in the config echo
        }

    first = run_once(tmp_path / "r1")
    second = run_once(tmp_path / "r2")
    assert first.keys() == second.keys()
    for rel in first:
        assert first[rel] == second[rel], rel
    with capsys.disabled():
        _report(10, f"verify: {len(verify_suite.results)} checks in "
                    f"{verify_suite.seconds:.1f}s; "
                    f"reruns byte-identical over {len(first)} artifacts")
