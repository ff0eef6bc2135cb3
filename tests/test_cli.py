"""Config validation, the run/verify/sweep commands, artifact contracts, and
the names the package exports."""

import ast
import concurrent.futures
import dataclasses
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metacont
from metacont import cli, diffops, dynamics, emlaws
from metacont.cli import (
    ConfigError,
    RunConfig,
    _verify_checks,
    config_content_hash,
    main,
    run,
    sweep,
    verify,
)
from metacont.diffops import ProjectionResult, curl, leray_project
from metacont.dynamics import (
    DensityError,
    IntegrationError,
    MaxwellState,
    MediumParams,
    StepControl,
    auto_step_size,
    integrate,
)
from metacont.fields import (
    ScalarField,
    VectorField,
    make_grid,
    norm_l2,
    read_snapshot,
)
from metacont.scenarios import ScenarioSpec, generate

from helpers import assert_plain_numbers

TWO_PI = 2 * np.pi


def shear_config(out_dir, t_end=1.0, amplitude=1e-3, kappa=0.0, dt=0.02,
                 snapshot_every=0, report_every=20):
    return {
        "grid": {"dims": [64, 64, 1]},
        "params": {"mu": 1.0, "eta": 1.0, "kappa": kappa},
        "system": "fi_incompressible",
        "scenario": {"kind": "standing_shear_wave", "amplitude": amplitude,
                     "wavevector": [1, 0, 0], "polarization": [0, 1, 0]},
        "control": {"t_end": t_end, "dt": dt},
        "outputs": {"snapshot_every": snapshot_every,
                    "report_every": report_every, "out_dir": str(out_dir)},
    }


def _without(section, key):
    """The JSON text of a config document less one key of a section."""
    return lambda doc: json.dumps(
        {**doc, section: {k: v for k, v in doc[section].items() if k != key}})


class TestConfigValidation:
    def test_minimal_config_parses(self, tmp_path):
        cfg = RunConfig.from_dict(shear_config(tmp_path / "o"))
        assert cfg.system == "fi_incompressible"
        assert cfg.grid.dims == (64, 64, 1)

    def test_missing_polarization_rejected(self, tmp_path):
        doc = shear_config(tmp_path / "o")
        del doc["scenario"]["polarization"]
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)

    def test_incompatible_scenario_system(self, tmp_path):
        doc = shear_config(tmp_path / "o")
        doc["scenario"] = {"kind": "compression_pulse", "amplitude": 1e-3,
                           "wavevector": [1, 0, 0]}
        with pytest.raises(ConfigError, match="incompatible"):
            RunConfig.from_dict(doc)

    def test_unknown_system_rejected(self, tmp_path):
        doc = shear_config(tmp_path / "o")
        doc["system"] = "navier_stokes"
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        doc = shear_config(tmp_path / "o")
        doc["integrator"] = "rk4"
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)

    @pytest.mark.parametrize("doc", [[1, 2], "config", 5, None])
    def test_non_object_document_rejected(self, doc):
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            RunConfig.from_dict(doc)

    def test_content_hash_is_canonical(self, tmp_path):
        a = shear_config(tmp_path / "o")
        b = json.loads(json.dumps(a))
        assert config_content_hash(a) == config_content_hash(b)
        b["params"]["kappa"] = 0.1
        assert config_content_hash(a) != config_content_hash(b)


class TestRun:
    def test_zero_amplitude_all_residuals_zero(self, tmp_path):
        doc = shear_config(tmp_path / "out", amplitude=0.0, t_end=0.2)
        summary, _ = run(RunConfig.from_dict(doc))
        for value in summary["law_residual_max_normalized_linf"].values():
            assert value == 0.0

    def test_artifacts_and_manifest_checksums(self, tmp_path):
        out = tmp_path / "out"
        doc = shear_config(out, t_end=0.5, snapshot_every=10, report_every=10)
        run(RunConfig.from_dict(doc))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == config_content_hash(doc)
        assert manifest["artifacts"]
        for rel, digest in manifest["artifacts"].items():
            blob = (out / rel).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == digest, rel
        # both candidate induction weights are reported
        assert manifest["params"]["b_weight_mu"] == 1.0
        assert manifest["params"]["b_weight_eta_c2"] == 1.0
        # what the run cost: wall time, minor page faults and peak RSS
        resources = manifest["resources"]
        assert set(resources) == {"wall_s", "minor_page_faults", "process_peak_rss_mb"}
        assert resources["wall_s"] > 0.0
        assert isinstance(resources["minor_page_faults"], int)
        assert resources["minor_page_faults"] >= 0
        assert resources["process_peak_rss_mb"] > 0.0

    def test_snapshots_round_trip(self, tmp_path):
        out = tmp_path / "out"
        doc = shear_config(out, t_end=0.2, snapshot_every=5)
        run(RunConfig.from_dict(doc))
        fields, meta = read_snapshot(out / "snapshots" / "step_00000000")
        v = fields["v"]
        assert meta["time"] == 0.0
        x = np.linspace(0, TWO_PI, 64, endpoint=False)
        np.testing.assert_allclose(
            v.y.values[:, 0, 0], 1e-3 * np.sin(x), atol=1e-15)

    def test_shear_run_measures_wave_speed(self, tmp_path):
        doc = shear_config(tmp_path / "out", t_end=2.0)
        summary, _ = run(RunConfig.from_dict(doc))
        m = summary["measurement"]
        assert m["valid"]
        assert m["phase_speed_rel_error"] < 0.005

    def test_auto_dt_wave_run_is_measured_on_its_sample_clock(self, tmp_path):
        # auto dt would vary the step with the wave's velocity; the run holds
        # its first step as the sample clock, so the fit reads a uniform series
        doc = shear_config(tmp_path / "out", t_end=13.0, amplitude=0.3, dt="auto")
        doc["grid"]["dims"] = [32, 32, 1]
        summary, _ = run(RunConfig.from_dict(doc))
        m = summary["measurement"]
        assert summary["samples"] == 217
        assert m["valid"]
        assert m["phase_speed_rel_error"] < 1e-6

    def test_fixed_dt_wave_run_drops_only_the_short_final_step(self, tmp_path):
        # 6.5 / 0.03 is not whole: the last step is shortened and its sample
        # dropped, and the uniform rest is fitted
        doc = shear_config(tmp_path / "out", t_end=6.5, dt=0.03)
        doc["grid"]["dims"] = [32, 32, 1]
        summary, _ = run(RunConfig.from_dict(doc))
        m = summary["measurement"]
        assert summary["samples"] == 218
        assert m["valid"]
        assert m["phase_speed_rel_error"] < 1e-6

    def test_reports_stream_written(self, tmp_path):
        out = tmp_path / "out"
        doc = shear_config(out, t_end=0.5, report_every=5)
        run(RunConfig.from_dict(doc))
        lines = (out / "reports.ndjson").read_text().strip().split("\n")
        assert len(lines) >= 5
        sample = json.loads(lines[0])
        assert "faraday_lorentz" in sample["laws"]
        csv_lines = (out / "reports.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "time,law,l2,linf,norm"

    def test_byte_identical_reruns(self, tmp_path):
        doc_a = shear_config(tmp_path / "a", t_end=0.4, snapshot_every=10,
                             report_every=10)
        doc_b = json.loads(json.dumps(doc_a))
        doc_b["outputs"]["out_dir"] = str(tmp_path / "b")
        run(RunConfig.from_dict(doc_a))
        run(RunConfig.from_dict(doc_b))
        files_a = sorted(p.relative_to(tmp_path / "a")
                         for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b")
                         for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            if rel.name == "manifest.json":
                # manifests embed out_dir in the config echo; compare the rest
                a = json.loads((tmp_path / "a" / rel).read_text())
                b = json.loads((tmp_path / "b" / rel).read_text())
                assert a["artifacts"] == b["artifacts"]
                # the run costs differ, in fixed-width fields
                assert (tmp_path / "a" / rel).stat().st_size == \
                    (tmp_path / "b" / rel).stat().st_size
            else:
                assert (tmp_path / "a" / rel).read_bytes() == \
                    (tmp_path / "b" / rel).read_bytes(), rel
        assert_plain_numbers(tmp_path / "a")

    def test_second_order_system_runs(self, tmp_path):
        doc = shear_config(tmp_path / "out", t_end=0.2)
        doc["system"] = "second_order"
        summary, final = run(RunConfig.from_dict(doc))
        assert summary["final_time"] == pytest.approx(0.2)
        assert "v_t" in summary["norms"]

    @pytest.mark.parametrize("system", ["compressible_liquid", "compressible_solid",
                                        "linear_navier"])
    def test_run_without_pressure_writes_no_p(self, tmp_path, system):
        # only the fi RHS defines a pressure; dt 5e-4 is inside the liquid's
        # diffusive limit, 2.78 / (2 x 1922) = 7.2e-4 on 64x64
        out = tmp_path / "out"
        doc = shear_config(out, t_end=1e-3, dt=5e-4, snapshot_every=1)
        doc["system"] = system
        doc["params"]["lam"] = 2.0
        summary, final = run(RunConfig.from_dict(doc))
        assert not hasattr(final, "p")  # a pressure is a rate, not state
        assert "p" not in summary["norms"]
        written = {p.name for p in (out / "snapshots").rglob("*.f64")}
        assert "v.f64" in written
        assert "p.f64" not in written

    def test_fi_run_still_writes_pressure(self, tmp_path):
        out = tmp_path / "out"
        summary, _ = run(RunConfig.from_dict(
            shear_config(out, t_end=0.04, snapshot_every=1)))
        for step in sorted((out / "snapshots").glob("step_*")):
            assert (step / "p.f64").is_file()
            # the scenario's constant mu and zero u are not fi state
            assert not (step / "mu.f64").exists()
            assert not (step / "u.f64").exists()
        assert sorted(summary["norms"]) == ["E", "p", "v"]

    @pytest.mark.parametrize("system, names", [
        ("fi_incompressible", {"v", "E", "p"}),
        ("linear_navier", {"u", "v"}),
        ("second_order", {"v", "v_t"}),
        ("compressible_liquid", {"v", "E", "mu"}),
        ("compressible_solid", {"v", "E", "mu", "u"}),
        ("classical_maxwell", {"E", "B"}),
    ])
    def test_snapshots_hold_what_the_system_advances(self, tmp_path, system, names):
        # dt inside the liquid's diffusive limit, as in the test above
        out = tmp_path / "out"
        doc = shear_config(out, t_end=1e-3, dt=5e-4, snapshot_every=1)
        doc["system"] = system
        doc["params"]["lam"] = 2.0
        summary, _ = run(RunConfig.from_dict(doc))
        assert set(summary["norms"]) == names
        # one file per field and one sidecar, and no temp file left behind
        expected = {f"{n}.f64" for n in names} | {"snapshot.json"}
        steps = sorted((out / "snapshots").glob("step_*"))
        assert len(steps) == 3
        for step in steps:
            assert {p.name for p in step.iterdir()} == expected, step.name

    def test_artifact_count_of_an_fi_run(self, tmp_path):
        # per sampled state v.f64, E.f64, p.f64 and snapshot.json, then
        # reports.ndjson, reports.csv and summary.json
        out = tmp_path / "out"
        n = 3
        run(RunConfig.from_dict(shear_config(out, t_end=n * 0.02,
                                             snapshot_every=1, report_every=1)))
        files = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
        files.remove("manifest.json")
        assert len(files) == 4 * (n + 1) + 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == files

    def test_classical_maxwell_shear_wave_runs_without_measurement(self, tmp_path):
        # the shear-wave oracle speaks of v, which the classical state lacks
        doc = shear_config(tmp_path / "out", t_end=0.04)
        doc["system"] = "classical_maxwell"
        summary, _ = run(RunConfig.from_dict(doc))
        assert summary["measurement"] is None
        assert summary["samples"] == 0

    def test_compression_pulse_under_linear_navier(self, tmp_path):
        doc = {
            "grid": {"dims": [64, 64, 1]},
            "params": {"mu": 1.0, "eta": 1.0, "lam": 98.0},
            "system": "linear_navier",
            "scenario": {"kind": "compression_pulse", "amplitude": 1e-3,
                         "wavevector": [1, 0, 0]},
            "control": {"t_end": 2.0, "dt": "auto", "cfl": 0.4},
            "outputs": {"out_dir": str(tmp_path / "out")},
        }
        summary, _ = run(RunConfig.from_dict(doc))
        m = summary["measurement"]
        assert m["valid"]
        assert abs(m["measured_phase_speed"] - 10.0) / 10.0 < 0.01
        # no stress vector state: no law reports for this system
        assert summary["law_residual_max_normalized_linf"] == {}

    @pytest.mark.parametrize("system, kind", [
        (system, kind) for system, record in sorted(dynamics.SYSTEMS.items())
        for kind in sorted(record.scenarios & {"gaussian_vortex", "random_solenoidal",
                                               "uniform_E_decay", "compression_pulse"})])
    def test_a_one_point_grid_runs_to_finite_artifacts(self, tmp_path, system, kind):
        # no axis is active, so every derivative is zero and a divergence
        # keeps the leading shape of the stack it reads
        out = tmp_path / "out"
        doc = {"grid": {"dims": [1, 1, 1]}, "system": system,
               "scenario": {"kind": kind, "amplitude": 0.01},
               "control": {"t_end": 0.06, "dt": 0.02},
               "outputs": {"snapshot_every": 1, "report_every": 1, "out_dir": str(out)}}
        summary, _ = run(RunConfig.from_dict(doc))
        assert summary["final_time"] == pytest.approx(0.06)
        snapshots = sorted(out.rglob("*.f64"))
        assert snapshots
        for path in snapshots:
            assert np.isfinite(np.fromfile(path, "<f8")).all(), path
        for path in out.rglob("*.json"):
            json.loads(path.read_text(), parse_constant=_non_finite)
        for path in out.rglob("*.ndjson"):
            for line in path.read_text().splitlines():
                json.loads(line, parse_constant=_non_finite)

    def test_blowup_writes_a_finite_diagnostic_snapshot(self, tmp_path):
        doc = shear_config(tmp_path / "out", t_end=1e5, amplitude=1.0, dt=1e3)
        with pytest.raises(IntegrationError), \
                np.errstate(over="ignore", invalid="ignore"):
            run(RunConfig.from_dict(doc))
        diagnostic = tmp_path / "out" / "diagnostic"
        fields, meta = read_snapshot(diagnostic)
        for name in ("v", "E"):
            assert np.isfinite(fields[name].values).all()
        assert meta["time"] > 0.0
        assert np.isfinite(fields["p"].values).all()

    def test_stage_failure_writes_a_finite_diagnostic_snapshot(self, tmp_path):
        # a strong compression pulse at a stable auto dt: the compressed
        # region empties and the density loses positivity inside an RK stage
        # near t = 0.71
        out = tmp_path / "out"
        doc = {"grid": {"dims": [32, 32, 1]}, "system": "compressible_solid",
               "params": {"lam": 2.0},
               "scenario": {"kind": "compression_pulse", "amplitude": 1.5},
               "control": {"t_end": 1.0},
               "outputs": {"out_dir": str(out)}}
        with pytest.raises(IntegrationError) as info:
            run(RunConfig.from_dict(doc))
        assert isinstance(info.value.__cause__, DensityError)
        diagnostic = out / "diagnostic"
        fields, meta = read_snapshot(diagnostic)
        for name in ("v", "E"):
            assert np.isfinite(fields[name].values).all()
        assert meta["time"] == pytest.approx(info.value.state.time)
        mu = fields["mu"]
        assert np.isfinite(mu.values).all() and mu.values.min() > 0.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg)]) == 1


class TestVerify:
    def test_subset_checks_pass_quickly(self, verify_suite):
        assert verify_suite.code == 0
        assert all(r["pass"] for r in verify_suite.results)
        assert "PASS verify: 41/41" in verify_suite.text

    def test_tally_of_passing_failing_and_raising_checks(self, monkeypatch):
        def raises():
            raise RuntimeError("broken check")

        monkeypatch.setattr(cli, "_verify_checks", lambda: [
            ("passes", lambda: (0.0, 1.0)),
            ("fails", lambda: (2.0, 1.0)),
            ("raises", raises),
        ])
        stream = io.StringIO()
        code, results = verify(stream=stream)
        assert code == 1
        by_name = {r["check"]: r for r in results}
        assert [by_name[n]["pass"] for n in ("passes", "fails", "raises")] == [
            True, False, False]
        assert by_name["raises"]["measured"] == math.inf
        lines = stream.getvalue().splitlines()
        assert [line.split()[:2] for line in lines[:-1]] == [
            ["PASS", "passes:"], ["FAIL", "fails:"], ["FAIL", "raises:"]]
        assert lines[-1].startswith("FAIL verify: 1/3")

    def test_tamper_flag_is_a_usage_error(self):
        # verify takes no options: neither the old --tamper nor --level
        for options in (["--tamper", "div_b_64x64"], ["--level", "quick"],
                        ["--level", "full"]):
            with pytest.raises(SystemExit) as info:
                main(["verify", *options])
            assert info.value.code == 2


def _non_finite(name):
    raise AssertionError(f"an artifact holds {name}")


def _stretch_x(v, factor=1.001):
    """v with its x component scaled, so it is neither a gradient nor a curl."""
    return VectorField(v.grid, (factor * v.x.values, v.y.values, v.z.values))


def _scaled(factor):
    """Fault: op with its result multiplied by `factor`."""
    return lambda op: lambda *args: op(*args) * factor


def _replacing(attr, change):
    """Fault: op's dataclass result with its `attr` passed through `change`."""
    def fault(op):
        def faulty(*args):
            out = op(*args)
            return dataclasses.replace(out, **{attr: change(getattr(out, attr))})
        return faulty
    return fault


def _with_params(change):
    """Fault: op called with every MediumParams argument passed through
    `change`, wherever the signature puts it."""
    return lambda op: lambda *args: op(*(
        change(a) if isinstance(a, MediumParams) else a for a in args))


def _leaky(op):
    """A stepper whose every accepted head's stage values grow by one part
    in 1e9."""
    def leaky(stepper, h):
        op(stepper, h)
        for y in stepper.y:
            y *= 1.0 + 1e-9
    return leaky


def _drifting(op):
    """op whose every call returns a state a little further off than the last."""
    calls = itertools.count()

    def drifting(*args):
        out = op(*args)
        return dataclasses.replace(out, v=out.v * (1.0 + 1e-12 * next(calls)))
    return drifting


# check kind -> (namespace, operator name, fault built from the operator).  A
# check looks its operators up when it runs, in `cli` for the names `cli`
# imports and in the defining module for the rest, so patching there plants
# the fault in that check.  A per-grid kind's fault serves all its grids.
CHECK_FAULTS = {
    "transform_roundtrip": (cli, "ifftn_array", _scaled(1.001)),
    "parseval": (cli, "spectral_norm_l2", _scaled(1.001)),
    "div_of_curl": (cli, "curl", lambda op: lambda v: op(v) + v * 1e-3),
    "curl_of_grad": (cli, "grad", lambda op: lambda f: _stretch_x(op(f))),
    "curl_curl_identity": (diffops, "curl_curl", _scaled(1.001)),
    "leray_idempotent": (
        cli, "leray_project", lambda op: lambda v: ProjectionResult(
            v * 0.5, ScalarField.zeros(v.grid))),
    "leray_divergence_free": (
        cli, "leray_project", lambda op: lambda v: ProjectionResult(
            v, ScalarField.zeros(v.grid))),
    "vector_identity_triple": (diffops, "cross", _scaled(1.001)),
    "gromeka_lamb": (diffops, "dot", _scaled(1.001)),
    "oldroyd_discrepancy": (cli, "hessian_contract", _scaled(1.001)),
    "fi_exact_corollaries": (
        cli, "rhs", _replacing("dE", lambda dE: dE * 1.001)),
    "div_b": (emlaws, "curl", lambda op: lambda v: _stretch_x(op(v))),
    "dispersion_root_residual": (
        cli, "dispersion_shear", _replacing("omega_plus", lambda w: w + 1e-3)),
    "kappa_decay_rate": (dynamics, "_stress_rate_hat", _with_params(
        lambda p: dataclasses.replace(p, kappa=0.9 * p.kappa))),
    "shear_wave_speed": (dynamics, "_stress_rate_hat", _scaled(1.02)),
    "energy_drift_100_steps": (dynamics._Stepper, "advance", _leaky),
    "bitwise_rerun": (cli, "integrate", _drifting),
}


def _check_kind(name: str) -> str:
    """A check's kind: its name less the grid tag of a per-grid check."""
    return re.sub(r"_\d+(x\d+)+$", "", name)


@pytest.mark.parametrize("name", [name for name, _ in _verify_checks()])
def test_planted_fault_fails_quick_check(monkeypatch, name):
    checks = dict(_verify_checks())
    assert len(checks) == 41
    # one fault per check kind, in suite order
    assert list(CHECK_FAULTS) == list(dict.fromkeys(map(_check_kind, checks)))
    namespace, operator, fault = CHECK_FAULTS[_check_kind(name)]
    monkeypatch.setattr(namespace, operator, fault(getattr(namespace, operator)))
    measured, bound = checks[name]()
    assert measured >= bound


class TestSweep:
    def test_empty_values_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep(shear_config(tmp_path / "o"), "amplitude", [], tmp_path / "s")

    def test_unknown_axis_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep(shear_config(tmp_path / "o"), "viscosity", [1.0], tmp_path / "s")

    def test_failure_recorded_and_sweep_continues(self, tmp_path):
        doc = shear_config(tmp_path / "o", t_end=0.2)
        # negative conductivity violates the parameter invariants: run fails,
        # the sweep records it and continues
        summary = sweep(doc, "kappa", [0.1, -0.5], tmp_path / "s")
        statuses = [r["status"] for r in summary["rows"]]
        assert statuses == ["ok", "failed"]
        assert summary["partial"]
        csv_text = (tmp_path / "s" / "sweep.csv").read_text()
        assert "failed" in csv_text

    def test_kappa_axis_records_decay(self, tmp_path):
        doc = shear_config(tmp_path / "o", t_end=2.0)
        summary = sweep(doc, "kappa", [0.1, 0.2], tmp_path / "s")
        assert not summary["partial"]
        rows = summary["rows"]
        # telegraph damping: measured decay rate tracks kappa/2
        assert rows[0]["decay_rate"] == pytest.approx(0.05, rel=0.05)
        assert rows[1]["decay_rate"] == pytest.approx(0.10, rel=0.05)

    def test_kappa_axis_with_auto_dt_runs_every_value(self, tmp_path):
        # at kappa 20 the wave limit alone would give kappa dt = 3.14
        doc = shear_config(tmp_path / "o", t_end=1.0, dt="auto")
        doc["grid"]["dims"] = [16, 16, 1]
        summary = sweep(doc, "kappa", [0.5, 20.0], tmp_path / "s")
        assert not summary["partial"]
        assert [r["status"] for r in summary["rows"]] == ["ok", "ok"]

    def test_sweep_csv_holds_plain_numbers(self, tmp_path):
        doc = shear_config(tmp_path / "o", t_end=2.0)
        doc["grid"]["dims"] = [16, 16, 1]
        sweep(doc, "kappa", [0.1, 0.2], tmp_path / "s")
        assert_plain_numbers(tmp_path / "s")
        lines = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["status"] == "ok"
            for name in ("value", "phase_speed", "decay_rate"):
                float(row[name])

    def test_lambda_axis_rows_equal_a_direct_deviation(self, tmp_path):
        doc = {
            "grid": {"dims": [16, 16, 1]},
            "params": {"mu": 1.0, "eta": 1.0},
            "system": "compressible_solid",
            "scenario": {"kind": "random_solenoidal", "amplitude": 0.05, "seed": 3},
            "control": {"t_end": 0.1, "dt": "auto", "cfl": 0.4},
        }
        summary = sweep(doc, "lambda", [10.0, 100.0], tmp_path / "s")
        assert not summary["partial"]
        # every run, the incompressible reference included, takes the auto dt
        # of the stiffest lambda; the deviation is measured after projection
        grid = make_grid((16, 16, 1), (TWO_PI,) * 3)
        spec = ScenarioSpec("random_solenoidal", amplitude=0.05, seed=3)
        stiff = MediumParams(lam=100.0)
        state0 = generate(spec, grid, stiff)
        dt = auto_step_size(state0, stiff, StepControl(t_end=0.1, cfl=0.4),
                            "compressible_solid")
        control = StepControl(t_end=0.1, dt=dt)
        v_ref = integrate(state0, stiff, control, "fi_incompressible").v
        for row in summary["rows"]:
            params = MediumParams(lam=row["value"])
            v = integrate(generate(spec, grid, params), params, control,
                          "compressible_solid").v
            assert row["delta"] == params.delta
            assert row["deviation_l2"] == (
                norm_l2(leray_project(v).solenoidal - v_ref) / norm_l2(v_ref))

    def test_amplitude_axis_rows_equal_a_direct_maxwell_distance(self, tmp_path):
        doc = {
            "grid": {"dims": [16, 16, 1]},
            "params": {"mu": 1.0, "eta": 1.0},
            "system": "fi_incompressible",
            "scenario": {"kind": "random_solenoidal", "amplitude": 0.1, "seed": 11},
            "control": {"t_end": 0.2, "dt": 0.02},
        }
        summary = sweep(doc, "amplitude", [1e-2, 1e-1], tmp_path / "s")
        assert not summary["partial"]
        # sup over steps >= 1 of the (E, mu curl v) distance between the fi
        # run and the classical run from the matched initial data, each
        # classical step taken to the time of the next fi state
        grid = make_grid((16, 16, 1), (TWO_PI,) * 3)
        params = MediumParams()
        control = StepControl(t_end=0.2, dt=0.02)
        for row in summary["rows"]:
            spec = ScenarioSpec("random_solenoidal", amplitude=row["value"], seed=11)
            state0 = generate(spec, grid, params)
            fi = []
            integrate(state0, params, control, "fi_incompressible",
                      lambda i, s, rates: fi.append(s))
            classical = [MaxwellState(0.0, state0.E, curl(state0.v) * params.mu)]
            for a in fi[1:]:
                b = classical[-1]
                classical.append(integrate(
                    b, params, StepControl(t_end=a.time, dt=a.time - b.time),
                    "classical_maxwell"))
            assert len(fi) == len(classical) == 11
            expected = max(
                np.sqrt(norm_l2(a.E - b.E) ** 2
                        + norm_l2(curl(a.v) * params.mu - b.B) ** 2)
                for a, b in zip(fi[1:], classical[1:]))
            assert expected > 0.0
            assert row["maxwell_distance"] == expected

    def test_the_classical_twin_takes_four_evaluations_per_tick(self, monkeypatch,
                                                                tmp_path):
        # one classical stepper continues across the run's 10 ticks: one
        # evaluation of the initial state, then the 4 of each RK4 step
        doc = {
            "grid": {"dims": [16, 16, 1]},
            "params": {"mu": 1.0, "eta": 1.0},
            "system": "fi_incompressible",
            "scenario": {"kind": "random_solenoidal", "amplitude": 0.1, "seed": 11},
            "control": {"t_end": 0.2, "dt": 0.02},
        }
        calls = itertools.count()
        classical = dynamics._rhs_classical_maxwell

        def counted(state, params):
            next(calls)
            return classical(state, params)

        monkeypatch.setattr(dynamics, "_rhs_classical_maxwell", counted)
        row = cli._sweep_one(doc, "amplitude", 0.1, tmp_path / "run")
        assert row["status"] == "ok" and row["maxwell_distance"] > 0.0
        assert next(calls) == 4 * 10 + 1


class _RecordingPool(concurrent.futures.ProcessPoolExecutor):
    """The real process pool, recording the worker count of each pool made."""

    created: list = []

    def __init__(self, max_workers=None, *args, **kwargs):
        self.created.append(max_workers)
        super().__init__(max_workers, *args, **kwargs)


class TestSweepInput:
    @pytest.fixture
    def pool(self, monkeypatch):
        monkeypatch.setattr(_RecordingPool, "created", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _RecordingPool)
        return _RecordingPool

    def test_json_array_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        code = main(["sweep", "--config", str(cfg), "--axis", "kappa",
                     "--values", "0.1"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_jobs_flag_is_a_usage_error(self, tmp_path):
        # the pool is sized from the values and the CPUs: there is no knob
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(shear_config(tmp_path / "out", t_end=0.04)))
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", str(cfg), "--axis", "kappa",
                  "--values", "0.1,0.2", "--jobs", "2",
                  "--out", str(tmp_path / "s")])
        assert info.value.code == 2
        assert not (tmp_path / "s").exists()

    def test_pool_sized_from_values_and_usable_cpus(self, tmp_path, monkeypatch,
                                                    pool):
        doc = shear_config(tmp_path / "o", t_end=0.04)
        values = [0.1, 0.2, 0.3]
        rows, csvs = [], []
        for cpus in ({0}, {0, 1, 2, 3}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c)
            out = tmp_path / f"s{len(cpus)}"
            summary = sweep(doc, "kappa", values, out)
            assert not summary["partial"]
            rows.append([{k: v for k, v in r.items() if k != "run_dir"}
                         for r in summary["rows"]])
            csvs.append((out / "sweep.csv").read_bytes())
        assert pool.created == [1, min(len(values), 4)]
        assert [r["value"] for r in rows[0]] == values
        assert rows[0] == rows[1]
        assert csvs[0] == csvs[1]

    def test_usable_cpus_fall_back_to_cpu_count(self, tmp_path, monkeypatch,
                                                pool):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        summary = sweep(shear_config(tmp_path / "o", t_end=0.04), "kappa",
                        [0.1, 0.2, 0.3], tmp_path / "s")
        assert not summary["partial"]
        assert pool.created == [2]

    def test_failed_run_in_a_worker_keeps_its_own_message(self, tmp_path):
        # an IntegrationError carries the last state and a closure, which do
        # not pickle; the row must still hold the run's own message
        doc = shear_config(tmp_path / "o", t_end=0.2)
        doc["grid"]["dims"] = [16, 16, 1]
        doc["scenario"] = {"kind": "random_solenoidal", "amplitude": 0.1,
                           "seed": 3}
        # eta = 1e6 takes c dt far past RK4's stability range
        summary = sweep(doc, "eta", [1.0, 1e6], tmp_path / "s")
        ok, failed = summary["rows"]
        assert ok["status"] == "ok"
        assert failed["status"] == "failed"
        assert failed["error"].startswith("step from t=")
        assert "pickle" not in failed["error"]


class TestMainEntryPoint:
    def test_missing_config_exits_2_with_json_error(self, capsys):
        code = main(["run", "--config", "/nonexistent/cfg.json"])
        assert code == 2
        err = capsys.readouterr().err
        payload = json.loads(err.strip())
        assert payload["error"] == "ConfigError"

    @pytest.mark.parametrize("section", ["grid", "params", "scenario",
                                         "control", "outputs"])
    @pytest.mark.parametrize("value", [5, [1], None, "x"])
    def test_non_object_section_exits_2_with_json_error(self, tmp_path, capsys,
                                                        section, value):
        doc = shear_config(tmp_path / "out")
        doc[section] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = main(["run", "--config", str(cfg)])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ConfigError"
        assert f"config section '{section}' must be a JSON object" in payload["message"]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("outputs, message", [
        ([], "config section 'outputs' must be a JSON object, got list"),
        ({"out_dir": 5}, "outputs.out_dir must be a string, got 5"),
    ], ids=["list", "numeric_out_dir"])
    def test_malformed_outputs_exit_2_with_json_error(self, tmp_path, capsys,
                                                      monkeypatch, command,
                                                      outputs, message):
        # sweep resolves its out dir from `outputs` before any run checks it
        monkeypatch.chdir(tmp_path)
        doc = shear_config(tmp_path / "out", t_end=0.04)
        doc["outputs"] = outputs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        sweep_args = ["--axis", "kappa", "--values", "0.1"]
        code = main([command, "--config", str(cfg),
                     *(sweep_args if command == "sweep" else [])])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload == {"error": "ConfigError", "message": message}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("section, key, value", [
        ("control", "t_end", float("inf")),
        ("params", "kappa", float("nan")),
    ])
    def test_non_finite_number_exits_2_with_json_error(self, tmp_path, capsys,
                                                       section, key, value):
        doc = shear_config(tmp_path / "out")
        doc[section][key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))   # written as JSON Infinity / NaN
        code = main(["run", "--config", str(cfg)])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ConfigError"
        assert key in payload["message"]

    @pytest.mark.parametrize("section, key, value", [
        ("grid", "dim", [16, 16, 1]),            # a typo of dims
        ("outputs", "report_evry", 1),           # a typo of report_every
        ("scenario", "seed", 1.5),
        ("scenario", "seed", -3),
        ("scenario", "wavevector", [1.5, 0, 0]),
        ("grid", "dims", [16.7, 16, 1]),
        ("outputs", "snapshot_every", 2.5),
        ("outputs", "snapshot_every", -1),
        ("outputs", "report_every", -2),
        ("control", "t_end", True),
        # zeta is derived from eta and tau, the vortex width is fixed
        ("params", "zeta", 1.0),
        ("scenario", "width", 0.125),
    ])
    def test_bad_section_value_exits_2_with_json_error(self, tmp_path, capsys,
                                                       section, key, value):
        doc = shear_config(tmp_path / "out", t_end=0.04)
        doc[section][key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = main(["run", "--config", str(cfg)])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ConfigError"
        assert key in payload["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: json.dumps(doc)[:-1], "config is not valid JSON"),
        (_without("scenario", "kind"),
         "scenario needs at least 'kind' and 'amplitude'"),
        (_without("scenario", "amplitude"),
         "scenario needs at least 'kind' and 'amplitude'"),
        (_without("control", "t_end"), "control needs 't_end'"),
    ], ids=["invalid_json", "no_kind", "no_amplitude", "no_t_end"])
    def test_incomplete_config_exits_2_with_json_error(self, tmp_path, capsys,
                                                       edit, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(edit(shear_config(tmp_path / "out", t_end=0.04)))
        code = main(["run", "--config", str(cfg)])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ConfigError"
        assert message in payload["message"]
        assert not (tmp_path / "out").exists()

    def test_numpy_integers_are_integers(self, tmp_path):
        doc = shear_config(tmp_path / "out")
        doc["grid"]["dims"] = [np.int64(16), np.int32(16), np.int64(1)]
        doc["outputs"]["report_every"] = np.int64(3)
        config = RunConfig.from_dict(doc)
        assert config.grid.dims == (16, 16, 1)
        assert config.report_every == 3

    def test_run_via_main(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(shear_config(tmp_path / "out", t_end=0.2)))
        code = main(["run", "--config", str(cfg)])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["final_time"] == pytest.approx(0.2)

    def test_run_via_main_lands_on_a_tiny_t_end(self, tmp_path, capsys):
        doc = shear_config(tmp_path / "out", t_end=1e-13, dt=0.01)
        doc["grid"]["dims"] = [16, 16, 1]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["final_time"] == 1e-13

    def test_bad_sweep_values_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(shear_config(tmp_path / "out", t_end=0.2)))
        code = main(["sweep", "--config", str(cfg), "--axis", "amplitude",
                     "--values", "1e-3,banana"])
        assert code == 2

    def test_console_script_installed(self):
        # the child imports metacont from where this process did, whether
        # through PYTHONPATH or through pytest's `pythonpath` setting
        root = str(Path(metacont.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "metacont.cli", "--help"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "run" in proc.stdout and "verify" in proc.stdout

    def test_import_loads_no_scipy(self):
        # the transforms run on numpy.fft; scipy would double the import time
        root = str(Path(metacont.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        code = ("import sys, metacont, metacont.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


def _reexports(module: str) -> list[str]:
    """The names metacont/__init__.py imports from metacont.<module>."""
    tree = ast.parse(Path(metacont.__file__).read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module == module for alias in node.names]


@pytest.mark.parametrize("name", ["cli", "diffops", "dynamics", "emlaws",
                                  "fields", "scenarios"])
def test_exported_names_resolve(name):
    module = importlib.import_module(f"metacont.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    for n in _reexports(name):
        assert n in module.__all__
        assert getattr(metacont, n) is getattr(module, n)
