"""Batch experiment runner: `metacont run | verify | sweep`.

Configs are single JSON documents; all quantities are dimensionless with the
convention mu = 1, eta = 1 (so c = 1) unless overridden.  Artifacts are
written atomically (temp file + rename) under the output directory:

    manifest.json     config echo, content hash, artifact checksums, run costs
    reports.ndjson    one law-residual report per sampled time
    reports.csv       same data as (time, law, l2, linf, norm) rows
    snapshots/        per sampled step, one raw f64 file per field and one
                      JSON sidecar (snapshot.json) for the step
    summary.json      final norms, wave measurement vs oracle when available

Identical configs give byte-identical artifacts, apart from manifest.json's costs.

`sweep` runs one simulation per value of one config key, in a process pool
of min(number of values, usable CPUs) workers; it takes no worker option.

`verify` takes no options.  It runs one suite of 41 checks: twelve operator,
corollary and div B checks on each of a 64x64, a 128x128 and a 32^3 grid,
then five trajectory and oracle checks on the 64x64 grid.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import hashlib
import json
import numbers
import os
import resource
import sys
import time as _time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import diffops, dynamics, emlaws, scenarios
from .diffops import curl, div, grad, hessian_contract, leray_project
from .dynamics import (
    SYSTEMS,
    MediumParams,
    StepControl,
    auto_step_size,
    integrate,
    oldroyd_discrepancy,
    rhs,
)
from .fields import (
    GridSpec,
    ScalarField,
    TensorField,
    VectorField,
    atomic_write_text,
    fftn_array,
    ifftn_array,
    make_grid,
    norm_l2,
    norm_linf,
    spectral_norm_l2,
    write_snapshot,
)
from .scenarios import (
    ScenarioSpec,
    band_limited_noise,
    dispersion_shear,
    generate,
    measure_wave,
    trim_uniform,
    wave_oracle,
)

__all__ = ["ConfigError", "RunConfig", "run", "verify", "sweep", "main"]

TWO_PI = 2.0 * np.pi

class ConfigError(ValueError):
    """Invalid run configuration."""


# the keys of the sections that no dataclass checks, and the integer keys
# that no dataclass checks; no key takes a JSON boolean
_SECTION_KEYS = {"grid": {"dims", "lengths"},
                 "outputs": {"snapshot_every", "report_every", "out_dir"}}
_INTEGER_KEYS = {"snapshot_every", "report_every"}


def _check_section(section: str, body) -> None:
    if not isinstance(body, dict):
        raise ConfigError(f"config section {section!r} must be a JSON object, "
                          f"got {type(body).__name__}")
    unknown = set(body) - _SECTION_KEYS.get(section, set(body))
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    for key, value in body.items():
        items = value if isinstance(value, (list, tuple)) else [value]
        if any(isinstance(x, (bool, np.bool_)) for x in items):
            raise ConfigError(f"{section}.{key} must not be a boolean")
        if key in _INTEGER_KEYS and not all(
                isinstance(x, numbers.Integral) for x in items):
            raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
        if key == "out_dir" and not isinstance(value, str):
            raise ConfigError(f"{section}.{key} must be a string, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    params: MediumParams
    system: str
    scenario: ScenarioSpec
    control: StepControl
    snapshot_every: int
    report_every: int
    out_dir: Path
    raw: dict

    @classmethod
    def from_dict(cls, doc: dict, out_dir=None) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        known = {"grid", "params", "system", "scenario", "control", "outputs"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for section in ("grid", "params", "scenario", "control", "outputs"):
            _check_section(section, doc.get(section, {}))
        try:
            grid_doc = doc.get("grid", {})
            grid = make_grid(
                tuple(grid_doc.get("dims", (64, 64, 1))),
                tuple(grid_doc.get("lengths", (TWO_PI, TWO_PI, TWO_PI))),
            )
            params = MediumParams(**doc.get("params", {}))
            system = doc.get("system")
            if system not in SYSTEMS:
                raise ConfigError(
                    f"system must be one of {list(SYSTEMS)}, got {system!r}"
                )
            scen_doc = dict(doc.get("scenario", {}))
            if "kind" not in scen_doc or "amplitude" not in scen_doc:
                raise ConfigError("scenario needs at least 'kind' and 'amplitude'")
            if scen_doc.get("polarization") is not None:
                scen_doc["polarization"] = tuple(scen_doc["polarization"])
            scenario = ScenarioSpec(**scen_doc)
            control_doc = dict(doc.get("control", {}))
            if "t_end" not in control_doc:
                raise ConfigError("control needs 't_end'")
            control = StepControl(**control_doc)
            outputs = dict(doc.get("outputs", {}))
            snapshot_every = int(outputs.get("snapshot_every", 0))
            report_every = int(outputs.get("report_every", 0))
            resolved_out = Path(out_dir or outputs.get("out_dir", "out"))
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        if snapshot_every < 0 or report_every < 0:
            raise ConfigError("snapshot_every and report_every must be >= 0")
        allowed = SYSTEMS[system].scenarios
        if scenario.kind not in allowed:
            raise ConfigError(
                f"scenario {scenario.kind!r} is incompatible with system "
                f"{system!r} (allowed: {sorted(allowed)})"
            )
        return cls(grid=grid, params=params, system=system, scenario=scenario,
                   control=control, snapshot_every=snapshot_every,
                   report_every=report_every, out_dir=resolved_out, raw=doc)


def _read_config(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return doc


def load_config(path, out_dir=None) -> RunConfig:
    return RunConfig.from_dict(_read_config(path), out_dir=out_dir)


def config_content_hash(doc: dict) -> str:
    """Git-style blob hash of the canonicalized config document."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha1(b"blob %d\0" % len(blob) + blob).hexdigest()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

# artifact names of state attributes and rates that differ from the attribute
_ARTIFACT_NAMES = {"mu_field": "mu", "pressure": "p"}


def _snapshot_fields(system: str, state, rates=None):
    """(artifact name, field) of what the system advances, plus the rates it
    observes (fi's pressure) when `rates()` of the state is given."""
    record = SYSTEMS[system]
    fields = [(name, getattr(state, name)) for name in record.fields]
    if rates is not None:
        fields += [(name, getattr(rates(), name)) for name in record.observed]
    return [(_ARTIFACT_NAMES.get(name, name), field)
            for name, field in fields if field is not None]


def run(config: RunConfig, observer=None):
    """Execute one configured simulation; returns (summary dict, final state).

    `observer(i, state, rates)`, when given, sees every observed state after
    the run has recorded it (see `dynamics.integrate`).
    """
    t_start = _time.perf_counter()
    usage_start = resource.getrusage(resource.RUSAGE_SELF)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    snap_root = out / "snapshots"
    record = SYSTEMS[config.system]

    oracle = wave_oracle(config.scenario, config.grid, config.params,
                         config.system)
    times, series = [], []
    reports = []
    written: list[Path] = []
    reported_at: set[int] = set()
    snapped_at: set[int] = set()

    def snap(step_index: int, state, rates) -> None:
        written.extend(write_snapshot(
            snap_root / f"step_{step_index:08d}",
            _snapshot_fields(config.system, state, rates), state.time))
        snapped_at.add(step_index)

    def report(step_index: int, state, rates) -> None:
        if record.report is not None:
            reports.append(record.report(state, config.params, rates()))
        reported_at.add(step_index)

    last = {}

    def observe(i, state, rates):
        last.update(index=i, rates=rates)
        if oracle is not None:
            times.append(state.time)
            series.append(oracle.sample(state))
        if i == 0 or (config.report_every and i % config.report_every == 0):
            report(i, state, rates)
        if i == 0 or (config.snapshot_every and i % config.snapshot_every == 0):
            snap(i, state, rates)
        if observer is not None:
            observer(i, state, rates)

    try:
        # no reference here keeps the initial state past the first step
        final_state = integrate(record.initial(generate(
            config.scenario, config.grid, config.params), config.params),
            config.params, config.control, config.system, observer=observe)
        # the final state is always reported and snapshotted
        if last["index"] not in reported_at:
            report(last["index"], final_state, last["rates"])
        if last["index"] not in snapped_at:
            snap(last["index"], final_state, last["rates"])
    except dynamics.IntegrationError as exc:
        # keep a diagnostic snapshot of the last accepted state
        diag = exc.state
        write_snapshot(out / "diagnostic",
                       _snapshot_fields(config.system, diag, exc.rates), diag.time)
        raise

    # measurement vs oracle, on uniform ticks less a short final one
    measurement = None
    t_arr, s_arr = trim_uniform(np.array(times), np.array(series))
    if oracle is not None and len(t_arr) >= 8:
        m = measure_wave(t_arr, s_arr, k_mag=oracle.k_mag)
        measurement = {
            "measured_omega": m.omega,
            "measured_phase_speed": m.phase_speed,
            "measured_decay_rate": m.decay_rate,
            "fit_residual": m.fit_residual,
            "valid": m.valid,
            "degenerate": m.degenerate,
            "oracle": oracle.summary(),
            **oracle.errors(m),
        }

    reports_path = out / "reports.ndjson"
    emlaws.write_reports_ndjson(reports, reports_path)
    csv_path = out / "reports.csv"
    emlaws.write_reports_csv(reports, csv_path)
    written.extend([reports_path, csv_path])

    worst_laws = {}
    for r in reports:
        for e in r.entries:
            worst_laws[e.name] = max(worst_laws.get(e.name, 0.0), e.normalized_linf)

    summary = {
        "system": config.system,
        "scenario": config.scenario.kind,
        "final_time": final_state.time,
        "norms": {
            name: {"l2": norm_l2(field), "linf": norm_linf(field)}
            for name, field in _snapshot_fields(config.system, final_state,
                                                last["rates"])
        },
        "measurement": measurement,
        "law_residual_max_normalized_linf": worst_laws,
        "samples": len(times),
    }
    summary_path = out / "summary.json"
    atomic_write_text(summary_path, json.dumps(summary, sort_keys=True, indent=2) + "\n")
    written.append(summary_path)

    manifest = {
        "config": config.raw,
        "config_hash": config_content_hash(config.raw),
        "params": {
            **asdict(config.params),
            "zeta": config.params.zeta,
            "c": config.params.c,
            "c_s": config.params.c_s,
            "delta": config.params.delta,
            # both candidate weights for the induction field B = <weight> curl v;
            # the mu form is the one in use, eta*c^2 is reported for comparison
            "b_weight_mu": config.params.mu,
            "b_weight_eta_c2": config.params.eta * config.params.c ** 2,
        },
        "artifacts": {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(set(written))
        },
    }
    # the run's costs differ between reruns; fixed-width fields keep the size
    # of the manifest, which perfbench's trace counts, the same (ru_maxrss: KiB)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    resources = ('{"minor_page_faults": %12d, "process_peak_rss_mb": %12.3f, '
                 '"wall_s": %12.6f}' % (usage.ru_minflt - usage_start.ru_minflt,
                                        usage.ru_maxrss / 1024.0,
                                        _time.perf_counter() - t_start))
    atomic_write_text(out / "manifest.json", '{\n  "resources": ' + resources + ","
                      + json.dumps(manifest, sort_keys=True, indent=2)[1:] + "\n")
    return summary, final_state


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_checks():
    """The suite's (name, callable) pairs in run order.  Each callable takes
    no argument, returns (measured, bound) and looks its operators up when it
    is called."""
    grids = [make_grid(dims, (TWO_PI, TWO_PI, TWO_PI))
             for dims in ((64, 64, 1), (128, 128, 1), (32, 32, 32))]
    grid2d = grids[0]

    def noise_vector(grid, seed, fraction):
        return VectorField(grid, band_limited_noise(grid, seed, fraction, (3,), 1.0))

    def roundtrip(grid):
        rng = np.random.default_rng(42)
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        back = ifftn_array(grid, fftn_array(grid, f.values))
        return float(np.max(np.abs(back - f.values))) / norm_linf(f), 1e-13

    def parseval(grid):
        rng = np.random.default_rng(43)
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        phys = norm_l2(f)
        coeffs = fftn_array(grid, f.values)
        return abs(phys - spectral_norm_l2(grid, coeffs)) / phys, 1e-12

    def div_curl(grid):
        return norm_linf(div(curl(noise_vector(grid, 44, 0.4)))), 1e-12

    def curl_grad(grid):
        arr = band_limited_noise(grid, 45, 0.25)
        f = ScalarField(grid, arr / np.max(np.abs(arr)))
        return norm_linf(curl(grad(f))), 1e-12

    def curl_curl_identity(grid):
        v = noise_vector(grid, 46, 0.4)
        direct = diffops.curl_curl(v)
        composed = grad(div(v)) - diffops.laplacian(v)
        return norm_l2(direct - composed) / norm_l2(direct), 1e-12

    def leray_idempotent(grid):
        once = leray_project(noise_vector(grid, 47, 0.4)).solenoidal
        twice = leray_project(once).solenoidal
        return norm_linf(twice - once), 1e-13

    def leray_divfree(grid):
        v = noise_vector(grid, 48, 0.4)
        return norm_linf(div(leray_project(v).solenoidal)), 1e-12

    def vector_identity(grid):
        v, e = noise_vector(grid, 49, 0.25), noise_vector(grid, 50, 0.25)
        return norm_linf(diffops.identity_residual_triple(v, e)), 1e-10

    def gromeka(grid):
        v = noise_vector(grid, 51, 0.25)
        return norm_linf(diffops.gromeka_lamb_residual(v)), 1e-10

    def oldroyd(grid):
        arrs = band_limited_noise(grid, 52, shape=(3, 3))
        sigma = TensorField(
            grid, arrs / np.max(np.abs(arrs), axis=(2, 3, 4), keepdims=True))
        v = noise_vector(grid, 53, 1 / 6)
        residual = oldroyd_discrepancy(sigma, v) + hessian_contract(v, sigma)
        return norm_linf(residual), 1e-9

    def corollaries(grid):
        params = MediumParams(kappa=0.3)
        spec = ScenarioSpec("random_solenoidal", amplitude=1e-2, seed=54)
        state = generate(spec, grid, params)
        report = emlaws.fi_report(state, params, rhs(state, params, "fi_incompressible"))
        worst = max(report.entry(law).normalized_linf for law in (
            "faraday_lorentz", "hertz_form", "generalized_ampere",
            "metacharge_continuity"))
        return worst, 1e-9

    def div_b(grid):
        params = MediumParams()
        spec = ScenarioSpec("random_solenoidal", amplitude=0.5, seed=55)
        em = emlaws.extract_em(generate(spec, grid, params), params)
        return norm_linf(div(em.B)), 1e-12

    def dispersion_roots():
        worst = 0.0
        for kappa, k in ((0.0, 1.0), (0.5, 1.0), (2.0, 2.0), (8.0, 1.0)):
            params = MediumParams(kappa=kappa)
            d = dispersion_shear(k, params)
            for w in (d.omega_plus, d.omega_minus):
                res = abs(params.mu * w ** 2 + 1j * kappa * params.mu * w
                          - params.eta * k ** 2)
                worst = max(worst, res / (params.mu * abs(w) ** 2
                                          + params.eta * k ** 2))
        return worst, 1e-12

    def kappa_decay():
        kappa, t_end = 0.5, 3.0
        params = MediumParams(kappa=kappa)
        spec = ScenarioSpec("uniform_E_decay", amplitude=0.1, wavevector=(1, 0, 0))
        state = generate(spec, grid2d, params)
        out = integrate(state, params, StepControl(t_end=t_end, dt="auto", cfl=0.4),
                        "fi_incompressible")
        rate = -np.log(norm_linf(out.E) / 0.1) / t_end
        return abs(rate - kappa) / kappa, 0.005

    shear_spec = ScenarioSpec("standing_shear_wave", amplitude=1e-3,
                              wavevector=(1, 0, 0), polarization=(0, 1, 0))

    def shear_wave(params):
        return generate(shear_spec, grid2d, params)

    def shear_speed():
        params = MediumParams()
        oracle = wave_oracle(shear_spec, grid2d, params, "fi_incompressible")
        times, series = [], []

        def obs(i, s, rates):
            times.append(s.time)
            series.append(oracle.sample(s))

        integrate(shear_wave(params), params, StepControl(t_end=6.5, dt=0.026),
                  "fi_incompressible", obs)
        t, s = trim_uniform(np.array(times), np.array(series))
        m = measure_wave(t, s, k_mag=oracle.k_mag)
        return oracle.errors(m)["phase_speed_rel_error"], 0.005

    def energy_drift():
        params = MediumParams()
        state = shear_wave(params)
        e0 = 0.5 * norm_l2(state.v) ** 2 + 0.5 * norm_l2(state.E) ** 2
        state = integrate(state, params, StepControl(t_end=2.0, dt=0.02),
                          "fi_incompressible")
        e1 = 0.5 * norm_l2(state.v) ** 2 + 0.5 * norm_l2(state.E) ** 2
        return abs(e1 - e0) / e0, 1e-8

    def rerun():
        params = MediumParams()
        spec = ScenarioSpec("random_solenoidal", amplitude=0.1, seed=56)
        digests = []
        for _ in range(2):
            out = integrate(generate(spec, grid2d, params), params,
                            StepControl(t_end=0.2, dt=0.02), "fi_incompressible")
            digests.append(hashlib.sha256(
                out.v.values.tobytes() + out.E.values.tobytes()).hexdigest())
        return float(digests[0] != digests[1]), 0.5

    # twelve check kinds on every grid, named `<kind>_<grid tag>`, then the
    # trajectory and oracle checks, once, on the 64x64 grid
    per_grid = [
        ("transform_roundtrip", roundtrip), ("parseval", parseval),
        ("div_of_curl", div_curl), ("curl_of_grad", curl_grad),
        ("curl_curl_identity", curl_curl_identity),
        ("leray_idempotent", leray_idempotent),
        ("leray_divergence_free", leray_divfree),
        ("vector_identity_triple", vector_identity), ("gromeka_lamb", gromeka),
        ("oldroyd_discrepancy", oldroyd), ("fi_exact_corollaries", corollaries),
        ("div_b", div_b),
    ]
    checks = []
    for grid in grids:
        tag = "x".join(str(n) for n in grid.dims if n > 1)
        checks += [(f"{kind}_{tag}", functools.partial(check, grid))
                   for kind, check in per_grid]
    return checks + [
        ("dispersion_root_residual", dispersion_roots),
        ("kappa_decay_rate", kappa_decay),
        ("shear_wave_speed", shear_speed),
        ("energy_drift_100_steps", energy_drift),
        ("bitwise_rerun", rerun),
    ]


def verify(stream=None) -> tuple[int, list[dict]]:
    """Run the check suite: the operator identities, the exact corollaries
    and div B on a 64x64, a 128x128 and a 32^3 grid, then the trajectory and
    oracle checks on the 64x64 grid.

    Prints one PASS/FAIL line per check and a closing tally to `stream`
    (stdout by default).  A check passes when its measured value is below its
    bound; a check that raises fails with measured = inf.  Returns
    (exit_code, results), one result dict per check; the exit code is 1 when
    any check fails.
    """
    stream = stream or sys.stdout
    results = []
    failures = 0
    t_start = _time.perf_counter()
    for name, fn in _verify_checks():
        t0 = _time.perf_counter()
        try:
            measured, bound = fn()
        except Exception as exc:  # a crashing check is a failing check
            measured, bound = float("inf"), 0.0
            note = f" ({type(exc).__name__}: {exc})"
        else:
            note = ""
        elapsed = _time.perf_counter() - t0
        ok = measured < bound
        failures += 0 if ok else 1
        results.append({"check": name, "measured": float(measured),
                        "bound": float(bound), "pass": bool(ok),
                        "seconds": elapsed})
        print(f"{'PASS' if ok else 'FAIL'} {name}: measured={measured:.3e} "
              f"bound={bound:.0e} ({elapsed:.2f}s){note}", file=stream)
    total = _time.perf_counter() - t_start
    print(f"{'PASS' if failures == 0 else 'FAIL'} verify: "
          f"{len(results) - failures}/{len(results)} checks in {total:.1f}s",
          file=stream)
    return (0 if failures == 0 else 1), results


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_AXES = {
    "amplitude": ("scenario", "amplitude"),
    "lambda": ("params", "lam"),
    "kappa": ("params", "kappa"),
    "eta": ("params", "eta"),
    "mu": ("params", "mu"),
    "nu": ("params", "nu"),
}


def _config_with(doc: dict, axis: str, value: float) -> dict:
    section, key = _SWEEP_AXES[axis]
    out = json.loads(json.dumps(doc))  # deep copy
    out.setdefault(section, {})[key] = value
    return out


def _maxwell_twin(config: RunConfig, row: dict):
    """The observer of an fi run of `config` that steps the classical twin of
    the run's initial state alongside it on one classical stepper, one step
    per tick of the run's sample clock (its own steps under a fixed dt), and
    keeps in row["maxwell_distance"] the sup over ticks of the distance
    between the twin and the classical view (E, mu curl v) of the fi state."""
    params = config.params
    classical = SYSTEMS["classical_maxwell"]
    twin = None

    def observer(i, fi_state, rates):
        nonlocal twin
        view = classical.initial(fi_state, params)
        if i == 0:
            twin = dynamics._Stepper("classical_maxwell", params, view)
            twin.start(view)
            row["maxwell_distance"] = 0.0
        else:
            twin.advance(fi_state.time - twin.time)
            row["maxwell_distance"] = max(row["maxwell_distance"], float(np.sqrt(
                norm_l2(view.E - twin.state.E) ** 2
                + norm_l2(view.B - twin.state.B) ** 2)))

    return observer


def _delta_reference(stiff: RunConfig) -> tuple[float, VectorField]:
    """(common dt, incompressible reference velocity at t_end) of a lambda
    sweep, from its config at the stiffest lambda.

    Every run of the sweep, the incompressible reference included, takes the
    time step that the stiffest lambda dictates, so that the time-integration
    error cancels in the deviation.
    """
    state0 = generate(stiff.scenario, stiff.grid, stiff.params)
    dt = auto_step_size(state0, stiff.params, stiff.control, "compressible_solid")
    reference = integrate(state0, stiff.params,
                          StepControl(t_end=stiff.control.t_end, dt=dt),
                          "fi_incompressible")
    if norm_l2(reference.v) == 0.0:
        raise ValueError("reference trajectory is identically zero")
    return dt, reference.v


def _delta_deviation(v: VectorField, reference_v: VectorField) -> float:
    """|P v - v_ref|_2 / |v_ref|_2, where P is the Leray projection.

    The acoustic (gradient) component of a compressible velocity rings at the
    fast compressional frequency with amplitude ~ sqrt(delta) and has no
    incompressible counterpart (it converges only weakly), so the comparison
    is made on the common solenoidal subspace, where the convergence is first
    order in delta.
    """
    return norm_l2(leray_project(v).solenoidal - reference_v) / norm_l2(reference_v)


def _loglog_slope(points) -> float | None:
    """Least-squares slope of log10 y against log10 x over the (x, y) pairs
    where both are positive; None when fewer than two pairs are."""
    pts = [(x, y) for x, y in points if x and y and x > 0 and y > 0]
    if len(pts) < 2:
        return None
    return float(np.polyfit(np.log10([x for x, _ in pts]),
                            np.log10([y for _, y in pts]), 1)[0])


def _sweep_one(doc: dict, axis: str, value: float, out_dir: Path,
               reference_v: VectorField | None = None) -> dict:
    """The sweep row of one value.  A failing run gives a failed row; it is
    caught here, in the worker, because a run's exception may carry state
    that does not pickle."""
    row = {"axis": axis, "value": value, "status": "ok",
           "run_dir": str(out_dir)}
    try:
        config = RunConfig.from_dict(_config_with(doc, axis, value),
                                     out_dir=out_dir)
        observer = None
        if axis == "amplitude" and config.system == "fi_incompressible":
            observer = _maxwell_twin(config, row)
        summary, final = run(config, observer)
        m = summary.get("measurement")
        if m:
            row["phase_speed"] = m["measured_phase_speed"]
            row["decay_rate"] = m["measured_decay_rate"]
        if axis == "lambda":
            row["delta"] = config.params.delta
        if reference_v is not None:
            row["deviation_l2"] = _delta_deviation(final.v, reference_v)
    except Exception as exc:  # run failures recorded, sweep continues
        return {"axis": axis, "value": value, "status": "failed",
                "error": str(exc)}
    return row


def sweep(doc: dict, axis: str, values, out_dir) -> dict:
    """One run per value; aggregated CSV plus slope estimates where registered.

    axis='amplitude' on the incompressible system records the trajectory
    distance to the classical reference (slope ~ 2 expected); axis='lambda'
    on the compressible solid branch records the deviation from a common-dt
    incompressible reference against delta (slope ~ 1 expected, see
    `_delta_deviation`).  Individual run failures are recorded and the
    sweep continues; the summary marks partial results.  The runs execute
    in one process pool of min(len(values), usable CPUs) workers; the rows
    keep the order of the values.
    """
    values = [float(v) for v in values]
    if not values:
        raise ConfigError("sweep needs a non-empty value list")
    if axis not in _SWEEP_AXES:
        raise ConfigError(
            f"axis must be one of {sorted(_SWEEP_AXES)}, got {axis!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    reference_v = None
    if axis == "lambda" and doc.get("system") == "compressible_solid":
        doc = _config_with(doc, "lambda", max(values))
        doc["control"]["dt"], reference_v = _delta_reference(RunConfig.from_dict(doc))

    # the usable CPUs are the affinity set, where the platform has one
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(min(len(values), cpus)) as pool:
        futures = [pool.submit(_sweep_one, doc, axis, v, out / f"run_{i:03d}",
                               reference_v)
                   for i, v in enumerate(values)]
        rows = [f.result() for f in futures]

    ok_rows = [r for r in rows if r["status"] == "ok"]
    slope = None
    if axis == "amplitude":
        slope = _loglog_slope(
            (r["value"], r.get("maxwell_distance")) for r in ok_rows)
    elif axis == "lambda":
        slope = _loglog_slope(
            (r.get("delta"), r.get("deviation_l2")) for r in ok_rows)

    header = ["axis", "value", "status", "phase_speed", "decay_rate",
              "maxwell_distance", "delta", "deviation_l2", "slope_estimate"]
    lines = [",".join(header)]
    for r in rows:
        r["slope_estimate"] = slope
        cells = []
        for h in header:
            val = r.get(h)
            cells.append("" if val is None else
                         (repr(val) if isinstance(val, float) else str(val)))
        lines.append(",".join(cells))
    atomic_write_text(out / "sweep.csv", "\n".join(lines) + "\n")

    summary = {
        "axis": axis,
        "values": values,
        "rows": rows,
        "slope_estimate": slope,
        "partial": any(r["status"] != "ok" for r in rows),
    }
    atomic_write_text(out / "sweep_summary.json",
                      json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _error_json(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="metacont",
        description="Batch runner for the elastic-fluid simulator and its "
                    "electromagnetic-law verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured simulation")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)

    sub.add_parser("verify", help="run the 41-check suite of operator "
                   "identities, exact corollaries and wave oracles")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep, one run per "
                             "value in a pool of up to one process per CPU")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numeric values")
    p_sweep.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            config = load_config(args.config, out_dir=args.out)
            summary, _ = run(config)
            print(json.dumps(summary, sort_keys=True, indent=2))
            return 0
        if args.command == "verify":
            code, _ = verify()
            return code
        if args.command == "sweep":
            doc = _read_config(args.config)
            try:
                values = [float(v) for v in args.values.split(",") if v.strip()]
            except ValueError as exc:
                raise ConfigError(f"bad --values: {exc}") from exc
            # the out dir is resolved before any run checks the config; a
            # swept key may be absent from it, so only `outputs` is checked
            outputs = doc.get("outputs", {})
            _check_section("outputs", outputs)
            out_dir = args.out or outputs.get("out_dir", "out")
            summary = sweep(doc, args.axis, values, out_dir)
            print(json.dumps({k: v for k, v in summary.items() if k != "rows"},
                             sort_keys=True, indent=2))
            return 1 if summary["partial"] else 0
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(_error_json(exc), file=sys.stderr)
        return 2
    except (dynamics.IntegrationError, dynamics.StepSizeError,
            scenarios.ScenarioError, scenarios.FitError, ValueError) as exc:
        print(_error_json(exc), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
