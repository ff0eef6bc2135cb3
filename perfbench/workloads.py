"""Benchmark workloads: one `metacont run` config per workload, and its checks.

Each workload is a function of the benchmark seed that returns a run-config
document for `metacont.cli.RunConfig.from_dict`; the same seed gives the same
document.  The checks read only the artifacts a run writes (summary.json,
reports.ndjson, snapshots/), so tampering with an artifact on disk must make
the matching check fail; `test_benchmark.py` does exactly that.

This module imports neither numpy nor metacont at load time, so the parent
process of the benchmark stays light and the child's set-up time is the
program's own.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

# the four discrete corollaries of the incompressible right-hand side; their
# normalized L-inf residuals close at round-off (the seed measures <= 8e-14)
COROLLARIES = ("faraday_lorentz", "hertz_form", "generalized_ampere",
               "metacharge_continuity")
COROLLARY_BOUND = 1e-9
PHASE_SPEED_BOUND = 5e-3      # criterion 1: |c_measured - 1| with c = 1
MASS_BOUND = 1e-12            # relative drift of mean(mu_field)


def wave2d(seed: int) -> dict:
    """Criterion-1 standing shear wave, fi_incompressible at 64x64x1, 250 steps.

    Why: the small-array 2D stepping path.  Traced on the seed commit,
    transforms take ~58% of the run, the Leray projection ~17% and RHS self
    time (field construction and algebra) ~28%; every stage also
    inverse-transforms inactive-axis d_z derivatives that are exact zeros.
    It isolates the field containers, the projection and 2D axis skipping;
    reports and snapshots are sparse so artifact writing stays out of it.
    The seed picks the propagation axis (x or y) and an amplitude in
    [0.8e-3, 1.2e-3]; both leave the linear phase speed c = 1 unchanged.
    """
    rng = random.Random(seed)
    along_y = rng.random() < 0.5
    amplitude = 1e-3 * rng.uniform(0.8, 1.2)
    return {
        "grid": {"dims": [64, 64, 1]},
        "params": {"mu": 1.0, "eta": 1.0, "kappa": 0.0},
        "system": "fi_incompressible",
        "scenario": {"kind": "standing_shear_wave", "amplitude": amplitude,
                     "wavevector": [0, 1, 0] if along_y else [1, 0, 0],
                     "polarization": [1, 0, 0] if along_y else [0, 1, 0]},
        "control": {"t_end": 6.5, "dt": 0.026},
        "outputs": {"report_every": 50, "snapshot_every": 50},
    }


def laws2d(seed: int) -> dict:
    """Criterion-10 config: random_solenoidal fi_incompressible at 64x64x1,
    kappa = 0.1, 60 steps, a law report and a snapshot at every step.

    Why: the same stepping layer as wave2d, but emlaws.fi_report takes ~30%
    of the run and snapshot writes ~10% (~1,350 files).  A change that makes
    stepping faster but reports or artifact writes slower shows here and not
    on wave2d.  The seed is the scenario seed.
    """
    return {
        "grid": {"dims": [64, 64, 1]},
        "params": {"mu": 1.0, "eta": 1.0, "kappa": 0.1},
        "system": "fi_incompressible",
        "scenario": {"kind": "random_solenoidal", "amplitude": 0.05,
                     "seed": seed},
        "control": {"t_end": 1.2, "dt": 0.02},
        "outputs": {"report_every": 1, "snapshot_every": 1},
    }


def solid3d(seed: int) -> dict:
    """compressible_solid random_solenoidal at 32^3, lam = 10, 20 steps.

    Why: 8x larger arrays than the 2D workloads and ~446 transforms per
    step, which take ~71% of the run.  There is no inactive axis and no
    Leray projection in the stepping, so it shows batched or real-to-complex
    transforms and the compressible RHS, while inactive-axis skipping and
    projection changes should leave it unchanged.  The seed is the scenario
    seed.
    """
    return {
        "grid": {"dims": [32, 32, 32]},
        "params": {"mu": 1.0, "eta": 1.0, "lam": 10.0},
        "system": "compressible_solid",
        "scenario": {"kind": "random_solenoidal", "amplitude": 0.05,
                     "seed": seed},
        "control": {"t_end": 0.24, "dt": 0.012},
        "outputs": {"report_every": 10, "snapshot_every": 10},
    }


WORKLOADS = {"wave2d": wave2d, "laws2d": laws2d, "solid3d": solid3d}


# ---------------------------------------------------------------------------
# outputs and checks
# ---------------------------------------------------------------------------

def artifact_digest(out_dir) -> str:
    """sha256 over the relative paths and bytes of every artifact except
    manifest.json, which embeds the output directory in its config echo."""
    out_dir = Path(out_dir)
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            h.update(str(path.relative_to(out_dir)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def collect_outputs(out_dir) -> dict:
    """Everything the checks look at, read back from the run's artifacts."""
    import numpy as np

    out_dir = Path(out_dir)
    summary = json.loads((out_dir / "summary.json").read_text())
    corollary_worst = 0.0
    reports = 0
    for line in (out_dir / "reports.ndjson").read_text().splitlines():
        laws = json.loads(line)["laws"]
        reports += 1
        for name in COROLLARIES:
            # a missing law or a NaN must fail, so both count as infinity
            value = float(laws.get(name, {}).get("normalized_linf", math.inf))
            corollary_worst = max(corollary_worst,
                                  math.inf if math.isnan(value) else value)
    masses, minima = [], []
    for snap in sorted((out_dir / "snapshots").glob("step_*")):
        mu_path = snap / "mu.f64"
        if mu_path.exists():
            mu = np.frombuffer(mu_path.read_bytes(), dtype="<f8")
            masses.append(float(np.mean(mu)))
            minima.append(float(np.min(mu)))
    return {
        "measurement": summary.get("measurement"),
        "final_time": summary.get("final_time"),
        "reports": reports,
        "corollary_worst": corollary_worst,
        "masses": masses,
        "density_minima": minima,
        "digest": artifact_digest(out_dir),
    }


def _check_wave(outputs: dict) -> list[str]:
    m = outputs["measurement"]
    if not m or not m.get("valid"):
        return ["wave fit is not valid"]
    err = abs(float(m["measured_phase_speed"]) - 1.0)
    if not err < PHASE_SPEED_BOUND:
        return [f"phase speed error {err:.3e} >= {PHASE_SPEED_BOUND:.0e}"]
    return []


def _check_corollaries(outputs: dict) -> list[str]:
    if outputs["reports"] == 0:
        return ["no law reports written"]
    worst = outputs["corollary_worst"]
    if not worst < COROLLARY_BOUND:
        return [f"corollary residual {worst:.3e} >= {COROLLARY_BOUND:.0e}"]
    return []


def _check_density(outputs: dict) -> list[str]:
    masses, minima = outputs["masses"], outputs["density_minima"]
    if len(masses) < 2:
        return ["fewer than two density snapshots"]
    failures = []
    if not min(minima) > 0.0:
        failures.append(f"density lost positivity (min {min(minima):.3e})")
    drift = max(abs(m - masses[0]) for m in masses) / abs(masses[0])
    if not drift <= MASS_BOUND:
        failures.append(f"mass drift {drift:.3e} > {MASS_BOUND:.0e}")
    return failures


CHECKS = {
    "wave2d": (_check_wave, _check_corollaries),
    "laws2d": (_check_corollaries,),
    "solid3d": (_check_density,),
}


def check_outputs(workload: str, outputs: dict, t_end: float) -> list[str]:
    """Failure messages of one repetition; empty when every check passes."""
    failures = []
    if outputs["final_time"] is None or abs(outputs["final_time"] - t_end) > 1e-9:
        failures.append(f"run stopped at t={outputs['final_time']}, not {t_end}")
    for check in CHECKS[workload]:
        failures.extend(check(outputs))
    return failures
