"""Self-tests of the benchmark: every correctness gate can fail.

    python3 -m pytest perfbench

Each workload is run once in this process; then each checked artifact is
perturbed on disk (as `metacont verify --tamper` perturbs a checked field),
and the matching check must fail and raise the run's failed_frac.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from metacont import cli  # noqa: E402


@pytest.fixture(scope="module")
def good_runs(tmp_path_factory):
    """Artifacts of one untampered run per workload, seed 7."""
    base = tmp_path_factory.mktemp("good")
    out = {}
    for name, make_doc in workloads.WORKLOADS.items():
        config = cli.RunConfig.from_dict(make_doc(7), out_dir=base / name)
        cli.run(config)
        out[name] = (base / name, config.control.t_end)
    return out


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _edit_last_report(out_dir: Path, law: str, value: float) -> None:
    path = out_dir / "reports.ndjson"
    lines = path.read_text().splitlines()
    report = json.loads(lines[-1])
    report["laws"][law]["normalized_linf"] = value
    lines[-1] = json.dumps(report, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


def _scale_last_density(out_dir: Path, factor: float, shift: float = 0.0) -> None:
    path = sorted((out_dir / "snapshots").glob("step_*"))[-1] / "mu.f64"
    mu = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
    mu[0] = mu[0] * factor + shift
    path.write_bytes(mu.tobytes())


TAMPERS = {
    "wave2d": {
        "phase_speed": (lambda d: _edit_json(
            d / "summary.json",
            lambda s: s["measurement"].update(
                measured_phase_speed=s["measurement"]["measured_phase_speed"] * 1.01)),
            "phase speed"),
        "fit_invalid": (lambda d: _edit_json(
            d / "summary.json", lambda s: s["measurement"].update(valid=False)),
            "wave fit"),
        "truncated": (lambda d: _edit_json(
            d / "summary.json", lambda s: s.update(final_time=s["final_time"] / 2)),
            "run stopped"),
    },
    "laws2d": {
        **{law: (lambda d, law=law: _edit_last_report(d, law, 1e-3), "corollary")
           for law in workloads.COROLLARIES},
        "nan_residual": (lambda d: _edit_last_report(d, "hertz_form", float("nan")),
                         "corollary"),
    },
    "solid3d": {
        "negative_density": (lambda d: _scale_last_density(d, -1.0), "positivity"),
        "mass_drift": (lambda d: _scale_last_density(d, 1.0, 1e-6), "mass drift"),
    },
}
TAMPERS["wave2d"]["corollary"] = (
    lambda d: _edit_last_report(d, "faraday_lorentz", 1e-3), "corollary")
CASES = [(w, t) for w, tampers in TAMPERS.items() for t in tampers]


def _worker_result(workload: str, out_dir: Path, t_end: float) -> dict:
    outputs = workloads.collect_outputs(out_dir)
    return {"failures": workloads.check_outputs(workload, outputs, t_end),
            "digest": outputs["digest"]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untampered_run_passes(good_runs, workload):
    out_dir, t_end = good_runs[workload]
    assert _worker_result(workload, out_dir, t_end)["failures"] == []


@pytest.mark.parametrize("workload,tamper", CASES)
def test_tampered_output_fails(good_runs, tmp_path, workload, tamper):
    good_dir, t_end = good_runs[workload]
    bad_dir = tmp_path / "bad"
    shutil.copytree(good_dir, bad_dir)
    perturb, expected = TAMPERS[workload][tamper]
    perturb(bad_dir)

    runner = run.Runner(workload, 7, tmp_path)
    runner.record(_worker_result(workload, good_dir, t_end))
    assert runner.failed_frac() == 0.0
    runner.record(_worker_result(workload, bad_dir, t_end))
    assert any(expected in f for f in runner.reps[-1]["failures"])
    assert runner.failed_frac() == 0.5


def test_changed_artifact_bytes_fail_the_repetition(good_runs, tmp_path):
    """Criterion 10: repetitions must write byte-identical artifacts."""
    good_dir, t_end = good_runs["laws2d"]
    bad_dir = tmp_path / "bad"
    shutil.copytree(good_dir, bad_dir)
    snapshot = sorted((bad_dir / "snapshots").rglob("*.f64"))[-1]
    data = bytearray(snapshot.read_bytes())
    data[0] ^= 1
    snapshot.write_bytes(bytes(data))

    runner = run.Runner("laws2d", 7, tmp_path)
    runner.record(_worker_result("laws2d", good_dir, t_end))
    runner.record(_worker_result("laws2d", bad_dir, t_end))
    assert runner.reps[-1]["failures"] == ["artifacts differ from the first repetition"]
    assert runner.failed_frac() == 0.5


def test_differing_trace_counts_are_reported(tmp_path):
    runner = run.Runner("laws2d", 7, tmp_path)
    metrics = {"fields.transforms_per_step": [1.0, "count"]}
    for traced, steps in ((False, None), (True, 60), (True, 61)):
        result = {"failures": [], "digest": "d", "run_s": 1.0, "ref_s": [0.1, 0.1]}
        if traced:
            result["trace"] = {"counts": {"steps": steps}, "metrics": metrics}
        runner.record(result, traced)
    run.trace_metrics(runner)
    assert any("traced counts differ" in f for f in runner.failures)


def test_traced_run_reports_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "laws2d", "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in bench["per_layer"]}
    assert "trace.overhead_frac" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wave2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
